"""Cross-check the closed-form counts against independent routes.

Four passes:

1. box counts against the graph engine at desk scale and on the
   hexagon ladder n = 4..24, then the pure permutation symmetry of the
   closed form at larger scale;
2. the rotation quotients of hexagon(n, n, n), n = 1..24, against the
   classical product formulas for symmetric plane partitions;
3. the central counts of holed hexagons against rotation quotients of
   the actual regions at desk scale;
4. the square relations tying central counts to free-boundary counts,
   at a scale the graph engine cannot reach (formula vs formula).

Exits 0 only if every comparison is an exact match.
"""

import argparse
import itertools
import sys
import time
from fractions import Fraction
from math import factorial

from lozlab import (
    count_symmetric_tilings,
    count_tilings,
    d_count,
    hexagon,
    hole_lists,
    holed_count_even,
    holed_count_odd,
    holed_hexagon,
    macmahon_box,
)

# the last n of both hexagon ladders; the determinant of hexagon(n, n, n)
# leaves a core of n columns, so the ladders take cores past 20 columns
LADDER_TOP = 24


def legal_ks(a):
    pool = list(range(1, a + 1))
    for r in range(len(pool) + 1):
        yield from itertools.combinations(pool, r)


def pass_boxes() -> int:
    bad = 0
    for a, b, c in itertools.product((1, 2, 3), repeat=3):
        if count_tilings(hexagon(a, b, c)) != macmahon_box(a, b, c):
            print(f"  MISMATCH box {a},{b},{c}")
            bad += 1
    t0 = time.monotonic()
    for n in range(4, LADDER_TOP + 1):
        if count_tilings(hexagon(n, n, n)) != macmahon_box(n, n, n):
            print(f"  MISMATCH box {n},{n},{n}")
            bad += 1
    print(f"  hexagon ladder n=4..{LADDER_TOP} ({time.monotonic() - t0:.1f}s)")
    for a, b, c in itertools.product(range(1, 11), repeat=3):
        want = macmahon_box(a, b, c)
        for perm in itertools.permutations((a, b, c)):
            if macmahon_box(*perm) != want:
                print(f"  MISMATCH permuted box {perm}")
                bad += 1
    return bad


def self_complementary(n: int) -> int:
    """Rot180-invariant tilings of hexagon(n, n, n), n even: the square
    of MacMahon's box count for the n/2-cube (Stanley)."""
    m = n // 2
    out = Fraction(1)
    for i, j, k in itertools.product(range(1, m + 1), repeat=3):
        out *= Fraction(i + j + k - 1, i + j + k - 2)
    return int(out) ** 2


def cyclically_symmetric(n: int) -> int:
    """Rot120-invariant tilings of hexagon(n, n, n): cyclically
    symmetric plane partitions in the n-cube (Andrews)."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(3 * i - 1, 3 * i - 2)
        for j in range(i, n + 1):
            out *= Fraction(n + i + j - 1, 2 * i + j - 1)
    return int(out)


def asm_squared(n: int) -> int:
    """Rot60-invariant tilings of hexagon(n, n, n), n even: A(n/2)**2,
    with A counting alternating sign matrices (Kuperberg)."""
    m = n // 2
    out = Fraction(1)
    for k in range(m):
        out *= Fraction(factorial(3 * k + 1), factorial(m + k))
    return int(out) ** 2


def pass_quotients(top: int = LADDER_TOP) -> int:
    bad = 0
    for n in range(1, top + 1):
        region = hexagon(n, n, n)
        pairs = [("Rot120", cyclically_symmetric)]
        if n % 2 == 0:
            pairs += [("Rot180", self_complementary), ("Rot60", asm_squared)]
        for kind, formula in pairs:
            got = count_symmetric_tilings(region, (kind,), "quotient")
            if got != formula(n):
                print(f"  MISMATCH {kind} hexagon {n},{n},{n}: "
                      f"formula {formula(n)} engine {got}")
                bad += 1
    return bad


def pass_holed_vs_engine() -> int:
    bad = 0
    for a, b in itertools.product((1, 2), (1, 2)):
        for ks in legal_ks(a):
            pairs = (
                (holed_count_even(a, b, ks), holed_hexagon(2 * a, b, ks)),
                (holed_count_odd(a, b, ks), holed_hexagon(2 * a + 1, b, ks)),
            )
            for want, region in pairs:
                got = count_symmetric_tilings(region, ("Rot180",))
                if got != want:
                    print(f"  MISMATCH {region.family} {region.params}: "
                          f"formula {want} engine {got}")
                    bad += 1
    return bad


def pass_squares(limit: int) -> int:
    bad = 0
    for a in range(1, limit + 1):
        for b in (1, 2, 3):
            for ks in legal_ks(a):
                q = hole_lists(a, ks).q
                if holed_count_even(a, b, ks) != d_count(a, b, -1, q) ** 2:
                    print(f"  MISMATCH even square a={a} b={b} ks={ks}")
                    bad += 1
                if holed_count_odd(a, b, ks) != d_count(a, b, 0, q) ** 2:
                    print(f"  MISMATCH odd square a={a} b={b} ks={ks}")
                    bad += 1
    return bad


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cross-check closed forms")
    parser.add_argument("--max-a", type=int, default=8,
                        help="largest half-side for the square relations")
    args = parser.parse_args(argv)
    bad = 0
    for label, job in (("box counts", pass_boxes),
                       ("rotation quotients", pass_quotients),
                       ("holed central counts", pass_holed_vs_engine),
                       ("square relations",
                        lambda: pass_squares(args.max_a))):
        t0 = time.monotonic()
        misses = job()
        took = time.monotonic() - t0
        state = "ok" if misses == 0 else f"{misses} mismatches"
        print(f"{label:22s} {state}  ({took:.1f}s)")
        bad += misses
    return 0 if bad == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
