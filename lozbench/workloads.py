"""Seeded task lists for the four benchmark workloads.

A task is one user-level call into lozlab (one count, one ``check``, or
one CLI invocation) plus the independent reference its result must
match.  The seed picks hole sets within fixed strata and shuffles the
task order; lozlab only ever sees the generated inputs.  References
never come from the code path under test: tiling counts are compared
with classical product formulas, identity checks with their own
verdict (two disjoint routes), and CLI output with the stdout digests
recorded in ``cli_golden.json``.
"""

from __future__ import annotations

import hashlib
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial
from pathlib import Path
from typing import Callable

import lozlab

HERE = Path(__file__).resolve().parent
GOLDEN = HERE / "cli_golden.json"
CHILD_TIMEOUT_S = 60


@dataclass(frozen=True)
class Task:
    """One timed call and the check of its result.

    ``call(tracer)`` does the work; in-process tasks ignore the tracer,
    CLI tasks use it to run a traced child.  ``judge(value)`` returns
    the task's output text (hashed into the workload digest) and
    whether the value matches the reference.
    """

    name: str
    call: Callable
    judge: Callable


# ---------------------------------------------------------------------
# independent references for symmetric hexagon counts


def sc_box(n: int) -> int:
    """Rot180-invariant tilings of hexagon(n, n, n), n even.

    Self-complementary plane partitions in a 2m-cube are the square of
    the m-cube box count (Stanley 1986).
    """
    return lozlab.macmahon_box(n // 2, n // 2, n // 2) ** 2


def cspp(n: int) -> int:
    """Rot120-invariant tilings of hexagon(n, n, n): cyclically symmetric
    plane partitions, Andrews' proof of Macdonald's product."""
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(3 * i - 1, 3 * i - 2)
        for j in range(i, n + 1):
            out *= Fraction(n + i + j - 1, 2 * i + j - 1)
    return int(out)


def asm_squared(n: int) -> int:
    """Rot60-invariant tilings of hexagon(n, n, n), n even: cyclically
    symmetric self-complementary plane partitions, A(n/2)^2 where A
    counts alternating sign matrices (Kuperberg; Mills-Robbins-Rumsey)."""
    m = n // 2
    out = Fraction(1)
    for k in range(m):
        out *= Fraction(factorial(3 * k + 1), factorial(m + k))
    return int(out) ** 2


SYM_REFERENCE = {"Rot180": sc_box, "Rot120": cspp, "Rot60": asm_squared}


# ---------------------------------------------------------------------
# task builders


def _subsets(n: int) -> list[tuple[int, ...]]:
    return [c for s in range(n + 1) for c in combinations(range(1, n + 1), s)]


def _params_text(params: dict) -> str:
    parts = []
    for name, value in params.items():
        if isinstance(value, tuple):
            value = "+".join(map(str, value)) or "-"
        parts.append("%s=%s" % (name, value))
    return ";".join(parts)


def count_task(n: int) -> Task:
    expected = lozlab.macmahon_box(n, n, n)

    def judge(value):
        return "%d" % value, value == expected

    return Task("count hexagon %d,%d,%d" % (n, n, n),
                lambda _tracer: lozlab.count_tilings(lozlab.hexagon(n, n, n)),
                judge)


def sym_task(n: int, kind: str) -> Task:
    expected = SYM_REFERENCE[kind](n)

    def judge(value):
        return "%d" % value, value == expected

    return Task("count-sym hexagon %d,%d,%d %s" % (n, n, n, kind),
                lambda _tracer: lozlab.count_symmetric_tilings(
                    lozlab.hexagon(n, n, n), (kind,), "quotient"),
                judge)


def check_task(identity: str, **params) -> Task:
    def judge(r):
        text = "lhs=%s rhs=%s factors=%s %s/%s" % (
            r.lhs, r.rhs, "*".join(map(str, r.factors)),
            r.lhs_route, r.rhs_route)
        return text, r.verdict is True

    return Task("check %s %s" % (identity, _params_text(params)),
                lambda _tracer: lozlab.check(identity, params), judge)


# ---------------------------------------------------------------------
# workloads


def _draw(rng: random.Random, pool: list, k: int) -> list:
    return rng.sample(pool, min(k, len(pool)))


def _sized(n: int, size: int) -> list[tuple[int, ...]]:
    return list(combinations(range(1, n + 1), size))


def det_ladder(rng: random.Random) -> list[Task]:
    """Dense determinants: the plain hexagon ladder, rotation quotients
    and the product-formula identities at a = 4..6, b = 1, two holes."""
    tasks = [count_task(n) for n in range(4, 13)]
    tasks += [sym_task(n, "Rot180") for n in (2, 4, 6, 8)]
    tasks += [sym_task(n, "Rot120") for n in range(2, 9)]
    tasks += [sym_task(n, "Rot60") for n in (2, 4, 6, 8)]
    for a in (4, 5, 6):
        for identity in ("E3_5", "E3_10"):
            for ks in _draw(rng, _sized(a, 2), 2):
                tasks.append(check_task(identity, a=a, b=1, ks=ks))
        for ks in _draw(rng, _sized(a - 1, 2), 2):
            tasks.append(check_task("E3_13", a=a, b=1, ks=ks, x=1))
    return tasks


def search_catalog(rng: random.Random) -> list[Task]:
    """Orbit search, filter enumeration and small quotients on the stock
    a <= 3 strata, plus one interior one-hole E3_9 a=3 b=2 row.

    Each E3_1/E3_9 stratum keeps its hole-free row and draws rows with
    max(1, a-1) holes, whose orbit searches cost alike whatever the hole
    positions; fewer holes make the cost swing by up to 5x.  At a=3 b=2
    the hole-free rows (3 s for E3_1, 50 s for E3_9) would swamp the run:
    E3_9 keeps a pinned one-hole row and the three-hole row instead.  Of
    the one-hole rows (5 to 9 s), k=1 is the cheapest, so that a run
    repeats it often enough for a steady median.
    """
    tasks = [check_task("E3_9", a=3, b=2, ks=(1,)),
             check_task("E3_9", a=3, b=2, ks=(1, 2, 3))]
    for a in (1, 2, 3):
        for b in (1, 2):
            for identity in ("E3_1", "E3_9"):
                if (a, b) != (3, 2):
                    tasks.append(check_task(identity, a=a, b=b, ks=()))
                if (identity, a, b) != ("E3_9", 3, 2):
                    for ks in _draw(rng, _sized(a, max(1, a - 1)), 2):
                        tasks.append(check_task(identity, a=a, b=b, ks=ks))
            tasks.append(check_task("I1_9", a=a, b=b))
            tasks.append(check_task("T2_1_cored", a=a, b=b, ks=(), x=1))
            pool = [(x, ks) for x in range(1, a + 1) for ks in _subsets(a - x)
                    if (x, ks) != (1, ())]
            for x, ks in _draw(rng, pool, 2):
                tasks.append(check_task("T2_1_cored", a=a, b=b, ks=ks, x=x))
    for a in (1, 2, 3, 4):
        for b in (1, 2):
            tasks.append(check_task("T2_1_even", a=a, b=b, ks=()))
            for ks in _draw(rng, _subsets(a // 2)[1:], 2):
                tasks.append(check_task("T2_1_even", a=a, b=b, ks=ks))
    return tasks


# (a, b) -> (index-set size, draws) for each of E3_7 and E3_12
FREE_STRATA = {(3, 2): [(1, 2), (2, 2)], (4, 2): [(1, 2), (2, 2)],
               (4, 4): [(1, 2), (2, 1)], (5, 2): [(1, 3), (2, 1)],
               (5, 4): [(1, 2)], (6, 3): [(1, 2)]}


def free_boundary(rng: random.Random) -> list[Task]:
    """Free-boundary subset sums against the d_count product formula.

    Each stratum keeps is=() and draws index sets of fixed sizes from
    2..a.  Index 1 stays out of the draws because for E3_7 it adds a
    free cell, doubling the subsets summed and the cost.
    """
    tasks = []
    for (a, b), draws in FREE_STRATA.items():
        for identity in ("E3_7", "E3_12"):
            tasks.append(check_task(identity, **{"a": a, "b": b, "is": ()}))
            for size, k in draws:
                pool = list(combinations(range(2, a + 1), size))
                for is_ in _draw(rng, pool, k):
                    tasks.append(check_task(identity, **{"a": a, "b": b, "is": is_}))
    return tasks


# ---------------------------------------------------------------------
# CLI workload


def _flags(**params) -> list[str]:
    argv = []
    for name, value in params.items():
        if isinstance(value, tuple):
            # "--ks=" passes the empty list, which verify requires
            argv += (["--%s=" % name] if not value
                     else ["--" + name, ",".join(map(str, value))])
        else:
            argv += ["--" + name, str(value)]
    return argv


def _region(family: str, **params) -> list[str]:
    return ["--family", family] + _flags(**params)


def cli_pool() -> dict[str, list[list[str]]]:
    """Every candidate invocation, by stratum, before the --json choice.

    Verify stays off E3_7/E3_12, whose --json route tag is expected to
    change when the free-boundary sum is replaced.  Free-boundary regions
    are drawn without --tiling: a region with no perfect matching makes
    first_tiling raise StopIteration.
    """
    small = [(1, 1, 1), (1, 2, 3), (2, 2, 2), (2, 3, 1), (3, 2, 2), (3, 3, 3)]
    pool: dict[str, list[list[str]]] = {}
    pool["count"] = [["count"] + _region("hexagon", a=a, b=b, c=c)
                     for a, b, c in small]
    pool["count"] += [["count"] + _region("d", a=3, b=2, eps=eps, **{"is": is_})
                      for eps in (-1, 0) for is_ in _subsets(3)]
    pool["count-sym"] = (
        [["count-sym"] + _region("hexagon", a=n, b=n, c=n) + ["--sym", sym]
         for n in (2, 3, 4) for sym in ("rot180", "rot120")]
        + [["count-sym"] + _region("hexagon", a=n, b=n, c=n) + ["--sym", "rot60"]
           for n in (2, 4)]
        + [["count-sym"] + _region("hexagon", a=a, b=a, c=2) + ["--sym", sym,
                                                                 "--method", method]
           for a in (2, 3) for sym, method in (("reflv", "orbit"), ("reflh", "filter"))]
        + [["count-sym"] + _region("holed", a=a, b=1, ks=ks) + ["--sym", "rot180"]
           for a in (4, 5) for ks in ((), (1,), (2,))])
    pool["verify"] = (
        [["verify", "--id", "E3_5"] + _flags(a=a, b=b, ks=ks)
         for a in (1, 2) for b in (1, 2) for ks in _subsets(a)]
        + [["verify", "--id", "T2_1_even"] + _flags(a=4, b=b, ks=ks)
           for b in (1, 2) for ks in _subsets(2)]
        + [["verify", "--id", "I1_9"] + _flags(a=a, b=b)
           for a in (1, 2) for b in (1, 2)])
    grids = {"E3_5": ("a=1|2;b=1;ks=-|1", "a=2;b=1|2;ks=1|2"),
             "E3_10": ("a=1|2;b=1;ks=-|1", "a=2;b=1|2;ks=1|2"),
             "E3_1": ("a=1|2;b=1;ks=-|1", "a=2;b=1|2;ks=1+2|2"),
             "T2_1_even": ("a=2|4;b=1;ks=-|1", "a=4;b=1|2;ks=1+2"),
             "I1_9": ("a=1..2;b=1|2", "a=3;b=1")}
    pool["sweep"] = [["sweep", "--id", ident, "--grid", g]
                     for ident, gs in grids.items() for g in gs]
    regions = [_region("hexagon", a=a, b=b, c=c) for a, b, c in small[1:5]]
    regions += [_region("holed", a=a, b=1, ks=ks)
                for a, ks in ((4, ()), (4, (1,)), (6, (2,)))]
    pool["render"] = [["render"] + r + extra for r in regions
                      for extra in ([], ["--tiling"], ["--graph", "dual"],
                                    ["--graph", "quotient"])]
    pool["render"] += [["render"] + _region("d", a=2, b=1, eps=eps, **{"is": (1, 2)})
                       + extra for eps in (-1, 0) for extra in ([], ["--graph", "dual"])]
    pool["quotient"] = (
        [["quotient"] + _region("hexagon", a=n, b=n, c=n) + ["--rot", rot]
         for n in (2, 3, 4) for rot in ("rot180", "rot120")]
        + [["quotient"] + _region("hexagon", a=n, b=n, c=n) + ["--rot", "rot60"]
           for n in (2, 4)]
        + [["quotient"] + _region("holed", a=a, b=1, ks=ks)
           for a in (4, 5) for ks in ((), (1,), (2,))])
    pool["split"] = [["split"] + _region("holed", a=a, b=b, ks=ks)
                     for a in (4, 5, 6) for b in (1, 2) for ks in ((), (1,), (2,))]
    return pool


# stratum -> invocations the seed draws per pass; 50 in all
CLI_PICKS = {"count": 8, "count-sym": 6, "verify": 8, "sweep": 6,
             "render": 8, "quotient": 6, "split": 8}


def cli_candidates() -> list[list[str]]:
    """The whole pool with and without --json; cli_golden.json covers it."""
    return [argv + flag for argvs in cli_pool().values() for argv in argvs
            for flag in ([], ["--json"])]


def cli_key(argv: list[str]) -> str:
    return " ".join(argv)


def run_cli(argv: list[str], tracer, env: dict, root: Path) -> tuple[bytes, int]:
    """One CLI process; with a tracer, a shim that records spans."""
    if tracer is None:
        cmd = [sys.executable, "-m", "lozlab", *argv]
    else:
        cmd = [sys.executable, str(HERE / "traced_cli.py"), *argv]
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            env=env, cwd=root)
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise
    if tracer is not None:
        tracer.absorb(err)
    return out, proc.returncode


def cli_small(rng: random.Random, env: dict, root: Path) -> list[Task]:
    """About fifty sequential CLI processes over all seven subcommands."""
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    tasks = []
    for stratum, argvs in cli_pool().items():
        for argv in rng.sample(argvs, CLI_PICKS[stratum]):
            argv = argv + (["--json"] if rng.random() < 0.5 else [])
            key = cli_key(argv)
            expected = golden[key]

            def judge(value, expected=expected):
                out, code = value
                digest = hashlib.sha256(out).hexdigest()
                return ("exit=%d sha256=%s" % (code, digest),
                        code == expected["exit"] and digest == expected["sha256"])

            tasks.append(Task("lozlab " + key,
                              lambda tracer, argv=argv: run_cli(argv, tracer, env, root),
                              judge))
    return tasks


WORKLOADS = ("det-ladder", "search-catalog", "free-boundary", "cli-small")

# why some per-layer metrics read zero on a workload
IDLE_LAYERS = {
    "det-ladder": "in-process counts and quotient/formula checks only: no orbit,"
                  " filter, free-boundary sum, axis split, svg or CLI call",
    "search-catalog": "in-process checks without product formulas or free"
                      " boundaries; no svg or CLI call",
    "free-boundary": "in-process E3_7/E3_12 checks: no symmetry, quotient, split,"
                     " orbit, filter, svg or CLI call",
    "cli-small": "the CLI children reach every layer; a zero means this"
                 " seed drew no invocation of that route",
}


def build(workload: str, seed: int, env: dict, root: Path) -> list[Task]:
    """The task list of one workload for one seed, in run order."""
    rng = random.Random("%s/%d" % (workload, seed))
    if workload == "det-ladder":
        tasks = det_ladder(rng)
    elif workload == "search-catalog":
        tasks = search_catalog(rng)
    elif workload == "free-boundary":
        tasks = free_boundary(rng)
    elif workload == "cli-small":
        tasks = cli_small(rng, env, root)
    else:
        raise ValueError("unknown workload %r" % workload)
    rng.shuffle(tasks)
    return tasks
