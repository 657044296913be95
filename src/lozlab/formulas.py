"""Closed-form product evaluations for symmetric tiling counts.

The number of centrally symmetric tilings of every holed or cored
hexagon in this package factors into short products of consecutive
integers, and the free-boundary strip regions carry the matching
square roots.  This module evaluates those products with exact
rational arithmetic and returns plain integers.  Nothing here
enumerates tilings; agreement with the enumeration engine is checked
in the verify module and in the test suite, not assumed.

Conventions shared by all entry points:

* a is the half-side of the ambient hexagon (side 2a or 2a+1).
* Parameters are checked by the region constructors' own checks from
  the lattice module, so a formula and its region refuse the same
  input with the same message.  Hole indices ks are strictly
  increasing with 1 <= k <= a.  k_1 = 1 is accepted everywhere; the
  products below cover that case directly, no parameter rewrite is
  needed first.
* Every function evaluates an exact Fraction and raises
  FormulaRangeError if the value fails to clear to an integer, which
  signals a misuse (for example an off-contract evaluation point), not
  a rounding issue.
"""

from __future__ import annotations

from fractions import Fraction
from math import comb, factorial
from typing import NamedTuple

from .errors import FormulaRangeError
from .lattice import require_core, require_eps, require_indices, require_int

__all__ = [
    "HoleLists",
    "macmahon_box",
    "hole_lists",
    "eval_Q",
    "eval_S",
    "holed_count_even",
    "holed_count_odd",
    "cored_count",
    "d_count",
]


class HoleLists(NamedTuple):
    """Survivor index lists of a holed hexagon, both strictly increasing."""

    l: tuple[int, ...]
    q: tuple[int, ...]


def _rising(start: int, length: int) -> int:
    # start (start+1) ... (start+length-1); empty product is 1
    out = 1
    for t in range(length):
        out *= start + t
    return out


def macmahon_box(a: int, b: int, c: int) -> int:
    """Plane partitions in an a x b x c box: the classical triple product.

    Symmetric in its arguments; any zero argument gives 1.
    """
    for name, v in (("a", a), ("b", b), ("c", c)):
        require_int(name, v, 0)
    out = Fraction(1)
    for i in range(1, a + 1):
        for j in range(1, b + 1):
            out *= Fraction(i + j + c - 1, i + j - 1)
    assert out.denominator == 1
    return int(out)


def hole_lists(a: int, ks) -> HoleLists:
    """Index lists surviving the holes of a half-side-a hexagon.

    l keeps the values in 1..a-1 not of the form a-k, q keeps the
    values in 1..a not of the form a-k+1.  With s holes q always has
    a-s entries; l has a-s-1 entries unless some hole index equals a
    (its l-removal a-k = 0 falls outside 1..a-1), in which case l has
    one entry more than that.
    """
    require_int("a", a)
    ks = require_indices("ks", ks, a)
    drop_l = {a - k for k in ks}
    drop_q = {a - k + 1 for k in ks}
    l = tuple(v for v in range(1, a) if v not in drop_l)
    q = tuple(v for v in range(1, a + 1) if v not in drop_q)
    return HoleLists(l, q)


def eval_Q(q, x: int, s: int) -> int:
    """Hole polynomial for even sides, evaluated at an integer point.

    Value: c * (prod over q_i of the 2q_i - 1 consecutive integers
    centered at x + s)^2, where c = 4 when 1 is in q and
    c = 2 * prod q_i / (q_i - 1) otherwise.  holed_count_even calls
    this at x = a+b-s, where the result is always integral; elsewhere a
    non-integral value raises FormulaRangeError.
    """
    g = 1
    for qi in q:
        g *= _rising(x + s - qi + 1, 2 * qi - 1)
    if 1 in q:
        const = Fraction(4)
    else:
        const = Fraction(2)
        for qi in q:
            const *= Fraction(qi, qi - 1)
    out = const * g * g
    if out.denominator != 1:
        raise FormulaRangeError(
            "even hole polynomial not integral at x=%d for q=%r" % (x, q))
    return int(out)


def eval_S(q, x: int, s: int) -> int:
    """Hole polynomial for odd sides: an explicit perfect square.

    Each q_i contributes the 2q_i consecutive integers starting at
    x + s - q_i + 1; the full product is squared.  Integral at every
    integer x.
    """
    h = 1
    for qi in q:
        h *= _rising(x + s - qi + 1, 2 * qi)
    return h * h


def _even_prefactor(l, q) -> Fraction:
    coeff = Fraction(1, 2)
    for li in l:
        coeff /= factorial(2 * li - 1)
    for qi in q:
        coeff /= factorial(2 * qi)
    for i in range(len(l)):
        for j in range(i + 1, len(l)):
            coeff *= l[j] - l[i]
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            coeff *= q[j] - q[i]
    for li in l:
        for qi in q:
            coeff /= li + qi
    return coeff


def _odd_prefactor(q) -> Fraction:
    coeff = Fraction(1)
    for qi in q:
        coeff /= factorial(2 * qi - 1) * factorial(2 * qi)
    for i in range(len(q)):
        for j in range(i + 1, len(q)):
            coeff *= (q[j] - q[i]) ** 2
    for qi in q:
        for qj in q:
            coeff /= qi + qj
    return coeff


def _clear(out: Fraction, what: str) -> int:
    if out.denominator != 1:
        raise FormulaRangeError("%s did not clear to an integer: %s"
                                % (what, out))
    return int(out)


def holed_count_even(a: int, b: int, ks) -> int:
    """Centrally symmetric tilings of holed_hexagon(2a, b, ks).

    Exact pipeline: a rational prefactor over the survivor lists
    (reciprocal factorials, pairwise differences, cross sums) times
    eval_Q at x = a+b-s.  Valid for every legal ks, including
    k_1 = 1 and k_s = a.
    """
    require_int("b", b)
    l, q = hole_lists(a, ks)
    s = a - len(q)
    out = _even_prefactor(l, q) * eval_Q(q, a + b - s, s)
    return _clear(out, "even hole count")


def holed_count_odd(a: int, b: int, ks) -> int:
    """Centrally symmetric tilings of holed_hexagon(2a+1, b, ks).

    Exact pipeline: reciprocal factorials and squared differences over
    q, divided by all pairwise sums q_i + q_j (i and j both ranging
    over the whole list), times eval_S at x = a+b-s.
    """
    require_int("b", b)
    _, q = hole_lists(a, ks)
    s = a - len(q)
    out = _odd_prefactor(q) * eval_S(q, a + b - s, s)
    return _clear(out, "odd hole count")


def cored_count(a: int, b: int, ks, x: int) -> int:
    """Centrally symmetric tilings of cored_hexagon(a, b, ks, x).

    The core enlarges the removal set: the survivors are
    D = {x, ..., a-1} minus {a-k : k in ks}, and the count is the odd
    pipeline of holed_count_odd run on half-side a-1 with list D.
    Raises HoleCollisionError when some k > a-x, by the region
    constructor's own check.
    """
    require_int("a", a)
    require_int("b", b)
    require_int("x", x)
    ks = require_indices("ks", ks)
    require_core(a, ks, x)
    drop = {a - k for k in ks}
    d = tuple(v for v in range(x, a) if v not in drop)
    alpha = a - 1
    s = alpha - len(d)
    out = _odd_prefactor(d) * eval_S(d, alpha + b - s, s)
    return _clear(out, "cored count")


def d_count(a: int, b: int, eps: int, is_) -> int:
    """Free-boundary tiling count of d_region(a, b, eps, is_).

    Product over the strip list of one binomial per strip, corrected
    by pairwise difference-over-sum factors.  The -1 offset inside the
    binomial and the pair sums applies exactly when eps is -1.
    """
    require_int("a", a)
    require_int("b", b)
    require_eps(eps)
    is_ = require_indices("is", is_, a)
    off = 1 if eps == -1 else 0
    out = Fraction(1)
    for i in is_:
        out *= comb(a + b + i - off, 2 * i - off)
    for j in range(len(is_)):
        for k in range(j + 1, len(is_)):
            out *= Fraction(is_[k] - is_[j], is_[j] + is_[k] - off)
    return _clear(out, "free-boundary count")
