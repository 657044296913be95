"""Machine verification of the factorization identities.

Every entry in the catalog states an exact equality between two counts
attached to one region family.  ``check`` computes both sides through
disjoint code paths (closed product formula, plain Pfaffian count,
tiling enumeration pruned by symmetry, orbit search, quotient graph,
or axis surgery) and reports them side by side; ``sweep`` runs a whole
parameter grid and renders a CSV report.  A false verdict means
an implementation bug somewhere, never a tolerance issue: all
arithmetic is exact.

Catalog identifiers are opaque labels fixed by the command line
interface; each one's meaning is spelled out in ``_CATALOG``.
"""

from __future__ import annotations

import csv
import io
from fractions import Fraction
from itertools import combinations
from math import prod
from typing import Callable, Iterable, Mapping, NamedTuple, Sequence

from .counting import (_filter_count, count_symmetric_tilings, count_tilings,
                       count_tilings_free, mgf)
from .duality import central_axis_split, symmetry_group
from .errors import ParameterError
from .formulas import cored_count, d_count, holed_count_even, holed_count_odd
from .lattice import (LIST_PARAMS, cored_hexagon, d_region, hexagon,
                      holed_hexagon, require_indices, require_int)

__all__ = [
    "IDENTITY_IDS",
    "IdentityCheck",
    "SweepReport",
    "SweepRow",
    "check",
    "default_grid",
    "sweep",
]

Count = int | Fraction


class IdentityCheck(NamedTuple):
    """Both sides of one identity instance, with their provenance.

    ``factors`` is the right hand side broken into the factors named by
    the identity (two for a product, a repeated value for a square, the
    bare value otherwise); ``rhs`` is always their product.
    """

    identity_id: str
    params: tuple[tuple[str, object], ...]
    lhs: Count
    rhs: Count
    lhs_route: str
    rhs_route: str
    factors: tuple[Count, ...]

    @property
    def verdict(self) -> bool:
        return self.lhs == self.rhs


def _filtered(region, *classes) -> list[int]:
    """Tilings invariant under each class of kinds, from one enumeration."""
    return _filter_count(region, [symmetry_group(region, k) for k in classes])


def _sym_enumerated(region, *classes) -> tuple[list[int], str]:
    """Symmetric counts, one per class: one shared filter enumeration up
    to 48 cells, else one orbit search per class."""
    if len(region.cells) <= 48:
        return _filtered(region, *classes), "enumeration+filter"
    return ([count_symmetric_tilings(region, k, "orbit") for k in classes],
            "orbit-enumeration")


# ---------------------------------------------------------------------
# per-identity checks; each returns (lhs, factors, lhs_route, rhs_route)


def _check_i1_9(a: int, b: int):
    region = hexagon(a, a, 2 * b)
    # the budgeted side first, so an oversized region fails fast
    f1, f2 = _filtered(region, ("ReflV",), ("ReflH",))
    lhs = count_tilings(region)
    return lhs, (f1, f2), "pfaffian", "enumeration+filter"


def _check_i1_10(a: int, b: int):
    region = hexagon(a, a, 2 * b)
    lhs = count_symmetric_tilings(region, ("Rot180",), "quotient")
    (f,), route = _sym_enumerated(region, ("Rot180", "ReflV"))
    return lhs, (f, f), "rot180-quotient+pfaffian", route


def _check_i1_11(a: int):
    region = hexagon(2 * a, 2 * a, 2 * a)
    lhs = count_symmetric_tilings(region, ("Rot120",), "quotient")
    (f1, f2), route = _sym_enumerated(region, ("Rot120", "ReflV"),
                                      ("Rot120", "ReflH"))
    return lhs, (f1, f2), "rot120-quotient+pfaffian", route


def _check_i1_12(a: int):
    region = hexagon(2 * a, 2 * a, 2 * a)
    lhs = count_symmetric_tilings(region, ("Rot60",), "quotient")
    (f,), route = _sym_enumerated(region, ("Rot60", "ReflV"))
    return lhs, (f, f), "rot60-quotient+pfaffian", route


def _square_check(region):
    lhs = count_symmetric_tilings(region, ("Rot180",), "quotient")
    f = count_symmetric_tilings(region, ("Rot180", "ReflV"), "orbit")
    return lhs, (f, f), "rot180-quotient+pfaffian", "orbit-enumeration"


def _check_t2_1_even(a: int, b: int, ks: tuple[int, ...]):
    return _square_check(holed_hexagon(a, b, list(ks)))


def _check_t2_1_cored(a: int, b: int, ks: tuple[int, ...], x: int):
    return _square_check(cored_hexagon(a, b, list(ks), x))


def _split_check(region, a: int, s: int):
    lhs = count_symmetric_tilings(region, ("Rot180",), "orbit")
    # matchings of the central quotient, from its split half
    split, loop_weight = central_axis_split(region)
    value = (loop_weight * Fraction(2) ** split.multiplier_log2
             * mgf(split.subgraph))
    scale = Fraction(2) ** (a - s)
    return lhs, (scale, value / scale), "orbit-enumeration", "axis-split+mgf"


def _check_e3_1(a: int, b: int, ks: tuple[int, ...]):
    return _split_check(holed_hexagon(2 * a, b, list(ks)), a, len(ks))


def _check_e3_9(a: int, b: int, ks: tuple[int, ...]):
    return _split_check(holed_hexagon(2 * a + 1, b, list(ks)), a, len(ks))


def _formula_check(lhs: int, region):
    f = count_symmetric_tilings(region, ("Rot180",), "quotient")
    return lhs, (f,), "product-formula", "rot180-quotient+pfaffian"


def _check_e3_5(a: int, b: int, ks: tuple[int, ...]):
    return _formula_check(holed_count_even(a, b, ks),
                          holed_hexagon(2 * a, b, list(ks)))


def _check_e3_10(a: int, b: int, ks: tuple[int, ...]):
    return _formula_check(holed_count_odd(a, b, ks),
                          holed_hexagon(2 * a + 1, b, list(ks)))


def _check_e3_13(a: int, b: int, ks: tuple[int, ...], x: int):
    return _formula_check(cored_count(a, b, ks, x),
                          cored_hexagon(a, b, list(ks), x))


def _free_boundary_check(a: int, b: int, eps: int, is_: tuple[int, ...]):
    lhs = d_count(a, b, eps, is_)
    f = count_tilings_free(d_region(a, b, eps, list(is_)))
    return lhs, (f,), "product-formula", "free-boundary-sum"


def _check_e3_7(a: int, b: int, is_: tuple[int, ...]):
    return _free_boundary_check(a, b, -1, is_)


def _check_e3_12(a: int, b: int, is_: tuple[int, ...]):
    return _free_boundary_check(a, b, 0, is_)


def _check_four_class(eq: int, a: int, b: int | None = None):
    """Equations 2, 3 and 4 are I1_10, I1_11 and I1_12.  Equation 1 is
    the I1_9 identity, but its reflection counts take the enumeration the
    other three use (filter when small, else orbit search), where I1_9
    always filters."""
    if eq not in (1, 2, 3, 4):
        raise ParameterError("eq selects one of the four equations (1..4)")
    if eq in (1, 2) and b is None:
        raise ParameterError("equations 1 and 2 need both a and b")
    if eq in (3, 4) and b is not None:
        raise ParameterError("equations 3 and 4 take a alone")
    if eq == 2:
        return _check_i1_10(a, b)
    if eq == 3:
        return _check_i1_11(a)
    if eq == 4:
        return _check_i1_12(a)
    region = hexagon(a, a, 2 * b)
    lhs = count_tilings(region)
    (f1, f2), route = _sym_enumerated(region, ("ReflV",), ("ReflH",))
    return lhs, (f1, f2), "pfaffian", route


# ---------------------------------------------------------------------
# catalog plumbing

# identifier -> (parameter names in the check function's order, check
# function); a parameter in lattice.LIST_PARAMS is an index list, any
# other an integer, and one the function gives a default may be omitted
_CATALOG: dict[str, tuple[tuple[str, ...], Callable]] = {
    "I1_9": (("a", "b"), _check_i1_9),
    "I1_10": (("a", "b"), _check_i1_10),
    "I1_11": (("a",), _check_i1_11),
    "I1_12": (("a",), _check_i1_12),
    "T2_1_even": (("a", "b", "ks"), _check_t2_1_even),
    "T2_1_cored": (("a", "b", "ks", "x"), _check_t2_1_cored),
    "E3_1": (("a", "b", "ks"), _check_e3_1),
    "E3_5": (("a", "b", "ks"), _check_e3_5),
    "E3_7": (("a", "b", "is"), _check_e3_7),
    "E3_9": (("a", "b", "ks"), _check_e3_9),
    "E3_10": (("a", "b", "ks"), _check_e3_10),
    "E3_12": (("a", "b", "is"), _check_e3_12),
    "E3_13": (("a", "b", "ks", "x"), _check_e3_13),
    "FOUR_CLASS": (("eq", "a", "b"), _check_four_class),
}

IDENTITY_IDS = tuple(_CATALOG)


def _catalog_entry(identity_id: str, keys: Iterable[str]):
    """The identity's parameter names and check, refusing an unknown
    identity or a parameter key it does not take."""
    if identity_id not in _CATALOG:
        raise ParameterError("unknown identity %r" % (identity_id,))
    names, fn = _CATALOG[identity_id]
    extra = set(keys) - set(names)
    if extra:
        raise ParameterError("unknown parameter(s) for %s: %s"
                             % (identity_id, ", ".join(sorted(extra))))
    return names, fn


def _norm_params(identity_id: str, raw: Mapping) -> tuple[tuple[str, object], ...]:
    names, fn = _catalog_entry(identity_id, raw)
    required = len(names) - len(fn.__defaults__ or ())
    out = []
    for pos, name in enumerate(names):
        value = raw.get(name)
        if value is None:
            if pos >= required:
                continue
            raise ParameterError("%s needs parameter %s" % (identity_id, name))
        need = require_indices if name in LIST_PARAMS else require_int
        out.append((name, need(name, value)))
    return tuple(out)


def check(identity_id: str, params: Mapping | None = None, **extra) -> IdentityCheck:
    """Evaluate both sides of one identity instance.

    Parameters may be given as a mapping, as keywords, or both; they
    pass the lattice module's checks, so integers are at least 1 and
    list valued parameters accept any strictly increasing iterable of
    them.  Raises ParameterError for malformed input,
    SymmetryAbsentError when a required symmetry is missing, and
    BudgetError when a search route meets the search state cap.
    """
    merged = dict(params or {})
    merged.update(extra)
    norm = _norm_params(identity_id, merged)
    _names, fn = _CATALOG[identity_id]
    # an omitted parameter is a trailing one, which keeps its default
    lhs, factors, lhs_route, rhs_route = fn(*(v for _, v in norm))
    rhs = _as_exact(prod(factors))
    lhs = _as_exact(lhs)
    factors = tuple(_as_exact(f) for f in factors)
    return IdentityCheck(identity_id, norm, lhs, rhs,
                         lhs_route, rhs_route, factors)


def _as_exact(value: Count) -> Count:
    if isinstance(value, Fraction) and value.denominator == 1:
        return int(value)
    return value


# ---------------------------------------------------------------------
# sweeps


class SweepRow(NamedTuple):
    identity_id: str
    params_text: str
    lhs: Count | None
    rhs: Count | None
    verdict: bool | None
    error: str | None


class SweepReport(NamedTuple):
    rows: tuple[SweepRow, ...]

    @property
    def all_true(self) -> bool:
        return all(r.verdict is True for r in self.rows)

    def csv_text(self) -> str:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(["identity", "params", "lhs", "rhs", "verdict"])
        for r in self.rows:
            if r.error is not None:
                writer.writerow([r.identity_id, r.params_text, "", "", "error"])
            else:
                writer.writerow([r.identity_id, r.params_text,
                                 count_text(r.lhs), count_text(r.rhs),
                                 "true" if r.verdict else "false"])
        return buf.getvalue()


def count_text(value: Count | None) -> str:
    """An exact count as text: integers in decimal, ratios as p/q."""
    if value is None:
        return ""
    if isinstance(value, Fraction) and value.denominator != 1:
        return "%d/%d" % (value.numerator, value.denominator)
    return str(int(value))


def params_text(params: Mapping | Sequence[tuple[str, object]]) -> str:
    """Deterministic one-token rendering: a=2;b=1;ks=1+2 (empty list: -)."""
    items = params.items() if isinstance(params, Mapping) else params
    parts = []
    for name, value in items:
        if isinstance(value, tuple):
            parts.append("%s=%s" % (name, "+".join(str(v) for v in value) or "-"))
        else:
            parts.append("%s=%s" % (name, value))
    return ";".join(parts)


def _sweep_row(identity_id: str, params: dict) -> SweepRow:
    text = params_text(params)
    try:
        result = check(identity_id, params)
    except Exception as exc:
        return SweepRow(identity_id, text, None, None, None,
                        "%s: %s" % (type(exc).__name__, exc))
    return SweepRow(identity_id, params_text(result.params),
                    result.lhs, result.rhs, result.verdict, None)


def sweep(identity_id: str, param_grid) -> SweepReport:
    """Check one identity over a whole grid of parameter mappings.

    Rows appear in grid order; a row that raises is recorded as an
    error and the sweep continues.  An unknown identity, or a grid key
    it does not take, raises ParameterError before any row runs.
    """
    grid = [dict(p) for p in param_grid]
    _catalog_entry(identity_id, {k for p in grid for k in p})
    return SweepReport(tuple(_sweep_row(identity_id, p) for p in grid))


# ---------------------------------------------------------------------
# stock grids: the desk-scale parameter boxes used by the test suite


def _legal_ks(kmax: int):
    for s in range(kmax + 1):
        yield from combinations(range(1, kmax + 1), s)


def default_grid(identity_id: str) -> tuple[dict, ...]:
    """The stock desk-scale grid for one identity."""
    if identity_id == "I1_9":
        return tuple({"a": a, "b": b} for a in (1, 2, 3) for b in (1, 2))
    if identity_id == "I1_10":
        return tuple({"a": a, "b": b} for a in (1, 2) for b in (1, 2))
    if identity_id in ("I1_11", "I1_12"):
        return tuple({"a": a} for a in (1, 2))
    if identity_id == "T2_1_even":
        return tuple({"a": a, "b": b, "ks": ks}
                     for a in (1, 2, 3, 4) for b in (1, 2)
                     for ks in _legal_ks(a // 2))
    if identity_id in ("T2_1_cored", "E3_13"):
        return tuple({"a": a, "b": b, "ks": ks, "x": x}
                     for a in (1, 2, 3) for b in (1, 2)
                     for x in range(1, a + 1)
                     for ks in _legal_ks(a - x))
    if identity_id in ("E3_1", "E3_5", "E3_7", "E3_9", "E3_10", "E3_12"):
        _, _, holes = _CATALOG[identity_id][0]
        return tuple({"a": a, "b": b, holes: ks}
                     for a in (1, 2, 3) for b in (1, 2)
                     for ks in _legal_ks(a))
    if identity_id == "FOUR_CLASS":
        grid: list[dict] = []
        for eq in (1, 2):
            grid.extend({"eq": eq, "a": a, "b": b}
                        for a in (1, 2) for b in (1, 2))
        for eq in (3, 4):
            grid.extend({"eq": eq, "a": a} for a in (1, 2))
        return tuple(grid)
    raise ParameterError("unknown identity %r" % (identity_id,))
