"""Triangular-lattice cells and the hexagonal region families built on them.

The lattice is drawn with one family of lattice lines vertical.  Lattice
points are integer pairs (X, Y) with X + Y even; point (X, Y) sits at
(X*sqrt(3)/2, Y/2) in the Euclidean plane, so X counts vertical lattice
lines and Y counts half-units of height.  Every unit triangle has a
vertical side spanning two Y-steps plus an apex one column to the east
or to the west.

TriCell(u, v, "U") is the east-pointing triangle with corners (u, v-1),
(u, v+1), (u+1, v); TriCell(u, v, "D") is the west-pointing one with
corners (u+1, v-1), (u+1, v+1), (u, v).  Hence u + v is odd exactly for
"U" cells; the orientation tag is redundant given (u, v) but keeps code
and serialized data readable.  Neighbors (cells sharing a lattice edge):

    U(u, v) ~ D(u, v-1), D(u, v+1), D(u-1, v)
    D(u, v) ~ U(u, v-1), U(u, v+1), U(u+1, v)

so the adjacency structure is bipartite with parts "U" and "D" and every
cell has at most three neighbors.  edge_cells(edge) inverts cell_edges:
it returns the two cells bordering a lattice edge (endpoints in sorted
order) and () for anything else.  Regions check their free edges with
it, one edge at a time.

Geometry is computed, not searched.  The cells of hexagon(a, b, c) in
strip u (0 <= u < a + b) are one run of rows,

    max(u+1-2b-2c, -u-2c) <= v <= min(u, 2a-u-1),

"U" where u + v is odd and "D" where it is even.  That parity rule is
one table, _ORIENT, which cell_at, cell_ok, the hexagon builder and
the Region check all read.  The builders emit sorted runs: the
hexagon's cells come strip by strip, each strip in row order, which is
the sorted cell order, and every other family filters that list, so no
builder collects a set of cells or sorts one.  The hexagon builder
makes each cell with tuple.__new__, without a call of TriCell's
generated constructor per cell, and Region checks all its cells in one
comprehension; a region keeps the cell set and free-cell map its
checks build.

A region also owns what it derives from its cells, each built on first
use: its cell index keyed by (u, v), its strip runs and its centroid.
A strip run (u, v, k, n) is the n cells of strip u at rows v .. v+n-1,
which are the sorted cells k .. k+n-1; each cell lies in exactly one
maximal run, and the runs are found in one pass over the sorted cells.
The centroid, twice the mean of the cells' tripled centroids, is a
closed-form sum over the runs.

Region families:

* hexagon(a, b, c): sides a, b, c, a, b, c clockwise from the northwest
  side, east and west sides vertical.  Northwest corner at (0, 0).
* holed_hexagon(a, b, ks): hexagon(a, a, 2b) with, for each k in ks, a
  west-pointing side-2 triangle removed from the horizontal symmetry
  axis (its vertical side 2k columns east of the west side) together
  with its mirror image across the vertical axis.
* cored_hexagon(a, b, ks, x): holed hexagon of odd side 2a-1 with the
  central horizontal rhombus of side 2x-1 also removed.
* d_region(a, b, eps, is_): quarter of a holed hexagon of side 2a (eps
  = -1) or 2a+1 (eps = 0) cut along both symmetry axes, keeping cells
  strictly above the horizontal axis and west of the vertical one; the
  cut line along the vertical axis is a free boundary, recorded as free
  edges on the east sides of the easternmost west-pointing cells.
* rbar_region(l, q, base): bottom half of a holed hexagon, keeping the
  on-axis cells of the western half; the strictly increasing lists l
  and q say which "bumps" of the lower and upper zig-zag boundary are
  present, and base is the height parameter of the hexagon.

All coordinates and parameters are plain integers; construction never
uses floating point.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import cached_property
from itertools import count
from operator import ge
from typing import NamedTuple

from .errors import (ContractError, FormatError, HoleCollisionError,
                     ParameterError)

UP = "U"
DOWN = "D"
# the one parity rule: the orientation of the cell at (u, v) is
# _ORIENT[(u + v) & 1]
_ORIENT = (DOWN, UP)

Point = tuple[int, int]
Edge = tuple[Point, Point]


class TriCell(NamedTuple):
    """One unit triangle: strip index, doubled row of its center, tag."""

    u: int
    v: int
    orient: str


def cell_ok(cell: TriCell) -> bool:
    """Well-formedness: the tag is the one the parity of u + v gives, so
    an unknown tag fails too."""
    return cell.orient == _ORIENT[(cell.u + cell.v) & 1]


def cell_at(u: int, v: int) -> TriCell:
    """The unique cell occupying strip u at doubled row v."""
    return TriCell(u, v, _ORIENT[(u + v) & 1])


def cell_corners(cell: TriCell) -> tuple[Point, Point, Point]:
    u, v = cell.u, cell.v
    if cell.orient == UP:
        return ((u, v - 1), (u, v + 1), (u + 1, v))
    return ((u + 1, v - 1), (u + 1, v + 1), (u, v))


def cell_neighbors(cell: TriCell) -> tuple[TriCell, TriCell, TriCell]:
    """The three potential neighbors (some may fall outside any region)."""
    u, v = cell.u, cell.v
    if cell.orient == UP:
        return (TriCell(u, v - 1, DOWN), TriCell(u, v + 1, DOWN),
                TriCell(u - 1, v, DOWN))
    return (TriCell(u, v - 1, UP), TriCell(u, v + 1, UP),
            TriCell(u + 1, v, UP))


def cell_edges(cell: TriCell) -> tuple[Edge, Edge, Edge]:
    a, b, c = cell_corners(cell)
    return (_edge(a, b), _edge(a, c), _edge(b, c))


def shared_edge(c: TriCell, d: TriCell) -> Edge | None:
    """The lattice edge common to two adjacent cells, None otherwise."""
    common = set(cell_corners(c)) & set(cell_corners(d))
    if len(common) != 2:
        return None
    a, b = sorted(common)
    return (a, b)


def _edge(a: Point, b: Point) -> Edge:
    return (a, b) if a <= b else (b, a)


def edge_cells(edge: Edge) -> tuple[TriCell, ...]:
    """The two cells bordering a lattice edge, () for any other edge.

    The edge's endpoints must come in sorted order, as cell_edges and
    Region.free_edges give them.
    """
    (x, y), (x1, y1) = edge
    if (x + y) & 1:
        return ()
    if x1 == x and y1 == y + 2:
        return (TriCell(x - 1, y + 1, DOWN), TriCell(x, y + 1, UP))
    if x1 == x + 1 and y1 == y + 1:
        return (TriCell(x, y, DOWN), TriCell(x, y + 1, UP))
    if x1 == x + 1 and y1 == y - 1:
        return (TriCell(x, y - 1, UP), TriCell(x, y, DOWN))
    return ()


def _centroid3(cell: TriCell) -> tuple[int, int]:
    """The cell's tripled centroid, an integer point."""
    return (3 * cell.u + (1 if cell.orient == UP else 2), 3 * cell.v)


def _cell_index(cells) -> dict[tuple[int, int], int]:
    """Each cell's index among the sorted cells, keyed by its (u, v): in
    a region the parity of u + v fixes the orientation."""
    return {(u, v): k for k, (u, v, _) in enumerate(cells)}


class _RegionFields(NamedTuple):
    family: str
    params: tuple[tuple[str, object], ...]
    cells: tuple[TriCell, ...]
    free_edges: tuple[Edge, ...] = ()


class Region(_RegionFields):
    """A finite set of cells plus optional free boundary edges.

    cells and free edges are sorted and unique, else ContractError, as
    for a malformed cell; params is an ordered tuple of (name, value)
    pairs echoing the construction call.  Each free edge must also be a
    lattice edge (endpoints in sorted order) with exactly one bordering
    cell in the region, else ParameterError.  A region keeps what is
    derived from its cells: the cell set and the free-cell map its
    checks build, its cell index, strip runs and centroid, each built on
    first use, and the symmetry elements duality builds.  ==, hash and
    serialization read none of them, and a copy starts without them.
    """

    def __new__(cls, family, params, cells, free_edges=()):
        self = super().__new__(cls, family, params, cells, free_edges)
        cells, free_edges = self.cells, self.free_edges
        for what, items in (("cells", cells), ("free edges", free_edges)):
            if any(map(ge, items, items[1:])):
                raise ContractError("%s not sorted/unique" % what)
        # cell_ok on every cell, in one pass
        if any([o != _ORIENT[(u + v) & 1] for u, v, o in cells]):
            raise ContractError("malformed cell")
        memo = self.__dict__  # Region refuses attribute assignment
        free_cells = {}
        if free_edges:
            have = memo["cell_set"] = frozenset(cells)
            for e in free_edges:
                inside = [c for c in edge_cells(e) if c in have]
                if len(inside) != 1:
                    raise ParameterError(
                        "free edge %r not on the boundary" % (e,))
                free_cells[e] = inside[0]
        memo["_free_cells"] = free_cells
        memo["_symmetries"] = {}  # duality.symmetry's, by kind
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here, so a copy passes the checks too
        return cls(*iterable)

    def __setattr__(self, name, value):
        # __new__ and cached_property write the instance __dict__ directly
        raise AttributeError("Region is immutable")

    @cached_property
    def cell_set(self) -> frozenset[TriCell]:
        return frozenset(self.cells)

    @cached_property
    def cell_index(self) -> dict[tuple[int, int], int]:
        """Each cell's index among the sorted cells, keyed by its (u, v)."""
        return _cell_index(self.cells)

    @cached_property
    def strip_runs(self) -> tuple[tuple[int, int, int, int], ...]:
        """(u, v, k, n) stands for the n cells of strip u at rows
        v .. v+n-1, cells k .. k+n-1 of the sorted cells.  Each run is
        maximal, so each cell lies in exactly one, and the runs come in
        cell order."""
        cells = self.cells
        # a run starts where a cell does not continue its predecessor's
        starts = [0] if cells else []
        starts += [k for k, p, c in zip(count(1), cells, cells[1:])
                   if c[1] != p[1] + 1 or c[0] != p[0]]
        return tuple([(cells[k][0], cells[k][1], k, end - k)
                      for k, end in zip(starts, starts[1:] + [len(cells)])])

    @cached_property
    def centroid(self):
        """Twice the mean tripled centroid of the cells, (cx2, cy2), each a
        Fraction where it is no integer; ContractError for no cells.  It
        sums each strip run in closed form: its cells alternate in
        orientation, so a pair of them adds 3 to the sum of the x
        offsets, (u + v) odd making a lone first cell "U", offset 1."""
        n = len(self.cells)
        if not n:
            raise ContractError("an empty region has no centroid")
        sx = sy = 0
        for u, v, _, m in self.strip_runs:
            sx += 3 * u * m + 3 * (m >> 1) + (m & 1) * (2 - ((u + v) & 1))
            sy += m * (2 * v + m - 1)  # twice the sum of the rows
        return tuple(s // n if s % n == 0 else Fraction(s, n)
                     for s in (2 * sx, 3 * sy))

    def param(self, name: str):
        for key, value in self.params:
            if key == name:
                return value
        raise ContractError("%s region has no parameter %r"
                            % (self.family, name))

    def free_cell_map(self) -> dict[Edge, TriCell]:
        """Each free edge with the unique region cell it borders: a fresh
        copy of the map the region's checks built."""
        return dict(self._free_cells)


# ---------------------------------------------------------------------
# region families


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


# The parameter rules of every region family, shared with the formulas
# and the verify catalog so that both sides of an identity refuse the
# same input with the same message.


def require_int(name: str, value, floor: int = 1) -> int:
    """value itself when it is an integer >= floor, else ParameterError."""
    if not _is_int(value) or value < floor:
        raise ParameterError("%s must be an integer >= %d, got %r"
                             % (name, floor, value))
    return value


def require_indices(name: str, values, top: int | None = None) -> tuple[int, ...]:
    """values as a strictly increasing tuple of integers in 1..top."""
    try:
        out = tuple(values)
    except TypeError:
        out = None
    # prepending 0 makes "strictly increasing" also demand entries >= 1
    if (out is None or not all(_is_int(x) for x in out)
            or any(x >= y for x, y in zip((0,) + out, out))
            or (top is not None and out and out[-1] > top)):
        where = "" if top is None else " up to %d" % top
        raise ParameterError(
            "%s must be strictly increasing positive integers%s, got %r"
            % (name, where, values))
    return out


def require_core(a: int, ks: tuple[int, ...], x: int) -> None:
    """The core of side 2x-1 fits (x <= a) and no hole k > a - x meets it."""
    if x > a:
        raise ParameterError("core parameter x=%d exceeds a=%d" % (x, a))
    colliding = [k for k in ks if k > a - x]
    if colliding:
        raise HoleCollisionError(
            "holes %r overlap the side-%d core (need k <= a - x = %d)"
            % (colliding, 2 * x - 1, a - x), colliding)


def require_eps(eps) -> None:
    if not _is_int(eps) or eps not in (-1, 0):
        raise ParameterError("eps must be -1 or 0, got %r" % (eps,))


def _hexagon_cells(a: int, b: int, c: int) -> list[TriCell]:
    """The cells of hexagon(a, b, c) in sorted order: each strip's run of
    rows, strip by strip."""
    # this runs in every region build: tuple.__new__ makes each cell
    # without a call of TriCell's generated __new__, and _ORIENT is
    # cell_at's parity rule
    new = tuple.__new__
    return [new(TriCell, (u, v, _ORIENT[(u + v) & 1]))
            for u in range(a + b)
            for v in range(max(u + 1 - 2 * b - 2 * c, -u - 2 * c),
                           min(u, 2 * a - u - 1) + 1)]


# Every family has a size function beside its builder: it runs the
# builder's parameter checks, in the builder's order, and returns the
# checked parameters and the region's cell count in closed form, which
# deserialize_region checks before it rebuilds.


def _hexagon_size(a, b, c) -> tuple[tuple, int]:
    for name, value in (("a", a), ("b", b), ("c", c)):
        require_int(name, value)
    return (a, b, c), 2 * (a * b + b * c + c * a)


def hexagon(a: int, b: int, c: int) -> Region:
    """Hexagonal region with sides a, b, c, a, b, c clockwise from NW."""
    _, size = _hexagon_size(a, b, c)
    cells = _hexagon_cells(a, b, c)
    assert len(cells) == size
    return Region("Hexagon", (("a", a), ("b", b), ("c", c)), tuple(cells))


def _triangle(apex_x: int, apex_y: int, size: int, east: bool) -> set[TriCell]:
    """Triangle of the given side, apex at a lattice point, pointing east
    or west; its j-th strip from the apex has rows apex_y-j .. apex_y+j."""
    return {cell_at(apex_x - 1 - j if east else apex_x + j, v)
            for j in range(size) for v in range(apex_y - j, apex_y + j + 1)}


def _holed_cells(side: int, b: int, ks: tuple[int, ...]) -> list[TriCell]:
    cells = _hexagon_cells(side, side, 2 * b)
    if not ks:
        return cells
    holes: set[TriCell] = set()
    for k in ks:
        holes |= _triangle(2 * k - 2, -2 * b, 2, False)
        holes |= _triangle(2 * side - 2 * k + 2, -2 * b, 2, True)
    kept = [c for c in cells if c not in holes]
    # every hole cell is distinct and is a cell of the hexagon
    assert len(holes) == 8 * len(ks) and len(kept) == len(cells) - len(holes)
    return kept


def _holed_size(a, b, ks) -> tuple[tuple, int]:
    require_int("a", a)
    require_int("b", b)
    ks = require_indices("ks", ks, a // 2)
    return (a, b, ks), 2 * (a * a + 4 * a * b) - 8 * len(ks)


def holed_hexagon(a: int, b: int, ks) -> Region:
    """hexagon(a, a, 2b) minus paired side-2 boundary triangles on the axis.

    Hole k removes the west-pointing triangle whose vertical side lies
    2k columns east of the west side, plus its mirror image.  Indices
    must satisfy 0 < k_1 < ... < k_s <= a/2.  When k_1 = 1 the holes
    touch the west and east sides and force two rows of tiles; such
    regions may fall apart into independent pieces, which is fine for
    counting (matchings multiply over pieces).
    """
    (_, _, ks), size = _holed_size(a, b, ks)
    cells = _holed_cells(a, b, ks)
    assert len(cells) == size
    return Region("HoledHexagon", (("a", a), ("b", b), ("ks", ks)),
                  tuple(cells))


def _cored_size(a, b, ks, x) -> tuple[tuple, int]:
    require_int("a", a)
    require_int("b", b)
    require_int("x", x)
    ks = require_indices("ks", ks)
    require_core(a, ks, x)
    side = 2 * a - 1
    return (a, b, ks, x), (2 * (side * side + 4 * side * b) - 8 * len(ks)
                           - 2 * (2 * x - 1) ** 2)


def cored_hexagon(a: int, b: int, ks, x: int) -> Region:
    """Holed hexagon of odd side 2a-1 minus the central rhombus of side 2x-1.

    The core sits on the horizontal axis, centered on the vertical one.
    Raises HoleCollisionError when a hole would overlap the core, which
    happens exactly for k > a - x.
    """
    (_, _, ks, _), size = _cored_size(a, b, ks, x)
    side = 2 * a - 1
    m = 2 * x - 1
    core = (_triangle(side - m, -2 * b, m, False)
            | _triangle(side + m, -2 * b, m, True))
    base = _holed_cells(side, b, ks)
    cells = [c for c in base if c not in core]
    # every core cell is a cell of the holed hexagon
    assert len(cells) == len(base) - len(core) == size
    return Region("CoredHexagon",
                  (("a", a), ("b", b), ("ks", ks), ("x", x)), tuple(cells))


def _d_size(a, b, eps, is_) -> tuple[tuple, int]:
    require_int("a", a)
    require_int("b", b)
    require_eps(eps)
    is_ = require_indices("is", is_, a)
    n = 2 * a + (1 if eps == 0 else 0)
    return (a, b, eps, is_), n * (n - 1) // 2 + 2 * b * n - (a - len(is_))


def d_region(a: int, b: int, eps: int, is_) -> Region:
    """Quarter region with a free vertical cut, from a holed hexagon.

    The ambient holed hexagon has side 2a (eps = -1) or 2a+1 (eps = 0),
    height parameter b, and holes at {a-i+1 : i in [1..a] not in is_};
    the listed indices is_ mark the surviving westernmost cells of the
    quarter's bottom row.  Kept cells lie strictly above the horizontal
    axis and in strips west of the vertical axis; each west-pointing
    cell whose east side lies on the vertical axis gets a free edge
    there, across which a tile may protrude.
    """
    (_, _, _, is_), size = _d_size(a, b, eps, is_)
    n = 2 * a + (1 if eps == 0 else 0)
    ks = tuple(a - i + 1 for i in range(a, 0, -1) if i not in is_)
    keep = [c for c in _holed_cells(n, b, ks)
            if c.u <= n - 1 and c.v >= -2 * b + 1]
    assert len(keep) == size
    # the cells of strip n - 1 come in row order, so these edges do too
    free_edges = [((n, c.v - 1), (n, c.v + 1))
                  for c in keep if c.orient == DOWN and c.u == n - 1]
    return Region("DRegion",
                  (("a", a), ("b", b), ("eps", eps), ("is", is_)),
                  tuple(keep), tuple(free_edges))


def _rbar_size(l, q, base) -> tuple[tuple, int]:
    require_int("base", base)
    q = require_indices("q", q)
    l = require_indices("l", l)
    if not q:
        raise ParameterError("q must be nonempty")
    a = q[-1]
    if l == q:
        n = 2 * a + 1
    else:
        # the hole-free part of [1..a-1] shifted down by one
        expected_l = [d for d in range(1, a) if d + 1 in q]
        if list(l) != expected_l:
            raise ParameterError(
                "lower bump list %r inconsistent with upper %r (expected %r)"
                % (list(l), list(q), expected_l))
        n = 2 * a
    # a - |q| holes, each taking two of the n^2 + 4n base - n cells below
    # the axis of hexagon(n, n, 2 base) and two of the n (odd n: n - 1)
    # western on-axis cells
    return (l, q, base), n * n + 4 * n * base - n % 2 - 4 * (a - len(q))


def rbar_region(l, q, base: int) -> Region:
    """Bottom half of a holed hexagon, keeping western on-axis cells.

    q lists the upper zig-zag bumps that are present and determines the
    hexagon: its largest entry is half the side (rounded down) and the
    absent indices of [1..max(q)] are the hole positions, via
    k = max(q) - index + 1.  l lists the lower bumps and must be
    consistent with q: equal to q for the odd-side shape, or equal to
    the hole-free part of [1..max(q)-1] shifted down by one for the
    even-side shape.  For the odd-side shape the easternmost on-axis
    cell (the one fixed by the fold) is removed as well.
    """
    (l, q, _), size = _rbar_size(l, q, base)
    a = q[-1]
    ks = tuple(a - d + 1 for d in range(a, 0, -1) if d not in q)
    n = 2 * a + 1 if l == q else 2 * a
    # the odd shape also loses the easternmost on-axis cell, in strip n - 1
    east = n - 1 - n % 2
    keep = [c for c in _holed_cells(n, base, ks)
            if c.v <= -2 * base - 1 or (c.v == -2 * base and c.u <= east)]
    assert len(keep) == size
    return Region("RBarRegion", (("l", l), ("q", q), ("base", base)),
                  tuple(keep))


# ---------------------------------------------------------------------
# serialization (schema version 1)

# each family's builder, its parameters in the builder's order and its
# size function
_FAMILIES = {
    "Hexagon": (hexagon, ("a", "b", "c"), _hexagon_size),
    "HoledHexagon": (holed_hexagon, ("a", "b", "ks"), _holed_size),
    "CoredHexagon": (cored_hexagon, ("a", "b", "ks", "x"), _cored_size),
    "DRegion": (d_region, ("a", "b", "eps", "is"), _d_size),
    "RBarRegion": (rbar_region, ("l", "q", "base"), _rbar_size),
}

# the parameters, in any family or identity, whose value is an integer list
LIST_PARAMS = frozenset({"ks", "is", "l", "q"})


def serialize_region(r: Region) -> bytes:
    params = {}
    for key, value in r.params:
        params[key] = list(value) if isinstance(value, tuple) else value
    doc = {
        "v": 1,
        "family": r.family,
        "params": params,
        "cells": [[c.u, c.v, c.orient] for c in r.cells],
        "free_edges": [[[e[0][0], e[0][1]], [e[1][0], e[1][1]]]
                       for e in r.free_edges],
    }
    return json.dumps(doc, separators=(",", ":")).encode("ascii")


def _fail(data: bytes, needle: str, message: str):
    pos = data.find(needle.encode("utf-8")) if needle else -1
    raise FormatError(message, offset=pos if pos >= 0 else 0)


def deserialize_region(data: bytes) -> Region:
    """The region a schema-1 document describes, rebuilt or refused.

    The family is Hexagon, HoledHexagon, CoredHexagon, DRegion or
    RBarRegion. The checks run in order: the fields (an object, its
    schema version, family and parameter names), the cells, the free
    edges, the parameter values (the family's own checks), then the
    cell count from the family's closed-form size, and the rebuild,
    which must give exactly the document's region. Every refusal is a
    FormatError carrying the offset of the bad field, or 0 where it
    names none (a missing field, a refused parameter value).
    """
    if isinstance(data, str):
        data = data.encode("utf-8")
    try:
        doc = json.loads(data.decode("utf-8"))
    except UnicodeDecodeError as exc:
        raise FormatError("not valid UTF-8: %s" % exc, offset=exc.start)
    except json.JSONDecodeError as exc:
        raise FormatError("not valid JSON: %s" % exc.msg, offset=exc.pos)
    if not isinstance(doc, dict):
        _fail(data, "", "top level must be an object")
    for key in ("v", "family", "params", "cells", "free_edges"):
        if key not in doc:
            _fail(data, "", "missing field %r" % key)
    # true and 1.0 equal 1, and a list or an object cannot be a key
    if not _is_int(doc["v"]) or doc["v"] != 1:
        _fail(data, '"v"', "unsupported schema version %r" % (doc["v"],))
    family = doc["family"]
    if not isinstance(family, str) or family not in _FAMILIES:
        _fail(data, '"family"', "unknown family %r" % (family,))
    raw_params = doc["params"]
    if not isinstance(raw_params, dict):
        _fail(data, '"params"', "params must be an object")
    params = []
    build, keys, size = _FAMILIES[family]
    for key in keys:
        if key not in raw_params:
            _fail(data, '"params"', "missing parameter %r for %s" % (key, family))
        value = raw_params[key]
        params.append((key, tuple(value) if isinstance(value, list) else value))
    for key in raw_params:
        if key not in keys:
            _fail(data, '"params"', "unknown parameter %r for %s" % (key, family))
    if not isinstance(doc["cells"], list):
        _fail(data, '"cells"', "cells must be a list")
    cells = []
    for item in doc["cells"]:
        if (not isinstance(item, list) or len(item) != 3
                or not _is_int(item[0]) or not _is_int(item[1])
                or item[2] not in (UP, DOWN)):
            _fail(data, json.dumps(item, separators=(",", ":")),
                  "bad cell entry %r" % (item,))
        cell = TriCell(item[0], item[1], item[2])
        if not cell_ok(cell):
            _fail(data, json.dumps(item, separators=(",", ":")),
                  "orientation tag inconsistent with coordinates in %r" % (item,))
        cells.append(cell)
    if sorted(set(cells)) != cells:
        _fail(data, '"cells"', "cells must be sorted and unique")
    if not isinstance(doc["free_edges"], list):
        _fail(data, '"free_edges"', "free_edges must be a list")
    free_edges = []
    for item in doc["free_edges"]:
        ok = (isinstance(item, list) and len(item) == 2
              and all(isinstance(p, list) and len(p) == 2
                      and all(_is_int(x) for x in p) for p in item))
        if not ok:
            _fail(data, json.dumps(item, separators=(",", ":")),
                  "bad free edge entry %r" % (item,))
        e = ((item[0][0], item[0][1]), (item[1][0], item[1][1]))
        if e[0] > e[1]:
            _fail(data, json.dumps(item, separators=(",", ":")),
                  "free edge endpoints out of order in %r" % (item,))
        free_edges.append(e)
    if sorted(set(free_edges)) != free_edges:
        _fail(data, '"free_edges"', "free_edges must be sorted and unique")
    values = [value for _, value in params]
    try:
        region = Region(family, tuple(params), tuple(cells), tuple(free_edges))
        if size(*values)[1] != len(cells):
            built = None
        else:
            built = build(*values)
    except ParameterError as exc:
        raise FormatError("inconsistent region document: %s" % exc, offset=0)
    if built != region:
        _fail(data, '"cells"', "inconsistent region document: it is not "
              "the region %s builds from its parameters" % family)
    return region
