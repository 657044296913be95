"""Geometry layer: cells, adjacency, region families, serialization."""

import json
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

import lozlab
from lozlab import lattice
from lozlab.duality import dual_graph
from lozlab.errors import (ContractError, FormatError, HoleCollisionError,
                           ParameterError)
from lozlab.lattice import (
    DOWN,
    UP,
    Region,
    TriCell,
    cell_at,
    cell_corners,
    cell_edges,
    cell_neighbors,
    cored_hexagon,
    d_region,
    deserialize_region,
    edge_cells,
    hexagon,
    holed_hexagon,
    rbar_region,
    serialize_region,
    shared_edge,
)
from lozlab.lattice import _hexagon_cells, _triangle


def test_cell_parity_and_corners():
    up = TriCell(0, 1, UP)
    assert cell_corners(up) == ((0, 0), (0, 2), (1, 1))
    down = TriCell(0, 0, DOWN)
    assert cell_corners(down) == ((1, -1), (1, 1), (0, 0))
    assert cell_at(0, 1) == up
    assert cell_at(0, 0) == down


def cell_from_corners(corners) -> TriCell:
    """Reference: the cell with the given three corner points, read off
    the two corners that share a column and the apex one column away,
    level with their midpoint.  Raises ValueError for anything else.
    test_duality maps cells through their corners with it."""
    try:
        p, q, r = corners
    except ValueError:
        raise ValueError("need exactly three corners") from None
    if p[0] == q[0]:
        (x, y0), (_, y1), (ax, ay) = p, q, r
    elif p[0] == r[0]:
        (x, y0), (_, y1), (ax, ay) = p, r, q
    elif q[0] == r[0]:
        (x, y0), (_, y1), (ax, ay) = q, r, p
    else:
        raise ValueError("no two corners share a column: %r" % ((p, q, r),))
    if abs(y1 - y0) == 2 and 2 * ay == y0 + y1:
        if ax == x + 1:
            return TriCell(x, ay, UP)
        if ax == x - 1:
            return TriCell(ax, ay, DOWN)
    raise ValueError("corners do not form a unit triangle: %r" % ((p, q, r),))


def test_cell_from_corners_roundtrip():
    for cell in (TriCell(0, 1, UP), TriCell(3, -4, UP),
                 TriCell(0, 0, DOWN), TriCell(-2, 4, DOWN)):
        for corners in permutations(cell_corners(cell)):
            assert cell_from_corners(corners) == cell
            assert cell_from_corners(iter(corners)) == cell


@pytest.mark.parametrize("points", [
    [(0, 0), (0, 2), (0, 4)],              # collinear, vertical
    [(0, 0), (1, 1), (2, 2)],              # collinear, slanted
    [(0, 0), (0, 0), (1, 1)],              # doubled point
    [(0, 0), (0, 2), (0, 2)],              # doubled point on the side
    [(0, 0), (0, 2), (2, 1)],              # apex two columns away
    [(0, 0), (0, 2), (2, 0)],              # 2-wide triangle
    [(0, -2), (0, 2), (2, 0)],             # side-2 triangle
    [(0, 0), (0, 2), (1, 0)],              # apex off the midpoint
    [(0, 0), (0, 2)],                      # two points
    [(0, 0), (0, 2), (1, 1), (1, 3)],      # four points
])
def test_cell_from_corners_rejects_non_triangles(points):
    with pytest.raises(ValueError):
        cell_from_corners(points)


def _box_scan_hexagon_cells(a, b, c):
    """Reference: every cell of a bounding box whose corners pass the six
    half-plane tests of the hexagon."""
    def inside(x, y):
        return (0 <= x <= a + b and x - y >= 0 and 2 * a - x - y >= 0
                and y - x + 2 * b + 2 * c >= 0 and x + y + 2 * c >= 0)
    return {cell_at(u, v)
            for u in range(a + b) for v in range(-b - 2 * c - 1, a + 2)
            if all(inside(*p) for p in cell_corners(cell_at(u, v)))}


def test_hexagon_cells_match_the_box_scan():
    for a in range(1, 9):
        for b in range(1, 9):
            for c in range(1, 9):
                assert _hexagon_cells(a, b, c) == sorted(
                    _box_scan_hexagon_cells(a, b, c))


def _corner_rule_triangle(x, y, size, east):
    """Reference: every cell near the apex whose corners (X, Y) all lie
    in the closed triangle x <= X <= x + size, |Y - y| <= X - x, or in
    its mirror image across column x when it points east."""
    sign = 1 if east else -1
    def inside(cx, cy):
        depth = sign * (x - cx)
        return 0 <= depth <= size and abs(cy - y) <= depth
    return {cell_at(u, v)
            for u in range(x - size - 1, x + size + 1)
            for v in range(y - size - 1, y + size + 2)
            if all(inside(*p) for p in cell_corners(cell_at(u, v)))}


def test_triangle_matches_the_corner_rule():
    for x in range(-3, 4):
        for y in range(-3, 4):
            if (x + y) & 1:
                continue
            for size in range(1, 7):
                for east in (False, True):
                    cells = _triangle(x, y, size, east)
                    assert cells == _corner_rule_triangle(x, y, size, east)
                    assert len(cells) == size * size


def _set_hexagon_cells(a, b, c):
    return {cell_at(u, v) for u in range(a + b)
            for v in range(max(u + 1 - 2 * b - 2 * c, -u - 2 * c),
                           min(u, 2 * a - u - 1) + 1)}


def _set_holed_cells(side, b, ks):
    holes = set()
    for k in ks:
        holes |= _triangle(2 * k - 2, -2 * b, 2, False)
        holes |= _triangle(2 * side - 2 * k + 2, -2 * b, 2, True)
    return _set_hexagon_cells(side, side, 2 * b) - holes


def _set_and_sort_region(family, *args):
    """Reference for the five builders on legal parameters: each family
    collects its cells in a set and sorts them, and sorts its free
    edges; returns (cells, free_edges)."""
    free_edges = []
    if family == "hexagon":
        cells = _set_hexagon_cells(*args)
    elif family == "holed":
        cells = _set_holed_cells(*args)
    elif family == "cored":
        a, b, ks, x = args
        side, m = 2 * a - 1, 2 * x - 1
        cells = (_set_holed_cells(side, b, ks)
                 - _triangle(side - m, -2 * b, m, False)
                 - _triangle(side + m, -2 * b, m, True))
    elif family == "d":
        a, b, eps, is_ = args
        n = 2 * a + (1 if eps == 0 else 0)
        ks = sorted(a - i + 1 for i in set(range(1, a + 1)) - set(is_))
        cells = {c for c in _set_holed_cells(n, b, ks)
                 if c.u <= n - 1 and c.v >= -2 * b + 1}
        free_edges = sorted(((n, c.v - 1), (n, c.v + 1)) for c in cells
                            if c.orient == DOWN and c.u == n - 1)
    else:
        l, q, base = args
        a = q[-1]
        missing = sorted(set(range(1, a + 1)) - set(q))
        ks = sorted(a - d + 1 for d in missing)
        n = 2 * a + 1 if list(l) == list(q) else 2 * a
        cells = {c for c in _set_holed_cells(n, base, ks)
                 if c.v <= -2 * base - 1 or (c.v == -2 * base and c.u <= n - 1)}
        if n % 2:
            cells.discard(TriCell(n - 1, -2 * base, DOWN))
    return tuple(sorted(cells)), tuple(free_edges)


def _index_sets(top):
    for s in range(top + 1):
        yield from combinations(range(1, top + 1), s)


def test_builders_match_the_set_and_sort_reference():
    builders = {"hexagon": hexagon, "holed": holed_hexagon,
                "cored": cored_hexagon, "d": d_region, "rbar": rbar_region}
    cases = [("hexagon", a, b, c) for a in range(1, 6) for b in range(1, 6)
             for c in range(1, 6)]
    for a in range(1, 7):
        for b in (1, 2, 3):
            cases += [("holed", a, b, ks) for ks in _index_sets(a // 2)]
            cases += [("cored", a, b, ks, x) for x in range(1, a + 1)
                      for ks in _index_sets(a - x)]
            cases += [("d", a, b, eps, is_) for eps in (-1, 0)
                      for is_ in _index_sets(a)]
    for m in range(1, 6):
        for q in _index_sets(m):
            if not q or q[-1] != m:
                continue
            # the odd shape's l is q, the even shape's the hole-free part
            # of 1..m-1 shifted down by one
            even = tuple(d for d in range(1, m) if d + 1 in q)
            cases += [("rbar", l, q, base) for l in (q, even)
                      for base in (1, 2)]
    seen = set()
    for family, *args in cases:
        r = builders[family](*args)
        assert (r.cells, r.free_edges) == _set_and_sort_region(family, *args)
        seen.add(family)
        seen.add("free edges" if r.free_edges else family)
    assert seen == {"hexagon", "holed", "cored", "d", "rbar", "free edges"}


def test_edge_cells_lists_both_sides_of_every_edge():
    for region in (hexagon(3, 2, 2), holed_hexagon(6, 1, [2]),
                   d_region(3, 2, -1, [2])):
        for cell in region.cells:
            for e in cell_edges(cell):
                sides = edge_cells(e)
                assert len(sides) == 2 and cell in sides
                assert sides[1] in cell_neighbors(sides[0])
                assert shared_edge(*sides) == e
    for e in (((0, 1), (0, 3)),            # endpoints off the lattice
              ((0, 0), (0, 4)),            # two edges long
              ((0, 0), (2, 0)),            # not a lattice direction
              ((0, 2), (0, 0)),            # endpoints out of order
              ((1, 1), (1, 1))):           # a point
        assert edge_cells(e) == ()


@pytest.mark.parametrize("edge,inside", [
    (((1, -1), (1, 1)), 2),                # interior of hexagon(2, 2, 2)
    (((1, 1), (2, 1)), 0),                 # not a lattice edge
    (((10, 0), (10, 2)), 0),               # beside no cell of the region
])
def test_free_edge_not_on_the_boundary_is_rejected(edge, inside):
    r = hexagon(2, 2, 2)
    assert len([c for c in r.cells if edge in cell_edges(c)]) == inside
    with pytest.raises(ParameterError):
        Region(r.family, r.params, r.cells, (edge,))
    doc = json.loads(serialize_region(r))
    doc["free_edges"] = [[list(edge[0]), list(edge[1])]]
    with pytest.raises(FormatError):
        deserialize_region(json.dumps(doc).encode("utf-8"))


def test_free_cell_map_is_a_fresh_copy():
    # the region keeps the map its checks built; a caller's copy is its own
    r = d_region(3, 2, -1, [2])
    want = {e: c for e in r.free_edges for c in edge_cells(e)
            if c in r.cell_set}
    got = r.free_cell_map()
    assert got == want and len(got) == len(r.free_edges) > 0
    count = lozlab.count_tilings_free(r)
    got.clear()
    r.free_cell_map()[r.free_edges[0]] = None
    assert r.free_cell_map() == want
    assert lozlab.count_tilings_free(r) == count
    assert hexagon(2, 2, 2).free_cell_map() == {}


def test_region_order_check_matches_the_set_reference():
    # the pairwise order check refuses exactly what a comparison with
    # sorted(set(cells)) refused, with the same text
    rng = random.Random(5)
    refused = 0
    for base in (hexagon(2, 3, 1).cells, holed_hexagon(4, 1, [2]).cells):
        for _ in range(60):
            cells = list(base)
            i, j = rng.randrange(len(cells)), rng.randrange(len(cells))
            if rng.random() < 0.5:
                cells[i], cells[j] = cells[j], cells[i]
            else:
                cells.insert(i, cells[j])
            want = list(cells) != sorted(set(cells))
            try:
                Region("hand", (), tuple(cells))
            except ContractError as exc:
                assert want and str(exc) == "cells not sorted/unique"
                refused += 1
            else:
                assert not want
    assert refused > 60


def test_adjacency_is_symmetric_and_shares_an_edge():
    cell = TriCell(2, 1, UP)
    for n in cell_neighbors(cell):
        assert cell in cell_neighbors(n)
        e = shared_edge(cell, n)
        assert e is not None
        assert set(e) <= set(cell_corners(cell))
        assert set(e) <= set(cell_corners(n))
    assert shared_edge(cell, TriCell(2, 3, UP)) is None


def _connected(region):
    return len(set(dual_graph(region).walk[0])) == 1


def test_hexagon_counts():
    assert len(hexagon(1, 1, 1).cells) == 6
    assert len(hexagon(1, 1, 2).cells) == 10
    for a in range(1, 4):
        for b in range(1, 4):
            for c in range(1, 4):
                r = hexagon(a, b, c)
                assert len(r.cells) == 2 * (a * b + b * c + c * a)
                orients = [c.orient for c in r.cells]
                assert orients.count(UP) == orients.count(DOWN)
                assert _connected(r)


def test_hexagon_222_exact_cells():
    r = hexagon(2, 2, 2)
    expected = set()
    for v in (0, -1, -2, -3, -4):
        expected.add(cell_at(0, v))
    for v in (1, 0, -1, -2, -3, -4, -5):
        expected.add(cell_at(1, v))
        expected.add(cell_at(2, v))
    for v in (0, -1, -2, -3, -4):
        expected.add(cell_at(3, v))
    assert r.cell_set == expected


def test_hexagon_degree_bound():
    r = hexagon(2, 3, 2)
    have = r.cell_set
    for c in r.cells:
        deg = sum(1 for n in cell_neighbors(c) if n in have)
        assert 1 <= deg <= 3


def test_hexagon_rejects_bad_parameters():
    with pytest.raises(ParameterError):
        hexagon(0, 1, 1)
    with pytest.raises(ParameterError):
        hexagon(1, 1, -2)
    with pytest.raises(ParameterError):
        hexagon(1, True, 1)


def test_holed_hexagon_counts():
    r = holed_hexagon(15, 5, [2, 5, 7])
    assert len(r.cells) == 2 * (15 * 15 + 4 * 15 * 5) - 8 * 3 == 1026
    assert _connected(r)
    plain = holed_hexagon(3, 2, [])
    assert plain.cell_set == hexagon(3, 3, 4).cell_set


def test_holed_hexagon_hole_placement():
    r = holed_hexagon(4, 1, [2])
    missing = hexagon(4, 4, 2).cell_set - r.cell_set
    west = {cell_at(2, -2), cell_at(3, -2), cell_at(3, -1), cell_at(3, -3)}
    east = {cell_at(4, -1), cell_at(4, -2), cell_at(4, -3), cell_at(5, -2)}
    assert missing == west | east


def test_holed_hexagon_k1_touches_boundary():
    # k = 1 holes reach the west and east sides and split the region in two
    r = holed_hexagon(2, 1, [1])
    assert len(r.cells) == 16
    assert not _connected(r)


def test_holed_hexagon_central_pair():
    # even side allows k = a/2: the two holes share their axis vertex
    r = holed_hexagon(4, 1, [2])
    assert len(r.cells) == 2 * (16 + 16) - 8
    with pytest.raises(ParameterError):
        holed_hexagon(4, 1, [3])
    with pytest.raises(ParameterError):
        holed_hexagon(5, 1, [3])


def test_holed_hexagon_rejects_bad_ks():
    with pytest.raises(ParameterError):
        holed_hexagon(6, 1, [2, 2])
    with pytest.raises(ParameterError):
        holed_hexagon(6, 1, [3, 2])
    with pytest.raises(ParameterError):
        holed_hexagon(6, 1, [0, 2])


def test_cored_hexagon_counts():
    r = cored_hexagon(8, 5, [2, 4], 2)
    # side-15 holed hexagon minus two holes minus a side-3 rhombus
    assert len(r.cells) == 2 * (225 + 300) - 16 - 2 * 9 == 1016
    assert _connected(r)


def test_cored_hexagon_core_cells():
    r = cored_hexagon(2, 1, [], 1)
    missing = hexagon(3, 3, 2).cell_set - r.cell_set
    assert missing == {cell_at(2, -2), cell_at(3, -2)}


def test_cored_hexagon_collision():
    with pytest.raises(HoleCollisionError) as info:
        cored_hexagon(8, 5, [2, 4, 7], 2)
    assert info.value.ks == [7]
    with pytest.raises(HoleCollisionError):
        cored_hexagon(3, 1, [1, 2], 2)
    # at the legality edge k = a - x the construction goes through
    assert len(cored_hexagon(3, 1, [1], 2).cells) == 2 * (25 + 20) - 8 - 2 * 9
    assert _connected(cored_hexagon(4, 1, [2], 2))


def test_cored_hexagon_rejects_x_out_of_range():
    with pytest.raises(ParameterError):
        cored_hexagon(3, 1, [], 4)
    with pytest.raises(ParameterError):
        cored_hexagon(3, 1, [], 0)


def test_d_region_smallest():
    r = d_region(1, 1, -1, [1])
    assert r.cell_set == {cell_at(0, 0), cell_at(0, -1), cell_at(1, 1),
                          cell_at(1, 0), cell_at(1, -1)}
    assert r.free_edges == (((2, -2), (2, 0)), ((2, 0), (2, 2)))
    cells = r.free_cell_map()
    assert cells[((2, 0), (2, 2))] == cell_at(1, 1)
    assert cells[((2, -2), (2, 0))] == cell_at(1, -1)


def test_d_region_families():
    r = d_region(5, 4, -1, [1, 3, 5])
    # ambient region is the side-10 holed hexagon with holes 2 and 4
    assert all(c.u <= 9 and c.v >= -7 for c in r.cells)
    assert len(r.free_edges) == len([c for c in r.cells
                                     if c.orient == DOWN and c.u == 9])
    r0 = d_region(1, 1, 0, [1])
    assert all(c.u <= 2 for c in r0.cells)
    with pytest.raises(ParameterError):
        d_region(1, 1, 1, [1])
    with pytest.raises(ParameterError):
        d_region(2, 1, 0, [3])


def test_d_size_matches_the_builder():
    # n(n-1)/2 + 2bn - (a - |is|) cells, n = 2a + (eps = 0), over every
    # parameter set with a <= 7, b <= 4
    sets = 0
    for a in range(1, 8):
        for b in range(1, 5):
            for eps in (-1, 0):
                for is_ in _index_sets(a):
                    params, size = lattice._d_size(a, b, eps, list(is_))
                    assert params == (a, b, eps, is_)
                    assert size == len(d_region(a, b, eps, is_).cells)
                    sets += 1
    assert sets == 2032
    # it runs the builder's checks, in the builder's order
    for args in ((0, 1, -1, [1]), (1, 0, 1, [1]), (1, 1, 1, [1]),
                 (2, 1, 0, [3]), (2, 1, 0, [2, 1])):
        with pytest.raises(ParameterError) as want:
            d_region(*args)
        with pytest.raises(ParameterError) as got:
            lattice._d_size(*args)
        assert str(got.value) == str(want.value)


def test_rbar_size_matches_the_builder():
    # n^2 + 4n base - (n mod 2) - 4 (a - |q|) cells, n = 2a + (l = q),
    # a = max q, over every consistent parameter set with a <= 6, base <= 3
    sets = 0
    for a in range(1, 7):
        for q in _index_sets(a):
            if not q or q[-1] != a:
                continue
            even = tuple(d for d in range(1, a) if d + 1 in q)
            for l in (q, even):
                for base in (1, 2, 3):
                    params, size = lattice._rbar_size(list(l), list(q), base)
                    assert params == (l, q, base)
                    assert size == len(rbar_region(l, q, base).cells)
                    sets += 1
    assert sets == 378
    # it runs the builder's checks, in the builder's order
    for args in (([], [1], 0), ([], [1], True), ([], [0], 1), ([], [2, 1], 1),
                 ([0], [1], 1), ([], [], 1), ([1, 2], [1, 3, 5], 4),
                 ([2], [1, 2], 1), ("x", "y", 0)):
        with pytest.raises(ParameterError) as want:
            rbar_region(*args)
        with pytest.raises(ParameterError) as got:
            lattice._rbar_size(*args)
        assert str(got.value) == str(want.value)


def test_rbar_even_shape():
    r = rbar_region([], [1], 1)
    assert len(r.cells) == 12
    expected = {c for c in hexagon(2, 2, 2).cells
                if c.v <= -3 or (c.v == -2 and c.u <= 1)}
    assert r.cell_set == expected


def test_rbar_even_shape_with_holes():
    r = rbar_region([2, 4], [1, 3, 5], 4)
    assert len(r.cells) == 252
    with pytest.raises(ParameterError):
        rbar_region([1, 2], [1, 3, 5], 4)


def test_rbar_odd_shape():
    r = rbar_region([1], [1], 1)
    base = {c for c in hexagon(3, 3, 2).cells
            if c.v <= -3 or (c.v == -2 and c.u <= 2)}
    base.discard(cell_at(2, -2))
    assert r.cell_set == base
    with pytest.raises(ParameterError):
        rbar_region([], [], 1)


def test_serialization_roundtrip():
    for r in (hexagon(2, 2, 2), holed_hexagon(4, 1, [2]),
              cored_hexagon(2, 1, [], 1), d_region(2, 1, -1, [1]),
              rbar_region([], [1], 1)):
        blob = serialize_region(r)
        assert deserialize_region(blob) == r
        # byte determinism
        assert serialize_region(deserialize_region(blob)) == blob


def test_deserialize_refuses_cells_its_parameters_do_not_build():
    # the six cells of hexagon(1, 1, 1) under holed-hexagon parameters
    doc = json.loads(serialize_region(hexagon(1, 1, 1)))
    doc["family"] = "HoledHexagon"
    for params, fragment in (
            ({"a": 3, "b": 1, "ks": []}, "not the region HoledHexagon builds"),
            ({"a": 0, "b": 1, "ks": []}, "a must be an integer >= 1"),
            ({"a": 3, "b": 1, "ks": [5]}, "ks must be strictly increasing")):
        doc["params"] = params
        with pytest.raises(FormatError, match=fragment):
            deserialize_region(json.dumps(doc).encode("utf-8"))
    # a quarter region that drops one of its free edges
    doc = json.loads(serialize_region(d_region(2, 1, -1, [1])))
    doc["free_edges"] = doc["free_edges"][1:]
    with pytest.raises(FormatError, match="not the region DRegion builds"):
        deserialize_region(json.dumps(doc).encode("utf-8"))
    # every family has a builder: a document no builder vouches for, such
    # as a redrawn split, is refused at its family
    doc = json.loads(serialize_region(hexagon(1, 1, 1)))
    doc["family"], doc["params"] = "SplitDual", {}
    data = json.dumps(doc).encode("utf-8")
    with pytest.raises(FormatError, match="^unknown family 'SplitDual'$"
                       ) as info:
        deserialize_region(data)
    assert info.value.offset == data.find(b'"family"') > 0


def test_deserialize_refuses_a_wrong_cell_count_without_building(monkeypatch):
    # a document whose parameters give another cell count is refused by
    # the closed form alone, at the cells, however large the parameters
    def never(*_):
        raise AssertionError("the builder ran")

    for region, big in ((hexagon(2, 2, 2), {"a": 200, "b": 200, "c": 200}),
                        (holed_hexagon(4, 1, [2]), {"a": 400, "b": 200}),
                        (cored_hexagon(2, 1, [], 1), {"a": 200, "b": 200}),
                        (d_region(2, 1, -1, [1]), {"a": 200, "b": 200}),
                        (rbar_region([], [1], 1), {"base": 200}),
                        (rbar_region([1, 2], [1, 2], 2),
                         {"l": list(range(1, 201)), "q": list(range(1, 201))})):
        build, keys, size = lattice._FAMILIES[region.family]
        monkeypatch.setitem(lattice._FAMILIES, region.family,
                            (never, keys, size))
        doc = json.loads(serialize_region(region))
        doc["params"].update(big)
        data = json.dumps(doc, separators=(",", ":")).encode("utf-8")
        with pytest.raises(FormatError, match="^inconsistent region document: "
                           "it is not the region %s builds" % region.family
                           ) as info:
            deserialize_region(data)
        assert info.value.offset == data.find(b'"cells"') > 0
        # the count matches: only the builder can tell, and it is asked
        with pytest.raises(AssertionError, match="the builder ran"):
            deserialize_region(serialize_region(region))


def test_deserialize_refuses_ill_typed_parameters():
    # the builders refuse what a type check on the document would: bool,
    # str, float and list for an integer, a non-list for a list
    regions = (hexagon(2, 2, 2), holed_hexagon(4, 1, [2]),
               cored_hexagon(2, 1, [], 1), d_region(2, 1, -1, [1]),
               rbar_region([], [1], 1))
    ints = (True, False, "1", "", 1.0, 2.0, None, [1], {})
    lists = (1, True, "1", "", "12", 1.0, None, {}, {"1": 1},
             [True], [1.0], [[1]], ["1"], [None])
    refused = 0
    for region in regions:
        doc = json.loads(serialize_region(region))
        for key, value in doc["params"].items():
            for bad in lists if isinstance(value, list) else ints:
                doc["params"][key] = bad
                with pytest.raises(FormatError) as info:
                    deserialize_region(json.dumps(doc).encode("utf-8"))
                assert str(info.value).startswith(
                    "inconsistent region document: "), (key, bad)
                refused += 1
            doc["params"][key] = value
        assert deserialize_region(json.dumps(doc).encode("utf-8")) == region
    # twelve integer parameters and five lists across the five families
    assert refused == 12 * len(ints) + 5 * len(lists)


def test_serialization_fields():
    import json

    doc = json.loads(serialize_region(holed_hexagon(10, 4, [2, 4])))
    assert doc["v"] == 1
    assert doc["family"] == "HoledHexagon"
    assert doc["params"] == {"a": 10, "b": 4, "ks": [2, 4]}
    assert doc["cells"] == sorted(doc["cells"])


def test_deserialize_errors_carry_offsets():
    with pytest.raises(FormatError):
        deserialize_region(b"{}")
    with pytest.raises(FormatError) as info:
        deserialize_region(b"not json at all")
    assert info.value.offset == 0
    blob = serialize_region(hexagon(1, 1, 1))
    bad = blob.replace(b'[0,0,"D"]', b'[0,0,"U"]')
    with pytest.raises(FormatError) as info:
        deserialize_region(bad)
    assert info.value.offset == bad.find(b'[0,0,"U"]')
    with pytest.raises(FormatError):
        deserialize_region(blob.replace(b'"v":1', b'"v":2'))


def _hexagon_doc(**fields) -> bytes:
    # the hexagon(1, 1, 1) document with some fields replaced, compact
    doc = json.loads(serialize_region(hexagon(1, 1, 1)))
    doc.update(fields)
    return json.dumps(doc, separators=(",", ":")).encode("utf-8")


# name -> (document, message fragment, the text the offset points at, or
# None for offset 0)
BAD_DOCUMENTS = {
    "invalid UTF-8": (b'{"v":1,"family":"\xff"}', "not valid UTF-8", b"\xff"),
    "top level not an object": (b"[1,2]", "top level must be an object",
                                None),
    "unknown family": (_hexagon_doc(family="Square"),
                       "unknown family 'Square'", b'"family"'),
    "params not an object": (_hexagon_doc(params=[1]),
                             "params must be an object", b'"params"'),
    "missing parameter": (_hexagon_doc(params={"a": 1, "b": 1}),
                          "missing parameter 'c' for Hexagon", b'"params"'),
    "unknown parameter": (_hexagon_doc(params={"a": 1, "b": 1, "c": 1,
                                               "zzz": 5}),
                          "unknown parameter 'zzz' for Hexagon", b'"params"'),
    "cells not a list": (_hexagon_doc(cells={}), "cells must be a list",
                         b'"cells"'),
    "bad cell entry": (_hexagon_doc(cells=[[0, -2]]), "bad cell entry",
                       b"[0,-2]"),
    "cells unsorted": (_hexagon_doc(cells=[[0, -1, "U"], [0, -2, "D"]]),
                       "cells must be sorted and unique", b'"cells"'),
    "free edges not a list": (_hexagon_doc(free_edges=1),
                              "free_edges must be a list", b'"free_edges"'),
    "bad free edge entry": (_hexagon_doc(free_edges=[[[0, 0]]]),
                            "bad free edge entry", b"[[0,0]]"),
    "free edges repeated": (
        _hexagon_doc(free_edges=[[[0, 0], [1, 1]], [[0, 0], [1, 1]]]),
        "free_edges must be sorted and unique", b'"free_edges"'),
    "free edge endpoints out of order": (
        _hexagon_doc(free_edges=[[[1, 0], [0, 0]]]),
        "free edge endpoints out of order", b"[[1,0],[0,0]]"),
}


@pytest.mark.parametrize("name", sorted(BAD_DOCUMENTS))
def test_deserialize_refusals_name_the_field_and_its_offset(name):
    data, fragment, needle = BAD_DOCUMENTS[name]
    with pytest.raises(FormatError, match=fragment) as info:
        deserialize_region(data)
    assert info.value.offset == (data.index(needle) if needle else 0)


def test_deserialize_refuses_a_family_or_version_of_the_wrong_type():
    # a list or an object is no family name, and true or 1.0 no schema
    # version, though true == 1.0 == 1: each a FormatError at its field
    for fields, message, needle in (
            ({"family": []}, "unknown family []", b'"family"'),
            ({"family": {"a": 1}}, "unknown family {'a': 1}", b'"family"'),
            ({"v": True}, "unsupported schema version True", b'"v"'),
            ({"v": 1.0}, "unsupported schema version 1.0", b'"v"')):
        data = _hexagon_doc(**fields)
        with pytest.raises(FormatError) as info:
            deserialize_region(data)
        assert str(info.value) == message
        assert info.value.offset == data.index(needle)
    assert deserialize_region(_hexagon_doc(v=1)) == hexagon(1, 1, 1)


def test_deserialize_reads_a_str_document_as_its_utf8_bytes():
    blob = serialize_region(d_region(2, 1, -1, [1]))
    assert deserialize_region(blob.decode("utf-8")) == deserialize_region(blob)


def test_free_edge_off_the_boundary_is_a_format_error_under_O():
    # the check must not be an assert, which python -O strips
    script = """
import json
from lozlab.errors import FormatError
from lozlab.lattice import deserialize_region, hexagon, serialize_region
doc = json.loads(serialize_region(hexagon(2, 2, 2)))
doc["free_edges"] = [[[1, 1], [2, 1]]]
try:
    deserialize_region(json.dumps(doc).encode("utf-8"))
except FormatError as exc:
    print("FormatError", exc)
"""
    src = str(Path(lozlab.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.startswith("FormatError ")
    assert "not on the boundary" in proc.stdout
