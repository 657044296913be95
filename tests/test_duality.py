"""Dual graphs, symmetries, quotients, axis factorization."""

import os
import subprocess
import sys
from fractions import Fraction
from itertools import product
from pathlib import Path

import pytest

import lozlab
from lozlab import counting, duality
from lozlab.duality import (
    FactorSplit,
    MatchGraph,
    axis_pair_dual_graph,
    compose,
    dual_graph,
    factorization_split,
    graph_text,
    identity_element,
    quotient_graph,
    remove_loop_vertex,
    split_dual_region,
    symmetry,
    symmetry_group,
)
from lozlab.errors import ContractError, SymmetryAbsentError
from lozlab.lattice import (
    Region,
    TriCell,
    cell_at,
    cell_corners,
    cell_neighbors,
    cells_adjacent,
    cored_hexagon,
    d_region,
    hexagon,
    holed_hexagon,
    rbar_region,
    region_corner_bounds,
)
from lozlab.svg import region_svg
from test_lattice import cell_from_corners

ONE = Fraction(1)
KINDS = ("Identity", "Rot60", "Rot120", "Rot180", "ReflH", "ReflV")
GROUPS = (("Rot180",), ("Rot120",), ("Rot60",), ("ReflH",), ("ReflV",),
          ("Rot180", "ReflH"), ("Rot120", "ReflV"), ("Rot60", "ReflH"))


def test_dual_hexagon_111_is_a_six_cycle():
    g = dual_graph(hexagon(1, 1, 1))
    assert g.n == 6
    assert len(g.edges) == 6
    degs = [0] * 6
    for i, j, w in g.edges:
        degs[i] += 1
        degs[j] += 1
        assert w == Fraction(1)
    assert degs == [2] * 6


def test_dual_embedding_face_count():
    g = dual_graph(hexagon(1, 1, 1))
    # one hexagonal face plus the outer face
    assert g.face_count() == 2
    g2 = dual_graph(hexagon(2, 2, 2))
    assert g2.n - len(g2.edges) + g2.face_count() == 2


def test_faces_partition_the_darts():
    g = dual_graph(holed_hexagon(4, 1, [2]))
    faces, face_of = g.faces()
    darts = {(i, j) for i, j, _ in g.edges} | {(j, i) for i, j, _ in g.edges}
    assert sorted(d for cycle in faces for d in cycle) == sorted(darts)
    for f, cycle in enumerate(faces):
        for (a, b), (c, d) in zip(cycle, cycle[1:] + cycle[:1]):
            assert b == c and face_of[(a, b)] == f
    assert len(faces) == g.face_count()


def _order(e):
    n, current = 1, dict(e.mapping)
    while any(c != d for c, d in current.items()):
        current = {c: e.mapping[d] for c, d in current.items()}
        n += 1
    return n


def test_symmetry_elements_exist_and_have_right_orders():
    r = hexagon(2, 2, 2)
    assert _order(symmetry(r, "Rot60")) == 6
    assert _order(symmetry(r, "Rot120")) == 3
    assert _order(symmetry(r, "Rot180")) == 2
    assert _order(symmetry(r, "ReflH")) == 2
    assert _order(symmetry(r, "ReflV")) == 2
    assert _order(identity_element(r)) == 1


def test_symmetry_absent():
    tall = hexagon(1, 1, 2)
    for kind in ("Rot180", "ReflH", "ReflV"):
        symmetry(tall, kind)
    with pytest.raises(SymmetryAbsentError):
        symmetry(tall, "Rot60")
    with pytest.raises(SymmetryAbsentError):
        symmetry(hexagon(1, 2, 1), "ReflV")
    with pytest.raises(SymmetryAbsentError):
        symmetry(hexagon(1, 2, 1), "ReflH")


def test_dihedral_relations():
    r = hexagon(2, 2, 2)
    r60 = symmetry(r, "Rot60")
    r120 = symmetry(r, "Rot120")
    r180 = symmetry(r, "Rot180")
    refh = symmetry(r, "ReflH")
    refv = symmetry(r, "ReflV")
    assert compose(r60, r60).mapping == r120.mapping
    assert compose(r60, r120).mapping == r180.mapping
    assert compose(refh, refv).mapping == r180.mapping
    assert compose(r180, r180).mapping == identity_element(r).mapping


def test_symmetry_group_closure_sizes():
    r = hexagon(2, 2, 2)
    assert len(symmetry_group(r, [])) == 1
    assert len(symmetry_group(r, ["Rot180"])) == 2
    assert len(symmetry_group(r, ["Rot180", "ReflV"])) == 4
    assert len(symmetry_group(r, ["Rot120"])) == 3
    assert len(symmetry_group(r, ["Rot60", "ReflV"])) == 12


def test_quotient_rot120_merges_central_edges():
    r = hexagon(2, 2, 2)
    q = quotient_graph(dual_graph(r), symmetry(r, "Rot120"))
    assert q.n == 8
    assert not q.loops
    doubled = [(i, j, w) for i, j, w in q.edges if w == Fraction(2)]
    assert len(doubled) == 1
    # total edge weight accounts for all 30 lattice adjacencies
    assert sum(w for _, _, w in q.edges) * 3 == len(dual_graph(r).edges)


def test_quotient_rot180_even_side_has_no_loop():
    r = holed_hexagon(2, 1, [])
    q = quotient_graph(dual_graph(r), symmetry(r, "Rot180"))
    assert q.n == 12
    assert not q.loops


def test_quotient_rot180_odd_side_has_central_loop():
    r = holed_hexagon(3, 1, [])
    q = quotient_graph(dual_graph(r), symmetry(r, "Rot180"))
    assert q.n == 21
    assert len(q.loops) == 1
    v, w = q.loops[0]
    assert w == Fraction(1)
    assert cell_at(2, -2) in q.tags[v]
    g2, weight = remove_loop_vertex(q)
    assert weight == Fraction(1)
    assert g2.n == 20
    assert not g2.loops


def test_quotient_rot60_center_loop_is_parity_blocked():
    r = hexagon(2, 2, 2)
    q = quotient_graph(dual_graph(r), symmetry(r, "Rot60"))
    assert q.n == 4
    assert len(q.loops) == 1
    assert q.n % 2 == 0


def test_quotient_rejects_reflections():
    r = hexagon(2, 2, 2)
    with pytest.raises(ContractError):
        quotient_graph(dual_graph(r), symmetry(r, "ReflH"))
    with pytest.raises(ContractError):
        quotient_graph(dual_graph(r), symmetry(r, "ReflV"))


def test_remove_loop_vertex_requires_one_loop():
    g = dual_graph(hexagon(1, 1, 1))
    with pytest.raises(ContractError):
        remove_loop_vertex(g)


def _split_of(region) -> FactorSplit:
    g = dual_graph(region)
    q = quotient_graph(g, symmetry(region, "Rot180"))
    if q.loops:
        q, w = remove_loop_vertex(q)
        assert w == Fraction(1)
    return factorization_split(q, symmetry(region, "ReflH"))


def test_split_multiplier_counts_axis_pairs():
    assert _split_of(holed_hexagon(10, 4, [2, 4])).multiplier_log2 == 3
    assert _split_of(holed_hexagon(2, 1, [])).multiplier_log2 == 1
    assert _split_of(holed_hexagon(3, 1, [])).multiplier_log2 == 1
    assert _split_of(holed_hexagon(4, 2, [2])).multiplier_log2 == 1


def test_split_dual_region_matches_rbar():
    split = _split_of(holed_hexagon(10, 4, [2, 4]))
    assert (split_dual_region(split).cell_set
            == rbar_region([2, 4], [1, 3, 5], 4).cell_set)
    split = _split_of(holed_hexagon(2, 1, []))
    assert split_dual_region(split).cell_set == rbar_region([], [1], 1).cell_set
    split = _split_of(holed_hexagon(3, 1, []))
    assert split_dual_region(split).cell_set == rbar_region([1], [1], 1).cell_set


def test_split_subgraph_is_the_weighted_dual_of_the_redrawn_region():
    for region, l, q_, base in (
            (holed_hexagon(2, 1, []), [], [1], 1),
            (holed_hexagon(3, 1, []), [1], [1], 1),
            (holed_hexagon(4, 2, [2]), [1], [2], 2),
            (holed_hexagon(10, 4, [2, 4]), [2, 4], [1, 3, 5], 4)):
        split = _split_of(region)
        # vertex i of the subgraph corresponds to a redrawn cell via the
        # same bottom-representative rule used by split_dual_region
        from lozlab.duality import _tag_cells

        vs = [c.v for t in split.subgraph.tags for c in _tag_cells(t)]
        lvl2 = min(vs) + max(vs)

        def rep(tag):
            members = _tag_cells(tag)
            below = [c for c in members if 2 * c.v < lvl2]
            if below:
                return below[0]
            return sorted(c for c in members if 2 * c.v == lvl2)[0]

        actual = {}
        for i, j, w in split.subgraph.edges:
            a, b = sorted((rep(split.subgraph.tags[i]),
                           rep(split.subgraph.tags[j])))
            actual[(a, b)] = w
        expected_graph = axis_pair_dual_graph(rbar_region(l, q_, base))
        expected = {}
        for i, j, w in expected_graph.edges:
            a, b = sorted((expected_graph.tags[i], expected_graph.tags[j]))
            expected[(a, b)] = w
        assert actual == expected


def test_axis_pair_dual_graph_halves_top_pairs():
    g = axis_pair_dual_graph(rbar_region([], [1], 1))
    halved = [(i, j) for i, j, w in g.edges if w == Fraction(1, 2)]
    assert len(halved) == 1
    i, j = halved[0]
    assert {g.tags[i], g.tags[j]} == {cell_at(0, -2), cell_at(1, -2)}


def test_split_rejects_foreign_axis():
    g = dual_graph(hexagon(1, 2, 1))
    axis = symmetry(hexagon(1, 1, 2), "ReflH")
    with pytest.raises(SymmetryAbsentError):
        factorization_split(g, axis)


def test_graph_text_format():
    g = dual_graph(hexagon(1, 1, 1))
    text = graph_text(g)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    assert all(len(line.split()) == 3 for line in lines)
    assert lines[0] == "0 1 1/1"
    r = holed_hexagon(3, 1, [])
    q = quotient_graph(dual_graph(r), symmetry(r, "Rot180"))
    assert any(line.split()[0] == line.split()[1]
               for line in graph_text(q).strip().split("\n"))


# ---------------------------------------------------------------------
# derived structures are computed once and handed out as copies


def test_neighbor_sets_and_components_are_fresh_copies():
    g = dual_graph(holed_hexagon(3, 1, [1]))
    adj, comps = g.neighbor_sets(), g.components()
    faces, face_of = g.faces()
    want = ([set(s) for s in adj], [set(c) for c in comps],
            [list(c) for c in faces], dict(face_of))
    adj[0].add(g.n)
    adj.append({0})
    comps[0].clear()
    comps.append({g.n})
    faces[0].clear()
    face_of.clear()
    assert (g.neighbor_sets(), g.components(), *g.faces()) == want
    assert g.face_count() == len(want[2])
    assert counting.count_matchings(g) == counting.count_tilings(
        holed_hexagon(3, 1, [1]))


# ---------------------------------------------------------------------
# the public constructor checks its input, also under python -O

# name -> (tags, edges, loops, rotations, message fragment)
MALFORMED = {
    "tags unsorted": ((1, 0), (), (), None, "tags not sorted/unique"),
    "tags repeated": ((0, 0), (), (), None, "tags not sorted/unique"),
    "edges unsorted": ((0, 1, 2), ((1, 2, ONE), (0, 1, ONE)), (), None,
                       "edges not sorted/unique"),
    "edges repeated": ((0, 1), ((0, 1, ONE), (0, 1, ONE)), (), None,
                       "edges not sorted/unique"),
    "edge reversed": ((0, 1), ((1, 0, ONE),), (), None, "bad edge endpoints"),
    "edge out of range": ((0, 1), ((0, 2, ONE),), (), None,
                          "bad edge endpoints"),
    "edge weight int": ((0, 1), ((0, 1, 1),), (), None, "bad weight"),
    "edge weight zero": ((0, 1), ((0, 1, Fraction(0)),), (), None,
                         "bad weight"),
    "edge weight negative": ((0, 1), ((0, 1, Fraction(-1, 2)),), (), None,
                             "bad weight"),
    "loops unsorted": ((0, 1), (), ((1, ONE), (0, ONE)), None,
                       "loops not sorted/unique"),
    "loops repeated": ((0, 1), (), ((0, ONE), (0, ONE)), None,
                       "loops not sorted/unique"),
    "loop out of range": ((0, 1), (), ((2, ONE),), None, "bad loop vertex"),
    "loop weight zero": ((0, 1), (), ((0, Fraction(0)),), None,
                         "bad loop weight"),
    "loop weight float": ((0, 1), (), ((0, 1.0),), None, "bad loop weight"),
    "rotation count": ((0, 1), ((0, 1, ONE),), (), ((1,),),
                       "rotation system has 1 entries for 2 vertices"),
    "rotation repeats": ((0, 1), ((0, 1, ONE),), (), ((1, 1), (0,)),
                         "repeated neighbor in rotation at 0"),
    "rotation without edge": ((0, 1), ((0, 1, ONE),), (), ((), (0,)),
                              "rotation disagrees with edges at 0"),
    "rotation extra neighbor": ((0, 1, 2), ((0, 1, ONE),), (),
                                ((1, 2), (0,), ()),
                                "rotation disagrees with edges at 0"),
    # K4 with every rotation in increasing order traces two faces, not four
    "embedding not planar": (
        (0, 1, 2, 3),
        tuple((i, j, ONE) for i in range(4) for j in range(i + 1, 4)), (),
        ((1, 2, 3), (0, 2, 3), (0, 1, 3), (0, 1, 2)),
        "embedding not planar: V=4 E=6 F=2 C=1"),
}


@pytest.mark.parametrize("name", sorted(MALFORMED))
def test_match_graph_rejects_malformed_input(name):
    tags, edges, loops, rotations, fragment = MALFORMED[name]
    with pytest.raises(ContractError, match=fragment):
        MatchGraph(tags, edges, loops, rotations)


def test_match_graph_accepts_what_it_checks():
    # the planar K4 embedding, and the same shapes as above made legal
    k4 = tuple((i, j, ONE) for i in range(4) for j in range(i + 1, 4))
    g = MatchGraph((0, 1, 2, 3), k4, ((1, Fraction(1, 2)),),
                   ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))
    assert g.face_count() == 4
    MatchGraph((0, 1, 2), ((0, 1, Fraction(3)),), ((2, ONE),),
               ((1,), (0,), ()))


def test_match_graph_rejects_malformed_input_under_O():
    # the checks must not be asserts, which python -O strips
    script = """
from lozlab.duality import MatchGraph
from lozlab.errors import ContractError
from test_duality import MALFORMED
for name, (tags, edges, loops, rotations, fragment) in sorted(MALFORMED.items()):
    try:
        MatchGraph(tags, edges, loops, rotations)
    except ContractError as exc:
        print(name, "|", fragment in str(exc))
    else:
        print(name, "| accepted")
"""
    src = str(Path(lozlab.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src + os.pathsep + here})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["%s | True" % name
                                        for name in sorted(MALFORMED)]


# ---------------------------------------------------------------------
# public routines check hand-built objects, also under python -O


def _hand_split(*tags):
    return FactorSplit(MatchGraph(tuple(sorted(tags)), ()), 0)


def _svg_with_distant_pair():
    r = hexagon(1, 1, 1)
    c = r.cells[0]
    d = next(x for x in r.cells if x != c and not cells_adjacent(c, x))
    return region_svg(r, tiling=[(c, d)])


def _symmetry_under(point_map):
    """Rot180 of hexagon(1, 1, 1) with its point map replaced."""
    saved = duality._point_map
    duality._point_map = lambda kind, cx2, cy2: point_map
    try:
        return symmetry(hexagon(1, 1, 1), "Rot180")
    finally:
        duality._point_map = saved


def _swap_first_cell(p):
    # swaps the first cell with the other "D" cell it shares no edge with:
    # a bijection of the region that is no lattice isometry
    first, other = (duality._centroid3(c)
                    for c in hexagon(1, 1, 1).cells[0:3:2])
    return other if p == first else first if p == other else p


def _split_on(kind):
    r = hexagon(1, 1, 1)
    axis = identity_element(r) if kind == "Identity" else symmetry(r, kind)
    return factorization_split(dual_graph(r), axis)


# name -> (call, message fragment)
HAND_BUILT = {
    "region cells unsorted": (
        lambda: Region("hand", (), (cell_at(1, 0), cell_at(0, 0))),
        "cells not sorted/unique"),
    "region cell malformed": (
        lambda: Region("hand", (), (TriCell(0, 0, "U"),)), "malformed cell"),
    "compose across regions": (
        lambda: compose(identity_element(hexagon(1, 1, 1)),
                        identity_element(hexagon(2, 1, 1))),
        "elements live on different regions"),
    "quotient of an untagged graph": (
        lambda: quotient_graph(MatchGraph((0, 1), ((0, 1, ONE),)),
                               symmetry(hexagon(1, 1, 1), "Rot180")),
        "need a cell-tagged graph"),
    "split on a non-involution": (lambda: _split_on("Rot60"),
                                  "axis map not an involution"),
    "split with a tilted axis": (lambda: _split_on("Identity"),
                                 "axis vertices not at a single height"),
    "split orbit twice below": (
        lambda: split_dual_region(_hand_split((cell_at(0, 0), cell_at(1, 0)),
                                              (cell_at(0, 2),))),
        "orbit has several cells below the axis"),
    "split orbit above": (
        lambda: split_dual_region(_hand_split((cell_at(0, 0),),
                                              (cell_at(0, 2),))),
        "orbit entirely above the axis"),
    "symmetry not injective": (
        lambda: _symmetry_under(
            lambda p: duality._centroid3(hexagon(1, 1, 1).cells[0])),
        "Rot180 is not injective"),
    "symmetry not an automorphism": (
        lambda: _symmetry_under(_swap_first_cell),
        "Rot180 is not a graph automorphism"),
    "svg tiling pair apart": (_svg_with_distant_pair,
                              "tiling pair is not adjacent"),
}


@pytest.mark.parametrize("name", sorted(HAND_BUILT))
def test_public_routines_reject_hand_built_objects(name):
    call, fragment = HAND_BUILT[name]
    with pytest.raises(ContractError, match=fragment):
        call()


def test_public_routines_reject_hand_built_objects_under_O():
    # the checks must not be asserts, which python -O strips
    script = """
from lozlab.errors import ContractError
from test_duality import HAND_BUILT
for name, (call, fragment) in sorted(HAND_BUILT.items()):
    try:
        call()
    except ContractError as exc:
        print(name, "|", fragment in str(exc))
    else:
        print(name, "| accepted")
"""
    src = str(Path(lozlab.__file__).resolve().parent.parent)
    here = str(Path(__file__).resolve().parent)
    proc = subprocess.run([sys.executable, "-O", "-c", script],
                          capture_output=True, text=True,
                          env={"PYTHONPATH": src + os.pathsep + here})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["%s | True" % name
                                        for name in sorted(HAND_BUILT)]


# ---------------------------------------------------------------------
# symmetries against references


def _symmetry_regions():
    regions = [hexagon(a, b, c) for a, b, c in product(range(1, 6), repeat=3)]
    regions += [holed_hexagon(a, b, ks) for a in range(2, 7) for b in (1, 2)
                for ks in ([], [1], [2], [1, 2], [3], [1, 3])
                if not ks or 2 * ks[-1] <= a]
    regions += [cored_hexagon(a, b, ks, x) for a, b, ks, x in (
        (2, 1, [], 1), (3, 1, [], 1), (3, 2, [1], 1), (4, 1, [1], 2),
        (4, 2, [], 1))]
    regions += [d_region(a, b, eps, list(range(1, a + 1)))
                for a in (1, 2, 3) for b in (1, 2) for eps in (-1, 0)]
    return regions


def _corner_symmetry(region, kind):
    """Reference: each cell mapped through its three corners and read
    back with cell_from_corners, with the checks and messages of the
    corner-mapping implementation."""
    corners = [p for cell in region.cells for p in cell_corners(cell)]
    xs, ys = [x for x, _ in corners], [y for _, y in corners]
    assert region_corner_bounds(region) == (min(xs), max(xs), min(ys), max(ys))
    pmap = duality._point_map(kind, min(xs) + max(xs), min(ys) + max(ys))
    have = region.cell_set
    mapping = {}
    for cell in region.cells:
        pts = [pmap(p) for p in cell_corners(cell)]
        if any((x + y) % 2 for x, y in pts):
            raise SymmetryAbsentError(
                "%s does not preserve the lattice on %s" % (kind, region.family))
        try:
            image = cell_from_corners(pts)
        except ValueError:
            raise SymmetryAbsentError(
                "%s does not preserve unit cells" % (kind,))
        if image not in have:
            raise SymmetryAbsentError(
                "%s does not map the region to itself (cell %r -> %r)"
                % (kind, tuple(cell), tuple(image)))
        mapping[cell] = image
    return mapping


def _outcome(fn, *args):
    try:
        return "map", fn(*args)
    except SymmetryAbsentError as exc:
        return "absent", str(exc)


def test_symmetry_matches_the_corner_reference():
    seen = {"map": 0, "absent": 0}
    regions = _symmetry_regions()
    for region in regions:
        for kind in KINDS:
            want = _outcome(_corner_symmetry, region, kind)
            got = _outcome(lambda r, k: symmetry(r, k).mapping, region, kind)
            assert got == want, (region.family, region.params, kind)
            seen[want[0]] += 1
    assert seen == {"map": 490, "absent": 578}


def test_symmetry_lattice_check_matches_the_reference(monkeypatch):
    # hexagon(1, 2, 1) has its mirror axes off the lattice; with the
    # center's parity test skipped, the per-cell check must reject them
    # with the same text as the corner reference
    region = hexagon(1, 2, 1)
    for kind in ("ReflH", "ReflV"):
        with pytest.raises(SymmetryAbsentError, match="is not a lattice map"):
            symmetry(region, kind)

    def unchecked(kind, cx2, cy2):
        if kind == "ReflH":
            return lambda p: (p[0], cy2 - p[1])
        return lambda p: (cx2 - p[0], p[1])

    monkeypatch.setattr(duality, "_point_map", unchecked)
    for kind in ("ReflH", "ReflV"):
        want = _outcome(_corner_symmetry, region, kind)
        assert want == ("absent", "%s does not preserve the lattice on "
                        "Hexagon" % kind)
        assert _outcome(symmetry, region, kind) == want


def test_every_symmetry_is_an_automorphism_cell_by_cell():
    # reference for the one-cell check in symmetry: the per-cell
    # injectivity and adjacency loop it replaced, on every map
    maps = 0
    for region in _symmetry_regions():
        have = region.cell_set
        for kind in KINDS:
            try:
                mapping = symmetry(region, kind).mapping
            except SymmetryAbsentError:
                continue
            assert len(set(mapping.values())) == len(mapping)
            for cell in region.cells:
                image_nbrs = cell_neighbors(mapping[cell])
                for nb in cell_neighbors(cell):
                    if nb in have:
                        assert mapping[nb] in image_nbrs
            maps += 1
    assert maps == 490


def _all_pairs_group(region, kinds):
    """Reference: the closure that composes every pair of elements each
    round, elements keyed by their set of (cell, image) pairs."""
    elems = {frozenset(identity_element(region).mapping.items()):
             identity_element(region)}
    for kind in kinds:
        e = symmetry(region, kind)
        elems.setdefault(frozenset(e.mapping.items()), e)
    while True:
        new = {}
        items = list(elems.values())
        for f in items:
            for g in items:
                h = compose(f, g)
                k = frozenset(h.mapping.items())
                if k not in elems and k not in new:
                    new[k] = h
        if not new:
            return list(elems.values())
        elems.update(new)


def test_symmetry_group_matches_the_all_pairs_closure():
    regions = (hexagon(2, 2, 2), hexagon(3, 3, 3), hexagon(2, 2, 4),
               hexagon(1, 2, 2), holed_hexagon(4, 1, [2]),
               cored_hexagon(3, 1, [], 1))
    sizes = {}
    for region in regions:
        for kinds in GROUPS + (("ReflV", "Rot60", "Rot120"),):
            try:
                want = _all_pairs_group(region, kinds)
            except SymmetryAbsentError:
                with pytest.raises(SymmetryAbsentError):
                    symmetry_group(region, kinds)
                continue
            got = symmetry_group(region, kinds)
            assert len(got) == len(want)
            assert ({tuple(e.mapping[c] for c in region.cells) for e in got}
                    == {tuple(e.mapping[c] for c in region.cells)
                        for e in want})
            # the identity and the named generators lead, in order
            named = [(e.kind, e.mapping) for e in want if "*" not in e.kind]
            assert [(e.kind, e.mapping) for e in got[:len(named)]] == named
            sizes[(region.family, region.params, kinds)] = len(got)
    assert sizes[("Hexagon", (("a", 3), ("b", 3), ("c", 3)),
                  ("Rot60", "ReflH"))] == 12
    assert sizes[("Hexagon", (("a", 2), ("b", 2), ("c", 4)),
                  ("Rot180", "ReflH"))] == 4
