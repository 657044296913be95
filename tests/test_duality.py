"""Dual graphs, symmetries, quotients, axis factorization."""

from fractions import Fraction

import pytest

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
from lozlab.lattice import TriCell, cell_at, hexagon, holed_hexagon, rbar_region


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


def test_symmetry_elements_exist_and_have_right_orders():
    r = hexagon(2, 2, 2)
    assert symmetry(r, "Rot60").order() == 6
    assert symmetry(r, "Rot120").order() == 3
    assert symmetry(r, "Rot180").order() == 2
    assert symmetry(r, "ReflH").order() == 2
    assert symmetry(r, "ReflV").order() == 2
    assert identity_element(r).order() == 1


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
