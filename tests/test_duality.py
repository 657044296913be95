"""Dual graphs, symmetries, quotients, axis factorization."""

import hashlib
import os
import random
import subprocess
import sys
from fractions import Fraction
from itertools import combinations, product
from pathlib import Path
from types import SimpleNamespace

import pytest

import lozlab
from lozlab import counting, duality
from lozlab.duality import (
    FactorSplit,
    MatchGraph,
    SymmetryElement,
    central_axis_split,
    compose,
    dual_graph,
    factorization_split,
    graph_text,
    identity_element,
    quotient_graph,
    remove_loop_vertex,
    symmetry,
    symmetry_group,
    tag_cells,
    without_vertices,
)
from lozlab.errors import ContractError, SymmetryAbsentError
from lozlab.lattice import (
    Region,
    TriCell,
    cell_at,
    cell_corners,
    cell_neighbors,
    cored_hexagon,
    d_region,
    hexagon,
    holed_hexagon,
    rbar_region,
    serialize_region,
)
from lozlab.svg import region_svg
from lozlab.verify import _legal_ks, check, default_grid, sweep
from test_lattice import cell_from_corners

ONE = Fraction(1)
_UNPERMUTED = "symmetry does not permute the graph's tags"
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


def traced_faces(g):
    """Reference: the faces of g's embedding as cycles of darts (i, j),
    traced on tuple darts; dart (j, i) continues to (i, k), k the next
    neighbour after j in the cyclic order at i.  The cycles come in the
    order the trace first meets them, visiting the darts into vertex 0,
    then into vertex 1, and so on."""
    succ = {}
    for i, rot in enumerate(g.rotations):
        for pos, j in enumerate(rot):
            succ[(j, i)] = (i, rot[(pos + 1) % len(rot)])
    faces, seen = [], set()
    for dart in succ:
        if dart in seen:
            continue
        cycle, d = [], dart
        while d not in seen:
            seen.add(d)
            cycle.append(d)
            d = succ[d]
        assert d == dart, "face trace did not close"
        faces.append(cycle)
    return faces


def test_faces_partition_the_darts():
    g = dual_graph(holed_hexagon(4, 1, [2]))
    faces = traced_faces(g)
    darts = {(i, j) for i, j, _ in g.edges} | {(j, i) for i, j, _ in g.edges}
    assert sorted(d for cycle in faces for d in cycle) == sorted(darts)
    for cycle in faces:
        for (a, b), (c, d) in zip(cycle, cycle[1:] + cycle[:1]):
            assert b == c
    # the integer trace numbers the same faces in the same order
    face_of = {d: f for f, cycle in enumerate(faces) for d in cycle}
    count, pairs = g.faces
    assert count == len(faces) == g.face_count()
    assert pairs == tuple((face_of[(i, j)], face_of[(j, i)])
                          for i, j, _ in g.edges)


def mapping(e):
    """Reference for perm: the element as a dict from each cell to its
    image."""
    return dict(zip(e.cells, map(e.cells.__getitem__, e.perm)))


def _order(e):
    step = mapping(e)
    n, current = 1, dict(step)
    while any(c != d for c, d in current.items()):
        current = {c: step[d] for c, d in current.items()}
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
    assert mapping(compose(r60, r60)) == mapping(r120)
    assert mapping(compose(r60, r120)) == mapping(r180)
    assert mapping(compose(refh, refv)) == mapping(r180)
    assert mapping(compose(r180, r180)) == mapping(identity_element(r))


def test_elements_are_permutations_of_the_cell_indices():
    r = hexagon(2, 2, 2)
    group = symmetry_group(r, ("Rot60", "ReflV"))
    assert len(group) == 12
    for f in group:
        assert sorted(f.perm) == list(range(24))
        assert f.cells is r.cells
        for g in group:
            assert compose(f, g).perm == tuple(f.perm[k] for k in g.perm)


def test_symmetry_group_closure_sizes():
    r = hexagon(2, 2, 2)
    assert len(symmetry_group(r, [])) == 1
    assert len(symmetry_group(r, ["Rot180"])) == 2
    assert len(symmetry_group(r, ["Rot180", "ReflV"])) == 4
    assert len(symmetry_group(r, ["Rot120"])) == 3
    assert len(symmetry_group(r, ["Rot60", "ReflV"])) == 12


def test_quotient_rot120_merges_central_edges():
    r = hexagon(2, 2, 2)
    q = quotient_graph(symmetry(r, "Rot120"))
    assert q.n == 8
    assert not q.loops
    doubled = [(i, j, w) for i, j, w in q.edges if w == Fraction(2)]
    assert len(doubled) == 1
    # total edge weight accounts for all 30 lattice adjacencies
    assert sum(w for _, _, w in q.edges) * 3 == len(dual_graph(r).edges)


def test_quotient_rot180_even_side_has_no_loop():
    r = holed_hexagon(2, 1, [])
    q = quotient_graph(symmetry(r, "Rot180"))
    assert q.n == 12
    assert not q.loops


def test_quotient_rot180_odd_side_has_central_loop():
    r = holed_hexagon(3, 1, [])
    q = quotient_graph(symmetry(r, "Rot180"))
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
    q = quotient_graph(symmetry(r, "Rot60"))
    assert q.n == 4
    assert len(q.loops) == 1
    assert q.n % 2 == 0


def test_quotient_rejects_reflections():
    r = hexagon(2, 2, 2)
    with pytest.raises(ContractError):
        quotient_graph(symmetry(r, "ReflH"))
    with pytest.raises(ContractError):
        quotient_graph(symmetry(r, "ReflV"))


def corpus_regions():
    """Hexagons with sides up to 6, holed hexagons with a up to 8 and
    cored hexagons with a up to 4, each with every hole list."""
    regions = [hexagon(a, b, c) for a, b, c in product(range(1, 7), repeat=3)]
    regions += [holed_hexagon(a, b, ks) for a in range(1, 9) for b in (1, 2)
                for ks in _legal_ks(a // 2)]
    regions += [cored_hexagon(a, b, ks, x) for a in range(1, 5) for b in (1, 2)
                for x in range(1, a + 1) for ks in _legal_ks(a - x)]
    return regions


def corpus_rotations(regions=None):
    """Every Rot60, Rot120 and Rot180 of the regions, by default the
    corpus regions."""
    elems = []
    for region in regions or corpus_regions():
        for kind in ("Rot60", "Rot120", "Rot180"):
            try:
                elems.append(symmetry(region, kind))
            except SymmetryAbsentError:
                pass
    return elems


def tricell_rotations(cells):
    """Reference for the (u, v) cell index: the region adjacency read
    off a dict keyed by whole cells."""
    index = {c: i for i, c in enumerate(cells)}
    rotations = []
    for u, v, orient in cells:
        if orient == "U":
            ccw = ((u, v + 1, "D"), (u - 1, v, "D"), (u, v - 1, "D"))
        else:
            ccw = ((u + 1, v, "U"), (u, v + 1, "U"), (u, v - 1, "U"))
        # plain tuples hash and compare like the TriCells they spell
        rotations.append(tuple(index[d] for d in ccw if d in index))
    return tuple(rotations)


def _reference_dual_graph(region):
    """Reference for dual_graph, on the whole-cell index."""
    rotations = tricell_rotations(region.cells)
    edges = sorted((i, j, ONE) for i, rot in enumerate(rotations)
                   for j in rot if j > i)
    return MatchGraph(region.cells, tuple(edges), (), rotations)


def _full_adjacency_quotient(elem):
    """Reference for quotient_graph: the adjacency of every cell is
    built, and each orbit reads its least cell's row."""
    cells, perm = elem.cells, elem.perm
    adjacency = tricell_rotations(cells)
    orbits, orbit_of = [], [-1] * len(cells)
    for start in range(len(cells)):
        if orbit_of[start] < 0:
            orbit, cur = [start], perm[start]
            while cur != start:
                orbit.append(cur)
                cur = perm[cur]
            for v in orbit:
                orbit_of[v] = len(orbits)
            orbits.append(orbit)
    m = len(orbits[0])
    tags = tuple(tuple(cells[v] for v in sorted(o)) for o in orbits)
    edges, loops, rotations = [], [], []
    for o, orbit in enumerate(orbits):
        nbs = [orbit_of[c] for c in adjacency[orbit[0]]]
        rot = tuple(dict.fromkeys(q for q in nbs if q != o))
        rotations.append(rot)
        edges += [(o, q, Fraction(nbs.count(q))) for q in sorted(rot) if q > o]
        ts = [orbit.index(c) for c in adjacency[orbit[0]] if orbit_of[c] == o]
        k = sum(1 for t in ts
                if 2 * t == m or (2 * t < m and len(orbits) % 2 == 0))
        if k:
            loops.append((o, Fraction(k)))
    return MatchGraph(tags, tuple(edges), tuple(loops), tuple(rotations))


def _orbit_walk_quotient(elem):
    """Reference for quotient_graph: every edge orbit is walked once,
    marked edge by edge in a set of cell pairs, and counted where the
    walk starts; the rotations come in a second pass."""
    cells, perm = elem.cells, elem.perm
    adjacency = tricell_rotations(cells)
    orbits, orbit_of = [], [-1] * len(cells)
    for start in range(len(cells)):
        if orbit_of[start] < 0:
            orbit, cur = [start], perm[start]
            while cur != start:
                orbit.append(cur)
                cur = perm[cur]
            for v in orbit:
                orbit_of[v] = len(orbits)
            orbits.append(orbit)
    tags = tuple(tuple(cells[v] for v in sorted(o)) for o in orbits)
    weights, loops, seen = {}, {}, set()
    for i, rot in enumerate(adjacency):
        for j in rot:
            if j < i or (i, j) in seen:
                continue
            a, b = i, j
            while True:
                seen.add((a, b) if a < b else (b, a))
                a, b = perm[a], perm[b]
                if (a, b) == (i, j) or (b, a) == (i, j):
                    break
            oi, oj = orbit_of[i], orbit_of[j]
            if oi == oj:
                orbit = orbits[oi]
                t = orbit.index(j) - orbit.index(i)
                if (2 * t) % len(orbit) and len(orbits) % 2:
                    continue
                loops[oi] = loops.get(oi, 0) + ONE
            else:
                key = (min(oi, oj), max(oi, oj))
                weights[key] = weights.get(key, 0) + ONE
    rotations = []
    for o, orbit in enumerate(orbits):
        rot = []
        for nb in adjacency[orbit[0]]:
            if orbit_of[nb] != o and orbit_of[nb] not in rot:
                rot.append(orbit_of[nb])
        rotations.append(tuple(rot))
    return MatchGraph(tags, tuple(sorted((i, j, w)
                                         for (i, j), w in weights.items())),
                      tuple(sorted(loops.items())), tuple(rotations))


def test_quotient_matches_the_edge_orbit_walk():
    kinds = {"Rot60": 0, "Rot120": 0, "Rot180": 0}
    looped = {"partial matching": 0, "parity blocked": 0, "dropped": 0}
    for elem in corpus_rotations():
        got, want = quotient_graph(elem), _orbit_walk_quotient(elem)
        for field in MatchGraph._fields:
            assert getattr(got, field) == getattr(want, field), (
                field, elem.kind, len(elem.cells))
        kinds[elem.kind] += 1
        if elem.kind == "Rot180":
            looped["partial matching"] += bool(got.loops)
        elif got.loops:
            looped["parity blocked"] += 1
        elif elem.kind == "Rot60" and got.n % 2:
            looped["dropped"] += 1
    assert kinds == {"Rot60": 8, "Rot120": 8, "Rot180": 358}
    assert looped == {"partial matching": 192, "parity blocked": 5,
                      "dropped": 3}


def reference_corpus():
    """The corpus regions with hexagon(n, n, n) up to n = 12 and the d
    regions up to a = 4, and every Rot60, Rot120 and Rot180 of them."""
    regions = corpus_regions()
    regions += [hexagon(n, n, n) for n in range(7, 13)]
    regions += [d_region(a, b, eps, is_) for a in range(1, 5) for b in (1, 2)
                for eps in (-1, 0) for is_ in ((), tuple(range(1, a + 1)))]
    return regions, corpus_rotations(regions)


def reference_faces(g):
    """g.faces as the tuple-dart trace numbers them."""
    faces = traced_faces(g)
    face_of = {d: f for f, cycle in enumerate(faces) for d in cycle}
    return len(faces), tuple((face_of[(i, j)], face_of[(j, i)])
                             for i, j, _ in g.edges)


def test_graph_layers_match_the_tricell_references():
    # the (u, v) index, the quotient's least-cell rows and the face trace
    # against the whole-cell index, the full adjacency and tuple darts
    regions, elems = reference_corpus()
    pairs = [(dual_graph(r), _reference_dual_graph(r)) for r in regions]
    pairs += [(quotient_graph(e), _full_adjacency_quotient(e)) for e in elems]
    assert (len(regions), len(elems)) == (396, 394)
    for got, want in pairs:
        assert got == want and graph_text(got) == graph_text(want)
        faces = reference_faces(want)
        assert got.faces == faces
        flips = counting._kasteleyn_orientation(SimpleNamespace(faces=faces))
        assert counting._kasteleyn_orientation(got) == flips


def _set_rotation_check(g):
    """Reference for the rotation check: the first vertex whose rotation
    repeats a neighbour or differs from its edges as a set."""
    nbrs = [set() for _ in range(len(g.rotations))]
    for i, j, _ in g.edges:
        nbrs[i].add(j)
        nbrs[j].add(i)
    for i, rot in enumerate(g.rotations):
        if len(rot) != len(set(rot)):
            return "repeated neighbor in rotation at %d" % i
        if set(rot) != nbrs[i]:
            return "rotation disagrees with edges at %d" % i
    return None


def _rotation_mutants(g, rng):
    """Rotation systems of g with one vertex's rotation reordered,
    shortened, repeated, padded or redirected."""
    for _ in range(12):
        rots = [list(rot) for rot in g.rotations]
        v = rng.randrange(g.n)
        rot = rots[v]
        how = rng.randrange(6)
        if how == 0 and len(rot) > 1:
            i, j = rng.sample(range(len(rot)), 2)
            rot[i], rot[j] = rot[j], rot[i]
        elif how == 1 and rot:
            del rot[rng.randrange(len(rot))]
        elif how == 2 and rot:
            rot.insert(rng.randrange(len(rot) + 1), rng.choice(rot))
        elif how == 3:
            rot.append(rng.randrange(g.n))
        elif how == 4 and rot:
            rot[rng.randrange(len(rot))] = rng.randrange(g.n)
        elif how == 5:
            rot.append("x")
        yield tuple(map(tuple, rots))


def test_rotation_check_matches_the_set_reference():
    rng = random.Random(21)
    regions, elems = reference_corpus()
    graphs = [dual_graph(r) for r in regions[::9]]
    graphs += [quotient_graph(e) for e in elems[::9]] + [planar_k4()]
    refused = 0
    for g in graphs:
        for rotations in _rotation_mutants(g, rng):
            want = _set_rotation_check(SimpleNamespace(
                edges=g.edges, rotations=rotations))
            try:
                MatchGraph(g.tags, g.edges, g.loops, rotations)
            except ContractError as exc:
                got = str(exc)
            else:
                got = None
            if want is None:
                assert got is None or got.startswith("embedding not planar")
            else:
                assert got == want
                refused += 1
    for tags, edges, loops, rotations, fragment in MALFORMED.values():
        if fragment.startswith(("repeated neighbor", "rotation disagrees")):
            assert _set_rotation_check(SimpleNamespace(
                edges=edges, rotations=rotations)) == fragment
    assert refused > 100


def test_remove_loop_vertex_requires_one_loop():
    g = dual_graph(hexagon(1, 1, 1))
    with pytest.raises(ContractError):
        remove_loop_vertex(g)


def _split_of(region) -> FactorSplit:
    q = quotient_graph(symmetry(region, "Rot180"))
    if q.loops:
        q, w = remove_loop_vertex(q)
        assert w == Fraction(1)
    return factorization_split(q, symmetry(region, "ReflH"))


def test_split_multiplier_counts_axis_pairs():
    assert _split_of(holed_hexagon(10, 4, [2, 4])).multiplier_log2 == 3
    assert _split_of(holed_hexagon(2, 1, [])).multiplier_log2 == 1
    assert _split_of(holed_hexagon(3, 1, [])).multiplier_log2 == 1
    assert _split_of(holed_hexagon(4, 2, [2])).multiplier_log2 == 1


REDRAWN_SPLITS = (
    (holed_hexagon(2, 1, []), [], [1], 1),
    (holed_hexagon(3, 1, []), [1], [1], 1),
    (holed_hexagon(4, 2, [2]), [1], [2], 2),
    (holed_hexagon(10, 4, [2, 4]), [2, 4], [1, 3, 5], 4))


def _redrawn_cell(split):
    """The split redrawn as a region: each vertex keeps its orbit's member
    below the axis, or on the axis its western one."""
    vs = [c.v for t in split.subgraph.tags for c in tag_cells(t)]
    lvl2 = min(vs) + max(vs)

    def rep(tag):
        members = tag_cells(tag)
        below = [c for c in members if 2 * c.v < lvl2]
        if below:
            return below[0]
        return sorted(c for c in members if 2 * c.v == lvl2)[0]

    return rep


def test_split_dual_region_matches_rbar():
    for region, l, q_, base in REDRAWN_SPLITS:
        split = _split_of(region)
        rep = _redrawn_cell(split)
        assert ({rep(t) for t in split.subgraph.tags}
                == rbar_region(l, q_, base).cell_set)


def test_split_subgraph_is_the_weighted_dual_of_the_redrawn_region():
    for region, l, q_, base in REDRAWN_SPLITS:
        split = _split_of(region)
        rep = _redrawn_cell(split)
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


def axis_pair_dual_graph(region: Region) -> MatchGraph:
    """Reference for the split: the dual graph with every edge between two
    top-row cells halved.  The top row of a bottom-half region is its fold
    axis; matchings of the folded graph correspond to this weighting."""
    g = dual_graph(region)
    vmax = max(c.v for c in region.cells)
    edges = tuple((i, j, w / 2 if g.tags[i].v == g.tags[j].v == vmax else w)
                  for i, j, w in g.edges)
    return MatchGraph(g.tags, edges, g.loops, g.rotations)


def test_axis_pair_dual_graph_halves_top_pairs():
    g = axis_pair_dual_graph(rbar_region([], [1], 1))
    halved = [(i, j) for i, j, w in g.edges if w == Fraction(1, 2)]
    assert len(halved) == 1
    i, j = halved[0]
    assert {g.tags[i], g.tags[j]} == {cell_at(0, -2), cell_at(1, -2)}


def _split_cases():
    """Every hexagon with sides up to 4, and the regions of the stock
    holed and cored rows."""
    regions = [hexagon(a, b, c) for a, b, c in product(range(1, 5), repeat=3)]
    regions += [holed_hexagon(p["a"], p["b"], p["ks"])
                for p in default_grid("T2_1_even")]
    regions += [holed_hexagon(2 * p["a"] + odd, p["b"], p["ks"])
                for odd in (0, 1) for p in default_grid("E3_1")]
    regions += [cored_hexagon(p["a"], p["b"], p["ks"], p["x"])
                for p in default_grid("T2_1_cored")]
    return regions


def test_central_axis_split_keeps_the_quotient_count():
    refused = {"midpoint of a lattice edge": [], "lies on no axis edge": []}
    for region in _split_cases():
        try:
            split, loop_weight = central_axis_split(region)
        except SymmetryAbsentError:
            continue  # no horizontal mirror
        except ContractError as exc:
            reason, = (r for r in refused if r in str(exc))
            refused[reason].append(region.params)
            continue
        q = quotient_graph(symmetry(region, "Rot180"))
        assert (loop_weight * 2 ** split.multiplier_log2
                * counting.mgf(split.subgraph)
                == counting.count_matchings(q)), region.params
    # a even and c odd: the half-turn centre is the midpoint of an edge,
    # so the quotient is even and keeps a dead-weight loop; a and c odd:
    # an axis vertex has no axis partner, and the split is not proven
    assert refused == {
        "midpoint of a lattice edge": [
            hexagon(a, a, c).params for a, c in ((2, 1), (2, 3), (4, 1), (4, 3))],
        "lies on no axis edge": [
            hexagon(a, a, c).params for a, c in ((1, 1), (1, 3), (3, 1), (3, 3))]}
    for a, c in ((2, 1), (4, 3)):
        r = hexagon(a, a, c)
        q = quotient_graph(symmetry(r, "Rot180"))
        assert q.n % 2 == 0 and len(q.loops) == 1


def _lone_axis_regions():
    """Two regions whose axis has a vertex on no axis edge: hexagon(3, 3,
    2) less two vertical triples, split on its dual graph, and
    hexagon(4, 4, 2) less four, split on its central quotient."""
    def less(region, drop):
        return Region("hand", (), tuple(c for c in region.cells
                                        if c not in drop))
    dual = less(hexagon(3, 3, 2), {cell_at(u, v) for u in (0, 5)
                                   for v in (-3, -2, -1)})
    central = less(hexagon(4, 4, 2), {cell_at(u, v) for u in (0, 3, 4, 7)
                                      for v in (-3, -2, -1)})
    return dual, central


def test_split_refuses_an_axis_vertex_on_no_axis_edge():
    # cutting above every axis vertex gave 3 for the first (6 matchings)
    # and 1 for the second (a quotient with 2)
    dual, central = _lone_axis_regions()
    assert counting.count_tilings(dual) == 6
    assert counting.count_matchings(
        quotient_graph(symmetry(central, "Rot180"))) == 2
    with pytest.raises(ContractError, match="lies on no axis edge"):
        factorization_split(dual_graph(dual), symmetry(dual, "ReflH"))
    with pytest.raises(ContractError, match="lies on no axis edge"):
        central_axis_split(central)


def less_lozenge_orbits(rng, hexa, group, most):
    """hexa less the orbits under group of one to most random lozenges,
    each a random cell and a random neighbour of it."""
    rotations = dual_graph(hexa).rotations
    gone = set()
    for _ in range(rng.randint(1, most)):
        k = rng.randrange(len(hexa.cells))
        j = rng.choice(rotations[k])
        gone.update(p for e in group for p in (e.perm[k], e.perm[j]))
    return Region("hand", (), tuple(
        c for i, c in enumerate(hexa.cells) if i not in gone))


def _split_identity_cases(rng, count):
    """Seeded mirror-symmetric regions: hexagon(a, a, c) less the orbits
    of one to three random lozenges, under ReflH or under Rot180 and
    ReflH, with the kind of split each is checked by.  A region left
    with no cells is skipped."""
    while count:
        a, c = rng.randint(1, 4), rng.randint(1, 4)
        hexa = hexagon(a, a, c)
        central = rng.random() < 0.5
        group = symmetry_group(hexa, ("Rot180", "ReflH") if central
                               else ("ReflH",))
        region = less_lozenge_orbits(rng, hexa, group, 3)
        if region.cells:
            count -= 1
            yield central, region


def test_split_keeps_the_count_wherever_it_returns():
    outcomes = {"dual": 0, "central": 0, "refused": 0}
    for central, region in _split_identity_cases(random.Random(8), 400):
        try:
            if central:
                split, weight = central_axis_split(region)
                want = counting.count_matchings(
                    quotient_graph(symmetry(region, "Rot180")))
            else:
                g = dual_graph(region)
                split = factorization_split(g, symmetry(region, "ReflH"))
                weight, want = 1, counting.count_matchings(g)
        except (ContractError, SymmetryAbsentError):
            outcomes["refused"] += 1
            continue
        assert (weight * 2 ** split.multiplier_log2
                * counting.mgf(split.subgraph) == want), region.cells
        outcomes["central" if central else "dual"] += 1
    # refused: lone axis vertices, and loops kept by central quotients
    assert outcomes == {"dual": 66, "central": 72, "refused": 262}


def _chain_split(region):
    """Reference for central_axis_split: the checked quotient, its
    normalized copy, and the split of that graph."""
    q = quotient_graph(symmetry(region, "Rot180"))
    q, loop_weight = duality.normalize_loops(q)
    return factorization_split(q, symmetry(region, "ReflH")), loop_weight


def _split_or_refusal(split, region):
    try:
        return split(region)
    except (ContractError, SymmetryAbsentError) as exc:
        return type(exc), str(exc)


def test_central_axis_split_matches_the_three_step_chain(monkeypatch):
    regions = [holed_hexagon(a, b, ks) for a in range(1, 9)
               for b in range(1, 4) for ks in _legal_ks(a // 2)]
    regions += [cored_hexagon(a, b, ks, x) for a in range(1, 5)
                for b in range(1, 3) for x in range(1, a + 1)
                for ks in _legal_ks(a - x)]
    regions += [hexagon(a, b, c) for a, b, c in product(range(1, 6), repeat=3)]
    want = [_split_or_refusal(_chain_split, r) for r in regions]
    # the split builds only the graph it returns: it calls no step of
    # the chain, nor the tag-reading vertex action
    calls = []
    for name in ("quotient_graph", "normalize_loops", "without_vertices",
                 "factorization_split", "_vertex_action"):
        def counted(*args, _name=name, _fn=getattr(duality, name)):
            calls.append(_name)
            return _fn(*args)
        monkeypatch.setattr(duality, name, counted)
    got = [_split_or_refusal(central_axis_split, r) for r in regions]
    assert calls == []
    # subgraph fields, multiplier and loop weight, or refusal type and text
    for region, g, w in zip(regions, got, want):
        assert g == w, region.params
    splits = sum(isinstance(w[0], FactorSplit) for w in want)
    assert (splits, len(want) - splits) == (197, 115)
    assert {w[1] for w in want if not isinstance(w[0], FactorSplit)} >= {
        "horizontal mirror is not a lattice map",
        "cannot split a graph with a loop: a Rot180 quotient keeps one "
        "when the half-turn centre is the midpoint of a lattice edge"}


def test_empty_region_has_no_symmetry():
    empty = Region("hand", (), ())
    assert counting.count_tilings(empty) == 1
    for call in (lambda: symmetry(empty, "Rot180"),
                 lambda: counting.count_symmetric_tilings(empty, ["ReflH"])):
        with pytest.raises(ContractError,
                           match="an empty region has no centroid"):
            call()


def test_records_are_read_only_tuples():
    region = holed_hexagon(4, 1, [2])
    report = sweep("T2_1_even", [{"a": 4, "b": 1, "ks": (2,)}])
    records = (region, dual_graph(region), symmetry(region, "Rot180"),
               central_axis_split(region)[0],
               check("T2_1_even", a=4, b=1, ks=(2,)), report.rows[0], report)
    for record in records:
        assert isinstance(record, tuple) and record == tuple(record)
        for field in record._fields:
            with pytest.raises(AttributeError):
                setattr(record, field, getattr(record, field))
    g = records[1]
    for name in ("rotations", "walk", "faces"):
        with pytest.raises(AttributeError):
            setattr(g, name, ())
    assert counting.count_matchings(g) == 260


def test_a_region_builds_each_symmetry_element_once():
    region = holed_hexagon(4, 1, [2])
    blob, key = serialize_region(region), hash(region)
    elem = symmetry(region, "Rot180")
    assert symmetry(region, "Rot180") is elem
    assert symmetry_group(region, ["Rot180"])[1] is elem
    # an equal region, new or copied, builds its own
    for other in (holed_hexagon(4, 1, [2]), region._replace(),
                  Region(*region)):
        again = symmetry(other, "Rot180")
        assert other == region and again == elem and again is not elem
    # a refusal is not kept: it raises again, with the same text
    texts = []
    for _ in range(2):
        with pytest.raises(SymmetryAbsentError) as refused:
            symmetry(region, "Rot60")
        texts.append(str(refused.value))
    assert texts[0] == texts[1]
    assert region == holed_hexagon(4, 1, [2]) and hash(region) == key
    assert serialize_region(region) == blob
    with pytest.raises(AttributeError):
        region.note = "x"


def test_split_rejects_foreign_axis():
    g = dual_graph(hexagon(1, 2, 1))
    axis = symmetry(hexagon(1, 1, 2), "ReflH")
    with pytest.raises(SymmetryAbsentError):
        factorization_split(g, axis)


def test_split_rejects_an_axis_that_is_no_automorphism():
    r = hexagon(2, 2, 2)
    g = dual_graph(r)
    (i, j, _), *rest = g.edges
    heavy = MatchGraph(g.tags, ((i, j, Fraction(2)), *rest), g.loops,
                       g.rotations)
    with pytest.raises(SymmetryAbsentError,
                       match="symmetry is not a weighted automorphism"):
        factorization_split(heavy, symmetry(r, "ReflH"))
    with pytest.raises(SymmetryAbsentError,
                       match="symmetry does not permute the graph's tags"):
        factorization_split(without_vertices(g, {0}), symmetry(r, "ReflH"))


def test_split_compares_weights_by_value_not_identity():
    # an edge and its mirror image weighted by equal but distinct
    # Fractions are still a weighted automorphism, and split
    r = hexagon(2, 2, 2)
    g = dual_graph(r)
    axis = symmetry(r, "ReflH")
    i, j, _ = next(e for e in g.edges if sorted((axis.perm[e[0]],
                                                 axis.perm[e[1]])) != e[:2])
    mirror = tuple(sorted((axis.perm[i], axis.perm[j])))
    two, other_two = Fraction(2), Fraction(2)
    assert two is not other_two
    weight = {(i, j): two, mirror: other_two}
    heavy = MatchGraph(g.tags, tuple((a, b, weight.get((a, b), w))
                                     for a, b, w in g.edges),
                       g.loops, g.rotations)
    split, halved = factorization_split(heavy, axis)
    assert 2 ** halved * counting.mgf(split) == counting.mgf(heavy)
    assert counting.mgf(heavy) > counting.mgf(g)


def _with_hand_built_axis(region, swaps):
    """A copy of region whose ReflH is the identity with the given cell
    pairs swapped, no lattice map."""
    r = Region(*region)
    perm = list(range(len(r.cells)))
    for i, j in swaps:
        perm[i], perm[j] = j, i
    r._symmetries["ReflH"] = SymmetryElement("ReflH", r.cells, tuple(perm))
    return r


def _filled(region):
    """The region after every route of this module has read it."""
    dual_graph(region)
    region.cell_set
    for kind in KINDS:
        try:
            symmetry(region, kind)
        except SymmetryAbsentError:
            pass
    return region


def test_region_memo_is_invisible_and_per_region():
    # a region keeps its cell index, centroid, cell set and symmetry
    # elements; ==, hash and serialization read none of them, and a copy
    # starts with its own
    for build, args in ((hexagon, (2, 2, 2)), (holed_hexagon, (4, 1, [2])),
                        (d_region, (3, 2, -1, [2])),
                        (rbar_region, ([1], [1, 2], 1))):
        fresh, used = build(*args), _filled(build(*args))
        assert used._symmetries and not fresh._symmetries
        assert used == fresh and hash(used) == hash(fresh)
        assert serialize_region(used) == serialize_region(fresh)
        copy = used._replace()
        assert copy == used and copy is not used and not copy._symmetries
        assert duality._region_index(copy) is not duality._region_index(used)
        # a copy with other cells indexes, and maps about, its own cells
        smaller = _filled(used._replace(cells=used.cells[1:]))
        assert duality._region_index(smaller) == duality._cell_index(
            smaller.cells)
        assert duality._region_centroid(smaller) == duality._centroid2(
            smaller.cells) != duality._region_centroid(used)
        assert dual_graph(smaller).tags == smaller.cells
        assert smaller.cell_set == frozenset(used.cells[1:])


def test_a_check_builds_its_region_index_and_centroid_once(monkeypatch):
    built = {"_cell_index": [], "_centroid2": []}
    for name in built:
        def spy(cells, name=name, original=getattr(duality, name)):
            built[name].append(cells)
            return original(cells)
        monkeypatch.setattr(duality, name, spy)
    result = check("E3_1", a=2, b=1, ks=())
    assert result.verdict is True
    cells = holed_hexagon(4, 1, []).cells
    assert built == {"_cell_index": [cells], "_centroid2": [cells]}


def test_central_split_refuses_an_axis_that_does_not_permute_orbits():
    # one swap carries a quotient orbit onto two; two swaps carry an odd
    # quotient's forced-loop orbit onto another orbit, and back
    odd = holed_hexagon(3, 1, [])
    q = quotient_graph(symmetry(odd, "Rot180"))
    (v, _), = q.loops
    loop_cells, other = (sorted(odd.cells.index(c) for c in q.tags[u])
                         for u in (v, v - 1))
    for r in (_with_hand_built_axis(hexagon(2, 2, 2), [(0, 1)]),
              _with_hand_built_axis(odd, zip(loop_cells, other))):
        for split in (central_axis_split, _chain_split):
            with pytest.raises(SymmetryAbsentError, match=_UNPERMUTED):
                split(r)


def test_graph_text_format():
    g = dual_graph(hexagon(1, 1, 1))
    text = graph_text(g)
    lines = text.strip().split("\n")
    assert len(lines) == 6
    assert all(len(line.split()) == 3 for line in lines)
    assert lines[0] == "0 1 1/1"
    r = holed_hexagon(3, 1, [])
    q = quotient_graph(symmetry(r, "Rot180"))
    assert any(line.split()[0] == line.split()[1]
               for line in graph_text(q).strip().split("\n"))


# ---------------------------------------------------------------------
# derived structures are computed once and shared, so none can change


def test_shared_structures_cannot_be_changed():
    g = dual_graph(holed_hexagon(3, 1, [1]))
    adj, walk, faces = g.rotations, g.walk, g.faces
    assert adj is g.rotations and walk is g.walk and faces is g.faces
    count, pairs = faces
    assert g.face_count() == count
    for outer in (adj, walk, faces):
        assert type(outer) is tuple
        with pytest.raises(TypeError):
            outer[0] = outer[0]
        with pytest.raises(AttributeError):
            outer.append(outer[0])
    assert all(type(inner) is tuple for inner in adj)
    for inner in walk:
        assert type(inner) is tuple
        with pytest.raises(TypeError):
            inner[0] = inner[0]
        with pytest.raises(AttributeError):
            inner.append(inner[0])
    assert type(pairs) is tuple and all(type(p) is tuple for p in pairs)
    with pytest.raises(TypeError):
        pairs[0] = pairs[0]
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
    # two faults each: the first check to fail names the fault, whatever
    # order the faster passes find them in
    "edges unsorted, bad weight": ((0, 1, 2), ((1, 2, 1), (0, 1, ONE)), (),
                                   None, "edges not sorted/unique"),
    "two bad weights": ((0, 1, 2), ((0, 1, 2), (1, 2, -1)), (), None,
                        "bad weight 2"),
    "bad endpoints, then a bad weight": ((0, 1, 2), ((1, 0, ONE), (1, 2, 0)),
                                         (), None, "bad edge endpoints"),
    # edge (0, 3) meets the fault at vertex 3 before edge (1, 2) meets
    # the one at vertex 1, the lower vertex, which is named
    "rotation faults at 3 and 1": ((0, 1, 2, 3), ((0, 3, ONE), (1, 2, ONE)),
                                   (), ((3,), (0,), (1,), (1,)),
                                   "rotation disagrees with edges at 1"),
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


def planar_k4():
    """K4 embedded in the plane, with one loop."""
    k4 = tuple((i, j, ONE) for i in range(4) for j in range(i + 1, 4))
    return MatchGraph((0, 1, 2, 3), k4, ((1, Fraction(1, 2)),),
                      ((1, 2, 3), (0, 3, 2), (0, 1, 3), (0, 2, 1)))


def test_match_graph_accepts_what_it_checks():
    # the planar K4 embedding, and the same shapes as above made legal
    assert planar_k4().face_count() == 4
    MatchGraph((0, 1, 2), ((0, 1, Fraction(3)),), ((2, ONE),),
               ((1,), (0,), ()))
    # every graph carries its embedding: there is no default
    with pytest.raises(TypeError):
        MatchGraph((0, 1), ((0, 1, ONE),))


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
                          env={**os.environ,
                               "PYTHONPATH": src + os.pathsep + here})
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == ["%s | True" % name
                                        for name in sorted(MALFORMED)]


# ---------------------------------------------------------------------
# public routines check hand-built objects, also under python -O


def _int_tagged():
    """A valid graph, one edge, whose vertex tags are ints, not cells."""
    return MatchGraph((0, 1), ((0, 1, Fraction(1)),), (), ((1,), (0,)))


def _svg_with_distant_pair():
    r = hexagon(1, 1, 1)
    c = r.cells[0]
    d = next(x for x in r.cells if x != c and x not in cell_neighbors(c))
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


def _with_free_edges(change):
    r = d_region(2, 1, -1, [1, 2])
    return Region(r.family, r.params, r.cells, change(r.free_edges))


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
    "region cell with the other tag": (
        lambda: Region("hand", (), (TriCell(0, 1, "D"),)), "malformed cell"),
    "region cell with an unknown tag": (
        lambda: Region("hand", (), (TriCell(0, 1, "X"),)), "malformed cell"),
    "compose across regions": (
        lambda: compose(identity_element(hexagon(1, 1, 1)),
                        identity_element(hexagon(2, 1, 1))),
        "elements live on different regions"),
    "split on a non-involution": (lambda: _split_on("Rot60"),
                                  "axis map not an involution"),
    "split with a tilted axis": (lambda: _split_on("Identity"),
                                 "axis vertices not at a single height"),
    "split with a lone axis vertex": (
        lambda: central_axis_split(_lone_axis_regions()[1]),
        "lies on no axis edge"),
    "symmetry not injective": (
        lambda: _symmetry_under(
            lambda p: duality._centroid3(hexagon(1, 1, 1).cells[0])),
        "Rot180 is not injective"),
    "symmetry not an automorphism": (
        lambda: _symmetry_under(_swap_first_cell),
        "Rot180 is not a graph automorphism"),
    "svg tiling pair apart": (_svg_with_distant_pair,
                              "tiling pair is not adjacent"),
    "region free edges unsorted": (
        lambda: _with_free_edges(lambda edges: edges[::-1]),
        "free edges not sorted/unique"),
    "region free edge repeated": (
        lambda: _with_free_edges(lambda edges: edges[:1] + edges),
        "free edges not sorted/unique"),
    "region copy with cells unsorted": (
        lambda: hexagon(1, 1, 1)._replace(cells=hexagon(1, 1, 1).cells[::-1]),
        "cells not sorted/unique"),
    "quotient of an element with no cells": (
        lambda: quotient_graph(SymmetryElement("Rot180", (), ())),
        "an element with no cells has no quotient"),
    "quotient of an element that does not act freely": (
        lambda: quotient_graph(SymmetryElement(
            "Rot180", hexagon(1, 1, 1).cells, (1, 0, 2, 3, 4, 5))),
        "symmetry does not act freely on cells"),
    "svg of an empty region": (lambda: region_svg(Region("X", (), ())),
                               "an empty region has nothing to draw"),
    "split of a graph tagged with ints": (
        lambda: factorization_split(_int_tagged(),
                                    symmetry(hexagon(1, 1, 1), "ReflH")),
        "vertex tag 0 names no cells"),
    "svg of a graph tagged with ints": (
        lambda: region_svg(hexagon(1, 1, 1), graph=_int_tagged()),
        "vertex tag 0 names no cells"),
    "svg of a family region without its parameters": (
        lambda: region_svg(Region("HoledHexagon", (),
                                  holed_hexagon(4, 1, [2]).cells)),
        "HoledHexagon region has no parameter 'a'"),
    "graph copy with a bad rotation": (
        lambda: dual_graph(hexagon(1, 1, 1))._replace(rotations=((),) * 6),
        "rotation disagrees with edges at 0"),
}


def test_tag_cells_reads_cells_and_refuses_other_tags():
    cells = hexagon(1, 1, 1).cells
    assert tag_cells(cells[0]) == (cells[0],)
    assert tag_cells(cells[:2]) == cells[:2]
    for tag in (0, (), "ab", (cells[0], 1), (tuple(cells[0]),)):
        with pytest.raises(ContractError, match="names no cells"):
            tag_cells(tag)


@pytest.mark.parametrize("region, kind, fragment", [
    (Region("X", (), (cell_at(0, 1),)), "Rot180",
     "half turn is not a lattice map"),
    (hexagon(1, 1, 1), "Rot90", "unknown symmetry kind 'Rot90'"),
])
def test_symmetry_refuses_a_map_it_cannot_build(region, kind, fragment):
    with pytest.raises(SymmetryAbsentError, match=fragment):
        symmetry(region, kind)


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
                          env={**os.environ,
                               "PYTHONPATH": src + os.pathsep + here})
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
    corner-mapping implementation.  The center is the mean of all the
    cells' corners, passed doubled and tripled as _point_map takes it."""
    corners = [p for cell in region.cells for p in cell_corners(cell)]
    center2 = [Fraction(2 * sum(p[i] for p in corners), len(region.cells))
               for i in (0, 1)]
    pmap = duality._point_map(kind, *(int(c) if c.denominator == 1 else c
                                      for c in center2))
    have = region.cell_set
    mapping = {}
    for cell in region.cells:
        pts = []
        for x, y in cell_corners(cell):
            x3, y3 = pmap((3 * x, 3 * y))
            if x3 % 3 or y3 % 3:
                raise SymmetryAbsentError(
                    "%s does not preserve unit cells" % (kind,))
            pts.append((x3 // 3, y3 // 3))
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


def _pinned_symmetry_regions():
    """_symmetry_regions, two one-cell regions, seeded hexagons less up
    to two cells, and seeded hexagons less Rot120 orbits of lozenges."""
    rng = random.Random(20261019)
    regions = _symmetry_regions()
    regions += [Region("hand", (), (cell_at(0, 1),)),
                Region("hand", (), (cell_at(0, 0),))]
    for _ in range(300):
        hexa = hexagon(*[rng.randint(1, 4) for _ in range(3)])
        drop = set(rng.sample(hexa.cells, rng.randint(0, 2)))
        regions.append(Region("hand", (), tuple(c for c in hexa.cells
                                                if c not in drop)))
    for _ in range(200):
        full = hexagon(*[rng.randint(2, 4)] * 3)
        regions.append(less_lozenge_orbits(
            rng, full, symmetry_group(full, ["Rot120"]), 2))
    return regions


def test_symmetry_maps_are_pinned():
    # which kinds map, and to which permutations; refusal texts are not
    # pinned here
    maps = dict.fromkeys(KINDS, 0)
    digest = hashlib.sha256()
    for region in _pinned_symmetry_regions():
        for kind in KINDS:
            try:
                perm = symmetry(region, kind).perm
            except SymmetryAbsentError:
                continue
            maps[kind] += 1
            digest.update(("%s %r\n" % (kind, perm)).encode())
    assert maps == {"Identity": 680, "Rot60": 20, "Rot120": 213,
                    "Rot180": 275, "ReflH": 127, "ReflV": 125}
    assert digest.hexdigest() == (
        "2a0bc48476a588def6af56bf2c189cab4d13f1340c2603fb0fcf125fce5df8a8")
    # a mirror reads only its own axis: this region's cell centroid has
    # x = 5 / 9, and ReflH still maps it
    column = Region("X", (), (TriCell(0, -4, "D"), TriCell(0, -3, "U"),
                              TriCell(0, -2, "D")))
    assert symmetry(column, "ReflH").perm == (2, 1, 0)


def test_symmetry_refusals_are_pinned():
    # the refusal texts over the same regions, each "does not map the
    # region to itself" naming the first cell that leaves and its image
    texts = []
    for region in _pinned_symmetry_regions():
        for kind in KINDS:
            try:
                symmetry(region, kind)
            except SymmetryAbsentError as exc:
                texts.append(str(exc))
    assert len(texts) == 2640
    assert sum("does not map the region to itself" in t for t in texts) == 1007
    assert hashlib.sha256("\n".join(texts).encode()).hexdigest() == (
        "8304b80a41b992d1f79f3bbb9cc5b4094d2f4e790d0fb7e8bcfc19a45c310e6f")
    assert next(t for t in texts if "does not map" in t) == (
        "Rot60 does not map the region to itself "
        "(cell (0, -6, 'D') -> (2, -5, 'U'))")


def test_symmetry_matches_the_corner_reference():
    seen = {"map": 0, "absent": 0}
    regions = _symmetry_regions()
    for region in regions:
        for kind in KINDS:
            want = _outcome(_corner_symmetry, region, kind)
            got = _outcome(lambda r, k: mapping(symmetry(r, k)), region, kind)
            assert got == want, (region.family, region.params, kind)
            seen[want[0]] += 1
    assert seen == {"map": 490, "absent": 578}


# the 15 cells u = 0..2, v = -2..2
WINDOW = tuple(cell_at(u, v) for u in range(3) for v in range(-2, 3))

# each kind as a linear map of tripled offsets, doubled so that its
# entries are integers.  A step of (1, 1) is as long as one of (0, 2),
# so with X = sqrt(3) x a turn by t takes x to x cos t - y sin t / sqrt(3)
# and y to sqrt(3) x sin t + y cos t
PLANE2 = {
    "Identity": ((2, 0), (0, 2)),
    "Rot60": ((1, -1), (3, 1)),
    "Rot120": ((-1, -1), (3, -1)),
    "Rot180": ((-2, 0), (0, -2)),
    "ReflH": ((2, 0), (0, -2)),
    "ReflV": ((-2, 0), (0, 2)),
}


def _tripled(cell):
    return (3 * cell.u + (1 if cell.orient == "U" else 2), 3 * cell.v)


def _plane_image(kind, c2, cell):
    """The cell whose tripled centroid kind sends cell's to, about the
    center c2 / 2, or None where that point is no cell's centroid."""
    (a, b), (c, d) = PLANE2[kind]
    x, y = _tripled(cell)
    dx, dy = 2 * x - c2[0], 2 * y - c2[1]
    x4, y4 = 2 * c2[0] + a * dx + b * dy, 2 * c2[1] + c * dx + d * dy
    if x4 % 4 or y4 % 4:
        return None
    x, y = x4 // 4, y4 // 4
    if y % 3 or not x % 3:
        return None
    image = cell_at(x // 3, y // 3)
    return image if _tripled(image) == (x, y) else None


def _plane_map(kind, c2):
    """kind about c2 / 2 on WINDOW, or None unless it sends every cell
    to a cell and every pair of neighbours to neighbours."""
    image = {cell: _plane_image(kind, c2, cell) for cell in WINDOW}
    if None in image.values():
        return None
    for cell in WINDOW:
        for nb in cell_neighbors(cell):
            if nb in image and image[nb] not in cell_neighbors(image[cell]):
                return None
    return image


def test_point_map_accepts_exactly_the_lattice_isometries():
    # the center rule against the maps written out in the plane, over
    # every integer center in a window of two periods and a few Fraction
    # centers, which a mirror reads only along its own axis
    centers = list(product(range(-12, 12), repeat=2))
    centers += [(Fraction(1, 3), 0), (0, Fraction(1, 3)),
                (Fraction(5, 2), Fraction(7, 2)), (Fraction(18, 5), 6),
                (6, Fraction(-6, 7))]
    accepted = dict.fromkeys(KINDS, 0)
    for kind in KINDS:
        for c2 in centers:
            want = _plane_map(kind, c2)
            try:
                pmap = duality._point_map(kind, *c2)
            except SymmetryAbsentError:
                assert want is None, (kind, c2)
                continue
            assert want is not None, (kind, c2)
            assert all(pmap(_tripled(cell)) == _tripled(want[cell])
                       for cell in WINDOW), (kind, c2)
            accepted[kind] += 1
    assert accepted == {"Identity": 581, "Rot60": 8, "Rot120": 24,
                        "Rot180": 32, "ReflH": 98, "ReflV": 98}


def test_symmetry_of_every_small_window_region_is_pinned():
    # every 1- to 5-cell subset of WINDOW under every kind: which kinds
    # map and to which permutations; refusal texts are not pinned here,
    # and no map may fail a ContractError guard
    maps = dict.fromkeys(KINDS, 0)
    digest = hashlib.sha256()
    for size in range(1, 6):
        for cells in combinations(WINDOW, size):
            region = Region("hand", (), cells)
            for kind in KINDS:
                try:
                    perm = symmetry(region, kind).perm
                except SymmetryAbsentError:
                    continue
                maps[kind] += 1
                digest.update(("%s %r\n" % (kind, perm)).encode())
    assert maps == {"Identity": 4943, "Rot60": 0, "Rot120": 44,
                    "Rot180": 128, "ReflH": 215, "ReflV": 30}
    assert digest.hexdigest() == (
        "80cf4cc9273f9fb678b30a76564c0bfa86e6093ac07dcef5e5b0d90794fea316")


def test_rot120_about_no_lattice_point_or_centroid_is_refused_by_center():
    # the centroid is (8, -4) in doubled tripled coordinates, neither a
    # lattice point nor a cell's centroid: a third turn about it takes no
    # cell to a cell
    region = Region("hand", (), (cell_at(0, -2), cell_at(0, 0),
                                 cell_at(2, 0)))
    with pytest.raises(SymmetryAbsentError,
                       match="^rotation center is not a lattice point$"):
        symmetry(region, "Rot120")


def test_every_symmetry_is_an_automorphism_cell_by_cell():
    # reference for the one-cell check in symmetry: the per-cell
    # injectivity and adjacency loop it replaced, on every map
    maps = 0
    for region in _symmetry_regions():
        have = region.cell_set
        for kind in KINDS:
            try:
                image = mapping(symmetry(region, kind))
            except SymmetryAbsentError:
                continue
            assert len(set(image.values())) == len(image)
            for cell in region.cells:
                image_nbrs = cell_neighbors(image[cell])
                for nb in cell_neighbors(cell):
                    if nb in have:
                        assert image[nb] in image_nbrs
            maps += 1
    assert maps == 490


def _all_pairs_group(region, kinds):
    """Reference: the closure that composes every pair of elements each
    round, elements keyed by their set of (cell, image) pairs."""
    elems = {frozenset(mapping(identity_element(region)).items()):
             identity_element(region)}
    for kind in kinds:
        e = symmetry(region, kind)
        elems.setdefault(frozenset(mapping(e).items()), e)
    while True:
        new = {}
        items = list(elems.values())
        for f in items:
            for g in items:
                h = compose(f, g)
                k = frozenset(mapping(h).items())
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
            assert ({tuple(mapping(e)[c] for c in region.cells) for e in got}
                    == {tuple(mapping(e)[c] for c in region.cells)
                        for e in want})
            # the identity and the named generators lead, in order
            named = [(e.kind, mapping(e)) for e in want if "*" not in e.kind]
            assert [(e.kind, mapping(e)) for e in got[:len(named)]] == named
            sizes[(region.family, region.params, kinds)] = len(got)
    assert sizes[("Hexagon", (("a", 3), ("b", 3), ("c", 3)),
                  ("Rot60", "ReflH"))] == 12
    assert sizes[("Hexagon", (("a", 2), ("b", 2), ("c", 4)),
                  ("Rot180", "ReflH"))] == 4
