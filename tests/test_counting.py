"""Counting engines: oracle vs determinant, symmetric and free counts."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, isqrt, lcm, prod

import pytest

from lozlab import cli, counting, default_grid, duality, lattice
from lozlab.counting import (
    count_matchings,
    count_matchings_oracle,
    count_matchings_pfaffian,
    count_symmetric_tilings,
    count_tilings,
    count_tilings_free,
    enumerate_matchings,
    mgf,
    mgf_oracle,
)
from lozlab.duality import (
    MatchGraph,
    central_axis_split,
    dual_graph,
    factorization_split,
    identity_element,
    normalize_loops,
    quotient_graph,
    remove_loop_vertex,
    symmetry,
    symmetry_group,
    without_vertices,
)
from lozlab.errors import BudgetError, ContractError, SymmetryAbsentError
from lozlab.formulas import d_count, macmahon_box
from lozlab.lattice import (Region, cell_edges, cell_neighbors, cored_hexagon,
                           d_region, edge_cells, hexagon, holed_hexagon,
                           rbar_region)
from test_duality import (_split_cases, axis_pair_dual_graph, corpus_regions,
                          corpus_rotations, less_lozenge_orbits, mapping,
                          planar_k4, traced_faces)


def test_six_cycle_has_two_matchings():
    g = dual_graph(hexagon(1, 1, 1))
    assert count_matchings_oracle(g) == 2
    assert count_matchings_pfaffian(g) == 2
    assert len(list(enumerate_matchings(g))) == 2


def test_box_counts():
    # plane partition counts in an a x b x c box
    assert count_tilings(hexagon(1, 1, 1)) == 2
    assert count_tilings(hexagon(1, 1, 2)) == 3
    assert count_tilings(hexagon(2, 2, 2)) == 20
    assert count_tilings(hexagon(2, 2, 4)) == 105
    assert count_tilings(hexagon(3, 3, 3)) == 980
    assert count_tilings(hexagon(4, 4, 4)) == 232848


def test_oracle_agrees_with_determinant_on_boxes():
    for a in range(1, 3):
        for b in range(1, 3):
            for c in range(1, 3):
                g = dual_graph(hexagon(a, b, c))
                if g.n <= 24:
                    assert count_matchings_oracle(g) == count_matchings_pfaffian(g)


def test_oracle_agrees_on_random_induced_subgraphs():
    rng = random.Random(7)
    g = dual_graph(hexagon(3, 3, 3))
    for _ in range(30):
        keep = rng.sample(range(g.n), rng.randrange(2, 20))
        sub = without_vertices(g, set(range(g.n)) - set(keep))
        assert count_matchings_oracle(sub) == count_matchings_pfaffian(sub)


def test_disconnected_region_counts_factor():
    assert count_tilings(holed_hexagon(2, 1, [1])) == 1
    assert count_tilings(holed_hexagon(4, 2, [1, 2])) == count_tilings(
        holed_hexagon(2, 2, [1]))


def test_odd_graph_counts_zero():
    g = dual_graph(hexagon(1, 1, 1))
    sub = without_vertices(g, {0})
    assert count_matchings_pfaffian(sub) == 0
    assert count_matchings_oracle(sub) == 0


def _mgf_reference(g):
    """The recursive search the oracle used to run: split off connected
    components, prune odd ones without a loop, branch on a vertex of
    least degree."""
    adj = {i: {} for i in range(g.n)}
    for i, j, w in g.edges:
        adj[i][j] = adj[j][i] = w
    loops = dict(g.loops)

    def rec(adj):
        if not adj:
            return Fraction(1)
        comp, stack = {min(adj)}, [min(adj)]
        while stack:
            for u in adj[stack.pop()]:
                if u not in comp:
                    comp.add(u)
                    stack.append(u)
        if len(comp) < len(adj):
            return (rec({v: adj[v] for v in comp})
                    * rec({v: nb for v, nb in adj.items() if v not in comp}))
        if len(comp) % 2 and not any(v in loops for v in comp):
            return Fraction(0)
        v = min(comp, key=lambda x: (len(adj[x]) + (x in loops), x))
        total = Fraction(0)
        for u in sorted(adj[v]):
            total += adj[v][u] * rec(
                {x: {y: wy for y, wy in nb.items() if y not in (v, u)}
                 for x, nb in adj.items() if x not in (v, u)})
        if v in loops:
            total += loops[v] * rec(
                {x: {y: wy for y, wy in nb.items() if y != v}
                 for x, nb in adj.items() if x != v})
        return total

    return rec(adj)


# even graphs with two loops: parity does not rule the loops out
TWO_LOOP_GRAPHS = (
    (MatchGraph((0, 1), (), ((0, Fraction(1)), (1, Fraction(1))), ((), ())),
     1),
    (MatchGraph((0, 1, 2, 3), ((0, 1, Fraction(1)),),
                ((2, Fraction(1)), (3, Fraction(3))), ((1,), (0,), (), ())),
     3),
)


def _free_hosts_looped(region):
    """The dual graph with a unit loop at each free-edge host: the loop
    covers its host alone, as a tile protruding across the free edge."""
    g = dual_graph(region)
    hosts = sorted(g.tags.index(c) for c in region.free_cell_map().values())
    return MatchGraph(g.tags, g.edges, tuple((v, Fraction(1)) for v in hosts),
                      g.rotations)


def _oracle_reference_graphs():
    graphs = [dual_graph(hexagon(a, b, c))
              for a, b, c in product((1, 2, 3), repeat=3) if a + b + c <= 7]
    rng = random.Random(11)
    g = dual_graph(hexagon(3, 3, 3))
    for _ in range(30):
        keep = rng.sample(range(g.n), rng.randrange(2, 24))
        graphs.append(without_vertices(g, set(range(g.n)) - set(keep)))
    for region, kind in ((hexagon(2, 2, 2), "Rot180"),
                         (hexagon(2, 2, 2), "Rot120"),
                         (hexagon(2, 2, 2), "Rot60"),
                         (hexagon(3, 3, 3), "Rot120"),
                         (hexagon(3, 3, 3), "Rot60"),
                         (hexagon(4, 4, 4), "Rot60"),
                         (holed_hexagon(2, 1, []), "Rot180"),
                         (holed_hexagon(3, 1, []), "Rot180"),
                         (holed_hexagon(3, 2, []), "Rot180"),
                         (holed_hexagon(4, 1, [2]), "Rot180")):
        graphs.append(quotient_graph(symmetry(region, kind)))
    for region in (holed_hexagon(2, 1, []), holed_hexagon(3, 1, []),
                   holed_hexagon(4, 1, [2]), holed_hexagon(4, 1, [])):
        q = quotient_graph(symmetry(region, "Rot180"))
        if q.loops:
            q, _ = remove_loop_vertex(q)
        split = factorization_split(q, symmetry(region, "ReflH"))
        graphs.append(split.subgraph)
    graphs.append(axis_pair_dual_graph(rbar_region([], [1], 1)))
    for a, b, eps in ((1, 1, -1), (1, 1, 0), (2, 1, -1), (1, 2, -1)):
        graphs.append(_free_hosts_looped(
            d_region(a, b, eps, list(range(1, a + 1)))))
    graphs += [g for g, _ in TWO_LOOP_GRAPHS]
    # two odd components, each of which must use one of its loops
    graphs.append(MatchGraph(
        (0, 1, 2, 3, 4, 5),
        ((0, 1, Fraction(1)), (1, 2, Fraction(1)), (3, 4, Fraction(1)),
         (4, 5, Fraction(1, 2))),
        ((0, Fraction(2)), (2, Fraction(1)), (5, Fraction(3))),
        ((1,), (0, 2), (1,), (4,), (3, 5), (4,))))
    return graphs


def test_oracle_matches_the_recursive_reference():
    graphs = _oracle_reference_graphs()
    values = [mgf_oracle(g) for g in graphs]
    assert values == [_mgf_reference(g) for g in graphs]
    assert all(type(v) is Fraction for v in values)
    assert values[-1] == 9 and len(graphs) == 75


def test_oracle_counts_a_hexagon_past_its_default_cap():
    # no vertex cap: only the search state cap bounds the oracle
    g = dual_graph(hexagon(4, 4, 4))
    assert count_matchings_oracle(g) == macmahon_box(4, 4, 4)
    assert mgf_oracle(g) == macmahon_box(4, 4, 4)
    g = dual_graph(hexagon(6, 6, 6))
    assert mgf_oracle(g) == macmahon_box(6, 6, 6)


def test_determinant_route_refuses_several_loops():
    for g, want in TWO_LOOP_GRAPHS:
        assert mgf_oracle(g) == want
        with pytest.raises(ContractError, match="cannot normalize 2 loops"):
            mgf(g)
        with pytest.raises(ContractError, match="cannot normalize 2 loops"):
            count_matchings(g)


def test_oracle_budget(monkeypatch):
    # the search state cap is the oracle's only budget: the hexagon that
    # counts under the default cap is refused under a small one
    g = dual_graph(hexagon(4, 4, 4))
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", 10)
    with pytest.raises(BudgetError, match="cap of 10 search states"):
        count_matchings_oracle(g)
    with pytest.raises(BudgetError, match="cap of 10 search states"):
        mgf_oracle(g)


def test_enumerate_matchings_are_perfect_and_distinct():
    g = dual_graph(hexagon(2, 2, 2))
    seen = set()
    for m in enumerate_matchings(g):
        seen.add(m)
        covered = [v for e in m for v in e]
        assert sorted(covered) == list(range(g.n))
    assert len(seen) == 20
    assert next(enumerate_matchings(g)) in seen


def test_enumerate_matchings_runs_deeper_than_the_recursion_limit():
    # 2 400 vertices: the search goes 1 200 pairs deep
    g = dual_graph(hexagon(20, 20, 20))
    m = next(enumerate_matchings(g))
    assert len(m) == g.n // 2
    assert sorted(v for e in m for v in e) == list(range(g.n))
    adj = g.rotations
    assert all(j in adj[i] for i, j in m)


def _recursive_matchings(g):
    """Reference order: match the least uncovered vertex, neighbors ascending."""
    adj = [sorted(s) for s in g.rotations]

    def rec(left, acc):
        if not left:
            yield tuple(sorted(acc))
            return
        v = min(left)
        for u in adj[v]:
            if u in left:
                acc.append((v, u))
                yield from rec(left - {v, u}, acc)
                acc.pop()

    return rec(frozenset(range(g.n)), [])


def test_enumerate_matchings_keeps_the_recursive_order():
    for region in (hexagon(1, 1, 1), hexagon(3, 2, 2), hexagon(2, 3, 1),
                   holed_hexagon(4, 1, [2]), holed_hexagon(3, 1, [1]),
                   d_region(2, 1, -1, [1, 2])):
        g = dual_graph(region)
        assert list(enumerate_matchings(g)) == list(_recursive_matchings(g))
    empty = MatchGraph((), (), (), ())
    assert list(enumerate_matchings(empty)) == [()]


def _parent_enumerate_matchings(g):
    """Reference: the enumerator before it kept a mate array, reading the
    cap and its error from counting, so a patched cap applies to it too."""
    if g.loops:
        raise ContractError("enumeration needs a loopless graph")
    n = g.n
    if n == 0:
        yield ()
        return
    adj = [sorted(rot) for rot in g.rotations]
    covered = [False] * n
    pairs = []
    stack = [[0, 0]]
    states = 1
    while stack:
        frame = stack[-1]
        v, i = frame
        if len(pairs) == len(stack):
            _, u = pairs.pop()
            covered[v] = covered[u] = False
        nbrs = adj[v]
        while i < len(nbrs) and covered[nbrs[i]]:
            i += 1
        if i == len(nbrs):
            stack.pop()
            continue
        u = nbrs[i]
        frame[1] = i + 1
        covered[v] = covered[u] = True
        pairs.append((v, u))
        w = v + 1
        while w < n and covered[w]:
            w += 1
        if w == n:
            yield tuple(pairs)
        else:
            states += 1
            if states > counting.SEARCH_STATE_CAP:
                raise counting._over_budget()
            stack.append([w, 0])


def _until_cap(matchings):
    """The matchings a search yields, and whether it then met the cap."""
    out = []
    try:
        for m in matchings:
            out.append(m)
    except BudgetError:
        return out, True
    return out, False


def _u_major_above(g):
    """The higher neighbours of each vertex in the graph's own order, as
    enumerate_matchings hands them to the enumeration core."""
    return [sorted(u for u in rot if u > v) for v, rot in enumerate(g.rotations)]


def test_enumeration_core_matches_the_parent_enumerator(monkeypatch):
    graphs = [dual_graph(hexagon(a, b, c))
              for a, b, c in product(range(1, 4), repeat=3)]
    graphs += [dual_graph(holed_hexagon(a, b, ks)) for a, b, ks in (
        (2, 1, []), (2, 1, [1]), (3, 1, [1]), (4, 1, [1]), (4, 1, [2]),
        (4, 1, [1, 2]), (3, 2, [1]))]
    graphs += [dual_graph(d_region(a, b, eps, is_)) for a, b, eps, is_ in (
        (1, 1, -1, [1]), (2, 1, -1, [1, 2]), (2, 1, 0, [2]), (3, 2, 0, [1, 2, 3]),
        (3, 1, -1, [2, 3]))]
    graphs += [MatchGraph((), (), (), ()),
               MatchGraph((0,), (), (), ((),)),
               MatchGraph((0, 1, 2), ((0, 1, Fraction(1)),), (), ((1,), (0,), ())),
               MatchGraph((0, 1, 2, 3), ((1, 2, Fraction(1)),), (),
                          ((), (2,), (1,), ()))]
    states, top = [], counting.SEARCH_STATE_CAP
    for g in graphs:
        # the least cap the reference finishes under is its state count
        lo, hi = 1, top
        while lo < hi:
            mid = (lo + hi) // 2
            monkeypatch.setattr(counting, "SEARCH_STATE_CAP", mid)
            if _until_cap(_parent_enumerate_matchings(g))[1]:
                lo = mid + 1
            else:
                hi = mid
        states.append(lo)
        for cap in sorted({lo, lo - 1, lo // 2} - {0}):
            monkeypatch.setattr(counting, "SEARCH_STATE_CAP", cap)
            want = _until_cap(_parent_enumerate_matchings(g))
            assert want[1] == (cap < lo)
            assert _until_cap(enumerate_matchings(g)) == want, (g.tags, cap)
        # the live mate array holds the partners of each yielded
        # matching, and with no groups every mask is 0
        monkeypatch.setattr(counting, "SEARCH_STATE_CAP", lo)
        for mate, pairs, mask in counting._matchings(_u_major_above(g)):
            partner = [-1] * g.n
            for v, u in pairs:
                partner[v], partner[u] = u, v
            assert mate == partner
            assert mask == 0
    # hexagon(3, 3, 3) unpruned; the filter route's entry in
    # CAP_BOUNDARIES is its search pruned by ReflV, in orbit order
    assert states[26] == 8436


def test_mgf_of_folded_bottom_half():
    g = axis_pair_dual_graph(rbar_region([], [1], 1))
    assert mgf(g) == Fraction(2)
    assert mgf_oracle(g) == Fraction(2)


def test_loop_forced_on_odd_quotient():
    r = holed_hexagon(3, 1, [])
    q = quotient_graph(symmetry(r, "Rot180"))
    assert mgf_oracle(q) == 9
    assert count_matchings(q) == 9


def test_single_loop_on_even_graph_is_dead_weight():
    # the loop is in neither the embedding nor the matrix, so the
    # determinant takes the quotient as it is, with no loopless copy
    r = hexagon(2, 2, 2)
    q = quotient_graph(symmetry(r, "Rot60"))
    assert len(q.loops) == 1 and q.n % 2 == 0
    g, factor = counting.normalize_loops(q)
    assert g is q and factor == 1
    assert count_matchings_pfaffian(q) == mgf_oracle(q) == 1
    # a forced loop, or two loops, must still be normalized first
    r = holed_hexagon(3, 1, [])
    odd = quotient_graph(symmetry(r, "Rot180"))
    assert len(odd.loops) == 1 and odd.n % 2 == 1
    for g in (odd, TWO_LOOP_GRAPHS[0][0]):
        with pytest.raises(ContractError, match="normalize loops"):
            count_matchings_pfaffian(g)


def test_central_symmetry_counts_small_hexagons():
    # side-2 holed hexagon of height b: the invariant count is (b+1)^2
    for b in (1, 2, 3):
        r = holed_hexagon(2, b, [])
        assert count_symmetric_tilings(r, ["Rot180"]) == (b + 1) ** 2
    # side-3: binomial(b+2, 2) squared; cross-checked orbit vs quotient vs
    # full-enumeration filter at b=2 (all 36)
    for b in (1, 2):
        r = holed_hexagon(3, b, [])
        want = ((b + 1) * (b + 2) // 2) ** 2
        assert count_symmetric_tilings(r, ["Rot180"]) == want
    # side-4 with the central hole pair: binomial(b+3, 3) squared
    for b in (1, 2):
        r = holed_hexagon(4, b, [2])
        want = ((b + 1) * (b + 2) * (b + 3) // 6) ** 2
        assert count_symmetric_tilings(r, ["Rot180"]) == want


def test_symmetric_count_methods_agree():
    r = hexagon(2, 2, 2)
    for kinds in ([], ["Rot180"], ["ReflV"], ["ReflH"], ["Rot120"],
                  ["Rot60"], ["Rot180", "ReflV"], ["Rot120", "ReflV"]):
        counts = {count_symmetric_tilings(r, kinds, method="orbit"),
                  count_symmetric_tilings(r, kinds, method="filter"),
                  count_symmetric_tilings(r, kinds, method="auto")}
        assert len(counts) == 1, (kinds, counts)


def test_hexagon_222_symmetry_class_anchors():
    r = hexagon(2, 2, 2)
    assert count_symmetric_tilings(r, []) == 20
    assert count_symmetric_tilings(r, ["ReflV"]) == 10
    assert count_symmetric_tilings(r, ["ReflH"]) == 2
    assert count_symmetric_tilings(r, ["Rot180"]) == 4
    assert count_symmetric_tilings(r, ["Rot180", "ReflV"]) == 2
    assert count_symmetric_tilings(r, ["Rot60"]) == 1
    assert count_symmetric_tilings(r, ["Rot60", "ReflV"]) == 1


def test_quotient_method_matches_orbit():
    for region, kinds in ((hexagon(2, 2, 2), ["Rot120"]),
                          (hexagon(2, 2, 2), ["Rot60"]),
                          (holed_hexagon(2, 1, []), ["Rot180"]),
                          (holed_hexagon(3, 1, []), ["Rot180"]),
                          (holed_hexagon(4, 1, [2]), ["Rot180"]),
                          (holed_hexagon(4, 2, [1, 2]), ["Rot180"])):
        a = count_symmetric_tilings(region, kinds, method="quotient")
        b = count_symmetric_tilings(region, kinds, method="orbit")
        assert a == b, (region.params, kinds, a, b)


def test_quotient_routes_build_no_dual_graph(monkeypatch, capsys):
    # the quotient reads the region adjacency from the element's cells,
    # so only the plain count builds (and checks) the dual graph
    original = duality.dual_graph
    calls = []

    def counted(region):
        calls.append(region)
        return original(region)

    for name, module in list(sys.modules.items()):
        if (name.partition(".")[0] == "lozlab"
                and getattr(module, "dual_graph", None) is original):
            monkeypatch.setattr(module, "dual_graph", counted)
    r = holed_hexagon(4, 1, [2])
    assert count_symmetric_tilings(r, ("Rot180",), "quotient") == \
        count_symmetric_tilings(r, ("Rot180",), "orbit")
    central_axis_split(r)
    assert cli.main(["quotient", "--family", "holed", "--a", "4", "--b", "1",
                     "--ks", "2"]) == 0
    assert calls == []
    count_tilings(r)
    assert calls == [r]


def test_symmetric_count_absent_symmetry():
    with pytest.raises(SymmetryAbsentError):
        count_symmetric_tilings(hexagon(1, 2, 1), ["ReflV"])
    with pytest.raises(SymmetryAbsentError):
        count_symmetric_tilings(hexagon(1, 1, 2), ["Rot60"])


def test_split_identity_engine_level():
    # matching count of the half-turn quotient equals
    # 2**multiplier x weighted count of the surgered graph
    for region in (holed_hexagon(2, 1, []), holed_hexagon(2, 2, []),
                   holed_hexagon(3, 1, []), holed_hexagon(4, 1, [2]),
                   holed_hexagon(4, 1, []), holed_hexagon(5, 1, [2])):
        q = quotient_graph(symmetry(region, "Rot180"))
        lhs = count_matchings(q)
        if q.loops:
            q, w = remove_loop_vertex(q)
            assert w == 1
        split = factorization_split(q, symmetry(region, "ReflH"))
        rhs = 2 ** split.multiplier_log2 * mgf(split.subgraph)
        assert lhs == rhs, (region.params, lhs, rhs)


def test_free_boundary_counts():
    assert count_tilings_free(d_region(1, 1, -1, [1])) == 2
    assert count_tilings_free(d_region(1, 1, 0, [1])) == 3


def _free_subset_sum(region):
    # the free-boundary count as a sum of Pfaffian counts, one per subset
    # of the free cells left uncovered
    g = dual_graph(region)
    hosts = [g.tags.index(c) for c in region.free_cell_map().values()]
    return sum(count_matchings(without_vertices(g, set(drop)))
               for r in range(len(hosts) + 1)
               for drop in combinations(hosts, r)
               if (g.n - r) % 2 == 0)


def test_free_boundary_search_matches_subset_sum_and_formula():
    for a in range(1, 5):
        for b in (1, 2):
            for eps in (-1, 0):
                for r in range(a + 1):
                    for is_ in combinations(range(1, a + 1), r):
                        region = d_region(a, b, eps, list(is_))
                        got = count_tilings_free(region)
                        want = d_count(a, b, eps, is_)
                        assert got == want, (a, b, eps, is_, got, want)
                        assert got == _free_subset_sum(region), (a, b, eps, is_)


def _free_host_sum(region):
    """Reference: the docstring's sum over each set T of free-edge hosts
    of the tiling count of the region less T, times the number of free
    edges at each host in T (each is a way for its host to protrude)."""
    edges_at = Counter(region.free_cell_map().values())
    total = 0
    for r in range(len(edges_at) + 1):
        for drop in combinations(edges_at, r):
            rest = Region("hand", (), tuple(c for c in region.cells
                                            if c not in drop))
            total += prod(edges_at[c] for c in drop) * count_tilings(rest)
    return total


def _random_free_region(rng):
    """hexagon(a, b, c), sides 2..4, less up to three random lozenges,
    with up to four of its boundary edges free, on the outer boundary or
    on a hole, where a cell may border two of them."""
    full = hexagon(*(rng.randint(2, 4) for _ in range(3)))
    cells = set(full.cells)
    for _ in range(rng.randint(0, 3)):
        cell = rng.choice(sorted(cells))
        partners = [d for d in cell_neighbors(cell) if d in cells]
        if partners:
            cells -= {cell, rng.choice(partners)}
    # a boundary edge borders one kept cell
    boundary = sorted(e for cell in cells for e in cell_edges(cell)
                      if not cells.issuperset(edge_cells(e)))
    free = rng.sample(boundary, rng.randint(0, min(4, len(boundary))))
    return Region("hand", (), tuple(sorted(cells)), tuple(sorted(free)))


def test_free_search_matches_the_host_sum_on_random_regions():
    rng = random.Random(20261020)
    hosts = shared = 0
    for _ in range(80):
        region = _random_free_region(rng)
        assert count_tilings_free(region) == _free_host_sum(region), region
        free = region.free_cell_map()
        hosts += len(free)
        shared += len(set(free.values())) < len(free)
    # one host with two free edges, whose moves weigh 2 in the sum
    assert (hosts, shared) == (146, 1)


def test_free_search_without_free_edges_counts_tilings():
    regions = [hexagon(a, b, c) for a, b, c in product((1, 2, 3), repeat=3)]
    regions += [holed_hexagon(a, b, ks) for a, b, ks in (
        (2, 1, []), (4, 1, [2]), (4, 2, [1, 2]), (5, 1, [1]))]
    regions += [cored_hexagon(a, b, ks, x) for a, b, ks, x in (
        (2, 1, [], 1), (3, 1, [1], 1), (3, 2, [], 2))]
    for region in regions:
        assert count_tilings_free(region) == count_tilings(region), \
            (region.family, region.params)


@pytest.mark.parametrize("identity, delta, eps", [("E3_1", 0, -1),
                                                  ("E3_9", 1, 0)])
def test_quarter_legs_tie_the_central_engines(identity, delta, eps):
    # the free sweep on the quarter d region against the Klein orbit search
    # and the Rot180 quotient determinant on the holed hexagon, with no
    # formula between them: Klein = free, Rot180 = free squared
    for row in default_grid(identity):
        a, b, ks = row["a"], row["b"], row["ks"]
        region = holed_hexagon(2 * a + delta, b, ks)
        is_ = [i for i in range(1, a + 1) if a - i + 1 not in ks]
        free = count_tilings_free(d_region(a, b, eps, is_))
        assert count_symmetric_tilings(region, ("Rot180", "ReflV"),
                                       "orbit") == free, row
        assert count_symmetric_tilings(region, ("Rot180",),
                                       "quotient") == free ** 2, row


def test_free_moves_are_the_identity_orbit_moves_and_host_moves(monkeypatch):
    # the free route lists the moves _cell_moves gives for the trivial
    # group, then one move per free edge at its host, in the same order,
    # so its sweep visits the same states
    seen = []
    monkeypatch.setattr(counting, "_sweep", seen.append)
    checked = 0
    for region in _free_move_corpus():
        count_tilings_free(region)
        identity = [range(len(region.cells))]
        want = counting._cell_moves(region, identity)
        orbit_of = _orbit_numbers(len(region.cells), identity)
        for host in region.free_cell_map().values():
            k = region.cells.index(host)
            want[k].append((_bucket_relative(orbit_of, 1 << k), 1))
        assert seen.pop() == want, region.params
        checked += 1
    assert checked == 336


def _free_move_corpus():
    """Two seeded hole sets of d_region(a, b, eps) per size r, or every
    set where there are fewer, for a <= 6 and b <= 4."""
    rng = random.Random(20261021)
    for a, b, eps in product(range(1, 7), range(1, 5), (-1, 0)):
        for r in range(a + 1):
            sets = list(combinations(range(1, a + 1), r))
            for is_ in rng.sample(sets, min(2, len(sets))):
                yield d_region(a, b, eps, list(is_))


def test_orbit_search_matches_filter_and_quotient_on_holed_hexagons():
    for a, b, ks in ((2, 1, []), (2, 2, []), (3, 1, []), (3, 2, []),
                     (4, 1, [2]), (4, 1, [1, 2]), (5, 1, [2])):
        region = holed_hexagon(a, b, ks)
        for kinds in (["Rot180"], ["ReflV"], ["ReflH"], ["Rot180", "ReflV"]):
            orbit = count_symmetric_tilings(region, kinds, method="orbit")
            filtered = count_symmetric_tilings(region, kinds, method="filter")
            assert orbit == filtered, (a, b, ks, kinds)
        assert count_symmetric_tilings(region, ["Rot180"], method="orbit") == \
            count_symmetric_tilings(region, ["Rot180"], method="quotient")


# the nine groups every route is pinned on; Rot120 with Rot180 is the
# Rot60 group, whose quotient is taken by a rotation it does not name
CROSS_GROUPS = (("Rot180",), ("Rot120",), ("Rot60",), ("ReflH",), ("ReflV",),
                ("Rot180", "ReflH"), ("Rot120", "ReflV"), ("Rot60", "ReflH"),
                ("Rot120", "Rot180"))
# the filter still walks every partial tiling the group may fix; past this
# one region can take a second (holed_hexagon(5, 2, []) under ReflV)
CROSS_FILTER_CELLS = 60


def _cross_cases():
    """(region, kinds, group) for every CROSS_GROUPS group a region has."""
    regions = [hexagon(a, b, c) for a, b, c in product(range(1, 5), repeat=3)]
    regions += [holed_hexagon(a, b, ks) for a in range(2, 6) for b in (1, 2)
                for ks in ([], [1], [2], [1, 2]) if not ks or 2 * ks[-1] <= a]
    regions += [cored_hexagon(a, b, ks, 1) for a in (2, 3) for b in (1, 2)
                for ks in ([], [1])]
    for region in regions:
        for kinds in CROSS_GROUPS:
            try:
                group = symmetry_group(region, kinds)
            except SymmetryAbsentError:
                continue
            yield region, kinds, group


def test_orbit_quotient_and_filter_agree_on_every_group():
    routes = {"orbit": 0, "quotient": 0, "filter": 0}
    for region, kinds, _ in _cross_cases():
        counts = {"orbit": count_symmetric_tilings(region, kinds, "orbit")}
        if not any(k.startswith("Refl") for k in kinds):
            counts["quotient"] = count_symmetric_tilings(region, kinds,
                                                         "quotient")
        if len(region.cells) <= CROSS_FILTER_CELLS:
            counts["filter"] = count_symmetric_tilings(region, kinds,
                                                       "filter")
        assert len(set(counts.values())) == 1, \
            (region.family, region.params, kinds, counts)
        for route in counts:
            routes[route] += 1
    assert routes == {"orbit": 270, "quotient": 114, "filter": 162}



def _rot120_counts(region):
    methods = ["quotient", "orbit"]
    if len(region.cells) <= CROSS_FILTER_CELLS:
        methods.append("filter")
    return [count_symmetric_tilings(region, ["Rot120"], method)
            for method in methods]


def _off_box_center(region):
    """Whether the center of the region's corner box, columns min u ..
    max u + 1 and rows min v - 1 .. max v + 1, is not its cells'
    centroid, the one point a Rot120-invariant region turns about."""
    us, vs = [c.u for c in region.cells], [c.v for c in region.cells]
    n = len(region.cells)
    centroid = (Fraction(sum(3 * c.u + (1 if c.orient == "U" else 2)
                             for c in region.cells), n),
                Fraction(3 * sum(vs), n))
    box = (Fraction(3 * (min(us) + max(us) + 1), 2),
           Fraction(3 * (min(vs) + max(vs)), 2))
    return box != centroid


def test_rot120_off_the_box_center_is_taken_about_the_centroid():
    # hexagon(2, 2, 2) less the Rot120 orbit of one lozenge: the turn's
    # center is the cell centroid, (12, -12) in doubled tripled
    # coordinates, not the center of the corner box
    drop = {(0, -4, "D"), (0, -3, "U"), (1, 1, "D"), (2, 1, "U"),
            (3, -4, "U"), (3, -3, "D")}
    region = Region("hand", (), tuple(c for c in hexagon(2, 2, 2).cells
                                      if tuple(c) not in drop))
    assert len(region.cells) == 18 and count_tilings(region) == 9
    assert _off_box_center(region)
    assert _rot120_counts(region) == [3, 3, 3]
    # the centroid is a lattice point, so a sixth turn is tried about it
    with pytest.raises(SymmetryAbsentError,
                       match="^Rot60 does not map the region to itself"):
        symmetry(region, "Rot60")


def test_rot120_invariant_regions_are_counted_by_every_route():
    rng = random.Random(20261022)
    off_centre = filtered = 0
    for _ in range(120):
        full = hexagon(*[rng.randint(2, 4)] * 3)
        region = less_lozenge_orbits(rng, full,
                                     symmetry_group(full, ["Rot120"]), 2)
        off_centre += _off_box_center(region)
        elem = symmetry(region, "Rot120")
        assert elem.perm != tuple(range(len(region.cells)))
        assert all(elem.perm[elem.perm[elem.perm[k]]] == k
                   for k in range(len(region.cells)))
        counts = _rot120_counts(region)
        assert len(set(counts)) == 1, (region.cells, counts)
        filtered += len(counts) == 3
    # about a sixth sit off their corner box's center
    assert (off_centre, filtered) == (21, 83)

def _set_fixing_masks(region, groups):
    """Reference: each tiling of the unpruned enumeration with the mask
    of the groups that fix it, bit k for groups[k], every element, the
    identity too, checked against a set of the tiling's pairs."""
    g = dual_graph(region)
    perms = [[[g.tags.index(m[c]) for c in g.tags] for m in map(mapping, group)]
             for group in groups]
    out = []
    for matching in enumerate_matchings(g):
        mset = set(matching)
        mask = 0
        for k, ps in enumerate(perms):
            if all(((p[i], p[j]) if p[i] < p[j] else (p[j], p[i])) in mset
                   for p in ps for i, j in matching):
                mask |= 1 << k
        out.append((matching, mask))
    return out


def _set_filter_count(region, group):
    """Reference: how many tilings the set check finds fixed by group."""
    return sum(mask for _, mask in _set_fixing_masks(region, [group]))


def _mirror_partner(kinds):
    """kinds with ReflV and ReflH swapped; kinds without a reflection
    gain ReflH."""
    swap = {"ReflV": "ReflH", "ReflH": "ReflV"}
    partner = tuple(swap.get(k, k) for k in kinds)
    return partner if partner != kinds else kinds + ("ReflH",)


def test_filter_matches_the_set_reference():
    checked = paired = 0
    for region, kinds, group in _cross_cases():
        if len(region.cells) > CROSS_FILTER_CELLS:
            continue
        want = _set_filter_count(region, group)
        assert counting._filter_count(region, [group]) == [want], \
            (region.params, group)
        checked += 1
        try:
            partner = symmetry_group(region, _mirror_partner(kinds))
        except SymmetryAbsentError:
            continue
        # one enumeration, one count per group
        assert counting._filter_count(region, [group, partner]) == \
            [want, _set_filter_count(region, partner)], (region.params, kinds)
        paired += 1
    assert checked == 162
    assert paired == 120


def _with_partner(region, kinds, group):
    """group and, where the region has it, its mirror partner's group."""
    try:
        return [group, symmetry_group(region, _mirror_partner(kinds))]
    except SymmetryAbsentError:
        return [group]


def test_pruned_search_yields_exactly_the_fixed_tilings():
    # the filter's search, with a group and its mirror partner, keeps
    # each tiling some group fixes, in the unpruned order and with the
    # reference's mask, and drops every other tiling
    checked = 0
    for region, kinds, group in _cross_cases():
        if len(region.cells) > CROSS_FILTER_CELLS:
            continue
        groups = _with_partner(region, kinds, group)
        want = [(m, mask) for m, mask in _set_fixing_masks(region, groups)
                if mask]
        perms = [[e.perm for e in grp[1:]] for grp in groups]
        got = [(tuple(pairs), mask) for _, pairs, mask
               in counting._matchings(_u_major_above(dual_graph(region)),
                                      perms)]
        assert got == want, (region.params, kinds)
        checked += 1
    assert checked == 162


def _orbit_order(region, groups):
    """Reference: the cell indices sorted by the least cell of their
    orbit under every element of every group, read from the cell maps,
    then by cell."""
    maps = [mapping(e) for group in groups for e in group]
    least = {}
    for k, c in enumerate(region.cells):
        if c in least:
            continue
        orbit, more = set(), {c}
        while more:
            orbit |= more
            more = {m[d] for m in maps for d in more} - orbit
        for d in orbit:
            least[d] = k
    return sorted(range(len(region.cells)),
                  key=lambda k: (least[region.cells[k]], k))


def test_orbit_order_search_yields_exactly_the_fixed_tilings(monkeypatch):
    # the filter's own search runs in orbit order; its yields, mapped
    # back to cell indices, are exactly the tilings some group fixes,
    # each with the reference's mask
    seen = []
    matchings = counting._matchings

    def recorded(above, groups=()):
        for mate, pairs, mask in matchings(above, groups):
            seen.append((tuple(pairs), mask))
            yield mate, pairs, mask

    monkeypatch.setattr(counting, "_matchings", recorded)
    checked = reordered = 0
    for region, kinds, group in _cross_cases():
        if len(region.cells) > CROSS_FILTER_CELLS:
            continue
        groups = _with_partner(region, kinds, group)
        want = {(frozenset(m), mask)
                for m, mask in _set_fixing_masks(region, groups) if mask}
        seen.clear()
        counting._filter_count(region, groups)
        order = _orbit_order(region, groups)
        got = {(frozenset(tuple(sorted((order[v], order[u])))
                          for v, u in pairs), mask) for pairs, mask in seen}
        assert len(got) == len(seen) and got == want, (region.params, kinds)
        checked += 1
        reordered += order != sorted(order)
    assert (checked, reordered) == (162, 158)


def _every_cell_moves(region, maps):
    """Reference: each orbit move filed at every cell of the orbit, once
    per edge of the orbit at that cell, with the copies the sweep never
    takes."""
    index = {c: k for k, c in enumerate(region.cells)}
    moves = [[] for _ in region.cells]
    for c, k in index.items():
        for d in cell_neighbors(c):
            if d not in index:
                continue
            pairs = {frozenset((m[c], m[d])) for m in maps}
            cells = set().union(*pairs)
            if len(cells) == 2 * len(pairs):
                moves[k].append((sum(1 << index[x] for x in cells), 1))
    return moves


def _orbit_numbers(n, perms):
    """Each cell's orbit under the permutations, the orbits numbered in
    the order of their least cells."""
    orbit_of = [-1] * n
    count = 0
    for k in range(n):
        if orbit_of[k] < 0:
            for p in perms:
                orbit_of[p[k]] = count
            count += 1
    return orbit_of


def _bucket_relative(orbit_of, mask):
    """A cell mask as the sweep takes it: one bit per orbit it meets,
    shifted down to its least orbit, the bucket it is filed at."""
    bits = 0
    for k in range(mask.bit_length()):
        if mask >> k & 1:
            bits |= 1 << orbit_of[k]
    return bits >> (bits & -bits).bit_length() - 1


def test_cell_moves_are_the_reference_moves_that_can_fire():
    # a move can fire only from the bucket of its least cell, the least
    # cell of its least orbit; the reference's cell masks are mapped
    # to orbit masks relative to that orbit
    cases = [(region, group) for region, _, group in _cross_cases()]
    cases += [(r, [identity_element(r)]) for r in (
        d_region(3, 2, 0, [1, 2, 3]), d_region(4, 2, -1, [1, 3]))]
    dead = 0
    for region, group in cases:
        perms = [e.perm for e in group]
        new = counting._cell_moves(region, perms)
        old = _every_cell_moves(region, [mapping(e) for e in group])
        orbit_of = _orbit_numbers(len(region.cells), perms)
        at = [[] for _ in new]
        for p, want in enumerate(old):
            live = [m for m in want if m[0] & -m[0] == 1 << p]
            at[orbit_of[p]] += [(_bucket_relative(orbit_of, m), w)
                                for m, w in live]
            dead += len(want) - len(live)
        for o, (got, want) in enumerate(zip(new, at)):
            assert sorted(got) == sorted(want), (region.params, o)
    assert dead > 0


def _reference_sweep(moves):
    """The sweep on absolute masks, one bit per cell: each state the
    bitmask of the items left, waiting in the bucket of its least item.
    Returns the count and the number of states it visits."""
    n = len(moves)
    waiting = [{} for _ in range(n + 1)]
    waiting[0][(1 << n) - 1] = 1
    states = 1
    for p in range(n):
        for left, ways in waiting[p].items():
            for m, w in moves[p]:
                if left & m != m:
                    continue
                rest = left ^ m
                bucket = waiting[(rest & -rest).bit_length() - 1 if rest else n]
                if rest not in bucket:
                    bucket[rest] = 0
                    states += 1
                bucket[rest] += ways * w
        waiting[p] = {}
    return waiting[n].get(0, 0), states


def _same_count_and_states(monkeypatch, count, want):
    """count() gives want[0] under a cap of want[1] states, and meets
    the cap one state below it; the cap is checked as a state is added,
    so a search that adds none never meets it."""
    value, states = want
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", states)
    assert count() == value
    if states > 1:
        monkeypatch.setattr(counting, "SEARCH_STATE_CAP", states - 1)
        with pytest.raises(BudgetError):
            count()


def test_bucket_relative_sweep_visits_the_reference_states(monkeypatch):
    # each state of the reference maps to one bucket-relative key, so
    # every route keeps its count and its state count
    runs = 0
    for region, kinds, group in _cross_cases():
        moves = _every_cell_moves(region, [mapping(e) for e in group])
        _same_count_and_states(
            monkeypatch,
            lambda: count_symmetric_tilings(region, kinds, "orbit"),
            _reference_sweep(moves))
        runs += 1
    for region in _free_move_corpus():
        moves = _every_cell_moves(region, [{c: c for c in region.cells}])
        for host in region.free_cell_map().values():
            k = region.cells.index(host)
            moves[k].append((1 << k, 1))
        _same_count_and_states(monkeypatch,
                               lambda: count_tilings_free(region),
                               _reference_sweep(moves))
        runs += 1
    for g in _oracle_reference_graphs()[::5]:
        moves = [[] for _ in range(g.n)]
        for i, j, w in g.edges:
            moves[i].append((1 << i | 1 << j, w))
        for v, w in g.loops:
            moves[v].append((1 << v, w))
        _same_count_and_states(monkeypatch, lambda: mgf_oracle(g),
                               _reference_sweep(moves))
        runs += 1
    assert runs == 270 + 336 + 15


# the exact state counts of one search per route: each passes at its
# count and meets the cap one below it, so a change that keeps these
# moves no input across SEARCH_STATE_CAP
CAP_BOUNDARIES = {
    "orbit": (lambda: count_symmetric_tilings(holed_hexagon(4, 2, [2]),
                                              ["Rot180"], "orbit"), 332, 100),
    "filter": (lambda: count_symmetric_tilings(hexagon(3, 3, 3), ["ReflV"],
                                               "filter"), 721, 112),
    "free": (lambda: count_tilings_free(d_region(3, 2, 0, [1, 2, 3])),
             140, 490),
}


@pytest.mark.parametrize("route", sorted(CAP_BOUNDARIES))
def test_search_routes_meet_the_cap_at_pinned_state_counts(monkeypatch, route):
    count, states, want = CAP_BOUNDARIES[route]
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", states)
    assert count() == want
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", states - 1)
    with pytest.raises(BudgetError, match="cap of %d search" % (states - 1)):
        count()


def test_rot60_on_odd_hexagons_counts_zero():
    # the quotient has an odd vertex count and its only loop is an edge
    # orbit around the center that no symmetric tiling can use
    for n in (1, 3, 5):
        r = hexagon(n, n, n)
        q = quotient_graph(symmetry(r, "Rot60"))
        assert q.n == n * n and not q.loops
        assert count_symmetric_tilings(r, ["Rot60"], "quotient") == 0
        assert count_symmetric_tilings(r, ["Rot60"], "orbit") == 0


def test_cell_search_state_cap(monkeypatch):
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", 10)
    with pytest.raises(BudgetError):
        count_tilings_free(d_region(3, 2, 0, [1, 2, 3]))
    with pytest.raises(BudgetError):
        count_symmetric_tilings(holed_hexagon(4, 2, [2]), ["Rot180"],
                                method="orbit")
    # the oracle runs the same search: 2 400 vertices meet the state cap,
    # not the recursion limit
    with pytest.raises(BudgetError):
        mgf_oracle(dual_graph(hexagon(20, 20, 20)))
    # the enumerator counts partial matchings against the same cap
    with pytest.raises(BudgetError, match="cap of 10 search states"):
        list(enumerate_matchings(dual_graph(hexagon(2, 2, 2))))


def test_search_counts_on_cells_are_ints():
    # weight-1 moves keep the counts exact ints, as CSV and JSON print them
    assert type(count_tilings_free(d_region(2, 1, 0, [1, 2]))) is int
    assert type(count_symmetric_tilings(hexagon(2, 2, 2), ["Rot180"],
                                        "orbit")) is int


def test_deep_free_region_hits_state_cap_not_recursion():
    # 590 cells: deeper than a recursive search could go, and past the cap
    with pytest.raises(BudgetError):
        count_tilings_free(d_region(10, 10, -1, list(range(1, 11))))


def test_free_boundary_gadget_cross_check():
    for a, b, eps in ((1, 1, -1), (1, 2, -1), (2, 1, -1), (1, 1, 0),
                      (2, 1, 0), (1, 2, 0)):
        full = tuple(range(1, a + 1))
        r = d_region(a, b, eps, full)
        direct = count_tilings_free(r)
        via_gadget = mgf_oracle(_free_hosts_looped(r))
        # both run the one search engine, on cells and on the looped dual
        # graph, so the closed form is the leg that shares no code with them
        want = d_count(a, b, eps, full)
        assert direct == via_gadget == want, (a, b, eps, direct, via_gadget)


def test_count_matchings_rejects_weighted():
    g = axis_pair_dual_graph(rbar_region([], [1], 1))
    val = mgf(g)
    assert val == 2
    with pytest.raises(ContractError):
        count_matchings_oracle(g)
    with pytest.raises(ContractError):
        count_matchings_pfaffian(_free_hosts_looped(d_region(1, 1, -1, [1])))


def test_count_matchings_rejects_non_integer_count():
    g = MatchGraph((0, 1), ((0, 1, Fraction(1, 2)),), (), ((1,), (0,)))
    assert mgf(g) == Fraction(1, 2)
    with pytest.raises(ContractError):
        count_matchings(g)


def test_oracle_count_rejects_non_integer_value(monkeypatch):
    monkeypatch.setattr(counting, "mgf_oracle",
                        lambda g, **kw: Fraction(3, 2))
    with pytest.raises(ContractError):
        count_matchings_oracle(dual_graph(hexagon(1, 1, 1)))


@pytest.mark.parametrize("det", [-4, 2])
def test_skew_determinant_must_be_a_square(monkeypatch, det):
    r = hexagon(2, 2, 2)
    q = quotient_graph(symmetry(r, "Rot60"))
    assert count_matchings(q) == 1
    monkeypatch.setattr(counting, "_det_exact", lambda rows, n: det)
    with pytest.raises(ContractError):
        count_matchings(q)


def _disjoint_union(graphs, rng):
    # loopless parts; integer tags, each part's vertices shifted past the
    # parts before it, then shuffled, so that no part keeps the vertex
    # order it was built in
    label = list(range(sum(g.n for g in graphs)))
    rng.shuffle(label)
    edges, rotations, base = [], [None] * len(label), 0
    for g in graphs:
        edges += [(*sorted((label[i + base], label[j + base])), w)
                  for i, j, w in g.edges]
        for v, rot in enumerate(g.rotations):
            rotations[label[v + base]] = tuple(label[u + base] for u in rot)
        base += g.n
    return MatchGraph(tuple(range(base)), tuple(sorted(edges)), (),
                      tuple(rotations))


def test_one_determinant_counts_a_graph_with_mixed_components(monkeypatch):
    bip = dual_graph(hexagon(1, 1, 2))
    r = hexagon(2, 2, 2)
    quo = quotient_graph(symmetry(r, "Rot180"))
    assert bip.walk[1] is not None
    assert quo.walk[1] is None and not quo.loops
    parts = count_matchings_pfaffian(bip) * count_matchings_pfaffian(quo)
    assert parts == mgf_oracle(bip) * mgf_oracle(quo) == 3 * 4
    calls = _record_cores(monkeypatch)
    rng = random.Random(13)
    for g in (_disjoint_union((bip, quo), rng),
              _disjoint_union((quo, bip), rng)):
        assert set(g.walk[0]) == {0, 1} and g.walk[1] is None
        calls.clear()
        assert count_matchings_pfaffian(g) == parts == mgf_oracle(g)
        # one determinant: at most one Bareiss elimination, of the core
        # its integer phase leaves
        assert len(calls) <= 1
    # each path's colour classes are 2 and 1, but the second path's least
    # vertex is its middle one, so the two classes balance in total
    paths = MatchGraph(tuple(range(6)),
                       tuple((i, j, Fraction(1))
                             for i, j in ((0, 1), (1, 2), (3, 4), (3, 5))),
                       (), ((1,), (0, 2), (1,), (4, 5), (3,), (3,)))
    _, color = paths.walk
    assert color.count(0) == color.count(1) == 3
    calls.clear()
    assert count_matchings_pfaffian(paths) == 0 == mgf_oracle(paths)
    assert len(calls) <= 1


# references: the two walks that MatchGraph.walk replaced, the component
# sets MatchGraph.components built and counting._two_color's colouring


def _components_reference(g):
    seen = [False] * g.n
    out = []
    for start in range(g.n):
        if seen[start]:
            continue
        seen[start] = True
        comp = [start]
        for v in comp:  # comp grows as it is walked
            for m in g.rotations[v]:
                if not seen[m]:
                    seen[m] = True
                    comp.append(m)
        out.append(frozenset(comp))
    return tuple(out)


def _two_color_reference(g):
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in g.rotations[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def _walk_corpus():
    graphs = _oracle_reference_graphs()
    graphs += [dual_graph(r) for r in corpus_regions()]
    graphs += [quotient_graph(elem) for elem in corpus_rotations()]
    for region in _split_cases():
        for split in (lambda: central_axis_split(region)[0],
                      lambda: factorization_split(
                          dual_graph(region), symmetry(region, "ReflH"))):
            try:
                graphs.append(split().subgraph)
            except (ContractError, SymmetryAbsentError):
                pass
    one = Fraction(1)
    graphs += [
        MatchGraph((), (), (), ()),
        MatchGraph((0, 1, 2), (), (), ((),) * 3),
        # a triangle beside a path, and a path beside a triangle
        MatchGraph(tuple(range(5)),
                   ((0, 1, one), (0, 2, one), (1, 2, one), (3, 4, one)), (),
                   ((1, 2), (2, 0), (0, 1), (4,), (3,))),
        MatchGraph(tuple(range(6)),
                   ((0, 1, one), (2, 3, one), (2, 4, one), (3, 4, one)), (),
                   ((1,), (0,), (3, 4), (4, 2), (2, 3), ())),
    ]
    return graphs


def test_walk_numbers_and_colours_as_the_two_walks_did():
    seen = {"graphs": 0, "disconnected": 0, "odd": 0, "both": 0}
    for g in _walk_corpus():
        component, color = g.walk
        count = max(component, default=-1) + 1
        parts = tuple(frozenset(v for v in range(g.n) if component[v] == k)
                      for k in range(count))
        assert parts == _components_reference(g), g.tags[:3]
        reference = _two_color_reference(g)
        assert color == (None if reference is None else tuple(reference))
        seen["graphs"] += 1
        seen["disconnected"] += count > 1
        seen["odd"] += color is None
        seen["both"] += count > 1 and color is None
    assert seen == {"graphs": 1019, "disconnected": 168, "odd": 347,
                    "both": 2}


def _even_faces(g):
    """For each component of g, the number of its faces, traced on tuple
    darts, with an even number of edges oriented along the trace."""
    orient = counting._kasteleyn_orientation(g)
    forward = {(i, j) if o else (j, i) for (i, j, _), o in zip(g.edges, orient)}
    component, _ = g.walk
    even = [0] * len(set(component))
    for cycle in traced_faces(g):
        if sum(d in forward for d in cycle) % 2 == 0:
            even[component[cycle[0][0]]] += 1
    return even


def test_kasteleyn_orientation_leaves_one_even_face_per_component():
    graphs = [planar_k4()] + [dual_graph(r) for r in corpus_regions()]
    graphs += [quotient_graph(elem) for elem in corpus_rotations()]
    assert len(graphs) == 1 + 358 + 374
    for g in graphs:
        assert max(_even_faces(g), default=0) <= 1, g.tags[:3]


# ---------------------------------------------------------------------
# the exact determinant: the +-1 integer phase and the Bareiss core


def _fraction_det(m):
    # Gaussian elimination over the rationals, the reference: it divides
    # each pivot row by its pivot in Fractions and shares no step with
    # the engine's integer phase or its fraction-free core
    m = [[Fraction(v) for v in row] for row in m]
    n = len(m)
    det = Fraction(1)
    for k in range(n):
        i = next((i for i in range(k, n) if m[i][k]), None)
        if i is None:
            return 0
        if i != k:
            m[k], m[i] = m[i], m[k]
            det = -det
        det *= m[k][k]
        top = [v / m[k][k] for v in m[k]]
        for r in range(k + 1, n):
            f = m[r][k]
            m[r] = [v - f * t for v, t in zip(m[r], top)]
    return int(det)


def _det_exact(m):
    return counting._det_exact(
        [{j: v for j, v in enumerate(row) if v} for row in m], len(m))


def _sylvester(k):
    h = [[1]]
    for _ in range(k):
        h = [row + row for row in h] + [row + [-v for v in row] for row in h]
    return h


def test_det_exact_edge_cases():
    assert _det_exact([]) == 1
    assert _det_exact([[-7]]) == -7
    assert _det_exact([[0]]) == 0
    assert _det_exact([[1, 2], [2, 4]]) == 0                   # singular
    assert _det_exact([[1, 2, 3], [0, 0, 0], [4, 5, 6]]) == 0  # zero row
    assert _det_exact([[0, 1], [1, 0]]) == -1                  # row swap
    assert _det_exact([[0, 0, 2], [0, 3, 0], [5, 0, 0]]) == -30
    # a one-entry core wider than a machine word, alone and after a
    # pivot on another row
    big = (1 << 61) - 2
    assert _det_exact([[big]]) == big
    assert _det_exact([[0, -big], [1, 0]]) == big
    # all core: |det| equals the Hadamard bound, the most any matrix
    # with these rows can reach, and every entry is scaled by 2**40
    for k in (2, 3):
        h = _sylvester(k)
        n = len(h)
        big = [[v << 40 for v in row] for row in h]
        flipped = [[-v for v in big[0]]] + big[1:]
        want = _fraction_det(big)
        assert abs(want) == n ** (n // 2) << (40 * n)
        assert _det_exact(big) == want
        assert _det_exact(flipped) == -want


@pytest.mark.parametrize("m, det", [
    # a wrong divisor: the update at the second step divides by the
    # first pivot, 2, and the third step's by the second, 2*13 - 3*11
    ([[2, 3, 5], [11, 13, 17], [19, 23, 29]], 14),
    ([[2, 3, 5, 7], [11, 13, 17, 19], [23, 29, 31, 37], [41, 43, 47, 53]],
     880),
    # a zero first pivot swaps in row 1, and the sign flips
    ([[0, 2], [3, 4]], -6),
    ([[0, 2, 3], [5, 7, 11], [13, 17, 19]], 78),
    # row 1 has no entry in the column either, so the swap takes row 2
    ([[0, 2, 3], [0, 5, 7], [2, 11, 13]], -2),
    # a zero pivot that the first update leaves, with a zero below it,
    # so the swap takes row 3
    ([[2, 4, 6, 3], [3, 6, 2, 5], [4, 8, 3, 7], [5, 3, 7, 2]], 35),
])
def test_bareiss_core_pivots_and_swaps(monkeypatch, m, det):
    # no entry is +-1, so the whole matrix is core
    assert _fraction_det(m) == det
    assert counting._bareiss([row[:] for row in m]) == det
    cores = _record_cores(monkeypatch)
    assert _det_exact(m) == det
    assert cores == [m]


def test_bareiss_core_with_a_zero_column(monkeypatch):
    # a zero column met at the first step, and one met after it, with a
    # step left past it
    assert counting._bareiss([[0, 2, 3], [0, 5, 7], [0, 11, 13]]) == 0
    assert counting._bareiss([[2, 0, 3, 5], [4, 0, 5, 7], [6, 0, 7, 11],
                              [8, 0, 9, 13]]) == 0
    # the integer phase refuses a column empty at its turn, so a core
    # meets one only when an update empties a deferred column: columns 0
    # and 2 have no +-1 entry and defer, column 1 pivots on row 0, which
    # empties column 0 in row 1, and the core of rows 1 and 2 has a zero
    # column but no zero row
    cores = _record_cores(monkeypatch)
    assert _det_exact([[2, 1, 0], [4, 2, 3], [0, 0, 5]]) == 0
    assert cores == [[[0, 3], [0, 5]]]


def _record_cores(monkeypatch):
    # each dense core the integer phase leaves, copied as _bareiss takes
    # it
    cores = []
    bareiss = counting._bareiss

    def recorded(m):
        cores.append([row[:] for row in m])
        return bareiss(m)

    monkeypatch.setattr(counting, "_bareiss", recorded)
    return cores


def _looped_quotient():
    # the Rot180 quotient of hexagon(2, 2, 1) is even and keeps its loop
    g = quotient_graph(symmetry(hexagon(2, 2, 1), "Rot180"))
    assert g.loops
    return g


@pytest.mark.parametrize("call, fragment", [
    (lambda: count_symmetric_tilings(hexagon(2, 2, 2), ["ReflH"], "quotient"),
     "quotient counting needs a rotation group"),
    (lambda: count_symmetric_tilings(hexagon(2, 2, 2), ["Rot180"], "guess"),
     "unknown method 'guess'"),
    (lambda: list(enumerate_matchings(_looped_quotient())),
     "enumeration needs a loopless graph"),
    (lambda: count_matchings_oracle(_looped_quotient()),
     "oracle counts need a loopless graph"),
])
def test_counting_routines_refuse_what_they_cannot_count(call, fragment):
    with pytest.raises(ContractError, match=fragment):
        call()


def test_one_elimination_per_determinant(monkeypatch):
    cores = _record_cores(monkeypatch)
    assert count_tilings(hexagon(8, 8, 8)) == macmahon_box(8, 8, 8)
    # the integer phase leaves an 8-column core of the 192-column matrix,
    # eliminated once
    [core] = cores
    assert len(core) == 8 and all(len(row) == 8 for row in core)


def test_det_exact_phases_against_bareiss(monkeypatch):
    cores = _record_cores(monkeypatch)

    def det_and_cores(m):
        cores.clear()
        got = _det_exact(m)
        assert got == _fraction_det(m), m
        return got, [len(core) for core in cores]

    # every column finds a +-1 pivot, so the integer phase finishes alone;
    # row 1 pivots column 0, and the pairing is odd
    assert det_and_cores([[0, 1, 0, -2], [1, 2, 2, -1], [2, 2, 0, 3],
                          [1, 0, 1, 3]]) == (-1, [])
    # no +-1 entry: all core
    assert det_and_cores([[2, 3], [5, 7]]) == (-1, [2])
    # columns 0 and 3 pivot on rows 3 and 0, columns 1 and 2 defer, and
    # their core pairs them with rows 1 and 2
    assert det_and_cores([[0, 2, 3, 1], [2, 1, 0, 4], [3, 0, 2, 5],
                          [1, 4, 5, 3]]) == (13, [2])
    # column 0 pivots on row 0, and the core [[-4, -8], [-4, -8]] of
    # columns 1 and 2 is singular
    assert det_and_cores([[1, 2, 4], [3, 2, 4], [5, 6, 12]]) == (0, [2])
    # column 1 empties before its turn: the pivot on row 0 cancels row
    # 1's entry there, and row 2 has none
    assert det_and_cores([[1, 1, 5], [1, 1, 7], [0, 0, 3]]) == (0, [])
    # deferred column 0 empties once column 1 pivots on row 0, so the
    # core is one zero row, found before any Bareiss elimination
    assert det_and_cores([[2, 1], [4, 2]]) == (0, [])


def test_hexagon_cores_stay_small(monkeypatch):
    # the integer phase leaves a core of at most n columns of the
    # Kasteleyn matrix of hexagon(n, n, n); by Sylvester's identity each
    # core entry is +- a minor, so within the matrix's Hadamard bound
    cores = _record_cores(monkeypatch)
    matrices = []
    det_exact = counting._det_exact

    def recorded(rows, n):
        # the order and the squared Hadamard bound of the whole matrix
        matrices.append((n, prod(sum(v * v for v in r.values())
                                 for r in rows)))
        return det_exact(rows, n)

    monkeypatch.setattr(counting, "_det_exact", recorded)
    for n in range(4, 13):
        cores.clear()
        matrices.clear()
        assert count_tilings(hexagon(n, n, n)) == macmahon_box(n, n, n)
        [(order, bound)] = matrices
        [core] = cores
        assert order == 3 * n * n and 0 < len(core) <= n
        assert all(v * v <= bound for row in core for v in row), n


def test_det_exact_matches_bareiss_on_random_matrices(monkeypatch):
    cores = _record_cores(monkeypatch)
    rng = random.Random(20261018)
    wide = negative = 0
    # trials that end in the integer phase, that leave it a core, and
    # that are all core
    phases = Counter()
    for trial in range(300):
        n = rng.randrange(1, 13)
        span = rng.choice((1, 3, 1000, 1 << 70))
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[rng.randint(-span, span) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)]
        if trial % 7 == 0 and n > 1:
            m[rng.randrange(n)] = list(m[rng.randrange(n)])  # likely singular
        want = _fraction_det(m)
        cores.clear()
        assert _det_exact(m) == want, (m, want)
        wide += abs(want) >= 1 << 64
        negative += want < 0
        phases["integer" if not cores else
               "all core" if len(cores[0]) == n else "core"] += 1
    assert wide > 20 and negative > 50
    assert phases == {"integer": 139, "core": 58, "all core": 103}


# ---------------------------------------------------------------------
# per-vertex weight scaling


def _global_lcm_count(g):
    """The count under the rule per-vertex scaling replaced: every
    vertex scaled by the lcm L of all the graph's denominators, the
    biadjacency matrix on its rows and the skew one on both sides, and
    the scales divided back out."""
    orient = counting._kasteleyn_orientation(g)
    big = lcm(*[w.denominator for _, _, w in g.edges])
    _, color = g.walk
    if color is not None:
        us = [v for v in range(g.n) if color[v] == 0]
        ds = [v for v in range(g.n) if color[v] == 1]
        scale = [big if c == 0 else 1 for c in color]
        row_of, col_of = [-1] * g.n, [-1] * g.n
        for k, v in enumerate(us):
            row_of[v] = k
        for k, v in enumerate(ds):
            col_of[v] = k
        rows = counting._kasteleyn_rows(g.edges, orient, scale,
                                        row_of, col_of, len(us))
        return Fraction(abs(counting._det_exact(rows, len(us))),
                        big ** len(us))
    loc = list(range(g.n))
    rows = counting._kasteleyn_rows(g.edges, orient, [big] * g.n, loc, loc,
                                    g.n)
    return Fraction(isqrt(counting._det_exact(rows, g.n)), big ** g.n)


def test_axis_split_subgraphs_keep_their_counts(monkeypatch):
    # every E3_1 and E3_9 default-grid row's split halves its axis edges;
    # scaling only the rows of their vertices leaves most pivots +-1
    cores = _record_cores(monkeypatch)
    order = core = halved = 0
    for identity_id, odd in (("E3_1", 0), ("E3_9", 1)):
        for params in default_grid(identity_id):
            region = holed_hexagon(2 * params["a"] + odd, params["b"],
                                   list(params["ks"]))
            sub = central_axis_split(region)[0].subgraph
            assert not sub.loops and sub.walk[1] is not None
            cores.clear()
            got = count_matchings_pfaffian(sub)
            core += sum(len(c) for c in cores)
            assert got == mgf_oracle(sub) == _global_lcm_count(sub), params
            order += sub.n // 2
            halved += any(w.denominator == 2 for _, _, w in sub.edges)
    # 56 determinants, 44 of them with halved edges, of 1 620 columns in
    # all leave cores of 77 columns; one lcm for the whole graph left
    # 1 302
    assert halved == 44 and order == 1620
    assert core <= order // 10


def test_per_vertex_scaling_keeps_every_weighted_count():
    # each vertex gets 1, 1/2 or 1/3 and each edge the product of its
    # ends' values times 1, 2 or 3, on bipartite graphs and on skew
    # quotients; then the rotation quotients, whose weights are whole
    # (1 under Rot60, 1 and 2 under Rot120), so every scale is 1
    rng = random.Random(33)
    seen = Counter()
    for g in (dual_graph(hexagon(2, 2, 2)), dual_graph(hexagon(2, 3, 3)),
              quotient_graph(symmetry(hexagon(2, 2, 2), "Rot180")),
              quotient_graph(symmetry(hexagon(2, 2, 4), "Rot180"))):
        for _ in range(4):
            f = [rng.choice((Fraction(1), Fraction(1, 2), Fraction(1, 3)))
                 for _ in range(g.n)]
            h = MatchGraph(g.tags, tuple((i, j, w * f[i] * f[j]
                                          * rng.choice((1, 2, 3)))
                                         for i, j, w in g.edges),
                           (), g.rotations)
            dens = {w.denominator for _, _, w in h.edges}
            assert {2, 3} <= dens
            got = count_matchings_pfaffian(h)
            assert got == mgf_oracle(h) == _global_lcm_count(h)
            seen["bipartite" if h.walk[1] is not None else "skew"] += 1
    for n in range(2, 6):
        for kind in ("Rot60", "Rot120"):
            # an even quotient keeps its dead-weight loop, which no
            # perfect matching uses
            q, _ = normalize_loops(
                quotient_graph(symmetry(hexagon(n, n, n), kind)))
            got = count_matchings_pfaffian(q)
            assert got == mgf_oracle(q) == _global_lcm_count(q), (n, kind)
            seen[kind, "bipartite" if q.walk[1] is not None else "skew"] += 1
    assert seen == {"bipartite": 8, "skew": 8, ("Rot60", "skew"): 4,
                    ("Rot120", "bipartite"): 4}


def test_hexagon_counts_beyond_dense_elimination():
    # n = 24 and 32 leave cores wider than any the benchmark's ladder
    # reaches
    for n in (*range(13, 17), 24, 32):
        assert count_tilings(hexagon(n, n, n)) == macmahon_box(n, n, n), n


def _cspp(n):
    # cyclically symmetric plane partitions in an n-cube (Andrews)
    out = Fraction(1)
    for i in range(1, n + 1):
        out *= Fraction(3 * i - 1, 3 * i - 2)
        for j in range(i, n + 1):
            out *= Fraction(n + i + j - 1, 2 * i + j - 1)
    return out


def _asm(m):
    # alternating sign matrices of order m
    out = Fraction(1)
    for k in range(m):
        out *= Fraction(factorial(3 * k + 1), factorial(m + k))
    return out


def test_rotation_quotient_counts_match_product_formulas():
    for n in range(1, 11):
        r = hexagon(n, n, n)
        assert count_symmetric_tilings(r, ["Rot120"], "quotient") == \
            _cspp(n), n
    for n in (2, 4, 6, 8, 10):
        r = hexagon(n, n, n)
        q, _ = counting.normalize_loops(quotient_graph(symmetry(r, "Rot60")))
        # the quotient keeps its dead-weight loop, which the determinant
        # ignores; it is not bipartite, so the skew route runs
        assert q.walk[1] is None
        assert count_symmetric_tilings(r, ["Rot60"], "quotient") == \
            _asm(n // 2) ** 2, n


# ---------------------------------------------------------------------
# the quotient route builds one graph


def _chain_count(region, kinds):
    """Reference for the quotient route: the group's closure names its
    generator, whose checked quotient count_matchings counts after
    normalize_loops has dropped a forced loop's vertex."""
    order = len(symmetry_group(region, kinds))
    rotations = {1: "Identity", 2: "Rot180", 3: "Rot120", 6: "Rot60"}
    if not set(kinds) <= set(rotations.values()):
        raise ContractError("quotient counting needs a rotation group")
    kind = rotations[order]
    if kind == "Identity":
        return count_tilings(region)
    return count_matchings(quotient_graph(symmetry(region, kind)))


def _count_or_refusal(count, region, kinds):
    try:
        return count(region, kinds)
    except (ContractError, SymmetryAbsentError) as exc:
        return type(exc), str(exc)


def test_quotient_route_matches_the_checked_chain(monkeypatch):
    cases = [(holed_hexagon(2 * p["a"] + odd, p["b"], list(p["ks"])),
              ("Rot180",))
             for identity_id, odd in (("E3_5", 0), ("E3_10", 1))
             for p in default_grid(identity_id)]
    cases += [(cored_hexagon(p["a"], p["b"], list(p["ks"]), p["x"]),
               ("Rot180",)) for p in default_grid("E3_13")]
    cases += [(hexagon(n, n, n), (kind,)) for n in range(1, 9)
              for kind in ("Rot60", "Rot120", "Rot180")]
    # several generators: the lcm of their orders names the rotation
    cases += [(hexagon(n, n, n), kinds) for n in (2, 3, 4)
              for kinds in ((), ("Identity",), ("Rot180", "Rot180"),
                            ("Rot120", "Rot180"), ("Identity", "Rot120"),
                            ("Rot180", "Rot60"))]
    # refusals: a map that is no lattice map, or does not keep the
    # region, an action that is not free, an unknown kind, a mirror
    tri = Region("hand", (), tuple(sorted(lattice._triangle(0, 0, 2, False))))
    cases += [(hexagon(1, 2, 1), ("Rot120",)), (hexagon(2, 2, 1), ("Rot60",)),
              (holed_hexagon(4, 1, [1]), ("Rot120",)), (tri, ("Rot120",)),
              (hexagon(3, 3, 3), ("Rot180", "Rot45")),
              (hexagon(1, 2, 1), ("Rot120", "Rot45")),
              (hexagon(2, 2, 2), ("Rot180", "ReflH"))]
    loops = Counter()
    for region, kinds in cases[:102]:
        q = quotient_graph(symmetry(region, kinds[0]))
        loops[len(q.loops), q.n % 2] += 1
    # 28 odd quotients lose a forced loop's vertex, 4 even ones keep
    # a dead-weight loop
    assert loops == {(0, 0): 62, (0, 1): 8, (1, 1): 28, (1, 0): 4}
    want = [_count_or_refusal(_chain_count, r, kinds) for r, kinds in cases]
    # the route calls no step of the chain, and builds one graph, the
    # one it counts, whose check is MatchGraph's own
    calls = []
    for module in (duality, counting):
        for name in ("quotient_graph", "normalize_loops", "without_vertices",
                     "remove_loop_vertex", "symmetry_group"):
            if hasattr(module, name):
                def counted(*args, _name=name, _fn=getattr(module, name)):
                    calls.append(_name)
                    return _fn(*args)
                monkeypatch.setattr(module, name, counted)
    built = []
    new = MatchGraph.__new__

    def counted_new(cls, *fields):
        built.append(cls)
        return new(cls, *fields)
    monkeypatch.setattr(MatchGraph, "__new__", counted_new)
    for (region, kinds), w in zip(cases, want):
        built.clear()
        got = _count_or_refusal(
            lambda r, k: count_symmetric_tilings(r, k, "quotient"),
            region, kinds)
        assert got == w, (region.params, kinds)
        assert len(built) == (not isinstance(w, tuple)), (region.params, kinds)
        # the identity group is the plain count, whose mgf normalizes
        if set(kinds) <= {"Identity"}:
            assert calls == ["normalize_loops"]
        else:
            assert calls == [], (region.params, kinds)
        calls.clear()
    monkeypatch.undo()
    refusals = [w for w in want if isinstance(w, tuple)]
    assert len(want) == 127 and len(refusals) == 7
    assert {w[0] for w in refusals} == {ContractError, SymmetryAbsentError}
