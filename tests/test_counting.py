"""Counting engines: oracle vs determinant, symmetric and free counts."""

import random
import sys
from collections import Counter
from fractions import Fraction
from itertools import combinations, product
from math import factorial, prod

import pytest

from lozlab import check, cli, counting, duality
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
                           rbar_region, region_corner_bounds)
from test_duality import (_split_cases, axis_pair_dual_graph, corpus_regions,
                          corpus_rotations, mapping, planar_k4,
                          traced_faces)


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
        # the live mate array holds the partners of each yielded matching
        monkeypatch.setattr(counting, "SEARCH_STATE_CAP", lo)
        for mate, pairs in counting._matchings(g):
            partner = [-1] * g.n
            for v, u in pairs:
                partner[v], partner[u] = u, v
            assert mate == partner
    # hexagon(3, 3, 3), the filter route's entry in CAP_BOUNDARIES
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
    return Region("hand", (), tuple(sorted(cells)), tuple(free))


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


def test_free_moves_are_the_identity_orbit_moves_and_host_moves(monkeypatch):
    # the free route lists the moves _cell_moves gives for the trivial
    # group, then one move per free edge at its host, in the same order,
    # so its sweep visits the same states
    seen = []
    monkeypatch.setattr(counting, "_sweep", seen.append)
    rng = random.Random(20261021)
    checked = 0
    for a, b, eps in product(range(1, 7), range(1, 5), (-1, 0)):
        for r in range(a + 1):
            sets = list(combinations(range(1, a + 1), r))
            for is_ in rng.sample(sets, min(2, len(sets))):
                region = d_region(a, b, eps, list(is_))
                count_tilings_free(region)
                want = counting._cell_moves(region,
                                            [range(len(region.cells))])
                for host in region.free_cell_map().values():
                    k = region.cells.index(host)
                    want[k].append((1 << k, 1))
                assert seen.pop() == want, (a, b, eps, is_)
                checked += 1
    assert checked == 336


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
# the filter enumerates every tiling; past this it costs seconds a region
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


def _box_refuses(region, kind):
    xmin, xmax, ymin, ymax = region_corner_bounds(region)
    try:
        duality._cell_perm(region, kind, 3 * (xmin + xmax), 3 * (ymin + ymax))
    except SymmetryAbsentError:
        return True
    return False


def test_rot120_off_the_box_center_is_taken_about_the_centroid():
    # hexagon(2, 2, 2) less the Rot120 orbit of one lozenge: the turn's
    # center is the cell centroid, (12, -12) in doubled tripled
    # coordinates, not the center of the corner box
    drop = {(0, -4, "D"), (0, -3, "U"), (1, 1, "D"), (2, 1, "U"),
            (3, -4, "U"), (3, -3, "D")}
    region = Region("hand", (), tuple(c for c in hexagon(2, 2, 2).cells
                                      if tuple(c) not in drop))
    assert len(region.cells) == 18 and count_tilings(region) == 9
    assert _box_refuses(region, "Rot120")
    assert _rot120_counts(region) == [3, 3, 3]
    # a sixth turn is taken about the box's center alone
    with pytest.raises(SymmetryAbsentError,
                       match="^rotation center is not a lattice point$"):
        symmetry(region, "Rot60")


def test_rot120_invariant_regions_are_counted_by_every_route():
    rng = random.Random(20261022)
    off_centre = filtered = 0
    for _ in range(120):
        full = hexagon(*[rng.randint(2, 4)] * 3)
        perm = symmetry(full, "Rot120").perm
        drop = set()
        for _ in range(rng.randint(1, 2)):
            k = rng.randrange(len(full.cells))
            j = rng.choice(dual_graph(full).rotations[k])
            for _ in range(3):
                drop |= {k, j}
                k, j = perm[k], perm[j]
        region = Region("hand", (), tuple(c for k, c in enumerate(full.cells)
                                          if k not in drop))
        off_centre += _box_refuses(region, "Rot120")
        elem = symmetry(region, "Rot120")
        assert elem.perm != tuple(range(len(region.cells)))
        assert all(elem.perm[elem.perm[elem.perm[k]]] == k
                   for k in range(len(region.cells)))
        counts = _rot120_counts(region)
        assert len(set(counts)) == 1, (region.cells, counts)
        filtered += len(counts) == 3
    # about a sixth sit off their corner box's center
    assert (off_centre, filtered) == (21, 83)

def _set_filter_count(region, group):
    """Reference: the filter that checks every element, the identity
    too, against a set of each tiling's pairs."""
    g = dual_graph(region)
    perms = [[g.tags.index(m[c]) for c in g.tags] for m in map(mapping, group)]
    count = 0
    for matching in enumerate_matchings(g):
        mset = set(matching)
        if all(((p[i], p[j]) if p[i] < p[j] else (p[j], p[i])) in mset
               for p in perms for i, j in matching):
            count += 1
    return count


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


def test_cell_moves_are_the_reference_moves_that_can_fire():
    # a move can fire only from the bucket of its least cell
    cases = [(region, group) for region, _, group in _cross_cases()]
    cases += [(r, [identity_element(r)]) for r in (
        d_region(3, 2, 0, [1, 2, 3]), d_region(4, 2, -1, [1, 3]))]
    dead = 0
    for region, group in cases:
        new = counting._cell_moves(region, [e.perm for e in group])
        old = _every_cell_moves(region, [mapping(e) for e in group])
        for p, (got, want) in enumerate(zip(new, old)):
            live = [m for m in want if m[0] & -m[0] == 1 << p]
            assert sorted(got) == sorted(live), (region.params, p)
            dead += len(want) - len(live)
    assert dead > 0


# the exact state counts of one search per route: each passes at its
# count and meets the cap one below it, so a change that keeps these
# moves no input across SEARCH_STATE_CAP
CAP_BOUNDARIES = {
    "orbit": (lambda: count_symmetric_tilings(holed_hexagon(4, 2, [2]),
                                              ["Rot180"], "orbit"), 332, 100),
    "filter": (lambda: count_symmetric_tilings(hexagon(3, 3, 3), ["ReflV"],
                                               "filter"), 8436, 112),
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
    calls = _count_det_mod_calls(monkeypatch)
    rng = random.Random(13)
    for g in (_disjoint_union((bip, quo), rng),
              _disjoint_union((quo, bip), rng)):
        assert set(g.walk[0]) == {0, 1} and g.walk[1] is None
        calls.clear()
        assert count_matchings_pfaffian(g) == parts == mgf_oracle(g)
        assert len(calls) == 1
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
    assert len(calls) == 1


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
# the sparse determinant modulo a power of a Mersenne prime


def _bareiss(m):
    # fraction-free dense elimination over the integers, the reference
    m = [row[:] for row in m]
    n = len(m)
    sign, prev = 1, 1
    for k in range(n):
        if m[k][k] == 0:
            swap = next((r for r in range(k + 1, n) if m[r][k]), None)
            if swap is None:
                return 0
            m[k], m[swap] = m[swap], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * prev


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
    # just below the first prime 2**61 - 1: its residue fits one power,
    # its sign does not, so the stop must wait for the square
    big = (1 << 61) - 2
    assert _det_exact([[big]]) == big
    assert _det_exact([[0, -big], [1, 0]]) == big
    # |det| equals the Hadamard bound: the stop at M > 2H has no slack,
    # and the scaled entries need a power above the square
    for k in (2, 3):
        h = _sylvester(k)
        n = len(h)
        big = [[v << 40 for v in row] for row in h]
        flipped = [[-v for v in big[0]]] + big[1:]
        want = _bareiss(big)
        assert abs(want) == n ** (n // 2) << (40 * n)
        assert _det_exact(big) == want
        assert _det_exact(flipped) == -want


def _count_det_mod_calls(monkeypatch):
    calls = []
    det_mod = counting._det_mod

    def counted(rows, n, m):
        calls.append(m)
        return det_mod(rows, n, m)

    monkeypatch.setattr(counting, "_det_mod", counted)
    return calls


MERSENNE = [(1 << e) - 1 for e in (61, 89, 107, 127)]


def test_det_exact_retries_on_a_pivot_sharing_a_prime(monkeypatch):
    calls = _count_det_mod_calls(monkeypatch)
    p0, p1 = MERSENNE[:2]
    # the Hadamard bound asks for p0 squared; the one entry is a multiple
    # of p0, so one power of p1 certifies it on the retry
    assert counting._det_exact([{0: 3 * p0}], 1) == 3 * p0
    assert calls == [p0 ** 2, p1]
    # the same with a negative entry, which is kept as it is, not as its
    # residue, and still refused as a pivot
    calls.clear()
    assert counting._det_exact([{0: -3 * p0}], 1) == -3 * p0
    assert calls == [p0 ** 2, p1]
    # the first pivot is p0 itself; the retry gives det = p0 - 1
    calls.clear()
    assert _det_exact([[p0, 1], [1, 1]]) == p0 - 1
    assert calls == [p0 ** 2, p1]


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


def test_det_exact_refuses_a_pivot_every_prime_divides(monkeypatch):
    calls = _count_det_mod_calls(monkeypatch)
    entry = prod(MERSENNE)
    with pytest.raises(ContractError):
        counting._det_exact([{0: entry}], 1)
    assert len(calls) == 4
    assert all(m % p == 0 for m, p in zip(calls, MERSENNE))


def test_one_elimination_per_determinant(monkeypatch):
    calls = _count_det_mod_calls(monkeypatch)
    assert count_tilings(hexagon(8, 8, 8)) == macmahon_box(8, 8, 8)
    # one modulus, a power of the first prime above the prime itself
    k = calls[0].bit_length() // 61
    assert calls == [MERSENNE[0] ** k] and k > 1


def test_det_exact_matches_bareiss_on_random_matrices():
    rng = random.Random(20261018)
    multi_power = negative = 0
    for trial in range(300):
        n = rng.randrange(1, 13)
        span = rng.choice((1, 3, 1000, 1 << 70))
        density = rng.choice((0.2, 0.5, 1.0))
        m = [[rng.randint(-span, span) if rng.random() < density else 0
              for _ in range(n)] for _ in range(n)]
        if trial % 7 == 0 and n > 1:
            m[rng.randrange(n)] = list(m[rng.randrange(n)])  # likely singular
        want = _bareiss(m)
        assert _det_exact(m) == want, (m, want)
        multi_power += abs(want) >= 1 << 61
        negative += want < 0
    assert multi_power > 20 and negative > 50


def _det_mod_reference(rows, n, m):
    # the elimination with every entry fully reduced to [0, m), the
    # reference for the kernel's small signed entries
    rows = [{j: v % m for j, v in r.items() if v % m} for r in rows]
    rows_at = [set() for _ in range(n)]
    for i, r in enumerate(rows):
        for j in r:
            rows_at[j].add(i)
    det = 1
    pivot_row = [0] * n
    for c in range(n):
        if not rows_at[c]:
            return 0
        piv = min(rows_at[c], key=lambda i: (len(rows[i]), i))
        prow = rows[piv]
        for j in prow:
            rows_at[j].discard(piv)
        pivot_row[c] = piv
        pv = prow.pop(c)
        det = det * pv % m
        inv = pow(pv, -1, m)
        for r in rows_at[c]:
            row = rows[r]
            f = row.pop(c) * inv % m
            for j, v in prow.items():
                x = (row.get(j, 0) - f * v) % m
                if x:
                    if j not in row:
                        rows_at[j].add(r)
                    row[j] = x
                elif j in row:
                    del row[j]
                    rows_at[j].discard(r)
    seen = [False] * n
    for c in range(n):
        k = c
        while not seen[k]:
            seen[k] = True
            k = pivot_row[k]
            if k != c:
                det = -det
    return det % m


def _same_det_mod(rows, n, m):
    # both return the same residue, or both refuse a non-unit pivot
    try:
        want = _det_mod_reference(rows, n, m)
    except ValueError:
        with pytest.raises(ValueError):
            counting._det_mod(rows, n, m)
        return None
    assert counting._det_mod(rows, n, m) == want, (rows, n, m)
    return want


def test_det_mod_matches_full_reduction_at_the_range_ends():
    for p in (7, MERSENNE[0]):
        for m in (p, p * p):
            # the update -(m - 1) - 1 is exactly -m, so the column is
            # empty: the determinant is 0 and -m must not become a pivot
            assert _same_det_mod([{0: 1, 1: 1}, {0: 1, 1: 1 - m}], 2, m) == 0
            # and (m - 1) + 1 is exactly m
            assert _same_det_mod([{0: 1, 1: -1}, {0: 1, 1: m - 1}], 2, m) == 0
            # a -1 pivot, its own inverse; a pivot of m - 1, which is -1
            assert _same_det_mod([{0: -1, 1: 2}, {0: 3, 1: 4}], 2, m) == \
                -10 % m
            assert _same_det_mod([{0: m - 1, 1: 2}, {0: 3, 1: 4}], 2, m) == \
                -10 % m
            # entries outside (-m, m) come in reduced
            assert _same_det_mod([{0: 3 * m + 1, 1: -2 * m}, {1: -m - 5}],
                                 2, m) == m - 5
        # a pivot divisible by p: given, or left by an update
        p2 = p * p
        assert _same_det_mod([{0: p}], 1, p2) is None
        assert _same_det_mod([{0: -p}], 1, p2) is None
        assert _same_det_mod([{0: 1, 1: 1}, {0: 1, 1: 1 + p}], 2, p2) is None


def test_det_mod_matches_full_reduction_on_random_matrices():
    rng = random.Random(20261019)
    refused = 0
    for trial in range(300):
        p = (7, MERSENNE[0])[trial % 2]
        m = p if trial % 4 < 2 else p * p
        # entries near 0 and near +-m, so that updates leave (-m, m) and
        # cancel to exactly +-m; multiples of p are non-units mod p**2
        pool = [1, -1, 2, -2, m - 1, 1 - m, m - 2, 2 - m, p, -p]
        n = rng.randrange(1, 9)
        density = rng.choice((0.3, 0.6, 1.0))
        rows = [{j: rng.choice(pool) if rng.random() < 0.7
                 else rng.randint(1 - m, m - 1)
                 for j in range(n) if rng.random() < density}
                for _ in range(n)]
        refused += _same_det_mod(rows, n, m) is None
    assert refused > 10


def test_det_mod_matches_full_reduction_on_the_ladder(monkeypatch):
    # the Kasteleyn rows of the hexagon ladder, its rotation quotients
    # and the product-formula identities at a = 4..6, b = 1, two holes
    calls = []
    det_mod = counting._det_mod

    def recorded(rows, n, m):
        calls.append((rows, n, m))
        return det_mod(rows, n, m)

    monkeypatch.setattr(counting, "_det_mod", recorded)
    for n in range(4, 13):
        count_tilings(hexagon(n, n, n))
    for kinds, sizes in ((("Rot180", "Rot60"), (2, 4, 6, 8)),
                         (("Rot120",), range(2, 9))):
        for kind in kinds:
            for n in sizes:
                count_symmetric_tilings(hexagon(n, n, n), [kind], "quotient")
    for a in (4, 5, 6):
        for ks in combinations(range(1, a + 1), 2):
            check("E3_5", {"a": a, "b": 1, "ks": ks})
            check("E3_10", {"a": a, "b": 1, "ks": ks})
        for ks in combinations(range(1, a), 2):
            check("E3_13", {"a": a, "b": 1, "ks": ks, "x": 1})
    monkeypatch.undo()
    assert len(calls) > 100
    for rows, n, m in calls:
        assert _same_det_mod(rows, n, m) is not None


def test_hexagon_counts_beyond_dense_elimination():
    for n in range(13, 17):
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
