"""Exact matching and tiling counts.

Two independent engines are provided on purpose.  The oracle routines
count by plain recursive search (minimum-degree branching, splitting
off connected components, pruning odd components) and serve as ground
truth on small graphs.  The production routines build a Kasteleyn
orientation from the planar embedding and evaluate an integer
determinant by fraction-free elimination; for bipartite components the
signed biadjacency determinant gives the count directly, otherwise the
determinant of the skew adjacency matrix is a perfect square whose
root is the count.  Weighted graphs are scaled to integers first, so
every result is exact.

Loop conventions: a loop covers its own vertex and a matching may use
it, so on a graph with an even vertex count loops are dead weight,
while on an odd component exactly one loop must be used.  The oracle
handles loops natively; the determinant path requires the caller to
normalize them away, which normalize_loops does for the two shapes
that occur here.

Tiling-level wrappers count tilings of a region (perfect matchings of
its dual graph), tilings invariant under a symmetry group (by direct
orbit search, by filtering the full enumeration, or by counting
matchings of the quotient graph when the group is a rotation group),
and free-boundary tilings where marked boundary cells may stay
uncovered (by the cell search of the orbit route, or attaching an optional
pendant per free cell in the oracle cross-check).

The orbit and free-boundary routes share one engine on region cells,
never on the dual graph or a determinant: it settles cells in sorted
order, column by column, and memoizes the ways to reach each set of
cells left, a broken-profile transfer-matrix count.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator, Sequence

from .duality import (
    MatchGraph,
    dual_graph,
    induced_vertex_map,
    quotient_graph,
    remove_loop_vertex,
    symmetry,
    symmetry_group,
)
from .errors import BudgetError, ContractError
from .lattice import Region, cell_neighbors

ORACLE_CAP = 64
# memo states the cell search may create before it gives up
SEARCH_STATE_CAP = 1_000_000

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------
# search-based oracles


def _adjacency(g: MatchGraph) -> dict[int, dict[int, Fraction]]:
    adj: dict[int, dict[int, Fraction]] = {i: {} for i in range(g.n)}
    for i, j, w in g.edges:
        adj[i][j] = w
        adj[j][i] = w
    return adj


def _mgf_rec(adj: dict[int, dict[int, Fraction]],
             loops: dict[int, Fraction]) -> Fraction:
    if not adj:
        return ONE
    start = min(adj)
    comp = {start}
    stack = [start]
    while stack:
        for u in adj[stack.pop()]:
            if u not in comp:
                comp.add(u)
                stack.append(u)
    if len(comp) < len(adj):
        rest = {v: {u: w for u, w in nbrs.items()}
                for v, nbrs in adj.items() if v not in comp}
        here = {v: adj[v] for v in comp}
        return (_mgf_rec(here, loops) * _mgf_rec(rest, loops))
    if len(comp) % 2 and not any(v in loops for v in comp):
        return ZERO
    v = min(comp, key=lambda x: (len(adj[x]) + (1 if x in loops else 0), x))
    total = ZERO
    for u in sorted(adj[v]):
        w = adj[v][u]
        sub = {x: {y: wy for y, wy in nbrs.items() if y != v and y != u}
               for x, nbrs in adj.items() if x != v and x != u}
        total += w * _mgf_rec(sub, loops)
    if v in loops:
        sub = {x: {y: wy for y, wy in nbrs.items() if y != v}
               for x, nbrs in adj.items() if x != v}
        total += loops[v] * _mgf_rec(sub, loops)
    return total


def mgf_oracle(g: MatchGraph, *, max_vertices: int = ORACLE_CAP,
               force: bool = False) -> Fraction:
    """Matching generating function by recursive search; loops allowed."""
    if g.n > max_vertices and not force:
        raise BudgetError("graph has %d vertices, oracle cap is %d"
                          % (g.n, max_vertices))
    return _mgf_rec(_adjacency(g), dict(g.loops))


def count_matchings_oracle(g: MatchGraph, *, max_vertices: int = ORACLE_CAP,
                           force: bool = False) -> int:
    """Perfect matching count by recursive search; loopless, weight-1 input."""
    if g.loops:
        raise ContractError("oracle counts need a loopless graph")
    if any(w != ONE for _, _, w in g.edges):
        raise ContractError("oracle counts need unit weights; use mgf_oracle")
    val = mgf_oracle(g, max_vertices=max_vertices, force=force)
    assert val.denominator == 1
    return int(val)


def enumerate_matchings(g: MatchGraph) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings as sorted tuples of vertex pairs."""
    if g.loops:
        raise ContractError("enumeration needs a loopless graph")
    adj = [sorted(s) for s in g.neighbor_sets()]
    uncovered = frozenset(range(g.n))

    def rec(left: frozenset, acc: list) -> Iterator[tuple]:
        if not left:
            yield tuple(sorted(acc))
            return
        v = min(left)
        for u in adj[v]:
            if u in left:
                acc.append((v, u) if v < u else (u, v))
                yield from rec(left - {v, u}, acc)
                acc.pop()

    yield from rec(uncovered, [])


def first_matching(g: MatchGraph) -> tuple[tuple[int, int], ...] | None:
    return next(enumerate_matchings(g), None)


# ---------------------------------------------------------------------
# Kasteleyn orientation and determinants


def _faces(g: MatchGraph) -> tuple[list[list[tuple[int, int]]],
                                   dict[tuple[int, int], int]]:
    assert g.rotations is not None, "no embedding"
    succ: dict[tuple[int, int], tuple[int, int]] = {}
    for i, rot in enumerate(g.rotations):
        for pos, j in enumerate(rot):
            succ[(j, i)] = (i, rot[(pos + 1) % len(rot)])
    faces: list[list[tuple[int, int]]] = []
    face_of: dict[tuple[int, int], int] = {}
    for dart in sorted(succ):
        if dart in face_of:
            continue
        cycle = []
        d = dart
        while d not in face_of:
            face_of[d] = len(faces)
            cycle.append(d)
            d = succ[d]
        faces.append(cycle)
    return faces, face_of


def _kasteleyn_orientation(g: MatchGraph) -> dict[tuple[int, int], bool]:
    """Edge (i, j) -> True when oriented i to j, with an odd number of
    agreeing edges around every face except one root face per component."""
    faces, face_of = _faces(g)
    orient = {(i, j): True for i, j, _ in g.edges}
    parity = [0] * len(faces)
    for f, cycle in enumerate(faces):
        parity[f] = sum(1 for (a, b) in cycle if a < b) % 2
    dual: dict[int, list[tuple[int, tuple[int, int]]]] = {
        f: [] for f in range(len(faces))}
    for i, j, _ in g.edges:
        f1, f2 = face_of[(i, j)], face_of[(j, i)]
        if f1 != f2:
            dual[f1].append((f2, (i, j)))
            dual[f2].append((f1, (i, j)))
    seen: set[int] = set()
    for root in range(len(faces)):
        if root in seen:
            continue
        order = [root]
        parent_edge: dict[int, tuple[int, int]] = {}
        parent: dict[int, int] = {}
        seen.add(root)
        qi = 0
        while qi < len(order):
            f = order[qi]
            qi += 1
            for f2, e in dual[f]:
                if f2 not in seen:
                    seen.add(f2)
                    parent[f2] = f
                    parent_edge[f2] = e
                    order.append(f2)
        for f in reversed(order[1:]):
            if parity[f] % 2 == 0:
                e = parent_edge[f]
                orient[e] = not orient[e]
                parity[f] ^= 1
                parity[parent[f]] ^= 1
    return orient


def _det_bareiss(m: list[list[int]]) -> int:
    n = len(m)
    if n == 0:
        return 1
    m = [row[:] for row in m]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            pivot = next((r for r in range(k + 1, n) if m[r][k] != 0), None)
            if pivot is None:
                return 0
            m[k], m[pivot] = m[pivot], m[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def _two_color(comp: list[int], adj: list[set[int]]) -> dict[int, int] | None:
    color = {comp[0]: 0}
    stack = [comp[0]]
    while stack:
        v = stack.pop()
        for u in adj[v]:
            if u not in color:
                color[u] = 1 - color[v]
                stack.append(u)
            elif color[u] == color[v]:
                return None
    return color


def count_matchings_pfaffian(g: MatchGraph) -> Fraction:
    """Weighted perfect matching count from the planar embedding."""
    if g.loops:
        raise ContractError("normalize loops before determinant counting")
    if g.rotations is None:
        raise ContractError("determinant counting needs an embedding")
    orient = _kasteleyn_orientation(g)
    wmap = g.weight_map()
    adj = g.neighbor_sets()
    result = ONE
    for comp_set in g.components():
        comp = sorted(comp_set)
        if len(comp) % 2:
            return ZERO
        loc = {v: k for k, v in enumerate(comp)}
        cedges = [(i, j, w) for i, j, w in g.edges if i in comp_set]
        scale = lcm(*[w.denominator for _, _, w in cedges]) if cedges else 1
        color = _two_color(comp, adj)
        if color is not None:
            us = [v for v in comp if color[v] == 0]
            ds = [v for v in comp if color[v] == 1]
            if len(us) != len(ds):
                return ZERO
            ui = {v: k for k, v in enumerate(us)}
            di = {v: k for k, v in enumerate(ds)}
            mat = [[0] * len(ds) for _ in us]
            for i, j, w in cedges:
                u, d = (i, j) if color[i] == 0 else (j, i)
                s = 1 if orient[(min(i, j), max(i, j))] == (u == min(i, j)) else -1
                mat[ui[u]][di[d]] = s * int(w * scale)
            det = _det_bareiss(mat)
            result *= Fraction(abs(det), scale ** len(us))
        else:
            mat = [[0] * len(comp) for _ in comp]
            for i, j, w in cedges:
                val = int(w * scale)
                if orient[(i, j)]:
                    mat[loc[i]][loc[j]] = val
                    mat[loc[j]][loc[i]] = -val
                else:
                    mat[loc[i]][loc[j]] = -val
                    mat[loc[j]][loc[i]] = val
            det = _det_bareiss(mat)
            assert det >= 0, "skew determinant must be nonnegative"
            root = isqrt(det)
            assert root * root == det, "skew determinant not a perfect square"
            result *= Fraction(root, scale ** (len(comp) // 2))
    return result


def normalize_loops(g: MatchGraph) -> tuple[MatchGraph, Fraction]:
    """Strip loops so determinant counting applies, keeping the count.

    Even vertex count: no matching can use a loop, drop them all.  Odd
    count with a single loop: the loop is forced, remove its vertex and
    remember the weight.  Anything else is out of scope.
    """
    if not g.loops:
        return g, ONE
    if g.n % 2 == 0:
        return MatchGraph(g.tags, g.edges, (), g.rotations), ONE
    if len(g.loops) == 1:
        return remove_loop_vertex(g)
    raise ContractError("cannot normalize %d loops on an odd graph"
                        % len(g.loops))


def mgf(g: MatchGraph) -> Fraction:
    """Matching generating function via the determinant engine."""
    g2, factor = normalize_loops(g)
    return factor * count_matchings_pfaffian(g2)


def count_matchings(g: MatchGraph) -> int:
    val = mgf(g)
    assert val.denominator == 1, "weighted graph has no integer count"
    return int(val)


# ---------------------------------------------------------------------
# tiling-level wrappers


def count_tilings(region: Region) -> int:
    """Number of lozenge tilings (perfect matchings of the dual graph)."""
    return count_matchings(dual_graph(region))


def _cell_moves(region: Region, maps) -> list[list[int]]:
    """For each region cell in sorted order, the bitmasks of cells that
    may be removed together with it: the union of the orbit of each
    edge to a neighbour under the maps, kept when its pairs are disjoint."""
    index = {c: k for k, c in enumerate(region.cells)}
    moves: list[list[int]] = [[] for _ in region.cells]
    for c, k in index.items():
        for d in cell_neighbors(c):
            if d not in index:
                continue
            pairs = {frozenset((m[c], m[d])) for m in maps}
            cells = set().union(*pairs)
            if len(cells) == 2 * len(pairs):
                moves[k].append(sum(1 << index[x] for x in cells))
    return moves


def _cell_search(moves: list[list[int]]) -> int:
    """Ways to remove every cell by moves, each move taken by its least cell.

    Cells left are an int bitmask, so the least cell is the lowest set
    bit.  Each state waits in the bucket of its least cell together with
    the number of ways to reach it, and the buckets are settled in cell
    order, so every state is expanded once and a settled bucket is
    dropped.  The sweep is a loop, not a recursion, so a deep region
    runs into the state cap, never into the interpreter's stack limit.
    """
    n = len(moves)
    waiting: list[dict[int, int]] = [{} for _ in range(n + 1)]
    waiting[0][(1 << n) - 1] = 1
    states = 1
    for p in range(n):
        for left, ways in waiting[p].items():
            for m in moves[p]:
                if left & m != m:
                    continue
                rest = left ^ m
                bucket = waiting[(rest & -rest).bit_length() - 1 if rest else n]
                if rest in bucket:
                    bucket[rest] += ways
                    continue
                bucket[rest] = ways
                states += 1
                if states > SEARCH_STATE_CAP:
                    raise BudgetError("cell search exceeds the cap of %d "
                                      "memo states" % SEARCH_STATE_CAP)
        waiting[p] = {}
    return waiting[n].get(0, 0)


def count_tilings_free(region: Region) -> int:
    """Tilings where each free-edge cell may also protrude outward.

    Equals the sum over subsets S of the free cells of the tiling count
    of the region minus S.  Counted by the memoized cell search, where a
    cell hosting a free edge may also be removed alone.
    """
    moves = _cell_moves(region, [{c: c for c in region.cells}])
    for host in region.free_cell_map().values():
        k = region.cells.index(host)
        moves[k].append(1 << k)
    return _cell_search(moves)


def free_gadget_graph(region: Region) -> MatchGraph:
    """Pendant-with-loop gadget whose loopy matching count equals
    count_tilings_free; used as an independent cross-check."""
    cells = region.cells
    tags: list = [("c", c) for c in cells]
    free = region.free_cell_map()
    pendant_host: dict = {}
    for e, host in sorted(free.items()):
        tags.append(("f", e))
        pendant_host[("f", e)] = host
    tags.sort()
    index = {t: k for k, t in enumerate(tags)}
    have = region.cell_set
    edges = []
    loops = []
    for t in tags:
        if t[0] == "f":
            host = index[("c", pendant_host[t])]
            edges.append((min(host, index[t]), max(host, index[t]), ONE))
            loops.append((index[t], ONE))
            continue
        c = t[1]
        for d in cell_neighbors(c):
            if d in have and index[("c", d)] > index[t]:
                edges.append((index[t], index[("c", d)], ONE))
    return MatchGraph(tuple(tags), tuple(sorted(edges)),
                      tuple(sorted(loops)), None)


def _rotation_generator(group):
    for e in group:
        if (e.kind in ("Identity", "Rot60", "Rot120", "Rot180")
                and e.order() == len(group)):
            return e
    return None


def _filter_count(region: Region, group) -> int:
    g = dual_graph(region)
    perms = [induced_vertex_map(g, e) for e in group]
    count = 0
    for matching in enumerate_matchings(g):
        mset = set(matching)
        good = True
        for p in perms:
            for i, j in matching:
                a, b = p[i], p[j]
                if ((a, b) if a < b else (b, a)) not in mset:
                    good = False
                    break
            if not good:
                break
        if good:
            count += 1
    return count


def count_symmetric_tilings(region: Region, kinds: Sequence[str],
                            method: str = "auto") -> int:
    """Tilings invariant under the group generated by the named symmetries.

    method: "orbit" searches over edge orbits directly, "filter" filters
    the full tiling enumeration, "quotient" counts matchings of the
    quotient graph (rotation groups only), "auto" picks quotient when
    available and orbit otherwise.
    """
    group = symmetry_group(region, kinds)
    if method == "auto":
        method = "quotient" if _rotation_generator(group) else "orbit"
    if method == "quotient":
        gen = _rotation_generator(group)
        if gen is None:
            raise ContractError("quotient counting needs a rotation group")
        if gen.kind == "Identity":
            return count_tilings(region)
        return count_matchings(quotient_graph(dual_graph(region), gen))
    if method == "orbit":
        return _cell_search(_cell_moves(region, [e.mapping for e in group]))
    if method == "filter":
        return _filter_count(region, group)
    raise ContractError("unknown method %r" % (method,))
