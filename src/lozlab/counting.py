"""Exact matching and tiling counts.

Two independent engines are provided on purpose.  The oracle routines
count by the memoized search described below, run on the graph's
vertices, and serve as ground truth on small graphs.  The production
routines build a Kasteleyn orientation from the planar embedding and
take one determinant per graph of the signed matrix, kept as sparse
rows: a bipartite graph's biadjacency determinant is the count, else
the skew adjacency determinant is its square.  Weighted graphs are
scaled to integers first.  One engine takes every determinant: one
sparse elimination modulo a power of the Mersenne prime 2**61 - 1
above twice the Hadamard bound, which certifies the result exact; a
non-unit pivot retries with 2**89 - 1, 2**107 - 1, then 2**127 - 1.

Loop conventions: a loop covers its own vertex and a matching may use
it, so on a graph with an even vertex count a single loop is dead
weight, while on an odd graph a single loop must be used.  The oracle
handles loops natively.  The determinant path ignores a dead-weight
loop, which is in neither the embedding nor the matrix, and
normalize_loops removes a forced one; one loop is the most a quotient
has.

Tiling-level wrappers count tilings of a region (perfect matchings of
its dual graph), tilings invariant under a symmetry group (by direct
orbit search, by filtering the full enumeration, or by counting
matchings of the quotient graph when the group is a rotation group),
and free-boundary tilings where marked boundary cells may stay
uncovered (by the search on region cells).

One search engine serves the oracle, the orbit route and the
free-boundary route: it settles items (graph vertices or region cells)
in sorted order and memoizes the weighted ways to reach each set of
items left, a broken-profile transfer-matrix count.  The orbit and
free-boundary routes run it on region cells, never on the dual graph
or a determinant.

SEARCH_STATE_CAP is the one budget: it bounds the sweep's memo states
and the partial matchings the enumerator visits, whatever the size of
the input.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm
from typing import Iterator, Sequence

from .duality import (
    MatchGraph,
    dual_graph,
    induced_vertex_map,
    normalize_loops,
    quotient_graph,
    symmetry,
    symmetry_group,
)
from .errors import BudgetError, ContractError
from .lattice import Region, cell_neighbors

# search states a search may visit before it gives up
SEARCH_STATE_CAP = 1_000_000

ZERO = Fraction(0)
ONE = Fraction(1)


# ---------------------------------------------------------------------
# the memoized search engine and the oracle


def _sweep(moves: list[list[tuple[int, int | Fraction]]]) -> int | Fraction:
    """Weighted ways to remove every item by moves, each taken by its
    least item.

    moves[p] lists (mask, weight) pairs whose least set bit is p.  Items
    left are an int bitmask, so the least item is the lowest set bit.
    Each state waits in the bucket of its least item together with the
    weighted number of ways to reach it, and the buckets are settled in
    item order, so every state is expanded once and a settled bucket is
    dropped.  The sweep is a loop, not a recursion, so a deep input runs
    into the state cap, never into the interpreter's stack limit.  Int
    weights give an int, Fraction weights a Fraction.
    """
    n = len(moves)
    waiting: list[dict] = [{} for _ in range(n + 1)]
    waiting[0][(1 << n) - 1] = 1
    states = 1
    for p in range(n):
        for left, ways in waiting[p].items():
            for m, w in moves[p]:
                if left & m != m:
                    continue
                rest = left ^ m
                bucket = waiting[(rest & -rest).bit_length() - 1 if rest else n]
                if rest in bucket:
                    bucket[rest] += ways * w
                    continue
                bucket[rest] = ways * w
                states += 1
                if states > SEARCH_STATE_CAP:
                    raise _over_budget()
        waiting[p] = {}
    return waiting[n].get(0, 0)


def _over_budget() -> BudgetError:
    return BudgetError("search exceeds the cap of %d search states"
                       % SEARCH_STATE_CAP)


def _as_count(val: Fraction) -> int:
    if val.denominator != 1:
        raise ContractError("weighted graph has no integer count (%s)" % val)
    return int(val)


def mgf_oracle(g: MatchGraph) -> Fraction:
    """Matching generating function by the memoized search; loops allowed.

    Each edge is a move of its lower endpoint and each loop a move of
    its own vertex, weighted by its weight.
    """
    moves: list[list[tuple[int, Fraction]]] = [[] for _ in range(g.n)]
    for i, j, w in g.edges:
        moves[i].append(((1 << i) | (1 << j), w))
    for v, w in g.loops:
        moves[v].append((1 << v, w))
    return Fraction(_sweep(moves))


def count_matchings_oracle(g: MatchGraph) -> int:
    """Perfect matching count by memoized search; loopless, weight-1 input."""
    if g.loops:
        raise ContractError("oracle counts need a loopless graph")
    if any(w != ONE for _, _, w in g.edges):
        raise ContractError("oracle counts need unit weights; use mgf_oracle")
    return _as_count(mgf_oracle(g))


def enumerate_matchings(g: MatchGraph) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings as sorted tuples of vertex pairs.

    The least uncovered vertex is matched to each uncovered neighbor in
    increasing order, depth first.  The search keeps an explicit stack
    of (vertex, next neighbor index) frames, so its depth is not bound
    by the interpreter's recursion limit.  Each frame pushed is one
    partial matching, a search state counted against SEARCH_STATE_CAP.
    """
    if g.loops:
        raise ContractError("enumeration needs a loopless graph")
    n = g.n
    if n == 0:
        yield ()
        return
    adj = [sorted(s) for s in g.adjacency]
    covered = [False] * n
    pairs: list[tuple[int, int]] = []
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
            # v < u in every pair, and the v increase down the stack
            yield tuple(pairs)
        else:
            states += 1
            if states > SEARCH_STATE_CAP:
                raise _over_budget()
            stack.append([w, 0])


# ---------------------------------------------------------------------
# Kasteleyn orientation and determinants


def _kasteleyn_orientation(g: MatchGraph) -> dict[tuple[int, int], bool]:
    """Edge (i, j) -> True when oriented i to j, with an odd number of
    agreeing edges around every face except one root face per component."""
    faces = g.faces
    face_of = {d: f for f, cycle in enumerate(faces) for d in cycle}
    orient = {(i, j): True for i, j, _ in g.edges}
    parity = [sum(1 for a, b in cycle if a < b) % 2 for cycle in faces]
    dual: list[list[tuple[int, tuple[int, int]]]] = [[] for _ in faces]
    for i, j, _ in g.edges:
        f1, f2 = face_of[(i, j)], face_of[(j, i)]
        if f1 != f2:
            dual[f1].append((f2, (i, j)))
            dual[f2].append((f1, (i, j)))
    # up[f]: the parent face in a breadth-first spanning forest of the
    # faces and the edge crossed to reach f, with no edge at a root;
    # flipping that edge, leaves first, fixes each non-root face's parity
    up: list[tuple[int, tuple[int, int] | None] | None] = [None] * len(faces)
    order: list[int] = []
    for root in range(len(faces)):
        if up[root] is not None:
            continue
        up[root] = (root, None)
        tree = [root]
        for f in tree:  # tree grows as it is walked
            for f2, e in dual[f]:
                if up[f2] is None:
                    up[f2] = (f, e)
                    tree.append(f2)
        order += tree
    for f in reversed(order):
        parent, e = up[f]
        if e is not None and not parity[f]:
            orient[e] = not orient[e]
            parity[parent] ^= 1
    return orient


# proven Mersenne primes, tried in turn as the base of the modulus
_MERSENNE = tuple((1 << e) - 1 for e in (61, 89, 107, 127))


def _det_mod(rows: list[dict[int, int]], n: int, m: int) -> int:
    """Determinant modulo m by sparse elimination.

    Columns are eliminated in order; the pivot is the candidate row with
    the fewest entries, which keeps the fill-in low.  The determinant is
    the product of the pivots times the sign of the row permutation.
    Row operations with a unit pivot are valid modulo any m, prime or
    not; a pivot that is not a unit mod m makes pow raise ValueError.
    """
    rows = [{j: v % m for j, v in r.items() if v % m} for r in rows]
    rows_at: list[set[int]] = [set() for _ in range(n)]
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
        # each cycle of length k contributes k - 1 transpositions
        k = c
        while not seen[k]:
            seen[k] = True
            k = pivot_row[k]
            if k != c:
                det = -det
    return det % m


def _det_exact(rows: list[dict[int, int]], n: int) -> int:
    """Exact determinant of the n x n integer matrix with the given
    sparse rows (column -> entry).

    |det| is at most the Hadamard bound H, whose square is the product
    of the rows' sums of squares.  One elimination runs modulo M = p**k,
    p the first Mersenne prime of _MERSENNE and k the least power with
    M > 2H; the symmetric residue in (-M/2, M/2] is then the determinant
    itself.  Elimination with unit pivots gives det mod M for a prime
    power too, so the stop is a certificate.  A pivot divisible by p
    stops the elimination, which is retried with the next prime.
    """
    bound = 1
    for r in rows:
        norm = sum(v * v for v in r.values())
        if not norm:
            return 0
        bound *= norm
    for p in _MERSENNE:
        modulus = p
        while modulus * modulus <= 4 * bound:
            modulus *= p
        try:
            residue = _det_mod(rows, n, modulus)
        except ValueError:
            continue
        return residue - modulus if residue > modulus // 2 else residue
    raise ContractError("each Mersenne prime tried divides a pivot")


def _kasteleyn_rows(edges, orient, scale: int, row_of: dict[int, int],
                    col_of: dict[int, int]) -> list[dict[int, int]]:
    """Sparse rows of the signed matrix: an edge oriented a -> b puts its
    scaled weight at (a, b) and its negative at (b, a), wherever the
    index maps place that pair."""
    rows: list[dict[int, int]] = [{} for _ in row_of]
    for i, j, w in edges:
        val = w.numerator * (scale // w.denominator)
        a, b = (i, j) if orient[(i, j)] else (j, i)
        if a in row_of and b in col_of:
            rows[row_of[a]][col_of[b]] = val
        if b in row_of and a in col_of:
            rows[row_of[b]][col_of[a]] = -val
    return rows


def _two_color(g: MatchGraph) -> list[int] | None:
    """A 0/1 colour per vertex with every edge joining two colours, each
    component's least vertex coloured 0; None when there is an odd
    cycle."""
    adj = g.adjacency
    color = [-1] * g.n
    for root in range(g.n):
        if color[root] >= 0:
            continue
        color[root] = 0
        stack = [root]
        while stack:
            v = stack.pop()
            for u in adj[v]:
                if color[u] < 0:
                    color[u] = 1 - color[v]
                    stack.append(u)
                elif color[u] == color[v]:
                    return None
    return color


def count_matchings_pfaffian(g: MatchGraph) -> Fraction:
    """Weighted perfect matching count from the planar embedding, by
    one determinant for the whole graph; a single loop on an even graph
    is dead weight and is ignored."""
    if len(g.loops) > 1 or (g.loops and g.n % 2):
        raise ContractError("normalize loops before determinant counting")
    if g.rotations is None:
        raise ContractError("determinant counting needs an embedding")
    if g.n % 2:
        return ZERO
    orient = _kasteleyn_orientation(g)
    scale = lcm(*[w.denominator for _, _, w in g.edges]) if g.edges else 1
    color = _two_color(g)
    if color is not None:
        # a component with unequal colour classes makes this singular
        us = [v for v in range(g.n) if color[v] == 0]
        ds = [v for v in range(g.n) if color[v] == 1]
        if len(us) != len(ds):
            return ZERO
        rows = _kasteleyn_rows(g.edges, orient, scale,
                               {v: k for k, v in enumerate(us)},
                               {v: k for k, v in enumerate(ds)})
        return Fraction(abs(_det_exact(rows, len(us))), scale ** len(us))
    # block-diagonal by component: the product of their squared Pfaffians
    loc = {v: v for v in range(g.n)}
    det = _det_exact(_kasteleyn_rows(g.edges, orient, scale, loc, loc), g.n)
    if det < 0 or isqrt(det) ** 2 != det:
        raise ContractError("skew determinant %d is not a square" % det)
    return Fraction(isqrt(det), scale ** (g.n // 2))


def mgf(g: MatchGraph) -> Fraction:
    """Matching generating function via the determinant engine."""
    g2, factor = normalize_loops(g)
    return factor * count_matchings_pfaffian(g2)


def count_matchings(g: MatchGraph) -> int:
    return _as_count(mgf(g))


# ---------------------------------------------------------------------
# tiling-level wrappers


def count_tilings(region: Region) -> int:
    """Number of lozenge tilings (perfect matchings of the dual graph)."""
    return count_matchings(dual_graph(region))


def _cell_moves(region: Region, maps) -> list[list[tuple[int, int]]]:
    """For each region cell in sorted order, the moves of the search that
    remove it: the bitmask of the union of the orbit of each edge under
    the maps, kept when its pairs are disjoint, with weight 1.  Each
    orbit is built once and filed at its least cell, the only bucket
    from which the sweep can take it."""
    index = {c: k for k, c in enumerate(region.cells)}
    moves: list[list[tuple[int, int]]] = [[] for _ in region.cells]
    done: set[int] = set()
    for c, k in index.items():
        for d in cell_neighbors(c):
            j = index.get(d, -1)
            if j < k or (1 << k | 1 << j) in done:
                continue
            pairs = {1 << index[m[c]] | 1 << index[m[d]] for m in maps}
            done |= pairs
            # the two-bit pairs are disjoint when their sum carries nowhere
            mask = sum(pairs)
            if mask.bit_count() == 2 * len(pairs):
                moves[(mask & -mask).bit_length() - 1].append((mask, 1))
    return moves


def count_tilings_free(region: Region) -> int:
    """Tilings where each free-edge cell may also protrude outward.

    Equals the sum over subsets S of the free cells of the tiling count
    of the region minus S.  Counted by the memoized search on cells,
    where a cell hosting a free edge may also be removed alone.
    """
    moves = _cell_moves(region, [{c: c for c in region.cells}])
    index = {c: k for k, c in enumerate(region.cells)}
    for host in region.free_cell_map().values():
        k = index[host]
        moves[k].append((1 << k, 1))
    return _sweep(moves)


# the rotation generating a pure rotation group, by the group's order
_ROTATION_OF_ORDER = {1: "Identity", 2: "Rot180", 3: "Rot120", 6: "Rot60"}


def _filter_count(region: Region, group) -> int:
    """Tilings of the full enumeration fixed by each group element but
    the identity, which symmetry_group puts first; a mate array checks
    that an element sends every pair of the tiling to a pair."""
    g = dual_graph(region)
    perms = [induced_vertex_map(g, e) for e in group[1:]]
    mate = [0] * g.n
    count = 0
    for matching in enumerate_matchings(g):
        for i, j in matching:
            mate[i], mate[j] = j, i
        count += all(mate[p[i]] == p[j] for p in perms for i, j in matching)
    return count


def count_symmetric_tilings(region: Region, kinds: Sequence[str],
                            method: str = "auto") -> int:
    """Tilings invariant under the group generated by the named symmetries.

    method: "orbit" searches over edge orbits directly, "filter" filters
    the full tiling enumeration, "quotient" counts matchings of the
    quotient graph (rotation groups only), "auto" picks quotient when
    every named kind is a rotation or the identity and orbit otherwise.
    A region with free edges is refused with ContractError: no route
    lets a tile protrude across them.
    """
    if region.free_edges:
        raise ContractError("symmetric counts of a region with free edges "
                            "are not supported")
    group = symmetry_group(region, kinds)
    pure_rotation = all(k in _ROTATION_OF_ORDER.values() for k in kinds)
    if method == "auto":
        method = "quotient" if pure_rotation else "orbit"
    if method == "quotient":
        if not pure_rotation:
            raise ContractError("quotient counting needs a rotation group")
        kind = _ROTATION_OF_ORDER[len(group)]
        if kind == "Identity":
            return count_tilings(region)
        # a group named by other rotations holds its generator unnamed
        gen = (next((e for e in group if e.kind == kind), None)
               or symmetry(region, kind))
        return count_matchings(quotient_graph(dual_graph(region), gen))
    if method == "orbit":
        return _sweep(_cell_moves(region, [e.mapping for e in group]))
    if method == "filter":
        return _filter_count(region, group)
    raise ContractError("unknown method %r" % (method,))
