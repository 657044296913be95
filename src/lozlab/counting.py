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
The elimination keeps its entries as small signed ints in (-m, m) and
reduces one only when an update leaves that range; since an entry in
that range is 0 mod m only when it is 0, the pivots and the residue
are those of full reduction, and a +-1 entry stays one word wide.

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
    _cell_index,
    _cell_rotations,
    dual_graph,
    normalize_loops,
    quotient_graph,
    symmetry,
    symmetry_group,
)
from .errors import BudgetError, ContractError
from .lattice import Region

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


def _matchings(g: MatchGraph) -> Iterator[tuple[list[int], list[tuple[int, int]]]]:
    """Each perfect matching as the search's live mate array, mate[v]
    being v's partner, and its list of pairs (v, u), v < u, the v
    increasing; both change in place once the search moves on.

    The least uncovered vertex v is matched to each uncovered neighbour
    above it in increasing order, depth first; every neighbour below v
    is already covered.  The search keeps an explicit stack of (vertex,
    neighbour iterator) frames, so its depth is not bound by the
    interpreter's recursion limit.  Each frame pushed is one partial
    matching, a search state counted against SEARCH_STATE_CAP.
    """
    if g.loops:
        raise ContractError("enumeration needs a loopless graph")
    n = g.n
    mate = [-1] * n
    pairs: list[tuple[int, int]] = []
    if n == 0:
        yield mate, pairs
        return
    above = [sorted(u for u in rot if u > v) for v, rot in enumerate(g.rotations)]
    stack = [(0, iter(above[0]))]
    states = 1
    while stack:
        v, nbrs = stack[-1]
        u = mate[v]
        if u >= 0:  # the frame's last pair, undone
            mate[u] = mate[v] = -1
            pairs.pop()
        for u in nbrs:
            if mate[u] < 0:
                break
        else:
            stack.pop()
            continue
        mate[v], mate[u] = u, v
        pairs.append((v, u))
        if 2 * len(pairs) == n:
            yield mate, pairs
            continue
        w = v + 1
        while mate[w] >= 0:
            w += 1
        states += 1
        if states > SEARCH_STATE_CAP:
            raise _over_budget()
        stack.append((w, iter(above[w])))


def enumerate_matchings(g: MatchGraph) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings as sorted tuples of vertex pairs, in the
    order and under the state cap of the search in _matchings."""
    return (tuple(pairs) for _, pairs in _matchings(g))


# ---------------------------------------------------------------------
# Kasteleyn orientation and determinants


def _kasteleyn_orientation(g: MatchGraph) -> list[bool]:
    """One bool per edge (i, j) of g.edges, True when oriented i to j,
    with an odd number of agreeing edges around every face except one
    root face per component."""
    count, pairs = g.faces
    orient = [True] * len(pairs)
    # an edge i -> j agrees with its dart i -> j, at face f1
    parity = [0] * count
    dual: list[list[tuple[int, int]]] = [[] for _ in range(count)]
    for e, (f1, f2) in enumerate(pairs):
        parity[f1] ^= 1
        if f1 != f2:
            dual[f1].append((f2, e))
            dual[f2].append((f1, e))
    # up[f]: the parent face in a breadth-first spanning forest of the
    # faces and the edge crossed to reach f, with no edge at a root;
    # flipping that edge, leaves first, fixes each non-root face's parity
    up: list[tuple[int, int | None] | None] = [None] * count
    order: list[int] = []
    for root in range(count):
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
    the fewest entries, the lowest index on a tie, which keeps the
    fill-in low.  The determinant is the product of the pivots times the
    sign of the row permutation.  Row operations with a unit pivot are
    valid modulo any m, prime or not; a pivot that is not a unit mod m
    makes pow raise ValueError.

    Entries stay small signed ints in (-m, m), each congruent to its
    fully reduced residue, and are reduced only when an update leaves
    that range, so a -1 stays -1 rather than m - 1.  In that range an
    entry is 0 mod m exactly when it is 0, so the zero pattern, the
    pivots and the returned residue are those of full reduction.  A +-1
    pivot is its own inverse and keeps the multipliers small.
    """
    rows = [{j: x for j, v in r.items() if (x := v if -m < v < m else v % m)}
            for r in rows]
    rows_at: list[set[int]] = [set() for _ in range(n)]
    for i, r in enumerate(rows):
        for j in r:
            rows_at[j].add(i)
    det = 1
    pivot_row = [0] * n
    for c in range(n):
        if not rows_at[c]:
            return 0
        piv = fewest = n + 1
        for i in rows_at[c]:
            k = len(rows[i])
            if k < fewest or k == fewest and i < piv:
                piv, fewest = i, k
        prow = rows[piv]
        for j in prow:
            rows_at[j].discard(piv)
        pivot_row[c] = piv
        pv = prow.pop(c)
        det = det * pv % m
        inv = pv if pv == 1 or pv == -1 else pow(pv, -1, m)
        for r in rows_at[c]:
            row = rows[r]
            f = row.pop(c) * inv
            if not -m < f < m:
                f %= m
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if not -m < x < m:
                    x %= m
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
    index maps place that pair.  orient holds one bool per edge."""
    rows: list[dict[int, int]] = [{} for _ in row_of]
    for (i, j, w), forward in zip(edges, orient):
        val = w.numerator * (scale // w.denominator)
        a, b = (i, j) if forward else (j, i)
        if a in row_of and b in col_of:
            rows[row_of[a]][col_of[b]] = val
        if b in row_of and a in col_of:
            rows[row_of[b]][col_of[a]] = -val
    return rows


def count_matchings_pfaffian(g: MatchGraph) -> Fraction:
    """Weighted perfect matching count from the planar embedding, by
    one determinant for the whole graph: the biadjacency determinant
    when the graph's walk two-colours it, else the skew one.  A single
    loop on an even graph is dead weight and is ignored."""
    if len(g.loops) > 1 or (g.loops and g.n % 2):
        raise ContractError("normalize loops before determinant counting")
    if g.n % 2:
        return ZERO
    orient = _kasteleyn_orientation(g)
    scale = lcm(*[w.denominator for _, _, w in g.edges]) if g.edges else 1
    _, color = g.walk
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


def _cell_moves(region: Region, perms) -> list[list[tuple[int, int]]]:
    """For each region cell in sorted order, the moves of the search that
    remove it: the bitmask of the union of the orbit of each edge under
    the cell index permutations, kept when its pairs are disjoint, with
    weight 1.  Each orbit is built once and filed at its least cell, the
    only bucket from which the sweep can take it."""
    moves: list[list[tuple[int, int]]] = [[] for _ in region.cells]
    done: set[int] = set()
    rotations = _cell_rotations(_cell_index(region.cells), region.cells)
    for k, rot in enumerate(rotations):
        for j in rot:
            if j < k or (1 << k | 1 << j) in done:
                continue
            pairs = {1 << p[k] | 1 << p[j] for p in perms}
            done |= pairs
            # the two-bit pairs are disjoint when their sum carries nowhere
            mask = sum(pairs)
            if mask.bit_count() == 2 * len(pairs):
                moves[(mask & -mask).bit_length() - 1].append((mask, 1))
    return moves


def count_tilings_free(region: Region) -> int:
    """Tilings where each free-edge cell may also protrude outward.

    Equals the sum over subsets S of the free cells of the tiling count
    of the region minus S.  Counted by the memoized search on cells:
    each edge (k, j), j > k, is a move of its lower cell k, the moves
    _cell_moves gives for the one-element group, and a cell hosting a
    free edge may also be removed alone.
    """
    index = _cell_index(region.cells)
    moves = [[(1 << k | 1 << j, 1) for j in rot if j > k]
             for k, rot in enumerate(_cell_rotations(index, region.cells))]
    for u, v, _ in region.free_cell_map().values():
        k = index[u, v]
        moves[k].append((1 << k, 1))
    return _sweep(moves)


# the rotation generating a pure rotation group, by the group's order
_ROTATION_OF_ORDER = {1: "Identity", 2: "Rot180", 3: "Rot120", 6: "Rot60"}


def _filter_count(region: Region, groups) -> list[int]:
    """Tilings fixed by each group, from one enumeration of the region:
    a tiling counts for a group when every element but the identity,
    which symmetry_group puts first, sends each of its pairs to a pair,
    read off the enumeration's live mate array."""
    perms = [[e.perm for e in group[1:]] for group in groups]
    counts = [0] * len(perms)
    for mate, pairs in _matchings(dual_graph(region)):
        for k, ps in enumerate(perms):
            counts[k] += all(mate[p[i]] == p[j] for p in ps for i, j in pairs)
    return counts


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
        # the region keeps each element: a named generator is not rebuilt
        return count_matchings(quotient_graph(symmetry(region, kind)))
    if method == "orbit":
        return _sweep(_cell_moves(region, [e.perm for e in group]))
    if method == "filter":
        return _filter_count(region, [group])[0]
    raise ContractError("unknown method %r" % (method,))
