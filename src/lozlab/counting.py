"""Exact matching and tiling counts.

Two independent engines are provided on purpose.  The oracle routines
count by the memoized search described below, run on the graph's
vertices, and serve as ground truth on small graphs.  The production
routines build a Kasteleyn orientation from the planar embedding and
take one determinant per graph of the signed matrix, kept as sparse
rows: a bipartite graph's biadjacency determinant is the count, else
the skew adjacency determinant is its square.  Weighted graphs are
scaled to integers first, each vertex by the lcm of its own edges'
denominators.  One engine takes every determinant, in exact integer
arithmetic throughout: sparse elimination of each column with a +-1
pivot, then fraction-free (Bareiss) elimination of the small dense
core left, whose every entry is a minor of the core and whose every
division is exact, so no result needs a certificate.

Loop conventions: a loop covers its own vertex and a matching may use
it, so on a graph with an even vertex count a single loop is dead
weight, while on an odd graph a single loop must be used.  The oracle
handles loops natively.  The determinant path ignores a dead-weight
loop, which is in neither the embedding nor the matrix, and
normalize_loops removes a forced one; one loop is the most a quotient
has.

Tiling-level wrappers count tilings of a region (perfect matchings of
its dual graph), tilings invariant under a symmetry group (by direct
orbit search, by an enumeration that drops a partial tiling as soon as
one of its pairs breaks the symmetry, run in orbit order so that each
cell's images follow it, or by counting matchings of the quotient
graph when the group is a rotation group), and free-boundary
tilings where marked boundary cells may stay uncovered (by the search
on region cells).  The quotient route builds one checked quotient: it
drops a forced loop's vertex from the quotient's unchecked parts, then
builds and checks the graph it counts.

One search engine serves the oracle, the orbit route and the
free-boundary route: it settles items in sorted order and memoizes the
weighted ways to reach each set of items left, a broken-profile
transfer-matrix count.  The oracle's items are graph vertices, the
free-boundary route's region cells, and the orbit route's the cell
orbits of its group, one per orbit, numbered by least cell; the cell
routes never touch the dual graph or a determinant.  A state is keyed
by the items gone at or above its least item left, and a move by the
items it takes, both shifted down to that item, so a key is only as
wide as the frontier.

SEARCH_STATE_CAP is the one budget: it bounds the sweep's memo states
and the partial matchings the enumerator visits, whatever the size of
the input.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt, lcm, prod
from typing import Iterator, Sequence

from .duality import (
    ONE,
    MatchGraph,
    _cell_rotations,
    _induced,
    _quotient_parts,
    _region_index,
    dual_graph,
    normalize_loops,
    symmetry,
    symmetry_group,
)
from .errors import BudgetError, ContractError
from .lattice import Region

# search states a search may visit before it gives up
SEARCH_STATE_CAP = 1_000_000

ZERO = Fraction(0)


# ---------------------------------------------------------------------
# the memoized search engine and the oracle


def _sweep(moves: list[list[tuple[int, int | Fraction]]]) -> int | Fraction:
    """Weighted ways to remove every item by moves, each taken by its
    least item.

    Items are 0 .. n-1, n = len(moves), and moves[p] lists the (mask,
    weight) pairs whose least item is p, the mask relative to p: bit i
    stands for item p + i, so bit 0 is always set.  Each state waits in
    the bucket of its least item left, p, keyed by the items gone at or
    above p, shifted down by p; every item below p is gone, so the key
    names the state, and it is only as wide as the frontier.  A move
    fires when it meets no gone item; the next state's bucket is p plus
    the run of low set bits of the new key, which it is shifted by.  The
    buckets are settled in item order, so every state is expanded once
    and a settled bucket is dropped.  The sweep is a loop, not a
    recursion, so a deep input runs into the state cap, never into the
    interpreter's stack limit.  Int weights give an int, Fraction
    weights a Fraction.
    """
    n = len(moves)
    waiting: list[dict] = [{} for _ in range(n + 1)]
    waiting[0][0] = 1
    states = 1
    for p in range(n):
        at = moves[p]
        for gone, ways in waiting[p].items():
            for m, w in at:
                if gone & m:
                    continue
                rest = gone | m
                # the least item left is the lowest zero bit of rest, the
                # lowest set bit of rest + 1
                low = rest + 1
                t = (low & -low).bit_length() - 1
                bucket = waiting[p + t]
                key = rest >> t
                if key in bucket:
                    bucket[key] += ways * w
                    continue
                bucket[key] = ways * w
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
        moves[i].append((1 | 1 << j - i, w))
    for v, w in g.loops:
        moves[v].append((1, w))
    return Fraction(_sweep(moves))


def count_matchings_oracle(g: MatchGraph) -> int:
    """Perfect matching count by memoized search; loopless, weight-1 input."""
    if g.loops:
        raise ContractError("oracle counts need a loopless graph")
    if any(w != ONE for _, _, w in g.edges):
        raise ContractError("oracle counts need unit weights; use mgf_oracle")
    return _as_count(mgf_oracle(g))


def _matchings(above: Sequence[Sequence[int]],
               groups: Sequence[Sequence[Sequence[int]]] = ()
               ) -> Iterator[tuple[list[int], list[tuple[int, int]], int]]:
    """Each perfect matching of the graph on vertices 0 .. n-1, n =
    len(above), whose edges from v to higher vertices go to the sorted
    list above[v], as the search's live mate array, mate[v] being v's
    partner, its list of pairs (v, u), v < u, the v increasing, both
    changing in place once the search moves on, and the bitmask of the
    groups that fix it, bit k for groups[k].

    The least uncovered vertex v is matched to each uncovered neighbour
    above it in increasing order, depth first; every neighbour below v
    is already covered.  The search keeps an explicit stack of (vertex,
    neighbour iterator, mask) frames, so its depth is not bound by the
    interpreter's recursion limit.  Each frame pushed is one partial
    matching, a search state counted against SEARCH_STATE_CAP.

    Each group is a closed set of vertex permutations; the identity may
    be left out.  A frame's mask holds the groups that may still fix its
    partial matching.  Once (v, u) is placed, a group is dropped when
    one of its elements p sends v or u to a covered vertex and
    mate[p[v]] != p[u]; since a group holds each element's inverse,
    every image pair is checked when the later of its two pairs is
    placed.  A pair that drops the last group is undone at once and
    its frame never pushed.  With no groups nothing is dropped, every
    mask is 0, and the search is the plain enumeration.
    """
    n = len(above)
    mate = [-1] * n
    pairs: list[tuple[int, int]] = []
    live = (1 << len(groups)) - 1
    bits = [(1 << k, group) for k, group in enumerate(groups)]
    if n == 0:
        yield mate, pairs, live
        return
    stack = [(0, iter(above[0]), live)]
    states = 1
    while stack:
        v, nbrs, live = stack[-1]
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
        mask = live
        for bit, group in bits:
            if mask & bit:
                for p in group:
                    x = mate[p[v]]
                    if x != p[u] and (x >= 0 or mate[p[u]] >= 0):
                        mask ^= bit
                        break
        if live and not mask:
            mate[u] = mate[v] = -1
            continue
        pairs.append((v, u))
        if 2 * len(pairs) == n:
            yield mate, pairs, mask
            continue
        w = v + 1
        while mate[w] >= 0:
            w += 1
        states += 1
        if states > SEARCH_STATE_CAP:
            raise _over_budget()
        stack.append((w, iter(above[w]), mask))


def enumerate_matchings(g: MatchGraph) -> Iterator[tuple[tuple[int, int], ...]]:
    """All perfect matchings as sorted tuples of vertex pairs, in the
    order and under the state cap of the search in _matchings."""
    if g.loops:
        raise ContractError("enumeration needs a loopless graph")
    above = [sorted(u for u in rot if u > v) for v, rot in enumerate(g.rotations)]
    for _, pairs, _ in _matchings(above):
        yield tuple(pairs)


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


def _pairing_sign(row_of: list[int]) -> int:
    """Sign of the permutation that pairs each column c with row row_of[c]."""
    sign = 1
    seen = [False] * len(row_of)
    for c in range(len(row_of)):
        # each cycle of length k contributes k - 1 transpositions
        k = c
        while not seen[k]:
            seen[k] = True
            k = row_of[k]
            if k != c:
                sign = -sign
    return sign


def _bareiss(m: list[list[int]]) -> int:
    """Determinant of the dense square integer matrix m, which it
    consumes, by fraction-free elimination (Bareiss 1968).

    Step k eliminates column k below the pivot m[k][k], dividing each
    update exactly by the previous pivot: by Sylvester's identity each
    entry left is then the minor of m on its leading k + 1 rows and
    columns bordered by the entry's own row and column.  A zero pivot
    swaps in the first lower row with an entry in column k and flips
    the sign; with none, det is 0.  The last pivot is det up to that
    sign.
    """
    n = len(m)
    sign = prev = 1
    for k in range(n):
        if not m[k][k]:
            i = next((i for i in range(k + 1, n) if m[i][k]), 0)
            if not i:
                return 0
            m[k], m[i] = m[i], m[k]
            sign = -sign
        top = m[k]
        p = top[k]
        for row in m[k + 1:]:
            f = row[k]
            for j in range(k + 1, n):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return sign * prev


def _det_exact(rows: list[dict[int, int]], n: int) -> int:
    """Exact determinant of the n x n integer matrix with the given
    sparse rows (column -> entry), which it consumes.

    One pass over the columns eliminates, in exact integer arithmetic,
    each column with a +-1 entry in a row not yet taken, pivoting on the
    fewest-entry such row, the lowest index on a tie; any other column
    is deferred.  The deferred columns and the rows never taken form the
    core, the Schur complement of a block of determinant +-1, so by
    Sylvester's identity each entry met is +- a minor of the matrix.
    The determinant is the sign of the pairing of each column with its
    pivot row, or of the k-th deferred column with the k-th core row,
    times the pivots, times det(core).  A core with an empty row is
    singular; any other is copied into dense rows, in deferred column
    order, and its determinant taken by _bareiss, exact throughout.
    """
    rows_at: list[set[int]] = [set() for _ in range(n)]
    for i, r in enumerate(rows):
        for j in r:
            rows_at[j].add(i)
    det = 1
    pivot_row = [-1] * n
    deferred = []
    for c in range(n):
        at = rows_at[c]
        if not at:
            return 0
        piv = fewest = n + 1
        for i in at:
            row = rows[i]
            k = len(row)
            if (k < fewest or k == fewest and i < piv) and row[c] in (1, -1):
                piv, fewest = i, k
        if piv > n:
            deferred.append(c)
            continue
        prow = rows[piv]
        for j in prow:
            rows_at[j].discard(piv)
        pivot_row[c] = piv
        pv = prow.pop(c)
        det *= pv
        for r in at:
            row = rows[r]
            f = row.pop(c) * pv
            for j, v in prow.items():
                x = row.get(j, 0) - f * v
                if x:
                    if j not in row:
                        rows_at[j].add(r)
                    row[j] = x
                else:
                    del row[j]
                    rows_at[j].discard(r)
    taken = set(pivot_row)
    core_rows = [i for i in range(n) if i not in taken]
    for c, i in zip(deferred, core_rows):
        pivot_row[c] = i
    det *= _pairing_sign(pivot_row)
    if not deferred:
        return det
    if not all(rows[i] for i in core_rows):
        return 0
    return det * _bareiss([[rows[i].get(c, 0) for c in deferred]
                           for i in core_rows])


def _kasteleyn_rows(edges, orient, scale: list[int], row_of: list[int],
                    col_of: list[int], n_rows: int) -> list[dict[int, int]]:
    """The n_rows sparse rows of the signed matrix: an edge (i, j)
    oriented a -> b puts its weight times scale[i] * scale[j] at (a, b)
    and its negative at (b, a), wherever the rank lists place that pair:
    row_of[v] and col_of[v] are v's row and column, -1 where v has none.
    orient holds one bool per edge."""
    rows: list[dict[int, int]] = [{} for _ in range(n_rows)]
    for (i, j, w), forward in zip(edges, orient):
        val = scale[i] * scale[j]
        if w is not ONE:
            val = w.numerator * (val // w.denominator)
        a, b = (i, j) if forward else (j, i)
        r, c = row_of[a], col_of[b]
        if r >= 0 and c >= 0:
            rows[r][c] = val
        r, c = row_of[b], col_of[a]
        if r >= 0 and c >= 0:
            rows[r][c] = -val
    return rows


def count_matchings_pfaffian(g: MatchGraph) -> Fraction:
    """Weighted perfect matching count from the planar embedding, by
    one determinant for the whole graph: the biadjacency determinant
    when the graph's walk two-colours it, else the skew one.  A single
    loop on an even graph is dead weight and is ignored.  Each vertex's
    scale is the lcm of its own edges' denominators: the biadjacency
    matrix scales its rows, and the skew matrix K becomes D K D, D the
    diagonal of scales, so a fractional weight widens only its own
    vertices' rows and columns and leaves the +-1 pivots elsewhere."""
    if len(g.loops) > 1 or (g.loops and g.n % 2):
        raise ContractError("normalize loops before determinant counting")
    if g.n % 2:
        return ZERO
    orient = _kasteleyn_orientation(g)
    scale = [1] * g.n
    for i, j, w in g.edges:
        if w is not ONE and w.denominator != 1:
            scale[i] = lcm(scale[i], w.denominator)
            scale[j] = lcm(scale[j], w.denominator)
    _, color = g.walk
    if color is not None:
        # colour 0 ranks the rows, colour 1 the columns, in vertex order
        row_of, col_of = [-1] * g.n, [-1] * g.n
        sizes = [0, 0]
        for v, c in enumerate(color):
            if c:
                col_of[v] = sizes[1]
                scale[v] = 1  # the columns stay unscaled
            else:
                row_of[v] = sizes[0]
            sizes[c] += 1
        # a component with unequal colour classes makes this singular
        if sizes[0] != sizes[1]:
            return ZERO
        rows = _kasteleyn_rows(g.edges, orient, scale, row_of, col_of,
                               sizes[0])
        return Fraction(abs(_det_exact(rows, sizes[0])), prod(scale))
    # block-diagonal by component: the product of their squared Pfaffians
    loc = list(range(g.n))
    det = _det_exact(_kasteleyn_rows(g.edges, orient, scale, loc, loc, g.n),
                     g.n)
    if det < 0 or isqrt(det) ** 2 != det:
        raise ContractError("skew determinant %d is not a square" % det)
    return Fraction(isqrt(det), prod(scale))


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
    """The moves of the search on the cell orbits of a group, given by
    its cell index permutations: one item per orbit, numbered by its
    least cell, and for each orbit the moves filed at it.

    Each orbit of edges is a move, with weight 1, when its edges are
    disjoint: its cells, the orbits o <= q of the edge's two ends, then
    number twice its edges.  Some edge of the orbit meets o's least
    cell, so the edges there, read once, find every move; an edge from
    there to an earlier orbit belongs to that orbit's moves.  The mask
    is relative to o, as _sweep takes it: 1 | 1 << (q - o).  Where only
    the identity fixes o's least cell and q != o, no other edge there is
    in the edge's orbit, which has one edge per element, so it is a
    move exactly when only the identity fixes the cells of q either.
    """
    cells = region.cells
    orbit_of = [-1] * len(cells)
    least, size = [], []
    for k in range(len(cells)):
        if orbit_of[k] < 0:
            images = {p[k] for p in perms}
            for c in images:
                orbit_of[c] = len(least)
            least.append(k)
            size.append(len(images))
    moves: list[list[tuple[int, int]]] = []
    rotations = _cell_rotations(_region_index(region),
                                [cells[k] for k in least])
    order = len(perms)
    for o, (k, rot) in enumerate(zip(least, rotations)):
        at = []
        done: set[tuple[int, int]] = set()
        for j in rot:
            q = orbit_of[j]
            # (k, j) is sorted as done keeps its pairs: o holds no cell
            # below k, and an orbit q > o none below its own least cell
            if q < o or (k, j) in done:
                continue
            if q != o and size[o] == order:
                if size[q] == order:
                    at.append((1 | 1 << q - o, 1))
                continue
            pairs = {(p[k], p[j]) if p[k] < p[j] else (p[j], p[k])
                     for p in perms}
            done |= pairs
            if 2 * len(pairs) == size[o] + (size[q] if q != o else 0):
                at.append((1 | 1 << q - o, 1))
        moves.append(at)
    return moves


def count_tilings_free(region: Region) -> int:
    """Tilings where each free-edge cell may also protrude outward.

    Equals the sum over subsets S of the free cells of the tiling count
    of the region minus S.  Counted by the memoized search on cells:
    each edge (k, j), j > k, is a move of its lower cell k, the moves
    _cell_moves gives for the one-element group, and a cell hosting a
    free edge may also be removed alone, each mask relative to k.
    """
    index = _region_index(region)
    moves = [[(1 | 1 << j - k, 1) for j in rot if j > k]
             for k, rot in enumerate(_cell_rotations(index, region.cells))]
    for u, v, _ in region.free_cell_map().values():
        moves[index[u, v]].append((1, 1))
    return _sweep(moves)


# the order of each rotation about a region's centroid, and the rotation
# generating the cyclic group of each order
_ORDER = {"Identity": 1, "Rot180": 2, "Rot120": 3, "Rot60": 6}
_ROTATION_OF_ORDER = {order: kind for kind, order in _ORDER.items()}


def _filter_count(region: Region, groups) -> list[int]:
    """Tilings fixed by each group, from one enumeration of the region
    that drops a branch as soon as no group can fix it: the sum of the
    fixing masks _matchings yields.  symmetry_group puts the identity
    first, and it is left out.

    The search runs in orbit order: the cells sorted by the least cell
    of their orbit under all the groups' elements together, then by
    cell, so each cell's images come right after it and a pair whose
    image breaks a group is dropped soon after it is placed.  The
    checked dual graph's rotations and each element's perm are
    renumbered into that order; with no element the order is the
    identity."""
    g = dual_graph(region)
    perms = [[e.perm for e in group[1:]] for group in groups]
    elems = [p for group in perms for p in group]
    least = [-1] * g.n
    for k in range(g.n):
        if least[k] < 0:
            least[k] = k
            orbit = [k]
            for c in orbit:  # orbit grows as it is walked
                for p in elems:
                    if least[p[c]] < 0:
                        least[p[c]] = k
                        orbit.append(p[c])
    order = sorted(range(g.n), key=least.__getitem__)  # stable: then by cell
    pos = [0] * g.n
    for i, c in enumerate(order):
        pos[c] = i
    above = [sorted([pos[u] for u in g.rotations[c] if pos[u] > i])
             for i, c in enumerate(order)]
    perms = [[[pos[p[c]] for c in order] for p in group] for group in perms]
    counts = [0] * len(perms)
    for _, _, mask in _matchings(above, perms):
        for k in range(len(counts)):
            counts[k] += mask >> k & 1
    return counts


def _quotient_count(region: Region, kind: str) -> int:
    """count_matchings of the quotient graph of the region's named
    rotation, from its unchecked parts: an odd quotient's forced loop
    drops its vertex before the one graph counted is built and checked,
    and the refusals are those of the chain, with the same text and
    order."""
    fields = _quotient_parts(symmetry(region, kind), _region_index(region))[0]
    tags, _, loops, _ = fields
    if len(loops) > 1:
        raise ContractError("cannot normalize %d loops" % len(loops))
    weight = ONE
    if loops and len(tags) % 2:
        (v, weight), = loops
        fields = _induced(fields, {v})
    return _as_count(weight * count_matchings_pfaffian(MatchGraph(*fields)))


def count_symmetric_tilings(region: Region, kinds: Sequence[str],
                            method: str = "auto") -> int:
    """Tilings invariant under the group generated by the named symmetries.

    method: "orbit" searches over edge orbits directly, "filter"
    enumerates the tilings and drops each partial tiling the group
    cannot fix, "quotient" counts matchings of the quotient graph
    (rotation groups only), "auto" picks quotient when every named kind
    is a rotation or the identity and orbit otherwise.
    A region with free edges is refused with ContractError: no route
    lets a tile protrude across them.
    """
    if region.free_edges:
        raise ContractError("symmetric counts of a region with free edges "
                            "are not supported")
    for kind in kinds:  # the region keeps each element, or it refuses
        symmetry(region, kind)
    pure_rotation = all(k in _ORDER for k in kinds)
    if method == "auto":
        method = "quotient" if pure_rotation else "orbit"
    if method == "quotient":
        if not pure_rotation:
            raise ContractError("quotient counting needs a rotation group")
        # rotations about one point generate the cyclic group of the lcm
        # of their orders
        kind = _ROTATION_OF_ORDER[lcm(*[_ORDER[k] for k in kinds])]
        if kind == "Identity":
            return count_tilings(region)
        return _quotient_count(region, kind)
    if method == "orbit":
        group = symmetry_group(region, kinds)
        return _sweep(_cell_moves(region, [e.perm for e in group]))
    if method == "filter":
        return _filter_count(region, [symmetry_group(region, kinds)])[0]
    raise ContractError("unknown method %r" % (method,))
