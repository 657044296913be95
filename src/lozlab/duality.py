"""Matching graphs dual to regions, their symmetries and reductions.

The dual graph of a region has a vertex for every cell and an edge for
every shared lattice edge, so tilings of the region by unit rhombi
correspond to perfect matchings of the dual graph.  Vertices carry tags
(the source cell, or the orbit of source cells after a quotient) and a
rotation system: the cyclic counterclockwise order of neighbors, which
fixes a planar embedding.  Every graph has one, and it is the graph's
adjacency: nothing else lists a vertex's neighbours.  Edge weights are
exact fractions; loops are stored separately from ordinary edges and
never take part in the rotation system.  A graph is checked when it is
built, and its derived structures (the walk, the face trace of the
embedding) are computed at most once per graph.  The walk is one
breadth-first pass that numbers the components and two-colours the
vertices; the Euler check reads its component count and the
determinant its colouring.  The face trace runs once on integer darts,
offsets into the rotation lists; the Euler check reads its face count
and the Kasteleyn orientation the faces on either side of each edge.

A symmetry of a region is a permutation perm of the indices of its
sorted cells, the dual graph's vertex numbering: perm[k] is the index of
the image of cell k, and every consumer reads perm directly.  A cell is
mapped by arithmetic on its tripled centroid, an integer point;
the map is affine, so one cell and its three lattice neighbours check it
once.  A group is closed by composing its generators with the newest
elements.  One cell index keyed by (u, v) serves the symmetries, the
dual graph, counting's cell search and the quotient, which is built from
the element alone.  The quotient under a rotation identifies each orbit
of cells to one vertex and reads that vertex off the neighbours of the
orbit's least cell, the only ones it looks up; an orbit of edges whose
endpoints fall into the same vertex orbit becomes a loop when a
symmetric matching can use it.  Parallel edge orbits between the same
pair of vertex orbits are merged into a single edge whose weight is the
multiplicity, which leaves matching generating functions unchanged.

factorization_split performs the axis surgery on a graph that is
mirror-symmetric about a horizontal axis of vertices: every axis
vertex's edge to the upper side is deleted and every edge joining two
axis vertices has its weight halved.  The matching count of the input
graph then equals 2**multiplier_log2 times the matching generating
function of the surgered graph, provided every axis vertex lies on an
axis edge; a graph with an axis vertex on none is refused.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import ContractError, SymmetryAbsentError
from .lattice import (
    DOWN,
    UP,
    Region,
    TriCell,
    cell_neighbors,
    region_corner_bounds,
)

ONE = Fraction(1)
HALF = Fraction(1, 2)
# a cell has at most three neighbours, so a quotient weight is 1, 2 or 3
_COUNTS = (None, ONE, Fraction(2), Fraction(3))


class _MatchGraphFields(NamedTuple):
    tags: tuple[Hashable, ...]
    edges: tuple[tuple[int, int, Fraction], ...]
    loops: tuple[tuple[int, Fraction], ...]
    rotations: tuple[tuple[int, ...], ...]


class MatchGraph(_MatchGraphFields):
    """Weighted loopy graph with tagged vertices and a planar embedding.

    All four fields are required.  The rotation system is the
    adjacency: rotations[v] lists v's neighbours in counterclockwise
    order.  The constructor checks its input: sorted unique tags, edges
    and loops, endpoints in range, positive Fraction weights, a rotation
    system that lists exactly each vertex's neighbours, and Euler's
    formula for the embedding, whose component count it reads off the
    walk.  A violation raises ContractError.
    """

    def __new__(cls, tags, edges, loops, rotations):
        self = super().__new__(cls, tags, edges, loops, rotations)
        n = len(self.tags)
        if any(a >= b for a, b in zip(self.tags, self.tags[1:])):
            raise ContractError("tags not sorted/unique")
        if any((i, j) >= (k, m)
               for (i, j, _), (k, m, _) in zip(self.edges, self.edges[1:])):
            raise ContractError("edges not sorted/unique")
        # the edges are sorted, so each list comes out increasing
        nbrs: list[list[int]] = [[] for _ in range(n)]
        for i, j, w in self.edges:
            if not 0 <= i < j < n:
                raise ContractError("bad edge endpoints (%r, %r)" % (i, j))
            if not (isinstance(w, Fraction) and w.numerator > 0):
                raise ContractError("bad weight %r" % (w,))
            nbrs[i].append(j)
            nbrs[j].append(i)
        if any(u >= v for (u, _), (v, _) in zip(self.loops, self.loops[1:])):
            raise ContractError("loops not sorted/unique")
        for v, w in self.loops:
            if not 0 <= v < n:
                raise ContractError("bad loop vertex %r" % (v,))
            if not (isinstance(w, Fraction) and w.numerator > 0):
                raise ContractError("bad loop weight %r" % (w,))
        if len(self.rotations) != n:
            raise ContractError("rotation system has %d entries for %d "
                                "vertices" % (len(self.rotations), n))
        for i, rot in enumerate(self.rotations):
            try:
                if sorted(rot) == nbrs[i]:
                    continue
            except TypeError:  # entries that do not compare
                pass
            if len(rot) != len(set(rot)):
                raise ContractError("repeated neighbor in rotation at %d" % i)
            raise ContractError("rotation disagrees with edges at %d" % i)
        v, e = n, len(self.edges)
        f, c = self.face_count(), max(self.walk[0], default=-1) + 1
        if v - e + f != 2 * c:
            raise ContractError("embedding not planar: V=%d E=%d F=%d C=%d"
                                % (v, e, f, c))
        return self

    @classmethod
    def _make(cls, iterable):
        # _replace builds its copy here, so a copy passes the checks too
        return cls(*iterable)

    def __setattr__(self, name, value):
        # no caller may replace a cached structure; cached_property
        # writes the instance __dict__ directly, not through here
        raise AttributeError("MatchGraph is immutable")

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.tags)

    def face_count(self) -> int:
        """Number of face orbits of the loopless skeleton, isolated
        vertices counting one face each."""
        return self.faces[0] + sum(1 for rot in self.rotations if not rot)

    # -- derived structures, computed once per graph -------------------

    @cached_property
    def walk(self) -> tuple[tuple[int, ...], tuple[int, ...] | None]:
        """One breadth-first walk from each least unvisited vertex: each
        vertex's component number, and a 0/1 colour per vertex with each
        component's least vertex coloured 0, None when an edge joins two
        equal colours."""
        component = [-1] * self.n
        color = [0] * self.n
        bipartite = True
        count = 0
        for root in range(self.n):
            if component[root] >= 0:
                continue
            component[root] = count
            queue = [root]
            for v in queue:  # queue grows as it is walked
                other = 1 - color[v]
                for m in self.rotations[v]:
                    if component[m] < 0:
                        component[m] = count
                        color[m] = other
                        queue.append(m)
                    elif color[m] != other:
                        bipartite = False
            count += 1
        return tuple(component), tuple(color) if bipartite else None

    @cached_property
    def faces(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """The face trace of the embedding: the number of faces, and for
        each edge (i, j) the faces of its darts i -> j and j -> i.

        Darts are CSR offsets into the rotations: dart start[i] + k runs
        from i to rotations[i][k].  Faces are numbered in the order the
        trace first meets them, visiting the darts into vertex 0, then
        into vertex 1, and so on, each vertex in its rotation order.
        """
        rots = self.rotations
        start = [0]
        for rot in rots:
            start.append(start[-1] + len(rot))
        # each edge's two darts, found once: opp reverses a dart, and
        # forward[e] is the dart i -> j of edge e = (i, j)
        opp = [0] * start[-1]
        forward = []
        for i, j, _ in self.edges:
            d, r = start[i] + rots[i].index(j), start[j] + rots[j].index(i)
            opp[d], opp[r] = r, d
            forward.append(d)
        # dart j -> i continues to the next neighbour after j in the
        # cyclic order at i
        succ = [0] * len(opp)
        for s, t in zip(start, start[1:]):
            for d in range(s, t - 1):
                succ[opp[d]] = d + 1
            if t > s:
                succ[opp[t - 1]] = s
        # succ permutes the darts, so every walk closes where it began;
        # opp lists the darts into vertex 0, then into vertex 1, ...
        face = [-1] * len(succ)
        count = 0
        for d in opp:
            if face[d] < 0:
                while face[d] < 0:
                    face[d] = count
                    d = succ[d]
                count += 1
        return count, tuple([(face[d], face[opp[d]]) for d in forward])


def graph_text(g: MatchGraph) -> str:
    """One line per edge: 'u v num/den' with loops as u == v."""
    lines = []
    for i, j, w in g.edges:
        lines.append("%d %d %d/%d" % (i, j, w.numerator, w.denominator))
    for v, w in g.loops:
        lines.append("%d %d %d/%d" % (v, v, w.numerator, w.denominator))
    return "\n".join(lines) + ("\n" if lines else "")


# ---------------------------------------------------------------------
# dual graphs


def _cell_index(cells: Sequence[TriCell]) -> dict[tuple[int, int], int]:
    """Each cell's index among the sorted cells, keyed by its (u, v): in
    a region the parity of u + v fixes the orientation."""
    return {(u, v): k for k, (u, v, _) in enumerate(cells)}


def _cell_rotations(index: dict[tuple[int, int], int],
                    cells: Iterable[TriCell]) -> tuple[tuple[int, ...], ...]:
    """For each of the given cells, the indices of its neighbours in the
    indexed region, in counterclockwise order."""
    get = index.get
    rotations = []
    for u, v, orient in cells:
        if orient == UP:
            ks = (get((u, v + 1)), get((u - 1, v)), get((u, v - 1)))
        else:
            ks = (get((u + 1, v)), get((u, v + 1)), get((u, v - 1)))
        rotations.append(tuple([k for k in ks if k is not None]))
    return tuple(rotations)


def dual_graph(region: Region) -> MatchGraph:
    """Adjacency graph of the region's cells, weights 1, CCW embedding.

    Free boundary edges do not contribute edges here; they matter only
    to the free-boundary counting routines.
    """
    rotations = _cell_rotations(_cell_index(region.cells), region.cells)
    edges = sorted((i, j, ONE) for i, rot in enumerate(rotations)
                   for j in rot if j > i)
    return MatchGraph(tuple(region.cells), tuple(edges), (), rotations)


# ---------------------------------------------------------------------
# symmetries

class SymmetryElement(NamedTuple):
    """A permutation of one region's cells (shared, not copied), with the
    name it was built from: perm[k] is the index of cells[k]'s image."""

    kind: str
    cells: tuple[TriCell, ...]
    perm: tuple[int, ...]


def _point_map(kind: str, cx2: int, cy2: int):
    if kind == "Identity":
        return lambda p: p
    if kind == "ReflH":
        if cy2 % 2:
            raise SymmetryAbsentError("horizontal mirror is not a lattice map")
        return lambda p: (p[0], cy2 - p[1])
    if kind == "ReflV":
        if cx2 % 2:
            raise SymmetryAbsentError("vertical mirror is not a lattice map")
        return lambda p: (cx2 - p[0], p[1])
    if kind == "Rot180":
        if (cx2 + cy2) % 2:
            raise SymmetryAbsentError("half turn is not a lattice map")
        return lambda p: (cx2 - p[0], cy2 - p[1])
    if kind in ("Rot60", "Rot120"):
        if cx2 % 2 or cy2 % 2 or (cx2 // 2 + cy2 // 2) % 2:
            raise SymmetryAbsentError(
                "rotation center is not a lattice point")
        cx, cy = cx2 // 2, cy2 // 2
        if kind == "Rot60":
            def rot(p, cx=cx, cy=cy):
                dx, dy = p[0] - cx, p[1] - cy
                return (cx + (dx - dy) // 2, cy + (3 * dx + dy) // 2)
        else:
            def rot(p, cx=cx, cy=cy):
                dx, dy = p[0] - cx, p[1] - cy
                return (cx - (dx + dy) // 2, cy + (3 * dx - dy) // 2)
        return rot
    raise SymmetryAbsentError("unknown symmetry kind %r" % (kind,))


def _centroid3(cell: TriCell) -> tuple[int, int]:
    return (3 * cell.u + (1 if cell.orient == UP else 2), 3 * cell.v)


def _cell_perm(region: Region, kind: str, cx2: int, cy2: int) -> list[int]:
    """The named map about the center (cx2 / 2, cy2 / 2), in tripled
    coordinates, as a permutation of the region's cell indices."""
    pmap = _point_map(kind, cx2, cy2)
    cells = region.cells
    get = _cell_index(cells).get
    perm = []
    for cell in cells:
        x, y = pmap(_centroid3(cell))
        u, r = divmod(x, 3)
        v, s = divmod(y, 3)
        if s or not r:
            raise SymmetryAbsentError(
                "%s does not preserve unit cells" % (kind,))
        # "U" (r = 1) needs u + v odd, "D" (r = 2) needs u + v even
        if (u + v + r) % 2:
            raise SymmetryAbsentError(
                "%s does not preserve the lattice on %s" % (kind, region.family))
        k = get((u, v))
        if k is None:
            raise SymmetryAbsentError(
                "%s does not map the region to itself (cell %r -> %r)"
                % (kind, tuple(cell), (u, v, UP if r == 1 else DOWN)))
        perm.append(k)
    if len(set(perm)) != len(perm):
        raise ContractError("%s is not injective" % (kind,))
    if ({pmap(_centroid3(nb)) for nb in cell_neighbors(cells[0])}
            != {_centroid3(nb) for nb in cell_neighbors(cells[perm[0]])}):
        raise ContractError("%s is not a graph automorphism" % (kind,))
    return perm


def symmetry(region: Region, kind: str) -> SymmetryElement:
    """The named symmetry as a cell permutation of the region.

    The center and axes are taken from the bounding box of the region's
    corners.  Each cell is mapped through its tripled centroid, (3u+1, 3v)
    for "U" and (3u+2, 3v) for "D", which the point map sends to the
    tripled centroid of the image cell.  Raises SymmetryAbsentError when
    the map is not a lattice isometry or does not send the region onto
    itself.  The point map is affine, so one cell whose three lattice
    neighbours go to those of its image makes the map an automorphism;
    that and injectivity are checked once, a failure raising ContractError.
    The region keeps the element; a refusal is not kept and raises again.

    A mirror or half turn of the region maps the corner box onto itself,
    and a sixth turn's cube is a half turn, so their centers are the
    box's; a third turn's need not be.  A Rot120 refused about the box's
    center is tried about the centroid of the region's cells, which every
    isometry of the region fixes; if that fails too, the refusal about
    the box's center stands.
    """
    if kind in region._symmetries:
        return region._symmetries[kind]
    xmin, xmax, ymin, ymax = region_corner_bounds(region)
    try:
        # tripling the center keeps every condition _point_map checks on it
        perm = _cell_perm(region, kind, 3 * (xmin + xmax), 3 * (ymin + ymax))
    except SymmetryAbsentError as refusal:
        n = len(region.cells)
        cx2 = 2 * sum(_centroid3(cell)[0] for cell in region.cells)
        cy2 = 6 * sum(cell.v for cell in region.cells)
        if kind != "Rot120" or cx2 % n or cy2 % n:
            raise
        try:
            perm = _cell_perm(region, kind, cx2 // n, cy2 // n)
        except SymmetryAbsentError:
            raise refusal from None
    elem = region._symmetries[kind] = SymmetryElement(kind, region.cells,
                                                      tuple(perm))
    return elem


def compose(f: SymmetryElement, g: SymmetryElement) -> SymmetryElement:
    """f after g, on a common region."""
    if f.cells != g.cells:
        raise ContractError("elements live on different regions")
    return SymmetryElement("%s*%s" % (f.kind, g.kind), f.cells,
                           tuple(f.perm[k] for k in g.perm))


def identity_element(region: Region) -> SymmetryElement:
    return SymmetryElement("Identity", region.cells,
                           tuple(range(len(region.cells))))


def symmetry_group(region: Region, kinds: Sequence[str]) -> list[SymmetryElement]:
    """Closure of the named symmetries under composition.

    The identity comes first, then the named symmetries in order (each
    unless it repeats an earlier element), then their products.  Each
    round composes every generator with the elements the previous round
    found; in a finite group that reaches every product.
    """
    ident = identity_element(region)
    elems = {ident.perm: ident}
    gens = [symmetry(region, kind) for kind in kinds]
    for e in gens:
        elems.setdefault(e.perm, e)
    frontier = list(elems.values())
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(g, f)
                if h.perm not in elems:
                    elems[h.perm] = h
                    new.append(h)
        frontier = new
    return list(elems.values())


# ---------------------------------------------------------------------
# quotients


def quotient_graph(elem: SymmetryElement) -> MatchGraph:
    """Quotient of the dual graph of the element's region by the cyclic
    group the element generates, built from the element's cells.

    The action must be free on cells.  Orbits become vertices tagged
    with the sorted tuple of their cells; edge orbits with endpoints in
    one vertex orbit become loops.  Only an orbit around the rotation
    center can do so, so a quotient has at most one loop.  An edge orbit
    that is not itself a partial matching (its edges share cells, as the
    six around the center of Rot60) can never be used by a symmetric
    matching.  With an odd number of quotient vertices every perfect
    matching would have to use the loop, so such an orbit is dropped.
    With an even number parity already keeps the loop out of every
    perfect matching, and it stays in the graph as printed.

    Each vertex is read off its orbit's least cell.  The action being
    free, every edge orbit to another vertex orbit has exactly one edge
    there, so an edge's weight is the number of the least cell's
    neighbours in the other orbit.  An edge orbit inside the orbit meets
    the least cell at orbit[t] and orbit[m - t], and counts once, at
    2t <= m; it is a partial matching exactly when 2t = m.
    """
    if elem.kind not in ("Rot60", "Rot120", "Rot180"):
        raise ContractError(
            "quotient requires a rotation generator, got %r" % (elem.kind,))
    cells, perm = elem.cells, elem.perm
    if not cells:
        raise ContractError("an element with no cells has no quotient")
    orbits: list[list[int]] = []
    orbit_of = [-1] * len(cells)
    for start in range(len(cells)):
        if orbit_of[start] >= 0:
            continue
        orbit = [start]
        cur = perm[start]
        while cur != start:
            orbit.append(cur)
            cur = perm[cur]
        for v in orbit:
            orbit_of[v] = len(orbits)
        orbits.append(orbit)
    m = max(len(o) for o in orbits)
    if any(len(o) != m for o in orbits):
        raise ContractError(
            "symmetry does not act freely on cells; quotient undefined")
    # each orbit is found from its least cell and the cells are sorted,
    # so the orbits already come in the order of their tags
    tags = tuple(tuple(cells[v] for v in sorted(o)) for o in orbits)
    n_q = len(orbits)

    edges: list[tuple[int, int, Fraction]] = []
    loops: list[tuple[int, Fraction]] = []
    rotations = []
    adjacency = _cell_rotations(_cell_index(cells),
                                [cells[orbit[0]] for orbit in orbits])
    for o, (orbit, adjacent) in enumerate(zip(orbits, adjacency)):
        nbs = [orbit_of[c] for c in adjacent]
        rot = tuple(dict.fromkeys(q for q in nbs if q != o))
        rotations.append(rot)
        edges += [(o, q, _COUNTS[nbs.count(q)]) for q in sorted(rot) if q > o]
        if o in nbs:
            ts = [orbit.index(c) for c in adjacent if orbit_of[c] == o]
            k = sum(1 for t in ts
                    if 2 * t == m or (2 * t < m and n_q % 2 == 0))
            if k:
                loops.append((o, _COUNTS[k]))
    return MatchGraph(tags, tuple(edges), tuple(loops), tuple(rotations))


def without_vertices(g: MatchGraph, drop: Iterable[int]) -> MatchGraph:
    """Induced subgraph on the remaining vertices, reindexed."""
    gone = set(drop)
    keep = [i for i in range(g.n) if i not in gone]
    rank = {old: new for new, old in enumerate(keep)}
    tags = tuple(g.tags[i] for i in keep)
    edges = tuple(sorted((rank[i], rank[j], wt) for i, j, wt in g.edges
                         if i not in gone and j not in gone))
    loops = tuple(sorted((rank[v], wt) for v, wt in g.loops if v not in gone))
    rotations = tuple(tuple(rank[x] for x in g.rotations[i] if x not in gone)
                      for i in keep)
    return MatchGraph(tags, edges, loops, rotations)


def remove_loop_vertex(g: MatchGraph) -> tuple[MatchGraph, Fraction]:
    """Delete the unique looped vertex, returning the loop weight.

    Meant for graphs with an odd number of vertices, where parity forces
    the loop into every matching.
    """
    if len(g.loops) != 1:
        raise ContractError("expected exactly one loop, found %d" % len(g.loops))
    v, w = g.loops[0]
    return without_vertices(g, {v}), w


def normalize_loops(g: MatchGraph) -> tuple[MatchGraph, Fraction]:
    """Remove a forced loop so the determinant applies, keeping the count.

    With a single loop parity decides: on an even vertex count no
    perfect matching can use it, so the graph is returned as it is and
    the determinant ignores the loop; on an odd count it is forced, so
    its vertex is removed and its weight remembered.  Two or more loops
    can be used in pairs, which is out of scope.
    """
    if len(g.loops) > 1:
        raise ContractError("cannot normalize %d loops" % len(g.loops))
    if not g.loops or g.n % 2 == 0:
        return g, ONE
    return remove_loop_vertex(g)


# ---------------------------------------------------------------------
# axis factorization


class FactorSplit(NamedTuple):
    """Result of the axis surgery: M(g) = 2**multiplier_log2 * MGF(subgraph)."""

    subgraph: MatchGraph
    multiplier_log2: int


def tag_cells(tag) -> tuple[TriCell, ...]:
    """The cells a vertex tag names: a dual graph tags a vertex with its
    cell, a quotient with the sorted tuple of its orbit's cells.  Any
    other tag raises ContractError."""
    if isinstance(tag, TriCell):
        return (tag,)
    if (isinstance(tag, tuple) and tag
            and all(isinstance(c, TriCell) for c in tag)):
        return tag
    raise ContractError("vertex tag %r names no cells" % (tag,))


def _vertex_action(g: MatchGraph, elem: SymmetryElement,
                   members: list[tuple[TriCell, ...]]) -> list[int]:
    """Action of a region symmetry on the vertices of g, members[v] being
    the cells v's tag names: v goes to the vertex holding their images."""
    index = {c: k for k, c in enumerate(elem.cells)}
    try:
        cells = [frozenset(index[c] for c in m) for m in members]
        vertex_of = {s: v for v, s in enumerate(cells)}
        out = [vertex_of[frozenset(elem.perm[k] for k in s)] for s in cells]
    except KeyError:
        raise SymmetryAbsentError("symmetry does not permute the graph's tags")
    weight = {(i, j): w for i, j, w in g.edges}
    for i, j, w in g.edges:
        a, b = out[i], out[j]
        if weight.get((a, b) if a < b else (b, a)) != w:
            raise SymmetryAbsentError("symmetry is not a weighted automorphism")
    return out


def factorization_split(g: MatchGraph, axis: SymmetryElement) -> FactorSplit:
    """Surgery along the mirror axis of a loopless symmetric graph.

    The axis element must induce an involution on vertices whose fixed
    vertices (the axis row) all sit at one height.  Every fixed vertex
    loses its edge to the upper side and every edge between two fixed
    vertices has its weight halved; the count of matchings of g equals
    2**(number of halved edges) times the matching generating function
    of the result.  That holds when every fixed vertex lies on an axis
    edge; one on none raises ContractError, since cutting above it can
    miscount (Ciucu's theorem cuts above and below in turn).
    """
    if g.loops:
        raise ContractError(
            "cannot split a graph with a loop: a Rot180 quotient keeps one "
            "when the half-turn centre is the midpoint of a lattice edge")
    members = [tag_cells(t) for t in g.tags]
    sigma = _vertex_action(g, axis, members)
    if any(sigma[s] != i for i, s in enumerate(sigma)):
        raise ContractError("axis map not an involution")
    row = [min(m).v for m in members]
    levels = {row[i] for i, s in enumerate(sigma) if s == i}
    if len(levels) > 1:
        raise ContractError("axis vertices not at a single height")
    level = min(levels, default=None)
    # halve each axis pair, drop each axis vertex's edge to the upper side
    edges = []
    halved = 0
    paired = set()
    for i, j, w in g.edges:
        fi, fj = sigma[i] == i, sigma[j] == j
        if fi and fj:
            edges.append((i, j, w * HALF))
            halved += 1
            paired.update((i, j))
        elif not (fi or fj) or row[j if fi else i] <= level:
            edges.append((i, j, w))
    lone = [i for i, s in enumerate(sigma) if s == i and i not in paired]
    if lone:
        raise ContractError("axis vertex %d lies on no axis edge, so the "
                            "split need not keep the count" % lone[0])
    kept = {d for i, j, _ in edges for d in ((i, j), (j, i))}
    rotations = tuple(tuple(x for x in rot if (i, x) in kept)
                      for i, rot in enumerate(g.rotations))
    return FactorSplit(MatchGraph(g.tags, tuple(edges), (), rotations), halved)


def central_axis_split(region: Region) -> tuple[FactorSplit, Fraction]:
    """Axis surgery on the central (Rot180) quotient of a region.

    The quotient's loops are normalized as for the determinant: an odd
    quotient loses its looped vertex, while an even one keeps its
    dead-weight loop, which the split refuses with ContractError.
    Returns the split and the removed loop's weight (1 without one), so
    the quotient has loop_weight * 2**multiplier_log2 * MGF(subgraph)
    matchings.
    """
    q = quotient_graph(symmetry(region, "Rot180"))
    q, loop_weight = normalize_loops(q)
    return factorization_split(q, symmetry(region, "ReflH")), loop_weight


def split_dual_region(split: FactorSplit) -> Region:
    """Redraw the surgered graph as a region: every vertex keeps the
    orbit member on or below the axis (on the axis: the western one)."""
    tagged = [tag_cells(t) for t in split.subgraph.tags]
    vs = [c.v for members in tagged for c in members]
    if not vs:
        raise ContractError("an empty split has no axis")
    lvl2 = min(vs) + max(vs)
    cells = []
    for members in tagged:
        below = [c for c in members if 2 * c.v < lvl2]
        if below:
            if len(below) != 1:
                raise ContractError("orbit has several cells below the axis")
            cells.append(below[0])
        else:
            on_axis = sorted(c for c in members if 2 * c.v == lvl2)
            if not on_axis:
                raise ContractError("orbit entirely above the axis")
            cells.append(on_axis[0])
    return Region("SplitDual", (), tuple(sorted(cells)))

