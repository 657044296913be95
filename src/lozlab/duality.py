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
sorted cells, the dual graph's vertex numbering: perm[k] is the index
of the image of cell k, and every consumer reads perm directly.  Every
map is about the centroid of the region's cells, and a kind is refused
unless it is a lattice isometry about that point, which the point map
alone decides.  Every cell's tripled centroid, an integer point, is
mapped to the tripled centroid of its image; the map is affine, so one
cell and its three lattice neighbours check it once.  A group is closed
by composing its generators with the newest elements.  The region owns
its cell index keyed by (u, v), its strip runs and its centroid, as
lattice says: the index serves the symmetries, the dual graph,
counting's cell searches and the central quotient, so a region's cells
are indexed once, and only the public quotient_graph, which holds the
element alone, builds its own through the same lattice function.

The identity, both mirrors and the half turn keep strips, sending each
strip onto a strip row by row, so symmetry looks up only the images of
each run's two end cells: when they lie in one strip n - 1 indices
apart, the run's image is that index range.  Any other run, and every
cell under Rot60 or Rot120, is looked up cell by cell, so perm and
every refusal are those of the per-cell map.

The quotient under a rotation identifies each orbit of cells to one
vertex, in one pass over the cycles of perm, and reads that vertex off
the neighbours of the orbit's least cell, the only ones it looks up, in
the pass that builds the vertex.  When those lie in distinct other
orbits the vertex takes them as its rotation and unit edges directly.
Otherwise parallel edge orbits between the same pair of vertex orbits
are merged into a single edge whose weight is the multiplicity, which
leaves matching generating functions unchanged, and an orbit of edges
whose endpoints fall into the same vertex orbit becomes a loop when a
symmetric matching can use it.

factorization_split performs the axis surgery on a graph that is
mirror-symmetric about a horizontal axis of vertices: every axis
vertex's edge to the upper side is deleted and every edge joining two
axis vertices has its weight halved.  The matching count of the input
graph then equals 2**multiplier_log2 times the matching generating
function of the surgered graph, provided every axis vertex lies on an
axis edge; a graph with an axis vertex on none is refused.  The axis
acts on a graph's vertices through the sorted cell indices of their
tags: each vertex goes to the vertex of its least member's image.
central_axis_split reads no tags: it works on the Rot180 quotient's
unchecked orbit parts, drops a forced loop's vertex by rank, and reads
the ReflH action off each orbit's least cell, so it builds and checks
only the subgraph it returns.
"""

from __future__ import annotations

from functools import cached_property
from fractions import Fraction
from operator import ge
from typing import Hashable, Iterable, NamedTuple, Sequence

from .errors import ContractError, SymmetryAbsentError
from .lattice import (
    DOWN,
    UP,
    Region,
    TriCell,
    _cell_index,
    _centroid3,
    cell_neighbors,
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
    and loops, endpoints in range, positive Fraction weights (each
    distinct weight object once), a rotation system that lists exactly
    each vertex's neighbours, and Euler's formula for the embedding,
    whose component count it reads off the walk.  The face trace checks
    the rotations as it claims each edge's two darts, and only a fault
    makes it scan the vertices for the lowest one at fault.  The checks
    fail in the order listed.  A violation raises ContractError.
    """

    def __new__(cls, tags, edges, loops, rotations):
        self = super().__new__(cls, tags, edges, loops, rotations)
        n = len(self.tags)
        if any(map(ge, self.tags, self.tags[1:])):
            raise ContractError("tags not sorted/unique")
        pairs = [(i, j) for i, j, _ in self.edges]
        if any(map(ge, pairs, pairs[1:])):
            raise ContractError("edges not sorted/unique")
        # each distinct weight object is checked once; only a fault
        # makes the scan below name the first faulty edge
        weights = {id(w): w for _, _, w in self.edges}.values()
        if not (all(isinstance(w, Fraction) and w.numerator > 0
                    for w in weights)
                and all(0 <= i < j < n for i, j in pairs)):
            for i, j, w in self.edges:
                if not 0 <= i < j < n:
                    raise ContractError("bad edge endpoints (%r, %r)" % (i, j))
                if not (isinstance(w, Fraction) and w.numerator > 0):
                    raise ContractError("bad weight %r" % (w,))
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
        # the face trace checks the rotations against the edges first
        v, e = n, len(self.edges)
        f, c = self.face_count(), max(self.walk[0], default=-1) + 1
        if v - e + f != 2 * c:
            raise ContractError("embedding not planar: V=%d E=%d F=%d C=%d"
                                % (v, e, f, c))
        return self

    def _rotation_fault(self) -> ContractError:
        """The first vertex whose rotation is not its neighbour list."""
        nbrs: list[list[int]] = [[] for _ in self.rotations]
        for i, j, _ in self.edges:  # sorted, so each list comes out sorted
            nbrs[i].append(j)
            nbrs[j].append(i)
        for i, rot in enumerate(self.rotations):
            try:
                if sorted(rot) == nbrs[i]:
                    continue
            except TypeError:  # entries that do not compare
                pass
            if len(rot) != len(set(rot)):
                return ContractError("repeated neighbor in rotation at %d" % i)
            return ContractError("rotation disagrees with edges at %d" % i)
        return ContractError("rotation system is not the adjacency")

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
        into vertex 1, and so on, each vertex in its rotation order.  A
        rotation system that is not the adjacency raises ContractError,
        which names the lowest vertex at fault.
        """
        rots = self.rotations
        # each edge claims its two darts: opp reverses a dart, and
        # forward[e] is the dart i -> j of edge e = (i, j).  The rotation
        # system is the adjacency exactly when there are two darts per
        # edge and no dart is left unclaimed or claimed twice.
        forward = []
        try:
            start = [0]
            for rot in rots:
                start.append(start[-1] + len(rot))
            opp = [-1] * start[-1]
            if len(opp) != 2 * len(self.edges):
                raise ValueError
            for i, j, _ in self.edges:
                d = start[i] + rots[i].index(j)
                r = start[j] + rots[j].index(i)
                if opp[d] >= 0 or opp[r] >= 0:
                    raise ValueError
                opp[d], opp[r] = r, d
                forward.append(d)
        except (AttributeError, TypeError, ValueError):
            raise self._rotation_fault() from None
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
        # an inner cell keeps its full triple; a boundary cell drops
        # the neighbours outside the region
        rotations.append(ks if None not in ks
                         else tuple([k for k in ks if k is not None]))
    return tuple(rotations)


def dual_graph(region: Region) -> MatchGraph:
    """Adjacency graph of the region's cells, weights 1, CCW embedding.

    Free boundary edges do not contribute edges here; they matter only
    to the free-boundary counting routines.
    """
    rotations = _cell_rotations(region.cell_index, region.cells)
    # cells sort by (u, v), so a "U" cell's one higher neighbour is
    # (u, v+1), and a "D" cell's are (u, v+1) < (u+1, v): read backwards,
    # each rotation gives its higher neighbours in order, and the edges
    # come sorted
    edges = [(i, j, ONE) for i, rot in enumerate(rotations)
             for j in reversed(rot) if j > i]
    return MatchGraph(tuple(region.cells), tuple(edges), (), rotations)


# ---------------------------------------------------------------------
# symmetries

class SymmetryElement(NamedTuple):
    """A permutation of one region's cells (shared, not copied), with the
    name it was built from: perm[k] is the index of cells[k]'s image."""

    kind: str
    cells: tuple[TriCell, ...]
    perm: tuple[int, ...]


def _point_map(kind: str, cx2, cy2):
    """The named map of tripled points about (cx2 / 2, cy2 / 2), refused
    unless it is a lattice isometry about that center, as about a
    Fraction coordinate that it reads.  Each test is exactly that
    condition: ReflH cy2 = 0 (mod 6), ReflV cx2 = 0 (mod 6), Rot180 both
    = 0 (mod 3) with an even sum, Rot60 a lattice point, and Rot120 a
    lattice point or a cell's centroid."""
    if kind == "Identity":
        return lambda p: p
    if kind == "ReflH":
        if cy2 % 6:
            raise SymmetryAbsentError("horizontal mirror is not a lattice map")
        return lambda p: (p[0], cy2 - p[1])
    if kind == "ReflV":
        if cx2 % 6:
            raise SymmetryAbsentError("vertical mirror is not a lattice map")
        return lambda p: (cx2 - p[0], p[1])
    if kind == "Rot180":
        if cx2 % 3 or cy2 % 3 or (cx2 + cy2) % 2:
            raise SymmetryAbsentError("half turn is not a lattice map")
        return lambda p: (cx2 - p[0], cy2 - p[1])
    if kind in ("Rot60", "Rot120"):
        if (cx2 % 2 or cy2 % 6 or (cx2 // 2 + cy2 // 2) % 2
                or kind == "Rot60" and cx2 % 3):
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


def symmetry(region: Region, kind: str) -> SymmetryElement:
    """The named symmetry as a cell permutation of the region.

    Every map is taken about the centroid of the region's cells, which
    every isometry of the region fixes.  Each cell is mapped through its
    tripled centroid, (3u+1, 3v) for "U" and (3u+2, 3v) for "D", which
    the point map sends to the tripled centroid of the image cell.
    Raises SymmetryAbsentError when the map is not a lattice isometry
    about the centroid, which _point_map alone decides, or does not send
    the region onto itself, and ContractError for an empty region.  The
    point map is affine, so one cell whose three lattice neighbours go to
    those of its image makes the map an automorphism; that and
    injectivity are checked once, a failure raising ContractError.  The
    region keeps the element; a refusal is not kept and raises again.
    The centroid, the cell index and the strip runs are the region's
    own, shared by every kind.  A map that keeps strips looks up only
    the images of each run's two end cells, as the module docstring
    says, and the first run with a cell that has no image ends the
    pass; perm, and each refusal, is that of mapping every cell.
    """
    if kind in region._symmetries:
        return region._symmetries[kind]
    cells = region.cells
    pmap = _point_map(kind, *region.centroid)
    get = region.cell_index.get

    def images(run: Sequence[TriCell]) -> list[int | None]:
        # _centroid3 inlined: each cell's image, looked up as it is mapped
        return [get((x // 3, y // 3)) for u, v, orient in run
                for x, y in [pmap((3 * u + (1 if orient == UP else 2),
                                   3 * v))]]

    if pmap((0, 3))[0] != pmap((0, 0))[0]:
        perm = images(cells)  # the map turns strips
    else:
        perm = []
        for u, v, k, n in region.strip_runs:
            # the tripled centroids of the run's first and last cells
            xa, ya = pmap((3 * u + 2 - ((u + v) & 1), 3 * v))
            w = v + n - 1
            xb, yb = pmap((3 * u + 2 - ((u + w) & 1), 3 * w))
            a, b = get((xa // 3, ya // 3)), get((xb // 3, yb // 3))
            if (a is None or b is None or xa // 3 != xb // 3
                    or abs(b - a) != n - 1):
                perm += images(cells[k:k + n])
                if None in perm:
                    break  # the refusal names this run's unmapped cell
            else:
                step = 1 if a <= b else -1
                perm += range(a, b + step, step)
    if None in perm:
        k = perm.index(None)
        x, y = pmap(_centroid3(cells[k]))
        raise SymmetryAbsentError(
            "%s does not map the region to itself (cell %r -> %r)"
            % (kind, tuple(cells[k]), (x // 3, y // 3,
                                       UP if x % 3 == 1 else DOWN)))
    if len(set(perm)) != len(cells):
        raise ContractError("%s is not injective" % (kind,))
    if ({pmap(_centroid3(nb)) for nb in cell_neighbors(cells[0])}
            != {_centroid3(nb) for nb in cell_neighbors(cells[perm[0]])}):
        raise ContractError("%s is not a graph automorphism" % (kind,))
    elem = region._symmetries[kind] = SymmetryElement(kind, cells, tuple(perm))
    return elem


def compose(f: SymmetryElement, g: SymmetryElement) -> SymmetryElement:
    """f after g, on a common region."""
    if f.cells != g.cells:
        raise ContractError("elements live on different regions")
    fp = f.perm
    return SymmetryElement("%s*%s" % (f.kind, g.kind), f.cells,
                           tuple([fp[k] for k in g.perm]))


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
    return MatchGraph(*_quotient_parts(elem, _cell_index(elem.cells))[0])


def _quotient_parts(elem: SymmetryElement,
                    index: dict[tuple[int, int], int]):
    """The quotient's fields, (tags, edges, loops, rotations), unchecked,
    with its orbits, each a list of cell indices from its least cell on,
    and orbit_of, each cell's orbit, which is its vertex; index is the
    cell index of the element's region."""
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
        o = len(orbits)
        for v in orbit:
            orbit_of[v] = o
        orbits.append(orbit)
    m = max(len(o) for o in orbits)
    if any(len(o) != m for o in orbits):
        raise ContractError(
            "symmetry does not act freely on cells; quotient undefined")
    n_q = len(orbits)

    tags = []
    edges: list[tuple[int, int, Fraction]] = []
    loops: list[tuple[int, Fraction]] = []
    rotations = []
    get = index.get
    for o, orbit in enumerate(orbits):
        # each orbit is found from its least cell and the cells are
        # sorted, so the orbits already come in the order of their tags
        tags.append(tuple([cells[c] for c in sorted(orbit)]))
        # the least cell's neighbours in counterclockwise order, as
        # _cell_rotations reads them, each as its orbit
        u, v, orient = cells[orbit[0]]
        if orient == UP:
            adjacent = (get((u, v + 1)), get((u - 1, v)), get((u, v - 1)))
        else:
            adjacent = (get((u + 1, v)), get((u, v + 1)), get((u, v - 1)))
        nbs = [orbit_of[c] for c in adjacent if c is not None]
        if o not in nbs and len(set(nbs)) == len(nbs):
            # distinct other orbits: unit edges and no loop
            rotations.append(tuple(nbs))
            edges += [(o, q, ONE) for q in sorted(nbs) if q > o]
            continue
        rot = tuple(dict.fromkeys(q for q in nbs if q != o))
        rotations.append(rot)
        edges += [(o, q, _COUNTS[nbs.count(q)]) for q in sorted(rot) if q > o]
        if o in nbs:
            ts = [orbit.index(c) for c in adjacent
                  if c is not None and orbit_of[c] == o]
            k = sum(1 for t in ts
                    if 2 * t == m or (2 * t < m and n_q % 2 == 0))
            if k:
                loops.append((o, _COUNTS[k]))
    fields = (tuple(tags), tuple(edges), tuple(loops), tuple(rotations))
    return fields, orbits, orbit_of


def _induced(g, gone: set[int]):
    """The fields (tags, edges, loops, rotations) of g, a MatchGraph or
    its unchecked fields, induced on the vertices not in gone.  The new
    ranks increase with the old, so kept edges and loops stay sorted."""
    tags, edges, loops, rotations = g
    keep = [i for i in range(len(tags)) if i not in gone]
    rank = [-1] * len(tags)
    for new, old in enumerate(keep):
        rank[old] = new
    return (tuple([tags[i] for i in keep]),
            tuple([(rank[i], rank[j], wt) for i, j, wt in edges
                   if i not in gone and j not in gone]),
            tuple([(rank[v], wt) for v, wt in loops if v not in gone]),
            tuple([tuple([rank[x] for x in rotations[i] if x not in gone])
                   for i in keep]))


def without_vertices(g: MatchGraph, drop: Iterable[int]) -> MatchGraph:
    """Induced subgraph on the remaining vertices, reindexed."""
    return MatchGraph(*_induced(g, set(drop)))


def remove_loop_vertex(g: MatchGraph) -> tuple[MatchGraph, Fraction]:
    """Delete the unique looped vertex, returning the loop weight.

    Meant for graphs with an odd number of vertices, where parity forces
    the loop into every matching.
    """
    if len(g.loops) != 1:
        raise ContractError("expected exactly one loop, found %d" % len(g.loops))
    v, w = g.loops[0]
    return without_vertices(g, {v}), w


def _drop_forced_loop(g):
    """The loop rule of the determinant, on g, a MatchGraph or its
    unchecked fields: (h, weight, v).  With a single loop parity
    decides: on an even vertex count no perfect matching can use it, so
    h is g itself, dead-weight loop and all; on an odd count it is
    forced, so h is the fields of g less its vertex v, and weight its
    loop's.  Without a loop h is g, weight 1 and v None.  Two or more
    loops can be used in pairs, which is out of scope: ContractError."""
    tags, _, loops, _ = g
    if len(loops) > 1:
        raise ContractError("cannot normalize %d loops" % len(loops))
    if not loops or len(tags) % 2 == 0:
        return g, ONE, None
    (v, weight), = loops
    return _induced(g, {v}), weight, v


def normalize_loops(g: MatchGraph) -> tuple[MatchGraph, Fraction]:
    """Remove a forced loop so the determinant applies, keeping the count:
    g itself, or g less its forced loop's vertex, and that loop's weight
    (1 without one), by _drop_forced_loop's rule."""
    h, weight, v = _drop_forced_loop(g)
    return (h if v is None else MatchGraph(*h)), weight


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


_LOOPED = ("cannot split a graph with a loop: a Rot180 quotient keeps one "
           "when the half-turn centre is the midpoint of a lattice edge")
_UNPERMUTED = "symmetry does not permute the graph's tags"


def _vertex_action(elem: SymmetryElement,
                   members: list[tuple[TriCell, ...]]) -> list[int]:
    """Action of a region symmetry on the vertices of a graph, members[v]
    being the cells v's tag names: v goes to the vertex holding the
    image of its least member, whose members must be exactly the images
    of v's, compared as sorted cell index lists."""
    index = {c: k for k, c in enumerate(elem.cells)}
    perm = elem.perm
    try:
        ks = [sorted([index[c] for c in m]) for m in members]
        vertex_of = {k: v for v, m in enumerate(ks) for k in m}
        out = [vertex_of[perm[m[0]]] for m in ks]
    except KeyError:
        out = None
    if out is None or any(sorted([perm[k] for k in m]) != ks[w]
                          for m, w in zip(ks, out)):
        raise SymmetryAbsentError(_UNPERMUTED)
    return out


def _axis_surgery(g, sigma: list[int], row: list[int]) -> FactorSplit:
    """The surgery of factorization_split on g, a loopless MatchGraph or
    its unchecked fields, with sigma the axis action on its vertices and
    row[v] the height of v's least cell.  Only the subgraph it returns
    is built, and checked."""
    tags, edges, _, rotations = g
    weight = {(i, j): w for i, j, w in edges}
    for i, j, w in edges:
        a, b = sigma[i], sigma[j]
        # equal weights are mostly one shared object: skip the Fraction test
        x = weight.get((a, b) if a < b else (b, a))
        if x is not w and x != w:
            raise SymmetryAbsentError("symmetry is not a weighted automorphism")
    if any(sigma[s] != i for i, s in enumerate(sigma)):
        raise ContractError("axis map not an involution")
    levels = {row[i] for i, s in enumerate(sigma) if s == i}
    if len(levels) > 1:
        raise ContractError("axis vertices not at a single height")
    level = min(levels, default=None)
    # halve each axis pair, drop each axis vertex's edge to the upper side
    kept_edges = []
    cut = set()
    halved = 0
    paired = set()
    for i, j, w in edges:
        fi, fj = sigma[i] == i, sigma[j] == j
        if fi and fj:
            kept_edges.append((i, j, w * HALF))
            halved += 1
            paired.update((i, j))
        elif not (fi or fj) or row[j if fi else i] <= level:
            kept_edges.append((i, j, w))
        else:
            cut.update(((i, j), (j, i)))
    lone = [i for i, s in enumerate(sigma) if s == i and i not in paired]
    if lone:
        raise ContractError("axis vertex %d lies on no axis edge, so the "
                            "split need not keep the count" % lone[0])
    # only the ends of a cut edge lose a neighbour
    rotations = list(rotations)
    for i in {i for i, _ in cut}:
        rotations[i] = tuple([x for x in rotations[i] if (i, x) not in cut])
    return FactorSplit(MatchGraph(tags, tuple(kept_edges), (),
                                  tuple(rotations)), halved)


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
        raise ContractError(_LOOPED)
    members = [tag_cells(t) for t in g.tags]
    return _axis_surgery(g, _vertex_action(axis, members),
                         [min(m).v for m in members])


def central_axis_split(region: Region) -> tuple[FactorSplit, Fraction]:
    """Axis surgery on the central (Rot180) quotient of a region.

    The quotient's loops are normalized as for the determinant: an odd
    quotient loses its looped vertex, while an even one keeps its
    dead-weight loop, which the split refuses with ContractError.
    Returns the split and the removed loop's weight (1 without one), so
    the quotient has loop_weight * 2**multiplier_log2 * MGF(subgraph)
    matchings.  The split works on the quotient's unchecked orbit parts
    and reads the ReflH action off each orbit's least cell: the orbit
    goes to the orbit of that cell's image, which must hold the images
    of all its cells.  It refuses what factorization_split of the
    normalized quotient refuses, with the same text and in the same
    order, and builds and checks only the subgraph it returns.
    """
    rot = symmetry(region, "Rot180")
    q, orbits, orbit_of = _quotient_parts(rot, region.cell_index)
    # an even quotient keeps its loop; an odd one's is forced, so its
    # vertex v goes and its weight stays
    h, loop_weight, v = _drop_forced_loop(q)
    axis = symmetry(region, "ReflH")
    if h[2]:
        raise ContractError(_LOOPED)
    perm = axis.perm
    sigma = [orbit_of[perm[o[0]]] for o in orbits]
    if ([orbit_of[k] for k in perm] != [sigma[o] for o in orbit_of]
            or v is not None and sigma[v] != v):
        raise SymmetryAbsentError(_UNPERMUTED)
    row = [rot.cells[o[0]].v for o in orbits]
    if v is not None:
        del row[v]
        sigma = [s - (s > v) for s in sigma if s != v]
    return _axis_surgery(h, sigma, row), loop_weight
