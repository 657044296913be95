"""Matching graphs dual to regions, their symmetries and reductions.

The dual graph of a region has a vertex for every cell and an edge for
every shared lattice edge, so tilings of the region by unit rhombi
correspond to perfect matchings of the dual graph.  Vertices carry tags
(the source cell, or the orbit of source cells after a quotient) and a
rotation system: the cyclic counterclockwise order of neighbors, which
fixes a planar embedding.  Edge weights are exact fractions; loops are
stored separately from ordinary edges and never take part in the
rotation system.  A graph is checked when it is built, and its derived
structures (adjacency, connected components, the face trace of the
embedding) are computed at most once per graph; the face trace serves
both the Euler check and the Kasteleyn orientation.

Symmetries of a region are stored as explicit cell permutations.  A
cell is mapped by arithmetic on its tripled centroid, an integer point;
the map is affine, so one cell and its three lattice neighbours check it
once.  A group is closed by composing its generators with the newest
elements.  The quotient of a dual graph under a rotation identifies
each orbit of cells to one vertex; an orbit of edges whose endpoints
fall into the same vertex orbit becomes a loop when a symmetric
matching can use it.  Parallel edge orbits between the same pair of
vertex orbits are merged into a single edge whose weight is the
multiplicity, which leaves matching generating functions unchanged.

factorization_split performs the axis surgery on a graph that is
mirror-symmetric about a horizontal axis of vertices: every axis
vertex's edge to the upper side is deleted and every edge joining two
axis vertices has its weight halved.  The matching count of the input
graph then equals 2**multiplier_log2 times the matching generating
function of the surgered graph.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Hashable, Iterable, Sequence

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


@dataclass(frozen=True)
class MatchGraph:
    """Weighted loopy graph with tagged vertices and a planar embedding.

    The constructor checks its input: sorted unique tags, edges and
    loops, endpoints in range, positive Fraction weights, a rotation
    system that lists exactly each vertex's neighbours, and Euler's
    formula for the embedding.  A violation raises ContractError.
    """

    tags: tuple[Hashable, ...]
    edges: tuple[tuple[int, int, Fraction], ...]
    loops: tuple[tuple[int, Fraction], ...] = ()
    rotations: tuple[tuple[int, ...], ...] | None = None

    def __post_init__(self):
        n = len(self.tags)
        if list(self.tags) != sorted(set(self.tags)):
            raise ContractError("tags not sorted/unique")
        pairs = [(i, j) for i, j, _ in self.edges]
        if pairs != sorted(set(pairs)):
            raise ContractError("edges not sorted/unique")
        for i, j, w in self.edges:
            if not 0 <= i < j < n:
                raise ContractError("bad edge endpoints (%r, %r)" % (i, j))
            if not (isinstance(w, Fraction) and w.numerator > 0):
                raise ContractError("bad weight %r" % (w,))
        loop_vs = [v for v, _ in self.loops]
        if loop_vs != sorted(set(loop_vs)):
            raise ContractError("loops not sorted/unique")
        for v, w in self.loops:
            if not 0 <= v < n:
                raise ContractError("bad loop vertex %r" % (v,))
            if not (isinstance(w, Fraction) and w.numerator > 0):
                raise ContractError("bad loop weight %r" % (w,))
        if self.rotations is not None:
            if len(self.rotations) != n:
                raise ContractError("rotation system has %d entries for %d "
                                    "vertices" % (len(self.rotations), n))
            for i, (rot, nbrs) in enumerate(zip(self.rotations,
                                                self._adjacency)):
                if len(rot) != len(set(rot)):
                    raise ContractError("repeated neighbor in rotation at %d"
                                        % i)
                if set(rot) != nbrs:
                    raise ContractError("rotation disagrees with edges at %d"
                                        % i)
            v, e = n, len(self.edges)
            f, c = self.face_count(), len(self._components)
            if v - e + f != 2 * c:
                raise ContractError("embedding not planar: V=%d E=%d F=%d C=%d"
                                    % (v, e, f, c))

    # -- basic queries ------------------------------------------------

    @property
    def n(self) -> int:
        return len(self.tags)

    def neighbor_sets(self) -> list[set[int]]:
        return [set(s) for s in self._adjacency]

    def components(self) -> list[set[int]]:
        return [set(c) for c in self._components]

    def index_of(self, tag) -> int:
        from bisect import bisect_left

        i = bisect_left(self.tags, tag)
        if i == len(self.tags) or self.tags[i] != tag:
            raise KeyError(tag)
        return i

    # -- embedding ----------------------------------------------------

    def faces(self) -> tuple[list[list[tuple[int, int]]],
                             dict[tuple[int, int], int]]:
        """Faces of the embedding as cycles of darts (i, j) and the face
        index of every dart."""
        faces = [list(cycle) for cycle in self._face_trace]
        return faces, {d: f for f, cycle in enumerate(faces) for d in cycle}

    def face_count(self) -> int:
        """Number of face orbits of the loopless skeleton, isolated
        vertices counting one face each."""
        return (len(self._face_trace)
                + sum(1 for rot in self.rotations if not rot))

    # -- derived structures, computed once per graph -------------------
    # neighbor_sets, components and faces hand out copies of these, so
    # no caller can alter what later callers see.

    @cached_property
    def _adjacency(self) -> list[set[int]]:
        adj: list[set[int]] = [set() for _ in range(self.n)]
        for i, j, _ in self.edges:
            adj[i].add(j)
            adj[j].add(i)
        return adj

    @cached_property
    def _components(self) -> list[set[int]]:
        adj = self._adjacency
        seen: set[int] = set()
        out = []
        for start in range(self.n):
            if start in seen:
                continue
            comp = {start}
            stack = [start]
            while stack:
                for m in adj[stack.pop()]:
                    if m not in comp:
                        comp.add(m)
                        stack.append(m)
            seen |= comp
            out.append(comp)
        return out

    @cached_property
    def _face_trace(self) -> list[list[tuple[int, int]]]:
        if self.rotations is None:
            raise ContractError("the graph has no embedding")
        succ: dict[tuple[int, int], tuple[int, int]] = {}
        for i, rot in enumerate(self.rotations):
            for pos, j in enumerate(rot):
                # dart (j -> i) continues to the next neighbor after j in
                # the cyclic order at i
                succ[(j, i)] = (i, rot[(pos + 1) % len(rot)])
        faces: list[list[tuple[int, int]]] = []
        face_of: dict[tuple[int, int], int] = {}
        for dart in succ:
            if dart in face_of:
                continue
            cycle = []
            d = dart
            while d not in face_of:
                face_of[d] = len(faces)
                cycle.append(d)
                d = succ[d]
            assert d == dart, "face trace did not close"
            faces.append(cycle)
        return faces


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


def dual_graph(region: Region) -> MatchGraph:
    """Adjacency graph of the region's cells, weights 1, CCW embedding.

    Free boundary edges do not contribute edges here; they matter only
    to the free-boundary counting routines.
    """
    cells = region.cells
    index = {c: i for i, c in enumerate(cells)}
    edges = []
    rotations = []
    for i, c in enumerate(cells):
        u, v = c.u, c.v
        # plain tuples hash and compare like the TriCells they spell
        if c.orient == UP:
            ccw = ((u, v + 1, DOWN), (u - 1, v, DOWN), (u, v - 1, DOWN))
        else:
            ccw = ((u + 1, v, UP), (u, v + 1, UP), (u, v - 1, UP))
        rot = tuple(index[d] for d in ccw if d in index)
        rotations.append(rot)
        edges.extend((i, j, ONE) for j in rot if j > i)
    return MatchGraph(tuple(cells), tuple(sorted(edges)), (),
                      tuple(rotations))


# ---------------------------------------------------------------------
# symmetries

KINDS = ("Identity", "Rot60", "Rot120", "Rot180", "ReflH", "ReflV")


@dataclass
class SymmetryElement:
    """A cell permutation of one region, with the name it was built from."""

    kind: str
    mapping: dict[TriCell, TriCell]


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
    """
    xmin, xmax, ymin, ymax = region_corner_bounds(region)
    # tripling the center keeps every condition _point_map checks on it
    pmap = _point_map(kind, 3 * (xmin + xmax), 3 * (ymin + ymax))
    have = region.cell_set
    mapping: dict[TriCell, TriCell] = {}
    for cell in region.cells:
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
        image = TriCell(u, v, UP if r == 1 else DOWN)
        if image not in have:
            raise SymmetryAbsentError(
                "%s does not map the region to itself (cell %r -> %r)"
                % (kind, tuple(cell), tuple(image)))
        mapping[cell] = image
    if len(set(mapping.values())) != len(mapping):
        raise ContractError("%s is not injective" % (kind,))
    cell = region.cells[0]
    if ({pmap(_centroid3(nb)) for nb in cell_neighbors(cell)}
            != {_centroid3(nb) for nb in cell_neighbors(mapping[cell])}):
        raise ContractError("%s is not a graph automorphism" % (kind,))
    return SymmetryElement(kind, mapping)


def compose(f: SymmetryElement, g: SymmetryElement) -> SymmetryElement:
    """f after g, on a common region."""
    if f.mapping.keys() != g.mapping.keys():
        raise ContractError("elements live on different regions")
    mapping = {c: f.mapping[g.mapping[c]] for c in g.mapping}
    return SymmetryElement("%s*%s" % (f.kind, g.kind), mapping)


def identity_element(region: Region) -> SymmetryElement:
    return SymmetryElement("Identity", {c: c for c in region.cells})


def symmetry_group(region: Region, kinds: Sequence[str]) -> list[SymmetryElement]:
    """Closure of the named symmetries under composition.

    The identity comes first, then the named symmetries in order (each
    unless it repeats an earlier element), then their products.  Each
    round composes every generator with the elements the previous round
    found; in a finite group that reaches every product.
    """
    def key(e: SymmetryElement) -> tuple[TriCell, ...]:
        return tuple(map(e.mapping.__getitem__, region.cells))

    ident = identity_element(region)
    elems = {key(ident): ident}
    gens = [symmetry(region, kind) for kind in kinds]
    for e in gens:
        elems.setdefault(key(e), e)
    frontier = list(elems.values())
    while frontier:
        new = []
        for f in frontier:
            for g in gens:
                h = compose(g, f)
                k = key(h)
                if k not in elems:
                    elems[k] = h
                    new.append(h)
        frontier = new
    return list(elems.values())


# ---------------------------------------------------------------------
# quotients


def quotient_graph(g: MatchGraph, elem: SymmetryElement) -> MatchGraph:
    """Quotient of a cell-tagged graph by the cyclic group the element
    generates.

    The action must be free on vertices.  Orbits become vertices tagged
    with the sorted tuple of their cells; edge orbits with endpoints in
    one vertex orbit become loops.  Only an orbit around the rotation
    center can do so, so a quotient has at most one loop.  An edge orbit
    that is not itself a partial matching (its edges share cells, as the
    six around the center of Rot60) can never be used by a symmetric
    matching.  With an odd number of quotient vertices every perfect
    matching would have to use the loop, so such an orbit is dropped.
    With an even number parity already keeps the loop out of every
    perfect matching, and it stays in the graph as printed.
    """
    if not all(isinstance(t, TriCell) for t in g.tags):
        raise ContractError("need a cell-tagged graph")
    if elem.kind not in ("Rot60", "Rot120", "Rot180"):
        raise ContractError(
            "quotient requires a rotation generator, got %r" % (elem.kind,))
    index = {t: i for i, t in enumerate(g.tags)}
    perm = [index[elem.mapping[t]] for t in g.tags]
    orbits: list[list[int]] = []
    orbit_of = [-1] * g.n
    for start in range(g.n):
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
    tags = [tuple(sorted(g.tags[v] for v in o)) for o in orbits]
    order = sorted(range(len(tags)), key=lambda i: tags[i])
    rank = {old: new for new, old in enumerate(order)}
    n_q = len(orbits)

    weights: dict[tuple[int, int], Fraction] = {}
    loops: dict[int, Fraction] = {}
    seen: set[tuple[int, int]] = set()
    for i, j, w in g.edges:
        if (i, j) in seen:
            continue
        a, b = i, j
        while True:
            seen.add((a, b) if a < b else (b, a))
            a, b = perm[a], perm[b]
            if (a, b) == (i, j) or (b, a) == (i, j):
                break
        oi, oj = rank[orbit_of[i]], rank[orbit_of[j]]
        if oi == oj:
            # position of j in i's orbit decides whether the orbit of
            # this edge is a valid symmetric partial matching
            orbit = orbits[orbit_of[i]]
            t = orbit.index(j) - orbit.index(i)
            if (2 * t) % len(orbit) and n_q % 2:
                continue
            loops[oi] = loops[oi] + w if oi in loops else w
        else:
            key = (min(oi, oj), max(oi, oj))
            weights[key] = weights[key] + w if key in weights else w

    edges = tuple(sorted((i, j, w) for (i, j), w in weights.items()))
    loop_list = tuple(sorted(loops.items()))

    rotations = None
    if g.rotations is not None:
        rots = []
        for o_new in range(n_q):
            rep = min(orbits[order[o_new]])
            rot = []
            for nb in g.rotations[rep]:
                q = rank[orbit_of[nb]]
                if q != o_new and q not in rot:
                    rot.append(q)
            rots.append(tuple(rot))
        rotations = tuple(rots)
    return MatchGraph(tuple(sorted(tags)), edges, loop_list, rotations)


def without_vertices(g: MatchGraph, drop: Iterable[int]) -> MatchGraph:
    """Induced subgraph on the remaining vertices, reindexed."""
    gone = set(drop)
    keep = [i for i in range(g.n) if i not in gone]
    rank = {old: new for new, old in enumerate(keep)}
    tags = tuple(g.tags[i] for i in keep)
    edges = tuple(sorted((rank[i], rank[j], wt) for i, j, wt in g.edges
                         if i not in gone and j not in gone))
    loops = tuple(sorted((rank[v], wt) for v, wt in g.loops if v not in gone))
    rotations = None
    if g.rotations is not None:
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


# ---------------------------------------------------------------------
# axis factorization


@dataclass(frozen=True)
class FactorSplit:
    """Result of the axis surgery: M(g) = 2**multiplier_log2 * MGF(subgraph)."""

    subgraph: MatchGraph
    multiplier_log2: int


def _tag_image(tag, mapping):
    if isinstance(tag, TriCell):
        return mapping[tag]
    return tuple(sorted(mapping[c] for c in tag))


def _tag_cells(tag) -> tuple[TriCell, ...]:
    return (tag,) if isinstance(tag, TriCell) else tuple(tag)


def induced_vertex_map(g: MatchGraph, elem: SymmetryElement) -> list[int]:
    """Action of a region symmetry on the vertices of g, via its tags."""
    out = []
    for t in g.tags:
        try:
            out.append(g.index_of(_tag_image(t, elem.mapping)))
        except KeyError:
            raise SymmetryAbsentError("symmetry does not permute the graph's tags")
    wmap = {(i, j): w for i, j, w in g.edges}
    for i, j, w in g.edges:
        a, b = out[i], out[j]
        if wmap.get((min(a, b), max(a, b))) != w:
            raise SymmetryAbsentError("symmetry is not a weighted automorphism")
    return out


def factorization_split(g: MatchGraph, axis: SymmetryElement) -> FactorSplit:
    """Surgery along the mirror axis of a loopless symmetric graph.

    The axis element must induce an involution on vertices whose fixed
    vertices (the axis row) all sit at one height.  Every fixed vertex
    loses its edge to the upper side and every edge between two fixed
    vertices has its weight halved; the count of matchings of g equals
    2**(number of halved edges) times the matching generating function
    of the result.
    """
    if g.loops:
        raise ContractError("remove loops before splitting")
    sigma = induced_vertex_map(g, axis)
    if not all(sigma[sigma[i]] == i for i in range(g.n)):
        raise ContractError("axis map not an involution")
    fixed = {i for i in range(g.n) if sigma[i] == i}

    def rep_v(i: int) -> int:
        return min(_tag_cells(g.tags[i]))[1]

    if fixed:
        levels = {rep_v(i) for i in fixed}
        if len(levels) != 1:
            raise ContractError("axis vertices not at a single height")
        level = levels.pop()
    else:
        level = None

    deleted: set[tuple[int, int]] = set()
    halved: set[tuple[int, int]] = set()
    for i, j, w in g.edges:
        fi, fj = i in fixed, j in fixed
        if fi and fj:
            halved.add((i, j))
        elif fi or fj:
            other = j if fi else i
            if rep_v(other) > level:
                deleted.add((i, j))
    edges = []
    for i, j, w in g.edges:
        if (i, j) in deleted:
            continue
        edges.append((i, j, w * HALF if (i, j) in halved else w))
    rotations = None
    if g.rotations is not None:
        adj: dict[int, set[int]] = {i: set() for i in range(g.n)}
        for i, j, _ in edges:
            adj[i].add(j)
            adj[j].add(i)
        rotations = tuple(tuple(x for x in g.rotations[i] if x in adj[i])
                          for i in range(g.n))
    sub = MatchGraph(g.tags, tuple(edges), (), rotations)
    return FactorSplit(sub, len(halved))


def central_axis_split(region: Region) -> tuple[FactorSplit, Fraction]:
    """Axis surgery on the central (Rot180) quotient of a region.

    An odd quotient first loses its looped vertex.  Returns the split
    and that loop's weight (1 without a loop), so the quotient has
    loop_weight * 2**multiplier_log2 * MGF(subgraph) matchings.
    """
    q = quotient_graph(dual_graph(region), symmetry(region, "Rot180"))
    loop_weight = Fraction(1)
    if q.loops:
        q, loop_weight = remove_loop_vertex(q)
    return factorization_split(q, symmetry(region, "ReflH")), loop_weight


def split_dual_region(split: FactorSplit) -> Region:
    """Redraw the surgered graph as a region: every vertex keeps the
    orbit member on or below the axis (on the axis: the western one)."""
    vs = [c.v for t in split.subgraph.tags for c in _tag_cells(t)]
    lvl2 = min(vs) + max(vs)
    cells = []
    for t in split.subgraph.tags:
        members = _tag_cells(t)
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


def axis_pair_dual_graph(region: Region) -> MatchGraph:
    """Dual graph with every edge between two top-row cells halved.

    The top row of a bottom-half region is its fold axis; matchings of
    the folded graph correspond to this weighting.
    """
    g = dual_graph(region)
    vmax = max(c.v for c in region.cells)
    edges = []
    for i, j, w in g.edges:
        if g.tags[i].v == vmax and g.tags[j].v == vmax:
            w = w * HALF
        edges.append((i, j, w))
    return MatchGraph(g.tags, tuple(edges), g.loops, g.rotations)
