"""Scalable vector drawings of regions, tilings, and graph overlays.

One lattice edge maps to 24 pixels.  Removed interior cells (the holes
of the holed and cored families) are painted dark gray, free boundary
edges are dashed, and everything else follows the plain line-drawing
style of a blackboard figure.  Output is a plain-text SVG document and
is byte-deterministic: same inputs, same string.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from .counting import first_matching
from .duality import MatchGraph, dual_graph
from .errors import ContractError, ParameterError
from .lattice import (Point, Region, TriCell, cell_corners, cell_edges,
                      hexagon, shared_edge)

SCALE = 24  # pixels per unit lattice edge

_X_UNIT = SCALE * math.sqrt(3) / 2  # one column step, px
_Y_UNIT = SCALE / 2                 # one doubled-row step, px
_MARGIN = SCALE

HOLE_FILL = "#555555"
LATTICE_STROKE = "#999999"
BOUNDARY_STROKE = "#000000"
TILE_STROKE = "#1a6fb5"
GRAPH_STROKE = "#b03030"

Pair = tuple[TriCell, TriCell]


def _fmt(value: float) -> str:
    out = "%.2f" % (value,)
    return "0.00" if out == "-0.00" else out


class _Canvas:
    """Pixel mapping plus a growing list of SVG elements."""

    def __init__(self, points: Iterable[Point]):
        pts = list(points)
        self.x0 = min(p[0] for p in pts)
        self.y0 = min(p[1] for p in pts)
        x1 = max(p[0] for p in pts)
        y1 = max(p[1] for p in pts)
        self.width = (x1 - self.x0) * _X_UNIT + 2 * _MARGIN
        self.height = (y1 - self.y0) * _Y_UNIT + 2 * _MARGIN
        self.body: list[str] = []

    def at(self, p: tuple[float, float]) -> tuple[float, float]:
        return ((p[0] - self.x0) * _X_UNIT + _MARGIN,
                (p[1] - self.y0) * _Y_UNIT + _MARGIN)

    def polygon(self, corners: Sequence[tuple[float, float]], **style):
        pts = " ".join("%s,%s" % (_fmt(x), _fmt(y))
                       for x, y in map(self.at, corners))
        self.body.append('<polygon points="%s"%s/>' % (pts, _style(style)))

    def line(self, p, q, **style):
        (x1, y1), (x2, y2) = self.at(p), self.at(q)
        self.body.append(
            '<line x1="%s" y1="%s" x2="%s" y2="%s"%s/>'
            % (_fmt(x1), _fmt(y1), _fmt(x2), _fmt(y2), _style(style)))

    def circle(self, p, radius: float, **style):
        x, y = self.at(p)
        self.body.append('<circle cx="%s" cy="%s" r="%s"%s/>'
                         % (_fmt(x), _fmt(y), _fmt(radius), _style(style)))

    def document(self) -> str:
        head = ('<svg xmlns="http://www.w3.org/2000/svg" '
                'width="%s" height="%s" viewBox="0 0 %s %s">'
                % (_fmt(self.width), _fmt(self.height),
                   _fmt(self.width), _fmt(self.height)))
        return "\n".join([head] + self.body + ["</svg>"]) + "\n"


def _style(kw) -> str:
    order = ("fill", "stroke", "stroke_width", "stroke_dasharray",
             "stroke_linecap")
    parts = []
    for key in order:
        if key in kw and kw[key] is not None:
            parts.append(' %s="%s"' % (key.replace("_", "-"), kw[key]))
    return "".join(parts)


def _ambient_holes(region: Region) -> tuple[TriCell, ...]:
    """Cells removed from the family's bounding hexagon, if any."""
    if region.family == "HoledHexagon":
        frame = hexagon(region.param("a"), region.param("a"),
                        2 * region.param("b"))
    elif region.family == "CoredHexagon":
        side = 2 * region.param("a") - 1
        frame = hexagon(side, side, 2 * region.param("b"))
    else:
        return ()
    present = region.cell_set
    return tuple(c for c in frame.cells if c not in present)


def _cell_center(cell: TriCell) -> tuple[float, float]:
    if cell.orient == "U":
        return (cell.u + 2 / 3, cell.v)
    return (cell.u + 1 / 3, cell.v)


def _tag_center(tag) -> tuple[float, float]:
    cells = (tag,) if isinstance(tag, TriCell) else tuple(tag)
    first = sorted(cells)[0]
    return _cell_center(first)


def first_tiling(region: Region) -> tuple[Pair, ...]:
    """A deterministic sample tiling: first in enumeration order, found
    under the search state cap."""
    g = dual_graph(region)
    matching = first_matching(g)
    if matching is None:
        note = " (free edges stay closed)" if region.free_edges else ""
        raise ParameterError("the region has no lozenge tiling to draw" + note)
    return tuple((g.tags[i], g.tags[j]) for i, j in matching)


def region_svg(region: Region,
               tiling: Iterable[Pair] | None = None,
               graph: MatchGraph | None = None) -> str:
    """Render a region, optionally overlaying a tiling or a graph."""
    holes = _ambient_holes(region)
    corner_pool = [p for c in list(region.cells) + list(holes)
                   for p in cell_corners(c)]
    canvas = _Canvas(corner_pool)

    for cell in holes:
        canvas.polygon(cell_corners(cell), fill=HOLE_FILL)

    incidence: dict = {}
    for cell in region.cells:
        for edge in cell_edges(cell):
            incidence[edge] = incidence.get(edge, 0) + 1
    free = set(region.free_edges)
    for edge in sorted(incidence):
        if edge in free:
            continue
        if incidence[edge] == 1:
            canvas.line(*edge, stroke=BOUNDARY_STROKE, stroke_width=2)
        else:
            canvas.line(*edge, stroke=LATTICE_STROKE, stroke_width=1)
    for edge in sorted(free):
        canvas.line(*edge, stroke=BOUNDARY_STROKE, stroke_width=2,
                    stroke_dasharray="6 4", stroke_linecap="round")

    if tiling is not None:
        for c, d in sorted(tiling):
            common = shared_edge(c, d)
            if common is None:
                raise ContractError("tiling pair is not adjacent")
            outline = [p for p in cell_corners(c) + cell_corners(d)
                       if p not in common]
            west, east = sorted(common)
            # rhombus boundary: the four non-shared corner positions,
            # walked around the removed diagonal
            a, b = sorted(set(outline))
            canvas.polygon((a, west, b, east), fill="none",
                           stroke=TILE_STROKE, stroke_width=2)

    if graph is not None:
        for i, j, w in sorted(graph.edges):
            dash = None if w == Fraction(1) else "3 3"
            canvas.line(_tag_center(graph.tags[i]),
                        _tag_center(graph.tags[j]),
                        stroke=GRAPH_STROKE, stroke_width=1.5,
                        stroke_dasharray=dash)
        for v, _w in sorted(graph.loops):
            x, y = _tag_center(graph.tags[v])
            canvas.circle((x + 0.25, y - 0.5), SCALE / 4, fill="none",
                          stroke=GRAPH_STROKE, stroke_width=1.5)
        for i in range(graph.n):
            canvas.circle(_tag_center(graph.tags[i]), 3, fill=GRAPH_STROKE)

    return canvas.document()
