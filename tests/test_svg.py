"""Structural checks on the SVG renderings."""

import pytest

from lozlab import counting
from lozlab.duality import dual_graph, quotient_graph, symmetry
from lozlab.errors import BudgetError
from lozlab.lattice import cored_hexagon, d_region, hexagon, holed_hexagon
from lozlab.svg import SCALE, first_tiling, region_svg


def test_document_shape():
    text = region_svg(hexagon(1, 1, 1))
    lines = text.splitlines()
    assert lines[0].startswith('<svg xmlns="http://www.w3.org/2000/svg"')
    assert lines[-1] == "</svg>"
    assert text.endswith("\n")
    assert SCALE == 24


def test_byte_determinism():
    r = holed_hexagon(4, 2, [1, 2])
    assert region_svg(r) == region_svg(r)


def test_holes_painted_dark():
    # two hole pairs of four cells each
    text = region_svg(holed_hexagon(4, 2, [1, 2]))
    assert text.count('fill="#555555"') == 16
    assert region_svg(hexagon(2, 2, 2)).count('fill="#555555"') == 0


def test_cored_center_included_in_holes():
    text = region_svg(cored_hexagon(3, 1, [], 2))
    # core rhombus of side 3 spans 2*3*3 cells
    assert text.count('fill="#555555"') == 18


def test_free_edges_dashed():
    r = d_region(3, 2, 0, [1, 3])
    text = region_svg(r)
    assert text.count('stroke-dasharray="6 4"') == len(r.free_edges)
    assert len(r.free_edges) > 0


def test_boundary_heavier_than_lattice():
    text = region_svg(hexagon(2, 2, 2))
    assert 'stroke-width="2"' in text
    assert 'stroke-width="1"' in text


def test_tiling_overlay_draws_every_lozenge():
    r = hexagon(2, 2, 2)
    t = first_tiling(r)
    assert len(t) == len(r.cells) // 2
    text = region_svg(r, tiling=t)
    assert text.count('stroke="#1a6fb5"') == len(t)


def test_first_tiling_is_deterministic_and_capped(monkeypatch):
    assert first_tiling(hexagon(2, 2, 2)) == first_tiling(hexagon(2, 2, 2))
    # no cell cap: a big region draws, a deep search meets the state cap
    assert len(first_tiling(hexagon(6, 6, 6))) == 108
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", 10)
    with pytest.raises(BudgetError):
        first_tiling(hexagon(6, 6, 6))


def test_graph_overlay_marks_vertices_and_loops():
    r = holed_hexagon(3, 1, [])
    q = quotient_graph(dual_graph(r), symmetry(r, "Rot180"))
    text = region_svg(r, graph=q)
    assert text.count('fill="#b03030"') == q.n
    assert text.count('<circle') == q.n + len(q.loops)


def test_no_degenerate_numbers():
    text = region_svg(holed_hexagon(15, 5, [2, 5, 7]))
    assert "nan" not in text and "inf" not in text and "-0.00" not in text
