"""Property-based invariants across the whole stack."""

import math
import xml.etree.ElementTree as ET

from hypothesis import given, settings, strategies as st

from lozlab.counting import (count_matchings_oracle, count_matchings_pfaffian,
                             count_symmetric_tilings, count_tilings,
                             count_tilings_free)
from lozlab.duality import dual_graph
from lozlab.formulas import (d_count, eval_S, hole_lists, holed_count_even,
                             holed_count_odd, macmahon_box)
from lozlab.lattice import (cored_hexagon, d_region, deserialize_region,
                            hexagon, holed_hexagon, serialize_region)
from lozlab.svg import region_svg
from lozlab.verify import params_text

sides = st.integers(min_value=1, max_value=3)


@st.composite
def hexagons(draw):
    return hexagon(draw(sides), draw(sides), draw(sides))


@st.composite
def holed_params(draw):
    side = draw(st.integers(min_value=1, max_value=5))
    b = draw(st.integers(min_value=1, max_value=2))
    pool = list(range(1, side // 2 + 1))
    ks = sorted(draw(st.sets(st.sampled_from(pool)))) if pool else []
    return side, b, ks


@st.composite
def d_params(draw):
    a = draw(st.integers(min_value=1, max_value=3))
    b = draw(st.integers(min_value=1, max_value=2))
    eps = draw(st.sampled_from((-1, 0)))
    is_ = sorted(draw(st.sets(st.sampled_from(range(1, a + 1)))))
    return a, b, eps, is_


@given(st.permutations([1, 2, 3]))
def test_macmahon_symmetry(perm):
    a, b, c = perm
    assert macmahon_box(a, b, c) == macmahon_box(1, 2, 3)


@settings(max_examples=25, deadline=None)
@given(hexagons())
def test_box_count_matches_closed_form(region):
    a = region.param("a")
    b = region.param("b")
    c = region.param("c")
    assert count_tilings(region) == macmahon_box(a, b, c)


@settings(max_examples=25, deadline=None)
@given(hexagons())
def test_pfaffian_agrees_with_oracle(region):
    g = dual_graph(region)
    assert count_matchings_pfaffian(g) == count_matchings_oracle(g)


@settings(max_examples=30, deadline=None)
@given(holed_params())
def test_serialization_round_trip(params):
    side, b, ks = params
    region = holed_hexagon(side, b, ks)
    blob = serialize_region(region)
    back = deserialize_region(blob)
    assert back.cell_set == region.cell_set
    assert back.free_edges == region.free_edges
    assert serialize_region(back) == blob


@settings(max_examples=20, deadline=None)
@given(holed_params())
def test_counting_methods_agree(params):
    side, b, ks = params
    region = holed_hexagon(side, min(b, 1), ks)
    by_quotient = count_symmetric_tilings(region, ("Rot180",), "quotient")
    by_orbit = count_symmetric_tilings(region, ("Rot180",), "orbit")
    assert by_quotient == by_orbit
    if len(region.cells) <= 48:
        by_filter = count_symmetric_tilings(region, ("Rot180",), "filter")
        assert by_filter == by_orbit


@settings(max_examples=30, deadline=None)
@given(d_params())
def test_free_boundary_formula(params):
    a, b, eps, is_ = params
    assert d_count(a, b, eps, is_) == count_tilings_free(
        d_region(a, b, eps, is_))


@settings(max_examples=30, deadline=None)
@given(holed_params())
def test_central_formula_matches_engine(params):
    side, b, ks = params
    if side < 2:
        side = 2  # the closed forms ask for a half-side of at least one
    region = holed_hexagon(side, b, ks)
    engine = count_symmetric_tilings(region, ("Rot180",), "quotient")
    if side % 2 == 0:
        formula = holed_count_even(side // 2, b, ks)
    else:
        formula = holed_count_odd(side // 2, b, ks)
    assert formula == engine


@given(st.integers(min_value=1, max_value=9), st.data())
def test_hole_lists_sizes(a, data):
    ks = sorted(data.draw(st.sets(st.sampled_from(range(1, a + 1)))))
    l, q = hole_lists(a, ks)
    assert len(q) == a - len(ks)
    assert len(l) == (a - len(ks) if a in ks else a - len(ks) - 1)
    assert all(x < y for x, y in zip(l, l[1:]))
    assert all(x < y for x, y in zip(q, q[1:]))


@given(st.integers(min_value=0, max_value=6), st.data())
def test_eval_S_is_a_perfect_square(x, data):
    q = tuple(sorted(data.draw(st.sets(st.sampled_from(range(1, 6)),
                                       max_size=3))))
    s = data.draw(st.integers(min_value=0, max_value=3))
    value = eval_S(q, x, s)
    if value.denominator == 1:
        root = math.isqrt(int(value))
        assert root * root == int(value)


@settings(max_examples=15, deadline=None)
@given(holed_params())
def test_svg_is_wellformed_xml(params):
    side, b, ks = params
    text = region_svg(holed_hexagon(side, b, ks))
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert text == region_svg(holed_hexagon(side, b, ks))


@given(st.dictionaries(st.sampled_from(("a", "b", "x")),
                       st.integers(min_value=0, max_value=99),
                       min_size=1))
def test_params_text_is_injective_per_keyset(mapping):
    text = params_text(mapping)
    parsed = dict(pair.split("=") for pair in text.split(";"))
    assert parsed == {k: str(v) for k, v in mapping.items()}
