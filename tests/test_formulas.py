"""Product formulas: closed forms vs the enumeration engines."""

import itertools
import math

import pytest

from lozlab.counting import (
    count_symmetric_tilings,
    count_tilings,
    count_tilings_free,
)
from lozlab.errors import FormulaRangeError, HoleCollisionError, ParameterError
from lozlab.formulas import (
    cored_count,
    d_count,
    eval_Q,
    eval_S,
    hole_lists,
    holed_count_even,
    holed_count_odd,
    macmahon_box,
)
from lozlab.lattice import cored_hexagon, d_region, hexagon, holed_hexagon


def test_macmahon_box_small_values():
    assert macmahon_box(1, 1, 1) == 2
    assert macmahon_box(0, 7, 3) == 1
    assert macmahon_box(4, 5, 0) == 1
    assert macmahon_box(2, 2, 2) == 20
    assert macmahon_box(4, 4, 4) == 232848


def test_macmahon_box_matches_hexagon_enumeration():
    for abc in [(2, 2, 2), (1, 2, 3), (3, 1, 2)]:
        assert macmahon_box(*abc) == count_tilings(hexagon(*abc))


def test_macmahon_box_symmetric_in_arguments():
    for a in range(0, 6):
        for b in range(a, 6):
            for c in range(b, 6):
                base = macmahon_box(a, b, c)
                for perm in itertools.permutations((a, b, c)):
                    assert macmahon_box(*perm) == base


def test_hole_lists_examples():
    assert hole_lists(5, [2, 4]) == ((2, 4), (1, 3, 5))
    assert hole_lists(2, [2]) == ((1,), (2,))
    # nothing removed: full ranges
    assert hole_lists(4, []) == ((1, 2, 3), (1, 2, 3, 4))
    # a hole at k = a drops nothing from l (its l-removal would be 0)
    assert hole_lists(3, [3]) == ((1, 2), (2, 3))
    # a hole at k = 1 drops the top entry of each list
    assert hole_lists(3, [1]) == ((1,), (1, 2))


def test_hole_lists_lengths():
    for a in range(1, 7):
        for s in range(0, a + 1):
            for ks in itertools.combinations(range(1, a + 1), s):
                l, q = hole_lists(a, ks)
                assert len(q) == a - s
                expect_l = a - s if a in ks else a - s - 1
                assert len(l) == max(expect_l, 0)
                assert list(l) == sorted(set(l))
                assert list(q) == sorted(set(q))


def test_hole_lists_validation():
    with pytest.raises(ParameterError):
        hole_lists(3, [2, 2])
    with pytest.raises(ParameterError):
        hole_lists(3, [3, 1])
    with pytest.raises(ParameterError):
        hole_lists(3, [0])
    with pytest.raises(ParameterError):
        hole_lists(3, [4])
    with pytest.raises(ParameterError):
        hole_lists(0, [])


def test_eval_q_degenerate_shapes():
    # empty lists: the bare constant for the no-survivor case
    assert eval_Q((), 5, 3) == 2
    # single survivor 1: four times the square of x+s
    for x in range(0, 6):
        assert eval_Q((1,), x, 1) == 4 * (x + 1) ** 2


def test_eval_s_is_a_perfect_square():
    for a in range(1, 5):
        for s in range(0, a + 1):
            for ks in itertools.combinations(range(1, a + 1), s):
                _, q = hole_lists(a, ks)
                for x in range(0, 5):
                    v = eval_S(q, x, s)
                    assert v >= 0
                    assert math.isqrt(v) ** 2 == v


def test_even_counts_match_enumeration_small():
    for a in (1, 2):
        for s in range(0, a + 1):
            for ks in itertools.combinations(range(1, a + 1), s):
                for b in (1, 2):
                    region = holed_hexagon(2 * a, b, list(ks))
                    want = count_symmetric_tilings(region, ["Rot180"])
                    assert holed_count_even(a, b, ks) == want
    # k_1 = 1 needs no parameter rewrite: the closed form takes it as is
    assert count_symmetric_tilings(holed_hexagon(4, 1, [1]), ["Rot180"]) \
        == holed_count_even(2, 1, [1]) == 9
    assert count_symmetric_tilings(holed_hexagon(2, 1, []), ["Rot180"]) == 4
    # holes at k = 1 and 2 leave a single tiling
    assert count_tilings(holed_hexagon(4, 2, [1, 2])) == 1


def test_odd_counts_match_enumeration_small():
    for a in (1, 2):
        for s in range(0, a + 1):
            for ks in itertools.combinations(range(1, a + 1), s):
                for b in (1, 2):
                    region = holed_hexagon(2 * a + 1, b, list(ks))
                    want = count_symmetric_tilings(region, ["Rot180"])
                    assert holed_count_odd(a, b, ks) == want


# enumeration-confirmed values for half-side 3, frozen from engine runs;
# keys are (b, ks), values are (even count, odd count)
HALF_SIDE_3 = {
    (1, ()): (400, 1225),
    (2, ()): (30625, 240100),
    (1, (1,)): (400, 2500),
    (2, (1,)): (2500, 30625),
    (1, (2,)): (256, 1225),
    (2, (2,)): (4900, 44100),
    (1, (3,)): (225, 441),
    (2, (3,)): (11025, 38416),
    (1, (1, 2)): (16, 100),
    (2, (1, 2)): (25, 225),
    (1, (1, 3)): (100, 225),
    (2, (1, 3)): (400, 1225),
    (1, (2, 3)): (36, 49),
    (2, (2, 3)): (441, 784),
    (1, (1, 2, 3)): (1, 1),
    (2, (1, 2, 3)): (1, 1),
}


def test_holed_counts_frozen_half_side_3():
    for (b, ks), (even, odd) in HALF_SIDE_3.items():
        assert holed_count_even(3, b, ks) == even
        assert holed_count_odd(3, b, ks) == odd


def test_holed_count_even_spec_instances():
    # binomial(b+3, 3) squared
    assert [holed_count_even(2, b, [2]) for b in (1, 2, 3)] == [16, 100, 400]
    assert holed_count_even(5, 4, [2, 4]) == 453024 ** 2


def test_holed_count_odd_instance_and_bound():
    assert holed_count_odd(3, 3, [2]) == 882 ** 2
    # symmetric tilings are a subset of all tilings
    region = holed_hexagon(5, 1, [2])
    assert count_tilings(region) >= holed_count_odd(2, 1, [2])


def test_cored_counts_match_enumeration_small():
    for a in (2, 3):
        for x in range(1, a + 1):
            for s in range(0, a - x + 1):
                for ks in itertools.combinations(range(1, a - x + 1), s):
                    for b in (1, 2):
                        region = cored_hexagon(a, b, list(ks), x)
                        want = count_symmetric_tilings(region, ["Rot180"])
                        assert cored_count(a, b, ks, x) == want


# enumeration-confirmed values at half-side 4, b = 1, frozen from engine
# runs; keys are (ks, x)
CORED_4_1 = {
    ((), 1): 1225,
    ((1,), 1): 2500,
    ((2,), 1): 1225,
    ((3,), 1): 441,
    ((1, 2), 1): 100,
    ((1, 3), 1): 225,
    ((2, 3), 1): 49,
    ((1, 2, 3), 1): 1,
    ((), 2): 441,
    ((1,), 2): 225,
    ((2,), 2): 49,
    ((1, 2), 2): 1,
    ((), 3): 49,
    ((1,), 3): 1,
    ((), 4): 1,
}


def test_cored_counts_frozen_half_side_4():
    for (ks, x), want in CORED_4_1.items():
        assert cored_count(4, 1, ks, x) == want


def test_cored_count_spec_instance():
    assert cored_count(4, 3, [2], 1) == 882 ** 2
    # removing only the central unit rhombus leaves the odd count intact
    assert cored_count(4, 3, [2], 1) == holed_count_odd(3, 3, [2])


def test_dcount_examples():
    assert d_count(1, 1, -1, [1]) == 2
    assert d_count(1, 1, 0, [1]) == 3
    assert d_count(5, 4, -1, [1, 3, 5]) == 453024


def test_dcount_matches_free_enumeration_small():
    for a in (1, 2):
        for s in range(0, a + 1):
            for is_ in itertools.combinations(range(1, a + 1), s):
                for b in (1, 2):
                    for eps in (-1, 0):
                        region = d_region(a, b, eps, list(is_))
                        want = count_tilings_free(region)
                        assert d_count(a, b, eps, is_) == want


def test_dcount_squares_give_holed_counts():
    # the free-boundary count is the square root of the symmetric count,
    # with matched survivor lists; pure arithmetic on both sides
    for a in range(1, 7):
        for s in range(0, a + 1):
            for ks in itertools.combinations(range(1, a + 1), s):
                _, q = hole_lists(a, ks)
                for b in (1, 2, 3):
                    assert holed_count_even(a, b, ks) == d_count(a, b, -1, q) ** 2
                    assert holed_count_odd(a, b, ks) == d_count(a, b, 0, q) ** 2


def test_cored_squares_give_dcount():
    for a in range(2, 7):
        for x in range(1, a + 1):
            for s in range(0, a - x + 1):
                for ks in itertools.combinations(range(1, a - x + 1), s):
                    drop = {a - k for k in ks}
                    d = [v for v in range(x, a) if v not in drop]
                    for b in (1, 2):
                        if d:
                            want = d_count(a - 1, b, 0, d) ** 2
                        else:
                            want = 1
                        assert cored_count(a, b, ks, x) == want


# each region builder with its closed form and parameters both accept
CONTRACT_PAIRS = (
    (lambda a, b, ks: holed_hexagon(2 * a, b, ks), holed_count_even,
     {"a": 2, "b": 1, "ks": [1]}),
    (lambda a, b, ks: holed_hexagon(2 * a + 1, b, ks), holed_count_odd,
     {"a": 2, "b": 1, "ks": [1]}),
    (cored_hexagon, cored_count, {"a": 3, "b": 1, "ks": [1], "x": 1}),
    (d_region, d_count, {"a": 2, "b": 1, "eps": -1, "is_": [1]}),
)
# one bad value at a time, wherever the family has that parameter; "list"
# stands for ks or is_, and ks = [3] is a collision with the cored core
BAD_INPUTS = (("b", True), ("b", 1.5), ("b", 0), ("list", 2),
              ("list", [2, 1]), ("list", [1, 1]), ("list", [9]),
              ("x", 4), ("ks", [3]), ("eps", 1))


def _outcome(fn, params):
    try:
        fn(**params)
    except Exception as exc:
        return type(exc), str(exc)
    return None


def test_regions_and_formulas_refuse_the_same_input_alike():
    tried = 0
    for region, formula, good in CONTRACT_PAIRS:
        assert _outcome(region, good) is None
        assert _outcome(formula, good) is None
        holes = "ks" if "ks" in good else "is_"
        for name, value in BAD_INPUTS:
            name = holes if name == "list" else name
            if name not in good:
                continue
            params = {**good, name: value}
            got = _outcome(region, params)
            assert got is not None and issubclass(got[0], ParameterError), \
                (formula.__name__, name, value, got)
            assert _outcome(formula, params) == got, (formula.__name__, name,
                                                      value)
            tried += 1
    assert tried == 4 * 7 + 3 + 1 + 1  # ks = [3] also runs on both holed


def test_formula_validation_errors():
    with pytest.raises(HoleCollisionError) as info:
        cored_count(4, 1, [3], 2)
    assert info.value.ks == [3]
    with pytest.raises(ParameterError):
        cored_count(3, 1, [], 4)
    with pytest.raises(ParameterError):
        d_count(3, 1, 1, [1])
    with pytest.raises(ParameterError):
        d_count(3, 1, -1, [2, 2])
    with pytest.raises(ParameterError):
        holed_count_even(3, 0, [])
    with pytest.raises(ParameterError):
        holed_count_odd(3, 1, [5])
    with pytest.raises(ParameterError):
        macmahon_box(-1, 2, 2)


def test_every_formula_returns_python_int():
    values = [
        macmahon_box(3, 3, 3),
        holed_count_even(4, 2, [2]),
        holed_count_odd(4, 2, [2]),
        cored_count(4, 2, [2], 1),
        d_count(4, 2, -1, [1, 4]),
        eval_Q((2, 4), 7, 2),
        eval_S((2, 4), 7, 2),
    ]
    for v in values:
        assert type(v) is int
