"""Identity catalog checks: routes, verdicts, sweeps, budgets."""

import hashlib

import pytest

from lozlab.counting import count_symmetric_tilings, count_tilings
from lozlab.errors import BudgetError, ParameterError
from lozlab.lattice import hexagon
from lozlab.verify import IDENTITY_IDS, check, default_grid, params_text, sweep


def test_catalog_lists_every_identity():
    assert IDENTITY_IDS == ("I1_9", "I1_10", "I1_11", "I1_12",
                            "T2_1_even", "T2_1_cored",
                            "E3_1", "E3_5", "E3_7", "E3_9", "E3_10",
                            "E3_12", "E3_13", "FOUR_CLASS")


def test_smallest_product_identity():
    c = check("I1_9", a=1, b=1)
    assert c.lhs == 3
    assert c.factors == (3, 1)
    assert c.rhs == 3
    assert c.verdict
    assert c.lhs_route != c.rhs_route


def test_holed_square_identity_small():
    c = check("T2_1_even", a=2, b=1, ks=[1])
    assert c.verdict
    assert c.factors[0] == c.factors[1]


def test_hexagonal_quotient_square_identity():
    # both sides land on the same value the 20-tiling enumeration gives
    c = check("I1_12", a=1)
    assert count_tilings(hexagon(2, 2, 2)) == 20
    filtered = count_symmetric_tilings(hexagon(2, 2, 2), ("Rot60",), "filter")
    assert c.lhs == filtered == 1
    assert c.factors == (1, 1)
    assert c.verdict


def test_axis_split_factors_expose_the_power_of_two():
    c = check("E3_1", a=2, b=1, ks=(1,))
    assert c.factors[0] == 2
    assert c.lhs == 9
    assert c.rhs == 9
    assert isinstance(c.rhs, int)
    assert c.verdict


def test_params_accept_mapping_and_keywords():
    a = check("I1_10", {"a": 2}, b=1)
    b = check("I1_10", {"a": 2, "b": 1})
    assert a == b


def test_params_are_normalized_tuples():
    c = check("E3_5", a=2, b=1, ks=[2])
    assert c.params == (("a", 2), ("b", 1), ("ks", (2,)))


def test_unknown_identity_rejected():
    with pytest.raises(ParameterError):
        check("E9_99", a=1)
    with pytest.raises(ParameterError):
        sweep("E9_99", [])
    with pytest.raises(ParameterError):
        default_grid("E9_99")


def test_parameter_validation():
    with pytest.raises(ParameterError):
        check("I1_9", a=1)  # missing b
    with pytest.raises(ParameterError):
        check("I1_9", a=1, b=1, c=2)  # unknown name
    with pytest.raises(ParameterError):
        check("I1_9", a=True, b=1)
    with pytest.raises(ParameterError):
        check("T2_1_even", a=2, b=1, ks="12")
    with pytest.raises(ParameterError):
        check("FOUR_CLASS", eq=5, a=1)
    with pytest.raises(ParameterError):
        check("FOUR_CLASS", eq=1, a=1)  # cube equations alone skip b
    with pytest.raises(ParameterError):
        check("FOUR_CLASS", eq=3, a=1, b=1)


def test_enumeration_budget_guard():
    with pytest.raises(BudgetError):
        check("I1_9", a=9, b=9)
    with pytest.raises(BudgetError):
        check("E3_9", a=9, b=9, ks=())


def test_orbit_search_runs_on_hundreds_of_cells():
    # 298 cells: the state cap, not the cell count, bounds the orbit route
    c = check("E3_9", a=4, b=2, ks=(1,))
    assert c.verdict and c.lhs == 16941456
    assert (c.lhs_route, c.rhs_route) == ("orbit-enumeration",
                                          "axis-split+mgf")


def test_four_class_full_grid():
    rep = sweep("FOUR_CLASS", default_grid("FOUR_CLASS"))
    assert len(rep.rows) == 12
    assert rep.all_true


def test_default_grids_verify_true():
    # the two axis-split families are cut down here; the acceptance
    # suite runs their full stock grids
    for identity_id in ("I1_9", "I1_10", "I1_11", "I1_12",
                        "E3_5", "E3_7", "E3_10", "E3_12", "E3_13"):
        rep = sweep(identity_id, default_grid(identity_id))
        assert rep.all_true, identity_id
        assert len(rep.rows) == len(default_grid(identity_id))


def test_holed_and_cored_square_grids():
    for identity_id in ("T2_1_even", "T2_1_cored"):
        rep = sweep(identity_id, default_grid(identity_id))
        assert rep.all_true, identity_id


def test_axis_split_small_grid():
    small = [p for p in default_grid("E3_1") if p["a"] <= 2]
    assert sweep("E3_1", small).all_true
    small = [p for p in default_grid("E3_9") if p["a"] <= 2]
    assert sweep("E3_9", small).all_true


def test_csv_shape_and_determinism():
    rep = sweep("I1_10", default_grid("I1_10"))
    text = rep.csv_text()
    lines = text.splitlines()
    assert lines[0] == "identity,params,lhs,rhs,verdict"
    assert lines[3] == "I1_10,a=2;b=1,4,4,true"
    assert len(lines) == 1 + len(rep.rows)
    assert text == sweep("I1_10", default_grid("I1_10")).csv_text()


def test_sweep_records_errors_per_row():
    rep = sweep("E3_5", [{"a": 1, "b": 1, "ks": (5,)},
                         {"a": 1, "b": 1, "ks": ()}])
    assert rep.rows[0].error is not None
    assert rep.rows[0].verdict is None
    assert rep.rows[1].verdict is True
    assert not rep.all_true
    assert rep.csv_text().splitlines()[1].endswith(",,,error")


def test_empty_grid_gives_empty_report():
    rep = sweep("I1_9", [])
    assert rep.rows == ()
    assert rep.all_true
    assert rep.csv_text() == "identity,params,lhs,rhs,verdict\n"


def test_params_text_rendering():
    assert params_text({"a": 2, "b": 1, "ks": (1, 2)}) == "a=2;b=1;ks=1+2"
    assert params_text({"ks": ()}) == "ks=-"


_PFAFFIAN_FILTER = {("pfaffian", "enumeration+filter")}
_ROT180_FILTER = {("rot180-quotient+pfaffian", "enumeration+filter")}
_ROT120_SEARCH = {("rot120-quotient+pfaffian", "enumeration+filter"),
                  ("rot120-quotient+pfaffian", "orbit-enumeration")}
_ROT60_SEARCH = {("rot60-quotient+pfaffian", "enumeration+filter"),
                 ("rot60-quotient+pfaffian", "orbit-enumeration")}
_ROT180_ORBIT = {("rot180-quotient+pfaffian", "orbit-enumeration")}
_ORBIT_SPLIT = {("orbit-enumeration", "axis-split+mgf")}
_FORMULA_QUOTIENT = {("product-formula", "rot180-quotient+pfaffian")}
_FORMULA_FREE = {("product-formula", "free-boundary-sum")}

# (identity, FOUR_CLASS equation or None) -> routes over its default grid
CATALOG_ROUTES = {
    ("I1_9", None): _PFAFFIAN_FILTER,
    ("I1_10", None): _ROT180_FILTER,
    ("I1_11", None): _ROT120_SEARCH,
    ("I1_12", None): _ROT60_SEARCH,
    ("T2_1_even", None): _ROT180_ORBIT,
    ("T2_1_cored", None): _ROT180_ORBIT,
    ("E3_1", None): _ORBIT_SPLIT,
    ("E3_5", None): _FORMULA_QUOTIENT,
    ("E3_7", None): _FORMULA_FREE,
    ("E3_9", None): _ORBIT_SPLIT,
    ("E3_10", None): _FORMULA_QUOTIENT,
    ("E3_12", None): _FORMULA_FREE,
    ("E3_13", None): _FORMULA_QUOTIENT,
    ("FOUR_CLASS", 1): _PFAFFIAN_FILTER,
    ("FOUR_CLASS", 2): _ROT180_FILTER,
    ("FOUR_CLASS", 3): _ROT120_SEARCH,
    ("FOUR_CLASS", 4): _ROT60_SEARCH,
}

DEFAULT_GRID_CSV_SHA256 = (
    "b9f140714c3088cbae4fd0dc5f42e2e22c7b55f1d096da1c3f0dcfeb20e14dd5")


def test_catalog_routes_and_default_grid_csv_are_pinned():
    routes: dict = {}
    texts = []
    for identity_id in IDENTITY_IDS:
        grid = default_grid(identity_id)
        texts.append(sweep(identity_id, grid).csv_text())
        for params in grid:
            c = check(identity_id, params)
            routes.setdefault((identity_id, params.get("eq")), set()).add(
                (c.lhs_route, c.rhs_route))
    assert routes == CATALOG_ROUTES
    text = "".join(texts)
    assert len(text.splitlines()) == 270
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() \
        == DEFAULT_GRID_CSV_SHA256


def test_four_class_eq1_keeps_its_own_enumeration():
    # eq=1 takes the cell-count switch between filter and orbit search,
    # I1_9 always filters, and at a=5 its enumeration meets the state cap
    assert check("FOUR_CLASS", eq=1, a=3, b=2).rhs_route == "orbit-enumeration"
    assert check("I1_9", a=3, b=2).rhs_route == "enumeration+filter"
    assert check("FOUR_CLASS", eq=1, a=5, b=2).verdict
    with pytest.raises(BudgetError, match="search states"):
        check("I1_9", a=5, b=2)


def test_route_tags_are_disjoint_where_required():
    probes = [("I1_9", {"a": 1, "b": 1}),
              ("I1_10", {"a": 1, "b": 1}),
              ("I1_11", {"a": 1}),
              ("I1_12", {"a": 1}),
              ("E3_1", {"a": 1, "b": 1, "ks": ()}),
              ("E3_5", {"a": 1, "b": 1, "ks": ()}),
              ("E3_7", {"a": 1, "b": 1, "is": ()}),
              ("E3_9", {"a": 1, "b": 1, "ks": ()}),
              ("E3_10", {"a": 1, "b": 1, "ks": ()}),
              ("E3_12", {"a": 1, "b": 1, "is": ()}),
              ("E3_13", {"a": 1, "b": 1, "ks": (), "x": 1}),
              ("T2_1_even", {"a": 2, "b": 1, "ks": (1,)}),
              ("T2_1_cored", {"a": 2, "b": 1, "ks": (1,), "x": 1}),
              ("FOUR_CLASS", {"eq": 1, "a": 1, "b": 1}),
              ("FOUR_CLASS", {"eq": 2, "a": 1, "b": 1}),
              ("FOUR_CLASS", {"eq": 3, "a": 1}),
              ("FOUR_CLASS", {"eq": 4, "a": 1})]
    for identity_id, params in probes:
        c = check(identity_id, params)
        assert c.lhs_route and c.rhs_route
        assert c.lhs_route != c.rhs_route, identity_id
