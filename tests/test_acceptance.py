"""Acceptance gate: nine end-to-end checks, one test per criterion.

Every comparison here is exact integer or rational equality; there is no
tolerance anywhere.  Each test prints a single pass line so a verbose run
reads as a criterion-by-criterion report.  Criteria 1, 2, and 5 also carry
wall-clock budgets that are asserted, not merely observed.
"""

import random
import time

from lozlab import (
    check,
    count_matchings,
    count_matchings_oracle,
    count_symmetric_tilings,
    count_tilings,
    d_count,
    default_grid,
    dual_graph,
    enumerate_matchings,
    hexagon,
    hole_lists,
    holed_count_even,
    holed_count_odd,
    macmahon_box,
    sweep,
)
from lozlab.duality import without_vertices
from lozlab.verify import _legal_ks


def _connected_sample(g, size, rng):
    # Random connected induced subgraph grown one neighbour at a time.
    adj = {i: set() for i in range(g.n)}
    for i, j, _ in g.edges:
        adj[i].add(j)
        adj[j].add(i)
    start = rng.randrange(g.n)
    chosen = {start}
    frontier = set(adj[start])
    while len(chosen) < size and frontier:
        v = rng.choice(sorted(frontier))
        chosen.add(v)
        frontier |= adj[v]
        frontier -= chosen
    return without_vertices(g, set(range(g.n)) - chosen)


def test_criterion_1_oracle_agrees_with_pfaffian():
    t0 = time.monotonic()
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                g = dual_graph(hexagon(a, b, c))
                assert count_matchings_oracle(g) == count_matchings(g)
    rng = random.Random(20240817)
    bases = [dual_graph(hexagon(a, b, c))
             for a in (2, 3, 4) for b in (2, 3, 4) for c in (2, 3, 4)]
    nonzero = 0
    for _ in range(200):
        g = bases[rng.randrange(len(bases))]
        size = rng.randint(1, min(20, g.n // 2)) * 2
        sub = _connected_sample(g, size, rng)
        want = count_matchings_oracle(sub)
        assert count_matchings(sub) == want
        nonzero += want > 0
    elapsed = time.monotonic() - t0
    assert nonzero >= 50, "sampler degenerated into unmatchable graphs"
    assert elapsed <= 60.0, f"criterion 1 overran its budget: {elapsed:.1f}s"
    print(f"criterion 1: PASS (27 hexagons + 200 random subgraphs, "
          f"{elapsed:.1f}s <= 60s)")


def test_criterion_2_hexagon_counts_match_closed_form():
    t0 = time.monotonic()
    checked = 0
    for a in (1, 2, 3):
        for b in (1, 2, 3):
            for c in (1, 2, 3):
                assert count_tilings(hexagon(a, b, c)) == macmahon_box(a, b, c)
                checked += 1
    elapsed = time.monotonic() - t0
    assert elapsed <= 30.0, f"criterion 2 overran its budget: {elapsed:.1f}s"
    print(f"criterion 2: PASS ({checked} boxes, {elapsed:.1f}s <= 30s)")


def test_criterion_3_mirror_product_by_full_enumeration():
    for a, b in ((1, 1), (2, 1), (3, 1), (2, 2)):
        region = hexagon(a, a, 2 * b)
        total = sum(1 for _ in enumerate_matchings(dual_graph(region)))
        vert = count_symmetric_tilings(region, ("ReflV",), method="filter")
        horiz = count_symmetric_tilings(region, ("ReflH",), method="filter")
        assert total == vert * horiz, (a, b, total, vert, horiz)
    print("criterion 3: PASS (4 boxes, enumeration with mirror filtering)")


def test_criterion_4_rotation_quotients_match_enumeration():
    rows = []
    for a in (1, 2):
        for b in (1, 2):
            rows.append(check("I1_10", a=a, b=b))
    for a in (1, 2):
        rows.append(check("I1_11", a=a))
        rows.append(check("I1_12", a=a))
    for row in rows:
        assert row.verdict, row
        assert "quotient" in row.lhs_route
        assert "enumeration" in row.rhs_route
    print(f"criterion 4: PASS ({len(rows)} quotient identities, "
          f"Pfaffian vs enumeration)")


def test_criterion_5_central_symmetry_squares_over_full_grids():
    t0 = time.monotonic()
    even = sweep("T2_1_even", default_grid("T2_1_even"))
    cored = sweep("T2_1_cored", default_grid("T2_1_cored"))
    elapsed = time.monotonic() - t0
    assert len(even.rows) == 18 and even.all_true, even.csv_text()
    assert len(cored.rows) == 22 and cored.all_true, cored.csv_text()
    assert elapsed <= 300.0, f"criterion 5 overran its budget: {elapsed:.1f}s"
    print(f"criterion 5: PASS (18 holed + 22 cored instances, "
          f"{elapsed:.1f}s <= 300s)")


def test_criterion_6_axis_split_equals_central_count():
    even = sweep("E3_1", default_grid("E3_1"))
    odd = sweep("E3_9", default_grid("E3_9"))
    assert len(even.rows) == 28 and even.all_true, even.csv_text()
    assert len(odd.rows) == 28 and odd.all_true, odd.csv_text()
    # The split factors stay visible: power of two times a possibly
    # fractional matching generating function.
    probe = check("E3_9", a=2, b=1, ks=())
    assert probe.factors[0] == 4 and probe.verdict
    print("criterion 6: PASS (28 even + 28 odd split factorizations)")


def test_criterion_7_product_formulas_match_graph_counts():
    total = 0
    for identity in ("E3_5", "E3_7", "E3_10", "E3_12", "E3_13"):
        report = sweep(identity, default_grid(identity))
        assert report.all_true, report.csv_text()
        for row in report.rows:
            assert isinstance(row.lhs, int), (identity, row)
        total += len(report.rows)
    print(f"criterion 7: PASS ({total} formula evaluations, all integral)")


def test_criterion_8_holed_counts_are_free_boundary_squares():
    checked = 0
    for a in (1, 2, 3):
        for b in (1, 2):
            for ks in _legal_ks(a):
                q = hole_lists(a, ks).q
                assert holed_count_even(a, b, ks) == d_count(a, b, -1, q) ** 2
                assert holed_count_odd(a, b, ks) == d_count(a, b, 0, q) ** 2
                checked += 2
    print(f"criterion 8: PASS ({checked} square relations)")


def test_criterion_9_ten_class_identities_on_small_boxes():
    report = sweep("FOUR_CLASS", default_grid("FOUR_CLASS"))
    assert len(report.rows) == 12 and report.all_true, report.csv_text()
    seen = {row.params_text.split(";")[0] for row in report.rows}
    assert seen == {"eq=1", "eq=2", "eq=3", "eq=4"}
    print("criterion 9: PASS (12 symmetry-class identities, four equations)")
