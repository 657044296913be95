"""The helper scripts under scripts/, read from their source, which
writes no bytecode beside them."""

from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    path = SCRIPTS / name
    namespace = {"__name__": path.stem}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"),
         namespace)
    return namespace


def test_ab_bench_verdicts_follow_the_pair_rule():
    verdict = _script("ab_bench.py")["verdict"]
    # parent runs with quartiles 0.99 .. 1.01 around a median of 1
    parent = [1.0, 1.01, 0.99, 1.0, 1.02, 0.98, 1.0, 1.01, 0.99, 1.0]
    lower = -1
    assert verdict(parent, [0.95 * x for x in parent], lower, 0.25) == "gain"
    # 9 of 10 pairs still win, 8 do not
    nine = [0.95 * x for x in parent[:9]] + [2.0]
    assert verdict(parent, nine, lower, 0.25) == "gain"
    eight = [0.95 * x for x in parent[:8]] + [2.0, 2.0]
    assert verdict(parent, eight, lower, 0.25) == "no change"
    # a median inside the parent's own spread is no gain
    assert verdict(parent, [x - 0.005 for x in parent], lower,
                   0.25) == "no change"
    assert verdict(parent, [1.3 * x for x in parent], lower, 0.25) == "worse"
    assert verdict(parent, [1.2 * x for x in parent], lower, 0.25) == (
        "no change")
    # higher is better: the same runs read the other way
    assert verdict(parent, [1.3 * x for x in parent], 1, 0.25) == "gain"
    assert verdict(parent, [0.5 * x for x in parent], 1, 0.01) == "worse"
    wide = [1.0, 2.0, 3.0, 1.0, 2.0, 3.0]
    assert verdict(wide, wide, lower, 0.25) == "unresolved"
    # unless every run of the change beats every run of the parent
    assert verdict(wide, [0.9] * 6, lower, 0.25) == "no change"
    assert verdict(parent, parent, lower, None) == "no bound"
    assert verdict(parent, [0.9 * x for x in parent], lower, None) == "gain"
