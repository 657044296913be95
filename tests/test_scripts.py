"""The helper scripts under scripts/, read from their source, which
writes no bytecode beside them."""

from pathlib import Path

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _script(name):
    path = SCRIPTS / name
    namespace = {"__name__": path.stem, "__file__": str(path)}
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


def test_the_refusal_battery_reads_its_lines_as_the_shell_loop_did():
    runner = _script("run_refusals.py")
    refusals = runner["read_refusals"](SCRIPTS / "refusals.txt")
    assert len(refusals) == 22
    # argv split on whitespace, the fragment less one leading space
    assert refusals[4] == ("count --family holed --a 4 --b 1 --ks 1,x".split(),
                           "")
    assert refusals[7] == (["sweep", "--id", "I1_9", "--grid", "a=1;a=2;b=1"],
                           "")
    argv, fragment = refusals[-1]
    assert (argv, fragment) == (
        "count --family holed --a 4 --b 1 --ks 3".split(), "up to 2")
    workflow = SCRIPTS.parent / ".github" / "workflows" / "tests.yml"
    assert "run: python scripts/run_refusals.py" in workflow.read_text()
    # one line in a fresh process, and the same line expecting the
    # wrong fragment
    assert runner["refusal_fault"](argv, fragment) is None
    assert runner["refusal_fault"](argv, "up to 3") == (
        "no 'up to 3' on stderr")
