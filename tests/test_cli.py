"""End-to-end checks of the command line surface."""

import ast
import hashlib
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from lozlab import counting, svg
from lozlab.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_hexagon(capsys):
    code, out, err = run(capsys, "count", "--family", "hexagon",
                         "--a", "1", "--b", "1", "--c", "2")
    assert (code, out, err) == (0, "3\n", "")


def test_count_holed_and_cored(capsys):
    code, out, _ = run(capsys, "count", "--family", "holed",
                       "--a", "4", "--b", "1", "--ks", "2")
    assert code == 0 and out == "260\n"
    code, out, _ = run(capsys, "count", "--family", "cored",
                       "--a", "2", "--b", "1", "--ks", "", "--x", "1")
    assert code == 0
    assert int(out) > 0


def test_count_free_boundary_region(capsys):
    # d regions sum over the free cut
    code, out, _ = run(capsys, "count", "--family", "d",
                       "--a", "2", "--b", "1", "--eps", "0", "--is", "1,2")
    assert code == 0
    assert int(out) > 0


def test_count_sym(capsys):
    code, out, _ = run(capsys, "count-sym", "--family", "hexagon",
                       "--a", "2", "--b", "2", "--c", "2",
                       "--sym", "rot180,reflv")
    assert (code, out) == (0, "2\n")


def test_count_sym_filter_meets_the_state_cap(capsys, monkeypatch):
    monkeypatch.setattr(counting, "SEARCH_STATE_CAP", 100)
    code, out, err = run(capsys, "count-sym", "--family", "hexagon",
                         "--a", "3", "--b", "3", "--c", "4",
                         "--sym", "reflv", "--method", "filter")
    assert (code, out) == (2, "")
    assert err == "error: search exceeds the cap of 100 search states\n"


def test_rot60_on_odd_hexagons_counts_zero(capsys):
    for n in ("1", "3"):
        side = ("--family", "hexagon", "--a", n, "--b", n, "--c", n)
        code, out, err = run(capsys, "count-sym", *side, "--sym", "rot60")
        assert (code, out, err) == (0, "0\n", "")
        code, out, err = run(capsys, "quotient", *side, "--rot", "rot60")
        assert (code, err) == (0, "")
        # no loop line: the center's edge orbit is not a usable loop
        assert all(len(set(line.split()[:2])) == 2
                   for line in out.splitlines())


def test_count_sym_rejects_unknown_kind(capsys):
    code, _, err = run(capsys, "count-sym", "--family", "hexagon",
                       "--a", "1", "--b", "1", "--c", "2", "--sym", "spin")
    assert code == 2
    assert "unknown symmetry" in err


def test_count_sym_refuses_free_edges(capsys):
    # every route would count the closed region: 0 here, against 6 tilings
    region = ("--family", "d", "--a", "2", "--b", "1", "--eps", "-1",
              "--is", "1,2")
    code, out, _ = run(capsys, "count", *region)
    assert (code, out) == (0, "6\n")
    for method in ("auto", "orbit", "quotient", "filter"):
        code, out, err = run(capsys, "count-sym", *region, "--sym", "id",
                             "--method", method)
        assert (code, out) == (2, "")
        assert err == ("error: symmetric counts of a region with free edges "
                       "are not supported\n")


def test_verify_product_line(capsys):
    code, out, _ = run(capsys, "verify", "--id", "I1_9",
                       "--a", "1", "--b", "1")
    assert (code, out) == (0, "3 = 3 × 1 OK\n")


def test_verify_square_line(capsys):
    code, out, _ = run(capsys, "verify", "--id", "T2_1_even",
                       "--a", "2", "--b", "1", "--ks", "1")
    assert (code, out) == (0, "1 = 1 × 1 OK\n")


def test_verify_scalar_line(capsys):
    code, out, _ = run(capsys, "verify", "--id", "E3_5",
                       "--a", "2", "--b", "1", "--ks", "2")
    assert (code, out) == (0, "16 = 16 OK\n")


def test_verify_json_envelope(capsys):
    code, out, _ = run(capsys, "verify", "--id", "E3_1",
                       "--a", "2", "--b", "1", "--ks", "1", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["command"] == "verify"
    assert doc["params"] == {"id": "E3_1", "a": 2, "b": 1, "ks": [1]}
    assert doc["result"]["lhs"] == 9
    assert doc["result"]["factors"] == [2, "9/2"]
    assert doc["result"]["verdict"] is True


# exact envelope bytes: the params keep their order, the required family
# parameters in builder order and the list that may be omitted last, or
# for verify the flag order; a dict comparison would not see a reorder
@pytest.mark.parametrize("argv, params, result", [
    (("count", "--family", "cored", "--a", "3", "--b", "1", "--ks", "1",
      "--x", "1"),
     '{"family": "cored", "a": 3, "b": 1, "x": 1, "ks": [1]}', "1372"),
    (("count", "--family", "rbar", "--q", "1,2", "--base", "1", "--l", "1"),
     '{"family": "rbar", "q": [1, 2], "base": 1, "l": [1]}', "23"),
    (("verify", "--id", "T2_1_cored", "--a", "3", "--b", "1", "--ks", "1",
      "--x", "1"),
     '{"id": "T2_1_cored", "a": 3, "b": 1, "x": 1, "ks": [1]}',
     '{"lhs": 36, "rhs": 36, "factors": [6, 6], "verdict": true, '
     '"lhs_route": "rot180-quotient+pfaffian", '
     '"rhs_route": "orbit-enumeration"}'),
    (("verify", "--id", "E3_13", "--a", "3", "--b", "1", "--ks", "1",
      "--x", "2"),
     '{"id": "E3_13", "a": 3, "b": 1, "x": 2, "ks": [1]}',
     '{"lhs": 1, "rhs": 1, "factors": [1], "verdict": true, '
     '"lhs_route": "product-formula", '
     '"rhs_route": "rot180-quotient+pfaffian"}'),
    (("verify", "--id", "E3_7", "--a", "2", "--b", "1", "--is", "1"),
     '{"id": "E3_7", "a": 2, "b": 1, "is": [1]}',
     '{"lhs": 3, "rhs": 3, "factors": [3], "verdict": true, '
     '"lhs_route": "product-formula", "rhs_route": "free-boundary-sum"}'),
    (("verify", "--id", "FOUR_CLASS", "--eq", "1", "--a", "1", "--b", "1"),
     '{"id": "FOUR_CLASS", "a": 1, "b": 1, "eq": 1}',
     '{"lhs": 3, "rhs": 3, "factors": [3, 1], "verdict": true, '
     '"lhs_route": "pfaffian", "rhs_route": "enumeration+filter"}'),
])
def test_json_envelope_bytes(capsys, argv, params, result):
    code, out, err = run(capsys, *argv, "--json")
    assert (code, err) == (0, "")
    assert out == '{"command": "%s", "params": %s, "result": %s}\n' % (
        argv[0], params, result)


REGION_USAGE = ("--family {hexagon,holed,cored,d,rbar} [--a A] [--b B] "
                "[--c C] [--x X] [--eps EPS] [--base BASE] [--ks KS] "
                "[--is IS] [--l L] [--q Q]")


@pytest.mark.parametrize("command, flags", [
    ("count", REGION_USAGE),
    ("count-sym", REGION_USAGE + " --sym SYM "
     "[--method {auto,orbit,filter,quotient}]"),
    ("verify", "--id ID [--a A] [--b B] [--x X] [--eq EQ] [--ks KS] "
     "[--is IS]"),
    ("sweep", "--id ID --grid GRID"),
    ("render", REGION_USAGE + " [--tiling] [--graph {dual,quotient}]"),
    ("quotient", REGION_USAGE + " [--rot {rot60,rot120,rot180}]"),
    ("split", REGION_USAGE),
])
def test_usage_line_of_each_subcommand(capsys, command, flags):
    # the flag order, with argparse's line wrapping folded away
    with pytest.raises(SystemExit):
        main([command])
    usage = capsys.readouterr().err.split("\nlozlab %s: error" % command)[0]
    assert " ".join(usage.split()) == (
        "usage: lozlab %s [-h] %s [--out OUT] [--json]" % (command, flags))


def test_verify_usage_errors(capsys):
    code, _, err = run(capsys, "verify", "--id", "NOPE", "--a", "1")
    assert code == 2 and "unknown identity" in err
    code, _, err = run(capsys, "verify", "--id", "I1_9", "--a", "1")
    assert code == 2 and "needs parameter" in err


def test_sweep_default_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--id", "I1_10", "--grid", "default")
    lines = out.splitlines()
    assert code == 0
    assert lines[0] == "identity,params,lhs,rhs,verdict"
    assert lines[1] == "I1_10,a=1;b=1,1,1,true"
    assert len(lines) == 5


def test_sweep_explicit_grid(capsys):
    code, out, _ = run(capsys, "sweep", "--id", "I1_9",
                       "--grid", "a=1..2;b=1|2")
    assert code == 0
    assert len(out.splitlines()) == 5
    assert all(line.endswith("true") for line in out.splitlines()[1:])


def test_sweep_error_row_fails_exit(capsys):
    code, out, _ = run(capsys, "sweep", "--id", "E3_5",
                       "--grid", "a=1;b=1;ks=9")
    assert code == 1
    assert out.splitlines()[1].endswith("error")


def test_sweep_malformed_grid(capsys):
    code, _, err = run(capsys, "sweep", "--id", "I1_9", "--grid", "a;b=1")
    assert code == 2 and "malformed grid" in err


def test_sweep_non_integer_grid_value(capsys):
    code, out, err = run(capsys, "sweep", "--id", "E3_5", "--grid", "a=x")
    assert (code, out) == (2, "")
    assert "needs integer values" in err


@pytest.mark.parametrize("grid, fragment", [
    ("a=1;a=2;b=1", "grid clause 'a=2' repeats parameter a"),
    ("a=1|2;a=3", "grid clause 'a=3' repeats parameter a"),
    ("a=3..1;b=1", "grid clause 'a=3..1' has the empty range 3..1"),
    ("a=1;b=1;c=2", "unknown parameter(s) for I1_9: c"),
])
def test_sweep_bad_grid_is_a_usage_error(capsys, grid, fragment):
    code, out, err = run(capsys, "sweep", "--id", "I1_9", "--grid", grid)
    assert (code, out) == (2, "")
    assert fragment in err


def test_sweep_to_file(tmp_path, capsys):
    out_file = tmp_path / "report.csv"
    code, out, _ = run(capsys, "sweep", "--id", "I1_10", "--grid", "default",
                       "--out", str(out_file))
    assert code == 0 and out == ""
    assert out_file.read_text().startswith("identity,params,lhs,rhs,verdict")


@pytest.mark.parametrize("argv", [
    ("count", "--family", "holed", "--a", "4", "--b", "1", "--ks", "2"),
    ("count-sym", "--family", "hexagon", "--a", "2", "--b", "2", "--c", "2",
     "--sym", "rot180"),
    ("verify", "--id", "I1_9", "--a", "1", "--b", "1"),
    ("sweep", "--id", "I1_10", "--grid", "a=1|2;b=1"),
    ("render", "--family", "hexagon", "--a", "1", "--b", "1", "--c", "1"),
    ("quotient", "--family", "hexagon", "--a", "1", "--b", "1", "--c", "1"),
    ("split", "--family", "holed", "--a", "3", "--b", "1", "--ks", ""),
])
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_out_file_matches_stdout(tmp_path, capsys, argv, json_flag):
    code, out, _ = run(capsys, *argv, *json_flag)
    assert code == 0 and out
    out_file = tmp_path / "out.txt"
    if argv[0] == "render" and json_flag:
        # the render envelope echoes its --out argument
        out = out.replace('"out": null', '"out": ' + json.dumps(str(out_file)))
    code, file_out, _ = run(capsys, *argv, *json_flag, "--out", str(out_file))
    assert code == 0 and file_out == ""
    assert out_file.read_bytes() == out.encode("utf-8")


def test_render_to_file_and_stdout(tmp_path, capsys):
    out_file = tmp_path / "fig.svg"
    code, out, _ = run(capsys, "render", "--family", "holed",
                       "--a", "15", "--b", "5", "--ks", "2,5,7",
                       "--out", str(out_file))
    assert code == 0 and out == ""
    text = out_file.read_text()
    assert text.startswith("<svg ")
    assert 'fill="#555555"' in text
    small = ("render", "--family", "hexagon", "--a", "1", "--b", "1",
             "--c", "1")
    small_file = tmp_path / "small.svg"
    code, out, _ = run(capsys, *small, "--out", str(small_file))
    assert code == 0 and out == ""
    code, out, _ = run(capsys, *small)
    assert code == 0 and out.startswith("<svg ")
    assert out == small_file.read_bytes().decode("utf-8")


def test_render_overlays(capsys):
    code, out, _ = run(capsys, "render", "--family", "hexagon",
                       "--a", "2", "--b", "2", "--c", "2", "--tiling")
    assert code == 0 and out.count("#1a6fb5") == 12
    code, out, _ = run(capsys, "render", "--family", "holed",
                       "--a", "3", "--b", "1", "--ks", "",
                       "--graph", "quotient")
    assert code == 0 and out.count("#b03030") > 0


def test_render_tiling_of_untileable_region(capsys, monkeypatch):
    # the second region would send the search to its cap; the
    # determinant says 0 first, so the search never runs
    monkeypatch.setattr(svg, "enumerate_matchings", None)
    for a, b, is_ in (("2", "1", "1,2"), ("6", "4", "1,2,3,4,5,6")):
        code, out, err = run(capsys, "render", "--tiling", "--family", "d",
                             "--a", a, "--b", b, "--eps", "-1", "--is", is_)
        assert (code, out) == (2, "")
        assert "no lozenge tiling to draw (free edges stay closed)" in err


def test_quotient_graph_text(capsys):
    code, out, _ = run(capsys, "quotient", "--family", "hexagon",
                       "--a", "2", "--b", "2", "--c", "2", "--rot", "rot120")
    assert code == 0
    for line in out.strip().splitlines():
        u, v, w = line.split()
        assert u.isdigit() and v.isdigit()
        num, _, den = w.partition("/")
        assert num.isdigit() and den.isdigit()


def test_split_json_reports_multiplier(capsys):
    code, out, _ = run(capsys, "split", "--family", "holed",
                       "--a", "4", "--b", "2", "--ks", "2", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["multiplier_log2"] == 1
    assert doc["result"]["loop_weight"] == 1
    assert doc["result"]["graph"].splitlines()[0].count(" ") == 2


def test_split_odd_side_removes_loop(capsys):
    code, out, _ = run(capsys, "split", "--family", "holed",
                       "--a", "3", "--b", "1", "--ks", "", "--json")
    assert code == 0
    doc = json.loads(out)
    assert doc["result"]["loop_weight"] == 1


def test_split_refuses_a_half_turn_centre_on_an_edge(capsys):
    # the Rot180 quotient of hexagon(2, 2, 1) is even and keeps a
    # dead-weight loop, which the axis split cannot take
    code, out, err = run(capsys, "split", "--family", "hexagon",
                         "--a", "2", "--b", "2", "--c", "1")
    assert (code, out) == (2, "")
    assert "midpoint of a lattice edge" in err


@pytest.mark.parametrize("a,c", [(1, 1), (3, 5), (5, 3)])
def test_split_refuses_an_axis_vertex_on_no_axis_edge(capsys, a, c):
    # with a and c odd an axis vertex of the central quotient has no
    # axis partner, so the cut above every axis vertex is not proven
    code, out, err = run(capsys, "split", "--family", "hexagon",
                         "--a", str(a), "--b", str(a), "--c", str(c))
    assert (code, out) == (2, "")
    assert "lies on no axis edge" in err and "Traceback" not in err


def test_cli_import_loads_neither_dataclasses_nor_inspect():
    script = ("import sys, lozlab.cli; "
              "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(counting.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, env={**os.environ, "PYTHONPATH": src})
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr


def test_missing_family_parameter(capsys):
    code, _, err = run(capsys, "count", "--family", "hexagon", "--a", "1")
    assert code == 2 and "needs --b" in err


FAMILY_FLAGS = {"hexagon": ("--a", "2", "--b", "2", "--c", "2"),
                "holed": ("--a", "4", "--b", "1"),
                "cored": ("--a", "4", "--b", "1", "--x", "1"),
                "d": ("--a", "2", "--b", "1", "--eps", "-1"),
                "rbar": ("--q", "1", "--base", "1")}


@pytest.mark.parametrize("command",
                         ["count", "count-sym", "render", "quotient", "split"])
def test_region_flag_the_family_does_not_take_is_refused(capsys, command):
    sym = ("--sym", "rot180") if command == "count-sym" else ()
    for family, flag in (("hexagon", "--ks"), ("hexagon", "--x"),
                         ("holed", "--c"), ("holed", "--q"), ("cored", "--is"),
                         ("d", "--l"), ("d", "--base"), ("rbar", "--eps"),
                         ("rbar", "--a"), ("rbar", "--b")):
        code, out, err = run(capsys, command, "--family", family,
                             *FAMILY_FLAGS[family], flag, "1", *sym)
        assert (code, out, err) == (
            2, "", "error: family %s does not take %s\n" % (family, flag))


def test_usage_error_exit_two():
    with pytest.raises(SystemExit) as exc:
        main(["count"])  # --family is required
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["count", "count-sym", "render", "verify"])
def test_usage_names_the_is_argument_is(capsys, command):
    with pytest.raises(SystemExit):
        main([command])
    err = capsys.readouterr().err
    assert "[--is IS]" in err and "IS_" not in err


@pytest.mark.parametrize("argv, flag", [
    (("count", "--family", "holed", "--a", "4", "--b", "1"), "--ks"),
    (("count", "--family", "d", "--a", "2", "--b", "1", "--eps", "1"), "--is"),
    (("count", "--family", "rbar", "--q", "1", "--base", "1"), "--l"),
    (("count", "--family", "rbar", "--l", "1", "--base", "1"), "--q"),
    (("verify", "--id", "E3_5", "--a", "2", "--b", "1"), "--ks"),
    (("verify", "--id", "E3_7", "--a", "2", "--b", "1"), "--is"),
])
def test_list_flag_with_a_non_integer_is_a_usage_error(capsys, argv, flag):
    with pytest.raises(SystemExit) as exc:
        main([*argv, flag, "1,x"])
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out) == (2, "")
    last = captured.err.splitlines()[-1]
    assert "argument %s: expected a comma-separated integer list" % flag in last
    assert "Traceback" not in captured.err


def test_unopenable_out_path_is_a_usage_error(tmp_path, capsys):
    argv = ("count", "--family", "hexagon", "--a", "1", "--b", "1", "--c", "1")
    for target in (tmp_path / "missing" / "x", tmp_path):
        code, out, err = run(capsys, *argv, "--out", str(target))
        assert (code, out) == (2, "")
        assert err.startswith("error: ") and err.count("\n") == 1, err
        assert str(target) in err


def test_byte_determinism(capsys):
    args = ("render", "--family", "cored", "--a", "3", "--b", "1",
            "--ks", "1", "--x", "1")
    _, first, _ = run(capsys, *args)
    _, second, _ = run(capsys, *args)
    assert first == second


def test_golden_invocations_replay(capsys):
    # every recorded benchmark invocation, byte for byte, in-process
    golden = json.loads((Path(__file__).resolve().parent.parent / "lozbench"
                         / "cli_golden.json").read_text(encoding="utf-8"))
    assert len(golden) == 276
    mismatched = []
    for key, expected in golden.items():
        code = main(key.split(" "))
        digest = hashlib.sha256(capsys.readouterr().out.encode("utf-8"))
        if (code, digest.hexdigest()) != (expected["exit"], expected["sha256"]):
            mismatched.append(key)
    assert mismatched == []


def test_traced_names_are_functions_of_their_modules():
    # the benchmark's tracer wraps each name by getattr on its module, so
    # a renamed or deleted one would crash every traced run.  The table
    # is read from the source, which writes no bytecode under lozbench/
    source = (Path(__file__).resolve().parent.parent / "lozbench"
              / "spans.py").read_text(encoding="utf-8")
    table, = (node.value for node in ast.parse(source).body
              if isinstance(node, ast.Assign)
              and [getattr(t, "id", None) for t in node.targets] == ["WRAPPED"])
    wrapped = ast.literal_eval(table)
    missing = [module + "." + name
               for module, names in wrapped.items() for name in names
               if not inspect.isfunction(getattr(
                   importlib.import_module("lozlab." + module), name, None))]
    assert missing == []


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "lozlab", "count", "--family", "hexagon",
         "--a", "2", "--b", "2", "--c", "2"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout == "20\n"
