"""A/B benchmark: lozbench/run.py from two checkouts, in alternated pairs.

    python3 scripts/ab_bench.py --parent DIR --change DIR \
        --workload W --seed N --seconds S --pairs K [--trace 0|1]

Each pair runs the benchmark once in each checkout, one after the
other; the parent goes first in even pairs and the change in odd ones,
so a drift of the host speed falls on both sides.  Each run is the
checkout's own lozbench/run.py, started in that checkout with this
interpreter and the caller's environment.

It prints one line per pair (wall time, peak RSS and kept samples of
each side, with --trace 0), then, for every metric the runs report,
the median and the quartiles of each side, the pairs each side won by
the metric's direction in the parent's BENCHMARK.json, and the
metric's verdict, and then the runs per side and the five tasks whose
median time moved most, with each side's median over the runs.

A verdict is "gain" when the change won at least nine tenths of the
pairs (ties count for neither) and its median beats the parent's by
more than the distance between the parent's quartiles.  Otherwise,
for a metric with a bound in BENCHMARK.json, a fraction of the
parent's median, it is "worse" when the change's median is worse by
more than the bound, "unresolved" when the parent's quartile distance
exceeds the bound and not every run of the change beats every run of
the parent, and else "no change".  A metric with no bound gets
"no bound".

A run whose result is not correct is named on stderr, and the script
then exits 1.  So is a pair whose two runs report different output
digests in their record lines: both sides run the same workload with
the same seed, so their outputs must be identical.

A bytecode cache in one checkout alone makes its runs start faster and
smaller, so before the first pair the script exits 2, naming both
checkouts, when only one of them has a __pycache__ under src/ or
lozbench/.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles

PAIR_LINE = ("wall_s", "peak_rss_mb")
# the trees whose bytecode the benchmark imports
CACHED = ("src", "lozbench")
MOVED_TASKS = 5
# one metric: each side's median and quartiles, the pairs each side won
# and the verdict
TABLE = "%-32s %12.6g %11.6g..%-11.6g %12.6g %11.6g..%-11.6g %6d %6d  %s"


def run_once(root: Path, args) -> tuple[dict, dict]:
    """The record and the result line of one benchmark run in the
    checkout at root."""
    cmd = [sys.executable, "lozbench/run.py", "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    out = subprocess.run(cmd, cwd=root, stdout=subprocess.PIPE, check=True)
    record, result = out.stdout.decode().splitlines()[-2:]
    return json.loads(record)["lozbench"], json.loads(result)


def metric_specs(root: Path) -> dict[str, dict]:
    """Each metric's entry in root's BENCHMARK.json: its better
    direction, "lower" or "higher", and for an end-to-end metric its
    bound."""
    spec = json.loads((root / "BENCHMARK.json").read_text())
    return {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}


def bytecode_caches(root: Path) -> list[Path]:
    """The __pycache__ directories under root's CACHED trees."""
    return sorted(p for tree in CACHED
                  for p in (root / tree).rglob("__pycache__"))


def task_medians(records: dict[str, list[dict]]
                 ) -> list[tuple[str, float, float]]:
    """(task, parent median, change median) for every task both sides
    timed, each the median over the runs of the run's own task median,
    the largest move in seconds first; empty with --trace 1, whose
    records time no task."""
    def medians(side: list[dict]) -> dict[str, float]:
        return {name: median(r["task_medians_s"][name][0] for r in side)
                for name in side[0].get("task_medians_s", {})}

    parent, change = medians(records["parent"]), medians(records["change"])
    return sorted(((name, parent[name], change[name]) for name in parent
                   if name in change),
                  key=lambda t: -abs(t[2] - t[1]))


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = quantiles(values, n=4)
    return q1, q3


def wins(first: list[float], second: list[float], sign: int) -> int:
    """The pairs k in which second[k] beats first[k], sign -1 where
    lower is better and 1 where higher is; a tie is no win."""
    return sum(1 for x, y in zip(first, second) if sign * (y - x) > 0)


def verdict(parent: list[float], change: list[float], sign: int,
            bound: float | None) -> str:
    """The verdict on one metric from the paired runs, parent[k] and
    change[k] of pair k, by the rule in the module docstring."""
    q1, q3 = quartiles(parent)
    base = median(parent)
    gain = sign * (median(change) - base)
    if 10 * wins(parent, change, sign) >= 9 * len(parent) and gain > q3 - q1:
        return "gain"
    if bound is None:
        return "no bound"
    if -gain > bound * abs(base):
        return "worse"
    if q3 - q1 > bound * abs(base) and not all(
            sign * (y - x) > 0 for x in parent for y in change):
        return "unresolved"
    return "no change"


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--parent", required=True, type=Path)
    ap.add_argument("--change", required=True, type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", required=True, type=int)
    ap.add_argument("--seconds", required=True, type=int)
    ap.add_argument("--pairs", required=True, type=int)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    caches = {side: bytecode_caches(root) for side, root in sides.items()}
    if bool(caches["parent"]) != bool(caches["change"]):
        for side, root in sides.items():
            print("ab_bench: %s %s: %s" % (
                side, root, ", ".join(map(str, caches[side]))
                or "no bytecode cache"), file=sys.stderr)
        print("ab_bench: only one checkout has a bytecode cache; remove it "
              "or warm both", file=sys.stderr)
        return 2
    specs = metric_specs(sides["parent"])
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    records: dict[str, list[dict]] = {"parent": [], "change": []}
    bad = 0
    for k in range(args.pairs):
        order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
        for side in order:
            record, result = run_once(sides[side], args)
            records[side].append(record)
            runs[side].append(result)
            if not result["correct"]:
                bad += 1
                print("ab_bench: pair %d, %s: result not correct" % (k, side),
                      file=sys.stderr)
        digests = [records[side][-1]["digest"] for side in sides]
        if digests[0] != digests[1]:
            bad += 1
            print("ab_bench: pair %d: output digests differ: parent %s, "
                  "change %s" % ((k,) + tuple(digests)), file=sys.stderr)
        p, c = runs["parent"][-1], runs["change"][-1]
        shown = [name for name in PAIR_LINE if name in p["metrics"]]
        print("pair %d  %s  samples %d -> %d" % (
            k, "  ".join("%s %.6g -> %.6g" % (name,
                                               p["metrics"][name]["value"],
                                               c["metrics"][name]["value"])
                         for name in shown),
            p["attempted"], c["attempted"]), flush=True)

    print("%-32s %12s %23s %12s %23s %6s %6s  %s" % (
        "metric", "parent p50", "parent q1..q3", "change p50",
        "change q1..q3", "wins P", "wins C", "verdict"))
    for name in runs["parent"][0]["metrics"]:
        p = [r["metrics"][name]["value"] for r in runs["parent"]]
        c = [r["metrics"][name]["value"] for r in runs["change"]]
        spec = specs.get(name, {})
        sign = -1 if spec.get("better", "lower") == "lower" else 1
        print(TABLE % ((name, median(p)) + quartiles(p) + (median(c),)
                       + quartiles(c) + (wins(c, p, sign), wins(p, c, sign),
                                         verdict(p, c, sign,
                                                 spec.get("bound")))))
    print("runs per side: %d; kept samples per run, median: %d -> %d" % (
        len(runs["parent"]), median(r["attempted"] for r in runs["parent"]),
        median(r["attempted"] for r in runs["change"])))
    moved = task_medians(records)
    if moved:
        print("%-48s %12s %12s %8s" % ("task", "parent p50", "change p50",
                                        "change"))
        for name, p, c in moved[:MOVED_TASKS]:
            print("%-48s %12.6g %12.6g %+7.1f%%" % (name, p, c,
                                                     100 * (c - p) / p))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
