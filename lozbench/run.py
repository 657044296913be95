"""lozlab benchmark: one workload, one seed, one result line.

Usage, from the root of a lozlab checkout:

    python3 lozbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: det-ladder, search-catalog, free-boundary, cli-small (see
README.md beside this file).  The run times set-up in separate processes,
then starts one workload process that runs every task of the seeded
task list once and then, for the rest of S seconds, whichever task has
had the least time so far; it checks every result.  Times are
rescaled to a reference host speed (refwork.py); the record keeps the
raw seconds.
The last line of stdout is the result: end-to-end metrics with
--trace 0, per-layer metrics from spans with --trace 1.  The line
before it records the environment, the output digest and the bases of
the reported percentiles and ratios.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

import refwork

HERE = Path(__file__).resolve().parent
WORKER = HERE / "worker.py"
WORKLOADS = ("det-ladder", "search-catalog", "free-boundary", "cli-small")
SETUP_PROBES = 3  # before the run, and again after it
SETUP_TIMEOUT_S = 30
WORKER_TIMEOUT_S = 150

END_TO_END_UNITS = {"wall_s": "s", "task_p50_s": "s", "task_tail_s": "s",
                    "setup_s": "s", "peak_rss_mb": "MB", "ok_ratio": "ratio"}


def pinned_env(root: Path) -> dict:
    """The environment of every process the benchmark starts.

    The hash seed is fixed because lozlab iterates sets of cells whose
    order depends on string hashes; sweeps stay single-process.
    """
    env = {k: v for k, v in os.environ.items() if k != "LOZLAB_SWEEP_WORKERS"}
    env["PYTHONHASHSEED"] = "0"
    env["PYTHONPATH"] = str(root / "src")
    return env


def start_worker(args, env: dict, root: Path, timeout: float, *extra: str):
    """Run worker.py to completion; returns (setup seconds, its stdout lines)."""
    cmd = [sys.executable, str(WORKER), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace), *extra]
    begin = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, env=env, cwd=root)
    try:
        out, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise SystemExit("lozbench: the workload process ran past %d s" % timeout)
    if proc.returncode != 0:
        raise SystemExit("lozbench: the workload process exited with %d"
                         % proc.returncode)
    lines = out.decode().splitlines()
    tag, _, stamp = lines[0].partition(" ")
    if tag != "setup":
        raise SystemExit("lozbench: unexpected workload output %r" % lines[0])
    return (int(stamp) - begin) / 1e9, lines[1:]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    root = Path.cwd()
    if not (root / "src" / "lozlab" / "__init__.py").is_file():
        print("lozbench: run from the root of a lozlab checkout (no src/lozlab here)",
              file=sys.stderr)
        return 2
    env = pinned_env(root)

    def setup_probe():
        """Set-up seconds of one workload process: raw, and at the
        reference host speed measured just before and just after it."""
        before = [refwork.probe() for _ in range(refwork.WINDOW)]
        raw = start_worker(args, env, root, SETUP_TIMEOUT_S, "--setup-only")[0]
        after = [refwork.probe() for _ in range(refwork.WINDOW)]
        return raw, raw * refwork.REFERENCE_S / refwork.local_speed(before, after)

    # the first start fills the bytecode caches, as any installed copy has
    # them; probes before and after the run sample two moments of the host
    setup_probe()
    probes = [setup_probe() for _ in range(SETUP_PROBES)]
    own_setup, lines = start_worker(args, env, root, WORKER_TIMEOUT_S)
    probes += [setup_probe() for _ in range(SETUP_PROBES)]
    setups = [scaled for _, scaled in probes]
    report = json.loads(lines[-1])

    problems = report.get("problems", [])
    correct = report["failed"] == 0 and not problems
    if args.trace:
        metrics = {name: {"value": value,
                          "unit": "s" if name.endswith("_s") else
                          "ratio" if name.endswith("ratio") else "count"}
                   for name, value in sorted(report["layers"].items())}
    else:
        lat = report["latency"]
        values = {"wall_s": lat["wall_s"], "task_p50_s": lat["task_p50_s"],
                  "task_tail_s": lat["task_tail_s"], "setup_s": median(setups),
                  "peak_rss_mb": report["peak_rss_mb"],
                  "ok_ratio": 1 - report["failed"] / report["attempted"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}

    record = dict(report)
    record.pop("layers", None)
    record.update({
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "fail_ratio": report["failed"] / report["attempted"],
        "setup_samples_s": setups, "raw_setup_samples_s": [raw for raw, _ in probes],
        "worker_setup_s": own_setup,
        "env": {"PYTHONHASHSEED": env["PYTHONHASHSEED"],
                "LOZLAB_SWEEP_WORKERS": None,
                "python": platform.python_version(),
                "nproc": len(os.sched_getaffinity(0))},
    })
    for line in report["failures"] + problems:
        print("lozbench: FAILED %s" % line, file=sys.stderr)
    print(json.dumps({"lozbench": record}, sort_keys=True))
    print(json.dumps({"correct": correct, "attempted": report["attempted"],
                      "failed": report["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
