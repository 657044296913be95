"""The workload process: set up one workload, run its tasks, report.

run.py starts it with a pinned environment from the root of a lozlab
checkout.  It prints ``setup <ns>`` (CLOCK_MONOTONIC) as soon as lozlab
is imported and the task list is built, then, unless --setup-only, one
JSON report line.  The loop is closed with one client: each task starts
when the previous one has finished.
"""

from __future__ import annotations

import argparse
import hashlib
import heapq
import json
import os
import resource
import time
from pathlib import Path
from statistics import median

import workloads  # imports lozlab

import refwork
import spans

MIN_TAIL_BEYOND = 10
SAMPLE_FLOOR_S = 0.05


class Runner:
    """Executions of one task list: latencies, outputs and failures."""

    def __init__(self, tasks: list[workloads.Task]):
        self.tasks = tasks
        self.outputs: list[str | None] = [None] * len(tasks)
        self.attempted = 0
        self.failures: list[str] = []

    def _execute(self, j: int, tracer) -> tuple[float, float]:
        """Run task ``j`` once and judge it; returns (start, seconds)."""
        task = self.tasks[j]
        start = time.perf_counter()
        try:
            value = task.call(tracer)
        except Exception as exc:  # any error, BudgetError included, fails the task
            elapsed = time.perf_counter() - start
            text, ok = "%s: %s" % (type(exc).__name__, exc), False
        else:
            elapsed = time.perf_counter() - start
            text, ok = task.judge(value)
        self.attempted += 1
        line = "%s -> %s" % (task.name, text)
        if self.outputs[j] is None:
            self.outputs[j] = line
        elif self.outputs[j] != line:
            ok = False
            line += " (first run: %s)" % self.outputs[j]
        if not ok:
            self.failures.append(line)
        return start, elapsed

    def timed(self, seconds: float) -> tuple[list[list[float]], list[list[float]]]:
        """Run every task once, then keep running whichever task has had
        the least time so far, until ``seconds`` have passed.

        Each task gets an equal share of the run where it is cheap enough
        to fit, and its samples are spread over the whole run, so that
        its median sees the host as the other tasks' medians do.  A
        sample counts for at least ``SAMPLE_FLOOR_S`` of the share, so
        that the cheapest tasks stop at a few dozen samples and leave
        the time to the tasks near the tail.  Returns the latencies per
        task at the reference host speed (refwork.py) and in raw seconds.
        """
        clock = refwork.Clock()
        runs: list[list[tuple[float, float]]] = [[] for _ in self.tasks]
        queue = [(0.0, j) for j in range(len(self.tasks))]  # a heap, in task order
        begin = time.perf_counter()
        while True:
            spent, j = heapq.heappop(queue)
            clock.tick()
            runs[j].append(self._execute(j, None))
            heapq.heappush(queue, (spent + max(runs[j][-1][1], SAMPLE_FLOOR_S), j))
            if queue[0][0] > 0 and time.perf_counter() - begin >= seconds:
                break
        clock.burst()
        self.reference_s = median(clock.values)
        return clock.scale_all(runs), [[e for _, e in r] for r in runs]

    def traced(self, passes: int, tracer) -> tuple[list[list[float]], list[int]]:
        """Make ``passes`` full passes, one execution per task, under the
        tracer.  Returns the latencies per task at the reference host
        speed and the span index at which each pass starts and ends."""
        n = len(self.tasks)
        clock = refwork.Clock()
        runs: list[list[tuple[float, float]]] = [[] for _ in range(n)]
        marks = []
        for i in range(passes * n):
            if i % n == 0:
                marks.append(len(tracer.spans))
            tracer.task = i
            clock.tick()
            runs[i % n].append(self._execute(i % n, tracer))
        marks.append(len(tracer.spans))
        clock.burst()
        return clock.scale_all(runs), marks

    def digest(self) -> str:
        return hashlib.sha256("\n".join(self.outputs).encode()).hexdigest()


def latency_summary(samples: list[list[float]]) -> dict:
    """Whole-list time and task percentiles from per-task medians.

    wall_s is the sum of per-task medians: the time one pass over the
    list takes.  The tail is the highest percentile with at least ten
    task medians beyond it.
    """
    meds = sorted(median(s) for s in samples)
    n = len(meds)
    if n <= MIN_TAIL_BEYOND:
        raise ValueError("a workload needs more than %d tasks" % MIN_TAIL_BEYOND)
    return {"wall_s": sum(meds), "task_p50_s": median(meds),
            "task_tail_s": meds[n - MIN_TAIL_BEYOND - 1],
            "tail_percentile": 100.0 * (n - MIN_TAIL_BEYOND) / n,
            "tasks": n, "samples": sum(len(s) for s in samples)}


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    root = Path.cwd()
    tasks = workloads.build(args.workload, args.seed, dict(os.environ), root)
    print("setup %d" % time.clock_gettime_ns(time.CLOCK_MONOTONIC), flush=True)
    if args.setup_only:
        return 0

    runner = Runner(tasks)
    report: dict = {}
    if not args.trace:
        samples, raw = runner.timed(args.seconds)
        report["latency"] = latency_summary(samples)
        report["raw_latency"] = latency_summary(raw)
        report["reference_probe_s"] = runner.reference_s
        report["task_medians_s"] = {t.name: [median(s), len(s)]
                                    for t, s in zip(tasks, samples)}
    else:
        # an untraced half for the overhead base, then two full traced
        # passes whose counters must agree exactly
        untraced = latency_summary(runner.timed(args.seconds / 2)[0])
        tracer = spans.Tracer()
        spans.install(tracer)
        samples, marks = runner.traced(2, tracer)
        traced = latency_summary(samples)
        passes = [tracer.spans[a:b] for a, b in zip(marks, marks[1:])]
        first, second = (spans.layer_metrics(p) for p in passes)
        report["problems"] = [
            "counter %s differs between traced passes: %r then %r"
            % (metric, first[metric], second[metric])
            for metric in first
            if spans.is_counter(metric) and first[metric] != second[metric]]
        layers = spans.pass_metrics(passes)
        layers["trace.overhead_ratio"] = traced["wall_s"] / untraced["wall_s"]
        report["layers"] = layers
        report["overhead_base"] = {"traced_wall_s": traced["wall_s"],
                                   "untraced_wall_s": untraced["wall_s"]}
        report["free_useful_base"] = {"subsets": layers["counting.free_subsets"]}
        report["empty_layers"] = {
            "metrics": sorted(m for m, v in layers.items() if v == 0),
            "why": workloads.IDLE_LAYERS[args.workload]}
        out_dir = root / ".lozbench"
        out_dir.mkdir(exist_ok=True)
        (out_dir / ("spans-%s-%d.json" % (args.workload, args.seed))).write_text(
            json.dumps({"passes": marks, "spans": tracer.spans}))

    usage = resource.getrusage(resource.RUSAGE_CHILDREN if args.workload == "cli-small"
                               else resource.RUSAGE_SELF)
    report.update({
        "attempted": runner.attempted,
        "failed": len(runner.failures),
        "failures": runner.failures[:10],
        "digest": runner.digest(),
        "peak_rss_mb": usage.ru_maxrss / 1024,
    })
    print(json.dumps(report), flush=True)
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
