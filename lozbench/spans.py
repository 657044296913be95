"""Span tracing of lozlab from the outside, and per-layer metrics.

``install`` replaces each wrapped public function in every ``lozlab.*``
module namespace that holds the same object, so calls between modules
(``verify`` calling ``count_symmetric_tilings``, ``mgf`` calling
``count_matchings_pfaffian``) are caught too.  Only public names are
wrapped, so the spans survive rewrites of the private helpers behind
them.  A span is ``[id, parent, name, start_ns, end_ns, task, attrs]``;
spans stay in memory until the run writes them out.  A layer's time is
the self time of its spans: duration minus that of direct child spans.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from statistics import median

# module -> public functions wrapped, one layer per module
WRAPPED = {
    "lattice": ("hexagon", "holed_hexagon", "cored_hexagon", "d_region"),
    "duality": ("dual_graph", "quotient_graph", "symmetry", "symmetry_group",
                "factorization_split", "without_vertices", "remove_loop_vertex"),
    "counting": ("count_matchings_pfaffian", "count_symmetric_tilings",
                 "count_tilings_free"),
    "formulas": ("macmahon_box", "holed_count_even", "holed_count_odd",
                 "cored_count", "d_count"),
    "verify": ("check",),
    "svg": ("region_svg", "first_tiling"),
    "cli": ("main",),
}

REFLECTIONS = ("ReflH", "ReflV")
STDERR_TAG = "lozbench-spans "


def _method(args, kwargs) -> str:
    """The route count_symmetric_tilings takes, as its docstring states:
    "auto" is the quotient for pure rotation groups, orbit otherwise."""
    kinds = args[1] if len(args) > 1 else kwargs["kinds"]
    method = args[2] if len(args) > 2 else kwargs.get("method", "auto")
    if method == "auto":
        return "orbit" if any(k in REFLECTIONS for k in kinds) else "quotient"
    return method


def _attrs(name: str, args, kwargs, result) -> dict | None:
    module = name.partition(".")[0]
    if module == "lattice":
        return {"cells": len(result.cells)}
    if name == "duality.quotient_graph":
        return {"vertices": result.n}
    if name == "counting.count_matchings_pfaffian":
        return {"vertices": args[0].n, "nonzero": result != 0}
    if name == "counting.count_symmetric_tilings":
        return {"method": _method(args, kwargs)}
    if name == "counting.count_tilings_free":
        return {"subsets": 2 ** len(args[0].free_edges)}
    return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.task = None
        self._open: list[list] = []

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            parent = self._open[-1][0] if self._open else None
            span = [len(self.spans), parent, name, 0, 0, self.task, None]
            self.spans.append(span)
            self._open.append(span)
            span[3] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[4] = time.perf_counter_ns()
                self._open.pop()
            span[6] = _attrs(name, args, kwargs, result)
            return result
        return traced

    def record(self, name: str, start_ns: int, end_ns: int) -> None:
        """A span timed by the caller, such as an import."""
        parent = self._open[-1][0] if self._open else None
        self.spans.append([len(self.spans), parent, name, start_ns, end_ns,
                           self.task, None])

    def absorb(self, stderr: bytes) -> None:
        """Adopt the spans a traced child process reported on stderr."""
        base = len(self.spans)
        for line in stderr.decode("utf-8", "replace").splitlines():
            if line.startswith(STDERR_TAG):
                for sid, parent, name, start, end, _task, attrs in json.loads(
                        line[len(STDERR_TAG):]):
                    self.spans.append([base + sid,
                                       None if parent is None else base + parent,
                                       name, start, end, self.task, attrs])


def install(tracer: Tracer) -> None:
    """Wrap every function in WRAPPED wherever lozlab's modules hold it."""
    import lozlab.cli  # noqa: F401  (loads every submodule)

    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "lozlab" or n.startswith("lozlab."))]
    for module_name, names in WRAPPED.items():
        home = sys.modules["lozlab." + module_name]
        for fname in names:
            original = getattr(home, fname)
            traced = tracer.wrap(module_name + "." + fname, original)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, traced)


# ---------------------------------------------------------------------
# per-layer metrics

# metric -> span names whose self time it sums
TIME_METRICS = {
    "lattice.build_s": ["lattice." + f for f in WRAPPED["lattice"]],
    "duality.dual_graph_s": ["duality.dual_graph"],
    "duality.quotient_s": ["duality.quotient_graph"],
    "duality.symmetry_s": ["duality.symmetry", "duality.symmetry_group"],
    "duality.split_s": ["duality.factorization_split"],
    "duality.subgraph_s": ["duality.without_vertices", "duality.remove_loop_vertex"],
    "counting.pfaffian_s": ["counting.count_matchings_pfaffian"],
    "counting.free_sum_s": ["counting.count_tilings_free"],
    "formulas.eval_s": ["formulas." + f for f in WRAPPED["formulas"]],
    "verify.check_s": ["verify.check"],
    "svg.render_s": ["svg.region_svg", "svg.first_tiling"],
    "cli.import_s": ["cli.import"],
    "cli.main_s": ["cli.main"],
}

# metric -> span names it counts
CALL_METRICS = {
    "duality.dual_graph_calls": ["duality.dual_graph"],
    "duality.subgraph_calls": ["duality.without_vertices", "duality.remove_loop_vertex"],
    "counting.pfaffian_calls": ["counting.count_matchings_pfaffian"],
    "formulas.calls": ["formulas." + f for f in WRAPPED["formulas"]],
    "verify.checks": ["verify.check"],
}


def layer_metrics(spans: list[list]) -> dict[str, float]:
    """Per-layer totals over one pass of spans."""
    child_ns: dict[int, int] = {}
    for sid, parent, _name, start, end, _task, _attrs in spans:
        if parent is not None:
            child_ns[parent] = child_ns.get(parent, 0) + end - start
    self_s: dict[str, float] = {}
    calls: dict[str, int] = {}
    for sid, _parent, name, start, end, _task, _attrs in spans:
        self_s[name] = self_s.get(name, 0.0) + (end - start - child_ns.get(sid, 0)) / 1e9
        calls[name] = calls.get(name, 0) + 1

    def attrs_of(name):
        return [s[6] for s in spans if s[2] == name and s[6] is not None]

    out = {m: sum(self_s.get(n, 0.0) for n in names)
           for m, names in TIME_METRICS.items()}
    out.update({m: sum(calls.get(n, 0) for n in names)
                for m, names in CALL_METRICS.items()})
    out["lattice.cells"] = sum(a["cells"] for n in WRAPPED["lattice"]
                               for a in attrs_of("lattice." + n))
    out["duality.quotient_vertices"] = sum(
        a["vertices"] for a in attrs_of("duality.quotient_graph"))
    pf = attrs_of("counting.count_matchings_pfaffian")
    out["counting.pfaffian_vertices_max"] = max((a["vertices"] for a in pf), default=0)
    out["counting.pfaffian_vertices_sum"] = sum(a["vertices"] for a in pf)

    by_id = {s[0]: s for s in spans}
    sym = [s for s in spans if s[2] == "counting.count_symmetric_tilings"
           and s[6] is not None]
    orbit = [s for s in sym if s[6]["method"] == "orbit"]
    out["counting.orbit_s"] = sum(
        (s[4] - s[3] - child_ns.get(s[0], 0)) / 1e9 for s in orbit)
    out["counting.orbit_calls"] = len(orbit)
    out["counting.filter_s"] = sum(
        (s[4] - s[3] - child_ns.get(s[0], 0)) / 1e9
        for s in sym if s[6]["method"] == "filter")

    subsets = sum(a["subsets"] for a in attrs_of("counting.count_tilings_free"))
    useful = sum(1 for s in spans
                 if s[2] == "counting.count_matchings_pfaffian"
                 and s[6] is not None and s[6]["nonzero"] and s[1] is not None
                 and by_id[s[1]][2] == "counting.count_tilings_free")
    out["counting.free_subsets"] = subsets
    out["counting.free_useful_ratio"] = useful / subsets if subsets else 0.0
    return out


def is_counter(metric: str) -> bool:
    """Counters must repeat exactly between two passes over one task list."""
    return not metric.endswith("_s")


def pass_metrics(passes: list[list[list]]) -> dict[str, float]:
    """Median over passes for times, the first pass for counters."""
    per_pass = [layer_metrics(p) for p in passes]
    return {m: (per_pass[0][m] if is_counter(m)
                else median(p[m] for p in per_pass))
            for m in per_pass[0]}
