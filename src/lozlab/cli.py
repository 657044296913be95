"""Command line surface: count, verify, sweep, render, export graphs.

Subcommands
    count      exact tiling count of one region (free boundaries summed)
    count-sym  tilings invariant under a set of symmetries
    verify     evaluate both sides of one catalog identity
    sweep      run one identity over a parameter grid, emit CSV
    render     SVG drawing of a region, optionally with an overlay
    quotient   rotation quotient of the dual graph, as graph text
    split      axis-surgered half of the central quotient, as graph text

All numeric output is exact (integers in decimal, ratios as p/q) and
every invocation is byte-deterministic.  Exit codes: 0 on success, 1
when a verified identity fails, 2 for usage errors.  --json wraps the
result as {"command", "params", "result"}; --out writes exactly the
bytes stdout would get (text or envelope) to a file instead.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from itertools import product

from .counting import (count_symmetric_tilings, count_tilings,
                       count_tilings_free)
from .duality import (central_axis_split, dual_graph, graph_text,
                      quotient_graph, symmetry)
from .errors import LozlabError, ParameterError
from .lattice import LIST_PARAMS, _FAMILIES as _BUILDERS
from .svg import first_tiling, region_svg
from .verify import _CATALOG, check, count_text, default_grid, sweep

_SYM_KINDS = {"id": "Identity", "reflh": "ReflH", "reflv": "ReflV",
              "rot60": "Rot60", "rot120": "Rot120", "rot180": "Rot180"}


def _ints(text: str) -> list[int]:
    # argparse runs this before main's try: a bad list is a usage error
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated integer list, got %r" % text)


# each family's lattice family, whose entry in the lattice table gives the
# builder and its parameters in builder order, and the one list flag that
# may be omitted (read as empty).  The JSON params are the required ones in
# builder order, then that list.  A region flag the family lacks is refused.
_FAMILIES = {"hexagon": ("Hexagon", None), "holed": ("HoledHexagon", "ks"),
             "cored": ("CoredHexagon", "ks"), "d": ("DRegion", "is"),
             "rbar": ("RBarRegion", "l")}


def _flags(names) -> list[str]:
    """Each name once: integers, then lists, each in order of first use."""
    return sorted(dict.fromkeys(names), key=lambda name: name in LIST_PARAMS)


_REGION_FLAGS = _flags(n for family, _ in _FAMILIES.values()
                       for n in _BUILDERS[family][1])
_VERIFY_FLAGS = _flags(n for keys, _ in _CATALOG.values() for n in keys)


def _build_region(args):
    """The region the family flags describe, and its JSON params."""
    family = args.family
    lattice_family, omissible = _FAMILIES[family]
    build, names, _ = _BUILDERS[lattice_family]
    # of several foreign flags, the alphabetically first is named
    for name in sorted(_REGION_FLAGS):
        if name not in names and getattr(args, name) is not None:
            raise ParameterError("family %s does not take --%s"
                                 % (family, name))
    p = {name: getattr(args, name) for name in names if name != omissible}
    for name, value in p.items():
        if value is None:
            raise ParameterError("family %s needs --%s" % (family, name))
    if omissible:
        p[omissible] = getattr(args, omissible) or []
    return build(*(p[name] for name in names)), {"family": family, **p}


def _fraction_json(value: Fraction):
    # json.dumps hook: an integral count stays a number, a ratio is p/q
    return int(value) if value.denominator == 1 else count_text(value)


def _emit(args, params: dict, result, text: str) -> None:
    """The one output rule: the text, or with --json the envelope around
    result; --out sends exactly those bytes to a file, none to stdout."""
    if args.json:
        text = json.dumps({"command": args.command, "params": params,
                           "result": result}, default=_fraction_json) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------
# subcommand bodies


def _cmd_count(args) -> int:
    region, params = _build_region(args)
    n = count_tilings_free(region) if region.free_edges else count_tilings(region)
    _emit(args, params, n, "%d\n" % n)
    return 0


def _cmd_count_sym(args) -> int:
    region, params = _build_region(args)
    kinds = []
    for token in args.sym.split(","):
        token = token.strip().lower()
        if token not in _SYM_KINDS:
            raise ParameterError("unknown symmetry %r (choose from %s)"
                                 % (token, ", ".join(sorted(_SYM_KINDS))))
        kinds.append(_SYM_KINDS[token])
    n = count_symmetric_tilings(region, tuple(kinds), args.method)
    _emit(args, {**params, "sym": kinds, "method": args.method}, n,
          "%d\n" % n)
    return 0


def _verify_params(args) -> dict:
    values = {name: getattr(args, name) for name in _VERIFY_FLAGS}
    return {name: tuple(v) if name in LIST_PARAMS else v
            for name, v in values.items() if v is not None}


def _cmd_verify(args) -> int:
    params = _verify_params(args)
    result = check(args.id, params)
    word = "OK" if result.verdict else "FAIL"
    if len(result.factors) == 2:
        line = "%s = %s × %s %s" % (count_text(result.lhs),
                                    count_text(result.factors[0]),
                                    count_text(result.factors[1]), word)
    else:
        line = "%s = %s %s" % (count_text(result.lhs),
                               count_text(result.rhs), word)
    _emit(args, {"id": args.id, **params},
          {"lhs": result.lhs, "rhs": result.rhs, "factors": result.factors,
           "verdict": result.verdict, "lhs_route": result.lhs_route,
           "rhs_route": result.rhs_route},
          line + "\n")
    return 0 if result.verdict else 1


def _parse_grid(identity_id: str, text: str):
    if text == "default":
        return default_grid(identity_id)
    axes: dict[str, list] = {}
    for clause in (c for c in text.split(";") if c):
        name, sep, values = clause.partition("=")
        if not sep or not name or not values:
            raise ParameterError("malformed grid clause %r" % clause)
        if name in axes:
            raise ParameterError("grid clause %r repeats parameter %s"
                                 % (clause, name))
        flat = axes[name] = []
        try:
            for alt in values.split("|"):
                if name in LIST_PARAMS:
                    flat.append(() if alt == "-"
                                else tuple(int(v) for v in alt.split("+")))
                    continue
                lo, dots, hi = alt.partition("..")
                span = range(int(lo), int(hi if dots else lo) + 1)
                if not span:
                    raise ParameterError("grid clause %r has the empty range "
                                         "%s" % (clause, alt))
                flat.extend(span)
        except ValueError:
            raise ParameterError("grid clause %r needs integer values"
                                 % clause)
    return tuple(dict(zip(axes, combo)) for combo in product(*axes.values()))


def _cmd_sweep(args) -> int:
    grid = _parse_grid(args.id, args.grid)
    report = sweep(args.id, grid)
    text = report.csv_text()
    _emit(args, {"id": args.id, "grid": args.grid},
          {"rows": len(report.rows), "all_true": report.all_true,
           "csv": text}, text)
    return 0 if report.all_true else 1


def _cmd_render(args) -> int:
    region, params = _build_region(args)
    tiling = first_tiling(region) if args.tiling else None
    graph = None
    if args.graph == "dual":
        graph = dual_graph(region)
    elif args.graph == "quotient":
        graph = quotient_graph(symmetry(region, "Rot180"))
    text = region_svg(region, tiling=tiling, graph=graph)
    _emit(args, {**params, "tiling": args.tiling, "graph": args.graph,
                 "out": args.out},
          {"svg": text}, text)
    return 0


def _cmd_quotient(args) -> int:
    region, params = _build_region(args)
    kind = _SYM_KINDS[args.rot]
    g = quotient_graph(symmetry(region, kind))
    text = graph_text(g)
    _emit(args, {**params, "rot": args.rot},
          {"vertices": g.n, "loops": len(g.loops), "graph": text}, text)
    return 0


def _cmd_split(args) -> int:
    region, params = _build_region(args)
    split, loop_weight = central_axis_split(region)
    text = graph_text(split.subgraph)
    _emit(args, params,
          {"vertices": split.subgraph.n,
           "multiplier_log2": split.multiplier_log2,
           "loop_weight": loop_weight, "graph": text}, text)
    return 0


# ---------------------------------------------------------------------
# argument wiring


def _add_param_flags(sub, names) -> None:
    for name in names:
        sub.add_argument("--" + name,
                         type=_ints if name in LIST_PARAMS else int)


def _add_region_flags(sub) -> None:
    sub.add_argument("--family", required=True, choices=tuple(_FAMILIES))
    _add_param_flags(sub, _REGION_FLAGS)


def _add_output_flags(sub) -> None:
    sub.add_argument("--out", help="write the output here instead of stdout")
    sub.add_argument("--json", action="store_true")


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="lozlab",
        description="exact counts and identity checks for lozenge tilings")
    subs = parser.add_subparsers(dest="command", required=True)

    sub = subs.add_parser("count", help="exact tiling count of a region")
    _add_region_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_count)

    sub = subs.add_parser("count-sym", help="symmetry-invariant tiling count")
    _add_region_flags(sub)
    sub.add_argument("--sym", required=True,
                     help="comma list: rot60,rot120,rot180,reflh,reflv,id")
    sub.add_argument("--method", default="auto",
                     choices=("auto", "orbit", "filter", "quotient"))
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_count_sym)

    sub = subs.add_parser("verify", help="check one identity instance")
    sub.add_argument("--id", required=True)
    _add_param_flags(sub, _VERIFY_FLAGS)
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_verify)

    sub = subs.add_parser("sweep", help="check one identity over a grid")
    sub.add_argument("--id", required=True)
    sub.add_argument("--grid", required=True,
                     help="'default' or e.g. 'a=1..3;b=1|2;ks=-|1|1+2'")
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_sweep)

    sub = subs.add_parser("render", help="draw a region as SVG")
    _add_region_flags(sub)
    sub.add_argument("--tiling", action="store_true",
                     help="overlay a sample tiling")
    sub.add_argument("--graph", choices=("dual", "quotient"),
                     help="overlay the dual or central-quotient graph")
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_render)

    sub = subs.add_parser("quotient",
                          help="rotation quotient of the dual graph")
    _add_region_flags(sub)
    sub.add_argument("--rot", default="rot180",
                     choices=("rot60", "rot120", "rot180"))
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_quotient)

    sub = subs.add_parser("split",
                          help="axis surgery on the central quotient")
    _add_region_flags(sub)
    _add_output_flags(sub)
    sub.set_defaults(fn=_cmd_split)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.fn(args)
    except (LozlabError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
