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
from .lattice import cored_hexagon, d_region, hexagon, holed_hexagon, rbar_region
from .svg import first_tiling, region_svg
from .verify import check, count_text, default_grid, sweep

_SYM_KINDS = {"id": "Identity", "reflh": "ReflH", "reflv": "ReflV",
              "rot60": "Rot60", "rot120": "Rot120", "rot180": "Rot180"}
_LIST_FLAGS = ("ks", "is", "l", "q")


def _ints(text: str) -> list[int]:
    # argparse runs this before main's try: a bad list is a usage error
    if not text:
        return []
    try:
        return [int(part) for part in text.split(",")]
    except ValueError:
        raise argparse.ArgumentTypeError(
            "expected a comma-separated integer list, got %r" % text)


def _require(args, family: str, names: tuple[str, ...]) -> dict:
    out = {}
    for name in names:
        value = getattr(args, name, None)
        if value is None:
            raise ParameterError("family %s needs --%s" % (family, name))
        out[name] = value
    return out


def _build_region(args):
    """The region the family flags describe, and its JSON params."""
    family = args.family
    if family == "hexagon":
        p = _require(args, family, ("a", "b", "c"))
        region = hexagon(**p)
    elif family == "holed":
        p = _require(args, family, ("a", "b"))
        p["ks"] = args.ks if args.ks is not None else []
        region = holed_hexagon(p["a"], p["b"], p["ks"])
    elif family == "cored":
        p = _require(args, family, ("a", "b", "x"))
        p["ks"] = args.ks if args.ks is not None else []
        region = cored_hexagon(p["a"], p["b"], p["ks"], p["x"])
    elif family == "d":
        p = _require(args, family, ("a", "b", "eps"))
        p["is"] = args.is_ if args.is_ is not None else []
        region = d_region(p["a"], p["b"], p["eps"], p["is"])
    elif family == "rbar":
        p = _require(args, family, ("q", "base"))
        p["l"] = args.l if args.l is not None else []
        region = rbar_region(p["l"], p["q"], p["base"])
    else:
        raise ParameterError("unknown family %r" % family)
    return region, {"family": family, **p}


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
    out = {}
    for name in ("a", "b", "x", "eq"):
        value = getattr(args, name)
        if value is not None:
            out[name] = value
    for name, attr in (("ks", "ks"), ("is", "is_")):
        value = getattr(args, attr)
        if value is not None:
            out[name] = tuple(value)
    return out


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
    axes: list[tuple[str, list]] = []
    for clause in (c for c in text.split(";") if c):
        name, sep, values = clause.partition("=")
        if not sep or not name or not values:
            raise ParameterError("malformed grid clause %r" % clause)
        alts: list = []
        try:
            for alt in values.split("|"):
                if name in _LIST_FLAGS:
                    alts.append(() if alt == "-"
                                else tuple(int(v) for v in alt.split("+")))
                elif ".." in alt:
                    lo, _, hi = alt.partition("..")
                    alts.append(range(int(lo), int(hi) + 1))
                else:
                    alts.append([int(alt)])
        except ValueError:
            raise ParameterError("grid clause %r needs integer values"
                                 % clause)
        flat: list = []
        for item in alts:
            flat.extend([item] if isinstance(item, tuple) else list(item))
        axes.append((name, flat))
    names = [n for n, _ in axes]
    return tuple(dict(zip(names, combo))
                 for combo in product(*(vals for _, vals in axes)))


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
        graph = quotient_graph(dual_graph(region), symmetry(region, "Rot180"))
    text = region_svg(region, tiling=tiling, graph=graph)
    _emit(args, {**params, "tiling": args.tiling, "graph": args.graph,
                 "out": args.out},
          {"svg": text}, text)
    return 0


def _cmd_quotient(args) -> int:
    region, params = _build_region(args)
    kind = _SYM_KINDS[args.rot]
    g = quotient_graph(dual_graph(region), symmetry(region, kind))
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


def _add_region_flags(sub) -> None:
    sub.add_argument("--family", required=True,
                     choices=("hexagon", "holed", "cored", "d", "rbar"))
    sub.add_argument("--a", type=int)
    sub.add_argument("--b", type=int)
    sub.add_argument("--c", type=int)
    sub.add_argument("--x", type=int)
    sub.add_argument("--eps", type=int)
    sub.add_argument("--base", type=int)
    sub.add_argument("--ks", type=_ints)
    sub.add_argument("--is", dest="is_", type=_ints)
    sub.add_argument("--l", type=_ints)
    sub.add_argument("--q", type=_ints)


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
    sub.add_argument("--a", type=int)
    sub.add_argument("--b", type=int)
    sub.add_argument("--x", type=int)
    sub.add_argument("--eq", type=int)
    sub.add_argument("--ks", type=_ints)
    sub.add_argument("--is", dest="is_", type=_ints)
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
