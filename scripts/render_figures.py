"""Write a small gallery of region drawings as SVG files.

One figure per region family plus a tiling overlay and a quotient-graph
overlay, all byte-deterministic.  The quotient example uses an odd-side
region so the loop marker shows up.
"""

import argparse
import sys
from pathlib import Path

from lozlab import (
    cored_hexagon,
    d_region,
    first_tiling,
    hexagon,
    holed_hexagon,
    quotient_graph,
    region_svg,
    symmetry,
)


def gallery():
    plain = hexagon(3, 3, 3)
    yield "hexagon_tiled.svg", region_svg(plain, tiling=first_tiling(plain))
    yield "holed_hexagon.svg", region_svg(holed_hexagon(15, 5, (2, 5, 7)))
    yield "cored_hexagon.svg", region_svg(cored_hexagon(3, 1, (1,), 2))
    yield "free_boundary.svg", region_svg(d_region(3, 2, 0, (1, 3)))
    base = holed_hexagon(5, 1, (2,))
    quot = quotient_graph(symmetry(base, "Rot180"))
    yield "central_quotient.svg", region_svg(base, graph=quot)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="render the stock figures")
    parser.add_argument("--out", default="figures", help="output directory")
    args = parser.parse_args(argv)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    for name, text in gallery():
        path = out / name
        path.write_text(text, encoding="utf-8")
        print(f"{path} ({len(text)} bytes)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
