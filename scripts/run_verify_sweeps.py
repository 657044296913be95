"""Sweep the whole identity catalog over the stock grids.

Prints one line per identity with row count, verdict, and wall time,
then exits 0 only when every row of every sweep held.
"""

import argparse
import sys
import time

from lozlab import IDENTITY_IDS, default_grid, sweep


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        description="run the stock verification sweeps")
    parser.add_argument("--ids", default=None,
                        help="comma separated identity ids (default: all)")
    parser.add_argument("--csv", action="store_true",
                        help="also print the full row table per identity")
    args = parser.parse_args(argv)
    wanted = IDENTITY_IDS if args.ids is None else tuple(
        name.strip() for name in args.ids.split(",") if name.strip())
    ok = True
    for identity in wanted:
        t0 = time.monotonic()
        report = sweep(identity, default_grid(identity))
        took = time.monotonic() - t0
        verdict = "ok" if report.all_true else "FAIL"
        print(f"{identity:11s} rows={len(report.rows):3d}  {verdict:4s} "
              f"{took:6.1f}s")
        if args.csv:
            print(report.csv_text().rstrip("\n"))
        ok = ok and report.all_true
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
