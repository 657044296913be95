"""Record the expected stdout of every cli-small candidate invocation.

Usage, from the root of a lozlab checkout whose outputs are trusted:

    PYTHONPATH=src python3 lozbench/golden.py

Writes cli_golden.json beside this file: for each invocation, its exit
code and the sha256 of its stdout.  Before recording, each count the
CLI prints is compared with an independent product formula where one
exists, and every invocation must exit 0 (verify and sweep exit 1 on a
false identity).
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

import lozlab

import run
import workloads


def reference(argv: list[str]) -> int | None:
    """The count an invocation must print, when a closed form gives it."""
    if argv[0] not in ("count", "count-sym"):
        return None
    flags = dict(zip(argv[1::2], argv[2::2]))
    family, sym = flags["--family"], flags.get("--sym")
    a, b = int(flags["--a"]), int(flags["--b"])

    def ints(flag):
        return tuple(int(k) for k in flags.get(flag, "").split(",") if k)

    if sym is None and family == "hexagon":
        return lozlab.macmahon_box(a, b, int(flags["--c"]))
    if sym is None and family == "d":
        return lozlab.d_count(a, b, int(flags["--eps"]), ints("--is"))
    if family == "hexagon" and sym == "rot180":
        # no centrally symmetric tiling when all three sides are odd
        return workloads.sc_box(a) if a % 2 == 0 else 0
    if family == "hexagon" and sym in ("rot120", "rot60"):
        return workloads.SYM_REFERENCE["Rot" + sym[3:]](a)
    if family == "holed" and sym == "rot180":
        if a % 2 == 0:
            return lozlab.holed_count_even(a // 2, b, ints("--ks"))
        return lozlab.holed_count_odd(a // 2, b, ints("--ks"))
    return None


def main() -> int:
    root = Path.cwd()
    env = run.pinned_env(root)
    golden = {}
    for argv in workloads.cli_candidates():
        out, code = workloads.run_cli(argv, None, env, root)
        key = workloads.cli_key(argv)
        if code != 0:
            raise SystemExit("%s exited %d" % (key, code))
        expected = reference(argv)
        if expected is not None:
            printed = (json.loads(out)["result"] if "--json" in argv
                       else int(out.decode()))
            if printed != expected:
                raise SystemExit("%s printed %s, the formula gives %d"
                                 % (key, printed, expected))
        golden[key] = {"exit": code, "sha256": hashlib.sha256(out).hexdigest()}
    lines = ("%s: %s" % (json.dumps(k), json.dumps(golden[k], sort_keys=True))
             for k in sorted(golden))
    workloads.GOLDEN.write_text("{\n%s\n}\n" % ",\n".join(lines), encoding="utf-8")
    print("%d invocations recorded in %s" % (len(golden), workloads.GOLDEN))
    return 0


if __name__ == "__main__":
    sys.exit(main())
