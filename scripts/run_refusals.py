"""Run the refusal battery: each line of scripts/refusals.txt in a
fresh process.

    python3 scripts/run_refusals.py

Each line is "argv | fragment": argv is split on whitespace and run as
`python -m lozlab ARGV` from the repository root, with src/ on
PYTHONPATH and stdin from /dev/null.  The line passes when the process
exits 2 within 60 s, its stderr holds no "Traceback" and, where a
fragment is given (the text after the first "|", less one leading
space), its stderr holds that fragment.  Lines starting with "#" and
blank lines are skipped.  Every line runs, each printed with its exit
code and stderr; the script exits 1 when any line failed, else 0.
"""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
REFUSALS = ROOT / "scripts" / "refusals.txt"
TIMEOUT_S = 60


def read_refusals(path: Path) -> list[tuple[list[str], str]]:
    """Each line's argv, split on whitespace, and its fragment."""
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        argv, _, fragment = line.partition("|")
        out.append((argv.split(), fragment.removeprefix(" ")))
    return out


def refusal_fault(argv: list[str], fragment: str) -> str | None:
    """Run one refusal: None when it passes, else what went wrong."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH")
                               else []))
    try:
        run = subprocess.run([sys.executable, "-m", "lozlab", *argv],
                             cwd=ROOT, env=env, stdin=subprocess.DEVNULL,
                             stderr=subprocess.PIPE, timeout=TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print("lozlab %s -> no exit within %d s" % (" ".join(argv), TIMEOUT_S))
        return "timed out"
    err = run.stderr.decode("utf-8", "replace")
    print("lozlab %s -> exit %d" % (" ".join(argv), run.returncode))
    print(err, end="")
    if run.returncode != 2:
        return "exit %d, not 2" % run.returncode
    if fragment and fragment not in err:
        return "no %r on stderr" % fragment
    if "Traceback" in err:
        return "a traceback on stderr"
    return None


def main() -> int:
    faults = []
    for argv, fragment in read_refusals(REFUSALS):
        fault = refusal_fault(argv, fragment)
        if fault:
            faults.append("lozlab %s: %s" % (" ".join(argv), fault))
    for fault in faults:
        print("FAILED " + fault, file=sys.stderr)
    return 1 if faults else 0


if __name__ == "__main__":
    sys.exit(main())
