"""``python -m lozlab`` with span tracing, for the traced cli-small run.

Usage: traced_cli.py <lozlab arguments>.  Stdout and the exit code are
the CLI's own; the spans, including the import of lozlab, go to stderr
as one tagged JSON line.
"""

import sys
import time

start = time.perf_counter_ns()
import lozlab.cli  # noqa: E402

imported = time.perf_counter_ns()

import json  # noqa: E402

import spans  # noqa: E402

tracer = spans.Tracer()
tracer.record("cli.import", start, imported)
spans.install(tracer)
code = lozlab.cli.main(sys.argv[1:])
sys.stdout.flush()
sys.stderr.write(spans.STDERR_TAG + json.dumps(tracer.spans) + "\n")
sys.exit(code)
