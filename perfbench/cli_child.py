"""Traced stand-in for ``python -m vdplin``: one CLI invocation in a fresh
interpreter with the benchmark's span wrappers installed.

    python3 perfbench/cli_child.py SPANS_FILE -- <subcommand> [args...]

The import of ``vdplin.cli`` is recorded as the span ``import.vdplin_cli``;
spans are written to SPANS_FILE when the invocation ends, and the process
exits with the CLI's exit code.
"""

import sys
from pathlib import Path
from time import perf_counter

t0 = perf_counter()

from tracing import Tracer  # noqa: E402  (sys.path[0] is this directory)


def main() -> int:
    spans_file = Path(sys.argv[1])
    if sys.argv[2] != "--":
        raise SystemExit("usage: cli_child.py SPANS_FILE -- <args>")
    import vdplin.cli
    t1 = perf_counter()
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    tracer.add_span("import.vdplin_cli", t0, t1)
    try:
        code = vdplin.cli.run(sys.argv[3:])
    finally:
        tracer.end_op()
        tracer.dump(spans_file)
    return code


if __name__ == "__main__":
    sys.exit(main())
