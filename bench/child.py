"""Traced CLI call: ``python bench/child.py SPANS OP -- ARGV...``.

Runs ``logitboot.cli.main(ARGV)`` in this fresh interpreter with spans
around the import and every wrapped call site, writes the spans to SPANS
as JSON and exits with the CLI's exit code.  ``logitboot`` is found on
``PYTHONPATH``, which the benchmark points at the measured source tree.
"""

import time

FIRST_STATEMENT = time.monotonic()

import sys  # noqa: E402

from tracing import Tracer  # noqa: E402


def main() -> int:
    spans_path, op, separator, *argv = sys.argv[1:]
    if separator != "--":
        raise SystemExit("usage: child.py SPANS OP -- ARGV...")
    tracer = Tracer()
    tracer.op = op
    with tracer.span("import"):
        import logitboot.cli
    with tracer.installed(), tracer.span("logitboot.cli.main"):
        code = logitboot.cli.main(argv)
    sys.stdout.flush()
    tracer.dump(spans_path, first=FIRST_STATEMENT)
    return code


if __name__ == "__main__":
    sys.exit(main())
