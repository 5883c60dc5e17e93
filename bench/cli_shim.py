"""Run the chargraph CLI with its layer boundaries traced.

Usage: python cli_shim.py <chargraph arguments>

Behaves like `python -m chargraph.cli`: same stdout, stderr, and exit code,
including a traceback and exit 1 on an uncaught exception.  It then writes
one extra stderr line, tracing.TRACE_MARK followed by the trace summary as
JSON, which the benchmark worker strips off.
"""

from __future__ import annotations

import json
import sys
import time
import traceback

from tracing import TRACE_MARK, Tracer


def main() -> int:
    start = time.perf_counter()
    import chargraph.cli
    import_ms = (time.perf_counter() - start) * 1e3
    tracer = Tracer()
    tracer.install()
    try:
        code = tracer.wrap("cli.main", chargraph.cli.main)(sys.argv[1:])
    except SystemExit as exc:
        code = exc.code
    except Exception:
        traceback.print_exc()
        code = 1
    summary = tracer.summary()
    summary["import_ms"] = import_ms
    sys.stdout.flush()
    print(TRACE_MARK + json.dumps(summary), file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
