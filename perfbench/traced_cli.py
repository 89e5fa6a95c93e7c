"""Run one coprimearray CLI command under the benchmark's tracer.

    python3 perfbench/traced_cli.py SPANS_JSON COMMAND [ARGS...]

Behaves as ``python -m coprimearray.cli COMMAND [ARGS...]``, except that
every layer's public functions are wrapped first and the spans, counts and
exceptions are written to SPANS_JSON when the command returns.
"""

import json
import sys
from pathlib import Path

from tracing import Tracer


def main() -> int:
    out, argv = Path(sys.argv[1]), sys.argv[2:]
    tracer = Tracer()
    tracer.install()
    tracer.begin_op(0)
    import coprimearray.cli

    try:
        return coprimearray.cli.main(argv)
    finally:
        out.write_text(json.dumps(tracer.export()))


if __name__ == "__main__":
    sys.exit(main())
