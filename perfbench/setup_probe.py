"""Measure set-up once, in a fresh interpreter.

    python3 perfbench/setup_probe.py {stream,design} SEED

Set-up is importing the package plus the first operation of every
configuration of the workload, which fills the package's caches.  Making
the inputs is not timed.  Prints one JSON line:
``{"setup_s": seconds, "errors": first operations that raised}``.
"""

import json
import sys
import time


def main() -> int:
    name, seed = sys.argv[1], int(sys.argv[2])
    start = time.perf_counter()
    import coprimearray  # noqa: F401  -- the import is part of set-up

    elapsed = time.perf_counter() - start
    import workloads

    errors = 0
    for op in workloads.make(name, seed).pass_ops(0):
        start = time.perf_counter()
        try:
            op.run()
        except Exception:  # the timed loop counts it; set-up still takes the time
            errors += 1
        elapsed += time.perf_counter() - start
    print(json.dumps({"setup_s": elapsed, "errors": errors}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
