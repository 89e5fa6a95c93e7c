"""Self-check of the benchmark harness at tiny sizes.

    python3 perfbench/selfcheck.py

Run from the root of the repository.  It asserts two things:

1. Every workload, run for one second untraced and traced, prints as its
   last line a result that names every metric of ``BENCHMARK.json`` (the
   end-to-end metrics untraced, the per-layer metrics traced) with its unit.
2. A deliberately corrupted output of each workload is counted as a failed
   operation, and so lowers ``ok_ratio`` (raises the failed ratio).
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}


def check_metric_names(spec: dict) -> None:
    for workload in spec["workloads"]:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            argv = [sys.executable, str(run.HERE / "run.py"), "--workload", workload["name"],
                    "--seed", "1", "--seconds", "1", "--trace", str(trace)]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, timeout=600)
            assert proc.returncode == 0, f"{argv} exited {proc.returncode}: {proc.stderr[-2000:]}"
            result = json.loads(proc.stdout.splitlines()[-1])
            assert set(result) == RESULT_KEYS, f"{workload['name']}: result keys {set(result)}"
            assert result["attempted"] >= 1
            expected = {metric["name"]: metric["unit"] for metric in spec[kind]}
            printed = {name: metric["unit"] for name, metric in result["metrics"].items()}
            assert printed == expected, (
                f"{workload['name']} trace={trace}: missing {set(expected) - set(printed)}, "
                f"unexpected {set(printed) - set(expected)}, units "
                f"{ {n: (printed[n], expected[n]) for n in printed if printed.get(n) != expected.get(n)} }"
            )
            assert all(isinstance(m["value"], (int, float)) for m in result["metrics"].values())
            print(f"ok: {workload['name']} trace={trace} prints all {len(expected)} {kind} metrics")


def assert_counted(workloads, label: str, op, corrupt) -> None:
    """Run ``op`` once cleanly, then with ``corrupt`` applied to its output."""
    stats = workloads.LoopStats()
    workloads.run_op(op, stats)
    assert stats.failed == 0, f"{label}: clean run failed: {stats.messages}"

    def corrupted():
        result = op.run()
        corrupt(result)
        return result

    workloads.run_op(workloads.Op(op.rung, corrupted, op.check, op.detects_peaks), stats)
    assert (stats.attempted, stats.failed, stats.wrong) == (2, 1, 1), f"{label}: {stats}"
    assert stats.completed / stats.attempted == 0.5
    print(f"ok: corrupted {label} output counted as failed ({stats.messages[0][:80]})")


def check_corruption_counted() -> None:
    env = run.configure_environment(len(os.sched_getaffinity(0)))
    sys.path.insert(0, str(run.SRC))
    import workloads

    def scale_spectrum(result):
        estimator = result[0]
        estimator.spectrum_ = estimator.spectrum_ * (1.0 + 1e-6)

    assert_counted(workloads, "stream", workloads.Stream(1).pass_ops(0)[0], scale_spectrum)

    def shift_amplitude(result):
        result[0][0] += 2 * workloads.TABLE_TOLERANCE

    assert_counted(workloads, "design", workloads.Design(1).pass_ops(0)[0], shift_amplitude)

    run.SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="selfcheck-", dir=run.SCRATCH))
    try:
        def flip_byte(proc):
            line = next(line for line in proc.stdout.splitlines() if line.startswith("wrote "))
            path = Path(line[len("wrote "):])
            data = bytearray(path.read_bytes())
            data[-2] ^= 1
            path.write_bytes(bytes(data))

        assert_counted(workloads, "cli", workloads.Cli(1, workdir, env).pass_ops(0)[0], flip_byte)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    check_corruption_counted()
    check_metric_names(spec)
    print("selfcheck passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
