#!/usr/bin/env python3
"""Benchmark of the coprimearray package, measured from outside it.

    python3 perfbench/run.py --workload {stream,design,cli} --seed N \\
        --seconds S --trace {0,1}

Run it from the root of a checkout that holds ``src/coprimearray``; the
package is imported from that source tree and nowhere else.  The last line
of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end metrics, with ``--trace 1`` the per-layer metrics of a
traced run.  The lines before it say how the figures were made.

The workloads, metrics and the end-to-end metric each per-layer metric
should move are described in ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import compileall
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("stream", "design", "cli")

#: Fresh processes per run whose median set-up time is reported.
SETUP_REPEATS = 3
SETUP_TIMEOUT_S = 120

#: Thread-count variables of the BLAS libraries numpy may be built with.
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

#: Working directories inside the checkout: CLI outputs (removed after the
#: run) and the spans of traced runs.
SCRATCH = ROOT / ".perfbench_tmp"
TRACE_DIR = ROOT / ".perfbench_out"

#: Per-layer span metrics: ``ms`` is inclusive time and ``self_ms`` self time,
#: each per operation and median over the operations that call the function;
#: ``calls`` is calls per operation.
SPAN_METRICS = (
    ("estimator.fit", "self_ms"),
    ("estimator.sample_snapshot", "ms"),
    ("estimator.sample_snapshot", "calls"),
    ("estimator.autocorrelation", "ms"),
    ("estimator.correlogram", "ms"),
    ("estimator.correlogram", "calls"),
    ("estimator.detect_peaks", "ms"),
    ("estimator.average_correlogram", "ms"),
    ("spectra.bias_biased", "ms"),
    ("spectra.bias_unbiased", "ms"),
    ("spectra.side_lobe_peak", "ms"),
    ("spectra.main_lobe_edge", "ms"),
    ("spectra.relative_amplitude", "self_ms"),
    ("spectra.dtft_of_window", "ms"),
    ("spectra.window_term_curves", "self_ms"),
    ("weights.weight_oracle", "ms"),
    ("weights.weight_closed_form", "ms"),
    ("weights.weight_terms", "ms"),
    ("weights.unbiased_window", "ms"),
    ("sets.difference_set", "ms"),
    ("sets.verify_structure", "ms"),
    ("metrics.complexity", "ms"),
    ("metrics.variance_factor", "ms"),
    ("metrics.variance_sweep", "ms"),
    ("cli.main", "self_ms"),
)

#: Computed work counts per operation; they repeat exactly for a seed.
COUNT_METRICS = (
    ("estimator.pair_products", "products/op"),
    ("estimator.transform_macs", "macs/op"),
    ("estimator.phase_matrix_bytes", "B/op"),
    ("spectra.dtft_macs", "macs/op"),
    ("cli.output_bytes", "B/op"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def configure_environment(nproc: int) -> dict[str, str]:
    """Cap BLAS threads at nproc and put the checkout's source first on the
    path, for this process and every process it starts."""
    for var in BLAS_THREAD_VARS:
        current = os.environ.get(var, "")
        if not (current.isdigit() and 0 < int(current) <= nproc):
            os.environ[var] = str(nproc)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    )
    return dict(os.environ)


def blas_threads() -> int | None:
    """Thread count reported by the loaded OpenBLAS, if there is one."""
    try:
        maps = Path("/proc/self/maps").read_text()
    except OSError:
        return None
    libraries = sorted({line.split()[-1] for line in maps.splitlines()
                        if "openblas" in line.lower() and ".so" in line})
    symbols = ("openblas_get_num_threads", "openblas_get_num_threads64_",
               "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads")
    for library in libraries:
        handle = ctypes.CDLL(library)
        for symbol in symbols:
            function = getattr(handle, symbol, None)
            if function is not None:
                function.restype = ctypes.c_int
                return int(function())
    return None


def machine_facts(np, nproc: int) -> str:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        library = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        library = "unknown"
    caps = " ".join(f"{var}={os.environ[var]}" for var in BLAS_THREAD_VARS)
    return (f"machine: nproc={nproc} python={platform.python_version()} numpy={np.__version__} "
            f"blas={library} blas_threads={blas_threads()} ({caps})")


def measure_setup(workload: str, seed: int, env: dict, workdir: Path) -> float:
    """Median over fresh processes of set-up: the import plus the first
    operation of every configuration (``cli``: a ``--version`` call)."""
    times = []
    for _ in range(SETUP_REPEATS):
        if workload == "cli":
            start = time.perf_counter()
            proc = subprocess.run([sys.executable, "-m", "coprimearray.cli", "--version"],
                                  cwd=workdir, env=env, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
            elapsed = time.perf_counter() - start
            if proc.returncode != 0:
                raise RuntimeError(f"--version exited {proc.returncode}: {proc.stderr.strip()}")
        else:
            proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)],
                                  cwd=workdir, env=env, capture_output=True, text=True,
                                  timeout=SETUP_TIMEOUT_S)
            if proc.returncode != 0:
                raise RuntimeError(f"set-up probe exited {proc.returncode}: {proc.stderr.strip()}")
            report = json.loads(proc.stdout.splitlines()[-1])
            if report["errors"]:
                print(f"set-up: {report['errors']} first operations raised", flush=True)
            elapsed = report["setup_s"]
        times.append(elapsed)
    print(f"setup_s: median of {SETUP_REPEATS} fresh processes: "
          + " ".join(f"{t:.4f}" for t in times), flush=True)
    return statistics.median(times)


def ops_per_s(stats) -> float:
    busy = sum(stats.durations)
    return stats.completed / busy if busy > 0 else 0.0


def tail(samples: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it, and its rank.

    With 20 samples or fewer no percentile above the median has ten samples
    beyond it, and the median is reported.
    """
    ordered = sorted(samples)
    n = len(ordered)
    if n > 20:
        return ordered[n - 11], 100.0 * (n - 10) / n
    return statistics.median(ordered), 50.0


def end_to_end_metrics(workload: str, stats, setup_s: float, rungs) -> dict:
    who = resource.RUSAGE_CHILDREN if workload == "cli" else resource.RUSAGE_SELF
    metrics = {"setup_s": (setup_s, "s"), "ops_per_s": (ops_per_s(stats), "1/s")}
    for rung in rungs:
        samples = stats.rung_samples[rung]
        metrics[f"rung_ms_p50.{rung}"] = (1000.0 * statistics.median(samples), "ms")
    for rung in rungs:
        samples = stats.rung_samples[rung]
        value, rank = tail(samples)
        metrics[f"rung_ms_tail.{rung}"] = (1000.0 * value, "ms")
        print(f"rung_ms_tail.{rung}: p{rank:.1f} of n={len(samples)} samples", flush=True)
    metrics["peak_rss_mb"] = (resource.getrusage(who).ru_maxrss / 1024.0, "MB")
    metrics["ok_ratio"] = (stats.completed / stats.attempted, "1")
    metrics["peak_hit_ratio"] = (stats.hits / stats.peak_checks, "1")
    return metrics


def per_layer_metrics(tracer, layers, untraced, traced) -> dict:
    table = tracer.per_op()
    metrics = {}
    for span, stat in SPAN_METRICS:
        unit = "calls/op" if stat == "calls" else "ms"
        metrics[f"{span}.{stat}"] = (tracer.span_stat(table, span, stat), unit)
    for name, unit in COUNT_METRICS:
        metrics[name] = (tracer.count_per_op(name), unit)
    for layer in layers:
        metrics[f"{layer}.errors"] = (tracer.errors_per_op(layer), "errors/op")
    plain, with_trace = ops_per_s(untraced), ops_per_s(traced)
    drop = 1.0 - with_trace / plain if plain > 0 else 0.0
    print(f"tracing overhead: ops_per_s {plain:.4f} untraced, {with_trace:.4f} traced", flush=True)
    metrics["trace.ops_per_s_drop"] = (drop, "1")
    for (name, kind), n in sorted(tracer.errors.items()):
        print(f"{name}.errors.{kind}: {n} in {len(tracer.ops)} operations", flush=True)
    return metrics


def describe(label: str, stats) -> None:
    print(f"{label}: passes={stats.passes} attempted={stats.attempted} failed={stats.failed} "
          f"wrong_outputs={stats.wrong} failed_ratio={stats.failed / stats.attempted:.6g} "
          f"peak_hits={stats.hits}/{stats.peak_checks}", flush=True)
    for kind, n in sorted(stats.errors.items()):
        print(f"  errors {kind}: {n}", flush=True)
    for message in stats.messages:
        print(f"  failure: {message}", flush=True)


def run(args, env: dict, workdir: Path) -> dict:
    import tracing
    import workloads

    workload = workloads.make(args.workload, args.seed, workdir, env)
    setup_s = measure_setup(args.workload, args.seed, env, workdir) if args.trace == 0 else None
    first_pass = 0
    if args.workload != "cli":
        # Fill this process's caches before timing; set-up is measured above.
        for op in workload.pass_ops(0):
            workloads.run_op(op, workloads.LoopStats())
        first_pass = 1
    # A traced run splits its time between an untraced and a traced loop.
    seconds = args.seconds if args.trace == 0 else args.seconds / 2
    untraced, next_pass = workloads.run_passes(workload, seconds, first_pass)
    describe("untraced", untraced)
    if args.trace == 0:
        metrics = end_to_end_metrics(args.workload, untraced, setup_s, workloads.RUNGS)
        runs = [untraced]
    else:
        tracer = tracing.Tracer()
        if args.workload == "cli":
            workload.tracer = tracer
        else:
            tracer.install()
        traced, _ = workloads.run_passes(workload, seconds, next_pass, tracer)
        describe("traced", traced)
        spans = TRACE_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans)
        print(f"spans: {len(tracer.spans)} written to {spans.relative_to(ROOT)}", flush=True)
        metrics = per_layer_metrics(tracer, tracing.LAYERS, untraced, traced)
        runs = [untraced, traced]
    return {
        "correct": all(stats.wrong == 0 for stats in runs),
        "attempted": sum(stats.attempted for stats in runs),
        "failed": sum(stats.failed for stats in runs),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    package = SRC / "coprimearray"
    if not (package / "__init__.py").is_file():
        print(f"perfbench: {package} not found; run from the root of a checkout "
              "of the repository", file=sys.stderr)
        return 2
    nproc = len(os.sched_getaffinity(0))
    env = configure_environment(nproc)
    if not compileall.compile_dir(str(package), quiet=1):
        print("perfbench: the package does not compile", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy as np

    import coprimearray

    if Path(coprimearray.__file__).resolve().parent != package:
        print(f"perfbench: imported {coprimearray.__file__}, not {package}", file=sys.stderr)
        return 2
    print(machine_facts(np, nproc), flush=True)
    print(f"workload={args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}",
          flush=True)
    SCRATCH.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        result = run(args, env, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            SCRATCH.rmdir()
        except OSError:
            pass  # another run still uses it
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
