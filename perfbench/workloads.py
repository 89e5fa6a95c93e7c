"""Workloads of the benchmark: inputs made from the seed, operations, checks.

A workload is a sequence of passes and a pass is a list of operations.  All
three workloads are closed loops with one caller: the next operation starts
when the previous one has returned and been checked.  Only ``Op.run`` is
timed; inputs are made before it and outputs are checked after it.

Inputs of ``stream`` and ``design`` come from the benchmark's own
``numpy.random.Generator`` seeded with the workload seed, never from the
package's signal generator, so a change to the program cannot change them.
Every check is computed here, independently of the package.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
import subprocess
import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

import numpy as np

import coprimearray as ca

HERE = Path(__file__).resolve().parent

#: The ladder of (M, N) pairs every workload runs over.
RUNGS = {"p3x7": (3, 7), "p14x13": (14, 13), "p40x41": (40, 41)}

#: Snapshots per fit in ``stream``, chosen per rung.
STREAM_SNAPSHOTS = {"p3x7": 64, "p14x13": 32, "p40x41": 8}
STREAM_GRID = 4096

#: Each block holds one planted tone of unit amplitude and random phase,
#: uniform in (-0.9 pi, 0.9 pi), in complex white noise of this power.  (With
#: two tones, cross terms that a few snapshots do not average out sometimes
#: outgrow a true peak at (40, 41), which would make the hit ratio noise.)
NOISE_POWER = 0.1

#: The detected peak hits the planted tone when it lies within this many
#: radians of it.
PEAK_TOLERANCE = 0.05

#: Relative tolerance of the grid-mean check on every fitted spectrum.
GRID_MEAN_RTOL = 1e-9

#: ``design``: side-lobe grid, snapshots of its short fit, and the base grid
#: of that fit, which moves on every pass so each fit uses a new
#: (grid size, lag limit) key.  The fit grid must resolve the (40, 41) main
#: lobe, so it cannot be much smaller than the stream grid.
DESIGN_GRID = 16384
DESIGN_SNAPSHOTS = 4
DESIGN_FIT_GRID = 4096

#: Relative amplitudes R (full, continuous, prototype) of the paper's
#: orientation table and factor-choice table, and the allowed deviation.
ORIENTATION_TABLE = {
    (4, 3): (0.508, 0.521, 0.565), (3, 4): (0.683, 0.712, 0.762),
    (5, 3): (0.436, 0.461, 0.481), (3, 5): (0.737, 0.764, 0.774),
    (7, 3): (0.339, 0.349, 0.367), (3, 7): (0.701, 0.664, 0.665),
    (8, 3): (0.305, 0.320, 0.328), (3, 8): (0.667, 0.626, 0.626),
    (5, 4): (0.516, 0.529, 0.564), (4, 5): (0.651, 0.685, 0.714),
    (7, 4): (0.413, 0.430, 0.446), (4, 7): (0.735, 0.737, 0.744),
}
CHOICE_TABLE = {
    (14, 13): (0.537, 0.553, 0.566), (14, 5): (0.287, 0.297, 0.302),
    (7, 13): (0.734, 0.708, 0.710), (13, 14): (0.580, 0.610, 0.614),
    (5, 14): (0.641, 0.597, 0.597), (13, 7): (0.387, 0.403, 0.408),
}
PAPER_TABLES = {**ORIENTATION_TABLE, **CHOICE_TABLE}
TABLE_TOLERANCE = 0.01

#: ``design`` configurations: the table pairs, then the rungs not among them.
DESIGN_PAIRS = list(PAPER_TABLES) + [mn for mn in RUNGS.values() if mn not in PAPER_TABLES]

#: ``cli`` commands per rung, then once per pass.  ``estimate`` runs on the
#: stream grid: its default grid of 1024 points is too coarse to resolve the
#: (40, 41) main lobe, so its peak would land anywhere.
CLI_RUNG_COMMANDS = (
    ["diffset"], ["weights"], ["bias", "--range", "full"], ["bias", "--range", "continuous"],
    ["complexity"], ["estimate"],
)
CLI_PASS_COMMANDS = (["tables"], ["variance", "--max", "200"])
CLI_TIMEOUT_S = 120


@dataclass
class Outcome:
    """What the checks found about one operation."""

    problems: list[str] = field(default_factory=list)  # output failed a check
    error: str | None = None  # the operation raised or exited non-zero
    hit: bool | None = None  # detected peaks against planted tones, where checked


@dataclass
class Op:
    rung: str | None  # ladder rung the operation's time counts toward
    run: Callable[[], Any]
    check: Callable[[Any], Outcome]
    detects_peaks: bool = False


# --- inputs and independent checks ----------------------------------------

def positions(M: int, N: int) -> np.ndarray:
    """Retained sample positions of one extended co-prime snapshot."""
    return np.array(sorted({M * n for n in range(N)} | {N * m for m in range(2 * M)}))


def tone_block(rng: np.random.Generator, length: int) -> tuple[float, np.ndarray]:
    """A planted tone's frequency and a block of it in white noise."""
    tone = rng.uniform(-0.9 * math.pi, 0.9 * math.pi)
    t = np.arange(length)
    block = np.exp(1j * (tone * t + rng.uniform(0.0, 2.0 * math.pi)))
    scale = math.sqrt(NOISE_POWER / 2.0)
    return tone, block + scale * (rng.standard_normal(length) + 1j * rng.standard_normal(length))


def grid_mean(block: np.ndarray, M: int, N: int, snapshots: int, grid_size: int) -> float:
    """Mean of the snapshot-averaged full-range biased correlogram over its grid.

    On the grid omega_k = 2 pi (k - G/2) / G the mean of exp(-i omega_k l)
    is 1 when G divides l and 0 otherwise, so the mean is the sum of the
    averaged autocorrelation at the lags that are multiples of G; for
    G above every lag that is sum |x_p|^2 / s_b, averaged over snapshots.
    """
    pos = positions(M, N)
    left, right = np.nonzero((pos[:, None] - pos[None, :]) % grid_size == 0)
    period = 2 * M * N
    values = block[: period * snapshots].reshape(snapshots, period)[:, pos]
    total = np.sum(values[:, left] * np.conj(values[:, right])).real
    return float(total / (snapshots * (2 * M + N - 1)))


def peak_hit(found: list[float], tone: float) -> bool:
    return len(found) == 1 and abs(found[0] - tone) <= PEAK_TOLERANCE


def fit_problems(estimator, block, M, N, snapshots, grid_size) -> list[str]:
    expected = grid_mean(block, M, N, snapshots, grid_size)
    got = float(np.mean(estimator.spectrum_))
    if not abs(got - expected) <= GRID_MEAN_RTOL * abs(expected):
        return [f"({M},{N}) grid mean {got!r} != {expected!r}"]
    return []


def table_problems(M: int, N: int, amplitudes) -> list[str]:
    if (M, N) not in PAPER_TABLES:
        if all(0.0 < r < 1.0 for r in amplitudes):
            return []
        return [f"({M},{N}) relative amplitudes {amplitudes} outside (0, 1)"]
    expected = PAPER_TABLES[(M, N)]
    worst = max(abs(r - e) for r, e in zip(amplitudes, expected))
    if worst > TABLE_TOLERANCE:
        return [f"({M},{N}) relative amplitudes {amplitudes} off the paper's {expected} by {worst:.4f}"]
    return []


def rung_of(M: int, N: int) -> str | None:
    return next((label for label, mn in RUNGS.items() if mn == (M, N)), None)


def fit_op(rng, rung, M, N, snapshots, grid_size) -> Op:
    """One fit + peak of a fresh block with a planted tone."""
    tone, block = tone_block(rng, 2 * M * N * snapshots)

    def run():
        estimator = ca.CoprimeCorrelogram(M, N, snapshots=snapshots, grid_size=grid_size).fit(block)
        return estimator, estimator.peaks(1)

    def check(result) -> Outcome:
        estimator, peaks = result
        problems = fit_problems(estimator, block, M, N, snapshots, grid_size)
        hit = peak_hit([omega for omega, _ in peaks], tone)
        if not hit:
            problems.append(f"({M},{N}) peak {peaks} misses tone {tone}")
        return Outcome(problems, hit=hit)

    return Op(rung, run, check, detects_peaks=True)


# --- workloads --------------------------------------------------------------

class Stream:
    """Repeated fit + peaks on fresh blocks: the low-latency streaming use."""

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def pass_ops(self, index: int) -> list[Op]:
        return [
            fit_op(self.rng, label, M, N, STREAM_SNAPSHOTS[label], STREAM_GRID)
            for label, (M, N) in RUNGS.items()
        ]


class Design:
    """Per configuration: every design figure of merit plus one short fit."""

    ranges = (ca.RangeKind.FULL, ca.RangeKind.CONTINUOUS, ca.RangeKind.PROTOTYPE)

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng(seed)

    def pass_ops(self, index: int) -> list[Op]:
        return [self._config_op(M, N, index) for M, N in DESIGN_PAIRS]

    def _config_op(self, M: int, N: int, index: int) -> Op:
        # A new grid size on every pass, and a different one for the swapped
        # pair (same lag limit), so no two fits of a run share a key.
        fit_grid = DESIGN_FIT_GRID + 4 * (index % 64) + 2 * (M < N)
        fit = fit_op(self.rng, None, M, N, DESIGN_SNAPSHOTS, fit_grid)
        schemes = [ca.Scheme.EXTENDED_FULL, ca.Scheme.EXTENDED_CONTINUOUS, ca.Scheme.EXTENDED_PROTOTYPE]
        if M > N:
            schemes.insert(0, ca.Scheme.PROTOTYPE_CONTINUOUS)

        def run():
            pair = ca.CoprimePair(M, N)
            grid = ca.FrequencyGrid(DESIGN_GRID)
            amplitudes = [ca.relative_amplitude(pair, kind, grid).relative_amplitude
                          for kind in self.ranges]
            half_width = ca.main_lobe_half_width(ca.bias_biased(pair, ca.RangeKind.FULL, grid))
            variances = [ca.variance_factor(pair, kind).factor for kind in self.ranges]
            costs = {scheme: ca.complexity(pair, scheme) for scheme in schemes}
            structure = ca.verify_structure(pair)
            return amplitudes, half_width, variances, costs, structure, fit.run()

        def check(result) -> Outcome:
            amplitudes, half_width, variances, costs, structure, fitted = result
            problems = table_problems(M, N, amplitudes)
            if not 0.0 < half_width < math.pi:
                problems.append(f"({M},{N}) main-lobe half width {half_width}")
            if abs(variances[0] - 1.0) > 1e-12 or not all(0.0 < v <= 1.0 for v in variances[1:]):
                problems.append(f"({M},{N}) variance factors {variances}")
            samples = 2 * M + N - 1
            if costs[ca.Scheme.EXTENDED_FULL].multiplications != samples * (samples + 1) // 2:
                problems.append(f"({M},{N}) full-range multiplications {costs[ca.Scheme.EXTENDED_FULL]}")
            if not structure.all_passed:
                problems.append(f"({M},{N}) structure clauses failed: {structure.failures()}")
            outcome = fit.check(fitted)
            outcome.problems[:0] = problems
            return outcome

        return Op(rung_of(M, N), run, check, detects_peaks=True)


class Cli:
    """``python -m coprimearray.cli`` subprocesses, one at a time.

    Outputs go to ``workdir``; each is compared byte for byte with the first
    run of the same command and then deleted.
    """

    def __init__(self, seed: int, workdir: Path, env: dict[str, str]) -> None:
        rng = np.random.default_rng(seed)
        self.workdir = workdir
        self.env = dict(env, COPRIMEARRAY_OUTDIR=str(workdir))
        self.tracer = None  # set for a traced run
        self.reference: dict[tuple, str] = {}
        # One planted tone per rung, as a fraction of pi, and a signal seed.
        self.tones = {label: round(float(rng.uniform(-0.9, 0.9)), 4) for label in RUNGS}
        self.signal_seed = int(rng.integers(0, 2**31 - 1))

    def pass_ops(self, index: int) -> list[Op]:
        ops = []
        for label, (M, N) in RUNGS.items():
            for command in CLI_RUNG_COMMANDS:
                argv = [command[0], "-M", str(M), "-N", str(N), *command[1:]]
                tone = None
                if command[0] == "estimate":
                    tone = self.tones[label]
                    argv += [f"--freq={tone:.4f}", "--seed", str(self.signal_seed),
                             "--grid-size", str(STREAM_GRID)]
                ops.append(self._op(label, argv, tone))
        ops.extend(self._op(None, list(command), None) for command in CLI_PASS_COMMANDS)
        return ops

    def command(self, argv: list[str]) -> list[str]:
        if self.tracer is None:
            return [sys.executable, "-m", "coprimearray.cli", *argv]
        return [sys.executable, str(HERE / "traced_cli.py"), str(self.workdir / "spans.json"), *argv]

    def _op(self, rung, argv, tone) -> Op:
        def run():
            return subprocess.run(self.command(argv), cwd=self.workdir, env=self.env,
                                  capture_output=True, text=True, timeout=CLI_TIMEOUT_S)

        def check(proc) -> Outcome:
            return self._check(argv, tone, proc)

        return Op(rung, run, check, detects_peaks=tone is not None)

    def _check(self, argv, tone, proc) -> Outcome:
        if self.tracer is not None:
            spans = self.workdir / "spans.json"
            self.tracer.absorb(json.loads(spans.read_text()))
            spans.unlink()
        written = [Path(line[len("wrote "):]) for line in proc.stdout.splitlines()
                   if line.startswith("wrote ")]
        if proc.returncode != 0:
            for path in written:
                path.unlink(missing_ok=True)
            kind, message = error_record(proc.stderr)
            if self.tracer is not None:
                self.tracer.add_error("cli.main", kind)
            return Outcome(error=f"{kind}: exit {proc.returncode} from {' '.join(argv)}: {message}",
                           hit=False if tone is not None else None)
        problems = [] if written else [f"{' '.join(argv)} wrote no output"]
        for path in written:
            try:
                data = path.read_bytes()
            except OSError as exc:
                problems.append(f"{' '.join(argv)}: cannot read {path.name}: {exc}")
                continue
            path.unlink()
            digest = hashlib.sha256(data).hexdigest()
            if self.reference.setdefault((tuple(argv), path.name), digest) != digest:
                problems.append(f"{' '.join(argv)}: {path.name} differs from its first run")
            if self.tracer is not None:
                self.tracer.add_count("cli.output_bytes", len(data))
            if path.name in ("relative_amplitude_table.csv", "configuration_choice_table.csv"):
                problems.extend(csv_table_problems(data.decode()))
        hit = None
        if tone is not None:
            found = [float(m) for m in re.findall(r"^peak: omega=(\S+)", proc.stdout, re.M)]
            hit = peak_hit(found, tone * math.pi)
            if not hit:
                problems.append(f"{' '.join(argv)}: peaks {found} miss tone {tone} pi")
        return Outcome(problems, hit=hit)


def error_record(stderr: str) -> tuple[str, str]:
    """Exception type and message from the CLI's one-line JSON error record."""
    for line in reversed(stderr.splitlines()):
        try:
            record = json.loads(line)
        except ValueError:
            continue
        if isinstance(record, dict) and "type" in record:
            return record["type"], record.get("message", "")
    return "NonZeroExit", stderr.strip()[-200:]


def csv_table_problems(text: str) -> list[str]:
    rows = [line.split(",") for line in text.splitlines() if line and not line.startswith("#")]
    problems = []
    for row in rows[1:]:
        M, N = int(row[0]), int(row[1])
        problems.extend(table_problems(M, N, [float(v) for v in row[2:5]]))
    return problems


def make(name: str, seed: int, workdir: Path | None = None, env: dict | None = None):
    if name == "stream":
        return Stream(seed)
    if name == "design":
        return Design(seed)
    return Cli(seed, workdir, env)


# --- the closed loop ----------------------------------------------------------

@dataclass
class LoopStats:
    durations: list[float] = field(default_factory=list)  # every attempt, seconds
    rung_samples: dict[str, list[float]] = field(default_factory=lambda: defaultdict(list))
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    wrong: int = 0  # outputs that failed a check
    peak_checks: int = 0
    hits: int = 0
    errors: Counter = field(default_factory=Counter)
    messages: list[str] = field(default_factory=list)

    @property
    def completed(self) -> int:
        return self.attempted - self.failed

    def record(self, outcome: Outcome) -> None:
        if outcome.error is not None or outcome.problems:
            self.failed += 1
        if outcome.problems:
            self.wrong += 1
        if outcome.error is not None:
            self.errors[outcome.error.split(":", 1)[0]] += 1
        if outcome.hit is not None:
            self.peak_checks += 1
            self.hits += outcome.hit
        for message in ([outcome.error] if outcome.error else []) + outcome.problems:
            if len(self.messages) < 8 and message not in self.messages:
                self.messages.append(message)


def run_op(op: Op, stats: LoopStats, tracer=None) -> float:
    """Run, time and check one operation; return its time in seconds."""
    if tracer is not None:
        tracer.begin_op(stats.attempted)
    start = time.perf_counter()
    try:
        result, error = op.run(), None
    except Exception as exc:  # counted as a failed operation, never skipped
        result, error = None, exc
    elapsed = time.perf_counter() - start
    stats.attempted += 1
    stats.durations.append(elapsed)
    if error is not None:
        outcome = Outcome(error=f"{type(error).__name__}: {error}",
                          hit=False if op.detects_peaks else None)
    else:
        try:
            outcome = op.check(result)
        except Exception as exc:  # a check that cannot run fails the output
            outcome = Outcome([f"check raised {type(exc).__name__}: {exc}"])
    if tracer is not None:
        tracer.end_op()
    stats.record(outcome)
    return elapsed


def run_passes(workload, seconds: float, first_pass: int, tracer=None) -> tuple[LoopStats, int]:
    """Run whole passes until ``seconds`` have gone by; return stats and next pass."""
    stats = LoopStats()
    index = first_pass
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        rung_time: Counter = Counter()
        for op in workload.pass_ops(index):
            elapsed = run_op(op, stats, tracer)
            if op.rung is not None:
                rung_time[op.rung] += elapsed
        for rung, total in rung_time.items():
            stats.rung_samples[rung].append(total)
        stats.passes += 1
        index += 1
    return stats, index
