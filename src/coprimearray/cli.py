"""Command-line front end: every analysis as a reproducible CSV/JSON run.

Each command writes one table (the ``tables`` command writes three) with a
``#``-prefixed comment line recording the fully resolved configuration, so
identical configurations reproduce byte-identical files.

Exit codes: 0 success, 2 configuration error, 3 internal numeric
cross-check failure (a closed form disagreeing with its oracle), 4 I/O
failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import __version__
from .errors import (
    ConsistencyError,
    InsufficientDataError,
    NoSideLobeError,
    NotCoprimeError,
    NotEnoughPeaksError,
    OutOfRangeError,
    UnsupportedRegimeError,
    check_residual,
)
from .estimator import CoprimeCorrelogram, SignalModel, ToneComponent, generate_signal
from .metrics import Scheme, complexity, variance_factor, variance_sweep
from .pair import CoprimePair, check_positive_int
from .sets import DifferenceSet, RangeKind, SetKind, as_range_kind, difference_set, dof
from .spectra import (
    FrequencyGrid,
    _lag_transform,
    bias_biased,
    bias_unbiased,
    main_peak,
    relative_amplitude,
    window_term_curves,
)
from .weights import unbiased_window, weight_closed_form, weight_oracle

ENV_OUTDIR = "COPRIMEARRAY_OUTDIR"

#: The six (M, N) rows of the orientation-comparison table.
ORIENTATION_PAIRS = [(4, 3), (5, 3), (7, 3), (8, 3), (5, 4), (7, 4)]

#: The six configurations of the factor-choice table.
CHOICE_PAIRS = [(14, 13), (14, 5), (7, 13), (13, 14), (5, 14), (13, 7)]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def _config_items(args: argparse.Namespace) -> list[tuple[str, str]]:
    skip = {"func", "output", "config"}
    items = [("version", __version__)]
    for key in sorted(vars(args)):
        if key in skip:
            continue
        value = getattr(args, key)
        if isinstance(value, list):
            value = ",".join(_fmt(v) for v in value)
        elif value is None:
            value = "none"
        else:
            value = _fmt(value)
        items.append((key, value))
    return items


def _write_table(path: Path, fmt: str, columns: list[str], rows: list[list],
                 config: list[tuple[str, str]]) -> Path:
    path.parent.mkdir(parents=True, exist_ok=True)
    if fmt == "csv":
        lines = ["# " + " ".join(f"{k}={v}" for k, v in config)]
        lines.append(",".join(columns))
        lines.extend(",".join(_fmt(cell) for cell in row) for row in rows)
        path.write_text("\n".join(lines) + "\n")
    else:
        payload = {
            "config": dict(config),
            "columns": columns,
            "rows": [[cell if not isinstance(cell, float) else float(_fmt(cell)) for cell in row]
                     for row in rows],
        }
        path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path


def _outdir() -> Path:
    return Path(os.environ.get(ENV_OUTDIR, "."))


def _pair_from(args: argparse.Namespace) -> CoprimePair:
    if args.M is None or args.N is None:
        raise OutOfRangeError("this command needs both -M and -N")
    return CoprimePair(args.M, args.N)


def _s_b(args: argparse.Namespace, pair: CoprimePair) -> float:
    return 1.0 if args.sb == "unit" else float(pair.sample_count)


# --- command handlers: each returns [(file stem, columns, rows)] ---------

def _checked_set(pair: CoprimePair, kind: SetKind, extended: bool = True) -> DifferenceSet:
    """The enumerated set, after checking its size against the closed-form dof."""
    enumerated = difference_set(pair, kind, extended)
    closed = dof(pair, kind, extended)
    if closed != len(enumerated):
        raise ConsistencyError(f"set {kind.value} (extended={extended}): closed-form dof "
                               f"{closed} != enumerated {len(enumerated)}")
    return enumerated


def _cmd_diffset(args) -> list[tuple[str, list[str], list[list]]]:
    pair = _pair_from(args)
    rows = []
    for kind in SetKind:
        enumerated = _checked_set(pair, kind)
        rows.append([
            kind.value,
            len(enumerated),
            min(enumerated.lags),
            max(enumerated.lags),
            " ".join(str(lag) for lag in enumerated.lags),
        ])
    return [(f"diffset_M{pair.M}_N{pair.N}",
             ["set", "dof", "min_lag", "max_lag", "lags"], rows)]


def _cmd_weights(args):
    pair = _pair_from(args)
    range_kind = as_range_kind(args.range)
    closed = weight_closed_form(pair, range_kind).counts
    if not np.array_equal(closed.array, weight_oracle(pair, range_kind).counts.array):
        raise ConsistencyError("closed-form weights disagree with the pair enumeration")
    rows = [[lag, count] for lag, count in zip(closed.lags.tolist(), closed.array.tolist())]
    return [(f"weights_M{pair.M}_N{pair.N}_{range_kind.value}", ["lag", "count"], rows)]


def _cmd_bias(args):
    pair = _pair_from(args)
    range_kind = as_range_kind(args.range)
    grid = FrequencyGrid(args.grid_size)
    s_b = _s_b(args, pair)
    terms = window_term_curves(pair, range_kind, grid, s_b=s_b)
    biased = bias_biased(pair, range_kind, grid, s_b=s_b)
    unbiased = bias_unbiased(pair, range_kind, grid)
    # Both windows are non-negative in the lag domain, so their sums of
    # absolute values are their main peaks and bound them everywhere.
    term_sum = sum(curve.values for curve in terms.values())
    check_residual(
        "biased window closed form against its term transforms",
        float(np.max(np.abs(term_sum - biased.values))),
        main_peak(pair, range_kind) / s_b,
    )
    window = unbiased_window(pair, range_kind)
    window_oracle = _lag_transform(window.indicator.lags, window.indicator.array, grid,
                                   "window transform")
    check_residual(
        "unbiased window closed form against its transform",
        float(np.max(np.abs(window_oracle.values - unbiased.values))),
        window.total(),
    )
    columns = ["omega", "self_m_term", "self_n_term", "base_cross_term",
               "ext_cross_term", "biased_window", "unbiased_window"]
    rows = [
        [float(grid.points[i]),
         float(terms["self_m"].values[i]), float(terms["self_n"].values[i]),
         float(terms["base_cross"].values[i]), float(terms["ext_cross"].values[i]),
         float(biased.values[i]), float(unbiased.values[i])]
        for i in range(grid.size)
    ]
    return [(f"bias_M{pair.M}_N{pair.N}_{range_kind.value}", columns, rows)]


def _cmd_variance(args):
    if args.M is not None or args.N is not None:
        pair = _pair_from(args)
        s_b = _s_b(args, pair)
        rows = [
            [kind.value, s_b, variance_factor(pair, kind, s_b).factor]
            for kind in RangeKind
        ]
        return [(f"variance_M{pair.M}_N{pair.N}", ["range", "s_b", "factor"], rows)]
    rows = [
        [M, N, coprime, fc, fp]
        for M, N, coprime, fc, fp in variance_sweep(args.max, args.max, args.sb == "unit")
    ]
    return [(f"variance_sweep_max{args.max}",
             ["M", "N", "coprime", "f_continuous", "f_prototype"], rows)]


def _cmd_complexity(args):
    pair = _pair_from(args)
    schemes = [Scheme.EXTENDED_FULL, Scheme.EXTENDED_CONTINUOUS, Scheme.EXTENDED_PROTOTYPE]
    if pair.M > pair.N:
        schemes.insert(0, Scheme.PROTOTYPE_CONTINUOUS)
    rows = []
    for scheme in schemes:
        report = complexity(pair, scheme)
        rows.append([scheme.value, report.multiplications, report.additions])
    return [(f"complexity_M{pair.M}_N{pair.N}",
             ["scheme", "multiplications", "additions"], rows)]


def _cmd_estimate(args):
    pair = _pair_from(args)
    range_kind = as_range_kind(args.range)
    grid = FrequencyGrid(args.grid_size)
    snapshots = check_positive_int("--snapshots", args.snapshots)
    frequencies = args.freq if args.freq else [0.4]
    amplitudes = list(args.amp) if args.amp else []
    amplitudes += [1.0] * (len(frequencies) - len(amplitudes))
    if len(amplitudes) != len(frequencies):
        raise OutOfRangeError("more --amp values than --freq values")
    # Echo the resolved model in the output's config line.
    args.freq, args.amp = frequencies, amplitudes
    model = SignalModel(
        tuple(ToneComponent(f * math.pi, a) for f, a in zip(frequencies, amplitudes)),
        noise_power=args.noise,
        seed=args.seed,
    )
    estimator = CoprimeCorrelogram(
        pair.M, pair.N, snapshots=snapshots, lag_range=range_kind.value,
        s_b=_s_b(args, pair), grid_size=grid.size,
    ).fit(generate_signal(model, pair.period * snapshots))
    for omega, value in estimator.peaks(min(len(frequencies), 3)):
        print(f"peak: omega={_fmt(omega)} ({_fmt(omega / math.pi)} pi) power={_fmt(value)}")
    rows = [[float(o), float(v)] for o, v in zip(estimator.omega_, estimator.spectrum_)]
    stem = (f"estimate_M{pair.M}_N{pair.N}_{range_kind.value}"
            f"_L{snapshots}_seed{args.seed}")
    return [(stem, ["omega", "power"], rows)]


def _cmd_tables(args):
    if args.max < 2:
        raise OutOfRangeError(f"--max must be at least 2, the smallest factor, got {args.max}")
    grid = FrequencyGrid(args.grid_size)

    dof_rows = []
    table_one_kinds = [
        SetKind.SELF_M_POS, SetKind.SELF_M_NEG, SetKind.SELF_N_POS, SetKind.SELF_N_NEG,
        SetKind.SELF_POS, SetKind.SELF_NEG, SetKind.SELF_UNION,
        SetKind.CROSS_POS, SetKind.CROSS_NEG, SetKind.CROSS_UNION,
    ]
    for M in range(2, args.max + 1):
        for N in range(2, args.max + 1):
            if math.gcd(M, N) != 1:
                continue
            pair = CoprimePair(M, N)
            for extended, array in ((True, "extended"), (False, "prototype")):
                for kind in table_one_kinds:
                    size = len(_checked_set(pair, kind, extended))
                    dof_rows.append([M, N, array, kind.value, size])

    def amplitude_rows(pairs):
        rows = []
        for M, N in pairs:
            pair = CoprimePair(M, N)
            row = [M, N]
            for kind in (RangeKind.FULL, RangeKind.CONTINUOUS, RangeKind.PROTOTYPE):
                row.append(relative_amplitude(pair, kind, grid).relative_amplitude)
            rows.append(row)
        return rows

    orientation = amplitude_rows(
        [pair for M, N in ORIENTATION_PAIRS for pair in ((M, N), (N, M))]
    )
    choice = amplitude_rows(CHOICE_PAIRS)
    amplitude_columns = ["M", "N", "R_full", "R_continuous", "R_prototype"]
    return [
        ("dof_table", ["M", "N", "array", "set", "dof"], dof_rows),
        ("relative_amplitude_table", amplitude_columns, orientation),
        ("configuration_choice_table", amplitude_columns, choice),
    ]


# --- parser and dispatch --------------------------------------------------

def _add_common_options(cmd: argparse.ArgumentParser, *, M: int | None = None,
                        N: int | None = None, grid_size: int = 4096,
                        sb: str = "unit") -> None:
    # A fresh option set per subcommand: argparse parents share action
    # objects, which makes per-command defaults bleed across commands.
    cmd.add_argument("-M", type=int, default=M, help="first undersampling factor")
    cmd.add_argument("-N", type=int, default=N, help="second undersampling factor")
    cmd.add_argument("--range", default="full",
                     choices=[kind.value for kind in RangeKind],
                     help="lag range (default: full)")
    cmd.add_argument("--grid-size", type=int, default=grid_size,
                     help=f"frequency grid size, even and >= 1024 (default: {grid_size})")
    cmd.add_argument("--sb", default=sb, choices=["unit", "default"],
                     help=f"normalization: unit (s_b=1) or default (s_b=2M+N-1); default {sb}")
    cmd.add_argument("--seed", type=int, default=0, help="signal model seed")
    cmd.add_argument("--config", type=Path, default=None,
                     help="key = value file supplying defaults for any long option")
    cmd.add_argument("-o", "--output", type=Path, default=None,
                     help="output file (output directory for `tables`)")
    cmd.add_argument("--format", default="csv", choices=["csv", "json"],
                     help="output format (default: csv)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coprimearray",
        description="Extended co-prime difference-set analysis and spectrum estimation.",
    )
    parser.add_argument("--version", action="version", version=__version__)

    sub = parser.add_subparsers(dest="command", required=True)

    cmd = sub.add_parser("diffset", help="lag lists and degrees of freedom per set")
    _add_common_options(cmd)
    cmd.set_defaults(func=_cmd_diffset)

    cmd = sub.add_parser("weights", help="lag/count weight function over the range")
    _add_common_options(cmd)
    cmd.set_defaults(func=_cmd_weights)

    cmd = sub.add_parser("bias", help="bias window curves, per term and overall")
    _add_common_options(cmd)
    cmd.set_defaults(func=_cmd_bias)

    cmd = sub.add_parser("variance", help="variance factors for one pair, or a sweep")
    _add_common_options(cmd, sb="default")
    cmd.add_argument("--max", type=int, default=50,
                     help="sweep bound when -M/-N are omitted (default: 50)")
    cmd.set_defaults(func=_cmd_variance)

    cmd = sub.add_parser("complexity", help="multiplication/addition counts per scheme")
    _add_common_options(cmd)
    cmd.set_defaults(func=_cmd_complexity)

    cmd = sub.add_parser("estimate", help="averaged correlogram of a synthesized signal")
    _add_common_options(cmd, M=3, N=7, grid_size=1024, sb="default")
    cmd.add_argument("--snapshots", type=int, default=10,
                     help="snapshots to average (default: 10)")
    cmd.add_argument("--freq", type=float, action="append", default=None,
                     help="tone frequency as a fraction of pi (repeatable; default 0.4)")
    cmd.add_argument("--amp", type=float, action="append", default=None,
                     help="tone amplitude, pairs with --freq (default 1.0)")
    cmd.add_argument("--noise", type=float, default=0.1,
                     help="complex white noise power (default: 0.1)")
    cmd.set_defaults(func=_cmd_estimate)

    cmd = sub.add_parser("tables", help="degrees-of-freedom and relative-amplitude tables")
    _add_common_options(cmd, grid_size=16384)
    cmd.add_argument("--max", type=int, default=8,
                     help="factor bound of the dof sweep (default: 8)")
    cmd.set_defaults(func=_cmd_tables)

    return parser


def _apply_config_file(argv: list[str]) -> list[str]:
    """Inject `key = value` lines from a --config file as long options.

    Values are inserted right after the subcommand, so explicit flags win;
    keys already present on the command line are skipped.  Comma-separated
    values expand to repeated options.
    """
    if "--config" not in argv:
        return argv
    at = argv.index("--config")
    if at + 1 >= len(argv):
        return argv  # argparse will report the missing value
    path = Path(argv[at + 1])
    try:
        text = path.read_text()
    except OSError as exc:
        raise OutOfRangeError(f"cannot read config file {path}: {exc}") from exc
    injected: list[str] = []
    for line_number, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise OutOfRangeError(f"{path}:{line_number}: expected `key = value`")
        key, value = (part.strip() for part in line.split("=", 1))
        flag = f"-{key}" if len(key) == 1 else "--" + key.replace("_", "-")
        if flag in argv:
            continue
        for part in value.split(","):
            injected.extend([flag, part.strip()])
    return argv[:1] + injected + argv[1:]


def _write_output(args: argparse.Namespace, tables) -> list[Path]:
    config = _config_items(args)
    suffix = ".csv" if args.format == "csv" else ".json"
    written = []
    if len(tables) == 1:
        stem, columns, rows = tables[0]
        path = args.output if args.output is not None else _outdir() / (stem + suffix)
        written.append(_write_table(Path(path), args.format, columns, rows, config))
    else:
        directory = Path(args.output) if args.output is not None else _outdir()
        for stem, columns, rows in tables:
            written.append(
                _write_table(directory / (stem + suffix), args.format, columns, rows, config)
            )
    return written


def _error_record(kind: str, exc: Exception) -> None:
    record = {"error": kind, "type": type(exc).__name__, "message": str(exc)}
    print(json.dumps(record, sort_keys=True), file=sys.stderr)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    except (OutOfRangeError, ValueError) as exc:
        _error_record("config", exc)
        return 2
    try:
        tables = args.func(args)
        for path in _write_output(args, tables):
            print(f"wrote {path}")
        return 0
    except (NotCoprimeError, OutOfRangeError, InsufficientDataError,
            UnsupportedRegimeError, ValueError) as exc:
        _error_record("config", exc)
        return 2
    except (ConsistencyError, NoSideLobeError, NotEnoughPeaksError) as exc:
        _error_record("numeric", exc)
        return 3
    except OSError as exc:
        _error_record("io", exc)
        return 4


if __name__ == "__main__":
    sys.exit(main())
