"""Snapshot-based correlogram spectrum estimation on the co-prime grid.

One snapshot is one extended sampling period of 2MN Nyquist instants, of
which the two interleaved samplers retain 2M + N - 1.  The autocorrelation
over a chosen lag range is averaged across snapshots and transformed to a
correlogram for a low-latency spectrum estimate; by linearity that equals
the mean of the per-snapshot correlograms.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (
    ConsistencyError,
    InsufficientDataError,
    NotEnoughPeaksError,
    NotFittedError,
    OutOfRangeError,
)
from .pair import (
    CoprimePair,
    as_pair,
    check_positive_int,
    exact_int,
    finite_nonnegative,
    finite_positive,
    finite_real,
)
from .sets import RangeKind, _distinct_positions, as_range_kind, lag_limit
from .spectra import (
    FrequencyGrid,
    SpectrumCurve,
    _bin,
    _fold,
    _hermitian_half,
    _lag_transform,
    _part_index,
    _real_transform,
    _strict_maxima,
    as_grid,
)
from .weights import weight_closed_form


@dataclass(frozen=True)
class ToneComponent:
    """One complex exponential of the test signal.

    `phase` is a fixed value in radians, or None to draw a fresh uniform
    phase for every realization.
    """

    frequency: float
    amplitude: float = 1.0
    phase: float | None = None

    def __post_init__(self) -> None:
        if not -np.pi < finite_real("tone frequency", self.frequency) <= np.pi:
            raise OutOfRangeError(
                f"tone frequency must lie in (-pi, pi], got {self.frequency}"
            )
        finite_positive("tone amplitude", self.amplitude)
        if self.phase is not None:
            finite_real("tone phase", self.phase)


@dataclass(frozen=True)
class SignalModel:
    """Sum of tones plus circular complex white Gaussian noise.

    Generation is reproducible: the stream for (seed, realization) is a
    pure function of those values, independent of platform, via a
    counter-based generator (numpy's Philox keyed on the seed with the
    realization as spawn key).
    """

    tones: tuple[ToneComponent, ...] = ()
    noise_power: float = 0.0
    seed: int = 0

    def __post_init__(self) -> None:
        object.__setattr__(self, "tones", tuple(self.tones))
        frequencies = [tone.frequency for tone in self.tones]
        if len(set(frequencies)) != len(frequencies):
            raise OutOfRangeError("tone frequencies must be distinct")
        finite_nonnegative("noise power", self.noise_power)
        if exact_int("seed", self.seed) < 0:
            raise OutOfRangeError(f"seed must be non-negative, got {self.seed}")


def tones(*frequencies: float, amplitude: float = 1.0) -> tuple[ToneComponent, ...]:
    """Unit-amplitude random-phase tones at the given frequencies."""
    return tuple(ToneComponent(freq, amplitude) for freq in frequencies)


def generate_signal(model: SignalModel, length: int, realization: int = 0) -> np.ndarray:
    """Synthesize `length` Nyquist-rate samples of the model.

    Draw order is fixed (one phase per random-phase tone, then the noise),
    so identical (seed, realization, length) always yields the identical
    stream.
    """
    length = check_positive_int("length", length)
    if exact_int("realization", realization) < 0:
        raise OutOfRangeError(f"realization must be non-negative, got {realization}")
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(model.seed, spawn_key=(realization,)))
    )
    t = np.arange(length)
    x = np.zeros(length, dtype=np.complex128)
    for tone in model.tones:
        phase = rng.uniform(0.0, 2.0 * np.pi) if tone.phase is None else tone.phase
        x += tone.amplitude * np.exp(1j * (tone.frequency * t + phase))
    if model.noise_power > 0:
        scale = np.sqrt(model.noise_power / 2.0)
        x += scale * (rng.standard_normal(length) + 1j * rng.standard_normal(length))
    return x


def check_stream(values: object) -> np.ndarray:
    """Validate a sample stream: one-dimensional, finite, complex-valued."""
    stream = np.asarray(values)
    if stream.ndim != 1:
        raise OutOfRangeError(f"sample stream must be one-dimensional, got shape {stream.shape}")
    stream = np.ascontiguousarray(stream, dtype=np.complex128)
    # A contiguous complex array is its real and imaginary parts
    # interleaved, so one pass over the float view checks both.
    if not np.isfinite(stream.view(np.float64)).all():
        raise OutOfRangeError("sample stream contains non-finite values")
    return stream


@dataclass(frozen=True, eq=False)
class _PairStructure:
    """Sampler positions and the table of ordered sample pairs within the lag range.

    Pair p is the row-major Gram entry ``flat[p]``, or entry p itself when
    ``flat`` is None because every pair is in range (the full range).
    ``part_index`` bins pair p at its signed lag plus ``limit``
    (``spectra._part_index``), and ``inverse_weights`` holds 1/w(|l|) at
    each lag l + limit, zero at full-range holes: the unbiased scaling.
    """

    positions: np.ndarray
    flat: np.ndarray | None
    part_index: np.ndarray
    inverse_weights: np.ndarray
    limit: int


@lru_cache(maxsize=32)
def _structure(M: int, N: int, range_value: str) -> _PairStructure:
    pair = CoprimePair(M, N)
    range_kind = RangeKind(range_value)
    positions = np.array(_distinct_positions(pair))
    limit = lag_limit(pair, range_kind)
    differences = (positions[:, None] - positions[None, :]).ravel()
    flat = np.flatnonzero(np.abs(differences) <= limit)
    counts = np.bincount(differences[flat] + limit, minlength=2 * limit + 1)
    if not np.array_equal(counts, weight_closed_form(pair, range_kind).counts.array):
        raise ConsistencyError(f"pair tally of {pair} disagrees with the weight function")
    inverse_weights = np.zeros(len(counts))
    np.divide(1.0, counts, out=inverse_weights, where=counts > 0)
    return _PairStructure(
        positions,
        None if len(flat) == len(differences) else flat,
        _part_index(differences[flat] + limit),
        inverse_weights,
        limit,
    )


def _snapshot_samples(
    values: object, pair: CoprimePair, range_kind: RangeKind, snapshots: int | None = None,
) -> tuple[np.ndarray, _PairStructure]:
    """The retained samples (L x P) of the stream's first `snapshots` snapshots, and the pair table.

    Snapshot s covers Nyquist indices [2MN*s, 2MN*(s + 1)); None takes every
    complete snapshot and ignores a trailing partial one.  The stream is
    validated by ``check_stream``; too few samples for one snapshot, or for
    the `snapshots` requested, raise InsufficientDataError.
    """
    stream = check_stream(values)
    if snapshots is None:
        snapshots = len(stream) // pair.period
    else:
        snapshots = check_positive_int("snapshots", snapshots)
    if snapshots < 1 or len(stream) < snapshots * pair.period:
        raise InsufficientDataError(
            f"{snapshots or 1} snapshot(s) of {pair.period} samples "
            f"requested, stream has {len(stream)}"
        )
    structure = _structure(pair.M, pair.N, range_kind.value)
    snapshot_rows = stream[: snapshots * pair.period].reshape(snapshots, pair.period)
    return snapshot_rows[:, structure.positions], structure


@dataclass(frozen=True, eq=False)
class AutocorrEstimate:
    """Autocorrelation estimate over a symmetric lag grid.

    `values[i]` estimates the autocorrelation at `lags[i]`; the grid covers
    every integer in [-limit, limit] with zeros at full-range holes.
    Conjugate symmetry holds by construction.  `snapshots_used` is the
    number of snapshots averaged.  Other lags, or values that are not one
    finite number per lag, raise OutOfRangeError.
    """

    pair: CoprimePair
    range_kind: RangeKind
    normalization: str
    s_b: float | None
    lags: np.ndarray
    values: np.ndarray
    snapshots_used: int = 1

    def __post_init__(self) -> None:
        lags, values = np.asarray(self.lags), np.asarray(self.values)
        limit = (lags.size - 1) // 2
        if (lags.dtype.kind not in "iu" or values.dtype.kind not in "iufc" or limit < 0
                or not np.array_equal(lags, np.arange(-limit, limit + 1))
                or values.shape != lags.shape or not np.isfinite(values).all()):
            raise OutOfRangeError("estimate lags must be -limit ... limit, with one finite value each")
        object.__setattr__(self, "lags", lags)
        object.__setattr__(self, "values", values)

    def value(self, lag: int) -> complex:
        """The estimate at integer `lag`; bools and non-integral lags raise OutOfRangeError."""
        lag = exact_int("lag", lag)
        limit = (len(self.lags) - 1) // 2
        if abs(lag) > limit:
            raise OutOfRangeError(f"|lag|={abs(lag)} outside the estimate's range {limit}")
        return complex(self.values[lag + limit])


#: OpenBLAS 0.3.31 hands a complex matrix product of m x k by k x n
#: to its thread pool once m*n*k reaches 65536: on 2 vCPUs, 64x8 by 8x128
#: ran on two threads and 63x8 by 8x130 on one.  At the sizes of a fit the
#: hand-off costs more than it saves.  With the (40, 41) Gram at L = 8
#: (120x8 by 8x120) as one product, the second thread spun for 0.4-0.5 ms
#: of CPU per fit, longer than the whole fit, and the 99.9th percentile of
#: a fit rose from 0.8-2.0 to 1.6-8.8 ms (3000 fits, 2 vCPUs).  So the Gram
#: is formed in row blocks below this size.
_SINGLE_THREAD_MACS = 65_536


def _gram_blocks(size: int, depth: int) -> list[slice]:
    """Row blocks of a size x size Gram over `depth` snapshots, each below _SINGLE_THREAD_MACS.

    When one row alone reaches the threshold no block can stay below it,
    smaller blocks would only add calls, and one block covers every row.
    """
    rows = (_SINGLE_THREAD_MACS - 1) // (size * depth)
    if rows == 0:
        return [slice(0, size)]
    blocks = -(-size // rows)
    rows = -(-size // blocks)
    return [slice(start, min(start + rows, size)) for start in range(0, size, rows)]


def _gram(samples: np.ndarray) -> np.ndarray:
    """Gram matrix sum_s x[s, i] * conj(x[s, j]) of the rows of `samples` (L x P).

    Written block by block into one array (``_gram_blocks``), so every
    product stays single-threaded where that is possible.
    """
    depth, size = samples.shape
    left = samples.T
    right = samples.conj()
    gram = np.empty((size, size), dtype=np.complex128)
    for rows in _gram_blocks(size, depth):
        np.matmul(left[rows], right, out=gram[rows])
    return gram


def _normalization_constant(pair: CoprimePair, normalization: str, s_b: float | None) -> float | None:
    """The validated s_b of a biased estimate (default 2M + N - 1), or None when unbiased."""
    if normalization not in ("biased", "unbiased"):
        raise OutOfRangeError(f"normalization must be 'biased' or 'unbiased', got {normalization!r}")
    if normalization == "unbiased":
        return None
    return float(pair.sample_count) if s_b is None else finite_positive("s_b", s_b)


def _lag_sums(samples: np.ndarray, structure: _PairStructure, s_b: float | None) -> np.ndarray:
    """Normalized autocorrelation sums at lags -limit ... limit over the rows of `samples` (L x P).

    One Gram matrix sums every pair product over the snapshots in
    O(L * P^2); one bincount reduces the in-range ordered pairs, both signs
    of lag, to their lags; one scaling divides by s_b*L (biased) or by
    w(|l|)*L (unbiased).
    """
    products = _gram(samples).ravel()
    if structure.flat is not None:
        products = products[structure.flat]
    sums = _bin(structure.part_index, products, len(structure.inverse_weights))
    if s_b is None:
        sums *= structure.inverse_weights
        sums /= len(samples)
    else:
        sums /= s_b * len(samples)
    return sums


def autocorrelation(
    stream: np.ndarray,
    pair: CoprimePair,
    range_kind: RangeKind | str = RangeKind.FULL,
    normalization: str = "biased",
    s_b: float | None = None,
) -> AutocorrEstimate:
    """Estimate the autocorrelation over the lag range, averaged over the stream's snapshots.

    `stream` is a Nyquist-rate sample stream, as ``fit`` takes; every
    complete snapshot is used and a trailing partial one is ignored.  For
    each lag l in [-limit, limit], sums x(i) * conj(x(j)) over the ordered
    sample pairs with i - j = l (their count is the weight function at
    |l|) and over the snapshots, divides by ``s_b`` (biased; default
    2M + N - 1) or by the pair count (unbiased) and by the snapshot count,
    and takes the exact Hermitian mean of each lag and its mirror, so
    conjugate symmetry holds bit for bit.  Full-range holes stay zero.
    """
    pair = as_pair(pair)
    range_kind = as_range_kind(range_kind)
    samples, structure = _snapshot_samples(stream, pair, range_kind)
    s_b = _normalization_constant(pair, normalization, s_b)
    sums = _lag_sums(samples, structure, s_b)
    # The exact Hermitian mean of each lag and its mirror: conjugate
    # symmetry then holds bit for bit and the zero lag is exactly real.
    values = (sums + np.conj(sums[::-1])) / 2
    lags = np.arange(-structure.limit, structure.limit + 1)
    return AutocorrEstimate(pair, range_kind, normalization, s_b, lags, values, len(samples))


def correlogram(estimate: AutocorrEstimate, grid: FrequencyGrid | int) -> SpectrumCurve:
    """Transform of the autocorrelation estimate on the frequency grid.

    The window oracle's transform, ``spectra._lag_transform``: the lags
    fold mod G, the fold's conjugate symmetry is checked (ConsistencyError
    if it fails) and one real FFT follows, in O(lags + G log G).  ``fit``
    does not build an estimate: its kernel folds the Gram's lag sums directly.
    """
    grid = as_grid(grid)
    return _lag_transform(estimate.lags, estimate.values, grid, "correlogram")


def detect_peaks(curve: SpectrumCurve, count: int) -> list[tuple[float, float]]:
    """The `count` largest strict local maxima of the curve, value-descending.

    Neighbors wrap around at +-pi (the curve is a trigonometric polynomial,
    hence periodic).  Raises NotEnoughPeaksError when fewer maxima exist.
    """
    count = check_positive_int("count", count)
    values = curve.values
    indices = np.flatnonzero(_strict_maxima(values))
    if len(indices) < count:
        raise NotEnoughPeaksError(
            f"found {len(indices)} strict local maxima, needed {count}"
        )
    candidates = values[indices]
    if count < len(indices):
        # Keep every maximum at or above the count-th largest value, ties
        # included, so the stable sort below still breaks them by index.
        threshold = np.partition(candidates, len(candidates) - count)[len(candidates) - count]
        indices = indices[candidates >= threshold]
        candidates = values[indices]
    order = indices[np.argsort(-candidates, kind="stable")][:count]
    return [(float(curve.omega[i]), float(values[i])) for i in order]


class CoprimeCorrelogram:
    """Correlogram spectrum estimator with a scikit-learn style interface.

    Parameters are set at construction and readable through
    ``get_params``/``set_params``; ``fit`` consumes a Nyquist-rate complex
    sample stream and exposes the averaged spectrum as fitted attributes.
    ``fit`` runs one batched kernel over all snapshots: a blocked,
    single-threaded Gram of the retained samples, one bincount of the
    in-range ordered pairs to lags, one fold mod G, a check of the fold's
    conjugate symmetry and one real FFT, in O(L * (2M+N-1)^2 + G log G).
    By linearity that is the mean of the per-snapshot correlograms.
    Memory does not grow with G times the number of lags.

    Parameters
    ----------
    M, N : int
        Co-prime undersampling factors.
    snapshots : int or None
        Snapshots to average.  None uses every complete snapshot in the
        stream.
    lag_range : str
        'full' (default), 'continuous', or 'prototype'.
    normalization : str
        'biased' (default) or 'unbiased'.
    s_b : float or None
        Biased-normalization constant; None means 2M + N - 1.
    grid_size : int
        Frequency grid size (even, >= 1024).

    Attributes
    ----------
    omega_ : ndarray
        Frequency grid of the fitted spectrum.
    spectrum_ : ndarray
        Averaged correlogram values.
    curve_ : SpectrumCurve
        The same data as a curve object.
    n_snapshots_ : int
        Snapshots actually averaged.
    """

    def __init__(
        self,
        M: int = 3,
        N: int = 7,
        snapshots: int | None = None,
        lag_range: str = "full",
        normalization: str = "biased",
        s_b: float | None = None,
        grid_size: int = 4096,
    ):
        self.M = M
        self.N = N
        self.snapshots = snapshots
        self.lag_range = lag_range
        self.normalization = normalization
        self.s_b = s_b
        self.grid_size = grid_size

    _param_names = (
        "M", "N", "snapshots", "lag_range", "normalization", "s_b", "grid_size",
    )

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names}

    def set_params(self, **params) -> "CoprimeCorrelogram":
        for name, value in params.items():
            if name not in self._param_names:
                raise ValueError(f"invalid parameter {name!r} for CoprimeCorrelogram")
            setattr(self, name, value)
        return self

    def _spectrum(self, X: np.ndarray) -> tuple[SpectrumCurve, int]:
        """Correlogram of the autocorrelation averaged over the stream's snapshots.

        The Gram's lag sums fold onto the G frequency bins; ``spectra._hermitian_half``
        checks their conjugate symmetry for one ``spectra._real_transform``.
        """
        pair = as_pair((self.M, self.N))
        range_kind = as_range_kind(self.lag_range)
        grid = as_grid(self.grid_size)
        samples, structure = _snapshot_samples(X, pair, range_kind, self.snapshots)
        s_b = _normalization_constant(pair, self.normalization, self.s_b)
        sums = _lag_sums(samples, structure, s_b)
        half = _hermitian_half(_fold(sums, -structure.limit, grid.size), "correlogram")
        return SpectrumCurve(grid, _real_transform(half, grid)), len(samples)

    def fit(self, X, y=None) -> "CoprimeCorrelogram":
        """Estimate the averaged spectrum of the stream `X`."""
        curve, n_snapshots = self._spectrum(X)
        self.curve_ = curve
        self.omega_ = curve.omega
        self.spectrum_ = curve.values
        self.n_snapshots_ = n_snapshots
        self.pair_ = as_pair((self.M, self.N))
        return self

    def transform(self, X) -> np.ndarray:
        """Spectrum of the stream `X` under the current parameters."""
        curve, _ = self._spectrum(X)
        return curve.values

    def fit_transform(self, X, y=None) -> np.ndarray:
        return self.fit(X, y).spectrum_

    def peaks(self, count: int = 1) -> list[tuple[float, float]]:
        """The `count` largest peaks of the fitted spectrum."""
        if not hasattr(self, "curve_"):
            raise NotFittedError("call fit before requesting peaks")
        return detect_peaks(self.curve_, count)
