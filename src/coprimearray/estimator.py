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
from .pair import CoprimePair
from .sets import RangeKind, _distinct_positions, lag_limit
from .spectra import FrequencyGrid, SpectrumCurve, _lag_transform, _strict_maxima
from .validation import as_grid, as_pair, as_range_kind, check_positive_int, check_stream
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
        if not -np.pi < self.frequency <= np.pi:
            raise OutOfRangeError(
                f"tone frequency must lie in (-pi, pi], got {self.frequency}"
            )
        if self.amplitude <= 0:
            raise OutOfRangeError(f"tone amplitude must be positive, got {self.amplitude}")


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
        if self.noise_power < 0:
            raise OutOfRangeError(f"noise power must be non-negative, got {self.noise_power}")
        if self.seed < 0:
            raise OutOfRangeError(f"seed must be non-negative, got {self.seed}")


def tones(*frequencies: float, amplitude: float = 1.0) -> tuple[ToneComponent, ...]:
    """Unit-amplitude random-phase tones at the given frequencies."""
    return tuple(ToneComponent(freq, amplitude) for freq in frequencies)


#: Default single-tone test signal: one random-phase tone at 0.4*pi over a
#: noise floor of 0.1.
SINGLE_TONE_DEMO = SignalModel(tones(0.4 * np.pi), noise_power=0.1)

#: Default three-tone test signal.  The 0.2*pi spacing sits comfortably
#: above the resolution of the short lag windows this package targets;
#: closer spacings merge into one lobe for small (M, N).
THREE_TONE_DEMO = SignalModel(tones(0.3 * np.pi, 0.5 * np.pi, 0.7 * np.pi), noise_power=0.1)


def generate_signal(model: SignalModel, length: int, realization: int = 0) -> np.ndarray:
    """Synthesize `length` Nyquist-rate samples of the model.

    Draw order is fixed (one phase per random-phase tone, then the noise),
    so identical (seed, realization, length) always yields the identical
    stream.
    """
    length = check_positive_int("length", length)
    if realization < 0:
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


@dataclass(frozen=True, eq=False)
class SnapshotData:
    """Samples retained by the co-prime samplers over one snapshot.

    `positions` are local Nyquist indices in [0, 2MN), exactly the
    2M + N - 1 sampler positions; `values` aligns with them.
    """

    snapshot_index: int
    positions: np.ndarray
    values: np.ndarray

    @property
    def samples(self) -> dict[int, complex]:
        return {int(p): complex(v) for p, v in zip(self.positions, self.values)}


def sample_snapshot(stream: np.ndarray, pair: CoprimePair, snapshot_index: int) -> SnapshotData:
    """Retain the co-prime sample positions of snapshot `snapshot_index`.

    The stream must cover Nyquist indices up to 2MN*(snapshot_index + 1).
    """
    pair = as_pair(pair)
    stream = check_stream(stream)
    if snapshot_index < 0:
        raise OutOfRangeError(f"snapshot index must be non-negative, got {snapshot_index}")
    start = pair.period * snapshot_index
    end = start + pair.period
    if len(stream) < end:
        raise InsufficientDataError(
            f"snapshot {snapshot_index} needs {end} samples, stream has {len(stream)}"
        )
    positions = _structure(pair.M, pair.N, RangeKind.FULL.value).positions
    return SnapshotData(snapshot_index, positions, stream[start + positions])


@dataclass(frozen=True, eq=False)
class _PairStructure:
    positions: np.ndarray
    left: np.ndarray
    right: np.ndarray
    lags: np.ndarray
    limit: int
    weights: np.ndarray  # pair count per non-negative lag


@lru_cache(maxsize=32)
def _structure(M: int, N: int, range_value: str) -> _PairStructure:
    pair = CoprimePair(M, N)
    range_kind = RangeKind(range_value)
    positions = np.array(_distinct_positions(pair))
    limit = lag_limit(pair, range_kind)
    left, right = np.nonzero(positions[:, None] - positions[None, :] >= 0)
    lags = positions[left] - positions[right]
    keep = lags <= limit
    left, right, lags = left[keep], right[keep], lags[keep]
    weights = np.bincount(lags, minlength=limit + 1)
    expected = weight_closed_form(pair, range_kind)
    if any(int(weights[lag]) != expected[lag] for lag in range(limit + 1)):
        raise ConsistencyError(f"pair tally of {pair} disagrees with the weight function")
    return _PairStructure(positions, left, right, lags, limit, weights)


@dataclass(frozen=True, eq=False)
class AutocorrEstimate:
    """Autocorrelation estimate over a symmetric lag grid.

    `values[i]` estimates the autocorrelation at `lags[i]`; the grid covers
    every integer in [-limit, limit] with zeros at full-range holes.
    Conjugate symmetry holds by construction.
    """

    pair: CoprimePair
    range_kind: RangeKind
    normalization: str
    s_b: float | None
    lags: np.ndarray
    values: np.ndarray
    snapshots_used: int = 1

    def value(self, lag: int) -> complex:
        limit = (len(self.lags) - 1) // 2
        if abs(lag) > limit:
            raise OutOfRangeError(f"|lag|={abs(lag)} outside the estimate's range {limit}")
        return complex(self.values[lag + limit])


def _lag_estimate(
    samples: np.ndarray,
    pair: CoprimePair,
    range_kind: RangeKind,
    normalization: str,
    s_b: float | None,
) -> AutocorrEstimate:
    """Autocorrelation averaged over the rows of `samples` (L x 2M+N-1).

    The Gram matrix of the retained samples sums every pair product over
    the snapshots in O(L * (2M+N-1)^2); the pairs within the lag range are
    then reduced to lags and normalized once.
    """
    if normalization not in ("biased", "unbiased"):
        raise OutOfRangeError(f"normalization must be 'biased' or 'unbiased', got {normalization!r}")
    structure = _structure(pair.M, pair.N, range_kind.value)
    snapshots = len(samples)
    products = (samples.T @ samples.conj())[structure.left, structure.right]
    size = structure.limit + 1
    forward = (np.bincount(structure.lags, products.real, size)
               + 1j * np.bincount(structure.lags, products.imag, size))
    # The zero lag sums |x|^2 terms; drop the rounding residue fused complex
    # multiplies leave in its imaginary part so the estimate is exactly real
    # there and conjugate symmetry is exact.
    forward[0] = forward[0].real
    if normalization == "biased":
        if s_b is None:
            s_b = float(pair.sample_count)
        if s_b <= 0:
            raise OutOfRangeError(f"s_b must be positive, got {s_b}")
        forward /= s_b * snapshots
    else:
        s_b = None
        achievable = structure.weights > 0
        forward[achievable] /= structure.weights[achievable] * snapshots
    values = np.concatenate((np.conj(forward[:0:-1]), forward))
    lags = np.arange(-structure.limit, structure.limit + 1)
    return AutocorrEstimate(pair, range_kind, normalization, s_b, lags, values, snapshots)


def _snapshot_correlogram(
    stream: np.ndarray, pair: CoprimePair, snapshots: int, range_kind: RangeKind,
    grid: FrequencyGrid, normalization: str, s_b: float | None,
) -> SpectrumCurve:
    """Correlogram of the autocorrelation averaged over the first `snapshots` snapshots."""
    positions = _structure(pair.M, pair.N, range_kind.value).positions
    samples = stream[: snapshots * pair.period].reshape(snapshots, pair.period)[:, positions]
    return correlogram(_lag_estimate(samples, pair, range_kind, normalization, s_b), grid)


def autocorrelation(
    data: SnapshotData,
    pair: CoprimePair,
    range_kind: RangeKind | str = RangeKind.FULL,
    normalization: str = "biased",
    s_b: float | None = None,
) -> AutocorrEstimate:
    """Estimate the autocorrelation of one snapshot over the lag range.

    For each non-negative lag, sums x(i) * conj(x(j)) over the ordered
    sample pairs with i - j = lag (their count equals the weight function),
    then divides by ``s_b`` (biased; default 2M + N - 1) or by the per-lag
    pair count (unbiased), and mirrors conjugate values to negative lags.
    Full-range holes stay zero.
    """
    pair = as_pair(pair)
    range_kind = as_range_kind(range_kind)
    if len(data.values) != len(_structure(pair.M, pair.N, range_kind.value).positions):
        raise OutOfRangeError("snapshot does not match the pair's sampler positions")
    return _lag_estimate(data.values[None, :], pair, range_kind, normalization, s_b)


def correlogram(estimate: AutocorrEstimate, grid: FrequencyGrid | int) -> SpectrumCurve:
    """Transform of the autocorrelation estimate on the frequency grid.

    The transform of ``spectra.dtft_of_window``: the lags fold mod G with
    the sign (-1)^l and one FFT follows, in O(lags + G log G); the imaginary
    residual is checked against sum |values| and discarded.
    """
    grid = as_grid(grid)
    return _lag_transform(estimate.lags, estimate.values, grid, "correlogram")


def average_correlogram(
    model: SignalModel,
    pair: CoprimePair,
    snapshot_count: int,
    range_kind: RangeKind | str = RangeKind.FULL,
    grid: FrequencyGrid | int = 4096,
    normalization: str = "biased",
    s_b: float | None = None,
    realization: int = 0,
) -> SpectrumCurve:
    """Mean correlogram over `snapshot_count` snapshots of one realization.

    By linearity this is the correlogram of the snapshot-averaged
    autocorrelation, which one batched kernel computes: the Gram matrix of
    all retained samples, a reduction of its pairs to lags, then one fold
    mod G and one FFT, O(L * (2M+N-1)^2 + G log G) in all.  The result is a
    deterministic function of the model seed.
    """
    pair = as_pair(pair)
    range_kind = as_range_kind(range_kind)
    grid = as_grid(grid)
    snapshot_count = check_positive_int("snapshot_count", snapshot_count)
    stream = generate_signal(model, pair.period * snapshot_count, realization)
    return _snapshot_correlogram(
        stream, pair, snapshot_count, range_kind, grid, normalization, s_b
    )


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
    order = indices[np.argsort(-values[indices], kind="stable")][:count]
    return [(float(curve.omega[i]), float(values[i])) for i in order]


class CoprimeCorrelogram:
    """Correlogram spectrum estimator with a scikit-learn style interface.

    Parameters are set at construction and readable through
    ``get_params``/``set_params``; ``fit`` consumes a Nyquist-rate complex
    sample stream and exposes the averaged spectrum as fitted attributes.
    ``fit`` runs the batched kernel of ``average_correlogram`` once over all
    snapshots; memory does not grow with G times the number of lags.

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
        pair = as_pair((self.M, self.N))
        range_kind = as_range_kind(self.lag_range)
        grid = as_grid(self.grid_size)
        stream = check_stream(X)
        if self.snapshots is None:
            n_snapshots = len(stream) // pair.period
        else:
            n_snapshots = check_positive_int("snapshots", self.snapshots)
        if n_snapshots < 1 or len(stream) < n_snapshots * pair.period:
            raise InsufficientDataError(
                f"{n_snapshots or 1} snapshot(s) of {pair.period} samples "
                f"requested, stream has {len(stream)}"
            )
        curve = _snapshot_correlogram(
            stream, pair, n_snapshots, range_kind, grid, self.normalization, self.s_b
        )
        return curve, n_snapshots

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
