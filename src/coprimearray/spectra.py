"""Bias windows of the correlogram estimate: closed forms, transforms, peaks.

The lag-domain weight functions act as windows that the correlogram
convolves with the true spectrum.  This module evaluates their transforms
in closed form on a frequency grid, provides a direct transform oracle for
validation, and measures main-lobe/side-lobe geometry.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .errors import NoSideLobeError, OutOfRangeError, check_residual
from .pair import CoprimePair, exact_int, finite_positive
from .sets import RangeKind
from .weights import weight_terms

#: Grids below this size quantize side-lobe peaks too coarsely for the
#: relative-amplitude measurements this module exists for.
MIN_GRID_SIZE = 1024


class FrequencyGrid:
    """Uniform angular-frequency grid on [-pi, pi) containing 0 exactly.

    The size must be an even integer (so that 0 is a grid point) and at
    least ``MIN_GRID_SIZE``; anything else raises OutOfRangeError.
    """

    def __init__(self, size: int = 4096):
        size = exact_int("grid size", size)
        if size < MIN_GRID_SIZE:
            raise OutOfRangeError(f"grid size must be at least {MIN_GRID_SIZE}, got {size}")
        if size % 2:
            raise OutOfRangeError(f"grid size must be even so 0 is on the grid, got {size}")
        self.size = size
        # (k - size/2) * step puts 0 at index size/2 with no rounding.
        self.points = (np.arange(size) - size // 2) * (2.0 * np.pi / size)
        self.zero_index = size // 2

    @property
    def step(self) -> float:
        return 2.0 * np.pi / self.size

    def __repr__(self) -> str:
        return f"FrequencyGrid(size={self.size})"

    def __eq__(self, other: object) -> bool:
        return isinstance(other, FrequencyGrid) and other.size == self.size


@dataclass(frozen=True, eq=False)
class SpectrumCurve:
    """Real-valued curve sampled on a frequency grid."""

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        if len(self.values) != self.grid.size:
            raise ValueError("curve length does not match its grid")

    @property
    def omega(self) -> np.ndarray:
        return self.grid.points

    def at_zero(self) -> float:
        return float(self.values[self.grid.zero_index])


@dataclass(frozen=True)
class PeakReport:
    """Main-lobe peak, largest side-lobe peak, and their relative amplitude."""

    main_peak: float
    side_peak: float
    side_peak_omega: float
    relative_amplitude: float


def dirichlet_ratio(count: int, theta: np.ndarray) -> np.ndarray:
    """sin(count*theta)/sin(theta) with exact limits at multiples of pi.

    Valid for integer `count` >= 0, where the ratio extends analytically to
    ``count * (-1)**(k*(count-1))`` at ``theta = k*pi``.  Evaluated through
    the offset from the nearest multiple of pi, which keeps full relative
    precision arbitrarily close to the singular points.
    """
    theta = np.asarray(theta, dtype=float)
    nearest = np.round(theta / np.pi)
    delta = theta - nearest * np.pi
    sign = np.where((nearest.astype(np.int64) * (count - 1)) % 2 == 0, 1.0, -1.0)
    regular = delta != 0.0
    safe = np.where(regular, delta, 1.0)
    return sign * np.where(regular, np.sin(count * safe) / np.sin(safe), float(count))


class _HalfGrid:
    """Closed-form window evaluation on the half grid, with exact integer phases.

    On the grid, omega_k*c/2 = pi*j/G for the integer j = ((k - G/2)*c) mod
    2G, formed in int64 with c reduced mod 2G first, so no angle is rounded
    however large c grows.  Every sine and cosine is read from one table of
    sin(pi*i/G), i in [0, 2G), built from a single np.sin over the first
    quadrant and reflected: it is zero exactly at i = 0 and i = G, keeps
    full relative precision beside them, and is exactly odd about both.
    The windows have symmetric lag counts and so are even in omega; they
    are evaluated at k = G/2 ... G, where k = G stands for omega = -pi, and
    mirrored.  The table lives for one call.
    """

    def __init__(self, grid: FrequencyGrid):
        size = grid.size
        self.grid = grid
        self.period = 2 * size
        self.offsets = np.arange(size // 2 + 1, dtype=np.int64)
        quadrant = np.sin(np.arange(size // 2 + 1) * (np.pi / size))
        table = np.empty(self.period)
        table[:size // 2 + 1] = quadrant
        table[size // 2:size + 1] = quadrant[::-1]
        table[size + 1:] = -table[1:size]
        self.table = table

    def phase(self, c: int) -> np.ndarray:
        """The integer j of omega*c/2 = pi*j/G at each half-grid point."""
        return self.offsets * (c % self.period) % self.period

    def cos(self, c: int) -> np.ndarray:
        """cos(omega*c/2) = sin(pi*(j + G/2)/G)."""
        return self.table[(self.offsets * (c % self.period) + self.grid.size // 2) % self.period]

    def dirichlet(self, count: int, j: np.ndarray) -> np.ndarray:
        """sin(count*theta)/sin(theta) at theta = pi*j/G, for integer count >= 0.

        Where sin(theta) = 0 (j = 0 or G) the value is the exact limit
        count*(-1)**((j//G)*(count - 1)).
        """
        numerator = self.table[(count % self.period) * j % self.period]
        denominator = self.table[j]
        singular = np.flatnonzero(denominator == 0.0)
        denominator[singular] = 1.0
        ratio = numerator / denominator
        flips = (j[singular] // self.grid.size) * (count - 1) % 2
        ratio[singular] = np.where(flips == 1, -float(count), float(count))
        return ratio

    def curve(self, half: np.ndarray) -> SpectrumCurve:
        """The even curve on the whole grid from its values at k = G/2 ... G."""
        return SpectrumCurve(self.grid, np.concatenate((half[:0:-1], half[:-1])))


def _lag_transform(lags: np.ndarray, values: np.ndarray, grid: FrequencyGrid, what: str) -> SpectrumCurve:
    """``sum_l values[l] * exp(-i*omega*l)`` on the grid, for conjugate-symmetric values.

    exp(-i*omega_k*l) = (-1)^l * exp(-2*pi*i*k*l/G), so the lags fold mod G
    with the sign (-1)^l, exactly for any lag range, and one FFT evaluates
    the transform.  Its imaginary part is checked against the relative
    bound of sum |values|, which bounds the transform, and discarded.
    """
    signed = np.where(lags % 2 == 0, values, -values)
    folded_at = lags % grid.size
    folded = (np.bincount(folded_at, signed.real, grid.size)
              + 1j * np.bincount(folded_at, signed.imag, grid.size))
    transform = np.fft.fft(folded)
    residual = float(np.max(np.abs(transform.imag)))
    check_residual(f"{what} imaginary part", residual, float(np.sum(np.abs(values))))
    return SpectrumCurve(grid, transform.real)


def dtft_of_window(counts: Mapping[int, float], grid: FrequencyGrid) -> SpectrumCurve:
    """Direct transform of a symmetric lag window; the oracle for all closed forms.

    Evaluates ``sum_l counts[l] * exp(-i*omega*l)`` exactly on the G-point
    grid by folding the lags mod G and one FFT, in O(lags + G log G), and
    raises ConsistencyError if its imaginary part (zero for symmetric
    counts) exceeds the relative check bound of ``sum_l |counts[l]|``.
    """
    lags = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=float, count=len(counts))
    return _lag_transform(lags, values, grid, "window transform")


def bias_unbiased(pair: CoprimePair, range_kind: RangeKind, grid: FrequencyGrid) -> SpectrumCurve:
    """Transform of the 0/1 availability window, in closed form.

    The continuous and prototype ranges give a plain Dirichlet kernel; the
    full range adds the mirrored extension-cross contribution.  Evaluated
    with exact integer phases and one sine table on half the grid, then
    mirrored, so the curve is exactly even.
    """
    M, N = pair.M, pair.N
    half = _HalfGrid(grid)
    if range_kind is not RangeKind.FULL:
        limit = pair.continuous_lag_limit if range_kind is RangeKind.CONTINUOUS else pair.prototype_lag_limit
        return half.curve(half.dirichlet(2 * limit + 1, half.phase(1)))
    j_m = half.phase(M)
    j_n = half.phase(N)
    cos_mn = half.cos(2 * M * N)
    self_m = 2.0 * half.cos(M * N) * half.dirichlet(N - 1, j_m)
    self_n = 2.0 * cos_mn * half.dirichlet(2 * M - 1, j_n)
    cross = half.dirichlet(N - 1, j_m) * half.dirichlet(M - 1, j_n)
    values = self_m + self_n + 1.0 + (1.0 + 2.0 * cos_mn) * cross
    return half.curve(values)


def _ext_cross_transform(
    pair: CoprimePair, half: _HalfGrid, j_n: np.ndarray, upper_limits: list[int]
) -> np.ndarray:
    """Transform of the extension-cross term for per-n upper index limits, on the half grid."""
    M, N = pair.M, pair.N
    total = np.zeros(len(j_n))
    for n in range(1, N):
        upper = upper_limits[n - 1]
        # Twice the centre M*n - M*N/2 - N*(upper + 1)/2 of the n-th run.
        center2 = 2 * M * n - M * N - N * (upper + 1)
        total += 2.0 * half.cos(center2) * half.dirichlet(upper - M, j_n)
    return total


def bias_biased(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid,
    s_b: float = 1.0,
) -> SpectrumCurve:
    """Transform of the pair-count weight window, in closed form, over s_b.

    With ``s_b = 1`` this is the raw weight transform used for bias-shape
    analysis; the estimator normalizes with ``s_b = 2M + N - 1``, and any
    ``s_b`` that is not finite and positive raises OutOfRangeError.  Every
    term is evaluated with exact integer phases from one sine table on half
    the grid, O((N + terms)*G/2) gathers and no per-term sine, and mirrored:
    the curve is exactly even, and at s_b = 1 its value at omega = 0 equals
    ``main_peak`` exactly.
    """
    s_b = finite_positive("s_b", s_b)
    M, N = pair.M, pair.N
    half = _HalfGrid(grid)
    j_m = half.phase(M)
    j_n = half.phase(N)
    self_m = half.dirichlet(N, j_m) ** 2 + half.dirichlet(2 * N - 1, j_m)
    base_cross = 2.0 * half.dirichlet(N - 1, j_m) * half.dirichlet(M - 1, j_n)

    if range_kind is RangeKind.FULL:
        # The full-range form groups the base and extension cross terms
        # into a single (1 + cos) factor.
        self_n = half.dirichlet(2 * M, j_n) ** 2
        cross = (1.0 + half.cos(2 * M * N)) * base_cross
        values = self_m + self_n + cross - 2.0
        return half.curve(values / s_b)

    if range_kind is RangeKind.CONTINUOUS:
        # Whole N-spaced steps of the continuous range beyond one co-prime period.
        extra = (M - 1) // N
        self_n = (
            half.dirichlet(M + extra + 1, j_n) ** 2
            + (M - extra - 1) * half.dirichlet(2 * M + 2 * extra + 1, j_n)
        )
        uppers = [(M * N + M + M * n - 1) // N for n in range(1, N)]
    else:
        self_n = half.dirichlet(M, j_n) ** 2 + M * half.dirichlet(2 * M - 1, j_n)
        uppers = [(M * N + M * n - 1) // N for n in range(1, N)]

    values = self_m + self_n + base_cross + _ext_cross_transform(pair, half, j_n, uppers) - 2.0
    return half.curve(values / s_b)


def peak_value(M: int, N: int, range_kind: RangeKind) -> int:
    """Zero-frequency value of the weight-window transform (s_b = 1).

    Pure integer arithmetic in (M, N); unlike the rest of the package this
    does not require co-primality, so sweeps over arbitrary grids of
    factors can reuse it.
    """
    if range_kind is RangeKind.FULL:
        return (2 * M + N - 1) ** 2
    if range_kind is RangeKind.CONTINUOUS:
        extra = (M - 1) // N
        return (
            (M + extra + 1) ** 2
            + (M + N) ** 2
            + M * M
            - 3 * M
            - 3 * extra
            - 2 * extra * extra
            - 2
            + sum(2 * ((M + M * i - 1) // N) for i in range(1, N))
        )
    return (
        3 * M * M
        + N * N
        - 3 * M
        + 2 * M * N
        - 1
        + sum(2 * ((M * i - 1) // N) for i in range(1, N))
    )


def main_peak(pair: CoprimePair, range_kind: RangeKind) -> int:
    """Main-lobe peak of the biased window at s_b = 1 (equals the weight sum)."""
    return peak_value(pair.M, pair.N, range_kind)


def _strict_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the strict local maxima; neighbors wrap around at +-pi."""
    return (values > np.roll(values, 1)) & (values > np.roll(values, -1))


def _main_lobe(curve: SpectrumCurve) -> tuple[int, int]:
    """Grid indices (left, right) where the descent from omega = 0 (through plateaus) ends."""
    values = curve.values
    zero = curve.grid.zero_index
    falls = np.flatnonzero(values[:zero] > values[1:zero + 1])
    rises = np.flatnonzero(values[zero + 1:] > values[zero:-1])
    left = int(falls[-1]) + 1 if len(falls) else 0
    right = zero + int(rises[0]) if len(rises) else len(values) - 1
    return left, right


def main_lobe_edge(curve: SpectrumCurve) -> int:
    """Grid index of the first local minimum at or above omega = 0 (plateaus are crossed)."""
    return _main_lobe(curve)[1]


def main_lobe_half_width(curve: SpectrumCurve) -> float:
    """Frequency of the first local minimum above omega = 0."""
    return float(curve.omega[main_lobe_edge(curve)])


def side_lobe_peak(curve: SpectrumCurve) -> tuple[float, float]:
    """Largest strict local maximum on [-pi, 0] outside the main lobe.

    The main lobe descends from omega = 0, through plateaus, to the first
    local minimum.  A maximum strictly exceeds both grid neighbors
    (periodic at -pi), as in ``detect_peaks``; ties go to the lowest index.

    Returns (omega, value); raises NoSideLobeError when no such maximum
    exists.
    """
    values = curve.values
    left, _ = _main_lobe(curve)
    candidates = np.flatnonzero(_strict_maxima(values)[:left])
    if not len(candidates):
        raise NoSideLobeError("no strict local maximum outside the main lobe")
    best = candidates[np.argmax(values[candidates])]
    return float(curve.omega[best]), float(values[best])


def relative_amplitude(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid | None = None,
    s_b: float = 1.0,
) -> PeakReport:
    """Relative amplitude (P_m - P_s) / P_m of the biased window.

    P_m is the exact integer ``main_peak``, which the closed form also
    takes at omega = 0; P_s is the largest side-lobe maximum of
    ``bias_biased`` on [-pi, 0], and since that curve is exactly even the
    positive half holds the same lobes.  Invariant to ``s_b``, which must
    be finite and positive, since both peaks scale identically.  Grid sizes
    of at least 8192 are needed before the third decimal is trustworthy;
    the default uses 16384.
    """
    if grid is None:
        grid = FrequencyGrid(16384)
    curve = bias_biased(pair, range_kind, grid, s_b=s_b)
    peak_main = main_peak(pair, range_kind) / s_b
    omega_side, peak_side = side_lobe_peak(curve)
    ratio = (peak_main - peak_side) / peak_main
    return PeakReport(peak_main, peak_side, omega_side, ratio)


def window_term_curves(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid,
    s_b: float = 1.0,
) -> dict[str, SpectrumCurve]:
    """Per-term transforms of the weight window (direct transform of each term).

    The four curves sum to the biased window; emitted by the CLI so each
    term's contribution to the bias can be plotted separately.
    """
    curves = {}
    for name, term in weight_terms(pair, range_kind).items():
        transformed = dtft_of_window(term, grid)
        curves[name] = SpectrumCurve(grid, transformed.values / s_b)
    return curves
