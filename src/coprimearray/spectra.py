"""Bias windows of the correlogram estimate: closed forms, transforms, peaks.

The lag-domain weight functions act as windows that the correlogram
convolves with the true spectrum.  This module evaluates their transforms
in closed form on a frequency grid, holds the package's one FFT, a real
transform behind the correlogram and the oracle of every closed form, and
measures main-lobe/side-lobe geometry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from math import gcd, isqrt, log2

import numpy as np

from .errors import NoSideLobeError, OutOfRangeError, check_residual
from .pair import CoprimePair, as_pair, check_positive_int, exact_int, finite_positive
from .sets import RangeKind, _index_limits, lag_limit
from .weights import weight_closed_form, weight_terms

#: Grids below this size quantize side-lobe peaks too coarsely for the
#: relative-amplitude measurements this module exists for.
MIN_GRID_SIZE = 1024


@dataclass(frozen=True)
class FrequencyGrid:
    """Uniform angular-frequency grid on [-pi, pi) containing 0 exactly.

    The size must be an even integer (so that 0 is a grid point) and at
    least ``MIN_GRID_SIZE``; anything else raises OutOfRangeError.  Grids
    of one size are equal and hash alike, and a grid and its `points` are
    read-only, so one grid can serve every caller of its size (``as_grid``).
    """

    size: int = 4096
    points: np.ndarray = field(init=False, repr=False, compare=False)
    zero_index: int = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        size = exact_int("grid size", self.size)
        if size < MIN_GRID_SIZE:
            raise OutOfRangeError(f"grid size must be at least {MIN_GRID_SIZE}, got {size}")
        if size % 2:
            raise OutOfRangeError(f"grid size must be even so 0 is on the grid, got {size}")
        # (k - size/2) * step puts 0 at index size/2 with no rounding.
        points = (np.arange(size) - size // 2) * (2.0 * np.pi / size)
        points.flags.writeable = False
        object.__setattr__(self, "size", size)
        object.__setattr__(self, "points", points)
        object.__setattr__(self, "zero_index", size // 2)

    @property
    def step(self) -> float:
        return 2.0 * np.pi / self.size


@lru_cache(maxsize=8)
def _grid_of_size(size: int) -> FrequencyGrid:
    return FrequencyGrid(size)


def as_grid(value: FrequencyGrid | int) -> FrequencyGrid:
    """Coerce a FrequencyGrid or an integer grid size; 4096.9 is rejected, not truncated.

    A size gets the one grid built for it while it stays among the last
    few sizes asked for, so a repeated ``fit`` does not rebuild its points.
    """
    if isinstance(value, FrequencyGrid):
        return value
    return _grid_of_size(exact_int("grid size", value))


@dataclass(frozen=True, eq=False)
class SpectrumCurve:
    """Real-valued curve sampled on a frequency grid.

    The grid may be given as a FrequencyGrid or an integer grid size; the
    values must be one per grid point, or OutOfRangeError is raised.
    """

    grid: FrequencyGrid
    values: np.ndarray

    def __post_init__(self) -> None:
        object.__setattr__(self, "grid", as_grid(self.grid))
        if np.shape(self.values) != (self.grid.size,):
            raise OutOfRangeError(
                f"curve values of shape {np.shape(self.values)} "
                f"do not match a grid of {self.grid.size} points"
            )

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


@lru_cache(maxsize=4)
def _half_grid_tables(size: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``_HalfGrid``'s sine table over two periods, row starts and row offsets, read-only.

    A 4G-entry table is 32 MB at G = 2^20, so only the last few sizes are kept.
    """
    length = size // 2 + 1
    block = isqrt(length - 1) + 1
    row_starts = np.arange(-(-length // block), dtype=np.int64) * block
    row_offsets = np.arange(block, dtype=np.int64)
    quadrant = np.sin(np.arange(length) * (np.pi / size))
    table = np.empty(4 * size)
    table[:length] = quadrant
    table[size // 2:size + 1] = quadrant[::-1]
    table[size + 1:2 * size] = -table[1:size]
    table[2 * size:] = table[:2 * size]
    for array in (table, row_starts, row_offsets):
        array.flags.writeable = False
    return table, row_starts, row_offsets


class _HalfGrid:
    """Closed-form window evaluation on the half grid, with exact integer phases.

    On the grid, omega_k*c/2 = pi*j/G for the integer j = ((k - G/2)*c) mod
    2G, so no angle is rounded however large c grows.  Every sine and
    cosine is read from one table of sin(pi*i/G), built from a single
    np.sin over the first quadrant and reflected: it is zero exactly at
    i = 0 and i = G, keeps full relative precision beside them, and is
    exactly odd about both.  The windows have symmetric lag counts and so
    are even in omega; they are evaluated at the G/2 + 1 offsets k - G/2 =
    0 ... G/2, where k = G stands for omega = -pi, and mirrored.

    ``index`` forms the table positions without a remainder over the G/2 +
    1 offsets: it writes each offset as q*B + r with B about sqrt(G/2), so
    (offset*c + shift) mod 2G is (q*B*c mod 2G) + ((r*c + shift) mod 2G),
    two remainders over about sqrt(G/2) values each whose broadcast sum is
    below 4G.  The table therefore holds two periods, 4G entries, and is
    read at that sum directly.  With c reduced mod 2G first, q*B*c < G**2,
    which int64 holds for any grid that fits in memory.  ``dirichlet``
    keeps the denominator sin(omega*c/2), its zeros and their parity for
    each factor c it has seen, so terms that share a factor share one
    gather.  The table and the index rows are built once per grid size
    (``_half_grid_tables``); the denominators live for one call.
    """

    def __init__(self, grid: FrequencyGrid):
        self.grid = grid
        self.period = 2 * grid.size
        self.length = grid.size // 2 + 1
        self.table, self.row_starts, self.row_offsets = _half_grid_tables(grid.size)
        self.denominators: dict[int, tuple[np.ndarray, np.ndarray, np.ndarray]] = {}

    def index(self, c: int, shift: int = 0) -> np.ndarray:
        """Table positions i, below 4G, with i = offset*c + shift (mod 2G) at each offset."""
        c %= self.period
        rows = self.row_starts * c % self.period
        columns = (self.row_offsets * c + shift) % self.period
        return (rows[:, None] + columns).ravel()[:self.length]

    def cos(self, c: int) -> np.ndarray:
        """cos(omega*c/2) = sin(pi*(j + G/2)/G)."""
        return self.table.take(self.index(c, self.grid.size // 2))

    def dirichlet(self, count: int, c: int) -> np.ndarray:
        """sin(count*theta)/sin(theta) at theta = omega*c/2, for integer count >= 0.

        Where sin(theta) = 0 (j = 0 or G) the value is the exact limit
        count*(-1)**((j//G)*(count - 1)).
        """
        if c not in self.denominators:
            positions = self.index(c)
            denominator = self.table.take(positions)
            singular = np.flatnonzero(denominator == 0.0)
            denominator[singular] = 1.0
            flipped = singular[positions[singular] // self.grid.size % 2 == 1]
            self.denominators[c] = denominator, singular, flipped
        denominator, singular, flipped = self.denominators[c]
        ratio = self.table.take(self.index(count * c)) / denominator
        ratio[singular] = float(count)
        # The sign flips where j//G and count - 1 are both odd.
        if count % 2 == 0:
            ratio[flipped] = -float(count)
        return ratio


def _mirrored(grid: FrequencyGrid, half: np.ndarray) -> SpectrumCurve:
    """The even curve on the whole grid from its values at k = G/2 ... G."""
    return SpectrumCurve(grid, np.concatenate((half[:0:-1], half[:-1])))


def _part_index(bins: np.ndarray) -> np.ndarray:
    """Bins of the real and imaginary parts of complex values headed for `bins`.

    A complex array is its real and imaginary parts interleaved in memory;
    value p's parts go to 2*bins[p] and 2*bins[p] + 1 of ``_bin``.
    """
    index = np.empty((len(bins), 2), dtype=np.int64)
    np.multiply(bins, 2, out=index[:, 0])
    np.add(index[:, 0], 1, out=index[:, 1])
    return index.ravel()


def _bin(part_index: np.ndarray, values: np.ndarray, size: int) -> np.ndarray:
    """Complex `values` summed into `size` bins by one bincount (``_part_index``)."""
    parts = np.ascontiguousarray(values, dtype=np.complex128).view(np.float64)
    return np.bincount(part_index, parts, 2 * size).view(np.complex128)


def _fold(binned: np.ndarray, low: int, size: int) -> np.ndarray:
    """A lag sequence, ``binned[b]`` at lag low + b, summed into `size` bins at its lags mod size."""
    start = low % size
    padded = np.zeros(-(-(start + len(binned)) // size) * size, dtype=np.complex128)
    padded[start:start + len(binned)] = binned
    return padded.reshape(-1, size).sum(axis=0)


def _real_transform(half: np.ndarray, grid: FrequencyGrid) -> np.ndarray:
    """``sum_l r(l) * exp(-i*omega*l)`` at every grid point by ``np.fft.hfft``, the package's one FFT.

    `half` holds bins 0 ... G/2 of r folded onto G bins at its lags mod G,
    bin G - m the conjugate of bin m.  The FFT's value at omega = 2*pi*j/G
    belongs to grid point j + G/2 mod G, so it is rotated by G/2.
    """
    values = np.fft.hfft(half, grid.size)
    return np.concatenate((values[grid.size // 2:], values[:grid.size // 2]))


def _hermitian_half(folded: np.ndarray, what: str) -> np.ndarray:
    """Bins m = 0 ... G/2 of (f[m] + conj f[G - m])/2, the conjugate-symmetric part of `folded`.

    Its ``_real_transform`` is the real part of the transform of f.  The
    residual sum_m |f[m] - conj f[G - m]| over the G bins, at least twice
    that transform's largest imaginary part, raises ConsistencyError above
    the relative bound of the part's absolute sum over the G bins, which
    bounds the curve and is at most sum |f|.
    """
    size = len(folded)
    head = folded[:size // 2 + 1]
    mirror = np.conj(np.concatenate((head[:1], folded[:size // 2 - 1:-1])))
    half = (head + mirror) * 0.5
    # Bins G - m repeat the magnitudes of bins m for 0 < m < G/2.
    residual, scale = (2.0 * m.sum() - m[0] - m[-1] for m in (np.abs(head - mirror), np.abs(half)))
    check_residual(f"{what} conjugate symmetry", residual, scale)
    return half


def _lag_transform(lags: np.ndarray, values: np.ndarray, grid: FrequencyGrid, what: str) -> SpectrumCurve:
    """``sum_l values[l] * exp(-i*omega*l)`` on the grid, for conjugate-symmetric values.

    The lags fold mod G by one bincount, exact for any lag range, for the
    ``_real_transform`` of the checked ``_hermitian_half``: O(lags + G log G).
    ``correlogram`` calls it on an estimate; on window counts it is the closed forms' oracle.
    """
    folded = _bin(_part_index(lags % grid.size), values, grid.size)
    return SpectrumCurve(grid, _real_transform(_hermitian_half(folded, what), grid))


def bias_unbiased(pair: CoprimePair, range_kind: RangeKind, grid: FrequencyGrid | int) -> SpectrumCurve:
    """Transform of the 0/1 availability window, in closed form.

    The continuous and prototype ranges give a plain Dirichlet kernel; the
    full range adds the mirrored extension-cross contribution.  Evaluated
    with exact integer phases and one sine table on half the grid, then
    mirrored, so the curve is exactly even.
    """
    pair = as_pair(pair)
    M, N = pair.M, pair.N
    half = _HalfGrid(as_grid(grid))
    if range_kind is not RangeKind.FULL:
        return _mirrored(half.grid, half.dirichlet(2 * lag_limit(pair, range_kind) + 1, 1))
    cos_mn = half.cos(2 * M * N)
    self_m = 2.0 * half.cos(M * N) * half.dirichlet(N - 1, M)
    self_n = 2.0 * cos_mn * half.dirichlet(2 * M - 1, N)
    cross = half.dirichlet(N - 1, M) * half.dirichlet(M - 1, N)
    values = self_m + self_n + 1.0 + (1.0 + 2.0 * cos_mn) * cross
    return _mirrored(half.grid, values)


def _ext_cross_transform(pair: CoprimePair, half: _HalfGrid, upper_limits: list[int]) -> np.ndarray:
    """Transform of the extension-cross term for per-n upper index limits, on the half grid."""
    M, N = pair.M, pair.N
    total = np.zeros(half.length)
    for n in range(1, N):
        upper = upper_limits[n - 1]
        # Twice the centre M*n - M*N/2 - N*(upper + 1)/2 of the n-th run.
        center2 = 2 * M * n - M * N - N * (upper + 1)
        total += 2.0 * half.cos(center2) * half.dirichlet(upper - M, N)
    return total


def bias_biased(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid | int,
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
    pair = as_pair(pair)
    s_b = finite_positive("s_b", s_b)
    M, N = pair.M, pair.N
    half = _HalfGrid(as_grid(grid))
    self_m = half.dirichlet(N, M) ** 2 + half.dirichlet(2 * N - 1, M)
    base_cross = 2.0 * half.dirichlet(N - 1, M) * half.dirichlet(M - 1, N)

    # Self-N lags N*m, |m| <= K, carry 2M - |m| pairs: a triangle of height
    # K + 1 (the squared Dirichlet kernel) on a flat step of 2M - 1 - K,
    # which is zero on the full range.
    last_self_n, uppers = _index_limits(pair, range_kind)
    self_n = half.dirichlet(last_self_n + 1, N) ** 2
    if last_self_n < 2 * M - 1:
        self_n = self_n + (2 * M - 1 - last_self_n) * half.dirichlet(2 * last_self_n + 1, N)

    if range_kind is RangeKind.FULL:
        # The full-range form groups the base and extension cross terms
        # into a single (1 + cos) factor.
        cross = (1.0 + half.cos(2 * M * N)) * base_cross
        values = self_m + self_n + cross - 2.0
    else:
        values = self_m + self_n + base_cross + _ext_cross_transform(pair, half, uppers) - 2.0
    return _mirrored(half.grid, values / s_b)


def _floor_sum(m: int, n: int, x: int) -> int:
    """sum_{0 <= k < n} floor((m*k + x)/n) in O(1), for m, n >= 1 and any integer x.

    With d = gcd(m, n) the sum is d*floor(x/d) + ((m - 1)(n - 1) + d - 1)/2
    (Graham, Knuth and Patashnik, Concrete Mathematics, 2nd ed., section
    3.5); co-primality is not needed.
    """
    d = gcd(m, n)
    return d * (x // d) + ((m - 1) * (n - 1) + d - 1) // 2


def peak_value(M: int, N: int, range_kind: RangeKind) -> int:
    """Zero-frequency value of the weight-window transform (s_b = 1): the weight sum.

    Pure integer arithmetic in (M, N), O(1) through ``_floor_sum``; unlike
    the rest of the package this does not require co-primality, so sweeps
    over arbitrary grids of factors can reuse it.  M and N must be positive
    integers and `range_kind` a RangeKind, or OutOfRangeError is raised.
    """
    M = check_positive_int("M", M)
    N = check_positive_int("N", N)
    if range_kind is RangeKind.FULL:
        return (2 * M + N - 1) ** 2
    if range_kind is RangeKind.CONTINUOUS:
        extra = (M - 1) // N
        # The paper's sum_{i=1}^{N-1} floor((M*i + M - 1)/N) is the i = 0 term short.
        tail = _floor_sum(M, N, M - 1) - extra
        return (
            (M + extra + 1) ** 2 + (M + N) ** 2 + M * M
            - 3 * M - 3 * extra - 2 * extra * extra - 2 + 2 * tail
        )
    if range_kind is RangeKind.PROTOTYPE:
        # sum_{i=1}^{N-1} floor((M*i - 1)/N); the i = 0 term is -1.
        tail = _floor_sum(M, N, -1) + 1
        return 3 * M * M + N * N - 3 * M + 2 * M * N - 1 + 2 * tail
    raise OutOfRangeError(f"range_kind must be a RangeKind, got {range_kind!r}")


def main_peak(pair: CoprimePair, range_kind: RangeKind) -> int:
    """Main-lobe peak of the biased window at s_b = 1 (equals the weight sum)."""
    pair = as_pair(pair)
    return peak_value(pair.M, pair.N, range_kind)


def _strict_maxima(values: np.ndarray) -> np.ndarray:
    """Mask of the strict local maxima; neighbors wrap around at +-pi."""
    mask = np.empty(len(values), dtype=bool)
    inner = values[1:-1]
    np.greater(inner, values[:-2], out=mask[1:-1])
    mask[1:-1] &= inner > values[2:]
    mask[0] = values[0] > values[-1] and values[0] > values[1]
    mask[-1] = values[-1] > values[-2] and values[-1] > values[0]
    return mask


def _main_lobe(curve: SpectrumCurve) -> tuple[int, int]:
    """Grid indices (left, right) where the descent from omega = 0 (through plateaus) ends."""
    values = curve.values
    zero = curve.grid.zero_index
    falls = np.flatnonzero(values[:zero] > values[1:zero + 1])
    rises = np.flatnonzero(values[zero + 1:] > values[zero:-1])
    left = int(falls[-1]) + 1 if len(falls) else 0
    right = zero + int(rises[0]) if len(rises) else len(values) - 1
    return left, right


def main_lobe_half_width(curve: SpectrumCurve) -> float:
    """Frequency of the first local minimum above omega = 0."""
    return float(curve.omega[_main_lobe(curve)[1]])


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


#: Costs of the two exact routes to a biased window, in ns, fitted at
#: G = 16384 and 2^20 on a 2-vCPU Xeon with numpy 2.4.  ``bias_biased``
#: gathers G/2 + 1 table entries per term, each with its index, arithmetic
#: and call overhead: about 30 us a gather at G = 16384.
#: ``_folded_window`` builds and folds the weight counts, about 70 ns a
#: lag at L = 10^6 (half that at L = 4*10^4, where they stay in cache), and
#: runs one real FFT.  Both routes slow about twofold per point at 2^20.
_GATHER_NS_PER_BIN = 3.0
_GATHER_NS = 5_000.0
_FOLD_NS_PER_LAG = 70.0
_FFT_NS_PER_POINT = 0.55
_FOLD_NS = 80_000.0


def _fft_work(size: int) -> float:
    """Work of one `size`-point FFT, size*log2(size) for a power of two.

    A radix-p pass costs about p per point, so a direct transform costs
    `size` times half the sum of its prime factors.  Where that sum is
    large numpy's pocketfft runs Bluestein's algorithm instead: 12 to 18
    times log2(size) per point at G = 4098, 12346 and 16386.
    """
    factors, rest, p = 0, size, 2
    while p * p <= rest:
        while rest % p == 0:
            factors, rest = factors + p, rest // p
        p += 1
    if rest > 1:
        factors += rest
    return size * min(factors / 2, 12 * log2(size))


def _fold_is_cheaper(pair: CoprimePair, range_kind: RangeKind, size: int) -> bool:
    """Whether ``_folded_window`` is expected to cost less than ``bias_biased``.

    ``bias_biased`` costs about ten gathers on the full range, whose terms
    carry the most arithmetic, and on the truncated ranges eight plus two
    for each of the N - 1 extension-cross runs; the fold's cost grows with
    the lag limit L and the FFT's with G.
    """
    gathers = 10 if range_kind is RangeKind.FULL else 2 * pair.N + 6
    closed = gathers * (_GATHER_NS_PER_BIN * (size // 2 + 1) + _GATHER_NS)
    fold = (_FOLD_NS_PER_LAG * lag_limit(pair, range_kind)
            + _FFT_NS_PER_POINT * _fft_work(size) + _FOLD_NS)
    return fold < closed


def _folded_window(pair: CoprimePair, range_kind: RangeKind, grid: FrequencyGrid) -> np.ndarray:
    """The biased window (s_b = 1) at k = G/2 ... G from its weight counts, by one real FFT.

    The counts are even, so lag l and its mirror -l fold onto one of the
    G/2 + 1 half bins, l mod G reflected about G/2, in O(L).  Raises
    ConsistencyError unless the value at omega = 0 matches the exact
    integer ``main_peak`` within the relative check bound.
    """
    counts = weight_closed_form(pair, range_kind).counts
    one_sided, size = counts.array[counts.limit:], grid.size
    bins = np.arange(len(one_sided)) % size
    np.minimum(bins, size - bins, out=bins)
    folded = np.bincount(bins[1:], one_sided[1:], size // 2 + 1)
    # Only at bins 0 and G/2 do l > 0 and -l fold onto the same bin.
    folded[[0, size // 2]] *= 2.0
    folded[0] += one_sided[0]
    half = _real_transform(folded, grid).take(np.arange(size // 2, size + 1), mode="wrap")
    peak = main_peak(pair, range_kind)
    check_residual("folded window at omega = 0", abs(half[0] - peak), peak)
    return half


def relative_amplitude(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid | int | None = None,
    s_b: float = 1.0,
) -> PeakReport:
    """Relative amplitude (P_m - P_s) / P_m of the biased window.

    P_m is the exact integer ``main_peak``; P_s is the largest side-lobe
    maximum of the window on [-pi, 0], and since the window is exactly even
    the positive half holds the same lobes.  Invariant to ``s_b``, which
    must be finite and positive, since both peaks scale identically.

    The window is sampled exactly on the grid by whichever route
    ``_fold_is_cheaper`` expects to cost less: ``bias_biased``, the closed
    form, or ``_folded_window``, the weight counts folded onto the half
    grid and one real FFT.  The two agree within about 1e-15 of P_m.  The
    fold is checked at omega = 0 against P_m and raises ConsistencyError on
    a mismatch.  At the default grid the fold takes the paper's table
    pairs on every range and the truncated ranges up to about (700, 701),
    where the closed form pays two gathers for each of the N - 1
    extension-cross runs; the closed form keeps the full range from
    (40, 41) on and every range from about (1000, 1001), where the O(L)
    counts cost more.  Finer grids move the crossover towards the fold.

    The side lobe is read off the grid (default 16384 points), so once the
    main lobe spans only a few grid steps it can be the wrong lobe: at
    (40, 41) on the continuous range the default grid reports R = 0.5844
    at omega = -0.3064, a 2^20-point grid 0.5829 at -0.1531.
    """
    pair = as_pair(pair)
    grid = as_grid(16384 if grid is None else grid)
    s_b = finite_positive("s_b", s_b)
    if _fold_is_cheaper(pair, range_kind, grid.size):
        curve = _mirrored(grid, _folded_window(pair, range_kind, grid) / s_b)
    else:
        curve = bias_biased(pair, range_kind, grid, s_b=s_b)
    peak_main = main_peak(pair, range_kind) / s_b
    omega_side, peak_side = side_lobe_peak(curve)
    ratio = (peak_main - peak_side) / peak_main
    return PeakReport(peak_main, peak_side, omega_side, ratio)


def window_term_curves(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid | int,
    s_b: float = 1.0,
) -> dict[str, SpectrumCurve]:
    """Per-term transforms of the weight window (direct transform of each term).

    The four curves sum to the biased window; emitted by the CLI so each
    term's contribution to the bias can be plotted separately.
    """
    pair = as_pair(pair)
    grid = as_grid(grid)
    curves = {}
    for name, term in weight_terms(pair, range_kind).items():
        # Only non-zero lags fold: self-M and self-N have O(M + N) of the range's O(MN).
        present = np.flatnonzero(term.array)
        curves[name] = _lag_transform(present - term.limit, term.array[present] / s_b, grid,
                                      "window transform")
    return curves
