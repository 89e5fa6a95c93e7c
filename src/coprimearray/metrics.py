"""Variance factors and arithmetic-cost counts of the correlogram estimate."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterator

import numpy as np

from .errors import ConsistencyError, UnsupportedRegimeError
from .pair import CoprimePair, finite_nonnegative, finite_positive
from .sets import RangeKind, _distinct_positions, lag_limit
from .spectra import FrequencyGrid, SpectrumCurve, bias_biased, peak_value
from .weights import _difference_counts


@dataclass(frozen=True)
class VarianceReport:
    """Multiplier of sigma^4 in the correlogram variance at equal frequencies."""

    pair: CoprimePair
    range_kind: RangeKind
    s_b: float
    factor: float


class Scheme(Enum):
    """Autocorrelation estimation schemes whose arithmetic cost is counted."""

    PROTOTYPE_CONTINUOUS = "prototype-continuous"
    EXTENDED_FULL = "extended-full"
    EXTENDED_CONTINUOUS = "extended-continuous"
    EXTENDED_PROTOTYPE = "extended-prototype"


@dataclass(frozen=True)
class ComplexityReport:
    """Multiplication and addition counts for one estimation scheme.

    Counted over non-negative lags only (the autocorrelation is conjugate
    symmetric): one multiplication per contributing sample pair, one fewer
    addition than multiplications at each achievable lag.
    """

    scheme: Scheme
    multiplications: int
    additions: int


def variance_factor(
    pair: CoprimePair, range_kind: RangeKind, s_b: float | None = None
) -> VarianceReport:
    """Variance multiplier: the window's zero-frequency peak over s_b^2.

    Equals 1 for the full range at the default s_b = 2M + N - 1; the
    truncated ranges trade resolution for a smaller factor.
    """
    if s_b is None:
        s_b = float(pair.sample_count)
    s_b = finite_positive("s_b", s_b)
    factor = peak_value(pair.M, pair.N, range_kind) / (s_b * s_b)
    return VarianceReport(pair, range_kind, s_b, factor)


def covariance_curve(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid,
    sigma2: float,
    s_b: float | None = None,
) -> SpectrumCurve:
    """Correlogram covariance versus frequency separation, for white noise.

    The biased window re-read on the (omega_1 - omega_2) axis, scaled by
    sigma^4 / s_b^2; the window's own 1/s_b is held at 1 so the scale is
    applied exactly once.
    """
    sigma2 = finite_nonnegative("sigma2", sigma2)
    if s_b is None:
        s_b = float(pair.sample_count)
    s_b = finite_positive("s_b", s_b)
    window = bias_biased(pair, range_kind, grid, s_b=1.0)
    scale = sigma2 * sigma2 / (s_b * s_b)
    return SpectrumCurve(grid, window.values * scale)


def _cost_from_weights(counts: np.ndarray) -> tuple[int, int]:
    """Multiplications and additions from the pair counts at lags 0 ... limit."""
    multiplications = int(counts.sum())
    return multiplications, multiplications - int(np.count_nonzero(counts))


def _closed_form_cost(pair: CoprimePair, scheme: Scheme) -> tuple[int, int]:
    M, N = pair.M, pair.N
    if scheme is Scheme.EXTENDED_FULL:
        mult = (2 * M + N) * (2 * M + N - 1) // 2
        add = (4 * M * M + N * N + M * N - 3 * M - 1) // 2
        return mult, add
    if scheme is Scheme.EXTENDED_CONTINUOUS:
        extra = (M - 1) // N
        tail = sum((M + M * n - 1) // N for n in range(1, N)) - 1
        base = N * N + 3 * M * M + N - M + extra * (2 * M - 1 - extra)
        return (base + 2 * M * N + 2 * M) // 2 + tail, base // 2 + tail
    if scheme is Scheme.EXTENDED_PROTOTYPE:
        tail = sum((M * n - 1) // N for n in range(1, N)) - 1
        base = N * N + 3 * M * M + N - M
        return (base + 2 * M * N) // 2 + tail, base // 2 + tail
    # Prototype array over its continuous range; derived for M > N only.
    steps = (M + N - 1) // N
    shared = (steps + 1) * (2 * M - steps - 4) // 2
    return (2 * M + 4 * N - 4) + shared, (M + 3 * N - 4) + shared


def complexity(pair: CoprimePair, scheme: Scheme) -> ComplexityReport:
    """Closed-form cost counts, cross-checked against the weight-sum oracle.

    Raises UnsupportedRegimeError for the prototype-continuous scheme with
    M < N (the closed form is derived for M > N), and ConsistencyError if
    the closed form ever disagrees with the brute-force count.
    """
    if scheme is Scheme.PROTOTYPE_CONTINUOUS:
        if pair.M < pair.N:
            raise UnsupportedRegimeError(
                "prototype-continuous cost counts require M > N "
                f"(got M={pair.M}, N={pair.N})"
            )
        positions = _distinct_positions(pair, extended=False)
        limit = pair.M + pair.N - 1
    else:
        range_kind = {
            Scheme.EXTENDED_FULL: RangeKind.FULL,
            Scheme.EXTENDED_CONTINUOUS: RangeKind.CONTINUOUS,
            Scheme.EXTENDED_PROTOTYPE: RangeKind.PROTOTYPE,
        }[scheme]
        positions = _distinct_positions(pair)
        limit = lag_limit(pair, range_kind)
    mult, add = _closed_form_cost(pair, scheme)
    oracle_mult, oracle_add = _cost_from_weights(_difference_counts(positions, limit)[limit:])
    if (mult, add) != (oracle_mult, oracle_add):
        raise ConsistencyError(
            f"{scheme.value} cost formula gives ({mult}, {add}) but the "
            f"weight sums give ({oracle_mult}, {oracle_add}) for "
            f"(M, N)=({pair.M}, {pair.N})"
        )
    return ComplexityReport(scheme, mult, add)


def variance_sweep(
    max_m: int, max_n: int, unit_s_b: bool = False
) -> Iterator[tuple[int, int, bool, float, float]]:
    """Rows (M, N, coprime, continuous factor, prototype factor).

    Covers every pair 1 <= M <= max_m, 1 <= N <= max_n including
    non-co-prime ones; the factor formulas are plain arithmetic in (M, N),
    but only co-prime pairs carry the package's guarantees.
    """
    from math import gcd

    for M in range(1, max_m + 1):
        for N in range(1, max_n + 1):
            s_b = 1.0 if unit_s_b else float(2 * M + N - 1)
            yield (
                M,
                N,
                gcd(M, N) == 1,
                peak_value(M, N, RangeKind.CONTINUOUS) / (s_b * s_b),
                peak_value(M, N, RangeKind.PROTOTYPE) / (s_b * s_b),
            )
