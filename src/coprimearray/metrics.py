"""Variance factors and arithmetic-cost counts of the correlogram estimate."""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from math import gcd
from typing import Iterator

import numpy as np

from .errors import ConsistencyError, OutOfRangeError, UnsupportedRegimeError
from .pair import CoprimePair, as_pair, check_positive_int, finite_nonnegative, finite_positive
from .sets import RangeKind, SetKind, _distinct_positions, dof, lag_limit
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
    pair = as_pair(pair)
    if s_b is None:
        s_b = float(pair.sample_count)
    s_b = finite_positive("s_b", s_b)
    factor = peak_value(pair.M, pair.N, range_kind) / (s_b * s_b)
    return VarianceReport(pair, range_kind, s_b, factor)


def covariance_curve(
    pair: CoprimePair,
    range_kind: RangeKind,
    grid: FrequencyGrid | int,
    sigma2: float,
    s_b: float | None = None,
) -> SpectrumCurve:
    """Correlogram covariance versus frequency separation, for white noise.

    The biased window re-read on the (omega_1 - omega_2) axis, scaled by
    sigma^4 / s_b^2; the window's own 1/s_b is held at 1 so the scale is
    applied exactly once.
    """
    pair = as_pair(pair)
    sigma2 = finite_nonnegative("sigma2", sigma2)
    if s_b is None:
        s_b = float(pair.sample_count)
    s_b = finite_positive("s_b", s_b)
    window = bias_biased(pair, range_kind, grid, s_b=1.0)
    scale = sigma2 * sigma2 / (s_b * s_b)
    return SpectrumCurve(window.grid, window.values * scale)


def _cost_from_weights(counts: np.ndarray) -> tuple[int, int]:
    """Multiplications and additions from the pair counts at lags 0 ... limit."""
    multiplications = int(counts.sum())
    return multiplications, multiplications - int(np.count_nonzero(counts))


def _closed_form_cost(pair: CoprimePair, range_kind: RangeKind) -> tuple[int, int]:
    """Multiplications and additions of the extended array at lags 0 ... limit.

    z is symmetric with z(0) = 2M + N - 1, so those lags carry half the
    weight sum plus the zero-lag pairs; each of the (A + 1)/2 available lags
    among them takes one fewer addition than multiplications, where A
    counts the available lags with |l| <= limit: the cross union on the
    full range, every lag on the hole-free truncated ranges.
    """
    mult = (peak_value(pair.M, pair.N, range_kind) + pair.sample_count) // 2
    if range_kind is RangeKind.FULL:
        available = dof(pair, SetKind.CROSS_UNION)
    else:
        available = 2 * lag_limit(pair, range_kind) + 1
    return mult, mult - (available + 1) // 2


def complexity(pair: CoprimePair, scheme: Scheme) -> ComplexityReport:
    """Closed-form cost counts, cross-checked against the weight-sum oracle.

    Raises OutOfRangeError if `scheme` is not a Scheme,
    UnsupportedRegimeError for the prototype-continuous scheme with M < N
    (the closed form is derived for M > N), and ConsistencyError if the
    closed form ever disagrees with the brute-force count.
    """
    pair = as_pair(pair)
    if not isinstance(scheme, Scheme):
        raise OutOfRangeError(f"scheme must be a Scheme, got {scheme!r}")
    M, N = pair.M, pair.N
    if scheme is Scheme.PROTOTYPE_CONTINUOUS:
        if M < N:
            raise UnsupportedRegimeError(
                f"prototype-continuous cost counts require M > N (got M={M}, N={N})"
            )
        positions = _distinct_positions(pair, extended=False)
        limit = M + N - 1
        # The prototype array counts other pairs, so it keeps its own closed form.
        steps = (M + N - 1) // N
        shared = (steps + 1) * (2 * M - steps - 4) // 2
        mult, add = (2 * M + 4 * N - 4) + shared, (M + 3 * N - 4) + shared
    else:
        range_kind = {
            Scheme.EXTENDED_FULL: RangeKind.FULL,
            Scheme.EXTENDED_CONTINUOUS: RangeKind.CONTINUOUS,
            Scheme.EXTENDED_PROTOTYPE: RangeKind.PROTOTYPE,
        }[scheme]
        positions = _distinct_positions(pair)
        limit = lag_limit(pair, range_kind)
        mult, add = _closed_form_cost(pair, range_kind)
    oracle_mult, oracle_add = _cost_from_weights(_difference_counts(positions, limit)[limit:])
    if (mult, add) != (oracle_mult, oracle_add):
        raise ConsistencyError(
            f"{scheme.value} cost formula gives ({mult}, {add}) but the "
            f"weight sums give ({oracle_mult}, {oracle_add}) for "
            f"(M, N)=({M}, {N})"
        )
    return ComplexityReport(scheme, mult, add)


def variance_sweep(
    max_m: int, max_n: int, unit_s_b: bool = False
) -> Iterator[tuple[int, int, bool, float, float]]:
    """Rows (M, N, coprime, continuous factor, prototype factor).

    Covers every pair 1 <= M <= max_m, 1 <= N <= max_n including
    non-co-prime ones; the factor formulas are plain arithmetic in (M, N),
    but only co-prime pairs carry the package's guarantees.  Both bounds
    must be positive integers, checked at the call.
    """
    max_m = check_positive_int("max_m", max_m)
    max_n = check_positive_int("max_n", max_n)

    def rows() -> Iterator[tuple[int, int, bool, float, float]]:
        for M in range(1, max_m + 1):
            for N in range(1, max_n + 1):
                s_b2 = 1.0 if unit_s_b else float(2 * M + N - 1) ** 2
                yield (M, N, gcd(M, N) == 1, peak_value(M, N, RangeKind.CONTINUOUS) / s_b2,
                       peak_value(M, N, RangeKind.PROTOTYPE) / s_b2)

    return rows()
