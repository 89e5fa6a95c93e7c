"""Pair-count weight functions over the co-prime lag grid.

The weight ``z(l)`` is the number of ordered sample pairs whose position
difference is ``l`` within one snapshot.  It is computed three ways here:
by brute-force pair enumeration (the oracle), by summing the four
closed-form terms (self-M, self-N, base-cross, extension-cross), and by
direct case analysis at a single lag.  All arithmetic in this module is
exact integer arithmetic.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Mapping

from .errors import ConsistencyError, OutOfRangeError
from .pair import CoprimePair
from .sets import RangeKind, SetKind, _distinct_positions, difference_set, lag_limit


@dataclass(frozen=True)
class WeightFunction:
    """Map lag -> ordered-pair count over one lag range.

    `counts` covers every integer lag in ``[-limit, limit]`` for the range,
    with zeros at the holes of the full range.
    """

    pair: CoprimePair
    range_kind: RangeKind
    counts: Mapping[int, int]
    s_b: int = field(default=0)

    def __post_init__(self) -> None:
        if self.s_b == 0:
            object.__setattr__(self, "s_b", self.pair.sample_count)

    def __getitem__(self, lag: int) -> int:
        return self.counts.get(lag, 0)

    def total(self) -> int:
        return sum(self.counts.values())

    def lag_limit(self) -> int:
        return lag_limit(self.pair, self.range_kind)


@dataclass(frozen=True)
class UnbiasedWindow:
    """0/1 lag-availability indicator of the unbiased estimator's window."""

    pair: CoprimePair
    range_kind: RangeKind
    indicator: Mapping[int, int]

    def __getitem__(self, lag: int) -> int:
        return self.indicator.get(lag, 0)

    def total(self) -> int:
        return sum(self.indicator.values())


def _full_grid(pair: CoprimePair, range_kind: RangeKind, counts: Mapping[int, int]) -> dict[int, int]:
    limit = lag_limit(pair, range_kind)
    return {lag: counts.get(lag, 0) for lag in range(-limit, limit + 1)}


def weight_oracle(pair: CoprimePair, range_kind: RangeKind) -> WeightFunction:
    """Brute-force weight function: tally every ordered physical-sample pair.

    The two streams share the origin sample, so the tally runs over the
    2M + N - 1 distinct positions; the pair (origin, origin) is counted
    once.  Lags beyond the range limit are dropped.
    """
    positions = _distinct_positions(pair)
    tally = Counter(a - b for a in positions for b in positions)
    return WeightFunction(pair, range_kind, _full_grid(pair, range_kind, tally))


def _ext_cross_index_pairs(pair: CoprimePair, range_kind: RangeKind) -> list[tuple[int, int]]:
    """Index pairs (n, m) of the extension-cross term for the given range.

    The full range takes the whole rectangle n in [1, N-1], m in [M, 2M-1]
    minus its self-difference edges.  The truncated ranges bound one index
    by the other: for M > N the upper limit of m at each n, for N > M the
    lower limit of n at each m.  Both bounds solve the same inequality
    |M*n - N*m| <= limit, so either orientation enumerates the same set.
    """
    M, N = pair.M, pair.N
    if range_kind is RangeKind.FULL:
        return [(n, m) for n in range(1, N) for m in range(M + 1, 2 * M)]
    pairs = []
    if M > N:
        for n in range(1, N):
            if range_kind is RangeKind.CONTINUOUS:
                upper = (M * N + M + M * n - 1) // N
            else:
                upper = (M * N + M * n - 1) // N
            pairs.extend((n, m) for m in range(M + 1, upper + 1))
    else:
        for m in range(M + 1, 2 * M):
            numer = N * m + 1
            if range_kind is RangeKind.CONTINUOUS:
                lower = -(N + 1) + -(-numer // M)
            else:
                lower = -N + -(-numer // M)
            if lower < 1:
                raise ConsistencyError(f"extension-cross lower index {lower} < 1 at m={m}")
            pairs.extend((n, m) for n in range(lower, N))
    return pairs


def weight_terms(pair: CoprimePair, range_kind: RangeKind) -> dict[str, dict[int, int]]:
    """The four closed-form weight terms as lag -> count maps.

    ``self_m``: lags M*n with count N - |n| + 1 (the +1 absorbs the one
    cross pair landing on each self-M lag).  ``self_n``: lags N*m with
    count 2M - |m|, truncated to the range.  ``base_cross``: doubled
    interior cross lags of the first co-prime period, minus one at lag 0.
    ``ext_cross``: single contributors from the extension period, mirrored
    to both signs, minus one at lag 0.
    """
    M, N = pair.M, pair.N
    self_m: dict[int, int] = {}
    for n in range(-(N - 1), N):
        self_m[M * n] = N - abs(n) + 1

    if range_kind is RangeKind.FULL:
        m_limit = 2 * M - 1
    elif range_kind is RangeKind.CONTINUOUS:
        m_limit = (M * N + M - 1) // N
    else:
        m_limit = M - 1
    self_n: dict[int, int] = {}
    for m in range(-m_limit, m_limit + 1):
        self_n[N * m] = 2 * M - abs(m)

    base_cross: dict[int, int] = {0: -1}
    for n in range(1, N):
        for m in range(1, M):
            lag = M * n - N * m
            base_cross[lag] = base_cross.get(lag, 0) + 2

    ext_cross: dict[int, int] = {0: -1}
    for n, m in _ext_cross_index_pairs(pair, range_kind):
        magnitude = abs(M * n - N * m)
        ext_cross[magnitude] = ext_cross.get(magnitude, 0) + 1
        ext_cross[-magnitude] = ext_cross.get(-magnitude, 0) + 1

    return {
        "self_m": self_m,
        "self_n": self_n,
        "base_cross": base_cross,
        "ext_cross": ext_cross,
    }


def weight_closed_form(pair: CoprimePair, range_kind: RangeKind) -> WeightFunction:
    """Closed-form weight function: the sum of the four term maps."""
    combined: Counter[int] = Counter()
    for term in weight_terms(pair, range_kind).values():
        combined.update(term)
    return WeightFunction(pair, range_kind, _full_grid(pair, range_kind, combined))


def weight_at(pair: CoprimePair, lag: int) -> int:
    """Weight at a single lag by case analysis.

    Cases in order: the origin (2M + N - 1 pairs), self-M lags
    ((N - i) + 1 at l = +-M*i), self-N lags (2M - i at l = +-N*i), interior
    base-cross lags (2), extension-cross lags (1), holes (0).
    """
    M, N = pair.M, pair.N
    magnitude = abs(lag)
    if magnitude > pair.full_lag_limit:
        raise OutOfRangeError(
            f"|lag|={magnitude} exceeds the snapshot lag limit {pair.full_lag_limit}"
        )
    if magnitude == 0:
        return pair.sample_count
    if magnitude % M == 0 and magnitude // M <= N - 1:
        return (N - magnitude // M) + 1
    if magnitude % N == 0 and magnitude // N <= 2 * M - 1:
        return 2 * M - magnitude // N
    inverse = pow(M, -1, N)
    # Interior base-cross: magnitude = M*n - N*m with n in [1, N-1],
    # m in [1, M-1]; the set is symmetric so one sign suffices.
    n = (magnitude * inverse) % N
    if n >= 1:
        m, rem = divmod(M * n - magnitude, N)
        if rem == 0 and 1 <= m <= M - 1:
            return 2
    # Extension cross: magnitude = N*m - M*n with n in [1, N-1],
    # m in [M+1, 2M-1].
    n = (-magnitude * inverse) % N
    if n >= 1:
        m, rem = divmod(M * n + magnitude, N)
        if rem == 0 and M + 1 <= m <= 2 * M - 1:
            return 1
    return 0


def unbiased_window(pair: CoprimePair, range_kind: RangeKind) -> UnbiasedWindow:
    """Lag-availability indicator over the range.

    Identically 1 on the continuous and prototype ranges; on the full range
    the holes of the cross union set carry 0.
    """
    limit = lag_limit(pair, range_kind)
    if range_kind is RangeKind.FULL:
        achievable = difference_set(pair, SetKind.CROSS_UNION).multiplicity
        indicator = {
            lag: 1 if lag in achievable else 0 for lag in range(-limit, limit + 1)
        }
    else:
        indicator = {lag: 1 for lag in range(-limit, limit + 1)}
    return UnbiasedWindow(pair, range_kind, indicator)


def unbiased_window_closed_form(pair: CoprimePair) -> UnbiasedWindow:
    """Full-range availability indicator built from its five-term sum.

    Must coincide with :func:`unbiased_window`; the terms cover disjoint
    lag families, so the sum never exceeds 1.
    """
    M, N = pair.M, pair.N
    tally: Counter[int] = Counter({0: 1})
    for m in range(1, 2 * M):
        tally[N * m] += 1
        tally[-N * m] += 1
    for n in range(1, N):
        tally[M * n] += 1
        tally[-M * n] += 1
    for n in range(1, N):
        for m in range(1, M):
            tally[M * n - N * m] += 1
    for n in range(1, N):
        for m in range(M + 1, 2 * M):
            magnitude = N * m - M * n
            tally[magnitude] += 1
            tally[-magnitude] += 1
    return UnbiasedWindow(
        pair, RangeKind.FULL, _full_grid(pair, RangeKind.FULL, tally)
    )
