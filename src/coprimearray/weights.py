"""Pair-count weight functions over the co-prime lag grid.

The weight ``z(l)`` is the number of ordered sample pairs whose position
difference is ``l`` within one snapshot.  It is computed two ways here:
by brute-force pair enumeration (the oracle), and by summing the four
closed-form terms (self-M, self-N, base-cross, extension-cross), whose
index runs end where ``sets._index_limits`` says for each lag range.
Every term, weight function and availability window is an int64 count
array over the range's lags, lag l at index l + limit, shown to callers
through a read-only lag -> count mapping.  All arithmetic in this module
is exact integer arithmetic.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterator, Mapping

import numpy as np

from .pair import CoprimePair, as_pair
from .sets import (RangeKind, SetKind, _cross_differences, _distinct_positions, _index_limits,
                   _lag_counts, lag_limit)


class _LagCounts(Mapping[int, int]):
    """Read-only lag -> count view of an int64 array over every lag in [-limit, limit].

    Lag l sits at ``array[l + limit]``; lags outside the range are not keys.
    Compares equal to a dict holding the same lags and counts.
    """

    def __init__(self, array: np.ndarray) -> None:
        self.array = np.asarray(array, dtype=np.int64)
        self.array.flags.writeable = False
        self.limit = (len(self.array) - 1) // 2

    @property
    def lags(self) -> np.ndarray:
        """Every key in order, -limit ... limit."""
        return np.arange(-self.limit, self.limit + 1)

    def __getitem__(self, lag: int) -> int:
        try:
            index = operator.index(lag) + self.limit
        except TypeError:
            raise KeyError(lag) from None
        if not 0 <= index < len(self.array):
            raise KeyError(lag)
        return int(self.array[index])

    def __iter__(self) -> Iterator[int]:
        return iter(range(-self.limit, self.limit + 1))

    def __len__(self) -> int:
        return len(self.array)


@dataclass(frozen=True)
class WeightFunction:
    """Map lag -> ordered-pair count over one lag range.

    `counts` is a read-only mapping over every integer lag in ``[-limit,
    limit]`` for the range, with zeros at the holes of the full range.
    """

    pair: CoprimePair
    range_kind: RangeKind
    counts: _LagCounts

    def __getitem__(self, lag: int) -> int:
        return self.counts.get(lag, 0)

    def total(self) -> int:
        return int(self.counts.array.sum())

    def lag_limit(self) -> int:
        return lag_limit(self.pair, self.range_kind)


@dataclass(frozen=True)
class UnbiasedWindow:
    """0/1 lag-availability indicator of the unbiased estimator's window.

    `indicator` is a read-only mapping over every integer lag of the range.
    """

    pair: CoprimePair
    range_kind: RangeKind
    indicator: _LagCounts

    def __getitem__(self, lag: int) -> int:
        return self.indicator.get(lag, 0)

    def total(self) -> int:
        return int(self.indicator.array.sum())


def _difference_counts(positions: list[int], limit: int) -> np.ndarray:
    """Ordered position pairs per difference l in [-limit, limit], at index l + limit.

    The brute-force pair enumeration behind the weight oracles: the full
    matrix of position differences, tallied with one bincount.
    """
    points = np.asarray(positions, dtype=np.int64)
    shifted = np.subtract.outer(points + limit, points).ravel()
    return np.bincount(shifted[(shifted >= 0) & (shifted <= 2 * limit)], minlength=2 * limit + 1)


def weight_oracle(pair: CoprimePair, range_kind: RangeKind) -> WeightFunction:
    """Brute-force weight function: tally every ordered physical-sample pair.

    The two streams share the origin sample, so the tally runs over the
    2M + N - 1 distinct positions; the pair (origin, origin) is counted
    once.  Lags beyond the range limit are dropped.
    """
    pair = as_pair(pair)
    limit = lag_limit(pair, range_kind)
    tally = _difference_counts(_distinct_positions(pair), limit)
    return WeightFunction(pair, range_kind, _LagCounts(tally))


def _ext_cross_index_pairs(pair: CoprimePair, range_kind: RangeKind) -> tuple[np.ndarray, ...]:
    """Index arrays (n, m) of the extension-cross term for the given range.

    n runs over [1, N-1] and m from M + 1 (m = M is a self-M lag) to the
    range's last index at that n, ``sets._index_limits``.
    """
    _, uppers = _index_limits(pair, range_kind)
    m = np.arange(pair.M + 1, 2 * pair.M)
    n, column = np.nonzero(m <= np.array(uppers)[:, None])
    return n + 1, m[column]


def weight_terms(pair: CoprimePair, range_kind: RangeKind) -> dict[str, _LagCounts]:
    """The four closed-form weight terms as read-only lag -> count maps.

    Each map covers every lag of the range, zeros included.  ``self_m``:
    lags M*n with count N - |n| + 1 (the +1 absorbs the one cross pair
    landing on each self-M lag).  ``self_n``: lags N*m with count
    2M - |m|, truncated to the range.  ``base_cross``: doubled interior
    cross lags of the first co-prime period, minus one at lag 0.
    ``ext_cross``: single contributors from the extension period, mirrored
    to both signs, minus one at lag 0.
    """
    pair = as_pair(pair)
    M, N = pair.M, pair.N
    limit = lag_limit(pair, range_kind)
    size = 2 * limit + 1

    n = np.arange(-(N - 1), N)
    self_m = np.zeros(size, dtype=np.int64)
    self_m[M * n + limit] = N - np.abs(n) + 1

    m_limit, _ = _index_limits(pair, range_kind)
    m = np.arange(-m_limit, m_limit + 1)
    self_n = np.zeros(size, dtype=np.int64)
    self_n[N * m + limit] = 2 * M - np.abs(m)

    differences = _cross_differences(pair)
    base_cross = 2 * np.bincount(differences[1:, 1:M].ravel() + limit, minlength=size)
    base_cross[limit] -= 1

    magnitudes = -differences[_ext_cross_index_pairs(pair, range_kind)]
    ext_cross = np.bincount(limit + magnitudes, minlength=size)
    ext_cross += np.bincount(limit - magnitudes, minlength=size)
    ext_cross[limit] -= 1

    return {
        "self_m": _LagCounts(self_m),
        "self_n": _LagCounts(self_n),
        "base_cross": _LagCounts(base_cross),
        "ext_cross": _LagCounts(ext_cross),
    }


def weight_closed_form(pair: CoprimePair, range_kind: RangeKind) -> WeightFunction:
    """Closed-form weight function: the sum of the four term arrays."""
    pair = as_pair(pair)
    total = sum(term.array for term in weight_terms(pair, range_kind).values())
    return WeightFunction(pair, range_kind, _LagCounts(total))


def unbiased_window(pair: CoprimePair, range_kind: RangeKind) -> UnbiasedWindow:
    """Lag-availability indicator over the range.

    Identically 1 on the continuous and prototype ranges; on the full range
    it is the presence array of the cross union set, 0 at its holes.
    """
    pair = as_pair(pair)
    if range_kind is RangeKind.FULL:
        indicator = _lag_counts(pair, SetKind.CROSS_UNION)
    else:
        indicator = np.ones(2 * lag_limit(pair, range_kind) + 1, dtype=np.int64)
    return UnbiasedWindow(pair, range_kind, _LagCounts(indicator))
