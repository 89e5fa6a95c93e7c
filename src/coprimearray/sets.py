"""Lag (difference) sets generated by the extended co-prime sampling grid.

The two sample streams sit at positions ``{M*n : 0 <= n < N}`` and
``{N*m : 0 <= m < 2M}``.  Their self and cross differences form a family of
named integer sets, all read off one enumeration, the cross-difference
matrix ``D[n, m] = M*n - N*m`` (m < M for the prototype array).  Each set
is stored as an int64 count array over [-(2MN-1), 2MN-1], lag l at index
l + 2MN - 1.  This module enumerates the sets, exposes their closed-form
cardinalities, and verifies the structural facts the rest of the package
relies on (coverage, hole locations, sign patterns) on those arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

import numpy as np

from .errors import OutOfRangeError
from .pair import CoprimePair, as_pair, exact_int


class SetKind(Enum):
    """The named lag sets of the extended co-prime geometry.

    ``SELF_*`` kinds collect differences within one stream, ``CROSS_*``
    between streams.  The cross set splits into a base part (``BASE_*``,
    the first co-prime period of the N-spaced stream) and an extension part
    (``EXT_*``, its second period).
    """

    SELF_M_POS = "SM+"
    SELF_M_NEG = "SM-"
    SELF_N_POS = "SN+"
    SELF_N_NEG = "SN-"
    SELF_POS = "S+"
    SELF_NEG = "S-"
    SELF_UNION = "S"
    CROSS_POS = "C+"
    CROSS_NEG = "C-"
    CROSS_UNION = "C"
    BASE_CROSS_POS = "A+"
    BASE_CROSS_NEG = "A-"
    EXT_CROSS_POS = "B+"
    EXT_CROSS_NEG = "B-"


#: Kinds formed as unions of other kinds; they report presence only
#: (multiplicity 1 per distinct lag).  Contributor counting is the job of
#: :mod:`coprimearray.weights`.
UNION_KINDS = frozenset(
    {
        SetKind.SELF_POS,
        SetKind.SELF_NEG,
        SetKind.SELF_UNION,
        SetKind.CROSS_UNION,
    }
)


class RangeKind(Enum):
    """Lag-range selections used throughout the package.

    FULL spans every lag of one snapshot (|l| <= 2MN - 1, with holes),
    CONTINUOUS the hole-free stretch (|l| <= MN + M - 1), and PROTOTYPE a
    single co-prime period (|l| <= MN - 1).
    """

    FULL = "full"
    CONTINUOUS = "continuous"
    PROTOTYPE = "prototype"


def as_range_kind(value: RangeKind | str) -> RangeKind:
    """Coerce a RangeKind or its string name ('full', 'continuous', 'prototype')."""
    if isinstance(value, RangeKind):
        return value
    try:
        return RangeKind(str(value).lower())
    except ValueError:
        choices = ", ".join(kind.value for kind in RangeKind)
        raise OutOfRangeError(f"unknown lag range {value!r}; choose one of {choices}") from None


def lag_limit(pair: CoprimePair, range_kind: RangeKind) -> int:
    """Largest lag magnitude covered by `range_kind`."""
    pair = as_pair(pair)
    if range_kind is RangeKind.FULL:
        return pair.full_lag_limit
    if range_kind is RangeKind.CONTINUOUS:
        return pair.continuous_lag_limit
    if range_kind is RangeKind.PROTOTYPE:
        return pair.prototype_lag_limit
    raise OutOfRangeError(f"range_kind must be a RangeKind, got {range_kind!r}")


def _index_limits(pair: CoprimePair, range_kind: RangeKind) -> tuple[int, list[int]]:
    """Last indices of the index runs that stay within `range_kind`.

    Returns ``(K, uppers)``: K is the last self-N index m with
    N*m <= limit, and ``uppers[n - 1]`` the last extension-cross index m
    with N*m - M*n <= limit, for n = 1 ... N-1.  Both solve |lag| <= limit
    and stop at the second stream's last sample, m = 2M - 1.
    """
    limit = lag_limit(pair, range_kind)
    last = 2 * pair.M - 1
    return (
        min(last, limit // pair.N),
        [min(last, (limit + pair.M * n) // pair.N) for n in range(1, pair.N)],
    )


@dataclass(frozen=True)
class DifferenceSet:
    """A named lag set: sorted distinct lags plus generator multiplicities.

    For elementary kinds the multiplicity of a lag is the number of index
    tuples in the defining enumeration that produce it (always 1 here, a
    consequence of co-primality, but computed rather than assumed).  Union
    kinds record presence only.
    """

    kind: SetKind
    lags: tuple[int, ...]
    multiplicity: Mapping[int, int]

    def __contains__(self, lag: int) -> bool:
        return lag in self.multiplicity

    def __len__(self) -> int:
        return len(self.lags)


def sampler_positions(pair: CoprimePair, extended: bool = True) -> tuple[list[int], list[int]]:
    """Sample positions of the two streams over one snapshot.

    Returns ``({M*n : 0 <= n < N}, {N*m : 0 <= m < 2M})`` as sorted lists.
    With ``extended=False`` the second stream covers one co-prime period,
    ``{N*m : 0 <= m < M}``: the prototype (single-period) array.  The
    origin belongs to both streams, so the union has 2M + N - 1 distinct
    positions (M + N - 1 for the prototype).
    """
    pair = as_pair(pair)
    periods = 2 if extended else 1
    return (
        [pair.M * n for n in range(pair.N)],
        [pair.N * m for m in range(periods * pair.M)],
    )


def _distinct_positions(pair: CoprimePair, extended: bool = True) -> list[int]:
    """Sorted union of both streams' positions; the origin appears once."""
    first, second = sampler_positions(pair, extended)
    return sorted(set(first) | set(second))


def _cross_differences(pair: CoprimePair, extended: bool = True) -> np.ndarray:
    """The one enumeration of lags: D[n, m] = M*n - N*m, 0 <= n < N, 0 <= m < 2M.

    The first stream's positions minus the second's; with ``extended=False``
    m stops at M, the prototype array.  Every named set is a block of +D or
    -D: self-M is column 0, self-N row 0 negated, and the base and extension
    cross parts the first and last M columns.
    """
    first, second = sampler_positions(pair, extended)
    return np.subtract.outer(np.array(first, dtype=np.int64), np.array(second, dtype=np.int64))


_UNION_PARTS = {
    SetKind.SELF_POS: (SetKind.SELF_M_POS, SetKind.SELF_N_POS),
    SetKind.SELF_NEG: (SetKind.SELF_M_NEG, SetKind.SELF_N_NEG),
    SetKind.SELF_UNION: (SetKind.SELF_M_POS, SetKind.SELF_N_POS,
                         SetKind.SELF_M_NEG, SetKind.SELF_N_NEG),
    SetKind.CROSS_UNION: (SetKind.CROSS_POS, SetKind.CROSS_NEG),
}


def _check_set_kind(kind: SetKind) -> SetKind:
    """`kind` itself; a name, None or any other non-SetKind raises OutOfRangeError."""
    if not isinstance(kind, SetKind):
        raise OutOfRangeError(f"kind must be a SetKind, got {kind!r}")
    return kind


def _lag_counts(pair: CoprimePair, kind: SetKind, extended: bool = True) -> np.ndarray:
    """Multiplicity of every lag of the named set, lag l at index l + 2MN - 1.

    One bincount of the set's blocks of +-D over [-(2MN-1), 2MN-1]; union
    kinds hold presence (0 or 1).
    """
    differences = _cross_differences(pair, extended)
    # An elementary kind's tag names its block of D, then its sign.
    blocks = {"SM": differences[:, 0], "SN": -differences[0], "C": differences,
              "A": differences[:, :pair.M], "B": differences[:, pair.M:]}
    lags = [blocks[part.value[:-1]].ravel() * (-1 if part.value[-1] == "-" else 1)
            for part in _UNION_PARTS.get(kind, (kind,))]
    limit = pair.full_lag_limit
    counts = np.bincount(np.concatenate(lags) + limit, minlength=2 * limit + 1)
    return np.minimum(counts, 1) if kind in UNION_KINDS else counts


def difference_set(pair: CoprimePair, kind: SetKind, extended: bool = True) -> DifferenceSet:
    """Enumerate the named lag set exhaustively over its index ranges.

    With ``extended=False`` the sets are those of the prototype array
    (``sampler_positions``), whose extension cross parts are empty.
    Raises OutOfRangeError if `kind` is not a SetKind.
    """
    pair = as_pair(pair)
    counts = _lag_counts(pair, _check_set_kind(kind), extended)
    members = np.flatnonzero(counts)
    lags = (members - pair.full_lag_limit).tolist()
    return DifferenceSet(kind, tuple(lags), dict(zip(lags, counts[members].tolist())))


def dof(pair: CoprimePair, kind: SetKind, extended: bool = True) -> int:
    """Closed-form count of distinct lags in the named set.

    With ``extended=False``, of the prototype array's set.  Raises
    OutOfRangeError if `kind` is not a SetKind.
    """
    pair = as_pair(pair)
    kind = _check_set_kind(kind)
    M, N = pair.M, pair.N
    second = 2 * M if extended else M  # samples of the N-spaced stream
    if kind in (SetKind.SELF_M_POS, SetKind.SELF_M_NEG):
        return N
    if kind in (SetKind.SELF_N_POS, SetKind.SELF_N_NEG):
        return second
    if kind in (SetKind.SELF_POS, SetKind.SELF_NEG):
        return second + N - 1
    if kind is SetKind.SELF_UNION:
        return 2 * (second + N - 1) - 1
    if kind in (SetKind.CROSS_POS, SetKind.CROSS_NEG):
        return second * N
    if kind is SetKind.CROSS_UNION:
        return 3 * M * N + M - N if extended else M * N + M + N - 2
    if kind in (SetKind.EXT_CROSS_POS, SetKind.EXT_CROSS_NEG) and not extended:
        return 0
    # Base and extension cross parts each carry one co-prime period of
    # distinct values.
    return M * N


def holes(pair: CoprimePair, upto: int) -> list[int]:
    """Sorted non-negative lags <= `upto` missing from the cross union set.

    Empty whenever `upto` stays within the hole-free stretch.  `upto` must
    be a non-negative integer; bools and non-integral values raise.
    """
    pair = as_pair(pair)
    upto = exact_int("upto", upto)
    if upto < 0:
        raise OutOfRangeError(f"upto must be non-negative, got {upto}")
    limit = pair.full_lag_limit
    if upto > limit:
        raise OutOfRangeError(f"upto={upto} exceeds the snapshot lag limit {limit}")
    present = _lag_counts(pair, SetKind.CROSS_UNION)[limit:limit + upto + 1]
    return np.flatnonzero(present == 0).tolist()


@dataclass(frozen=True)
class ClauseCheck:
    """Outcome of one structural clause, with a witness lag on failure."""

    name: str
    passed: bool
    counterexample: int | None = None


@dataclass(frozen=True)
class StructureReport:
    """Per-clause verification of the lag-set structure of a pair."""

    pair: CoprimePair
    clauses: tuple[ClauseCheck, ...]

    @property
    def all_passed(self) -> bool:
        return all(clause.passed for clause in self.clauses)

    def failures(self) -> list[ClauseCheck]:
        return [clause for clause in self.clauses if not clause.passed]


def verify_structure(pair: CoprimePair) -> StructureReport:
    """Check every structural claim about the lag sets by enumeration.

    Covers the extent and contiguity of the cross sets, the location of the
    first hole, the sign split of the extension cross parts, and the
    containment of the self differences in them.  Each clause runs on the
    sets' presence arrays, and a failing clause reports its smallest
    breaking lag.
    """
    pair = as_pair(pair)
    M, N = pair.M, pair.N
    limit = pair.full_lag_limit
    run = pair.continuous_lag_limit
    kinds = (SetKind.CROSS_POS, SetKind.CROSS_NEG, SetKind.CROSS_UNION,
             SetKind.EXT_CROSS_POS, SetKind.EXT_CROSS_NEG)
    present = {kind: _lag_counts(pair, kind) > 0 for kind in kinds}

    def span(lo: int, hi: int) -> np.ndarray:
        return np.arange(lo, hi + 1)

    def first(kind: SetKind, lags: np.ndarray, presence: bool) -> int | None:
        """The first of the sorted `lags` whose presence in `kind` is `presence`."""
        hits = lags[present[kind][lags + limit] == presence]
        return int(hits[0]) if len(hits) else None

    def clause(name: str, *witnesses: int | None) -> ClauseCheck:
        bad = next((lag for lag in witnesses if lag is not None), None)
        return ClauseCheck(name, bad is None, bad)

    def extent(name: str, kind: SetKind, lo: int, hi: int, count: int) -> ClauseCheck:
        outside = first(kind, np.concatenate((span(-limit, lo - 1), span(hi + 1, limit))), True)
        ends = present[kind][lo + limit] and present[kind][hi + limit]
        ok = outside is None and ends and np.count_nonzero(present[kind]) == count
        return ClauseCheck(name, bool(ok), outside)

    ext_pos, ext_neg = SetKind.EXT_CROSS_POS, SetKind.EXT_CROSS_NEG
    self_m = M * span(1, N - 1)
    tail = N * span(M, 2 * M - 1)
    clauses = (
        extent("cross_pos_extent", SetKind.CROSS_POS, -N * (2 * M - 1), M * (N - 1), 2 * M * N),
        extent("cross_neg_extent", SetKind.CROSS_NEG, -M * (N - 1), N * (2 * M - 1), 2 * M * N),
        clause("cross_pos_run", first(SetKind.CROSS_POS, span(-run, N - 1), False)),
        clause("cross_neg_run", first(SetKind.CROSS_NEG, span(-(N - 1), run), False)),
        clause("cross_union_run", first(SetKind.CROSS_UNION, span(-run, run), False),
               first(SetKind.CROSS_UNION, np.array([-(run + 1), run + 1]), True)),
        clause("ext_cross_sign_split",
               first(ext_pos, span(0, limit), True), first(ext_neg, span(-limit, 0), True)),
        # -self_m lies in the positive extension cross part, self_m in the negative one.
        clause("self_m_in_ext_cross",
               first(ext_pos, -self_m[::-1], False), first(ext_neg, self_m, False)),
        clause("self_n_tail_in_ext_cross",
               first(ext_pos, -tail[::-1], False), first(ext_neg, tail, False)),
    )
    return StructureReport(pair, clauses)
