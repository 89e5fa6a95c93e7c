"""Lag (difference) sets generated by the extended co-prime sampling grid.

The two sample streams sit at positions ``{M*n : 0 <= n < N}`` and
``{N*m : 0 <= m < 2M}``.  Their self and cross differences form a family of
named integer sets; this module enumerates them, exposes their closed-form
cardinalities, and verifies the structural facts the rest of the package
relies on (coverage, hole locations, sign patterns).
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Mapping

from .errors import OutOfRangeError
from .pair import CoprimePair, exact_int


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


def lag_limit(pair: CoprimePair, range_kind: RangeKind) -> int:
    """Largest lag magnitude covered by `range_kind`."""
    if range_kind is RangeKind.FULL:
        return pair.full_lag_limit
    if range_kind is RangeKind.CONTINUOUS:
        return pair.continuous_lag_limit
    return pair.prototype_lag_limit


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
    periods = 2 if extended else 1
    return (
        [pair.M * n for n in range(pair.N)],
        [pair.N * m for m in range(periods * pair.M)],
    )


def _distinct_positions(pair: CoprimePair, extended: bool = True) -> list[int]:
    """Sorted union of both streams' positions; the origin appears once."""
    first, second = sampler_positions(pair, extended)
    return sorted(set(first) | set(second))


def _elementary_lags(pair: CoprimePair, kind: SetKind) -> Iterator[int]:
    M, N = pair.M, pair.N
    if kind is SetKind.SELF_M_POS:
        return (M * n for n in range(N))
    if kind is SetKind.SELF_M_NEG:
        return (-M * n for n in range(N))
    if kind is SetKind.SELF_N_POS:
        return (N * m for m in range(2 * M))
    if kind is SetKind.SELF_N_NEG:
        return (-N * m for m in range(2 * M))
    if kind is SetKind.CROSS_POS:
        return (M * n - N * m for n in range(N) for m in range(2 * M))
    if kind is SetKind.CROSS_NEG:
        return (N * m - M * n for n in range(N) for m in range(2 * M))
    if kind is SetKind.BASE_CROSS_POS:
        return (M * n - N * m for n in range(N) for m in range(M))
    if kind is SetKind.BASE_CROSS_NEG:
        return (N * m - M * n for n in range(N) for m in range(M))
    if kind is SetKind.EXT_CROSS_POS:
        return (M * n - N * m for n in range(N) for m in range(M, 2 * M))
    if kind is SetKind.EXT_CROSS_NEG:
        return (N * m - M * n for n in range(N) for m in range(M, 2 * M))
    raise ValueError(f"{kind} is not an elementary kind")


_UNION_PARTS = {
    SetKind.SELF_POS: (SetKind.SELF_M_POS, SetKind.SELF_N_POS),
    SetKind.SELF_NEG: (SetKind.SELF_M_NEG, SetKind.SELF_N_NEG),
    SetKind.SELF_UNION: (
        SetKind.SELF_M_POS,
        SetKind.SELF_N_POS,
        SetKind.SELF_M_NEG,
        SetKind.SELF_N_NEG,
    ),
    SetKind.CROSS_UNION: (SetKind.CROSS_POS, SetKind.CROSS_NEG),
}


def difference_set(pair: CoprimePair, kind: SetKind) -> DifferenceSet:
    """Enumerate the named lag set exhaustively over its index ranges."""
    if kind in UNION_KINDS:
        members: set[int] = set()
        for part in _UNION_PARTS[kind]:
            members.update(_elementary_lags(pair, part))
        multiplicity = {lag: 1 for lag in sorted(members)}
    else:
        multiplicity = dict(sorted(Counter(_elementary_lags(pair, kind)).items()))
    return DifferenceSet(kind, tuple(multiplicity), multiplicity)


def dof(pair: CoprimePair, kind: SetKind) -> int:
    """Closed-form count of distinct lags in the named set."""
    M, N = pair.M, pair.N
    if kind in (SetKind.SELF_M_POS, SetKind.SELF_M_NEG):
        return N
    if kind in (SetKind.SELF_N_POS, SetKind.SELF_N_NEG):
        return 2 * M
    if kind in (SetKind.SELF_POS, SetKind.SELF_NEG):
        return 2 * M + N - 1
    if kind is SetKind.SELF_UNION:
        return 2 * (2 * M + N - 1) - 1
    if kind in (SetKind.CROSS_POS, SetKind.CROSS_NEG):
        return 2 * M * N
    if kind is SetKind.CROSS_UNION:
        return 3 * M * N + M - N
    # Base and extension cross parts each carry one co-prime period of
    # distinct values.
    return M * N


def continuous_bounds(pair: CoprimePair) -> tuple[int, int]:
    """End points of the hole-free lag stretch, (-(MN+M-1), MN+M-1)."""
    limit = pair.continuous_lag_limit
    return (-limit, limit)


def holes(pair: CoprimePair, upto: int) -> list[int]:
    """Sorted non-negative lags <= `upto` missing from the cross union set.

    Empty whenever `upto` stays within the hole-free stretch.  `upto` must
    be a non-negative integer; bools and non-integral values raise.
    """
    upto = exact_int("upto", upto)
    if upto < 0:
        raise OutOfRangeError(f"upto must be non-negative, got {upto}")
    if upto > pair.full_lag_limit:
        raise OutOfRangeError(
            f"upto={upto} exceeds the snapshot lag limit {pair.full_lag_limit}"
        )
    achievable = difference_set(pair, SetKind.CROSS_UNION).multiplicity
    return [lag for lag in range(upto + 1) if lag not in achievable]


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


def _coverage_clause(name: str, members: set[int], lo: int, hi: int) -> ClauseCheck:
    for lag in range(lo, hi + 1):
        if lag not in members:
            return ClauseCheck(name, False, lag)
    return ClauseCheck(name, True)


def _subset_clause(name: str, small: set[int], big: set[int]) -> ClauseCheck:
    missing = sorted(small - big)
    if missing:
        return ClauseCheck(name, False, missing[0])
    return ClauseCheck(name, True)


def verify_structure(pair: CoprimePair) -> StructureReport:
    """Check every structural claim about the lag sets by enumeration.

    Covers the extent and contiguity of the cross sets, the location of the
    first hole, the sign split of the extension cross parts, and the
    containment of the self differences in them.
    """
    M, N = pair.M, pair.N
    cross_pos = set(difference_set(pair, SetKind.CROSS_POS).lags)
    cross_neg = set(difference_set(pair, SetKind.CROSS_NEG).lags)
    cross_union = cross_pos | cross_neg
    ext_pos = set(difference_set(pair, SetKind.EXT_CROSS_POS).lags)
    ext_neg = set(difference_set(pair, SetKind.EXT_CROSS_NEG).lags)
    run = pair.continuous_lag_limit

    clauses = []

    def extent(name: str, members: set[int], lo: int, hi: int, count: int) -> None:
        bad = next((lag for lag in members if not lo <= lag <= hi), None)
        ok = bad is None and len(members) == count and min(members) == lo and max(members) == hi
        clauses.append(ClauseCheck(name, ok, bad))

    extent("cross_pos_extent", cross_pos, -N * (2 * M - 1), M * (N - 1), 2 * M * N)
    extent("cross_neg_extent", cross_neg, -M * (N - 1), N * (2 * M - 1), 2 * M * N)
    clauses.append(_coverage_clause("cross_pos_run", cross_pos, -run, N - 1))
    clauses.append(_coverage_clause("cross_neg_run", cross_neg, -(N - 1), run))

    covered = _coverage_clause("cross_union_run", cross_union, -run, run)
    if covered.passed and (run + 1 in cross_union or -(run + 1) in cross_union):
        covered = ClauseCheck("cross_union_run", False, run + 1)
    clauses.append(covered)

    bad_sign = next((lag for lag in ext_pos if lag >= 0), None)
    if bad_sign is None:
        bad_sign = next((lag for lag in ext_neg if lag <= 0), None)
    clauses.append(ClauseCheck("ext_cross_sign_split", bad_sign is None, bad_sign))

    self_m = {M * n for n in range(1, N)}
    mirrored_in_pos = _subset_clause(
        "self_m_in_ext_cross", {-lag for lag in self_m}, ext_pos
    )
    if mirrored_in_pos.passed:
        mirrored_in_pos = _subset_clause("self_m_in_ext_cross", self_m, ext_neg)
    clauses.append(mirrored_in_pos)

    tail = {N * m for m in range(M, 2 * M)}
    tail_ok = _subset_clause(
        "self_n_tail_in_ext_cross", {-lag for lag in tail}, ext_pos
    )
    if tail_ok.passed:
        tail_ok = _subset_clause("self_n_tail_in_ext_cross", tail, ext_neg)
    clauses.append(tail_ok)

    return StructureReport(pair, tuple(clauses))
