"""Lag-set construction, degrees of freedom, and structural checks."""

from math import gcd

import numpy as np
import pytest

from coprimearray import (
    CoprimePair,
    NotCoprimeError,
    OutOfRangeError,
    RangeKind,
    SetKind,
    difference_set,
    dof,
    holes,
    sampler_positions,
    unbiased_window,
    verify_structure,
    weight_closed_form,
)
from coprimearray import sets
from coprimearray.sets import UNION_KINDS, _distinct_positions

#: The ten kinds of the degrees-of-freedom table, for both arrays.
TABLE_KINDS = [
    SetKind.SELF_M_POS, SetKind.SELF_M_NEG, SetKind.SELF_N_POS, SetKind.SELF_N_NEG,
    SetKind.SELF_POS, SetKind.SELF_NEG, SetKind.SELF_UNION,
    SetKind.CROSS_POS, SetKind.CROSS_NEG, SetKind.CROSS_UNION,
]


def coprime_pairs(limit):
    for M in range(2, limit + 1):
        for N in range(2, limit + 1):
            if gcd(M, N) == 1:
                yield CoprimePair(M, N)


class TestCoprimePair:
    def test_derived_constants(self):
        pair = CoprimePair(4, 3)
        assert pair.sample_count == 10
        assert pair.period == 24
        assert (pair.full_lag_limit, pair.continuous_lag_limit, pair.prototype_lag_limit) == (23, 15, 11)

    def test_not_coprime_rejected(self):
        with pytest.raises(NotCoprimeError):
            CoprimePair(4, 6)

    @pytest.mark.parametrize("M,N", [(1, 5), (5, 1), (0, 3), (-2, 3)])
    def test_unit_and_degenerate_factors_rejected(self, M, N):
        with pytest.raises(OutOfRangeError):
            CoprimePair(M, N)

    def test_enumeration_cap(self):
        with pytest.raises(OutOfRangeError):
            CoprimePair(10_001, 3)

    def test_swapped(self):
        assert CoprimePair(4, 3).swapped() == CoprimePair(3, 4)

    def test_numpy_integers_stored_as_int(self):
        pair = CoprimePair(np.int64(3), np.int32(7))
        assert pair == CoprimePair(3, 7)
        assert type(pair.M) is int and type(pair.N) is int

    @pytest.mark.parametrize("M,N", [(True, 3), (3.0, 7), (2.7, 7), (3, np.float64(7.0)), ("3", 7)])
    def test_non_integer_factors_rejected(self, M, N):
        with pytest.raises(OutOfRangeError):
            CoprimePair(M, N)


class TestPositions:
    def test_positions_4_3(self):
        first, second = sampler_positions(CoprimePair(4, 3))
        assert first == [0, 4, 8]
        assert second == [0, 3, 6, 9, 12, 15, 18, 21]

    def test_positions_2_3(self):
        first, second = sampler_positions(CoprimePair(2, 3))
        assert first == [0, 2, 4]
        assert second == [0, 3, 6, 9]
        assert len(set(first) | set(second)) == 6  # 2M + N - 1

    def test_prototype_positions_4_3(self):
        first, second = sampler_positions(CoprimePair(4, 3), extended=False)
        assert first == [0, 4, 8]
        assert second == [0, 3, 6, 9]
        assert _distinct_positions(CoprimePair(4, 3), extended=False) == [0, 3, 4, 6, 8, 9]

    @pytest.mark.parametrize("pair", list(coprime_pairs(8)), ids=str)
    def test_origin_shared_and_union_size(self, pair):
        first, second = sampler_positions(pair)
        assert 0 in first and 0 in second
        assert len(set(first) | set(second)) == pair.sample_count


class TestDifferenceSets:
    def test_cross_union_cardinality(self):
        ds = difference_set(CoprimePair(4, 3), SetKind.CROSS_UNION)
        assert len(ds) == 37 == 3 * 4 * 3 + 4 - 3

    def test_ext_cross_strictly_signed(self):
        pair = CoprimePair(4, 3)
        assert all(lag < 0 for lag in difference_set(pair, SetKind.EXT_CROSS_POS).lags)
        assert all(lag > 0 for lag in difference_set(pair, SetKind.EXT_CROSS_NEG).lags)

    def test_base_cross_equals_prototype_cross_set(self):
        # Brute-force enumeration of the single-period cross differences.
        M, N = 4, 3
        prototype = sorted({M * n - N * m for n in range(N) for m in range(M)})
        base = difference_set(CoprimePair(M, N), SetKind.BASE_CROSS_POS)
        assert list(base.lags) == prototype

    def test_lags_sorted_unique_with_multiplicities(self):
        for kind in SetKind:
            ds = difference_set(CoprimePair(5, 3), kind)
            assert list(ds.lags) == sorted(set(ds.lags))
            assert all(ds.multiplicity[lag] >= 1 for lag in ds.lags)
            if kind in UNION_KINDS:
                assert set(ds.multiplicity.values()) == {1}

    def test_membership_protocol(self):
        ds = difference_set(CoprimePair(4, 3), SetKind.CROSS_UNION)
        assert 15 in ds and 16 not in ds


class TestDof:
    def test_examples_4_3(self):
        pair = CoprimePair(4, 3)
        assert dof(pair, SetKind.CROSS_UNION) == 37
        assert dof(pair, SetKind.SELF_UNION) == 19 == 2 * (2 * 4 + 3 - 1) - 1
        assert dof(pair, SetKind.CROSS_POS) == 24 == 2 * 4 * 3

    @pytest.mark.parametrize("pair", list(coprime_pairs(12)), ids=str)
    def test_closed_forms_match_enumeration(self, pair):
        for kind in SetKind:
            assert dof(pair, kind) == len(difference_set(pair, kind))
        for kind in TABLE_KINDS:
            assert dof(pair, kind, extended=False) == len(difference_set(pair, kind, extended=False))

    def test_prototype_sets_match_positions(self):
        # The prototype sets against differences of the single-period positions.
        pair = CoprimePair(4, 3)
        first, second = sampler_positions(pair, extended=False)
        cross = {a - b for a in first for b in second}
        self_union = {a - b for stream in (first, second) for a in stream for b in stream}
        assert set(difference_set(pair, SetKind.CROSS_POS, extended=False).lags) == cross
        assert set(difference_set(pair, SetKind.SELF_UNION, extended=False).lags) == self_union
        assert difference_set(pair, SetKind.EXT_CROSS_POS, extended=False).lags == ()


class TestContinuousRange:
    def test_bounds_and_first_hole_4_3(self):
        pair = CoprimePair(4, 3)
        assert pair.continuous_lag_limit == 15
        members = difference_set(pair, SetKind.CROSS_UNION).multiplicity
        assert all(lag in members for lag in range(-15, 16))
        assert 16 not in members and -16 not in members

    def test_bounds_3_4(self):
        pair = CoprimePair(3, 4)
        assert pair.continuous_lag_limit == 14
        members = difference_set(pair, SetKind.CROSS_UNION).multiplicity
        assert all(lag in members for lag in range(-14, 15))
        assert 15 not in members

    def test_bounds_2_3(self):
        assert CoprimePair(2, 3).continuous_lag_limit == 7

    def test_holes(self):
        pair = CoprimePair(4, 3)
        assert holes(pair, 15) == []
        assert 16 in holes(pair, 23)
        assert holes(pair, 23) == [16, 19, 20, 22, 23]

    def test_holes_upto_validated(self):
        with pytest.raises(OutOfRangeError):
            holes(CoprimePair(4, 3), 24)

    @pytest.mark.parametrize("upto", [2.5, True, -3], ids=["fractional", "bool", "negative"])
    def test_holes_upto_must_be_a_non_negative_integer(self, upto):
        with pytest.raises(OutOfRangeError):
            holes(CoprimePair(4, 3), upto)


class TestStructure:
    @pytest.mark.parametrize("M,N", [(4, 3), (5, 3), (3, 8), (8, 3), (3, 4)])
    def test_all_clauses_pass(self, M, N):
        report = verify_structure(CoprimePair(M, N))
        assert report.all_passed, report.failures()

    def test_clause_names(self):
        names = [clause.name for clause in verify_structure(CoprimePair(4, 3)).clauses]
        assert names == [
            "cross_pos_extent",
            "cross_neg_extent",
            "cross_pos_run",
            "cross_neg_run",
            "cross_union_run",
            "ext_cross_sign_split",
            "self_m_in_ext_cross",
            "self_n_tail_in_ext_cross",
        ]

    def test_lost_cross_lag_breaks_the_union_run(self, monkeypatch):
        # Drop the cross lag -7 = 4*2 - 3*5 from the one enumeration.  Its
        # mirror 7 is no cross lag, so both leave the hole-free stretch
        # |l| <= 15, and the clause reports the smaller of the two.
        pair = CoprimePair(4, 3)
        lost = -7
        enumerate_lags = sets._cross_differences

        def losing(pair, extended=True):
            differences = enumerate_lags(pair, extended).copy()
            differences[differences == lost] = 0  # lag 0 is present anyway
            return differences

        monkeypatch.setattr(sets, "_cross_differences", losing)
        clauses = {clause.name: clause for clause in verify_structure(pair).clauses}
        assert not clauses["cross_union_run"].passed
        assert clauses["cross_union_run"].counterexample == lost

    def test_cross_pos_extent_3_8(self):
        # -N(2M-1) .. M(N-1) for (3, 8) is [-40, 21].
        lags = difference_set(CoprimePair(3, 8), SetKind.CROSS_POS).lags
        assert min(lags) == -40 and max(lags) == 21


class TestSweepInvariants:
    def test_cardinalities_and_structure_to_30(self):
        for pair in coprime_pairs(30):
            M, N = pair.M, pair.N
            assert len(difference_set(pair, SetKind.CROSS_UNION)) == 3 * M * N + M - N
            assert len(difference_set(pair, SetKind.CROSS_POS)) == 2 * M * N
            assert len(difference_set(pair, SetKind.CROSS_NEG)) == 2 * M * N
            assert len(difference_set(pair, SetKind.SELF_UNION)) == 2 * (2 * M + N - 1) - 1
            assert verify_structure(pair).all_passed

    def test_wide_pair_1000_1001(self):
        M, N = 1000, 1001
        pair = CoprimePair(M, N)
        distinct = 3 * M * N + M - N  # dof of the cross union set
        assert verify_structure(pair).all_passed
        assert unbiased_window(pair, RangeKind.FULL).total() == distinct
        # Of the 2MN non-negative lags, (distinct + 1) / 2 are present.
        assert len(holes(pair, 2 * M * N - 1)) == 2 * M * N - (distinct + 1) // 2
        assert weight_closed_form(pair, RangeKind.FULL).total() == (2 * M + N - 1) ** 2

    def test_self_subset_of_cross(self):
        for pair in coprime_pairs(12):
            self_union = set(difference_set(pair, SetKind.SELF_UNION).lags)
            cross_union = set(difference_set(pair, SetKind.CROSS_UNION).lags)
            assert self_union <= cross_union

    def test_ext_cross_parts_disjoint(self):
        for pair in coprime_pairs(12):
            pos = set(difference_set(pair, SetKind.EXT_CROSS_POS).lags)
            neg = set(difference_set(pair, SetKind.EXT_CROSS_NEG).lags)
            assert not pos & neg
