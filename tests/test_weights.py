"""Weight-function closed forms against the pair-enumeration oracle."""

from math import gcd

import pytest

from coprimearray import (
    CoprimePair,
    RangeKind,
    lag_limit,
    unbiased_window,
    weight_closed_form,
    weight_oracle,
    weight_terms,
)
from coprimearray.sets import _index_limits
from coprimearray.weights import _ext_cross_index_pairs


def coprime_pairs(limit):
    for M in range(2, limit + 1):
        for N in range(2, limit + 1):
            if gcd(M, N) == 1:
                yield CoprimePair(M, N)


class TestOracle:
    def test_zero_lag_and_total(self):
        w = weight_oracle(CoprimePair(4, 3), RangeKind.FULL)
        assert w[0] == 10
        assert w.total() == 100  # (2M + N - 1)^2

    def test_self_m_lag(self):
        # lag 4 = M*1: (N - 1) + 1 contributors.
        assert weight_oracle(CoprimePair(4, 3), RangeKind.FULL)[4] == 3

    def test_ext_cross_lag(self):
        # 13 = 3*7 - 4*2 is reachable only through the extension period.
        assert weight_oracle(CoprimePair(4, 3), RangeKind.FULL)[13] == 1

    def test_hole_has_zero_count(self):
        assert weight_oracle(CoprimePair(4, 3), RangeKind.FULL)[16] == 0


class TestClosedForm:
    @pytest.mark.parametrize("M,N", [(4, 3), (3, 4), (5, 3), (3, 5), (7, 4), (4, 7)])
    @pytest.mark.parametrize("range_kind", list(RangeKind))
    def test_equals_oracle(self, M, N, range_kind):
        pair = CoprimePair(M, N)
        assert weight_closed_form(pair, range_kind).counts == weight_oracle(pair, range_kind).counts

    def test_continuous_self_n_truncation(self):
        # The self-N index range stops at floor((MN+M-1)/N) = 5 for (4, 3),
        # so lag 15 keeps 2M - 5 = 3 contributors.
        pair = CoprimePair(4, 3)
        assert (pair.continuous_lag_limit) // pair.N == 5
        assert weight_closed_form(pair, RangeKind.CONTINUOUS)[15] == 3

    def test_term_maps_sum_to_counts(self):
        pair = CoprimePair(5, 4)
        for range_kind in RangeKind:
            combined = {}
            for term in weight_terms(pair, range_kind).values():
                for lag, count in term.items():
                    combined[lag] = combined.get(lag, 0) + count
            reference = weight_closed_form(pair, range_kind)
            assert all(reference[lag] == count for lag, count in combined.items())

    def test_ext_cross_orientations_enumerate_same_pairs(self):
        # On both orientations of every pair up to 12 and on every range,
        # the extension-cross runs hold exactly the index pairs that
        # |M*n - N*m| <= limit admits, each once, and K is the last self-N
        # index m with N*m <= limit.
        for pair in coprime_pairs(12):
            M, N = pair.M, pair.N
            for range_kind in RangeKind:
                limit = lag_limit(pair, range_kind)
                expected = {
                    (n, m)
                    for n in range(1, N)
                    for m in range(M + 1, 2 * M)
                    if abs(M * n - N * m) <= limit
                }
                n, m = _ext_cross_index_pairs(pair, range_kind)
                pairs = list(zip(n.tolist(), m.tolist()))
                assert len(pairs) == len(expected)
                assert set(pairs) == expected
                last_self_n, _ = _index_limits(pair, range_kind)
                assert last_self_n == max(m for m in range(2 * M) if N * m <= limit)


class TestUnbiasedWindow:
    def test_continuous_is_rectangular(self):
        window = unbiased_window(CoprimePair(4, 3), RangeKind.CONTINUOUS)
        assert set(window.indicator.values()) == {1}
        assert sorted(window.indicator) == list(range(-15, 16))

    def test_full_marks_holes(self):
        window = unbiased_window(CoprimePair(4, 3), RangeKind.FULL)
        assert window[16] == 0 and window[-16] == 0
        assert window.total() == 37  # distinct lags of the cross union set

    @pytest.mark.parametrize("pair", list(coprime_pairs(10)), ids=str)
    def test_five_term_form_reproduces_membership(self, pair):
        # The window is 1 exactly at the lags some sample pair lands on.
        oracle = weight_oracle(pair, RangeKind.FULL).counts
        assert unbiased_window(pair, RangeKind.FULL).indicator == {
            lag: int(count > 0) for lag, count in oracle.items()
        }


class TestSweepInvariants:
    def test_symmetry_and_identities(self):
        for pair in coprime_pairs(12):
            for range_kind in RangeKind:
                w = weight_closed_form(pair, range_kind)
                limit = w.lag_limit()
                assert all(w[lag] == w[-lag] for lag in range(limit + 1))
            full = weight_closed_form(pair, RangeKind.FULL)
            assert full.total() == pair.sample_count ** 2
            assert full[0] == pair.sample_count

    def test_truncation_only(self):
        # Counts restricted to a narrower range equal full-range counts.
        for pair in coprime_pairs(10):
            full = weight_closed_form(pair, RangeKind.FULL)
            for range_kind in (RangeKind.CONTINUOUS, RangeKind.PROTOTYPE):
                narrow = weight_closed_form(pair, range_kind)
                assert all(narrow[lag] == full[lag] for lag in narrow.counts)

    def test_continuous_range_has_no_holes(self):
        for pair in coprime_pairs(10):
            narrow = weight_closed_form(pair, RangeKind.CONTINUOUS)
            assert all(count >= 1 for count in narrow.counts.values())

    def test_counts_confined_to_range(self):
        for pair in coprime_pairs(10):
            for range_kind in RangeKind:
                w = weight_closed_form(pair, range_kind)
                limit = w.lag_limit()
                assert all(abs(lag) <= limit for lag, count in w.counts.items() if count)
