"""Variance factors and arithmetic-cost counts against weight-sum oracles."""

from math import gcd

import pytest

from coprimearray import (
    ComplexityReport,
    CoprimePair,
    FrequencyGrid,
    RangeKind,
    Scheme,
    UnsupportedRegimeError,
    complexity,
    covariance_curve,
    variance_factor,
    variance_sweep,
    weight_oracle,
)
from coprimearray.metrics import _closed_form_cost

GRID = FrequencyGrid(1024)


class TestVarianceFactor:
    def test_examples_4_3(self):
        pair = CoprimePair(4, 3)
        assert variance_factor(pair, RangeKind.FULL, 10).factor == pytest.approx(1.0)
        assert variance_factor(pair, RangeKind.CONTINUOUS, 10).factor == pytest.approx(0.92)
        assert variance_factor(pair, RangeKind.PROTOTYPE, 10).factor == pytest.approx(0.74)

    def test_full_is_one_at_default_s_b(self):
        for M, N in [(4, 3), (3, 7), (8, 5)]:
            report = variance_factor(CoprimePair(M, N), RangeKind.FULL)
            assert report.factor == pytest.approx(1.0)
            assert report.s_b == 2 * M + N - 1

    def test_continuous_dominates_prototype(self):
        for M in range(2, 16):
            for N in range(2, 16):
                if gcd(M, N) != 1:
                    continue
                pair = CoprimePair(M, N)
                assert (
                    variance_factor(pair, RangeKind.CONTINUOUS).factor
                    >= variance_factor(pair, RangeKind.PROTOTYPE).factor
                )

    def test_positive(self):
        assert variance_factor(CoprimePair(2, 3), RangeKind.PROTOTYPE).factor > 0


class TestCovarianceCurve:
    def test_full_at_zero_separation(self):
        curve = covariance_curve(CoprimePair(4, 3), RangeKind.FULL, GRID, sigma2=1.0)
        assert curve.at_zero() == pytest.approx(1.0)  # sigma^4

    def test_zero_power_process(self):
        curve = covariance_curve(CoprimePair(4, 3), RangeKind.FULL, GRID, sigma2=0.0)
        assert not curve.values.any()

    def test_prototype_matches_variance_factor(self):
        pair = CoprimePair(4, 3)
        curve = covariance_curve(pair, RangeKind.PROTOTYPE, GRID, sigma2=1.0)
        assert curve.at_zero() == pytest.approx(0.74)

    def test_scales_with_sigma_fourth(self):
        # sigma2 is the noise power sigma^2; the covariance carries sigma^4.
        pair = CoprimePair(5, 3)
        base = covariance_curve(pair, RangeKind.CONTINUOUS, GRID, sigma2=1.0)
        scaled = covariance_curve(pair, RangeKind.CONTINUOUS, GRID, sigma2=2.0)
        assert scaled.at_zero() == pytest.approx(4.0 * base.at_zero())


class TestComplexity:
    def test_extended_full_4_3(self):
        report = complexity(CoprimePair(4, 3), Scheme.EXTENDED_FULL)
        assert (report.multiplications, report.additions) == (55, 36)

    def test_prototype_continuous_4_3(self):
        report = complexity(CoprimePair(4, 3), Scheme.PROTOTYPE_CONTINUOUS)
        assert (report.multiplications, report.additions) == (19, 12)

    def test_extended_prototype_equals_oracle(self):
        pair = CoprimePair(4, 3)
        report = complexity(pair, Scheme.EXTENDED_PROTOTYPE)
        counts = weight_oracle(pair, RangeKind.PROTOTYPE)
        mult = sum(counts[lag] for lag in range(pair.prototype_lag_limit + 1))
        adds = mult - sum(
            1 for lag in range(pair.prototype_lag_limit + 1) if counts[lag] >= 1
        )
        assert (report.multiplications, report.additions) == (mult, adds)

    def test_prototype_continuous_requires_larger_m(self):
        with pytest.raises(UnsupportedRegimeError):
            complexity(CoprimePair(3, 7), Scheme.PROTOTYPE_CONTINUOUS)

    def test_fewer_additions_than_multiplications(self):
        for M, N in [(4, 3), (3, 4), (7, 5), (5, 7)]:
            for scheme in Scheme:
                if scheme is Scheme.PROTOTYPE_CONTINUOUS and M < N:
                    continue
                report = complexity(CoprimePair(M, N), scheme)
                assert report.additions < report.multiplications

    def test_full_gap_is_distinct_nonnegative_lags(self):
        for M, N in [(4, 3), (3, 8), (9, 5)]:
            report = complexity(CoprimePair(M, N), Scheme.EXTENDED_FULL)
            assert report.multiplications - report.additions == (3 * M * N + M - N + 1) // 2

    def test_sweep_against_oracles(self):
        # complexity() itself raises ConsistencyError on any closed-form /
        # oracle mismatch, so constructing the reports is the assertion.
        for M in range(2, 16):
            for N in range(2, 16):
                if gcd(M, N) != 1:
                    continue
                pair = CoprimePair(M, N)
                schemes = [Scheme.EXTENDED_FULL, Scheme.EXTENDED_CONTINUOUS, Scheme.EXTENDED_PROTOTYPE]
                if M > N:
                    schemes.append(Scheme.PROTOTYPE_CONTINUOUS)
                for scheme in schemes:
                    assert isinstance(complexity(pair, scheme), ComplexityReport)


    def test_derived_costs_equal_paper_polynomials(self):
        # The paper's expanded cost polynomials, floor sums as loops; the
        # package derives the same counts from the weight sum.
        def paper(M, N, range_kind):
            if range_kind is RangeKind.FULL:
                return ((2 * M + N) * (2 * M + N - 1) // 2,
                        (4 * M * M + N * N + M * N - 3 * M - 1) // 2)
            if range_kind is RangeKind.CONTINUOUS:
                extra = (M - 1) // N
                tail = sum((M + M * n - 1) // N for n in range(1, N)) - 1
                base = N * N + 3 * M * M + N - M + extra * (2 * M - 1 - extra)
                return (base + 2 * M * N + 2 * M) // 2 + tail, base // 2 + tail
            tail = sum((M * n - 1) // N for n in range(1, N)) - 1
            base = N * N + 3 * M * M + N - M
            return (base + 2 * M * N) // 2 + tail, base // 2 + tail

        for M in range(2, 31):
            for N in range(2, 31):
                if gcd(M, N) != 1:
                    continue
                for range_kind in RangeKind:
                    expected = paper(M, N, range_kind)
                    assert _closed_form_cost(CoprimePair(M, N), range_kind) == expected


class TestVarianceSweep:
    def test_includes_non_coprime_pairs(self):
        rows = list(variance_sweep(4, 4))
        assert len(rows) == 16
        flags = {(M, N): coprime for M, N, coprime, _, _ in rows}
        assert flags[(2, 4)] is False and flags[(3, 4)] is True

    def test_matches_variance_factor_on_coprime_pairs(self):
        for M, N, coprime, f_cont, f_proto in variance_sweep(6, 6):
            if not coprime or M < 2 or N < 2:
                continue
            pair = CoprimePair(M, N)
            assert f_cont == pytest.approx(variance_factor(pair, RangeKind.CONTINUOUS).factor)
            assert f_proto == pytest.approx(variance_factor(pair, RangeKind.PROTOTYPE).factor)
