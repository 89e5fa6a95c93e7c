"""Bias-window closed forms against the direct-transform oracle."""

from math import gcd

import numpy as np
import pytest

from coprimearray import (
    ConsistencyError,
    CoprimePair,
    FrequencyGrid,
    NoSideLobeError,
    OutOfRangeError,
    RangeKind,
    SpectrumCurve,
    bias_biased,
    bias_unbiased,
    detect_peaks,
    main_lobe_half_width,
    main_peak,
    relative_amplitude,
    side_lobe_peak,
    unbiased_window,
    weight_closed_form,
    weight_oracle,
    window_term_curves,
)
from coprimearray.errors import CHECK_RTOL
from coprimearray.weights import WeightFunction, _LagCounts
from coprimearray import spectra
from coprimearray.spectra import (_even_transform, _floor_sum, _fold_is_cheaper, _folded_window, _HalfGrid,
                                  _lag_transform, _mirrored, _strict_maxima, as_grid, peak_value)

from reference import dirichlet_ratio, dtft_of_window

GRID = FrequencyGrid(4096)


def _dense_transform(counts, grid):
    """sum_l counts[l] * exp(-i*omega_k*l) by the dense phase matrix.

    The phase omega_k * l is formed as step * ((k - G/2) * l mod G), exact
    in integers, so the reference carries no phase-rounding error.
    """
    lags = np.array(list(counts))
    values = np.array([counts[lag] for lag in lags], dtype=float)
    k = np.arange(grid.size) - grid.size // 2
    # Blocks of 1024 frequencies bound the phase matrix's memory.
    return np.concatenate([
        (np.exp(-1j * grid.step * (np.outer(rows, lags) % grid.size)) @ values).real
        for rows in np.split(k, range(1024, grid.size, 1024))
    ])


class TestFrequencyGrid:
    def test_contains_zero_exactly(self):
        grid = FrequencyGrid(2048)
        assert grid.points[grid.zero_index] == 0.0

    def test_range_half_open(self):
        grid = FrequencyGrid(1024)
        assert grid.points[0] == pytest.approx(-np.pi)
        assert grid.points[-1] < np.pi

    @pytest.mark.parametrize("size", [512, 1023, 4095])
    def test_invalid_sizes(self, size):
        with pytest.raises(OutOfRangeError):
            FrequencyGrid(size)

    def test_equal_grids_hash_equal(self):
        assert hash(FrequencyGrid(4096)) == hash(FrequencyGrid(4096))
        assert len({FrequencyGrid(4096), FrequencyGrid(4096), FrequencyGrid(2048)}) == 2

    def test_read_only(self):
        grid = FrequencyGrid(1024)
        with pytest.raises(ValueError):
            grid.points[0] = 0.0
        with pytest.raises(AttributeError):
            grid.size = 2048

    def test_one_grid_per_integer_size(self):
        assert as_grid(4096) is as_grid(np.int64(4096))
        assert as_grid(4096) == FrequencyGrid(4096)
        with pytest.raises(OutOfRangeError):
            as_grid(4096.0)


class TestDirichletRatio:
    def test_limit_at_zero(self):
        assert dirichlet_ratio(7, np.array([0.0]))[0] == 7.0

    def test_limits_at_pi_multiples(self):
        theta = np.array([np.pi, 2 * np.pi, -np.pi])
        # sign (-1)^(k*(c-1)) with c = 4: alternates with k.
        assert np.allclose(dirichlet_ratio(4, theta), [-4.0, 4.0, -4.0])

    def test_matches_naive_ratio(self):
        rng = np.random.default_rng(0)
        theta = rng.uniform(0.05, np.pi - 0.05, 100)
        for count in (1, 2, 5, 12):
            naive = np.sin(count * theta) / np.sin(theta)
            assert np.allclose(dirichlet_ratio(count, theta), naive, atol=1e-12)

    def test_stable_next_to_singularity(self):
        theta = np.array([np.pi + 1e-13, -2 * np.pi + 1e-13])
        values = dirichlet_ratio(9, theta)
        assert np.allclose(np.abs(values), 9.0, atol=1e-9)


class TestDtftOracle:
    def test_delta_transforms_to_constant(self):
        curve = dtft_of_window({0: 1.0}, GRID)
        assert np.allclose(curve.values, 1.0)

    def test_rectangle_transforms_to_dirichlet(self):
        L = 15
        counts = {lag: 1.0 for lag in range(-L, L + 1)}
        curve = dtft_of_window(counts, GRID)
        reference = dirichlet_ratio(2 * L + 1, GRID.points / 2.0)
        assert np.allclose(curve.values, reference, atol=1e-9)

    def test_weight_window_at_zero(self):
        counts = weight_closed_form(CoprimePair(4, 3), RangeKind.FULL).counts
        assert dtft_of_window(counts, GRID).at_zero() == pytest.approx(100.0)

    @pytest.mark.parametrize("M,N", [(4, 3), (3, 7), (8, 5), (14, 13)])
    @pytest.mark.parametrize("range_kind", list(RangeKind))
    def test_fft_matches_dense_transform(self, M, N, range_kind):
        grid = FrequencyGrid(1024)
        counts = weight_closed_form(CoprimePair(M, N), range_kind).counts
        expected = _dense_transform(counts, grid)
        scale = sum(abs(value) for value in counts.values())
        assert np.max(np.abs(dtft_of_window(counts, grid).values - expected)) <= 1e-12 * scale

    def test_lags_wider_than_grid_fold(self):
        # |l| <= 2500 folds each lag up to five times onto a 1024-point grid.
        grid, limit = FrequencyGrid(1024), 2500
        half = np.random.default_rng(3).integers(0, 6, limit + 1)
        counts = {lag: float(half[abs(lag)]) for lag in range(-limit, limit + 1)}
        expected = _dense_transform(counts, grid)
        scale = sum(counts.values())
        assert np.max(np.abs(dtft_of_window(counts, grid).values - expected)) <= 1e-12 * scale

    def test_asymmetric_counts_rejected(self):
        with pytest.raises(ConsistencyError):
            dtft_of_window({1: 1.0}, GRID)

    def test_closed_forms_within_relative_bound_at_60_61(self):
        # Absolute residuals grow with M*N (about 1.7e-9 at (40, 41)); the
        # relative ones stay near 1e-13, well inside CHECK_RTOL.
        pair, grid = CoprimePair(60, 61), FrequencyGrid(1024)
        terms = window_term_curves(pair, RangeKind.FULL, grid)
        term_sum = sum(curve.values for curve in terms.values())
        biased = bias_biased(pair, RangeKind.FULL, grid)
        peak = main_peak(pair, RangeKind.FULL)
        assert np.max(np.abs(term_sum - biased.values)) <= CHECK_RTOL * peak
        window = unbiased_window(pair, RangeKind.FULL)
        oracle = dtft_of_window(window.indicator, grid)
        unbiased = bias_unbiased(pair, RangeKind.FULL, grid)
        assert np.max(np.abs(oracle.values - unbiased.values)) <= CHECK_RTOL * window.total()

    def test_closed_form_phases_exact_at_1000_1001(self):
        # Phases formed as floating-point omega * M * N carry an error of
        # about M*N*eps rad, which put the closed form 6.6e-11 of the main
        # peak away from its terms.  Integer phases with sin(pi*j/G) taken
        # as a float of pi*j/G left 1.7e-13: its relative error grows as j
        # nears G.  The sine table leaves about 3e-17.
        pair, grid = CoprimePair(1000, 1001), FrequencyGrid(4096)
        terms = window_term_curves(pair, RangeKind.FULL, grid)
        term_sum = sum(curve.values for curve in terms.values())
        biased = bias_biased(pair, RangeKind.FULL, grid)
        peak = main_peak(pair, RangeKind.FULL)
        assert np.max(np.abs(term_sum - biased.values)) <= 1e-14 * peak

    @pytest.mark.parametrize("range_kind", list(RangeKind))
    def test_closed_form_within_1e_14_at_100_101(self, range_kind):
        # Sines of float angles near pi lose relative precision; this was
        # 1.3e-14 to 1.9e-14 of the main peak with them, about 2e-16 now.
        pair, grid = CoprimePair(100, 101), FrequencyGrid(16384)
        terms = window_term_curves(pair, range_kind, grid)
        term_sum = sum(curve.values for curve in terms.values())
        biased = bias_biased(pair, range_kind, grid)
        assert np.max(np.abs(term_sum - biased.values)) <= 1e-14 * main_peak(pair, range_kind)

    @pytest.mark.parametrize("size", [1024, 4098, 16384])
    @pytest.mark.parametrize("M,N", [(3, 4), (9, 8), (6, 7), (14, 13)])
    def test_closed_forms_at_singular_points(self, M, N, size):
        # Factors that share divisors with G put sin(omega*c/2) = 0 at
        # interior grid points, where the Dirichlet ratios take their limits.
        pair, grid = CoprimePair(M, N), FrequencyGrid(size)
        for range_kind in RangeKind:
            counts = weight_oracle(pair, range_kind).counts
            expected = _dense_transform(counts, grid)
            closed = bias_biased(pair, range_kind, grid).values
            assert np.max(np.abs(closed - expected)) <= 1e-12 * main_peak(pair, range_kind)
            indicator = unbiased_window(pair, range_kind).indicator
            expected = _dense_transform(indicator, grid)
            closed = bias_unbiased(pair, range_kind, grid).values
            assert np.max(np.abs(closed - expected)) <= 1e-12 * sum(indicator.values())


class TestUnbiasedBias:
    def test_full_at_zero_counts_distinct_lags(self):
        curve = bias_unbiased(CoprimePair(4, 3), RangeKind.FULL, GRID)
        assert curve.at_zero() == pytest.approx(37.0)

    def test_continuous_is_dirichlet_peak(self):
        curve = bias_unbiased(CoprimePair(4, 3), RangeKind.CONTINUOUS, GRID)
        assert curve.at_zero() == pytest.approx(31.0)  # 2L + 1, L = 15

    def test_full_goes_negative(self):
        curve = bias_unbiased(CoprimePair(4, 3), RangeKind.FULL, GRID)
        assert curve.values.min() < 0.0

    @pytest.mark.parametrize("M,N", [(4, 3), (3, 4), (7, 2), (2, 7)])
    def test_matches_transform_oracle(self, M, N):
        pair = CoprimePair(M, N)
        for range_kind in RangeKind:
            closed = bias_unbiased(pair, range_kind, GRID)
            oracle = dtft_of_window(unbiased_window(pair, range_kind).indicator, GRID)
            assert np.max(np.abs(closed.values - oracle.values)) < 1e-9


class TestBiasedBias:
    def test_peaks_at_zero(self):
        pair = CoprimePair(4, 3)
        assert bias_biased(pair, RangeKind.FULL, GRID).at_zero() == pytest.approx(100.0)
        assert bias_biased(pair, RangeKind.CONTINUOUS, GRID).at_zero() == pytest.approx(92.0)
        assert bias_biased(pair, RangeKind.PROTOTYPE, GRID).at_zero() == pytest.approx(74.0)

    @pytest.mark.parametrize("M,N", [(4, 3), (3, 4), (5, 2), (2, 5), (8, 5), (5, 8)])
    def test_matches_scaled_transform_oracle(self, M, N):
        pair = CoprimePair(M, N)
        for range_kind in RangeKind:
            closed = bias_biased(pair, range_kind, GRID, s_b=10.0)
            oracle = dtft_of_window(weight_oracle(pair, range_kind).counts, GRID)
            assert np.max(np.abs(closed.values - oracle.values / 10.0)) < 1e-9

    def test_even_in_omega(self):
        curve = bias_biased(CoprimePair(5, 3), RangeKind.CONTINUOUS, GRID)
        # omega = 0 sits at index size//2; index 0 (-pi) has no mirror point.
        mirrored = curve.values[1:][::-1]
        assert np.max(np.abs(curve.values[1:] - mirrored)) < 1e-9

    def test_exact_peak_and_symmetry(self):
        from math import gcd

        grid = FrequencyGrid(4096)
        zero = grid.zero_index
        for M in range(2, 16):
            for N in range(2, 16):
                if gcd(M, N) != 1:
                    continue
                pair = CoprimePair(M, N)
                for range_kind in RangeKind:
                    curve = bias_biased(pair, range_kind, grid)
                    assert curve.at_zero() == main_peak(pair, range_kind)
                    for window in (curve, bias_unbiased(pair, range_kind, grid)):
                        values = window.values
                        assert np.array_equal(values[zero + 1:], values[zero - 1:0:-1])

    def test_s_b_must_be_positive(self):
        with pytest.raises(OutOfRangeError):
            bias_biased(CoprimePair(4, 3), RangeKind.FULL, GRID, s_b=0.0)


class _DirectIndexHalfGrid(_HalfGrid):
    """Reference: the table positions by one remainder over every half-grid offset."""

    def index(self, c, shift=0):
        offsets = np.arange(self.length, dtype=np.int64)
        return (offsets * (c % self.period) + shift) % self.period


class TestHalfGridIndex:
    @pytest.mark.parametrize("size", [1024, 4098, 12346, 16384])
    @pytest.mark.parametrize("c", [0, 1, -5, "G", "2G", 2 * 40 * 41, 2 * 10**4 * 10**4, 10**12 + 3])
    @pytest.mark.parametrize("shift", [0, "G/2"])
    def test_two_level_index_equals_direct_remainder(self, size, c, shift):
        c = {"G": size, "2G": 2 * size}.get(c, c)
        shift = size // 2 if shift == "G/2" else shift
        index = _HalfGrid(FrequencyGrid(size)).index(c, shift)
        direct = (np.arange(size // 2 + 1, dtype=np.int64) * c + shift) % (2 * size)
        assert len(index) == size // 2 + 1
        assert index.min() >= 0 and index.max() < 4 * size
        assert np.array_equal(index % (2 * size), direct)

    def test_singular_points_take_the_exact_limit(self):
        # theta = omega*c/2 is 0 at omega = 0 and pi at omega = -pi for c = 2;
        # the limit there is count*(-1)**(count - 1).
        half = _HalfGrid(FrequencyGrid(1024))
        for count in (0, 1, 4, 5):
            ratio = half.dirichlet(count, 2)
            assert ratio[0] == count
            assert ratio[-1] == count * (-1) ** (count - 1)

    def test_one_denominator_per_factor(self):
        half = _HalfGrid(FrequencyGrid(1024))
        for count in (3, 5, 8):
            half.dirichlet(count, 7)
        half.dirichlet(2, 3)
        assert sorted(half.denominators) == [3, 7]

    @pytest.mark.parametrize("size", [4098, 16384])
    @pytest.mark.parametrize("M,N", [(3, 4), (9, 8), (40, 41), (1000, 1001)])
    def test_curves_equal_direct_index_reference(self, size, M, N, monkeypatch):
        pair, grid = CoprimePair(M, N), FrequencyGrid(size)
        transforms = (bias_biased, bias_unbiased)
        package = [f(pair, kind, grid).values for f in transforms for kind in RangeKind]
        monkeypatch.setattr(spectra, "_HalfGrid", _DirectIndexHalfGrid)
        reference = [f(pair, kind, grid).values for f in transforms for kind in RangeKind]
        assert all(map(np.array_equal, package, reference))


class TestHalfGridTables:
    def test_one_read_only_table_per_size(self):
        first, second = _HalfGrid(FrequencyGrid(4096)), _HalfGrid(FrequencyGrid(4096))
        assert first.table is second.table
        assert first.row_starts is second.row_starts and first.row_offsets is second.row_offsets
        for array in (first.table, first.row_starts, first.row_offsets):
            with pytest.raises(ValueError):
                array[0] = 1

    def test_denominators_stay_per_instance(self):
        first, second = _HalfGrid(FrequencyGrid(1024)), _HalfGrid(FrequencyGrid(1024))
        first.dirichlet(3, 7)
        assert sorted(first.denominators) == [7] and not second.denominators


#: Every co-prime pair with 2 <= M, N <= 15, and three larger ones.
SWEEP_PAIRS = [(M, N) for M in range(2, 16) for N in range(2, 16) if gcd(M, N) == 1] + [
    (40, 41), (41, 40), (100, 101)]


def _bumped_weights(pair, range_kind):
    """The weight function with its count at lag 0 one too high."""
    counts = weight_closed_form(pair, range_kind).counts.array.copy()
    counts[len(counts) // 2] += 1
    return WeightFunction(pair, range_kind, _LagCounts(counts))


class TestFoldedWindow:
    @pytest.mark.parametrize("size", [16384, 4098])
    @pytest.mark.parametrize("route", ["chosen", "fold"])
    def test_relative_amplitude_matches_closed_form(self, size, route, monkeypatch):
        # The reference is the closed form's side lobe, on either route.
        grid = FrequencyGrid(size)
        reference = {}
        for M, N in SWEEP_PAIRS:
            for range_kind in RangeKind:
                pair = CoprimePair(M, N)
                peak = main_peak(pair, range_kind)
                omega, side = side_lobe_peak(bias_biased(pair, range_kind, grid))
                reference[pair, range_kind] = omega, (peak - side) / peak
        if route == "fold":
            monkeypatch.setattr(spectra, "_fold_is_cheaper", lambda *args: True)
        for (pair, range_kind), (omega, ratio) in reference.items():
            report = relative_amplitude(pair, range_kind, grid)
            assert report.side_peak_omega == omega
            assert report.relative_amplitude == pytest.approx(ratio, rel=1e-12, abs=0)

    @pytest.mark.parametrize("size", [1024, 4096, 4098])
    @pytest.mark.parametrize("M,N", [(4, 3), (3, 7), (40, 41), (100, 101)])
    def test_even_transform_matches_lag_transform_and_closed_form(self, size, M, N):
        # At (100, 101) the lags wrap the grid many times, through bins 0 and G/2.
        pair, grid = CoprimePair(M, N), FrequencyGrid(size)
        for range_kind in RangeKind:
            counts = weight_closed_form(pair, range_kind).counts
            folded = _mirrored(grid, _even_transform(counts.array[counts.limit:], grid)).values
            direct = _lag_transform(counts.lags, counts.array, grid, "window transform").values
            closed = bias_biased(pair, range_kind, grid).values
            bound = 1e-14 * main_peak(pair, range_kind)
            assert np.max(np.abs(folded - direct)) <= bound
            assert np.max(np.abs(folded - closed)) <= bound

    @pytest.mark.parametrize("M,N,range_kind,size,fold", [
        (40, 41, RangeKind.CONTINUOUS, 16384, True),
        (100, 101, RangeKind.FULL, 2**20, True),
        (40, 41, RangeKind.FULL, 16384, False),
        (1000, 1001, RangeKind.CONTINUOUS, 16384, False),
    ])
    def test_route_on_each_side_of_the_crossover(self, M, N, range_kind, size, fold):
        assert _fold_is_cheaper(CoprimePair(M, N), range_kind, size) is fold

    def test_bumped_count_fails_the_zero_frequency_check(self, monkeypatch):
        pair = CoprimePair(40, 41)
        assert _fold_is_cheaper(pair, RangeKind.CONTINUOUS, 16384)
        monkeypatch.setattr(spectra, "weight_closed_form", _bumped_weights)
        with pytest.raises(ConsistencyError, match="omega = 0"):
            relative_amplitude(pair, RangeKind.CONTINUOUS)
        with pytest.raises(ConsistencyError, match="omega = 0"):
            _folded_window(pair, RangeKind.FULL, FrequencyGrid(4096))


class TestMainPeak:
    def test_examples_4_3(self):
        pair = CoprimePair(4, 3)
        assert main_peak(pair, RangeKind.FULL) == 100
        assert main_peak(pair, RangeKind.CONTINUOUS) == 92
        assert main_peak(pair, RangeKind.PROTOTYPE) == 74

    def test_equals_weight_sum(self):
        from math import gcd

        for M in range(2, 13):
            for N in range(2, 13):
                if gcd(M, N) != 1:
                    continue
                pair = CoprimePair(M, N)
                for range_kind in RangeKind:
                    assert main_peak(pair, range_kind) == weight_oracle(pair, range_kind).total()


    def test_numpy_factors_accepted(self):
        assert peak_value(np.int64(4), np.uint8(3), RangeKind.CONTINUOUS) == 92


class TestFloorSum:
    def test_equals_direct_sum(self):
        # Co-prime or not, and for offsets of either sign.
        mismatches = []
        for n in range(1, 80):
            k = np.arange(n)
            for m in range(1, 80):
                for x in (-7, -1, 0, 3, m - 1, 2 * m + 5):
                    if _floor_sum(m, n, x) != int(np.sum((m * k + x) // n)):
                        mismatches.append((m, n, x))
        assert not mismatches

    def test_peak_value_equals_paper_loop_forms(self):
        # The paper's truncated-range peaks, with their floor sums written
        # as loops, on a grid that includes non-co-prime pairs and N = 1.
        def continuous(M, N):
            extra = (M - 1) // N
            return ((M + extra + 1) ** 2 + (M + N) ** 2 + M * M - 3 * M - 3 * extra
                    - 2 * extra * extra - 2
                    + sum(2 * ((M + M * i - 1) // N) for i in range(1, N)))

        def prototype(M, N):
            return (3 * M * M + N * N - 3 * M + 2 * M * N - 1
                    + sum(2 * ((M * i - 1) // N) for i in range(1, N)))

        for M in range(1, 61):
            for N in range(1, 61):
                assert peak_value(M, N, RangeKind.CONTINUOUS) == continuous(M, N), (M, N)
                assert peak_value(M, N, RangeKind.PROTOTYPE) == prototype(M, N), (M, N)


class TestSpectrumCurve:
    def test_integer_grid_size_accepted(self):
        curve = SpectrumCurve(4096, np.zeros(4096))
        assert curve.grid == FrequencyGrid(4096)
        assert np.array_equal(curve.omega, FrequencyGrid(4096).points)

    def test_fractional_grid_size_rejected(self):
        with pytest.raises(OutOfRangeError):
            SpectrumCurve(4096.9, np.zeros(4096))

    @pytest.mark.parametrize("shape", [(4095,), (4097,), (2, 2048), ()])
    def test_values_off_the_grid_rejected(self, shape):
        with pytest.raises(OutOfRangeError):
            SpectrumCurve(FrequencyGrid(4096), np.zeros(shape))


class TestSideLobePeak:
    def test_dirichlet_largest_local_max(self):
        # Dense-grid oracle values for sin(31*w/2)/sin(w/2): the first lobe
        # beside the main lobe is negative, so the largest strict local
        # maximum is the second lobe near -5*pi/31.
        grid = FrequencyGrid(1 << 16)
        curve = SpectrumCurve(grid, dirichlet_ratio(31, grid.points / 2.0))
        omega, value = side_lobe_peak(curve)
        assert omega == pytest.approx(-0.4985767, abs=2e-4)
        assert value == pytest.approx(4.0211161, abs=1e-3)

    def test_constant_curve_has_none(self):
        curve = SpectrumCurve(GRID, np.ones(GRID.size))
        with pytest.raises(NoSideLobeError):
            side_lobe_peak(curve)

    @pytest.mark.parametrize("wrap_value,side_index", [(0.0, 0), (6.0, 200)])
    def test_hand_built_curve(self, wrap_value, side_index):
        # G = 1024 puts omega = 0 at index 512.  Left of it the main lobe
        # descends through the plateau 511..509 to its minimum at 507.
        # Outside it: a near lobe at 506 (3), a plateau at 400..401 (4.5, no
        # strict maximum), equal maxima at 200 and 300 (4, the lowest index
        # wins), and 5 at index 0, a strict maximum only if its wrapped left
        # neighbor (index 1023, omega near +pi) is lower.  Right of zero the
        # lobe crosses the plateau 513..514 and ends at 515.
        grid = FrequencyGrid(1024)
        values = np.zeros(grid.size)
        values[505:517] = [0.0, 3.0, 1.0, 2.0, 5.0, 5.0, 5.0, 10.0, 7.0, 7.0, 0.5, 2.0]
        values[[400, 401]] = 4.5
        values[[200, 300]] = 4.0
        values[0] = 5.0
        values[800] = 9.0
        values[-1] = wrap_value
        curve = SpectrumCurve(grid, values)
        assert side_lobe_peak(curve) == (grid.points[side_index], values[side_index])
        assert main_lobe_half_width(curve) == grid.points[515]
        expected = [512, 800, 0, 200] if wrap_value == 0.0 else [512, 800, 1023, 200]
        assert detect_peaks(curve, 4) == [(grid.points[i], values[i]) for i in expected]

    def test_matches_loop_reference_on_tie_heavy_curves(self):
        # Integer random walks are full of plateaus and equal maxima.
        def loop_reference(values, zero):
            right = zero
            while right < len(values) - 1 and values[right + 1] <= values[right]:
                right += 1
            left = zero
            while left > 0 and values[left - 1] <= values[left]:
                left -= 1
            best = None
            for k in range(left):
                # values[-1] is the wrapped neighbor of index 0.
                if values[k] > values[k - 1] and values[k] > values[k + 1]:
                    if best is None or values[k] > values[best]:
                        best = k
            return right, best

        grid = FrequencyGrid(1024)
        rng = np.random.default_rng(11)
        for _ in range(200):
            values = np.cumsum(rng.integers(-1, 2, grid.size)).astype(float)
            curve = SpectrumCurve(grid, values)
            right, best = loop_reference(values, grid.zero_index)
            assert main_lobe_half_width(curve) == grid.points[right]
            if best is None:
                with pytest.raises(NoSideLobeError):
                    side_lobe_peak(curve)
            else:
                assert side_lobe_peak(curve) == (grid.points[best], values[best])

    def test_peak_selection_matches_full_sort_on_tie_heavy_curves(self):
        # The mask and the selection of detect_peaks against their previous
        # forms: two np.roll copies, and a stable sort of every maximum.
        def maxima_reference(values):
            return (values > np.roll(values, 1)) & (values > np.roll(values, -1))

        def peaks_reference(curve, count):
            indices = np.flatnonzero(maxima_reference(curve.values))
            order = indices[np.argsort(-curve.values[indices], kind="stable")][:count]
            return [(float(curve.omega[i]), float(curve.values[i])) for i in order]

        grid = FrequencyGrid(1024)
        rng = np.random.default_rng(11)
        for _ in range(200):
            values = np.cumsum(rng.integers(-1, 2, grid.size)).astype(float)
            curve = SpectrumCurve(grid, values)
            mask = maxima_reference(values)
            assert np.array_equal(_strict_maxima(values), mask)
            for count in (1, 2, 3, 7, int(mask.sum())):
                assert detect_peaks(curve, count) == peaks_reference(curve, count)

    def test_full_biased_4_3_relative_amplitude(self):
        report = relative_amplitude(CoprimePair(4, 3), RangeKind.FULL)
        assert report.relative_amplitude == pytest.approx(0.508, abs=0.01)


class TestRelativeAmplitude:
    def test_reference_values(self):
        assert relative_amplitude(
            CoprimePair(3, 4), RangeKind.PROTOTYPE
        ).relative_amplitude == pytest.approx(0.762, abs=0.01)
        assert relative_amplitude(
            CoprimePair(7, 13), RangeKind.FULL
        ).relative_amplitude == pytest.approx(0.734, abs=0.01)

    def test_invariant_to_s_b(self):
        pair = CoprimePair(5, 4)
        grid = FrequencyGrid(8192)
        unit = relative_amplitude(pair, RangeKind.CONTINUOUS, grid, s_b=1.0)
        scaled = relative_amplitude(pair, RangeKind.CONTINUOUS, grid, s_b=float(pair.sample_count))
        assert unit.relative_amplitude == pytest.approx(scaled.relative_amplitude, abs=1e-12)

    def test_report_fields_consistent(self):
        report = relative_amplitude(CoprimePair(4, 3), RangeKind.FULL)
        assert report.relative_amplitude == pytest.approx(
            (report.main_peak - report.side_peak) / report.main_peak
        )
        assert -np.pi <= report.side_peak_omega <= 0.0


class TestResolutionOrdering:
    @pytest.mark.parametrize("M,N", [(4, 3), (3, 4), (5, 3), (7, 4)])
    def test_main_lobe_widths_ordered(self, M, N):
        pair = CoprimePair(M, N)
        widths = [
            main_lobe_half_width(bias_biased(pair, range_kind, GRID))
            for range_kind in (RangeKind.FULL, RangeKind.CONTINUOUS, RangeKind.PROTOTYPE)
        ]
        assert widths[0] <= widths[1] <= widths[2]
