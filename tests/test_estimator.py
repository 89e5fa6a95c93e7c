"""Signal synthesis, autocorrelation, correlogram, and the estimator class."""

import resource

import numpy as np
import pytest

from coprimearray import (
    ConsistencyError,
    CoprimeCorrelogram,
    CoprimePair,
    FrequencyGrid,
    InsufficientDataError,
    NotEnoughPeaksError,
    NotFittedError,
    OutOfRangeError,
    RangeKind,
    SignalModel,
    SpectrumCurve,
    ToneComponent,
    autocorrelation,
    bias_biased,
    bias_unbiased,
    correlogram,
    detect_peaks,
    generate_signal,
    lag_limit,
    tones,
    weight_oracle,
)
from coprimearray.errors import CHECK_RTOL
from coprimearray.estimator import _SINGLE_THREAD_MACS, _gram, _gram_blocks, _structure

from reference import dirichlet_ratio

PAIR = CoprimePair(4, 3)
GRID = FrequencyGrid(1024)
#: One snapshot of ones: every estimate over it is the weight function.
ONES = np.ones(PAIR.period, dtype=complex)


def _mean_of_dense_transforms(stream, pair, range_kind, normalization, grid):
    """Mean over snapshots of each snapshot's directly transformed autocorrelation.

    The reference for the batched kernel: per-snapshot pair products summed
    lag by lag, normalized, and transformed by the dense phase matrix, in
    blocks of grid rows to bound memory.  The phase omega_k * l is formed as
    step * ((k - G/2) * l mod G), exact in integers: the rounded product
    omega_k * l is off by up to 1e-12 rad at |l| ~ 6500, and over thousands
    of lags that alone moves the transform by about 1e-12 of its maximum.
    """
    M, N = pair.M, pair.N
    positions = np.array(sorted({M * n for n in range(N)} | {N * m for m in range(2 * M)}))
    limit = lag_limit(pair, range_kind)
    lags = np.arange(-limit, limit + 1)
    differences = positions[:, None] - positions[None, :]
    kept = np.abs(differences) <= limit
    counts = np.bincount(differences[kept] + limit, minlength=len(lags))
    snapshots = len(stream) // pair.period
    rows = np.zeros((len(lags), snapshots), dtype=complex)
    for index in range(snapshots):
        x = stream[index * pair.period + positions]
        np.add.at(rows[:, index], differences[kept] + limit, np.outer(x, np.conj(x))[kept])
    if normalization == "biased":
        rows /= pair.sample_count
    else:
        rows[counts > 0] /= counts[counts > 0, None]
    k = np.arange(grid.size) - grid.size // 2
    spectra = np.concatenate([
        np.exp(-1j * grid.step * (np.outer(k[start:start + 256], lags) % grid.size)) @ rows
        for start in range(0, grid.size, 256)
    ])
    return spectra.real.mean(axis=1)


class TestSignalModel:
    def test_duplicate_frequencies_rejected(self):
        with pytest.raises(OutOfRangeError):
            SignalModel(tones(0.4 * np.pi, 0.4 * np.pi))

    def test_negative_noise_rejected(self):
        with pytest.raises(OutOfRangeError):
            SignalModel(noise_power=-1.0)

    def test_frequency_domain(self):
        with pytest.raises(OutOfRangeError):
            ToneComponent(frequency=4.0)
        with pytest.raises(OutOfRangeError):
            ToneComponent(frequency=0.5, amplitude=0.0)


class TestGenerateSignal:
    def test_unit_modulus_tone(self):
        model = SignalModel(tones(np.pi / 4))
        x = generate_signal(model, 500)
        assert np.allclose(np.abs(x), 1.0)

    def test_noise_mean_power(self):
        # Law of large numbers: |w|^2 has unit mean and unit variance, so
        # the sample mean over 1e5 draws stays within 3/sqrt(1e5) of 1.
        x = generate_signal(SignalModel(noise_power=1.0, seed=0), 100_000)
        assert abs(np.mean(np.abs(x) ** 2) - 1.0) < 3.0 / np.sqrt(100_000)

    def test_deterministic_per_realization(self):
        model = SignalModel(tones(0.3 * np.pi), noise_power=0.5, seed=11)
        assert np.array_equal(generate_signal(model, 256, 5), generate_signal(model, 256, 5))
        assert not np.array_equal(generate_signal(model, 256, 5), generate_signal(model, 256, 6))

    def test_fixed_phase_tone(self):
        model = SignalModel((ToneComponent(0.2 * np.pi, phase=0.0),))
        x = generate_signal(model, 8)
        assert x[0] == pytest.approx(1.0 + 0.0j)


class TestAutocorrelationStream:
    """``autocorrelation`` reads the retained samples of every complete snapshot."""

    def test_kept_positions(self):
        # Ones at the sampler positions and zeros elsewhere read as a stream
        # of ones: the estimate reads those positions and no others.
        positions = [0, 3, 4, 6, 8, 9, 12, 15, 18, 21]
        stream = np.zeros(PAIR.period, dtype=complex)
        stream[positions] = 1.0
        expected = autocorrelation(ONES, PAIR).values
        assert np.array_equal(autocorrelation(stream, PAIR).values, expected)

    def test_second_snapshot_reads_shifted_positions(self):
        model = SignalModel(tones(0.3 * np.pi), noise_power=0.2, seed=3)
        stream = generate_signal(model, 2 * PAIR.period)
        first = autocorrelation(stream[: PAIR.period], PAIR)
        second = autocorrelation(stream[PAIR.period:], PAIR)
        both = autocorrelation(stream, PAIR)
        assert both.snapshots_used == 2
        expected = (first.values + second.values) / 2
        assert np.max(np.abs(both.values - expected)) <= 1e-14 * np.max(np.abs(expected))

    def test_trailing_partial_snapshot_ignored(self):
        stream = generate_signal(SignalModel(noise_power=1.0, seed=4), 3 * PAIR.period)
        padded = np.concatenate([stream, np.full(PAIR.period - 1, 1e6, dtype=complex)])
        estimate = autocorrelation(padded, PAIR)
        assert estimate.snapshots_used == 3
        assert np.array_equal(estimate.values, autocorrelation(stream, PAIR).values)

    def test_insufficient_stream(self):
        with pytest.raises(InsufficientDataError):
            autocorrelation(np.zeros(10, dtype=complex), PAIR)

    def test_two_dimensional_stream_rejected(self):
        with pytest.raises(OutOfRangeError):
            autocorrelation(np.zeros((2, PAIR.period), dtype=complex), PAIR)

    def test_non_finite_sample_rejected(self):
        # The whole stream is checked, as fit checks it, not only the
        # snapshot that holds the bad sample.
        stream = np.ones(2 * PAIR.period, dtype=complex)
        stream[PAIR.period + 1] = np.nan
        with pytest.raises(OutOfRangeError):
            autocorrelation(stream, PAIR)


class TestAutocorrelation:
    def test_all_ones_unbiased(self):
        estimate = autocorrelation(ONES, PAIR, RangeKind.FULL, "unbiased")
        weights = weight_oracle(PAIR, RangeKind.FULL)
        for lag in range(-23, 24):
            expected = 1.0 if weights[lag] else 0.0
            assert estimate.value(lag) == pytest.approx(expected)

    def test_all_ones_biased_gives_weight_over_s_b(self):
        estimate = autocorrelation(ONES, PAIR, RangeKind.FULL, "biased", s_b=10.0)
        weights = weight_oracle(PAIR, RangeKind.FULL)
        for lag in range(-23, 24):
            assert estimate.value(lag) == pytest.approx(weights[lag] / 10.0)

    def test_conjugate_symmetry_exact(self):
        stream = generate_signal(SignalModel(tones(0.3 * np.pi), noise_power=0.2, seed=3), PAIR.period)
        estimate = autocorrelation(stream, PAIR)
        values = estimate.values
        assert np.array_equal(values, np.conj(values[::-1]))
        zero = estimate.value(0)
        assert zero.imag == 0.0 and zero.real >= 0.0

    def test_white_noise_means(self):
        # Averaged over 1e4 snapshots the biased estimate approaches
        # (2M+N-1)/s_b = 1 at lag 0 and 0 elsewhere; per-lag standard error
        # is sqrt(z(l))/(s_b*sqrt(S)).
        snapshots = 10_000
        stream = generate_signal(SignalModel(noise_power=1.0, seed=0), PAIR.period * snapshots)
        estimate = autocorrelation(stream, PAIR)
        assert estimate.snapshots_used == snapshots
        mean = estimate.values
        weights = weight_oracle(PAIR, RangeKind.FULL)
        for lag in range(-23, 24):
            if weights[lag] == 0:
                assert mean[lag + 23] == 0.0
                continue
            standard_error = np.sqrt(weights[lag]) / (10.0 * np.sqrt(snapshots))
            expected = 1.0 if lag == 0 else 0.0
            assert abs(mean[lag + 23] - expected) < 3.0 * standard_error

    def test_truncated_range(self):
        estimate = autocorrelation(ONES, PAIR, RangeKind.PROTOTYPE, "unbiased")
        assert estimate.lags.min() == -11 and estimate.lags.max() == 11


class TestCorrelogram:
    def test_delta_autocorrelation_is_flat(self):
        estimate = autocorrelation(ONES, PAIR, RangeKind.FULL, "biased")
        flat = estimate.values * 0.0
        flat[PAIR.full_lag_limit] = 2.5
        delta = type(estimate)(
            PAIR, RangeKind.FULL, "biased", 10.0, estimate.lags, flat
        )
        curve = correlogram(delta, GRID)
        assert np.allclose(curve.values, 2.5)

    def test_all_ones_matches_bias_window(self):
        estimate = autocorrelation(ONES, PAIR, RangeKind.FULL, "biased", s_b=10.0)
        curve = correlogram(estimate, GRID)
        window = bias_biased(PAIR, RangeKind.FULL, GRID, s_b=10.0)
        assert np.max(np.abs(curve.values - window.values)) < 1e-12


class TestAverageCorrelogram:
    MODEL = SignalModel(tones(0.4 * np.pi), noise_power=0.1, seed=5)

    def test_single_snapshot_mean_is_identity(self):
        stream = generate_signal(self.MODEL, PAIR.period)
        averaged = CoprimeCorrelogram(4, 3, snapshots=1, grid_size=GRID.size).transform(stream)
        single = correlogram(autocorrelation(stream, PAIR), GRID)
        assert np.allclose(averaged, single.values)

    @pytest.mark.parametrize("grid_size", [1024, 4098])
    @pytest.mark.parametrize("range_kind", list(RangeKind))
    @pytest.mark.parametrize("M,N", [(4, 3), (3, 7), (14, 13), (40, 41)])
    def test_batched_kernel_equals_mean_of_dense_transforms(self, M, N, range_kind, grid_size):
        # G = 1024 folds the (40, 41) full range (6559 lags) several times;
        # G = 4098 is not a power of two.
        pair, grid, snapshots = CoprimePair(M, N), FrequencyGrid(grid_size), 3
        stream = generate_signal(self.MODEL, pair.period * snapshots)
        # Half a snapshot more, which fit and autocorrelation must ignore.
        padded = np.concatenate([stream, stream[: pair.period // 2]])
        for normalization in ("biased", "unbiased"):
            expected = _mean_of_dense_transforms(stream, pair, range_kind, normalization, grid)
            scale = np.max(np.abs(expected))
            estimate = autocorrelation(padded, pair, range_kind, normalization)
            averaged = correlogram(estimate, grid)
            fitted = CoprimeCorrelogram(
                M, N, lag_range=range_kind.value, normalization=normalization,
                grid_size=grid_size,
            ).fit(padded)
            assert fitted.n_snapshots_ == estimate.snapshots_used == snapshots
            assert np.max(np.abs(averaged.values - expected)) <= 1e-12 * scale
            assert np.max(np.abs(fitted.spectrum_ - expected)) <= 1e-12 * scale

    def test_deterministic(self):
        estimator = CoprimeCorrelogram(4, 3, snapshots=4, grid_size=GRID.size)
        one = estimator.transform(generate_signal(self.MODEL, PAIR.period * 4))
        two = estimator.transform(generate_signal(self.MODEL, PAIR.period * 4))
        assert np.array_equal(one, two)

    def test_peak_near_tone_for_3_7(self):
        pair = CoprimePair(3, 7)
        stream = generate_signal(self.MODEL, pair.period * 10, realization=1)
        estimator = CoprimeCorrelogram(3, 7, snapshots=10, grid_size=GRID.size).fit(stream)
        peak_omega = estimator.omega_[np.argmax(estimator.spectrum_)]
        assert abs(peak_omega - 0.4 * np.pi) <= GRID.step + 1e-12

    def test_averaging_shrinks_variance_like_one_over_l(self):
        # Variance across independent realizations should drop by about the
        # snapshot ratio; allow a generous Monte Carlo band.
        realizations = 40
        samples = {}
        for count in (10, 100):
            estimator = CoprimeCorrelogram(4, 3, snapshots=count, grid_size=GRID.size)
            curves = np.array([
                estimator.transform(generate_signal(self.MODEL, PAIR.period * count, r))
                for r in range(realizations)
            ])
            samples[count] = curves.var(axis=0, ddof=1).mean()
        ratio = samples[10] / samples[100]
        assert 5.0 <= ratio <= 20.0


class TestGramKernel:
    @pytest.mark.parametrize("M,N,snapshots", [(40, 41, 8), (100, 101, 2)])
    def test_blocked_gram_equals_one_product(self, M, N, snapshots):
        pair = CoprimePair(M, N)
        positions = _structure(M, N, "full").positions
        stream = generate_signal(TestAverageCorrelogram.MODEL, pair.period * snapshots)
        samples = stream.reshape(snapshots, pair.period)[:, positions]
        assert len(_gram_blocks(len(positions), snapshots)) > 1
        expected = samples.T @ samples.conj()
        assert np.max(np.abs(_gram(samples) - expected)) <= 1e-14 * np.max(np.abs(expected))

    @pytest.mark.parametrize("M,N,snapshots", [(3, 7, 64), (14, 13, 32), (40, 41, 8), (100, 101, 2)])
    def test_blocks_stay_single_threaded(self, M, N, snapshots):
        size = CoprimePair(M, N).sample_count
        blocks = _gram_blocks(size, snapshots)
        assert [block.start for block in blocks] == [0] + [block.stop for block in blocks[:-1]]
        assert blocks[-1].stop == size
        for block in blocks:
            rows = block.stop - block.start
            assert 0 < rows and rows * size * snapshots < _SINGLE_THREAD_MACS

    def test_one_block_when_a_row_reaches_the_threshold(self):
        assert _gram_blocks(120, _SINGLE_THREAD_MACS // 120 + 1) == [slice(0, 120)]

    @pytest.mark.parametrize("normalization", ["biased", "unbiased"])
    @pytest.mark.parametrize("range_kind", list(RangeKind))
    def test_no_false_consistency_error_at_100_101(self, range_kind, normalization):
        pair = CoprimePair(100, 101)
        stream = generate_signal(TestAverageCorrelogram.MODEL, pair.period)
        estimator = CoprimeCorrelogram(
            100, 101, snapshots=1, lag_range=range_kind.value, normalization=normalization,
        )
        try:
            estimator.fit(stream)
        except ConsistencyError as exc:
            pytest.fail(f"false ConsistencyError: {exc}")
        assert np.all(np.isfinite(estimator.spectrum_))

    @pytest.mark.parametrize("M,N,snapshots", [(3, 7, 64), (14, 13, 32), (40, 41, 8)])
    def test_steady_state_fit_takes_no_page_faults(self, M, N, snapshots):
        # A steady-state fit reuses heap memory; fresh pages on every fit
        # would show as minor faults.
        pair = CoprimePair(M, N)
        streams = [generate_signal(TestAverageCorrelogram.MODEL, pair.period * snapshots, r)
                   for r in range(4)]
        estimator = CoprimeCorrelogram(M, N, snapshots=snapshots)
        for index in range(50):
            estimator.fit(streams[index % 4]).peaks(1)
        fits = 200
        before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
        for index in range(fits):
            estimator.fit(streams[index % 4]).peaks(1)
        faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
        assert faults / fits < 1.0


class TestSymmetryCheck:
    """``fit`` checks the conjugate symmetry of its folded lag sums."""

    @staticmethod
    def _bumped_gram(relative):
        """``_gram`` with entry (0, 1), at a lag in every range, raised by `relative` of sum |Gram|."""
        def gram(samples):
            products = _gram(samples)
            products[0, 1] += relative * np.sum(np.abs(products))
            return products
        return gram

    @pytest.mark.parametrize("M,N,range_kind", [(4, 3, "full"), (40, 41, "continuous")])
    def test_bumped_gram_entry_raises(self, M, N, range_kind, monkeypatch):
        stream = generate_signal(TestAverageCorrelogram.MODEL, CoprimePair(M, N).period * 3)
        estimator = CoprimeCorrelogram(M, N, lag_range=range_kind, grid_size=1024)
        monkeypatch.setattr("coprimearray.estimator._gram", self._bumped_gram(100 * CHECK_RTOL))
        with pytest.raises(ConsistencyError, match="correlogram conjugate symmetry"):
            estimator.fit(stream)
        # A bump well inside the bound is rounding, not a fault.
        monkeypatch.setattr("coprimearray.estimator._gram", self._bumped_gram(CHECK_RTOL / 100))
        assert np.all(np.isfinite(estimator.fit(stream).spectrum_))


class TestToneAgainstClosedForms:
    """A noiseless on-grid tone's spectrum is the bias window, scaled and moved to the tone."""

    @pytest.mark.parametrize("grid_size", [1024, 4098])
    @pytest.mark.parametrize("normalization", ["biased", "unbiased"])
    @pytest.mark.parametrize("range_kind", list(RangeKind))
    @pytest.mark.parametrize("M,N", [(4, 3), (3, 7), (14, 13), (13, 14), (40, 41), (100, 101)])
    def test_spectrum_is_the_rolled_window(self, M, N, range_kind, normalization, grid_size):
        # r(l) = A^2 * w(l) * exp(i*omega_0*l) / s_b (biased) or A^2 on the
        # available lags (unbiased), so the spectrum is A^2 times the window
        # at omega - omega_0.
        pair, grid, amplitude = CoprimePair(M, N), FrequencyGrid(grid_size), 1.5
        offset = -(grid_size // 3)
        t = np.arange(pair.period * 2)
        # omega_0 * t reduced mod 2*pi in integers, exact however long the stream.
        stream = amplitude * np.exp(1j * grid.step * (offset * t % grid_size))
        fitted = CoprimeCorrelogram(M, N, lag_range=range_kind.value, normalization=normalization,
                                    grid_size=grid_size).fit(stream)
        if normalization == "biased":
            window = bias_biased(pair, range_kind, grid, s_b=pair.sample_count)
        else:
            window = bias_unbiased(pair, range_kind, grid)
        expected = amplitude ** 2 * np.roll(window.values, offset)
        peak = amplitude ** 2 * window.at_zero()
        assert np.max(np.abs(fitted.spectrum_ - expected)) <= 1e-12 * peak


class TestDetectPeaks:
    def test_dirichlet_main_lobe(self):
        curve = SpectrumCurve(GRID, dirichlet_ratio(31, GRID.points / 2.0))
        [(omega, _)] = detect_peaks(curve, 1)
        assert omega == pytest.approx(0.0)

    def test_constant_curve(self):
        with pytest.raises(NotEnoughPeaksError):
            detect_peaks(SpectrumCurve(GRID, np.ones(GRID.size)), 1)

    def test_three_tones_within_one_bin(self):
        model = SignalModel(tones(0.3 * np.pi, 0.5 * np.pi, 0.7 * np.pi), noise_power=0.1, seed=0)
        stream = generate_signal(model, CoprimePair(3, 7).period * 10)
        curve = CoprimeCorrelogram(3, 7, snapshots=10, grid_size=GRID.size).fit(stream).curve_
        found = sorted(omega for omega, _ in detect_peaks(curve, 3))
        for target, omega in zip((0.3 * np.pi, 0.5 * np.pi, 0.7 * np.pi), found):
            assert abs(omega - target) <= GRID.step + 1e-12


class TestCoprimeCorrelogram:
    def test_params_roundtrip(self):
        estimator = CoprimeCorrelogram(M=4, N=3, snapshots=5)
        params = estimator.get_params()
        assert params["M"] == 4 and params["snapshots"] == 5
        estimator.set_params(N=7, grid_size=2048)
        assert estimator.N == 7 and estimator.grid_size == 2048

    def test_unknown_param_rejected(self):
        with pytest.raises(ValueError):
            CoprimeCorrelogram().set_params(window="hann")

    def test_fit_attributes(self):
        model = SignalModel(tones(0.4 * np.pi), noise_power=0.1, seed=2)
        pair = CoprimePair(3, 7)
        stream = generate_signal(model, pair.period * 10)
        estimator = CoprimeCorrelogram(M=3, N=7, grid_size=1024).fit(stream)
        assert estimator.n_snapshots_ == 10
        assert estimator.spectrum_.shape == (1024,)
        assert estimator.pair_ == pair
        [(omega, _)] = estimator.peaks(1)
        assert abs(omega - 0.4 * np.pi) < 0.05

    def test_fits_at_one_size_share_one_read_only_grid(self):
        pair = CoprimePair(3, 7)
        stream = generate_signal(SignalModel(tones(0.4 * np.pi), seed=2), pair.period * 4)
        first = CoprimeCorrelogram(M=3, N=7, grid_size=2048).fit(stream)
        second = CoprimeCorrelogram(M=3, N=7, grid_size=2048).fit(stream)
        assert first.curve_.grid is second.curve_.grid
        with pytest.raises(ValueError):
            first.omega_[0] = 0.0

    def test_explicit_snapshot_count_validated(self):
        stream = np.ones(30, dtype=complex)
        with pytest.raises(InsufficientDataError):
            CoprimeCorrelogram(M=4, N=3, snapshots=4, grid_size=1024).fit(stream)

    def test_empty_stream_rejected(self):
        with pytest.raises(InsufficientDataError):
            CoprimeCorrelogram(M=4, N=3, grid_size=1024).fit(np.ones(5, dtype=complex))

    def test_transform_matches_fit(self):
        model = SignalModel(tones(0.3 * np.pi), noise_power=0.0, seed=1)
        stream = generate_signal(model, CoprimePair(4, 3).period * 3)
        estimator = CoprimeCorrelogram(M=4, N=3, grid_size=1024)
        assert np.array_equal(estimator.transform(stream), estimator.fit(stream).spectrum_)

    def test_peaks_require_fit(self):
        with pytest.raises(NotFittedError):
            CoprimeCorrelogram().peaks(1)

    def test_sklearn_clone_compatible(self):
        sklearn_base = pytest.importorskip("sklearn.base")
        estimator = CoprimeCorrelogram(M=5, N=4, snapshots=3)
        clone = sklearn_base.clone(estimator)
        assert clone.get_params() == estimator.get_params()
