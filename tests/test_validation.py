"""Input validation: integers are validated, never truncated."""

import dataclasses
import inspect
from collections.abc import Mapping

import numpy as np
import pytest

import coprimearray
from coprimearray import (
    ConsistencyError,
    CoprimeCorrelogram,
    CoprimePair,
    FrequencyGrid,
    OutOfRangeError,
    RangeKind,
    Scheme,
    SetKind,
    SignalModel,
    ToneComponent,
    autocorrelation,
    bias_biased,
    bias_unbiased,
    complexity,
    correlogram,
    covariance_curve,
    difference_set,
    dof,
    generate_signal,
    lag_limit,
    main_peak,
    peak_value,
    relative_amplitude,
    unbiased_window,
    variance_factor,
    variance_sweep,
    weight_closed_form,
    weight_oracle,
    weight_terms,
    window_term_curves,
)
from coprimearray.cli import main
from coprimearray.estimator import check_stream
from coprimearray.pair import as_pair, check_positive_int
from coprimearray.spectra import as_grid

PAIR = CoprimePair(4, 3)
STREAM = np.ones(PAIR.period, dtype=complex)
GRID = FrequencyGrid(1024)


class TestCheckPositiveInt:
    @pytest.mark.parametrize("value", [1, 7, np.int64(7), np.uint8(7)])
    def test_integers_accepted_as_int(self, value):
        result = check_positive_int("x", value)
        assert result == int(value) and type(result) is int

    @pytest.mark.parametrize("value", [2.7, 2.0, np.float64(3.0), "2", True, None])
    def test_non_integers_rejected(self, value):
        with pytest.raises(OutOfRangeError):
            check_positive_int("x", value)

    @pytest.mark.parametrize("value", [0, -3])
    def test_non_positive_rejected(self, value):
        with pytest.raises(OutOfRangeError):
            check_positive_int("x", value)

    def test_fractional_snapshot_count_rejected(self):
        stream = np.ones(CoprimePair(4, 3).period * 3, dtype=complex)
        with pytest.raises(OutOfRangeError):
            CoprimeCorrelogram(M=4, N=3, snapshots=2.7, grid_size=1024).fit(stream)


class TestAsPair:
    def test_numpy_factors(self):
        pair = as_pair(np.array([3, 7]))
        assert pair == CoprimePair(3, 7) and type(pair.M) is int

    def test_fractional_factor_rejected(self):
        with pytest.raises(OutOfRangeError):
            as_pair((3.5, 7))

    @pytest.mark.parametrize("value", [None, 5, (3,), (3, 7, 2)])
    def test_not_two_factors_rejected(self, value):
        with pytest.raises(OutOfRangeError):
            as_pair(value)


def _same(first, second):
    """Equal results: arrays element for element, records and mappings field by field."""
    if type(first) is not type(second):
        return False
    if isinstance(first, np.ndarray):
        return np.array_equal(first, second)
    if dataclasses.is_dataclass(first):
        return all(_same(getattr(first, field.name), getattr(second, field.name))
                   for field in dataclasses.fields(first))
    if isinstance(first, Mapping):
        return first.keys() == second.keys() and all(_same(first[k], second[k]) for k in first)
    if isinstance(first, (list, tuple)):
        return len(first) == len(second) and all(map(_same, first, second))
    return first == second


def _pair_first_functions():
    """Names of the public functions whose first parameter is the pair."""
    names = []
    for name in coprimearray.__all__:
        value = getattr(coprimearray, name)
        if inspect.isfunction(value) and next(iter(inspect.signature(value).parameters)) == "pair":
            names.append(name)
    return sorted(names)


class TestPairTuplesAccepted:
    """Every public function that takes a pair first accepts a plain (M, N) tuple."""

    # The arguments after the pair, per function.
    REST = {
        "bias_biased": (RangeKind.CONTINUOUS, GRID),
        "bias_unbiased": (RangeKind.FULL, GRID),
        "complexity": (Scheme.EXTENDED_FULL,),
        "covariance_curve": (RangeKind.FULL, GRID, 1.0),
        "difference_set": (SetKind.CROSS_UNION,),
        "dof": (SetKind.CROSS_UNION,),
        "holes": (20,),
        "lag_limit": (RangeKind.CONTINUOUS,),
        "main_peak": (RangeKind.PROTOTYPE,),
        "relative_amplitude": (RangeKind.FULL, GRID),
        "sampler_positions": (),
        "unbiased_window": (RangeKind.FULL,),
        "variance_factor": (RangeKind.CONTINUOUS,),
        "verify_structure": (),
        "weight_closed_form": (RangeKind.FULL,),
        "weight_oracle": (RangeKind.FULL,),
        "weight_terms": (RangeKind.PROTOTYPE,),
        "window_term_curves": (RangeKind.FULL, GRID),
    }

    def test_every_pair_taker_is_covered(self):
        assert sorted(self.REST) == _pair_first_functions()

    @pytest.mark.parametrize("name", _pair_first_functions())
    def test_tuple_gives_the_pair_result(self, name):
        function = getattr(coprimearray, name)
        rest = self.REST[name]
        assert _same(function((PAIR.M, PAIR.N), *rest), function(PAIR, *rest))


class TestAsGrid:
    @pytest.mark.parametrize("value", [4096, np.int64(4096)])
    def test_integers_accepted(self, value):
        assert as_grid(value) == FrequencyGrid(4096)

    @pytest.mark.parametrize("value", [4096.9, 4096.0, "4096", True])
    def test_non_integers_rejected(self, value):
        with pytest.raises(OutOfRangeError):
            as_grid(value)

    def test_fractional_grid_size_rejected_by_fit(self):
        stream = np.ones(CoprimePair(3, 7).period * 2, dtype=complex)
        with pytest.raises(OutOfRangeError):
            CoprimeCorrelogram(3, 7, grid_size=4096.9).fit(stream)


def _grid_taking_functions():
    """Names of the public functions with a parameter named ``grid``."""
    names = []
    for name in coprimearray.__all__:
        value = getattr(coprimearray, name)
        if inspect.isfunction(value) and "grid" in inspect.signature(value).parameters:
            names.append(name)
    return sorted(names)


class TestGridSizesAccepted:
    """Every public function that takes a grid accepts an integer grid size."""

    # Each function called with the given grid.
    CALLS = {
        "bias_biased": lambda grid: bias_biased(PAIR, RangeKind.CONTINUOUS, grid),
        "bias_unbiased": lambda grid: bias_unbiased(PAIR, RangeKind.FULL, grid),
        "correlogram": lambda grid: correlogram(autocorrelation(STREAM, PAIR), grid),
        "covariance_curve": lambda grid: covariance_curve(PAIR, RangeKind.FULL, grid, 1.0),
        "relative_amplitude": lambda grid: relative_amplitude(PAIR, RangeKind.FULL, grid),
        "window_term_curves": lambda grid: window_term_curves(PAIR, RangeKind.FULL, grid),
    }

    def test_every_grid_taker_is_covered(self):
        assert sorted(self.CALLS) == _grid_taking_functions()

    @pytest.mark.parametrize("name", _grid_taking_functions())
    def test_size_gives_the_grid_result(self, name):
        call = self.CALLS[name]
        assert _same(call(4096), call(FrequencyGrid(4096)))

    @pytest.mark.parametrize("name", _grid_taking_functions())
    def test_fractional_size_rejected(self, name):
        with pytest.raises(OutOfRangeError):
            self.CALLS[name](4096.9)


class TestRangeKindRequired:
    """A range given by name, or None, raises instead of reading as the prototype range."""

    RANGE_TAKERS = {
        "lag_limit": lambda kind: lag_limit(PAIR, kind),
        "peak_value": lambda kind: peak_value(PAIR.M, PAIR.N, kind),
        "main_peak": lambda kind: main_peak(PAIR, kind),
        "variance_factor": lambda kind: variance_factor(PAIR, kind),
        "covariance_curve": lambda kind: covariance_curve(PAIR, kind, GRID, 1.0),
        "weight_oracle": lambda kind: weight_oracle(PAIR, kind),
        "weight_terms": lambda kind: weight_terms(PAIR, kind),
        "weight_closed_form": lambda kind: weight_closed_form(PAIR, kind),
        "unbiased_window": lambda kind: unbiased_window(PAIR, kind),
        "bias_biased": lambda kind: bias_biased(PAIR, kind, GRID),
        "bias_unbiased": lambda kind: bias_unbiased(PAIR, kind, GRID),
        "relative_amplitude": lambda kind: relative_amplitude(PAIR, kind, GRID),
        "window_term_curves": lambda kind: window_term_curves(PAIR, kind, GRID),
    }

    @pytest.mark.parametrize("name", sorted(RANGE_TAKERS))
    @pytest.mark.parametrize("kind", ["full", "continuous", None])
    def test_non_range_kind_rejected(self, name, kind):
        with pytest.raises(OutOfRangeError):
            self.RANGE_TAKERS[name](kind)

    @pytest.mark.parametrize("scheme", ["extended-full", None, RangeKind.FULL])
    def test_complexity_requires_scheme(self, scheme):
        with pytest.raises(OutOfRangeError):
            complexity(PAIR, scheme)


class TestSetKindRequired:
    """A set named by its tag, None or a RangeKind raises instead of reading as some set."""

    @pytest.mark.parametrize("function", [dof, difference_set], ids=["dof", "difference_set"])
    @pytest.mark.parametrize("kind", ["C", None, RangeKind.FULL])
    def test_non_set_kind_rejected(self, function, kind):
        with pytest.raises(OutOfRangeError):
            function(PAIR, kind)


class TestSweepFactors:
    @pytest.mark.parametrize("factors", [(3.5, 7), (True, 7), (3, 0), (-2, 3), (3, np.float64(7.0))])
    @pytest.mark.parametrize("kind", list(RangeKind))
    def test_peak_value_rejects_malformed_factors(self, factors, kind):
        with pytest.raises(OutOfRangeError):
            peak_value(*factors, kind)

    @pytest.mark.parametrize("bounds", [(0, 3), (3, 0), (2.5, 2), (True, 2), (2, -3)])
    def test_variance_sweep_rejects_malformed_bounds_at_call(self, bounds):
        with pytest.raises(OutOfRangeError):
            variance_sweep(*bounds)

    def test_variance_sweep_accepts_numpy_bounds(self):
        assert len(list(variance_sweep(np.int64(2), np.uint8(3)))) == 6


class TestNormalizationConstant:
    """s_b must be finite and positive wherever it enters."""

    ENTRY_POINTS = {
        "bias_biased": lambda s_b: bias_biased(PAIR, RangeKind.FULL, FrequencyGrid(1024), s_b=s_b),
        "relative_amplitude": lambda s_b: relative_amplitude(
            PAIR, RangeKind.FULL, FrequencyGrid(1024), s_b=s_b),
        "variance_factor": lambda s_b: variance_factor(PAIR, RangeKind.FULL, s_b),
        "covariance_curve": lambda s_b: covariance_curve(PAIR, RangeKind.FULL, FrequencyGrid(1024), 1.0, s_b),
        "autocorrelation": lambda s_b: autocorrelation(STREAM, PAIR, s_b=s_b),
        "fit": lambda s_b: CoprimeCorrelogram(4, 3, snapshots=1, s_b=s_b, grid_size=1024).fit(STREAM),
    }

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("s_b", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, 0, True, "2"])
    def test_invalid_rejected(self, entry, s_b):
        with pytest.raises(OutOfRangeError):
            self.ENTRY_POINTS[entry](s_b)

    @pytest.mark.parametrize("entry", list(ENTRY_POINTS))
    @pytest.mark.parametrize("s_b", [2.5, 10, np.float64(2.5), np.int64(10)])
    def test_finite_positive_accepted(self, entry, s_b):
        self.ENTRY_POINTS[entry](s_b)


class TestCheckStream:
    @pytest.mark.parametrize("bad", [complex(1.0, float("nan")), complex(float("inf"), 0.0),
                                     complex(float("-inf"), 2.0), complex(float("nan"), float("nan"))])
    def test_non_finite_part_rejected(self, bad):
        stream = np.ones(8, dtype=complex)
        stream[5] = bad
        with pytest.raises(OutOfRangeError):
            check_stream(stream)

    def test_non_finite_in_strided_view_rejected(self):
        stream = np.ones(16, dtype=complex)
        stream[6] = complex(0.0, float("nan"))
        with pytest.raises(OutOfRangeError):
            check_stream(stream[::2])

    @pytest.mark.parametrize("values", [np.arange(6), np.arange(6, dtype=np.complex64) * (1 - 2j),
                                        np.arange(12, dtype=complex)[::2]])
    def test_finite_streams_become_complex128(self, values):
        stream = check_stream(values)
        assert stream.dtype == np.complex128
        assert np.array_equal(stream, np.asarray(values, dtype=np.complex128))

    def test_complex64_non_finite_rejected(self):
        with pytest.raises(OutOfRangeError):
            check_stream(np.array([1.0, complex(2.0, float("inf"))], dtype=np.complex64))


class TestEstimateLag:
    """``AutocorrEstimate.value`` takes an integer lag; bools and fractions raise."""

    ESTIMATE = autocorrelation(STREAM, PAIR)

    @pytest.mark.parametrize("lag", [1.5, True])
    def test_non_integer_lag_rejected(self, lag):
        with pytest.raises(OutOfRangeError):
            self.ESTIMATE.value(lag)

    def test_numpy_integer_lag_accepted(self):
        assert self.ESTIMATE.value(np.int64(-5)) == self.ESTIMATE.value(-5)


class TestEstimateFields:
    """A hand-built ``AutocorrEstimate`` needs lags -limit ... limit and one finite value per lag."""

    ESTIMATE = autocorrelation(STREAM, PAIR)
    LAGS = ESTIMATE.lags
    VALUES = ESTIMATE.values

    @pytest.mark.parametrize("fields", [
        {"values": VALUES[:-1]},
        {"values": np.append(VALUES, 0.0)},
        {"values": VALUES.reshape(1, -1)},
        {"lags": LAGS.astype(float)},
        {"lags": LAGS + 1},
        {"lags": LAGS[::-1]},
        {"lags": LAGS[1:], "values": VALUES[1:]},
        {"lags": np.array([], dtype=int), "values": np.array([])},
        {"values": np.where(LAGS == 0, np.nan, VALUES)},
        {"values": np.where(LAGS == 2, complex(0.0, np.inf), VALUES)},
        {"values": np.array(["x"] * len(LAGS))},
    ], ids=["short", "long", "two-dimensional", "float-lags", "shifted-lags", "reversed-lags",
            "one-sided-lags", "empty", "nan", "infinite-part", "strings"])
    def test_malformed_fields_rejected(self, fields):
        with pytest.raises(OutOfRangeError):
            dataclasses.replace(self.ESTIMATE, **fields)

    def test_list_fields_become_arrays(self):
        estimate = dataclasses.replace(self.ESTIMATE, lags=self.LAGS.tolist(),
                                       values=self.VALUES.tolist())
        assert np.array_equal(correlogram(estimate, GRID).values,
                              correlogram(self.ESTIMATE, GRID).values)

    def test_non_hermitian_estimate_fails_the_symmetry_check(self):
        values = self.VALUES.copy()
        values[len(values) // 2 + 1] += 1.0
        with pytest.raises(ConsistencyError, match="conjugate symmetry"):
            correlogram(dataclasses.replace(self.ESTIMATE, values=values), GRID)


class TestSignalParameters:
    """Signal and noise parameters that cannot describe a signal raise OutOfRangeError."""

    NON_FINITE = [float("nan"), float("inf"), -float("inf")]

    @pytest.mark.parametrize("noise_power", NON_FINITE + [-1.0, True, "0.1"])
    def test_noise_power_rejected(self, noise_power):
        with pytest.raises(OutOfRangeError):
            SignalModel(noise_power=noise_power)

    @pytest.mark.parametrize("noise_power", [0, 0.0, 0.1, np.float64(2.0)])
    def test_noise_power_accepted(self, noise_power):
        SignalModel(noise_power=noise_power)

    @pytest.mark.parametrize("amplitude", NON_FINITE + [0.0, -1.0])
    def test_amplitude_rejected(self, amplitude):
        with pytest.raises(OutOfRangeError):
            ToneComponent(0.5, amplitude=amplitude)

    @pytest.mark.parametrize("phase", NON_FINITE)
    def test_fixed_phase_must_be_finite(self, phase):
        with pytest.raises(OutOfRangeError):
            ToneComponent(0.5, phase=phase)

    @pytest.mark.parametrize("frequency", [float("nan"), 4.0, "0.5"])
    def test_frequency_rejected(self, frequency):
        with pytest.raises(OutOfRangeError):
            ToneComponent(frequency)

    @pytest.mark.parametrize("seed", [1.5, 2.0, True, -1])
    def test_seed_rejected(self, seed):
        with pytest.raises(OutOfRangeError):
            SignalModel(seed=seed)

    def test_numpy_integer_seed_accepted(self):
        model = SignalModel(noise_power=1.0, seed=np.int64(3))
        assert np.array_equal(generate_signal(model, 16), generate_signal(SignalModel(noise_power=1.0, seed=3), 16))

    @pytest.mark.parametrize("realization", [1.5, True, -1])
    def test_realization_rejected(self, realization):
        with pytest.raises(OutOfRangeError):
            generate_signal(SignalModel(), 16, realization)

    @pytest.mark.parametrize("sigma2", NON_FINITE + [-1.0, True])
    def test_covariance_noise_power_rejected(self, sigma2):
        with pytest.raises(OutOfRangeError):
            covariance_curve(PAIR, RangeKind.FULL, FrequencyGrid(1024), sigma2)

    @pytest.mark.parametrize("noise", ["inf", "nan", "-1"])
    def test_cli_noise_is_config_error(self, noise, tmp_path, capsys):
        argv = ["estimate", "--snapshots", "2", "--noise", noise, "-o", str(tmp_path / "e.csv")]
        assert main(argv) == 2
        assert "OutOfRangeError" in capsys.readouterr().err
