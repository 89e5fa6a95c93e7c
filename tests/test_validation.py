"""Input validation: integers are validated, never truncated."""

import numpy as np
import pytest

from coprimearray import CoprimeCorrelogram, CoprimePair, FrequencyGrid, OutOfRangeError
from coprimearray.validation import as_grid, as_pair, check_positive_int


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
