"""Validated co-prime undersampling pair and its derived constants."""

import math
import numbers
import operator
from dataclasses import dataclass
from math import gcd
from typing import Iterable

from .errors import NotCoprimeError, OutOfRangeError

# Every construction in this package enumerates an O(M*N) index grid into
# int64 lag-count arrays of about 32*M*N bytes over the full range (3.2 GB
# near the cap).  This cap is a documented limit, not a correctness bound.
MAX_FACTOR = 10_000


def exact_int(name: str, value: object) -> int:
    """`value` as an int: numpy integers pass, bools and non-integral values raise."""
    if isinstance(value, bool):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None


def check_positive_int(name: str, value: int) -> int:
    """Validate a positive integer (numpy integers included) as an ``int``.

    Non-integral values such as 2.7, and bools, are rejected rather than
    truncated.
    """
    value = exact_int(name, value)
    if value < 1:
        raise OutOfRangeError(f"{name} must be a positive integer, got {value}")
    return value


def finite_real(name: str, value: object) -> float:
    """`value` as a float: bools, non-real values, nan and inf raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRangeError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    if not math.isfinite(number):
        raise OutOfRangeError(f"{name} must be finite, got {value!r}")
    return number


def finite_positive(name: str, value: object) -> float:
    """`value` as a float: bools, non-real values, nan, inf, zero and negatives raise."""
    number = finite_real(name, value)
    if not number > 0:
        raise OutOfRangeError(f"{name} must be finite and positive, got {value!r}")
    return number


def finite_nonnegative(name: str, value: object) -> float:
    """`value` as a float: bools, non-real values, nan, inf and negatives raise."""
    number = finite_real(name, value)
    if number < 0:
        raise OutOfRangeError(f"{name} must be finite and non-negative, got {value!r}")
    return number


@dataclass(frozen=True)
class CoprimePair:
    """Undersampling factors (M, N) of the two interleaved samplers.

    The first sampler takes N samples at spacing M, the second 2*M samples
    at spacing N, sharing the sample at the origin.  The Nyquist unit
    spacing is normalized to 1, so every lag in this package is an integer.

    Attributes
    ----------
    M, N : int
        Co-prime integers, both at least 2.
    """

    M: int
    N: int

    def __post_init__(self) -> None:
        for name in ("M", "N"):
            # Store a plain int, so numpy integers compare, hash and
            # multiply like Python integers.
            value = exact_int(name, getattr(self, name))
            object.__setattr__(self, name, value)
            if value < 2:
                raise OutOfRangeError(f"{name} must be at least 2, got {value}")
            if value > MAX_FACTOR:
                raise OutOfRangeError(f"{name} must be at most {MAX_FACTOR}, got {value}")
        if gcd(self.M, self.N) != 1:
            raise NotCoprimeError(
                f"M={self.M} and N={self.N} share the factor {gcd(self.M, self.N)}"
            )

    @property
    def sample_count(self) -> int:
        """Physical samples per snapshot, 2M + N - 1.

        Also the default normalization constant of the biased
        autocorrelation estimator, which makes the zero-lag window weight 1.
        """
        return 2 * self.M + self.N - 1

    @property
    def period(self) -> int:
        """Snapshot length in Nyquist units, 2MN."""
        return 2 * self.M * self.N

    @property
    def full_lag_limit(self) -> int:
        """Largest lag magnitude of one snapshot, 2MN - 1."""
        return 2 * self.M * self.N - 1

    @property
    def continuous_lag_limit(self) -> int:
        """Largest lag of the hole-free stretch, MN + M - 1."""
        return self.M * self.N + self.M - 1

    @property
    def prototype_lag_limit(self) -> int:
        """Largest lag of a single co-prime period, MN - 1."""
        return self.M * self.N - 1

    def swapped(self) -> "CoprimePair":
        """The pair with the roles of the two samplers interchanged."""
        return CoprimePair(self.N, self.M)


def as_pair(value: CoprimePair | Iterable[int]) -> CoprimePair:
    """Coerce a CoprimePair or an (M, N) iterable into a validated pair."""
    if isinstance(value, CoprimePair):
        return value
    try:
        factors = tuple(value)
    except TypeError:
        raise OutOfRangeError(f"expected two factors (M, N), got {value!r}") from None
    if len(factors) != 2:
        raise OutOfRangeError(f"expected two factors (M, N), got {factors!r}")
    return CoprimePair(*factors)
