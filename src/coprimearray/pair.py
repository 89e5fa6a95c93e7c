"""Validated co-prime undersampling pair and its derived constants."""

import math
import numbers
import operator
from dataclasses import dataclass
from math import gcd

from .errors import NotCoprimeError, OutOfRangeError

# Every construction in this package enumerates an O(M*N) index grid.  This
# cap keeps those enumerations cheap; it is a documented limit, not a
# correctness bound.
MAX_FACTOR = 10_000


def exact_int(name: str, value: object) -> int:
    """`value` as an int: numpy integers pass, bools and non-integral values raise."""
    if isinstance(value, bool):
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}")
    try:
        return operator.index(value)
    except TypeError:
        raise OutOfRangeError(f"{name} must be an integer, got {value!r}") from None


def finite_positive(name: str, value: object) -> float:
    """`value` as a float: bools, non-real values, nan, inf, zero and negatives raise."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise OutOfRangeError(f"{name} must be a real number, got {value!r}")
    number = float(value)
    if not (math.isfinite(number) and number > 0):
        raise OutOfRangeError(f"{name} must be finite and positive, got {value!r}")
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
