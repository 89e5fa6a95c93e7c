"""Input validation helpers shared by the estimator and the CLI."""

from __future__ import annotations

import numpy as np

from .errors import OutOfRangeError
from .pair import as_pair, check_positive_int  # noqa: F401 - re-exported
from .sets import RangeKind
from .spectra import FrequencyGrid


def as_range_kind(value: RangeKind | str) -> RangeKind:
    """Coerce a RangeKind or its string name ('full', 'continuous', 'prototype')."""
    if isinstance(value, RangeKind):
        return value
    try:
        return RangeKind(str(value).lower())
    except ValueError:
        choices = ", ".join(kind.value for kind in RangeKind)
        raise OutOfRangeError(f"unknown lag range {value!r}; choose one of {choices}") from None


def as_grid(value: FrequencyGrid | int) -> FrequencyGrid:
    """Coerce a FrequencyGrid or an integer grid size; 4096.9 is rejected, not truncated."""
    if isinstance(value, FrequencyGrid):
        return value
    return FrequencyGrid(value)


def _one_dimensional(values: object) -> np.ndarray:
    """`values` as an array, which must be one-dimensional."""
    stream = np.asarray(values)
    if stream.ndim != 1:
        raise OutOfRangeError(f"sample stream must be one-dimensional, got shape {stream.shape}")
    return stream


def check_stream(values: object) -> np.ndarray:
    """Validate a sample stream: one-dimensional, finite, complex-valued."""
    stream = np.ascontiguousarray(_one_dimensional(values), dtype=np.complex128)
    # A contiguous complex array is its real and imaginary parts
    # interleaved, so one pass over the float view checks both.
    if not np.isfinite(stream.view(np.float64)).all():
        raise OutOfRangeError("sample stream contains non-finite values")
    return stream
