"""Test-only references: known curves and the window oracle on a lag mapping.

Neither is part of the package.  ``dtft_of_window`` reaches the package's
one lag-to-frequency transform, ``spectra._lag_transform``, from a
``{lag: count}`` mapping such as a weight function's ``counts`` or a
window's ``indicator``; ``dirichlet_ratio`` is the Dirichlet kernel as a
known curve.
"""

from collections.abc import Mapping

import numpy as np

from coprimearray.spectra import FrequencyGrid, SpectrumCurve, _lag_transform


def dtft_of_window(counts: Mapping[int, float], grid: FrequencyGrid) -> SpectrumCurve:
    """``sum_l counts[l] * exp(-i*omega*l)`` on the grid, the oracle for the closed forms.

    Raises ConsistencyError when the imaginary part, zero for symmetric
    counts, exceeds the relative check bound.
    """
    lags = np.fromiter(counts.keys(), dtype=np.int64, count=len(counts))
    values = np.fromiter(counts.values(), dtype=float, count=len(counts))
    return _lag_transform(lags, values, grid, "window transform")


def dirichlet_ratio(count: int, theta: np.ndarray) -> np.ndarray:
    """sin(count*theta)/sin(theta) with exact limits at multiples of pi.

    Valid for integer `count` >= 0, where the ratio extends analytically to
    ``count * (-1)**(k*(count-1))`` at ``theta = k*pi``.  Evaluated through
    the offset from the nearest multiple of pi, which keeps full relative
    precision arbitrarily close to the singular points.
    """
    theta = np.asarray(theta, dtype=float)
    nearest = np.round(theta / np.pi)
    delta = theta - nearest * np.pi
    sign = np.where((nearest.astype(np.int64) * (count - 1)) % 2 == 0, 1.0, -1.0)
    regular = delta != 0.0
    safe = np.where(regular, delta, 1.0)
    return sign * np.where(regular, np.sin(count * safe) / np.sin(safe), float(count))
