"""Difference-set analysis and correlogram spectrum estimation for extended
co-prime sampling.

The package covers the lag (difference) sets of the extended co-prime
sampler pair, their pair-count weight functions, the bias windows of the
correlogram spectral estimate with their main-lobe/side-lobe geometry,
variance factors and arithmetic-cost counts, and a snapshot-based
low-latency spectrum estimator.  Every closed form is backed by a
brute-force oracle exercised in the test suite.
"""

from .errors import (
    ConsistencyError,
    CoprimeArrayError,
    InsufficientDataError,
    NoSideLobeError,
    NotCoprimeError,
    NotEnoughPeaksError,
    NotFittedError,
    OutOfRangeError,
    UnsupportedRegimeError,
)
from .estimator import (
    AutocorrEstimate,
    CoprimeCorrelogram,
    SignalModel,
    ToneComponent,
    autocorrelation,
    correlogram,
    detect_peaks,
    generate_signal,
    tones,
)
from .metrics import (
    ComplexityReport,
    Scheme,
    VarianceReport,
    complexity,
    covariance_curve,
    variance_factor,
    variance_sweep,
)
from .pair import CoprimePair
from .sets import (
    ClauseCheck,
    DifferenceSet,
    RangeKind,
    SetKind,
    StructureReport,
    difference_set,
    dof,
    holes,
    lag_limit,
    sampler_positions,
    verify_structure,
)
from .spectra import (
    FrequencyGrid,
    PeakReport,
    SpectrumCurve,
    bias_biased,
    bias_unbiased,
    main_lobe_half_width,
    main_peak,
    peak_value,
    relative_amplitude,
    side_lobe_peak,
    window_term_curves,
)
from .weights import (
    UnbiasedWindow,
    WeightFunction,
    unbiased_window,
    weight_closed_form,
    weight_oracle,
    weight_terms,
)

__version__ = "0.1.0"

__all__ = [
    "AutocorrEstimate",
    "ClauseCheck",
    "ComplexityReport",
    "ConsistencyError",
    "CoprimeArrayError",
    "CoprimeCorrelogram",
    "CoprimePair",
    "DifferenceSet",
    "FrequencyGrid",
    "InsufficientDataError",
    "NoSideLobeError",
    "NotCoprimeError",
    "NotEnoughPeaksError",
    "NotFittedError",
    "OutOfRangeError",
    "PeakReport",
    "RangeKind",
    "Scheme",
    "SetKind",
    "SignalModel",
    "SpectrumCurve",
    "StructureReport",
    "ToneComponent",
    "UnbiasedWindow",
    "UnsupportedRegimeError",
    "VarianceReport",
    "WeightFunction",
    "autocorrelation",
    "bias_biased",
    "bias_unbiased",
    "complexity",
    "correlogram",
    "covariance_curve",
    "detect_peaks",
    "difference_set",
    "dof",
    "generate_signal",
    "holes",
    "lag_limit",
    "main_lobe_half_width",
    "main_peak",
    "peak_value",
    "relative_amplitude",
    "sampler_positions",
    "side_lobe_peak",
    "tones",
    "unbiased_window",
    "variance_factor",
    "variance_sweep",
    "verify_structure",
    "weight_closed_form",
    "weight_oracle",
    "weight_terms",
    "window_term_curves",
]
