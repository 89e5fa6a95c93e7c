"""Exception types raised by this package."""


class CoprimeArrayError(Exception):
    """Base class for all errors raised by coprimearray."""


class NotCoprimeError(CoprimeArrayError):
    """The two undersampling factors share a common divisor."""


class OutOfRangeError(CoprimeArrayError):
    """A factor or lag falls outside its documented domain."""


class NoSideLobeError(CoprimeArrayError):
    """A curve has no strict local maximum outside its main lobe."""


class NotEnoughPeaksError(CoprimeArrayError):
    """Fewer strict local maxima exist than were requested."""


class InsufficientDataError(CoprimeArrayError):
    """A sample stream is too short for the requested snapshot."""


class UnsupportedRegimeError(CoprimeArrayError):
    """A closed form was requested outside the regime it is derived for."""


class ConsistencyError(CoprimeArrayError):
    """A closed-form value disagrees with its brute-force counterpart.

    This is an internal cross-check failure, not a usage error; it should
    never fire on a correct build.
    """


class NotFittedError(CoprimeArrayError):
    """The estimator was used before ``fit``."""


#: Relative bound of the runtime cross-checks on floating-point results.
#: Closed forms and transforms agree with their oracles to about 1e-13 of
#: the checked quantity's scale up to (60, 61), so this leaves ample margin
#: while an absolute bound would fail as windows grow with M*N.
CHECK_RTOL = 1e-11


def check_residual(what: str, residual: float, scale: float) -> None:
    """Raise ConsistencyError unless ``residual <= CHECK_RTOL * scale``.

    `scale` bounds the checked quantity, for example the sum of a window's
    absolute values, which bounds its transform everywhere.
    """
    bound = CHECK_RTOL * scale
    if not residual <= bound:
        raise ConsistencyError(f"{what}: residual {residual:.3g} exceeds bound {bound:.3g}")
