"""Exception types shared across the package."""


class TauIdealError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(TauIdealError):
    """Vectors or objects of incompatible dimensions were combined."""


class ZeroVectorError(TauIdealError):
    """An operation that needs a nonzero vector received zero."""


class ConeNotPointedError(TauIdealError):
    """The cone contains a line."""


class ConeNotFullDimensionalError(TauIdealError):
    """The cone is contained in a proper linear subspace."""


class NotQGorensteinError(TauIdealError):
    """No rational vector pairs to 1 against every cone generator."""


class RingMismatchError(TauIdealError):
    """Two ideals living in different rings were combined."""


class UnsupportedRingError(TauIdealError):
    """The operation is only implemented for polynomial (orthant) rings."""


class SemigroupMembershipError(TauIdealError):
    """An exponent vector lies outside the coordinate semigroup."""


class NotStabilizedError(TauIdealError):
    """A finite-q oracle did not stabilize within the examined range."""


class InvariantError(TauIdealError):
    """An internal consistency check failed: a bug, not bad input."""


class InputError(TauIdealError):
    """Malformed user input (files, flags, parameters)."""
