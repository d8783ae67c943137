"""Exception types shared across the package."""


class SpinTorusError(Exception):
    """Base class for package-specific failures."""


class NonGenericSpecError(SpinTorusError, ValueError):
    """Chain parameters violate the genericity assumptions (coincident or
    resonant inhomogeneities, vanishing crossing parameter)."""


class DenseBudgetError(SpinTorusError, ValueError):
    """Requested chain exceeds the dense-storage budget."""


class PoleProximityError(SpinTorusError, ValueError):
    """Evaluation point is close to, but not exactly at, a removable pole."""


class DegenerateNormalizationError(SpinTorusError, ValueError):
    """A scalar-product formula divides by an eigenvalue that vanishes."""


class DegeneracyError(SpinTorusError, RuntimeError):
    """A joint eigenbasis could not be resolved after the retry budget."""


class InconsistencyError(SpinTorusError, RuntimeError):
    """Two independent determinations of the same quantity disagree."""


class UnsupportedRankError(SpinTorusError, ValueError):
    """The operation covers the three-flavor chain only."""
