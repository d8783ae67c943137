"""Exception types shared across the package, and the rank refusal."""


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


def require_three_flavors(what: str, n: int, blocks=None) -> None:
    """Refuse ranks other than n = 3: ``what`` covers the three-flavor chain
    only.  Given a basis label's ``blocks``, there must be two of them."""
    if n != 3 or (blocks is not None and len(blocks) != 2):
        got = f"n = {n}" if blocks is None else f"n = {n}, blocks {blocks}"
        raise UnsupportedRankError(
            f"{what} covers the three-flavor chain only (n = 3), got {got}")
