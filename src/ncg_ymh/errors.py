"""Exception types shared across the package."""


class NcgError(Exception):
    """Base class for all package errors."""


class NonFourDimensional(NcgError):
    """Signature (p, q) with p + q != 4 fed to the 4d pipeline."""


class ConjugationNotFound(NcgError):
    """No monomial candidate satisfies the charge-conjugation relations.

    This signals a bug in the gamma representation, not a user error.
    """


class DimensionMismatch(NcgError):
    """Operands act on spaces of different dimensions."""


class NotSelfAdjoint(NcgError):
    """An operator required to be self-adjoint is not."""


class NotFlat(NcgError):
    """Operation requires flat data (no triple-index blocks, no S fields)."""


class NotRiemannian(NcgError):
    """Operation requires the (0, 4) signature."""


class UnstableAction(NcgError):
    """Action non-finite or diverged, at the start of a chain or after any sweep."""
