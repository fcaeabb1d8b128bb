"""Exception types shared across the package."""


class SizeGuardError(Exception):
    """An exhaustive computation was requested beyond the configured guard."""


class ShapeError(ValueError):
    """Operands belong to different towers, sizes or representation flags."""


class SpringerUndefinedError(ValueError):
    """The requested Springer morphism is not defined for this group."""


class VerificationError(Exception):
    """A checked invariant of the construction failed: the tables built
    from this group would be wrong.  The CLI reports it with exit code 2."""


class NonIntegralityError(VerificationError):
    """An orbit sum failed to divide exactly; this would falsify the theory."""
