"""Exception types shared across the package."""


class ShacalcError(Exception):
    """Base class for all errors raised by this package."""


class StructuralError(ShacalcError):
    """Invalid mathematical input: ragged matrices, non-bijective
    permutations, ill-defined homomorphisms, torsion where a free module
    is required, non-composable maps, and the like."""


class ResourceError(ShacalcError):
    """A computation was refused because it exceeds a configured budget
    (group order bound, cochain dimension cap)."""

    def __init__(self, message: str, *, dimension: int | None = None):
        super().__init__(message)
        self.dimension = dimension


class InternalError(ShacalcError):
    """An internal consistency check failed: the inputs were valid, but a
    computed result contradicts a cross-check or a re-verification.  This
    is a defect in the package, never a property of the input.  The
    optional ``certificate`` names the failed check and what it saw."""

    def __init__(self, message: str, *, certificate: dict | None = None):
        super().__init__(message)
        self.certificate = certificate


class InputError(ShacalcError):
    """Malformed problem file or CLI arguments.  Carries a JSON-path-like
    pointer to the offending location when one is known."""

    def __init__(self, message: str, *, path: str = "$"):
        super().__init__(message)
        self.path = path
