"""Exception types shared across the package."""


class FlatToriError(Exception):
    """Base class for all package errors."""


class DimensionError(FlatToriError):
    """Operands have incompatible shapes or base ranks."""


class GradeError(FlatToriError):
    """An exterior-algebra argument has the wrong grade."""


class ValidationError(FlatToriError):
    """Torus data violates one of its structural invariants."""


class SchemaError(FlatToriError):
    """A JSON payload does not match the expected schema.

    ``pointer`` names the offending field, e.g. ``"G[1][0]"``.
    """

    def __init__(self, message, pointer=""):
        super().__init__(message if not pointer else f"{message} (at {pointer})")
        self.pointer = pointer


class RecoveryError(FlatToriError):
    """Mirror-data recovery from transported structures failed.

    ``block`` names the first block equation that could not be satisfied.
    """

    def __init__(self, message, block=""):
        super().__init__(message)
        self.block = block


class TruncationError(FlatToriError):
    """A requested mode does not fit in the truncated Fock space."""


class InconsistencyError(FlatToriError):
    """An internal cross-check failed; this always indicates a bug."""
