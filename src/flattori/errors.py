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


class BudgetExceededError(FlatToriError):
    """The Lagrangian splitting search ran out of its node budget.

    Carries the nodes used and the budget, so the caller can report how far
    the search got.
    """

    def __init__(self, message, nodes_used, budget):
        super().__init__(message)
        self.nodes_used = nodes_used
        self.budget = budget


class TruncationError(FlatToriError):
    """A requested mode or state does not fit in the truncated Fock space."""


class InconsistencyError(FlatToriError):
    """An internal cross-check failed; this always indicates a bug."""
