"""Exception types shared across the package."""


class ModelError(ValueError):
    """A model, unit declaration, or input violates its schema or invariants."""


class NumericalError(RuntimeError):
    """A numerical routine failed or produced an out-of-contract result."""


class EvaluationError(NumericalError):
    """A model function returned a non-finite value.

    Carries the offending input point so a failed quadrature or
    finite-difference run can be traced back to a concrete evaluation.
    """

    def __init__(self, message, point=None):
        super().__init__(message)
        self.point = point
