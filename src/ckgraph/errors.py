"""Exception types shared across the package."""


class DomainError(ValueError):
    """An evaluation point left the admissible flow interval or chart."""


class ParameterError(ValueError):
    """A user-supplied parameter violates its documented constraint."""


class MeshError(ValueError):
    """The mesh is malformed (non-conforming, misoriented, empty boundary)."""


class SchemaError(ValueError):
    """A problem file failed schema validation."""


class SingularSystemError(RuntimeError):
    """The sparse linear system is structurally or numerically singular."""


class NewtonStallError(RuntimeError):
    """Newton failed to converge; carries the best iterate seen."""

    def __init__(self, message, best_iterate, iterations, residual_norm):
        super().__init__(message)
        self.best_iterate = best_iterate
        self.iterations = iterations
        self.residual_norm = residual_norm
