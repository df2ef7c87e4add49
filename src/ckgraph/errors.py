"""Exception types shared across the package, and how an input error names
its place: the file it could not read, or a prefix for the location."""

from contextlib import contextmanager


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


def read_input(path, error, label="", parse=None):
    """The UTF-8 text of the file at ``path`` (line ends as written), or
    ``parse`` of it (line ends as ``\\n``); ``error("cannot read {label}{path}:
    {reason}")`` when it cannot be opened, decoded or parsed."""
    try:
        with open(path, "r", encoding="utf-8", newline=None if parse else "") as fh:
            text = fh.read()
        return text if parse is None else parse(text)
    except (OSError, ValueError, RecursionError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise error(f"cannot read {label}{path}: {reason}") from exc


@contextmanager
def prefixed(prefix: str, *types):
    """Re-raise an error of ``types`` from the block as its own type, with
    ``prefix`` (the place at fault, as in ``$.H.expression: ``) first."""
    try:
        yield
    except types as exc:
        raise type(exc)(f"{prefix}{exc}") from None
