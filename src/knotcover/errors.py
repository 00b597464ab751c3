"""Error types shared across the package."""


class KnotcoverError(Exception):
    """Base class for all package-specific errors."""


class ParseError(KnotcoverError, ValueError):
    """Malformed textual input.  Carries the offending location when known."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        self.line = line
        self.col = col
        if line is not None:
            message = f"line {line}, col {col}: {message}"
        super().__init__(message)


class InvalidArgumentError(KnotcoverError, ValueError):
    """A numeric argument outside the domain of a computation, such as a
    stage count below 1."""


class CapacityError(KnotcoverError, RuntimeError):
    """A computation exceeded its configured size cap."""


class MissingAssignmentError(KnotcoverError, KeyError):
    """A word mentions a generator the assignment does not cover."""

    def __init__(self, name: str):
        self.name = name
        super().__init__(f"no image assigned for generator {name!r}")

    def __str__(self) -> str:
        return self.args[0]


class InvalidHomomorphismError(KnotcoverError, ValueError):
    """An assignment fails to satisfy the relators of a presentation."""


class TableIntegrityError(KnotcoverError, ValueError):
    """A coset table is not closed, not consistent, or not transitive."""
