"""Exception types raised across the ssdr package.

Every error carries a human-readable message; some carry structured context
(failing pivot, CSV line number, solver residuals) so callers can report or
recover without parsing strings.
"""

from __future__ import annotations

import copyreg


class SsdrError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message: str, *, class_id: int | None = None):
        super().__init__(message)
        self.class_id = None
        if class_id is not None:
            self.attach_class(class_id)

    def attach_class(self, class_id: int) -> None:
        """Name the class the error arose in, unless one is named already."""
        if self.class_id is None:
            self.class_id = class_id
            self.args = (f"class {class_id}: {self.args[0]}",) + self.args[1:]

    def __reduce__(self):
        # Rebuild without __init__: subclasses take required keyword
        # arguments, and the stored message already carries its prefixes.
        # Worker processes send errors to the parent by pickling them.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidInputError(SsdrError, ValueError):
    """Malformed input: wrong shape, empty matrix, NaN/Inf, bad parameter.

    ``field`` names the settings field holding a bad parameter, when known.
    """

    def __init__(self, message: str, *, field: str | None = None,
                 class_id: int | None = None):
        super().__init__(message, class_id=class_id)
        self.field = field


class NotSpdError(SsdrError):
    """A matrix required to be symmetric positive definite is not.

    ``pivot`` is the zero-based index of the first non-positive pivot found
    by the Cholesky factorization, or None when detected by other means.
    """

    def __init__(self, message: str, *, pivot: int | None = None,
                 class_id: int | None = None):
        super().__init__(message, class_id=class_id)
        self.pivot = pivot


class SampleSizeError(SsdrError):
    """A class has too few observations for the requested operation."""


class StratificationError(SampleSizeError):
    """A class is smaller than the number of cross-validation folds."""


class DegenerateFeatureError(SsdrError):
    """A feature column has zero variance and jitter is disabled.

    ``column`` is the zero-based index of the offending feature.
    """

    def __init__(self, message: str, *, column: int):
        super().__init__(message)
        self.column = column


class DegeneracyError(SsdrError):
    """Shrinkage coefficients are undefined (target proportional to S^-1)."""


class NumericalDomainError(SsdrError):
    """An intermediate quantity left its valid numerical domain."""


class ConvergenceError(SsdrError):
    """Iterative solver failed to converge within the iteration budget.

    Carries the last primal and dual residuals.
    """

    def __init__(self, message: str, *, primal: float, dual: float,
                 iterations: int, class_id: int | None = None):
        super().__init__(message, class_id=class_id)
        self.primal = primal
        self.dual = dual
        self.iterations = iterations


class CsvParseError(SsdrError):
    """CSV ingestion failure; ``line`` is the 1-based line number."""

    def __init__(self, message: str, *, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class TuningError(SsdrError):
    """Every candidate tuning parameter failed during the grid search."""


class TheoremInapplicableError(SsdrError):
    """The discriminant matrix is full rank, so no exact reduction exists."""


class SchemaVersionError(SsdrError):
    """A report file was written with an incompatible schema version."""
