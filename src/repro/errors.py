"""Exception hierarchy for the :mod:`repro` package.

Every error raised by this library derives from :class:`ReproError`, so
callers can catch one type to handle any library failure.  Subsystems
raise the more specific subclasses below.
"""

from __future__ import annotations

from collections.abc import Iterable
from typing import TypeVar

_T = TypeVar("_T")


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class FittingError(ReproError):
    """A statistical model could not be fitted to the given samples.

    Raised for degenerate inputs (too few samples, zero variance, NaNs)
    and for optimisation failures that cannot be recovered by fallbacks.
    """


class ConvergenceWarningError(FittingError):
    """An iterative fit (EM, moment matching) failed to converge."""


class ParameterError(ReproError):
    """A distribution or model received invalid parameters."""


class LibertyError(ReproError):
    """Base class for Liberty-format errors."""


class LibertySyntaxError(LibertyError):
    """The Liberty source text could not be tokenised or parsed.

    Carries the 1-based ``line`` and ``column`` of the offending token.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        location = f" at line {line}, column {column}" if line else ""
        super().__init__(f"{message}{location}")
        self.line = line
        self.column = column


class LibertySemanticError(LibertyError):
    """The Liberty AST is well-formed but semantically inconsistent.

    Examples: a LUT whose value count does not match its index lengths,
    an LVF2 group missing a mandatory companion attribute.
    """


class LibertyWriteError(LibertyError):
    """A Liberty export did not land safely on disk.

    Raised when the post-write verification finds a short (truncated)
    file or when flushing the data to stable storage (fsync) fails —
    a truncated ``.lib`` silently poisons every downstream STA run, so
    the writer checks and refuses instead.
    """


class CharacterizationError(ReproError):
    """A Monte-Carlo characterisation run could not be completed."""


class CheckpointError(ReproError):
    """A checkpoint store entry is unreadable or inconsistent.

    Raised when a stored payload cannot be deserialised or its recorded
    request token does not match the request being resumed.
    """


class SSTAError(ReproError):
    """A statistical timing-analysis operation failed.

    Examples: propagating through a graph with cycles, or querying an
    arrival time for a node that was never reached.
    """


class ExperimentError(ReproError):
    """An experiment driver received an inconsistent configuration."""


#: Exit code per error family; the most specific ancestor wins.  Code 1
#: is reserved for unclassified :class:`ReproError` values.  Lives here
#: (not in the CLI) so pool workers can exit with their error family's
#: code and the parent can aggregate them without importing the CLI.
EXIT_CODES: dict[type[ReproError], int] = {
    ParameterError: 2,
    FittingError: 3,
    LibertyError: 4,
    CharacterizationError: 5,
    SSTAError: 6,
    ExperimentError: 7,
    CheckpointError: 8,
}


def exit_code_for(error: ReproError) -> int:
    """Map an error to its family's exit code (1 for the base class)."""
    for klass in type(error).__mro__:
        if klass in EXIT_CODES:
            return EXIT_CODES[klass]
    return 1


def raise_first(outcomes: Iterable[_T | Exception]) -> list[_T]:
    """The outcomes of a batch fit, or the first row's error.

    Every ``fit_batch`` returns one entry per row: the row's result or
    the exception its fit raised.  A fail-fast caller passes them here
    and gets them back as a list, or the first exception in row order
    raised — the error a per-row loop would have stopped on.
    """
    results = list(outcomes)
    for outcome in results:
        if isinstance(outcome, Exception):
            raise outcome
    return results  # type: ignore[return-value]
