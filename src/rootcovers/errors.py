"""Shared exception types.

The CLI maps these onto distinct exit codes, so keep the hierarchy flat
and the meanings sharp.
"""


class RootCoversError(Exception):
    """Base class for all errors raised by this package."""


class ValidationError(RootCoversError):
    """An arrangement, partition, or input file violates a structural rule.

    `code` is a short machine-readable tag (e.g. "d-point", "block-gcd",
    "block-size", "line-pairs") so callers can distinguish diagnostics.
    """

    def __init__(self, code: str, message: str):
        super().__init__(message)
        self.code = code


class FileFormatError(ValidationError):
    """A data file could not be parsed; message carries a line number."""

    def __init__(self, message: str):
        super().__init__("file-format", message)


class BudgetError(RootCoversError):
    """An exact computation would exceed its configured time/memory budget."""


class EmptySolutionSetError(RootCoversError):
    """The weighted-partition system has no positive solutions."""


class ExceptionalVanishes(RootCoversError):
    """A blow-up divisor received multiplicity 0 mod p; reject the solution."""


class ExhaustedTries(RootCoversError):
    """Rejection sampling failed to find an acceptable solution in time."""

    def __init__(self, tries: int):
        super().__init__(f"no good solution found after {tries} tries")
        self.tries = tries


class ConsistencyError(RootCoversError):
    """An internal cross-check failed; this signals a bug, never bad input."""


class NonIntegral(ConsistencyError):
    """An invariant that must be an integer came out fractional.

    CoverSpec refuses cover data with no p-th root before any evaluation,
    so this too is a bug, never bad input.
    """
