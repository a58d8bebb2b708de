"""Exception types shared across the package."""

from __future__ import annotations


class ValidationError(ValueError):
    """Bad user input: malformed graph, unstable heights, invalid rung, ..."""


class FeasibilityError(RuntimeError):
    """A requested computation exceeds a configured size cap."""


class InternalInvariantError(AssertionError):
    """A structural invariant the algorithms rely on was violated."""


class StepCapExceeded(RuntimeError):
    """Toppling ran past its step cap; carries the partial state observed.

    Attributes:
        odometer: per-site toppling counts accumulated so far.
        heights:  the (unstable) height configuration when the cap hit.
    """

    def __init__(self, message, odometer=None, heights=None):
        super().__init__(message)
        self.odometer = odometer
        self.heights = heights
