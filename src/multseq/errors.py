"""Shared error types."""

from __future__ import annotations


class EngineLimit(RuntimeError):
    """A configured resource cap was hit before the computation finished."""


class NonHomogeneousInput(ValueError):
    """Graded machinery was asked to work on non-homogeneous data."""


class PreconditionError(ValueError):
    """An operation's stated precondition does not hold for the input."""


class StabilizationError(RuntimeError):
    """Finite differences failed to stabilize within the values computed."""


class SearchExhausted(RuntimeError):
    """A randomized search used all its trials; carries per-trial records."""

    def __init__(self, message: str, trials=None):
        super().__init__(message)
        self.trials = trials or []
