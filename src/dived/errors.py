"""Shared exception types."""


class DivedError(Exception):
    """Base class for all errors raised by this package."""


class EventInputError(DivedError, ValueError):
    """An event lacks what a step needs (a definition, or samples to prune by).
    ``event`` names it; the CLI names the dataset line that holds it."""

    def __init__(self, event: str, message: str):
        super().__init__(message)
        self.event = event
