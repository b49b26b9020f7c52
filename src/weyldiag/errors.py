"""Exception hierarchy shared by the library and the command line tool."""


class WeylDiagError(Exception):
    """Base class for all errors raised by this package."""


class UsageError(WeylDiagError):
    """Malformed textual input (bad token in a word, diagram or grid string)."""


class DomainError(WeylDiagError):
    """Arguments outside an operation's domain (bad index, non-root vector, ...)."""


class InvalidRankError(DomainError):
    """Rank not admissible for the requested family."""

    def __init__(self, family: str, rank: int, allowed: str):
        self.family = family
        self.rank = rank
        self.allowed = allowed
        super().__init__(f"no root system {family}{rank}: family {family} needs {allowed}")


class NotReducedError(WeylDiagError):
    """A word required to be reduced is not."""


class SizeCapError(WeylDiagError):
    """A command that walks a word's diagrams was given a word longer than
    the configured cap.  The cap bounds the word length t; the message
    states it as the 2^t diagrams of such a word."""
