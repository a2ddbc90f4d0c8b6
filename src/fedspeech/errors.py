"""Exception types shared across the toolkit."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class FedspeechError(Exception):
    """Base class for all toolkit errors; the command line exits with its
    ``exit_code``."""
    exit_code = 2


class ConfigError(FedspeechError):
    """Invalid configuration file, flag value, or specification field."""


class DegenerateInputError(FedspeechError):
    """An input too short (or otherwise degenerate) for the requested operation."""


class MalformedRowError(FedspeechError):
    """A manifest row that cannot be parsed; carries the 1-based line number."""
    exit_code = 3

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class MissingColumnError(FedspeechError):
    """A required manifest column is absent."""
    exit_code = 3


class UnreadableManifestError(FedspeechError):
    """A manifest that cannot be opened or read."""
    exit_code = 3


class TooFewSpeakersError(FedspeechError):
    """Fewer distinct speakers than requested client partitions."""


class InvalidSampleSizeError(FedspeechError):
    """Round scheduling parameters that cannot produce a valid schedule."""


class MissingAnchorError(FedspeechError):
    """No measured anchor matches the requested architecture and precision."""


class UnsupportedPrecisionError(FedspeechError):
    """The device does not support the requested numerical precision."""


class EmptyUpdateSetError(FedspeechError):
    """Aggregation was asked to combine zero client updates."""


class DimensionMismatchError(FedspeechError):
    """Client weight vectors of unequal dimension."""


class InvalidRatioError(FedspeechError):
    """A slow/fast time ratio below 1, for which no parity forecast exists."""


class InfeasibleError(FedspeechError):
    """A requested plan was found infeasible (for example a failed memory fit)."""
    exit_code = 4


class AllocationError(FedspeechError):
    """Arrays for the requested counts that cannot be allocated."""


@contextmanager
def allocating(what: str) -> Iterator[None]:
    """Around statements that only allocate: a ``MemoryError``, or numpy's
    ``ValueError`` for more bytes than an index holds, becomes
    ``AllocationError("<what> cannot be allocated")``; ``what`` names counts."""
    try:
        yield
    except (MemoryError, ValueError):
        raise AllocationError(f"{what} cannot be allocated") from None
