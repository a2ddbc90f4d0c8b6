"""The toolkit's errors: one type per exit code of the command line, which
prints ``error: <message>`` and exits 2 for an input the planner cannot use
(``ConfigError``), 3 for a manifest it cannot read (``ManifestError``) and 4
for a plan that does not fit (``InfeasibleError``). A subclass exists only
where a caller tells it apart: forecast leaves out a comparison that
``MissingAnchorError`` names and ``--fail-on-oom`` adds its message to the
fit's, and ``MalformedRowError`` carries its line."""

from __future__ import annotations

from contextlib import contextmanager
from typing import Iterator


class FedspeechError(Exception):
    """Base class for all toolkit errors; the command line exits with its
    ``exit_code``."""
    exit_code = 2


class ConfigError(FedspeechError):
    """An input the planner cannot use: a flag, config value, specification
    field, count or output path (exit 2)."""


class MissingAnchorError(ConfigError):
    """No measured anchor for the requested architecture and precision, or a
    device without support for the precision."""


class ManifestError(FedspeechError):
    """A manifest that cannot be opened, read or used (exit 3)."""
    exit_code = 3


class MalformedRowError(ManifestError):
    """A manifest row that cannot be parsed; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class InfeasibleError(FedspeechError):
    """A requested plan found infeasible, such as a failed memory fit (exit 4)."""
    exit_code = 4


@contextmanager
def allocating(what: str) -> Iterator[None]:
    """Around statements that only allocate: a ``MemoryError``, or numpy's
    ``ValueError`` for more bytes than an index holds, becomes
    ``ConfigError("<what> cannot be allocated")``; ``what`` names counts."""
    try:
        yield
    except (MemoryError, ValueError):
        raise ConfigError(f"{what} cannot be allocated") from None
