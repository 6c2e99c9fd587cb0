"""Exception taxonomy shared across the package.

Every error raised by ctrnli derives from :class:`CtrnliError`, which the CLI
maps to exit 1. A subclass exists only where a caller or the README tells
that outcome apart: :class:`UsageError` exits 2 and
:class:`BackendUnavailable` exits 3; the rest name library outcomes.
"""

from __future__ import annotations


class CtrnliError(Exception):
    """Base class for all ctrnli errors: bad data or a failed run (exit 1)."""


class UsageError(CtrnliError):
    """Bad invocation: missing inputs, contradictory flags, a ``max_len``
    with no room for the premise (exit 2)."""


class BackendUnavailable(CtrnliError):
    """The requested encoder backend cannot be constructed (exit 3)."""


class MalformedJson(CtrnliError):
    """A data file is not valid JSON or does not match the expected schema."""


class EvidenceIndexOutOfRange(CtrnliError):
    """A gold evidence index lies past the end of its trial's section."""


class BadCheckpoint(CtrnliError):
    """A checkpoint directory is missing pieces or internally inconsistent."""


class IoError(CtrnliError):
    """Reading or writing an artifact file failed."""
