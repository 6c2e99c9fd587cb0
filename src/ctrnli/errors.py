"""Exception taxonomy shared across the package.

Every error raised by ctrnli derives from :class:`CtrnliError` so callers can
catch one base class at the CLI boundary and map it to an exit code.
"""

from __future__ import annotations


class CtrnliError(Exception):
    """Base class for all ctrnli errors."""


# --- corpus / data errors -------------------------------------------------


class MalformedJson(CtrnliError):
    """A data file is not valid JSON or does not match the expected schema."""


class MissingSection(CtrnliError):
    """A trial record lacks one of the four required sections."""


class UnknownSectionName(CtrnliError):
    """A trial record carries a section name outside the allowed four."""


class DuplicateCtrId(CtrnliError):
    """Two trial records share the same identifier."""


class DuplicateClaimId(CtrnliError):
    """Two claims, or two predictions in one list, share the same identifier."""


class EmptySentence(CtrnliError):
    """A section sentence is empty after whitespace normalization."""


class DanglingCtrReference(CtrnliError):
    """A claim references a trial identifier absent from the corpus."""


class EvidenceIndexOutOfRange(CtrnliError):
    """A gold evidence index lies past the end of its trial's section."""


# --- encoding errors ------------------------------------------------------


class EmptyText(CtrnliError):
    """Text to tokenize is empty after normalization."""


class ClaimAloneExceedsMaxLen(CtrnliError):
    """The claim does not fit in the sequence budget even by itself."""


class EmptySpan(CtrnliError):
    """A token span to pool is empty or out of bounds."""


class BackendUnavailable(CtrnliError):
    """The requested encoder backend cannot be constructed."""


# --- model / training errors ----------------------------------------------


class EmptyPremise(CtrnliError):
    """A premise with zero candidate sentences was given to the scorer."""


class EmptyEvidence(CtrnliError):
    """The entailment classifier received zero evidence sentences."""


class MissingGold(CtrnliError):
    """A gold label or gold evidence annotation is required but absent."""


class MissingGoldEvidence(MissingGold):
    """Gold evidence indices are required but absent."""


class MissingGoldLabel(MissingGold):
    """A gold entailment label is required but absent."""


class NonFiniteParameters(CtrnliError):
    """Training diverged: a step's loss or a model to be saved is NaN or infinite."""


# --- ensemble / metrics errors ---------------------------------------------


class MismatchedClaim(CtrnliError):
    """Two predictions being combined do not cover the same claim."""


class MismatchedPremiseLength(CtrnliError):
    """Two predictions being combined disagree on the premise length."""


class LengthMismatch(CtrnliError):
    """A prediction and its gold counterpart disagree on premise length."""


class IncompleteCoverage(CtrnliError):
    """A prediction list leaves labelled gold claims without a prediction."""


# --- persistence errors -----------------------------------------------------


class BadCheckpoint(CtrnliError):
    """A checkpoint directory is missing pieces or internally inconsistent."""


class IoError(CtrnliError):
    """Reading or writing an artifact file failed."""
