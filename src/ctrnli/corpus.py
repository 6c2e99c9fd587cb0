"""Loading, validation, and premise resolution for the trial corpus.

A corpus is a set of clinical trial records, each with four named sections of
pre-segmented sentences. Claims reference one or two records plus a section,
and resolve to a flat, ordered premise document whose global sentence indices
are what every downstream component (selection, gating, metrics) speaks in.
"""

from __future__ import annotations

import json
import logging
import os
import reprlib
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Mapping

from .errors import CtrnliError, EvidenceIndexOutOfRange, IoError, MalformedJson
from .nn import is_count

logger = logging.getLogger(__name__)

SECTION_NAMES = ("eligibility", "intervention", "results", "adverse_events")
LABELS = ("Entailment", "Contradiction")

PRIMARY_PREFIX = "primary trial:"
SECONDARY_PREFIX = "secondary trial:"


def normalize_text(text: str) -> str:
    """NFC-normalize and collapse whitespace runs to single spaces.

    Text that is already normal is returned as is: ``isprintable()`` is false
    for every whitespace character but the space, so printable NFC text with
    no leading, trailing or doubled space is its own normal form.
    """
    if (
        text.isprintable()
        and not text.startswith(" ")
        and not text.endswith(" ")
        and "  " not in text
        and unicodedata.is_normalized("NFC", text)
    ):
        return text
    return " ".join(unicodedata.normalize("NFC", text).split())


@dataclass(frozen=True)
class ClinicalTrialRecord:
    """One trial report: four fixed sections of pre-segmented sentences."""

    ctr_id: str
    sections: Mapping[str, tuple[str, ...]]

    def to_json_obj(self) -> dict:
        return {
            "ctr_id": self.ctr_id,
            "sections": {name: list(self.sections[name]) for name in SECTION_NAMES},
        }


@dataclass(frozen=True)
class ClaimInstance:
    """A claim to verify against one trial (single) or two (comparison)."""

    claim_id: str
    text: str
    section_id: str
    primary_ctr: str
    secondary_ctr: str | None = None
    gold_label: str | None = None
    gold_evidence: Mapping[str, frozenset[int]] | None = None
    challenge: str | None = None

    @property
    def ctr_ids(self) -> tuple[str, ...]:
        if self.secondary_ctr is not None:
            return (self.primary_ctr, self.secondary_ctr)
        return (self.primary_ctr,)

    def to_json_obj(self) -> dict:
        obj: dict = {
            "claim_id": self.claim_id,
            "text": self.text,
            "section_id": self.section_id,
            "primary_ctr": self.primary_ctr,
        }
        if self.secondary_ctr is not None:
            obj["secondary_ctr"] = self.secondary_ctr
        if self.gold_label is not None:
            obj["label"] = self.gold_label
        if self.gold_evidence is not None:
            obj["evidence"] = {ctr: sorted(idx) for ctr, idx in self.gold_evidence.items()}
        if self.challenge is not None:
            obj["challenge"] = self.challenge
        return obj


@dataclass(frozen=True)
class PremiseDoc:
    """The ordered candidate sentences a claim is judged against.

    A sentence's global index is its position in ``texts``; for comparison
    claims every primary-trial sentence precedes every secondary-trial
    sentence. ``spans`` maps each trial to the half-open range of its
    sentences.
    """

    texts: tuple[str, ...]
    spans: Mapping[str, tuple[int, int]]

    @property
    def n(self) -> int:
        return len(self.texts)

    def to_global(self, ctr_id: str, local_index: int) -> int:
        """Global index of a trial's local sentence index; an index past that
        trial's sentences raises instead of landing on the next trial's."""
        start, end = self.spans[ctr_id]
        if not 0 <= local_index < end - start:
            raise EvidenceIndexOutOfRange(
                f"evidence index {local_index} is outside the section of trial '{shown_id(ctr_id)}'"
            )
        return start + local_index


# --- loading -----------------------------------------------------------------


def shown_path(path) -> str:
    """``path`` as a one-line error shows it: whole up to 120 characters, else its ends."""
    text = str(path)
    return text if len(text) <= 120 else f"{text[:58]}...{text[-58:]}"


def shown_id(text: str) -> str:
    """A claim or trial id as a refusal names it: whole up to 60 characters, else its ends."""
    return text if len(text) <= 60 else f"{text[:28]}...{text[-28:]}"


def read_json(path: str | Path, error: type[CtrnliError] = MalformedJson):
    """The JSON value of a file, streamed as UTF-8.

    A missing file raises :class:`FileNotFoundError`, any other failure to
    read it :class:`IoError`, and bytes that are not UTF-8 JSON ``error``.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except FileNotFoundError:
        raise
    except OSError as exc:
        raise IoError(f"cannot read {shown_path(path)}: {exc.strerror}") from exc
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise error(f"{shown_path(path)}: {exc}") from exc


def write_text(path: str | Path, text: str) -> None:
    """Write ``text`` to a file as UTF-8; any failure raises :class:`IoError`."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise IoError(f"cannot write {shown_path(path)}: {exc.strerror}") from exc


def _string(obj: dict, key: str, owner: str, optional: bool = False, what: str = "") -> str | None:
    """``obj[key]``, which must be a JSON string without a lone surrogate,
    named ``what`` (else the key) in the error; with ``optional`` a missing key
    or ``null`` gives None. A missing required key raises ``KeyError``."""
    value = obj.get(key) if optional else obj[key]
    if not isinstance(value, str) and not (optional and value is None):
        raise MalformedJson(f"{owner}: '{key}' must be a string")
    if value and not value.isascii():
        _check_text(value, owner, what or f"'{key}'")
    return value


def _check_text(text: str, owner: str, what: str) -> None:
    """Refuse ``text`` that is empty or holds a lone surrogate (a
    JSON ``\\udXXX`` escape, which no later stage can encode) as ``what`` of
    ``owner``. ASCII text holds no surrogate, and ``isascii()`` costs no
    scan, so callers check only empty or non-ASCII text."""
    if not text:
        raise MalformedJson(f"{owner}: empty {what}")
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        code = ord(text[exc.start])
        raise MalformedJson(f"{owner}: lone surrogate U+{code:04X} in {what}") from None


def parse_record(obj) -> ClinicalTrialRecord:
    """Build a validated record from one decoded JSON object."""
    if not isinstance(obj, dict):
        raise MalformedJson("trial record must be a JSON object")
    try:
        ctr_id = _string(obj, "ctr_id", "trial record")
        raw_sections = obj["sections"]
    except KeyError as exc:
        raise MalformedJson(f"trial record missing key {exc}") from exc
    owner = shown_id(ctr_id)
    if not isinstance(raw_sections, dict):
        raise MalformedJson(f"{owner}: 'sections' must be an object")

    for name in raw_sections:
        if name not in SECTION_NAMES:
            raise MalformedJson(f"{owner}: unknown section name {reprlib.repr(name)}")
    for name in SECTION_NAMES:
        if name not in raw_sections:
            raise MalformedJson(f"{owner}: missing section '{name}'")

    sections: dict[str, tuple[str, ...]] = {}
    for name in SECTION_NAMES:
        sents = raw_sections[name]
        if not isinstance(sents, list):
            raise MalformedJson(f"{owner}: section '{name}' must be a list of strings")
        texts = []
        for i, sent in enumerate(sents):
            if not isinstance(sent, str):
                raise MalformedJson(f"{owner}: section '{name}' must be a list of strings")
            text = normalize_text(sent)
            if not text or not text.isascii():
                _check_text(text, owner, f"sentence at {name}[{i}]")
            texts.append(text)
        sections[name] = tuple(texts)
    return ClinicalTrialRecord(ctr_id=ctr_id, sections=sections)


def load_corpus(path: str | Path) -> dict[str, ClinicalTrialRecord]:
    """Load every trial record from a JSON file or a directory of them.

    A file may hold a single record object or a list of record objects; a
    directory is scanned for ``*.json`` files in sorted order. Duplicate
    record identifiers are an error.
    """
    path = Path(path)
    files = sorted(path.glob("*.json")) if os.path.isdir(path) else [path]
    corpus: dict[str, ClinicalTrialRecord] = {}
    for fp in files:
        data = read_json(fp)
        objs = data if isinstance(data, list) else [data]
        for obj in objs:
            record = parse_record(obj)
            if record.ctr_id in corpus:
                raise MalformedJson(
                    f"duplicate ctr_id '{shown_id(record.ctr_id)}' in {shown_path(fp)}"
                )
            corpus[record.ctr_id] = record
    return corpus


def parse_claim(obj) -> ClaimInstance:
    """Build a structurally validated claim from one decoded JSON object."""
    if not isinstance(obj, dict):
        raise MalformedJson("claim must be a JSON object")
    try:
        claim_id = _string(obj, "claim_id", "claim")
        owner = shown_id(claim_id)
        raw_text = _string(obj, "text", owner, what="claim text")
        section_id = _string(obj, "section_id", owner)
        primary_ctr = _string(obj, "primary_ctr", owner)
    except KeyError as exc:
        raise MalformedJson(f"claim missing key {exc}") from exc
    if section_id not in SECTION_NAMES:
        raise MalformedJson(f"{owner}: unknown section_id {reprlib.repr(section_id)}")
    text = normalize_text(raw_text)  # normalizing makes no surrogate
    if not text:
        raise MalformedJson(f"{owner}: empty claim text")

    secondary_ctr = _string(obj, "secondary_ctr", owner, optional=True)
    if secondary_ctr == primary_ctr:
        raise MalformedJson(f"{owner}: a comparison needs two different trials")

    label = obj.get("label")
    if label is not None and label not in LABELS:
        raise MalformedJson(f"{owner}: unknown label {reprlib.repr(label)}")

    evidence = obj.get("evidence")
    gold_evidence = None
    if evidence is not None:
        if not isinstance(evidence, dict):
            raise MalformedJson(f"{owner}: 'evidence' must be an object")
        own_ctrs = {primary_ctr} | ({secondary_ctr} if secondary_ctr else set())
        gold_evidence = {}
        for ctr, idxs in evidence.items():
            if ctr not in own_ctrs:
                raise MalformedJson(
                    f"{owner}: evidence references '{shown_id(ctr)}', not one of the claim's trials"
                )
            if not isinstance(idxs, list) or not all(is_count(i, 0) for i in idxs):
                raise MalformedJson(f"{owner}: evidence indices must be non-negative ints")
            gold_evidence[ctr] = frozenset(idxs)

    return ClaimInstance(
        claim_id=claim_id,
        text=text,
        section_id=section_id,
        primary_ctr=primary_ctr,
        secondary_ctr=secondary_ctr,
        gold_label=label,
        gold_evidence=gold_evidence,
        challenge=_string(obj, "challenge", owner, optional=True),
    )


def check_unique_claim_ids(claim_ids: Iterable[str], where: str) -> None:
    """Raise :class:`CtrnliError` on the first id that occurs twice."""
    seen: set[str] = set()
    for claim_id in claim_ids:
        if claim_id in seen:
            raise CtrnliError(f"duplicate claim_id '{shown_id(claim_id)}' in {shown_path(where)}")
        seen.add(claim_id)


def load_claims(
    path: str | Path,
    split: str | None = None,
    corpus: Mapping[str, ClinicalTrialRecord] | None = None,
    lenient: bool = False,
) -> list[ClaimInstance]:
    """Load one split of claims.

    ``path`` is either the claim file itself or a directory holding
    ``{split}.json``. When ``corpus`` is given, claims whose trial references
    are missing raise :class:`CtrnliError` after the whole file is
    scanned, carrying the full list of offenders; with ``lenient`` set they
    are skipped instead, with one warning naming them all. A repeated
    ``claim_id`` raises :class:`CtrnliError`.
    """
    path = Path(path)
    if os.path.isdir(path):
        if split is None:
            raise ValueError("split is required when path is a directory")
        path = path / f"{split}.json"

    data = read_json(path)
    if not isinstance(data, list):
        raise MalformedJson(f"{shown_path(path)}: claim file must be a JSON list")

    parsed = [parse_claim(obj) for obj in data]
    check_unique_claim_ids((claim.claim_id for claim in parsed), str(path))
    claims: list[ClaimInstance] = []
    dangling: list[str] = []
    for claim in parsed:
        if corpus is not None and any(c not in corpus for c in claim.ctr_ids):
            dangling.append(shown_id(claim.claim_id))
        else:
            claims.append(claim)
    if dangling:
        message = f"{len(dangling)} claim(s) reference missing trials: {', '.join(dangling)}"
        if not lenient:
            raise CtrnliError(message)
        logger.warning("%s; skipped", message)
    return claims


# --- premise resolution ------------------------------------------------------


def resolve_premise(
    claim: ClaimInstance,
    corpus: Mapping[str, ClinicalTrialRecord],
    inject_arm_prefix: bool = False,
) -> PremiseDoc:
    """Resolve a claim to its ordered candidate-sentence list.

    Only the claim's own section contributes. Comparison claims concatenate
    the primary trial's sentences first, then the secondary trial's, with
    global indices running contiguously across the boundary. With
    ``inject_arm_prefix`` set, comparison-claim sentences get a textual
    "primary trial:" / "secondary trial:" role marker so an encoder can tell
    the two trials apart.
    """
    texts: tuple[str, ...] = ()
    spans: dict[str, tuple[int, int]] = {}
    roles = [(claim.primary_ctr, PRIMARY_PREFIX)]
    if claim.secondary_ctr is not None:
        roles.append((claim.secondary_ctr, SECONDARY_PREFIX))
    for ctr_id, prefix in roles:
        if ctr_id not in corpus:
            raise CtrnliError(
                f"claim {shown_id(claim.claim_id)}: missing trial '{shown_id(ctr_id)}'"
            )
        section = corpus[ctr_id].sections[claim.section_id]
        if inject_arm_prefix and claim.secondary_ctr is not None:
            section = tuple(f"{prefix} {text}" for text in section)
        spans[ctr_id] = (len(texts), len(texts) + len(section))
        texts += tuple(section)
    return PremiseDoc(texts=texts, spans=spans)


def require_sentences(claim: ClaimInstance, premise: PremiseDoc) -> PremiseDoc:
    """``premise``, which training and prediction refuse when it has no sentence."""
    if premise.n == 0:
        raise CtrnliError(f"claim {shown_id(claim.claim_id)} resolved to an empty premise")
    return premise


def gold_evidence_globals(claim: ClaimInstance, premise: PremiseDoc) -> frozenset[int]:
    """Map a claim's per-trial gold evidence (required) onto the premise's global indices."""
    if claim.gold_evidence is None:
        raise CtrnliError(f"claim {shown_id(claim.claim_id)} has no gold evidence")
    try:
        return frozenset(
            premise.to_global(ctr_id, loc)
            for ctr_id, locals_ in claim.gold_evidence.items()
            for loc in locals_
        )
    except EvidenceIndexOutOfRange as exc:
        raise EvidenceIndexOutOfRange(f"claim {shown_id(claim.claim_id)}: {exc}") from None


# --- whole-dataset validation -------------------------------------------------


@dataclass(frozen=True)
class Violation:
    code: str
    detail: str
    claim_id: str


@dataclass
class ValidationReport:
    violations: list[Violation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def render(self) -> str:
        if self.ok:
            return "dataset valid: 0 violations"
        lines = [f"dataset invalid: {len(self.violations)} violation(s)"]
        for v in self.violations:
            lines.append(f"  {v.code} [{shown_id(v.claim_id)}] {v.detail}")
        return "\n".join(lines)


def validate_dataset(
    corpus: Mapping[str, ClinicalTrialRecord], claims: Iterable[ClaimInstance]
) -> ValidationReport:
    """Check the claims against the corpus, reporting instead of raising.

    ``parse_record`` and ``parse_claim`` already refuse malformed records and
    claims; what is left to check are the cross-references and the claim ids,
    surfaced in one pass: duplicate claim ids, trials missing from the corpus,
    premises without a sentence and gold evidence indices outside their section.
    """
    report = ValidationReport()
    seen: set[str] = set()
    for claim in claims:
        if claim.claim_id in seen:
            report.violations.append(
                Violation("DuplicateClaimId", "claim_id used by an earlier claim", claim.claim_id)
            )
        seen.add(claim.claim_id)
        missing = [c for c in claim.ctr_ids if c not in corpus]
        for ctr in missing:
            report.violations.append(
                Violation("DanglingCtrReference", f"missing trial '{shown_id(ctr)}'",
                          claim.claim_id)
            )
        if not missing and not any(corpus[c].sections[claim.section_id] for c in claim.ctr_ids):
            report.violations.append(
                Violation("EmptyPremise", f"no sentence in {claim.section_id}", claim.claim_id)
            )
        for ctr, idxs in (claim.gold_evidence or {}).items():
            if ctr not in corpus:
                continue  # already reported as dangling
            n = len(corpus[ctr].sections[claim.section_id])
            for i in idxs:
                if not 0 <= i < n:
                    report.violations.append(
                        Violation(
                            "EvidenceIndexOutOfRange",
                            f"index {i} outside {claim.section_id} of '{ctr}' (n={n})",
                            claim.claim_id,
                        )
                    )
    return report


# --- serialization helpers ----------------------------------------------------


def dump_corpus(corpus: Mapping[str, ClinicalTrialRecord], path: str | Path) -> None:
    """Write a corpus back to one JSON file (sorted by ctr_id)."""
    records = [corpus[cid].to_json_obj() for cid in sorted(corpus)]
    write_text(path, json.dumps(records, indent=2, sort_keys=True))


def dump_claims(claims: Iterable[ClaimInstance], path: str | Path) -> None:
    """Write claims to one JSON file, preserving order."""
    objs = [c.to_json_obj() for c in claims]
    write_text(path, json.dumps(objs, indent=2, sort_keys=True))
