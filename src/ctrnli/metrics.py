"""Precision/recall/F1 for evidence retrieval and entailment.

Evidence retrieval is scored as binary classification over candidate
sentences (positive = the sentence is evidence), pooled across claims for
the micro view and averaged per claim for the macro view. Entailment is
scored with Entailment as the positive class, plus a macro-F1 over both
classes. The aggregation the official scorer used is not documented, so
reports always carry both micro and macro evidence numbers.
"""

from __future__ import annotations

import json
import reprlib
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import (
    LABELS,
    ClaimInstance,
    ClinicalTrialRecord,
    check_unique_claim_ids,
    gold_evidence_globals,
    gold_label_index,
    resolve_premise,
    shown_id,
    write_text,
)
from .errors import CtrnliError, MalformedJson
from .nn import in_unit_interval
from .pipeline import SystemPrediction


def _rate(num: int, den: int) -> float:
    return num / den if den else 0.0


def _f1(precision: float, recall: float) -> float:
    if precision + recall == 0:
        return 0.0
    return 2 * precision * recall / (precision + recall)


@dataclass(frozen=True)
class PRF:
    """Binary precision/recall/F1 with the confusion counts behind them.

    All 0/0 rates are defined as 0. In the macro variant the rates are
    per-claim averages and the counts are the pooled totals, kept for
    transparency rather than arithmetic consistency with the rates.
    """

    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int

    @classmethod
    def from_counts(cls, tp: int, fp: int, fn: int, tn: int) -> "PRF":
        p = _rate(tp, tp + fp)
        r = _rate(tp, tp + fn)
        return cls(precision=p, recall=r, f1=_f1(p, r), tp=tp, fp=fp, fn=fn, tn=tn)


@dataclass(frozen=True)
class GoldClaim:
    """The gold answers for one claim, resolved to premise coordinates."""

    claim_id: str
    n_sentences: int
    evidence: frozenset[int] | None
    label: str | None
    challenge: str | None = None


def build_gold_view(
    claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
) -> dict[str, GoldClaim]:
    """Resolve each claim's gold annotations against its premise document."""
    view = {}
    for claim in claims:
        premise = resolve_premise(claim, corpus)
        evidence = (
            gold_evidence_globals(claim, premise) if claim.gold_evidence is not None else None
        )
        view[claim.claim_id] = GoldClaim(
            claim_id=claim.claim_id,
            n_sentences=premise.n,
            evidence=evidence,
            label=claim.gold_label,
            challenge=claim.challenge,
        )
    return view


def _claim_counts(pred: SystemPrediction, gold: GoldClaim) -> tuple[int, int, int, int]:
    """Sentence-level confusion counts for one claim."""
    if gold.evidence is None:
        raise CtrnliError(f"claim {shown_id(pred.claim_id)} has no gold evidence")
    if len(pred.evidence_probs) != gold.n_sentences:
        raise CtrnliError(
            f"claim {shown_id(pred.claim_id)}: prediction covers {len(pred.evidence_probs)} "
            f"sentences but the premise has {gold.n_sentences}"
        )
    selected = set(pred.selected)
    tp = len(selected & gold.evidence)
    fp = len(selected - gold.evidence)
    fn = len(gold.evidence - selected)
    tn = gold.n_sentences - tp - fp - fn
    return tp, fp, fn, tn


def _gold_for(pred: SystemPrediction, golds: Mapping[str, GoldClaim]) -> GoldClaim:
    if pred.claim_id not in golds:
        raise CtrnliError(f"no gold annotations for claim {shown_id(pred.claim_id)}")
    return golds[pred.claim_id]


def _evidence_prfs(per_claim: Sequence[tuple[int, int, int, int]]) -> tuple[PRF, PRF]:
    """The micro and the macro PRF of per-claim confusion counts."""
    totals = tuple(map(sum, zip(*per_claim)))
    rates = [PRF.from_counts(*c) for c in per_claim]
    keys = ("precision", "recall", "f1")
    macro = PRF(*(sum(getattr(r, key) for r in rates) / len(rates) for key in keys), *totals)
    return PRF.from_counts(*totals), macro


def _label_counts(
    predictions: Sequence[SystemPrediction], golds: Mapping[str, GoldClaim]
) -> tuple[int, int, int, int]:
    """Verdict confusion counts (tp, fp, fn, tn) with Entailment as the
    positive class; reversed, they are Contradiction's. A gold label outside
    ``LABELS`` raises :class:`CtrnliError`."""
    if not predictions:
        raise CtrnliError("no predictions to score")
    counts = [0, 0, 0, 0]
    for pred in predictions:
        gold = gold_label_index(pred.claim_id, _gold_for(pred, golds).label)
        counts[2 * (pred.verdict != LABELS[0]) + gold] += 1
    return tuple(counts)


def _macro_f1(counts: tuple[int, int, int, int]) -> float:
    return (PRF.from_counts(*counts).f1 + PRF.from_counts(*counts[::-1]).f1) / len(LABELS)


@dataclass(frozen=True)
class MetricsReport:
    """Everything the evaluate and report commands emit.

    Each ``per_claim`` row is the plain dict written to the report file. The
    micro evidence counts always equal the sums over those rows.
    """

    evidence_micro: PRF
    evidence_macro: PRF
    entailment: PRF
    entailment_macro_f1: float
    per_claim: tuple[dict, ...]
    metadata: Mapping[str, object] = field(default_factory=dict)

    def to_json_obj(self) -> dict:
        return {
            "schema": "metrics/1",
            "metadata": dict(self.metadata),
            "evidence": {
                "micro": asdict(self.evidence_micro),
                "macro": asdict(self.evidence_macro),
            },
            "entailment": {**asdict(self.entailment), "macro_f1": self.entailment_macro_f1},
            "per_claim": list(self.per_claim),
        }


def build_report(
    predictions: Sequence[SystemPrediction],
    golds: Mapping[str, GoldClaim],
    metadata: Mapping[str, object] | None = None,
) -> MetricsReport:
    """Score a prediction list and assemble the full report.

    The predictions must cover every labelled claim of ``golds``, each once,
    so that no score comes from a subset.
    """
    check_unique_claim_ids((p.claim_id for p in predictions), "the predictions")
    covered = {p.claim_id for p in predictions}
    missing = [cid for cid, gold in golds.items() if gold.label is not None and cid not in covered]
    if missing:
        raise CtrnliError(
            f"{len(missing)} labelled claim(s) have no prediction, "
            f"the first is '{shown_id(missing[0])}'"
        )
    verdicts = _label_counts(predictions, golds)  # refuses an empty list
    rows, per_claim = [], []
    for pred in predictions:
        gold = _gold_for(pred, golds)
        tp, fp, fn, tn = counts = _claim_counts(pred, gold)
        per_claim.append(counts)
        row = {
            "claim_id": pred.claim_id,
            "n_selected": len(pred.selected),
            "fallback_used": pred.fallback_used,
            "verdict_correct": pred.verdict == gold.label,
            "tp": tp,
            "fp": fp,
            "fn": fn,
            "tn": tn,
        }
        if gold.challenge is not None:
            row["challenge"] = gold.challenge
        rows.append(row)
    evidence_micro, evidence_macro = _evidence_prfs(per_claim)
    return MetricsReport(
        evidence_micro=evidence_micro,
        evidence_macro=evidence_macro,
        entailment=PRF.from_counts(*verdicts),
        entailment_macro_f1=_macro_f1(verdicts),
        per_claim=tuple(rows),
        metadata=dict(metadata or {}),
    )


def write_report(report: MetricsReport, path: str | Path) -> None:
    """Write the report as JSON; identical inputs give identical bytes."""
    write_text(path, json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n")


def render_table(obj: Mapping) -> str:
    """Aligned text table of a report's JSON form (schema metrics/1): one
    metric per row, one task block per column. A missing or mistyped field
    (a ``fallback_used`` that is not a boolean among them), or a metric that
    is not a finite number in [0, 1], raises :class:`MalformedJson`, whose
    line echoes the value abbreviated."""

    def rate(column: Mapping, key: str) -> float:
        if not in_unit_interval(column[key]):
            raise ValueError(f"{key} {reprlib.repr(column[key])} is not a number in [0, 1]")
        return float(column[key])

    def fallback(row: Mapping) -> bool:
        if not isinstance(row["fallback_used"], bool):
            raise ValueError(f"fallback_used {reprlib.repr(row['fallback_used'])} is not a boolean")
        return row["fallback_used"]

    try:
        if obj.get("schema") != "metrics/1":
            raise MalformedJson(f"unsupported report schema {reprlib.repr(obj.get('schema'))}")
        per_claim = obj["per_claim"]
        if not isinstance(per_claim, list):
            raise TypeError(f"per_claim {reprlib.repr(per_claim)} is not a list")
        n_fallback = sum(map(fallback, per_claim))
        columns = (obj["evidence"]["micro"], obj["evidence"]["macro"], obj["entailment"])
        rows = [
            (name, *(rate(column, key) for column in columns))
            for name, key in (("Precision", "precision"), ("Recall", "recall"), ("F1", "f1"))
        ]
        macro_f1 = rate(obj["entailment"], "macro_f1")
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedJson(f"malformed metrics/1 report: {type(exc).__name__}: {exc}") from None
    header = f"{'':<12}{'Evidence (micro)':>18}{'Evidence (macro)':>18}{'Entailment':>14}"
    lines = [header, "-" * len(header)]
    for name, ev_mi, ev_ma, ent in rows:
        lines.append(f"{name:<12}{ev_mi:>18.4f}{ev_ma:>18.4f}{ent:>14.4f}")
    lines.append(f"{'Macro-F1':<12}{'':>18}{'':>18}{macro_f1:>14.4f}")
    lines.append(f"claims: {len(per_claim)}  fallback used: {n_fallback}")
    return "\n".join(lines)
