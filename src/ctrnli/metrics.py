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
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from .corpus import (
    LABELS,
    ClaimInstance,
    ClinicalTrialRecord,
    check_unique_claim_ids,
    gold_evidence_globals,
    resolve_premise,
    write_text,
)
from .errors import CtrnliError, MalformedJson
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
        raise CtrnliError(f"claim {pred.claim_id} has no gold evidence")
    if len(pred.evidence_probs) != gold.n_sentences:
        raise CtrnliError(
            f"claim {pred.claim_id}: prediction covers {len(pred.evidence_probs)} "
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
        raise CtrnliError(f"no gold annotations for claim {pred.claim_id}")
    return golds[pred.claim_id]


def evidence_metrics(
    predictions: Sequence[SystemPrediction],
    golds: Mapping[str, GoldClaim],
    mode: str = "micro",
) -> PRF:
    """Score evidence selection, pooled (micro) or claim-averaged (macro)."""
    if mode not in ("micro", "macro"):
        raise ValueError(f"unknown aggregation mode {mode!r}")
    if not predictions:
        raise CtrnliError("no predictions to score")
    per_claim = [_claim_counts(p, _gold_for(p, golds)) for p in predictions]
    totals = tuple(sum(c[i] for c in per_claim) for i in range(4))
    if mode == "micro":
        return PRF.from_counts(*totals)
    rates = [PRF.from_counts(*c) for c in per_claim]
    n = len(rates)
    return PRF(
        precision=sum(r.precision for r in rates) / n,
        recall=sum(r.recall for r in rates) / n,
        f1=sum(r.f1 for r in rates) / n,
        tp=totals[0],
        fp=totals[1],
        fn=totals[2],
        tn=totals[3],
    )


def _label_counts(
    predictions: Sequence[SystemPrediction],
    golds: Mapping[str, GoldClaim],
    positive: str,
) -> tuple[int, int, int, int]:
    tp = fp = fn = tn = 0
    for pred in predictions:
        gold = _gold_for(pred, golds)
        if gold.label is None:
            raise CtrnliError(f"claim {pred.claim_id} has no gold label")
        hit_pos = pred.verdict == positive
        is_pos = gold.label == positive
        if hit_pos and is_pos:
            tp += 1
        elif hit_pos:
            fp += 1
        elif is_pos:
            fn += 1
        else:
            tn += 1
    return tp, fp, fn, tn


def entailment_metrics(
    predictions: Sequence[SystemPrediction], golds: Mapping[str, GoldClaim]
) -> PRF:
    """Score verdicts with Entailment as the positive class."""
    if not predictions:
        raise CtrnliError("no predictions to score")
    return PRF.from_counts(*_label_counts(predictions, golds, LABELS[0]))


def entailment_macro_f1(
    predictions: Sequence[SystemPrediction], golds: Mapping[str, GoldClaim]
) -> float:
    """Mean of the two per-class F1 scores."""
    if not predictions:
        raise CtrnliError("no predictions to score")
    scores = []
    for label in LABELS:
        prf = PRF.from_counts(*_label_counts(predictions, golds, label))
        scores.append(prf.f1)
    return sum(scores) / len(scores)


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
            f"{len(missing)} labelled claim(s) have no prediction, the first is '{missing[0]}'"
        )
    rows = []
    for pred in predictions:
        gold = _gold_for(pred, golds)
        tp, fp, fn, tn = _claim_counts(pred, gold)
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
    return MetricsReport(
        evidence_micro=evidence_metrics(predictions, golds, "micro"),
        evidence_macro=evidence_metrics(predictions, golds, "macro"),
        entailment=entailment_metrics(predictions, golds),
        entailment_macro_f1=entailment_macro_f1(predictions, golds),
        per_claim=tuple(rows),
        metadata=dict(metadata or {}),
    )


def write_report(report: MetricsReport, path: str | Path) -> None:
    """Write the report as JSON; identical inputs give identical bytes."""
    write_text(path, json.dumps(report.to_json_obj(), sort_keys=True, indent=2) + "\n")


def render_table(obj: Mapping) -> str:
    """Aligned text table of a report's JSON form (schema metrics/1): one
    metric per row, one task block per column. A missing or mistyped field
    raises :class:`MalformedJson`."""
    try:
        if obj.get("schema") != "metrics/1":
            raise MalformedJson(f"unsupported report schema {obj.get('schema')!r}")
        per_claim = obj["per_claim"]
        n_fallback = sum(1 for row in per_claim if row["fallback_used"])
        columns = (obj["evidence"]["micro"], obj["evidence"]["macro"], obj["entailment"])
        rows = [
            (name, *(float(column[key]) for column in columns))
            for name, key in (("Precision", "precision"), ("Recall", "recall"), ("F1", "f1"))
        ]
        macro_f1 = float(obj["entailment"]["macro_f1"])
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise MalformedJson(f"malformed metrics/1 report: {type(exc).__name__}: {exc}") from None
    header = f"{'':<12}{'Evidence (micro)':>18}{'Evidence (macro)':>18}{'Entailment':>14}"
    lines = [header, "-" * len(header)]
    for name, ev_mi, ev_ma, ent in rows:
        lines.append(f"{name:<12}{ev_mi:>18.4f}{ev_ma:>18.4f}{ent:>14.4f}")
    lines.append(f"{'Macro-F1':<12}{'':>18}{'':>18}{macro_f1:>14.4f}")
    lines.append(f"claims: {len(per_claim)}  fallback used: {n_fallback}")
    return "\n".join(lines)
