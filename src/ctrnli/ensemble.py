"""Weighted probability averaging over two systems' predictions.

Both tasks' probabilities are combined as p = w_a * p_a + w_b * p_b and the
selection and verdict are recomputed from the averaged numbers under the same
threshold and argmax rules the member systems use. A separate post-processing
step caps the evidence selection at a fixed sentence budget. Combining is
pure arithmetic on prediction objects, so it works just as well on prediction
files produced by external systems.
"""

from __future__ import annotations

import dataclasses
import math
import reprlib
from json.encoder import encode_basestring_ascii
from pathlib import Path
from typing import Sequence

from .config import DEFAULT_THRESHOLD, TASK_CHOICES, EnsembleConfig  # noqa: F401  re-exported
from .corpus import check_unique_claim_ids, read_json, shown_id, write_text
from .errors import CtrnliError, MalformedJson
from .pipeline import SystemPrediction, select_evidence, verdict_from_probs


def combine(
    pred_a: SystemPrediction, pred_b: SystemPrediction, cfg: EnsembleConfig, threshold: float
) -> SystemPrediction:
    """Average two predictions for the same claim; evidence is selected at ``threshold``.

    Averaging alone; the evidence cap is a separate post-processing step so
    that equal inputs combine to themselves exactly.
    """
    if pred_a.claim_id != pred_b.claim_id:
        raise CtrnliError(
            f"cannot combine predictions for {reprlib.repr(pred_a.claim_id)} and "
            f"{reprlib.repr(pred_b.claim_id)}"
        )
    if len(pred_a.evidence_probs) != len(pred_b.evidence_probs):
        raise CtrnliError(
            f"claim {shown_id(pred_a.claim_id)}: premise lengths "
            f"{len(pred_a.evidence_probs)} != {len(pred_b.evidence_probs)}"
        )
    w_a, w_b = cfg.w_pipeline, cfg.w_joint

    if cfg.tasks in ("both", "evidence"):
        ev_probs = tuple(
            w_a * a + w_b * b for a, b in zip(pred_a.evidence_probs, pred_b.evidence_probs)
        )
        selected, fallback = select_evidence(ev_probs, threshold) if ev_probs else ((), False)
    else:
        ev_probs = pred_a.evidence_probs
        selected = pred_a.selected
        fallback = pred_a.fallback_used

    if cfg.tasks in ("both", "entailment"):
        class_probs = (
            w_a * pred_a.class_probs[0] + w_b * pred_b.class_probs[0],
            w_a * pred_a.class_probs[1] + w_b * pred_b.class_probs[1],
        )
        verdict = verdict_from_probs(class_probs)
    else:
        class_probs = pred_a.class_probs
        verdict = pred_a.verdict

    return SystemPrediction(
        claim_id=pred_a.claim_id,
        evidence_probs=ev_probs,
        selected=selected,
        class_probs=class_probs,
        verdict=verdict,
        fallback_used=fallback,
    )


def cap_prediction(pred: SystemPrediction, cfg: EnsembleConfig) -> SystemPrediction:
    """Cap one prediction's selection at ``max_evidence`` sentences.

    When over budget, the highest-probability indices are kept, in index
    order; ties break toward the lower index. Under budget the prediction is
    returned unchanged.
    """
    if len(pred.selected) <= cfg.max_evidence:
        return pred
    ranked = sorted(pred.selected, key=lambda i: (-pred.evidence_probs[i], i))
    return dataclasses.replace(pred, selected=tuple(sorted(ranked[: cfg.max_evidence])))


def ensemble_predictions(
    preds_a: Sequence[SystemPrediction],
    preds_b: Sequence[SystemPrediction],
    cfg: EnsembleConfig,
    threshold: float = DEFAULT_THRESHOLD,
) -> list[SystemPrediction]:
    """Combine two prediction lists claim by claim, then cap the evidence.

    Predictions are paired by claim id and the output keeps the first list's
    order. Both lists must cover exactly the same claims, each claim once.
    """
    check_unique_claim_ids((p.claim_id for p in preds_a), "the first prediction list")
    check_unique_claim_ids((p.claim_id for p in preds_b), "the second prediction list")
    by_id = {p.claim_id: p for p in preds_b}
    missing = [p.claim_id for p in preds_a if p.claim_id not in by_id]
    extra = sorted(by_id.keys() - {p.claim_id for p in preds_a})
    if missing or extra:
        raise CtrnliError(
            f"prediction lists cover different claims (missing from second: "
            f"{reprlib.repr(missing)}, only in second: {reprlib.repr(extra)})"
        )
    return [cap_prediction(combine(p, by_id[p.claim_id], cfg, threshold), cfg) for p in preds_a]


_ITEM_SEP = ",\n      "  # between the items of a list inside one record


def _json_scalar(value) -> str:
    """A string, bool, int or finite float as ``json.dumps`` writes it; any
    other value raises ``TypeError``."""
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is True or value is False:
        return "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, float) and math.isfinite(value):
        return float.__repr__(value)
    raise TypeError(f"cannot write {reprlib.repr(value)} in a prediction file")


def _json_list(values, fast=float.__repr__) -> str:
    """A record's list at indent 2: ``fast`` formats every item, and a list
    it refuses (an int or bool probability) goes through :func:`_json_scalar`."""
    if not values:
        return "[]"
    try:
        items = _ITEM_SEP.join(map(fast, values))
    except TypeError:
        items = _ITEM_SEP.join(map(_json_scalar, values))
    return f"[\n      {items}\n    ]"


def _json_record(p: SystemPrediction) -> str:
    # the six fields in sorted-key order; every probability is finite, as
    # SystemPrediction checks its range
    return (
        f'  {{\n    "claim_id": {_json_scalar(p.claim_id)},'
        f'\n    "class_probs": {_json_list(p.class_probs)},'
        f'\n    "evidence_probs": {_json_list(p.evidence_probs)},'
        f'\n    "fallback_used": {_json_scalar(p.fallback_used)},'
        f'\n    "selected": {_json_list(p.selected, _json_scalar)},'
        f'\n    "verdict": {_json_scalar(p.verdict)}\n  }}'
    )


def save_predictions(preds: Sequence[SystemPrediction], path: str | Path) -> None:
    """Write predictions as a JSON list, deterministically ordered.

    The bytes equal ``json.dumps([dataclasses.asdict(p) for p in preds],
    sort_keys=True, indent=2)`` plus a newline, built record by record
    without the json module's pure-Python indenting encoder.
    ``tests/test_ensemble.py::test_save_predictions_matches_json_dumps``
    holds the two equal.
    """
    body = ",\n".join(map(_json_record, preds))
    write_text(path, f"[\n{body}\n]\n" if body else "[]\n")


def load_predictions(path: str | Path) -> list[SystemPrediction]:
    """Read a prediction list written by :func:`save_predictions` or an
    external system emitting the same shape; a claim predicted twice raises
    :class:`CtrnliError`."""
    payload = read_json(path)
    if not isinstance(payload, list):
        raise MalformedJson(f"{path}: expected a JSON list of predictions")
    preds = [SystemPrediction.from_json_obj(obj) for obj in payload]
    check_unique_claim_ids((p.claim_id for p in preds), str(path))
    return preds
