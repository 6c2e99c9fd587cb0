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
import operator
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
    averaged: dict = {}  # the averaged task(s)' fields; the rest pass through from pred_a
    if cfg.tasks in ("both", "evidence"):
        ev_probs = tuple(
            w_a * a + w_b * b for a, b in zip(pred_a.evidence_probs, pred_b.evidence_probs)
        )
        selected, fallback = select_evidence(ev_probs, threshold) if ev_probs else ((), False)
        averaged.update(evidence_probs=ev_probs, selected=selected, fallback_used=fallback)
    if cfg.tasks in ("both", "entailment"):
        class_probs = (
            w_a * pred_a.class_probs[0] + w_b * pred_b.class_probs[0],
            w_a * pred_a.class_probs[1] + w_b * pred_b.class_probs[1],
        )
        averaged.update(class_probs=class_probs, verdict=verdict_from_probs(class_probs))
    return dataclasses.replace(pred_a, **averaged)


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
    Each distinct pair of members' field objects (see :func:`_fields_key`) is
    combined and capped once; a later claim gets that result re-issued under
    its own id, so the returned list shares field objects as its members do.
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
    # both members' field identities -> (the first member, which keeps its
    # ids from being recycled, and its result)
    done: dict = {}
    out = []
    for p in preds_a:
        q = by_id[p.claim_id]
        key = (*_fields_key(p), *_fields_key(q))
        hit = done.get(key)
        if hit is None:
            hit = done[key] = (p, cap_prediction(combine(p, q, cfg, threshold), cfg))
            out.append(hit[1])
        else:
            out.append(hit[1]._renamed(p.claim_id))
    return out


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


# a prediction's five non-id fields, in the sorted-key order a record holds them
_FIELDS = operator.attrgetter(
    "class_probs", "evidence_probs", "fallback_used", "selected", "verdict"
)


def _fields_key(p: SystemPrediction) -> tuple:
    """The identity of ``p``'s five non-id fields, which a prediction that
    ``_renamed`` re-issues shares with its original."""
    return tuple(map(id, _FIELDS(p)))


def _json_fields(p: SystemPrediction) -> str:
    # the record's text after claim_id; every probability is finite, as
    # SystemPrediction checks its range
    return (
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
    holds the two equal. The text after ``claim_id`` is formatted once per
    distinct set of field objects (:func:`_fields_key`); the memo holds each
    keyed prediction, so no id is recycled while a generator runs.
    """
    written: dict = {}  # field identities -> (a prediction, its text after claim_id)
    records = []
    for p in preds:
        claim_id = _json_scalar(p.claim_id)
        key = _fields_key(p)
        hit = written.get(key)
        if hit is None:
            hit = written[key] = (p, _json_fields(p))
        records.append(f'  {{\n    "claim_id": {claim_id},{hit[1]}')
    body = ",\n".join(records)
    write_text(path, f"[\n{body}\n]\n" if body else "[]\n")


def load_predictions(path: str | Path) -> list[SystemPrediction]:
    """Read a prediction list written by :func:`save_predictions` or an
    external system emitting the same shape; a claim predicted twice raises
    :class:`CtrnliError`. Every record is checked; one whose fields equal an
    earlier record's re-issues that prediction (see ``SystemPrediction._parse``)."""
    payload = read_json(path)
    if not isinstance(payload, list):
        raise MalformedJson(f"{path}: expected a JSON list of predictions")
    parsed: dict = {}
    preds = [SystemPrediction._parse(obj, parsed) for obj in payload]
    check_unique_claim_ids((p.claim_id for p in preds), str(path))
    return preds
