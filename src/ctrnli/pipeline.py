"""The two-stage system: evidence selection, then entailment over selections.

Stage one scores every premise sentence independently by encoding the
[sentence, SEP, claim] pair and classifying the pooled vector; the pairs of
one premise share a single batched encoder call and head call. Within that
call the claim is encoded whole once: every later pair borrows the first
pair's claim rows past the encoder's ``reach`` (see
:func:`~ctrnli.encode.build_pair_batch`). Sentences
whose evidence probability strictly exceeds the threshold are selected (with
a top-1 fallback when nothing clears it). Stage two concatenates the selected
sentences in premise order behind the claim and classifies the pooled
encoding into Entailment vs Contradiction.
"""

from __future__ import annotations

import operator
import reprlib
from dataclasses import dataclass, field
from types import MappingProxyType
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_MAX_LEN, DEFAULT_POOLING, DEFAULT_THRESHOLD
from .corpus import (
    LABELS,
    ClaimInstance,
    ClinicalTrialRecord,
    PremiseDoc,
    gold_evidence_globals,
    gold_label_index,
    require_sentences,
    resolve_premise,
    shown_id,
)
from .encode import (
    ToyEncoder,
    build_entailment_sequence,
    build_pair_batch,
    build_pair_sequence,
    encode_batch,
    naming_claim,
    pool_span,
    pool_spans,
    pool_spans_backward,
)
from .encode import pool_span_backward  # noqa: F401  bench/tracing.py wraps it here
from .errors import CtrnliError, MalformedJson
from .nn import (
    ClassifierHead,
    Hyperparams,
    cross_entropy,
    fit,
    is_count,
    mlp_backward,
    mlp_forward,
    softmax,
    to_stored_precision,
)

EVIDENCE_CLASS = 0  # logit index of the positive "is evidence" class
PROB_TOL = 1e-9

_EVIDENCE_SEED_SALT = 11
_ENTAILMENT_SEED_SALT = 23


def verdict_from_probs(class_probs: Sequence[float]) -> str:
    """Argmax verdict; an exact tie resolves to Entailment (lowest index)."""
    best = 0
    for i in range(1, len(class_probs)):
        if class_probs[i] > class_probs[best]:
            best = i
    return LABELS[best]


@dataclass(frozen=True)
class SystemPrediction:
    """Shared output shape of the pipeline, joint, and ensemble systems."""

    claim_id: str
    evidence_probs: tuple[float, ...]
    selected: tuple[int, ...]
    class_probs: tuple[float, float]
    verdict: str
    fallback_used: bool = False

    def __post_init__(self):
        probs = (*self.evidence_probs, *self.class_probs)
        total = sum(probs)  # a NaN anywhere makes the sum unequal to itself
        if probs and not (
            -PROB_TOL <= min(probs) and max(probs) <= 1.0 + PROB_TOL and total == total
        ):
            bad = next(p for p in probs if not -PROB_TOL <= p <= 1.0 + PROB_TOL)
            raise ValueError(f"probability {bad} outside [0, 1]")
        if len(self.class_probs) != len(LABELS):
            raise ValueError(f"expected {len(LABELS)} class probabilities")
        if abs(sum(self.class_probs) - 1.0) > PROB_TOL:
            raise ValueError(f"class probabilities sum to {sum(self.class_probs)}")
        if self.verdict != verdict_from_probs(self.class_probs):
            raise ValueError("verdict is not the argmax of class_probs")
        if list(self.selected) != sorted(set(self.selected)):
            raise ValueError("selected indices must be sorted and unique")
        n = len(self.evidence_probs)
        if self.selected and not (0 <= self.selected[0] and self.selected[-1] < n):  # sorted by now
            raise ValueError("selected indices outside the premise")

    def _renamed(self, claim_id: str) -> "SystemPrediction":
        """This prediction under ``claim_id`` (no check reads it), not checked again."""
        twin = object.__new__(type(self))
        twin.__dict__.update(self.__dict__, claim_id=claim_id)
        return twin

    @classmethod
    def from_json_obj(cls, obj: dict) -> "SystemPrediction":
        """Parse one prediction object; any schema violation raises MalformedJson."""
        return cls._parse(obj, None)

    @classmethod
    def _parse(cls, obj: dict, parsed: dict | None) -> "SystemPrediction":
        """:meth:`from_json_obj`; given ``parsed``, a map from converted fields
        to the prediction first built from them, a record whose converted
        fields are already there gets that prediction under its own id.
        Converted, the fields are floats, ints, a string and a bool, with NaN
        refused, so equal values print alike, except ``0.0`` and ``-0.0``: a
        record holding a zero probability is never shared."""
        if not isinstance(obj, dict):
            raise MalformedJson(f"a prediction must be a JSON object, got {type(obj).__name__}")
        try:
            claim_id = obj["claim_id"]
            selected = tuple(obj["selected"])
            fallback_used = obj.get("fallback_used", False)
            if not isinstance(claim_id, str):
                raise TypeError(f"claim_id must be a string, got {reprlib.repr(claim_id)}")
            if not all(is_count(i, 0) for i in selected):
                shown = reprlib.repr(list(selected))
                raise TypeError(f"selected must hold integers >= 0, got {shown}")
            if not isinstance(fallback_used, bool):
                shown = reprlib.repr(fallback_used)
                raise TypeError(f"fallback_used must be true or false, got {shown}")
            probs = {key: tuple(obj[key]) for key in ("evidence_probs", "class_probs")}
            for key, values in probs.items():
                # JSON numbers parse to int or float; __post_init__ refuses non-finite ones
                if not {*map(type, values)} <= {int, float}:
                    raise TypeError(f"{key} must hold numbers, got {reprlib.repr(list(values))}")
            ev_probs = tuple(map(float, probs["evidence_probs"]))
            class_probs = tuple(map(float, probs["class_probs"]))
            fields = (ev_probs, selected, class_probs, str(obj["verdict"]), fallback_used)
            if parsed is None or 0.0 in ev_probs or 0.0 in class_probs:
                return cls(claim_id, *fields)
            earlier = parsed.get(fields)
            if earlier is not None:
                return earlier._renamed(claim_id)
            parsed[fields] = pred = cls(claim_id, *fields)
            return pred
        except (KeyError, TypeError, ValueError, OverflowError) as exc:
            what = f"{reprlib.repr(obj.get('claim_id'))}: {type(exc).__name__}: {exc}"
            raise MalformedJson(f"malformed prediction {what}") from None


def select_evidence(probs: Sequence[float], threshold: float) -> tuple[tuple[int, ...], bool]:
    """The sorted indices {i : p_i > threshold} and whether the fallback was used.

    Strictly greater, so p_i == threshold is out. When nothing clears the
    threshold the single highest-probability sentence is selected instead
    (lowest index on ties) and the fallback flag is set, because the
    entailment stage needs a non-empty premise.
    """
    selected = tuple(i for i, p in enumerate(probs) if p > threshold)
    if selected:
        return selected, False
    return (int(np.argmax(np.asarray(probs))),), True


def evidence_probs(head: ClassifierHead, vectors: np.ndarray) -> list[float]:
    """Evidence probability of each row of ``vectors`` in one head call.

    The rows go through the head as a ``[B, 1, D]`` stack, which rounds each
    row exactly as a one-vector call does; a ``[B, D]`` matrix product would
    not.
    """
    logits, _ = mlp_forward(head.params, vectors[:, None, :])
    return softmax(logits[:, 0])[:, EVIDENCE_CLASS].tolist()


def score_evidence(
    claim: ClaimInstance,
    premise: PremiseDoc,
    encoder,
    head: ClassifierHead,
    max_len: int,
    pooling: str,
) -> list[float]:
    """One evidence probability per premise sentence.

    All [sentence, SEP, claim] pairs of the premise go through one
    ``encode_batch`` call and one stacked head call. For an encoder with a
    ``reach``, only the first pair holds the whole claim: every other pair
    has its claim cut to ``2 * reach`` tokens and pools its own rows up to
    claim offset ``reach``, then the first pair's claim rows from there on,
    which hold the same bits in every pair. An encoder without ``reach``
    gets whole pairs. Each probability equals that of scoring its whole pair
    alone, bit for bit, on a kernel that rounds a row alike at any row count.
    """
    require_sentences(claim, premise)
    reach = getattr(encoder, "reach", max_len)
    with naming_claim(claim.claim_id):
        ids, lengths, spans, tail = build_pair_batch(
            encoder.tokenizer, premise.texts, claim.text, max_len, reach
        )
    matrix = encode_batch(encoder, ids, cache=False, lengths=lengths)[0]
    return evidence_probs(head, pool_spans(matrix, spans, pooling, tail))


def classify_entailment(
    claim: ClaimInstance,
    premise: PremiseDoc,
    selected: Sequence[int],
    encoder,
    head: ClassifierHead,
    max_len: int,
    pooling: str,
) -> tuple[tuple[float, float], str]:
    """Class distribution and verdict for the claim given selected evidence.

    The selected indices are canonicalized to premise order before the
    evidence texts are concatenated, so callers may pass them in any order.
    """
    indices = sorted(set(selected))
    if not indices:
        raise CtrnliError(f"claim {shown_id(claim.claim_id)}: no evidence sentences selected")
    texts = [premise.texts[i] for i in indices]
    with naming_claim(claim.claim_id):
        seq = build_entailment_sequence(encoder.tokenizer, claim.text, texts, max_len)
    matrix = encoder.encode(seq.token_ids)
    probs = softmax(head.logits(pool_span(matrix, (0, matrix.shape[0]), pooling)))
    class_probs = (float(probs[0]), float(probs[1]))
    return class_probs, verdict_from_probs(class_probs)


# --- training ------------------------------------------------------------------


def sequence_classification_grads(
    encoder, head, items: Sequence[tuple[tuple[int, ...], int]], pooling: str
):
    """Mean cross-entropy over (token_ids, target) items, with gradients.

    The items run as one batch: one encoder forward, one ``[B, 1, D]`` head
    call and its backward, one pool backward and one encoder backward. Each
    gradient is the sum of ``1 / len(items)`` times each item's gradient, in
    item order, bit for bit.

    Returns (loss, encoder grads or None for frozen encoders, head grads).
    """
    seqs = [token_ids for token_ids, _ in items]
    scale = 1.0 / len(items)
    edges = np.cumsum([0, *map(len, seqs)])
    spans = np.column_stack((edges[:-1], edges[1:]))
    matrix, enc_cache = encode_batch(encoder, seqs)
    pooled = pool_spans(matrix, spans, pooling)
    logits, mlp_cache = mlp_forward(head.params, pooled[:, None, :])
    losses, d_logits = cross_entropy(logits[:, 0], [target for _, target in items])
    head_grads, d_pooled = mlp_backward(head.params, mlp_cache, d_logits[:, None, :], scale)
    enc_grads = None
    if enc_cache is not None:
        d_matrix = pool_spans_backward(d_pooled[:, 0], matrix, spans, pooling)
        enc_grads = encoder.backward(enc_cache, d_matrix, scale)
    return sum(losses, 0.0) * scale, enc_grads, head_grads


@dataclass
class TrainResult:
    """One trained pipeline stage: its encoder, its head and the per-step loss."""

    encoder: object
    head: ClassifierHead
    loss_curve: list[float] = field(default_factory=list)


def _train_stage(salt: int, hp: Hyperparams, pooling: str, encoder_factory, make_items):
    """Train one stage: ``encoder_factory(seed)`` (a toy encoder when None),
    a head, and ``make_items(tokenizer)`` as the data."""
    enc_seed, head_seed, shuffle_seed = np.random.SeedSequence([salt, hp.seed]).spawn(3)
    encoder = encoder_factory(enc_seed) if encoder_factory else ToyEncoder(seed=enc_seed)
    head = ClassifierHead.create(encoder.dim, seed=head_seed)
    items = make_items(encoder.tokenizer)
    groups = [head.params, encoder.params]

    def batch_grads(batch_idx):
        batch = [items[i] for i in batch_idx]
        loss, enc_grads, head_grads = sequence_classification_grads(encoder, head, batch, pooling)
        return loss, [head_grads, enc_grads]

    curve = fit(groups, batch_grads, len(items), hp, np.random.default_rng(shuffle_seed))
    to_stored_precision(encoder, head)
    return TrainResult(encoder=encoder, head=head, loss_curve=curve)


def evidence_training_items(
    claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
    tokenizer,
    max_len: int,
    inject_arm_prefix: bool = False,
):
    """All (pair token ids, is-evidence target) items across the claims."""
    items = []
    for claim in claims:
        premise = require_sentences(claim, resolve_premise(claim, corpus, inject_arm_prefix))
        gold = gold_evidence_globals(claim, premise)
        with naming_claim(claim.claim_id):
            for i, text in enumerate(premise.texts):
                pair = build_pair_sequence(tokenizer, text, claim.text, max_len)
                target = EVIDENCE_CLASS if i in gold else 1 - EVIDENCE_CLASS
                items.append((pair.token_ids, target))
    return items


def train_evidence_model(
    train_claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
    hyperparams: Hyperparams,
    max_len: int = DEFAULT_MAX_LEN["pipeline"],
    pooling: str = DEFAULT_POOLING,
    inject_arm_prefix: bool = False,
    encoder_factory=None,
) -> TrainResult:
    """Fit the per-sentence evidence classifier (binary cross-entropy)."""
    return _train_stage(
        _EVIDENCE_SEED_SALT, hyperparams, pooling, encoder_factory,
        lambda tok: evidence_training_items(train_claims, corpus, tok, max_len, inject_arm_prefix),
    )


def entailment_training_items(
    claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
    tokenizer,
    max_len: int,
    evidence_model: TrainResult | None = None,
    *,
    threshold: float,
    pooling: str,
    inject_arm_prefix: bool = False,
):
    """All (sequence token ids, verdict target) items across the claims.

    Without ``evidence_model`` the premise side of each sequence is the gold
    evidence (the stronger training signal); with one it is that model's
    selection.
    """
    items = []
    for claim in claims:
        target = gold_label_index(claim.claim_id, claim.gold_label)
        premise = require_sentences(claim, resolve_premise(claim, corpus, inject_arm_prefix))
        if evidence_model is None:
            indices = sorted(gold_evidence_globals(claim, premise))
        else:
            probs = score_evidence(
                claim, premise, evidence_model.encoder, evidence_model.head, max_len, pooling
            )
            indices, _ = select_evidence(probs, threshold)
        texts = [premise.texts[i] for i in indices]
        with naming_claim(claim.claim_id):
            seq = build_entailment_sequence(tokenizer, claim.text, texts, max_len)
        items.append((seq.token_ids, target))
    return items


def train_entailment_model(
    train_claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
    hyperparams: Hyperparams,
    evidence_model: TrainResult | None = None,
    max_len: int = DEFAULT_MAX_LEN["pipeline"],
    threshold: float = DEFAULT_THRESHOLD,
    pooling: str = DEFAULT_POOLING,
    inject_arm_prefix: bool = False,
    encoder_factory=None,
) -> TrainResult:
    """Fit the verdict classifier on gold evidence, or on the selections of
    ``evidence_model`` when given."""
    return _train_stage(
        _ENTAILMENT_SEED_SALT, hyperparams, pooling, encoder_factory,
        lambda tok: entailment_training_items(
            train_claims, corpus, tok, max_len, evidence_model,
            threshold=threshold, pooling=pooling, inject_arm_prefix=inject_arm_prefix,
        ),
    )


# --- end-to-end prediction -------------------------------------------------------


@dataclass
class PipelineModel:
    """Both trained stages plus the inference settings they were built with.
    A loaded one memoizes its predictions (:func:`predict_memoized`)."""

    evidence_encoder: object
    evidence_head: ClassifierHead
    entailment_encoder: object
    entailment_head: ClassifierHead
    max_len: int = DEFAULT_MAX_LEN["pipeline"]
    threshold: float = DEFAULT_THRESHOLD
    pooling: str = DEFAULT_POOLING
    inject_arm_prefix: bool = False
    _memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)


def predict_memoized(claim, corpus: Mapping[str, ClinicalTrialRecord], model, parts: tuple,
                     predict) -> SystemPrediction:
    """``predict(claim, premise, model)`` over the claim's resolved premise, or
    the model's earlier prediction for the same claim text, sections of its
    trials, ``inject_arm_prefix``, ``threshold``, ``pooling`` and ``max_len``,
    re-issued under this claim's id.

    The key holds the corpus's own section tuples and compares their content.
    A hit resolves no premise and checks no prediction again; every other
    call resolves its premise through :func:`resolve_premise`.
    Only a model whose ``parts`` (encoders and heads) hold read-only arrays in
    read-only mappings, as loaded ones do, keeps this memo: one entry per
    distinct claim. Another part object in the model starts a new one.
    """
    held, memo = model._memo
    if held is None or not all(map(operator.is_, held, parts)):
        frozen = all(
            isinstance(part.params, MappingProxyType)
            and not any(arr.flags.writeable for arr in part.params.values())
            for part in parts
        )
        memo = {} if frozen else None
        model._memo = (parts, memo)
    key = pred = None
    if memo is not None:
        try:  # a missing trial is refused below; list sections do not hash
            key = (claim.text, *[corpus[c].sections[claim.section_id] for c in claim.ctr_ids],
                   model.inject_arm_prefix, model.threshold, model.pooling, model.max_len)
            pred = memo.get(key)
        except (KeyError, TypeError):
            key = None
    if pred is None:
        pred = predict(claim, resolve_premise(claim, corpus, model.inject_arm_prefix), model)
        if key is not None:
            memo[key] = pred
    elif pred.claim_id != claim.claim_id:
        pred = pred._renamed(claim.claim_id)
    return pred


def _forward_pipeline(claim, premise: PremiseDoc, models: PipelineModel) -> SystemPrediction:
    probs = score_evidence(
        claim, premise, models.evidence_encoder, models.evidence_head,
        models.max_len, models.pooling,
    )
    selected, fallback_used = select_evidence(probs, models.threshold)
    class_probs, verdict = classify_entailment(
        claim, premise, selected,
        models.entailment_encoder, models.entailment_head,
        models.max_len, models.pooling,
    )
    return SystemPrediction(
        claim_id=claim.claim_id,
        evidence_probs=tuple(probs),
        selected=selected,
        class_probs=class_probs,
        verdict=verdict,
        fallback_used=fallback_used,
    )


def predict_pipeline(
    claim: ClaimInstance,
    corpus: Mapping[str, ClinicalTrialRecord],
    models: PipelineModel,
) -> SystemPrediction:
    """score -> select -> classify, composed into one prediction, which a
    loaded model answers from its memo for a claim it has seen."""
    parts = (models.evidence_encoder, models.evidence_head,
             models.entailment_encoder, models.entailment_head)
    return predict_memoized(claim, corpus, models, parts, _forward_pipeline)
