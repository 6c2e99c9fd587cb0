"""The multi-task system: one claim-document pass feeding both task heads.

The claim and every premise sentence are packed into a single sequence and
encoded once. Each surviving sentence's token block is pooled to a vector;
the evidence head scores these vectors, gating keeps those above the
threshold, and the gated vectors are pooled again into an evidence summary
the verdict head classifies. Both heads train jointly against a weighted sum
of the per-sentence binary cross-entropy and the verdict cross-entropy,
backpropagated through the forward inference runs (:func:`_forward`) over
sequences packed once before training. During training the evidence summary
pools the gold spans (teacher forcing); at inference it pools the gated spans.
The claim's own block is never fed to the verdict head: its content already
reaches the sentence vectors through the shared encoding.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .corpus import (
    LABELS,
    ClaimInstance,
    ClinicalTrialRecord,
    PremiseDoc,
    gold_evidence_globals,
    resolve_premise,
)
from .encode import JointInput, ToyEncoder, build_joint_sequence, pool_span_backward, pool_spans
from .encode import pool_span  # noqa: F401  unused here; bench/tracing.py wraps it in this module
from .errors import MissingGold, MissingGoldEvidence, MissingGoldLabel
from .nn import (
    EntailmentHead,
    EvidenceHead,
    Hyperparams,
    accumulate,
    cross_entropy,
    fit,
    mlp_backward,
    mlp_forward,
    softmax,
    zero_grads,
)
from .pipeline import EVIDENCE_CLASS, SystemPrediction, select_evidence, verdict_from_probs

_JOINT_SEED_SALT = 37


@dataclass
class JointModel:
    """Shared encoder plus the two task heads and inference settings."""

    encoder: object
    evidence_head: EvidenceHead
    verdict_head: EntailmentHead
    max_len: int = 1024
    threshold: float = 0.5
    pooling: str = "mean"
    inject_arm_prefix: bool = False


@dataclass(frozen=True)
class JointOutput:
    """One forward pass: survivor evidence probabilities plus the verdict.

    ``evidence_probs[i]`` belongs to premise sentence ``i`` (survivors are
    the premise prefix); truncated sentences appear in ``dropped`` with an
    implicit probability of zero and can never be gated. The evidence
    summary the verdict head reads is the mean of the ``gated`` vectors.
    """

    evidence_probs: tuple[float, ...]
    gated: tuple[int, ...]
    class_probs: tuple[float, ...]
    verdict: str
    fallback_used: bool
    dropped: tuple[int, ...]


def _verdict_probs(logits: np.ndarray) -> tuple[float, float]:
    """Two-label distribution from two-class verdict logits.

    Mathematically the plain softmax, but renormalized as ``p / (p0 + p1)``
    because that rounding is what every checkpoint and prediction file has
    been produced with: a bare softmax changes the last bits of some joint
    predictions (never a verdict), which would break byte-identical output.
    """
    probs = softmax(logits)[:2]
    total = probs.sum()
    return (float(probs[0] / total), float(probs[1] / total))


def _forward(model: JointModel, ji: JointInput, matrix: np.ndarray, gold=None):
    """From the encoded ``matrix`` of ``ji`` to the outputs of both heads.

    One evidence-head call scores the survivors' ``[n, 1, D]`` stack, which
    rounds each row exactly as a one-vector call does. The summary averages
    the gated vectors or, given ``gold`` (teacher forcing), the gold ones that
    survived truncation (all survivors when none did). Returns the stacked
    evidence softmax and head cache, the evidence probabilities, the pooled
    indices, the fallback flag, and the verdict logits and head cache.
    """
    vecs = pool_spans(matrix, ji.span_map, model.pooling)
    logits, cache = mlp_forward(model.evidence_head.params, vecs[:, None, :])
    ev_probs = softmax(logits[:, 0])
    probs = ev_probs[:, EVIDENCE_CLASS].tolist()
    pooled, fallback = [], False
    if gold is not None:
        pooled = sorted(i for i in gold if i < len(probs)) or list(range(len(probs)))
    elif probs:
        selection = select_evidence(probs, model.threshold)
        pooled, fallback = sorted(selection.indices), selection.fallback_used
    summary = vecs[pooled].mean(axis=0) if pooled else np.zeros(model.encoder.dim)
    v_logits, v_cache = mlp_forward(model.verdict_head.params, summary)
    return ev_probs, cache, probs, pooled, fallback, v_logits, v_cache


def forward_joint(claim: ClaimInstance, premise: PremiseDoc, model: JointModel) -> JointOutput:
    """Single-pass inference over one claim-document sequence."""
    ji = build_joint_sequence(model.encoder.tokenizer, claim.text, premise, model.max_len)
    _, _, probs, gated, fallback, v_logits, _ = _forward(
        model, ji, model.encoder.encode(ji.token_ids)
    )
    class_probs = _verdict_probs(v_logits)
    return JointOutput(
        evidence_probs=tuple(probs),
        gated=tuple(gated),
        class_probs=class_probs,
        verdict=verdict_from_probs(class_probs),
        fallback_used=fallback,
        dropped=ji.dropped_sentences,
    )


def joint_loss(
    output: JointOutput,
    gold_evidence: frozenset[int] | set[int] | None,
    gold_label: str | None,
    weights: tuple[float, float] = (1.0, 1.0),
) -> float:
    """Weighted sum of mean per-sentence BCE and verdict cross-entropy.

    Truncated sentences carry no probability and stay out of the evidence
    term; a premise with no survivors contributes zero to it.
    """
    if gold_evidence is None or gold_label is None:
        raise MissingGold("joint loss needs both gold evidence and a gold label")
    w_ev, w_ent = weights
    bce = 0.0
    if output.evidence_probs:
        for i, p in enumerate(output.evidence_probs):
            p = min(max(p, 1e-300), 1.0 - 1e-16)
            bce -= np.log(p) if i in gold_evidence else np.log(1.0 - p)
        bce /= len(output.evidence_probs)
    ce = -float(np.log(max(output.class_probs[LABELS.index(gold_label)], 1e-300)))
    return float(w_ev * bce + w_ent * ce)


def joint_grads(
    model: JointModel,
    ji: JointInput,
    gold_evidence: frozenset[int],
    gold_label: str,
    weights: tuple[float, float] = (1.0, 1.0),
    teacher_forcing: bool = True,
):
    """Loss terms and analytic gradients for one packed claim-document sequence.

    Returns (total, evidence_loss, verdict_loss, encoder grads or None,
    evidence-head grads, verdict-head grads). Teacher forcing pools the gold
    spans (see :func:`_forward`); without it the loss is the inference loss.
    """
    w_ev, w_ent = weights
    encoder, pooling, spans = model.encoder, model.pooling, ji.span_map
    trainable = encoder.trainable
    if trainable:
        matrix, enc_cache = encoder.encode_with_cache(ji.token_ids)
    else:
        matrix, enc_cache = encoder.encode(ji.token_ids), None
    ev_probs, ev_cache, _, pooled, _, v_logits, v_cache = _forward(
        model, ji, matrix, gold_evidence if teacher_forcing else None
    )
    d_matrix = np.zeros_like(matrix)
    n_surv = len(spans)

    # Evidence term: mean BCE over survivors, backpropagated through the
    # head once for the whole [n, 1, *] stack, each row as a lone sentence.
    rows = np.arange(n_surv)
    targets = [
        EVIDENCE_CLASS if i in gold_evidence else 1 - EVIDENCE_CLASS for i in range(n_surv)
    ]
    row_losses = -np.log(np.maximum(ev_probs[rows, targets], 1e-300)) / n_surv
    evidence_loss = sum(row_losses.tolist(), 0.0)  # in row order; np.sum adds pairwise
    d_logits = ev_probs.copy()
    d_logits[rows, targets] -= 1.0
    d_logits *= w_ev / max(n_surv, 1)  # no survivors: an empty stack
    ev_grads, d_vecs = mlp_backward(model.evidence_head.params, ev_cache, d_logits[:, None, :])
    for d_vec, span in zip(d_vecs[:, 0], spans):
        pool_span_backward(d_vec, matrix, span, pooling, out=d_matrix)

    # Verdict term over the pooled evidence summary.
    verdict_loss, d_logits = cross_entropy(v_logits, LABELS.index(gold_label))
    v_grads, d_summary = mlp_backward(model.verdict_head.params, v_cache, d_logits * w_ent)
    for i in pooled:
        pool_span_backward(d_summary / len(pooled), matrix, spans[i], pooling, out=d_matrix)

    enc_grads = encoder.backward(enc_cache, d_matrix) if trainable else None
    total = w_ev * evidence_loss + w_ent * verdict_loss
    return total, evidence_loss, verdict_loss, enc_grads, ev_grads, v_grads


@dataclass
class JointTrainResult:
    model: JointModel
    loss_curve: dict[str, list[float]] = field(default_factory=dict)


def train_joint(
    train_claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
    hyperparams: Hyperparams,
    max_len: int = 1024,
    threshold: float = 0.5,
    pooling: str = "mean",
    inject_arm_prefix: bool = False,
    encoder_factory=None,
) -> JointTrainResult:
    """Jointly fit the shared encoder (``encoder_factory(seed)``, toy when
    None) and both heads."""
    root = np.random.SeedSequence([_JOINT_SEED_SALT, hyperparams.seed])
    enc_seed, ev_seed, v_seed, shuffle_seed = root.spawn(4)
    encoder = encoder_factory(enc_seed) if encoder_factory else ToyEncoder(seed=enc_seed)
    model = JointModel(
        encoder=encoder,
        evidence_head=EvidenceHead.create(encoder.dim, n_classes=2, seed=ev_seed),
        verdict_head=EntailmentHead.create(encoder.dim, n_classes=2, seed=v_seed),
        max_len=max_len,
        threshold=threshold,
        pooling=pooling,
        inject_arm_prefix=inject_arm_prefix,
    )

    examples = []
    for claim in train_claims:
        if claim.gold_evidence is None:
            raise MissingGoldEvidence(f"claim {claim.claim_id} has no gold evidence")
        if claim.gold_label is None:
            raise MissingGoldLabel(f"claim {claim.claim_id} has no gold label")
        premise = resolve_premise(claim, corpus, inject_arm_prefix)
        ji = build_joint_sequence(encoder.tokenizer, claim.text, premise, max_len)
        examples.append((ji, gold_evidence_globals(claim, premise), claim.gold_label))

    weights = (hyperparams.w_evidence, hyperparams.w_entailment)
    groups = [model.evidence_head.params, model.verdict_head.params]
    if encoder.trainable:
        groups.append(encoder.params)

    def batch_grads(batch_idx):
        scale = 1.0 / len(batch_idx)
        grads = [zero_grads(g) for g in groups]
        totals = np.zeros(3)
        for idx in batch_idx:
            total, l_ev, l_ent, enc_g, ev_g, v_g = joint_grads(
                model, *examples[idx], weights, teacher_forcing=True
            )
            totals += (total, l_ev, l_ent)
            # a frozen encoder has no group, so zip stops before its None grads
            for into, g in zip(grads, (ev_g, v_g, enc_g)):
                accumulate(into, g, scale)
        totals *= scale
        return totals.tolist(), grads

    rng = np.random.default_rng(shuffle_seed)
    steps = fit(groups, batch_grads, len(examples), hyperparams, rng)
    names = ("total", "evidence", "entailment")
    curves = {name: [step[k] for step in steps] for k, name in enumerate(names)}
    return JointTrainResult(model=model, loss_curve=curves)


def predict_joint(
    claim: ClaimInstance,
    corpus: Mapping[str, ClinicalTrialRecord],
    model: JointModel,
) -> SystemPrediction:
    """Run the joint model and map its output to the shared prediction shape.

    The returned probability list covers the full premise: truncated
    sentences get probability 0.0 and are never selected.
    """
    premise = resolve_premise(claim, corpus, model.inject_arm_prefix)
    out = forward_joint(claim, premise, model)
    full_probs = list(out.evidence_probs) + [0.0] * len(out.dropped)
    return SystemPrediction(
        claim_id=claim.claim_id,
        evidence_probs=tuple(full_probs),
        selected=out.gated,
        class_probs=(out.class_probs[0], out.class_probs[1]),
        verdict=out.verdict,
        fallback_used=out.fallback_used,
    )
