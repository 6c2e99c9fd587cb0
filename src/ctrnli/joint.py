"""The multi-task system: one claim-document pass feeding both task heads.

The claim and every premise sentence are packed into a single sequence and
encoded once. Each surviving sentence's token block is pooled to a vector;
the evidence head scores these vectors, gating keeps those above the
threshold, and the gated vectors are pooled again into an evidence summary
the verdict head classifies. Both heads train jointly against a weighted sum
of the per-sentence binary cross-entropy and the verdict cross-entropy,
backpropagated through the forward inference runs (:func:`_forward`) over
sequences packed once before training. Training always teacher-forces: the
evidence summary pools the gold spans; at inference it pools the gated spans.
The claim's own block is never fed to either head. With the toy encoder its
content barely reaches the sentence vectors either: two window-3 smoothing
layers let a row see only two tokens on either side, so no sentence after the
first reads any claim token (ROADMAP item 4).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_MAX_LEN, DEFAULT_POOLING, DEFAULT_THRESHOLD
from .corpus import (
    LABELS,
    ClaimInstance,
    ClinicalTrialRecord,
    PremiseDoc,
    gold_evidence_globals,
    require_sentences,
    resolve_premise,
    shown_id,
)
from .encode import (
    JointInput,
    ToyEncoder,
    build_joint_sequence,
    encode_batch,
    naming_claim,
    pool_spans,
    pool_spans_backward,
)
from .encode import pool_span, pool_span_backward  # noqa: F401  bench/tracing.py wraps them here
from .errors import CtrnliError, UsageError
from .nn import (
    ClassifierHead,
    Hyperparams,
    cross_entropy,
    fit,
    mlp_backward,
    mlp_forward,
    padded,
    softmax,
    to_stored_precision,
)
from .pipeline import EVIDENCE_CLASS, SystemPrediction, select_evidence, verdict_from_probs
from .pipeline import predict_memoized

_JOINT_SEED_SALT = 37


@dataclass
class JointModel:
    """Shared encoder plus the two task heads and inference settings. A
    loaded one memoizes its predictions (:func:`ctrnli.pipeline.predict_memoized`)."""

    encoder: object
    evidence_head: ClassifierHead
    verdict_head: ClassifierHead
    max_len: int = DEFAULT_MAX_LEN["joint"]
    threshold: float = DEFAULT_THRESHOLD
    pooling: str = DEFAULT_POOLING
    inject_arm_prefix: bool = False
    _memo: tuple = field(default=(None, None), init=False, repr=False, compare=False)


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


def _forward(model: JointModel, matrix: np.ndarray, spans, counts: Sequence[int], golds=None):
    """From encoded token rows to the outputs of both heads, for a batch of
    sequences laid back to back in ``matrix``.

    ``spans`` are the rows of every surviving sentence, ``counts[k]`` of them
    for sequence ``k``, in order; no count is zero, since :func:`_pack`
    refuses a sequence that keeps no sentence. One evidence-head call scores
    the survivors' ``[n, 1, D]`` stack and one verdict-head call the
    ``[B, 1, D]`` stack of summaries; a stack rounds each row exactly as a
    one-vector call does. A summary averages its sequence's gated vectors or,
    given ``golds`` (teacher forcing), the gold ones that survived truncation
    (all survivors when none did). Returns the stacked evidence logits and
    head cache, the evidence probabilities, and per sequence the pooled rows
    of ``spans`` and the fallback flag, then the verdict logits and head cache.
    """
    vecs = pool_spans(matrix, spans, model.pooling)
    logits, ev_cache = mlp_forward(model.evidence_head.params, vecs[:, None, :])
    probs = softmax(logits[:, 0])[:, EVIDENCE_CLASS].tolist()
    pooled, fallbacks = [], []
    summaries = np.empty((len(counts), 1, model.encoder.dim))
    first = 0
    for k, n in enumerate(counts):
        if golds is None:
            chosen, fallback = select_evidence(probs[first : first + n], model.threshold)
        else:
            chosen, fallback = sorted(i for i in golds[k] if i < n) or list(range(n)), False
        rows = [first + i for i in chosen]
        # the bits of .mean(axis=0), without its Python-level wrapper
        np.divide(vecs[rows].sum(axis=0), len(rows), out=summaries[k, 0])
        pooled.append(rows)
        fallbacks.append(fallback)
        first += n
    v_logits, v_cache = mlp_forward(model.verdict_head.params, summaries)
    return logits[:, 0], ev_cache, probs, pooled, fallbacks, v_logits, v_cache


def _pack(tokenizer, claim: ClaimInstance, premise: PremiseDoc, max_len: int) -> JointInput:
    """The claim's joint sequence; an empty premise raises :class:`CtrnliError`,
    and a ``max_len`` that packs none of its sentences :class:`UsageError`."""
    require_sentences(claim, premise)
    with naming_claim(claim.claim_id):
        ji = build_joint_sequence(tokenizer, claim.text, premise, max_len)
    if not ji.span_map:
        first = tokenizer.tokenize(premise.texts[0]).length
        raise UsageError(
            f"claim {shown_id(claim.claim_id)}: max_len {max_len} packs no premise sentence "
            f"(the first has {first} tokens)"
        )
    return ji


def forward_joint(claim: ClaimInstance, premise: PremiseDoc, model: JointModel) -> SystemPrediction:
    """Single-pass inference over one claim-document sequence.

    The probabilities cover the full premise: sentences the packer dropped
    read 0.0 and are never selected.
    """
    ji = _pack(model.encoder.tokenizer, claim, premise, model.max_len)
    matrix = model.encoder.encode(ji.token_ids)
    _, _, probs, pooled, fallbacks, v_logits, _ = _forward(
        model, matrix, ji.span_map, [len(ji.span_map)]
    )
    class_probs = _verdict_probs(v_logits[0, 0])
    return SystemPrediction(
        claim_id=claim.claim_id,
        evidence_probs=tuple(probs + [0.0] * len(ji.dropped_sentences)),
        selected=tuple(pooled[0]),
        class_probs=class_probs,
        verdict=verdict_from_probs(class_probs),
        fallback_used=fallbacks[0],
    )


def joint_grads(
    model: JointModel,
    examples: Sequence[tuple[JointInput, frozenset[int], str]],
    weights: tuple[float, float] = (1.0, 1.0),
):
    """Mean loss terms and analytic gradients over a minibatch of packed
    (sequence, gold evidence, gold label) examples.

    The batch runs as one encoder forward, one stacked call and backward per
    head, one pool backward per loss term and one encoder backward. Returns
    (total, evidence_loss, verdict_loss, encoder grads or None, evidence-head
    grads, verdict-head grads): each ``1 / len(examples)`` times the
    per-example values summed in example order, bit for bit. The verdict term
    is teacher-forced: it reads the summary of the gold spans that survived
    (see :func:`_forward`).
    """
    w_ev, w_ent = weights
    encoder = model.encoder
    golds = [gold for _, gold, _ in examples]
    scale = 1.0 / len(examples)
    matrix, enc_cache = encode_batch(encoder, [ji.token_ids for ji, _, _ in examples])
    offsets = itertools.accumulate((ji.length for ji, _, _ in examples), initial=0)
    spans = [(o + s, o + e) for o, (ji, _, _) in zip(offsets, examples) for s, e in ji.span_map]
    counts = [len(ji.span_map) for ji, _, _ in examples]
    ev_logits, ev_cache, _, pooled, _, v_logits, v_cache = _forward(
        model, matrix, spans, counts, golds
    )

    # Evidence term: each example's mean BCE over its survivors. All
    # survivors go back through the head as one stack, padded to
    # [examples, survivors, 1, *] so each example's grads sum on their own.
    per_row = np.repeat(counts, counts)  # the survivor count of each row's example
    targets = [
        EVIDENCE_CLASS if i in gold else 1 - EVIDENCE_CLASS
        for gold, n in zip(golds, counts)
        for i in range(n)
    ]
    losses, d_logits = cross_entropy(ev_logits, targets)
    row_losses = (np.array(losses) / per_row).tolist()
    d_logits *= (w_ev / per_row)[:, None]
    x, a1 = ev_cache
    ev_grads, d_vecs = mlp_backward(
        model.evidence_head.params,
        (padded(x, counts), padded(a1, counts)),
        padded(d_logits[:, None, :], counts),
        scale,
    )

    # Verdict term over each example's pooled evidence summary.
    labels = [LABELS.index(label) for _, _, label in examples]
    verdict_losses, d_logits = cross_entropy(v_logits[:, 0], labels)
    v_grads, d_summary = mlp_backward(
        model.verdict_head.params, v_cache, (d_logits * w_ent)[:, None, :], scale
    )

    enc_grads = None
    if enc_cache is not None:
        # each survivor's evidence gradient, then each pooled one's share of its summary's
        survived = np.arange(d_vecs.shape[1]) < np.array(counts)[:, None]
        d_matrix = pool_spans_backward(d_vecs[survived, 0], matrix, spans, model.pooling)
        sizes = [len(chosen) for chosen in pooled]
        d_pooled = np.repeat(d_summary[:, 0] / np.asarray(sizes)[:, None], sizes, axis=0)
        pooled_spans = [spans[r] for chosen in pooled for r in chosen]
        pool_spans_backward(d_pooled, matrix, pooled_spans, model.pooling, out=d_matrix)
        enc_grads = encoder.backward(enc_cache, d_matrix, scale)

    totals = np.zeros(3)
    first = 0
    for n, verdict_loss in zip(counts, verdict_losses):
        # in row order, as Python floats; np.sum adds pairwise
        evidence_loss = sum(row_losses[first : first + n], 0.0)
        totals += (w_ev * evidence_loss + w_ent * verdict_loss, evidence_loss, verdict_loss)
        first += n
    totals *= scale
    return (*totals.tolist(), enc_grads, ev_grads, v_grads)


@dataclass
class JointTrainResult:
    model: JointModel
    loss_curve: dict[str, list[float]] = field(default_factory=dict)


def train_joint(
    train_claims: Sequence[ClaimInstance],
    corpus: Mapping[str, ClinicalTrialRecord],
    hyperparams: Hyperparams,
    max_len: int = DEFAULT_MAX_LEN["joint"],
    threshold: float = DEFAULT_THRESHOLD,
    pooling: str = DEFAULT_POOLING,
    inject_arm_prefix: bool = False,
    encoder_factory=None,
) -> JointTrainResult:
    """Jointly fit the shared encoder (``encoder_factory(seed)``, toy when
    None) and both heads; the model holds the values its checkpoint stores."""
    root = np.random.SeedSequence([_JOINT_SEED_SALT, hyperparams.seed])
    enc_seed, ev_seed, v_seed, shuffle_seed = root.spawn(4)
    encoder = encoder_factory(enc_seed) if encoder_factory else ToyEncoder(seed=enc_seed)
    model = JointModel(
        encoder=encoder,
        evidence_head=ClassifierHead.create(encoder.dim, seed=ev_seed),
        verdict_head=ClassifierHead.create(encoder.dim, seed=v_seed),
        max_len=max_len,
        threshold=threshold,
        pooling=pooling,
        inject_arm_prefix=inject_arm_prefix,
    )

    examples = []
    for claim in train_claims:
        if claim.gold_label is None:
            raise CtrnliError(f"claim {shown_id(claim.claim_id)} has no gold label")
        premise = resolve_premise(claim, corpus, inject_arm_prefix)
        ji = _pack(encoder.tokenizer, claim, premise, max_len)
        examples.append((ji, gold_evidence_globals(claim, premise), claim.gold_label))

    weights = (hyperparams.w_evidence, hyperparams.w_entailment)
    groups = [model.evidence_head.params, model.verdict_head.params, encoder.params]

    def batch_grads(batch_idx):
        *totals, enc_g, ev_g, v_g = joint_grads(model, [examples[i] for i in batch_idx], weights)
        return totals, [ev_g, v_g, enc_g]

    rng = np.random.default_rng(shuffle_seed)
    steps = fit(groups, batch_grads, len(examples), hyperparams, rng)
    to_stored_precision(encoder, model.evidence_head, model.verdict_head)
    names = ("total", "evidence", "entailment")
    curves = {name: [step[k] for step in steps] for k, name in enumerate(names)}
    return JointTrainResult(model=model, loss_curve=curves)


def predict_joint(
    claim: ClaimInstance,
    corpus: Mapping[str, ClinicalTrialRecord],
    model: JointModel,
) -> SystemPrediction:
    """Resolve the claim's premise and run :func:`forward_joint` over it, which
    a loaded model answers from its memo for a claim it has seen."""
    parts = (model.encoder, model.evidence_head, model.verdict_head)
    return predict_memoized(claim, corpus, model, parts, forward_joint)
