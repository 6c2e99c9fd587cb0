"""The one training loop (``nn.fit``) against the two loops it replaced.

The oracles below are the separate pipeline and joint loops as they stood
before training became one code path, copied verbatim apart from their
names; the joint loop calls the joint gradient path as it stood then
(``test_joint._oracle_joint_grads``), and the pipeline loop the per-item
gradients of that time with their dense embedding gradient and one-vector
head backward (``_oracle_sequence_classification_grads``). The helpers they
call are parent copies too (the ``_oracle_*`` functions: one-sequence
encoder cache and backward, one-span pool backward, one-example
cross-entropy, dense accumulation and the optimizer step), so the training
code under test never checks itself. Every parameter and every loss value
must match bit for bit, with a trainable toy encoder and with a frozen
(``trainable=False``) encoder. The parameters are compared twice: in
float64 as training leaves them, recorded where ``to_stored_precision``
receives them, and as that cast returns them.
"""

from dataclasses import replace

import numpy as np
import pytest

from conftest import time_limit
from ctrnli import joint, pipeline
from ctrnli.corpus import (
    SECTION_NAMES,
    ClinicalTrialRecord,
    gold_evidence_globals,
    parse_claim,
    resolve_premise,
)
from ctrnli.errors import CtrnliError
from ctrnli.encode import ToyEncoder
from ctrnli.joint import JointModel, train_joint
from ctrnli.nn import (
    ClassifierHead,
    Hyperparams,
    WarmupLinearSchedule,
    minibatches,
    mlp_forward,
    to_stored_precision,
)
from ctrnli.pipeline import (
    entailment_training_items,
    evidence_training_items,
    train_entailment_model,
    train_evidence_model,
)
from test_encode import (
    _oracle_encode_with_cache,
    _oracle_pool_span,
    _oracle_pool_span_backward,
    _oracle_toy_backward,
)
from test_joint import _oracle_joint_grads
from test_nn import (
    _oracle_accumulate,
    _oracle_cross_entropy,
    _oracle_mlp_backward,
    _OracleSgdwOptimizer,
    _oracle_zero_grads,
)
from test_pipeline import _StubPretrained

HP = Hyperparams(
    learning_rate=0.1, warmup_rate=0.2, weight_decay=0.01, batch_size=3, seed=3, max_steps=25
)


def _oracle_pooled_forward(encoder, head, token_ids, pooling: str):
    matrix, cache = (
        _oracle_encode_with_cache(encoder, token_ids)
        if encoder.trainable
        else (encoder.encode(token_ids), None)
    )
    pooled = _oracle_pool_span(matrix, (0, matrix.shape[0]), mode=pooling)
    logits, mlp_cache = mlp_forward(head.params, pooled)
    return logits, (matrix, cache, mlp_cache)


def _oracle_sequence_classification_grads(encoder, head, items, pooling="mean"):
    head_grads = _oracle_zero_grads(head.params)
    enc_grads = _oracle_zero_grads(encoder.params) if encoder.trainable else None
    total = 0.0
    scale = 1.0 / len(items)
    for token_ids, target in items:
        logits, (matrix, enc_cache, mlp_cache) = _oracle_pooled_forward(
            encoder, head, token_ids, pooling
        )
        loss, d_logits = _oracle_cross_entropy(logits, target)
        total += loss
        grads, d_pooled = _oracle_mlp_backward(head.params, mlp_cache, d_logits)
        _oracle_accumulate(head_grads, grads, scale)
        if enc_grads is not None:
            d_matrix = _oracle_pool_span_backward(d_pooled, matrix, (0, matrix.shape[0]), pooling)
            _oracle_accumulate(enc_grads, _oracle_toy_backward(encoder, enc_cache, d_matrix), scale)
    return total * scale, enc_grads, head_grads


def _oracle_run_training(encoder, head, items, hp, shuffle_rng, pooling="mean"):
    schedule = WarmupLinearSchedule(hp.learning_rate, hp.total_steps(len(items)), hp.warmup_rate)
    optimizer = _OracleSgdwOptimizer(schedule, weight_decay=hp.weight_decay)
    groups = [head.params] + ([encoder.params] if encoder.trainable else [])
    curve = []
    for batch_idx in minibatches(len(items), hp, shuffle_rng):
        batch = [items[i] for i in batch_idx]
        loss, enc_grads, head_grads = _oracle_sequence_classification_grads(
            encoder, head, batch, pooling
        )
        grad_groups = [head_grads] + ([enc_grads] if enc_grads is not None else [])
        optimizer.step(groups, grad_groups)
        curve.append(loss)
    return curve


def _oracle_stage(salt, head_cls, make_items, hp, pooling, factory):
    enc_seed, head_seed, shuffle_seed = np.random.SeedSequence([salt, hp.seed]).spawn(3)
    encoder = factory(enc_seed)
    head = head_cls.create(encoder.dim, seed=head_seed)
    items = make_items(encoder.tokenizer)
    curve = _oracle_run_training(
        encoder, head, items, hp, np.random.default_rng(shuffle_seed), pooling
    )
    return encoder, head, curve


def _oracle_train_joint(train_claims, corpus, hyperparams, pooling, factory):
    root = np.random.SeedSequence([37, hyperparams.seed])
    enc_seed, ev_seed, v_seed, shuffle_seed = root.spawn(4)
    encoder = factory(enc_seed)
    model = JointModel(
        encoder=encoder,
        evidence_head=ClassifierHead.create(encoder.dim, seed=ev_seed),
        verdict_head=ClassifierHead.create(encoder.dim, seed=v_seed),
        pooling=pooling,
    )
    examples = []
    for claim in train_claims:
        premise = resolve_premise(claim, corpus)
        examples.append((claim, premise, gold_evidence_globals(claim, premise), claim.gold_label))

    hp = hyperparams
    weights = (hp.w_evidence, hp.w_entailment)
    schedule = WarmupLinearSchedule(hp.learning_rate, hp.total_steps(len(examples)), hp.warmup_rate)
    optimizer = _OracleSgdwOptimizer(schedule, weight_decay=hp.weight_decay)
    groups = [model.evidence_head.params, model.verdict_head.params]
    if encoder.trainable:
        groups.append(encoder.params)

    curves = {"total": [], "evidence": [], "entailment": []}
    rng = np.random.default_rng(shuffle_seed)
    for batch_idx in minibatches(len(examples), hp, rng):
        scale = 1.0 / len(batch_idx)
        batch_grads = [_oracle_zero_grads(g) for g in groups]
        totals = np.zeros(3)
        for idx in batch_idx:
            claim, premise, gold, label = examples[idx]
            total, l_ev, l_ent, enc_g, ev_g, v_g = _oracle_joint_grads(
                model, claim, premise, gold, label, weights, teacher_forcing=True
            )
            totals += (total, l_ev, l_ent)
            _oracle_accumulate(batch_grads[0], ev_g, scale)
            _oracle_accumulate(batch_grads[1], v_g, scale)
            if enc_g is not None:
                _oracle_accumulate(batch_grads[2], enc_g, scale)
        optimizer.step(groups, batch_grads)
        totals *= scale
        curves["total"].append(float(totals[0]))
        curves["evidence"].append(float(totals[1]))
        curves["entailment"].append(float(totals[2]))
    return model, curves


def _toy(seed):
    return ToyEncoder(dim=16, seed=seed)


def _frozen(seed):
    return _StubPretrained(ToyEncoder(dim=16, seed=5))


FACTORIES = pytest.mark.parametrize("factory", [_toy, _frozen], ids=["toy", "frozen"])


@pytest.fixture()
def uncast(monkeypatch):
    """Per training run, copies of the float64 parameters training hands to
    ``to_stored_precision``: the encoder's, then each head's."""
    recorded = []

    def recording(encoder, *heads):
        parts = [encoder.params, *(head.params for head in heads)]
        recorded.append([{name: arr.copy() for name, arr in p.items()} for p in parts])
        to_stored_precision(encoder, *heads)

    for module in (pipeline, joint):
        monkeypatch.setattr(module, "to_stored_precision", recording)
    return recorded


def _assert_same_params(a: dict, b: dict):
    assert set(a) == set(b)
    for name in a:
        assert a[name].dtype == b[name].dtype, name
        assert np.array_equal(a[name], b[name]), name


def _assert_same_model(uncast: list, result_parts, oracle_parts):
    """Training left the oracle's float64 parameters, bit for bit, and the
    cast turned them into the values a checkpoint stores: a toy encoder's
    as float32 arrays, a head's as float64 arrays of float32 values."""
    (enc, *heads), (oracle_enc, *oracle_heads) = result_parts, oracle_parts
    parts = [(enc.params, oracle_enc.params, np.float32)]
    parts += [(h.params, o.params, np.float64) for h, o in zip(heads, oracle_heads)]
    assert len(uncast[-1]) == len(parts)
    for before, (after, oracle, dtype) in zip(uncast[-1], parts):
        _assert_same_params(before, oracle)
        stored = {name: arr.astype(np.float32).astype(dtype) for name, arr in oracle.items()}
        _assert_same_params(after, stored)


@FACTORIES
@pytest.mark.parametrize("pooling", ["mean", "max"])
def test_evidence_stage_matches_old_loop(corpus, claims, factory, pooling, uncast):
    result = train_evidence_model(claims, corpus, HP, pooling=pooling, encoder_factory=factory)
    encoder, head, curve = _oracle_stage(
        11, ClassifierHead,
        lambda tok: evidence_training_items(claims, corpus, tok, 512),
        HP, pooling, factory,
    )
    assert len(curve) == HP.max_steps and result.loss_curve == curve
    _assert_same_model(uncast, (result.encoder, result.head), (encoder, head))


@FACTORIES
@pytest.mark.parametrize("source", ["gold", "predicted"])
def test_entailment_stage_matches_old_loop(corpus, claims, factory, source, uncast):
    evidence = train_evidence_model(claims, corpus, HP, encoder_factory=factory)
    model = evidence if source == "predicted" else None
    result = train_entailment_model(
        claims, corpus, HP, evidence_model=model, encoder_factory=factory
    )
    encoder, head, curve = _oracle_stage(
        23, ClassifierHead,
        lambda tok: entailment_training_items(
            claims, corpus, tok, 512, evidence_model=model, threshold=0.5, pooling="mean"
        ),
        HP, "mean", factory,
    )
    assert len(curve) == HP.max_steps and result.loss_curve == curve
    _assert_same_model(uncast, (result.encoder, result.head), (encoder, head))


@FACTORIES
@pytest.mark.parametrize("pooling", ["mean", "max"])
def test_joint_matches_old_loop(corpus, claims, factory, pooling, uncast):
    result = train_joint(claims, corpus, HP, pooling=pooling, encoder_factory=factory)
    model, curves = _oracle_train_joint(claims, corpus, HP, pooling, factory)
    assert result.loss_curve == curves
    assert len(curves["total"]) == HP.max_steps
    parts = ("encoder", "evidence_head", "verdict_head")
    _assert_same_model(
        uncast, [getattr(result.model, p) for p in parts], [getattr(model, p) for p in parts]
    )


def test_frozen_encoder_is_shared_not_rebuilt(corpus, claims):
    """A factory that hands out one ready encoder gives both stages that encoder."""
    ready = _StubPretrained(ToyEncoder(dim=16, seed=5))
    evidence = train_evidence_model(claims, corpus, HP, encoder_factory=lambda seed: ready)
    entailment = train_entailment_model(claims, corpus, HP, encoder_factory=lambda seed: ready)
    assert evidence.encoder is ready and entailment.encoder is ready


TRAINERS = pytest.mark.parametrize(
    "train", [train_evidence_model, train_entailment_model, train_joint],
    ids=["evidence", "entailment", "joint"],
)


@TRAINERS
@pytest.mark.parametrize("max_steps", [5, None])
def test_empty_premise_is_refused(corpus, train, max_steps):
    """A claim whose premise has no sentence is refused as prediction refuses
    it. Before, 5 evidence steps over no pair looped forever, and the other
    stages trained on the bare claim."""
    empty = {name: () for name in SECTION_NAMES}
    corpus = {**corpus, "trial-empty": ClinicalTrialRecord("trial-empty", empty)}
    claim = parse_claim({
        "claim_id": "claim-empty", "text": "No adverse events.", "section_id": "adverse_events",
        "primary_ctr": "trial-empty", "label": "Entailment", "evidence": {},
    })
    hp = Hyperparams(max_steps=max_steps)
    with time_limit(20), pytest.raises(CtrnliError, match="claim-empty resolved to an empty"):
        train([claim], corpus, hp)


@TRAINERS
def test_claim_without_gold_evidence_is_refused(corpus, claims, train):
    """A labelled claim without gold evidence is refused by the one line of
    ``gold_evidence_globals``, whichever trainer reads it."""
    claim = replace(claims[0], gold_evidence=None)
    with time_limit(20), pytest.raises(CtrnliError) as refused:
        train([claim], corpus, Hyperparams(max_steps=1))
    assert str(refused.value) == f"claim {claim.claim_id} has no gold evidence"


@pytest.mark.parametrize(
    "train", [train_entailment_model, train_joint], ids=["entailment", "joint"]
)
@pytest.mark.parametrize(
    "label, what",
    [(None, "no gold label"),
     ("Neutral", "gold label 'Neutral' outside ('Entailment', 'Contradiction')"),
     (["Entailment"], "gold label ['Entailment'] outside ('Entailment', 'Contradiction')")],
    ids=["none", "neutral", "list"],
)
def test_claim_without_a_known_gold_label_is_refused(corpus, claims, train, label, what):
    """A hand-built claim whose label is missing or outside ``LABELS`` is
    refused by the one line of ``gold_label_index``, before any step, by
    each trainer that reads labels."""
    claim = replace(claims[0], gold_label=label)
    with time_limit(20), pytest.raises(CtrnliError) as refused:
        train([claim], corpus, Hyperparams(max_steps=1))
    assert str(refused.value) == f"claim {claim.claim_id} has {what}"


@TRAINERS
def test_steps_over_no_claims_are_refused(corpus, train):
    with time_limit(20), pytest.raises(CtrnliError, match="nothing to train on"):
        train([], corpus, Hyperparams(max_steps=5))
