"""Joint multi-task system: single pass, gating, losses, training."""

import numpy as np
import pytest

from ctrnli import joint
from ctrnli.corpus import LABELS, ClaimInstance, PremiseDoc, gold_evidence_globals, resolve_premise
from ctrnli.encode import ToyEncoder, build_joint_sequence, pool_span
from ctrnli.errors import CtrnliError, UsageError
from ctrnli.joint import (
    JointModel,
    _verdict_probs,
    forward_joint,
    joint_grads,
    joint_loss,
    predict_joint,
    train_joint,
)
from ctrnli.nn import (
    EntailmentHead,
    EvidenceHead,
    Hyperparams,
    mlp_forward,
    softmax,
)
from ctrnli.pipeline import EVIDENCE_CLASS, select_evidence
from test_encode import (
    _oracle_encode_with_cache,
    _oracle_pool_span_backward,
    _oracle_toy_backward,
    assert_grads_equal,
)
from test_nn import (
    _oracle_accumulate,
    _oracle_cross_entropy,
    _oracle_mlp_backward,
    _oracle_zero_grads,
)
from test_pipeline import _StubPretrained


def _tiny_model(max_len=1024, threshold=0.5, seed=0) -> JointModel:
    enc = ToyEncoder(dim=16, seed=seed)
    return JointModel(
        encoder=enc,
        evidence_head=EvidenceHead.create(16, seed=seed + 1),
        verdict_head=EntailmentHead.create(16, seed=seed + 2),
        max_len=max_len,
        threshold=threshold,
    )


class TestForwardJoint:
    def test_single_encode_call_per_claim(self, corpus, claims):
        model = _tiny_model()
        before = model.encoder.encode_calls
        for claim in claims:
            forward_joint(claim, resolve_premise(claim, corpus), model)
        assert model.encoder.encode_calls - before == len(claims)

    def test_gated_matches_selection_rule(self, corpus, claims):
        model = _tiny_model()
        for claim in claims[:6]:
            out = forward_joint(claim, resolve_premise(claim, corpus), model)
            selected, fallback_used = select_evidence(out.evidence_probs, model.threshold)
            assert set(out.selected) == set(selected)
            assert out.fallback_used == fallback_used

    def test_truncated_sentences_never_gated(self, corpus, claims):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        tok = ToyEncoder().tokenizer
        # budget for the claim, its separator, and the first sentence only
        budget = len(tok.tokenize(claim.text).token_ids) + 1 + len(
            tok.tokenize(premise.texts[0]).token_ids
        )
        model = _tiny_model(max_len=budget)
        out = forward_joint(claim, premise, model)
        ji = _packed(model, claim, premise)
        assert ji.dropped_sentences == tuple(range(1, premise.n))
        assert len(ji.span_map) == 1
        assert out.evidence_probs[1:] == (0.0,) * (premise.n - 1)
        assert all(i not in ji.dropped_sentences for i in out.selected)

    def test_all_sentences_dropped(self, corpus, claims):
        """A max_len that packs no sentence of a non-empty premise is refused:
        the verdict would read the zero summary vector, not the premise."""
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        n_claim_tokens = len(ToyEncoder().tokenizer.tokenize(claim.text).token_ids)
        n_first = len(ToyEncoder().tokenizer.tokenize(premise.texts[0]).token_ids)
        max_len = n_claim_tokens + 1
        model = _tiny_model(max_len=max_len)
        message = (
            f"claim {claim.claim_id}: max_len {max_len} packs no premise sentence "
            f"\\(the first has {n_first} tokens\\)"
        )
        with pytest.raises(UsageError, match=message):
            forward_joint(claim, premise, model)

    @pytest.mark.parametrize("pooling", ["mean", "first", "max"])
    @pytest.mark.parametrize("max_len", [1024, 40])
    def test_matches_per_sentence_loop_bitwise(self, corpus, claims, pooling, max_len):
        """Stacked pooling and head calls against one call per sentence vector."""
        model = _tiny_model(max_len=max_len)
        model.pooling = pooling
        for claim in claims:
            premise = resolve_premise(claim, corpus)
            ji = build_joint_sequence(model.encoder.tokenizer, claim.text, premise, max_len)
            matrix = model.encoder.encode(ji.token_ids)
            vecs = [pool_span(matrix, span, pooling) for span in ji.span_map]
            probs = [float(softmax(model.evidence_head.logits(v))[EVIDENCE_CLASS]) for v in vecs]
            out = forward_joint(claim, premise, model)
            assert out.evidence_probs == tuple(probs) + (0.0,) * len(ji.dropped_sentences)
            if out.selected:
                summary = np.mean([vecs[i] for i in out.selected], axis=0)
                assert out.class_probs == _verdict_probs(model.verdict_head.logits(summary))

    def test_class_probs_normalized(self, corpus, claims):
        model = _tiny_model()
        out = forward_joint(claims[0], resolve_premise(claims[0], corpus), model)
        assert sum(out.class_probs) == pytest.approx(1.0)


class TestJointLoss:
    def test_uniform_everything(self):
        """All probabilities at one half: BCE = ln 2 and CE = ln 2."""
        loss = joint_loss([0.5, 0.5, 0.5], (0.5, 0.5), {0}, "Entailment")
        assert loss == pytest.approx(2.0 * np.log(2.0), abs=1e-12)

    def test_weights_scale_terms(self):
        out = ([0.5], (0.5, 0.5))
        ln2 = np.log(2.0)
        assert joint_loss(*out, {0}, "Entailment", weights=(1.0, 0.0)) == pytest.approx(ln2)
        assert joint_loss(*out, {0}, "Entailment", weights=(0.0, 1.0)) == pytest.approx(ln2)
        assert joint_loss(*out, {0}, "Entailment", weights=(2.0, 3.0)) == pytest.approx(5 * ln2)

    def test_no_survivors_means_pure_verdict_loss(self):
        assert joint_loss([], (0.8, 0.2), {0}, "Entailment") == pytest.approx(-np.log(0.8))

    def test_perfect_probs_near_zero_loss(self):
        loss = joint_loss([1.0 - 1e-16, 1e-300], (1.0, 0.0), {0}, "Entailment")
        assert loss == pytest.approx(0.0, abs=1e-9)

    def test_missing_gold(self):
        out = ([0.5], (0.5, 0.5))
        message = "joint loss needs both gold evidence and a gold label"
        with pytest.raises(CtrnliError, match=message):
            joint_loss(*out, None, "Entailment")
        with pytest.raises(CtrnliError, match=message):
            joint_loss(*out, {0}, None)


def _packed(model, claim, premise):
    return build_joint_sequence(model.encoder.tokenizer, claim.text, premise, model.max_len)


class TestJointGrads:
    def test_loss_terms_match_forward(self, corpus, claims):
        """With teacher forcing off, the gradient path and the plain forward
        pass must report identical losses."""
        model = _tiny_model()
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        gold = gold_evidence_globals(claim, premise)
        ji = _packed(model, claim, premise)
        total, l_ev, l_ent, *_ = joint_grads(
            model, [(ji, gold, claim.gold_label)], teacher_forcing=False
        )
        out = forward_joint(claim, premise, model)
        packed_probs = out.evidence_probs[: len(ji.span_map)]
        assert total == pytest.approx(
            joint_loss(packed_probs, out.class_probs, gold, claim.gold_label)
        )
        assert total == pytest.approx(l_ev + l_ent)

    def test_zero_evidence_weight_kills_evidence_grads(self, corpus, claims):
        model = _tiny_model()
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        gold = gold_evidence_globals(claim, premise)
        _, _, _, _, ev_grads, _ = joint_grads(
            model, [(_packed(model, claim, premise), gold, claim.gold_label)], weights=(0.0, 1.0)
        )
        for g in ev_grads.values():
            np.testing.assert_array_equal(g, np.zeros_like(g))

    def test_teacher_forcing_pools_gold_spans(self, corpus, claims):
        """Gold pooling must make the verdict loss independent of the
        evidence head, which an untrained gate would otherwise corrupt."""
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        gold = gold_evidence_globals(claim, premise)
        a = _tiny_model(seed=0)
        b = _tiny_model(seed=0)
        # corrupt b's evidence head only
        for p in b.evidence_head.params.values():
            p += 10.0
        _, _, l_ent_a, *_ = joint_grads(a, [(_packed(a, claim, premise), gold, claim.gold_label)])
        _, _, l_ent_b, *_ = joint_grads(b, [(_packed(b, claim, premise), gold, claim.gold_label)])
        assert l_ent_a == pytest.approx(l_ent_b)


class TestTrainJoint:
    def test_same_seed_reproduces_parameters(self, corpus, claims):
        hp = Hyperparams(max_steps=3, seed=5)
        a = train_joint(claims, corpus, hp)
        b = train_joint(claims, corpus, hp)
        for name in a.model.evidence_head.params:
            np.testing.assert_array_equal(
                a.model.evidence_head.params[name], b.model.evidence_head.params[name]
            )
        for name in a.model.encoder.params:
            np.testing.assert_array_equal(
                a.model.encoder.params[name], b.model.encoder.params[name]
            )

    def test_loss_curves_recorded(self, joint_result):
        curves = joint_result.loss_curve
        assert set(curves) == {"total", "evidence", "entailment"}
        assert len(curves["total"]) == 400
        for t, e, n in zip(curves["total"], curves["evidence"], curves["entailment"]):
            assert t == pytest.approx(e + n)

    def test_zero_evidence_weight_freezes_evidence_head(self, corpus, claims):
        hp = Hyperparams(
            learning_rate=0.1, weight_decay=0.0, max_steps=5, seed=0, w_evidence=0.0
        )
        result = train_joint(claims, corpus, hp)
        fresh = train_joint(claims, corpus, Hyperparams(max_steps=0, seed=0))
        for name in result.model.evidence_head.params:
            np.testing.assert_array_equal(
                result.model.evidence_head.params[name],
                fresh.model.evidence_head.params[name],
            )

    def test_overfit_model_memorizes_training_set(self, corpus, claims, joint_model):
        for claim in claims:
            premise = resolve_premise(claim, corpus)
            pred = predict_joint(claim, corpus, joint_model)
            assert set(pred.selected) == gold_evidence_globals(claim, premise), claim.claim_id
            assert pred.verdict == claim.gold_label, claim.claim_id


class TestPredictJoint:
    def test_probs_cover_full_premise(self, corpus, claims):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        tok = ToyEncoder().tokenizer
        budget = len(tok.tokenize(claim.text).token_ids) + 1 + len(
            tok.tokenize(premise.texts[0]).token_ids
        )
        model = _tiny_model(max_len=budget)
        pred = predict_joint(claim, corpus, model)
        assert len(pred.evidence_probs) == premise.n
        for i in _packed(model, claim, premise).dropped_sentences:
            assert pred.evidence_probs[i] == 0.0
            assert i not in pred.selected

    def test_deterministic(self, corpus, claims, joint_model):
        a = predict_joint(claims[2], corpus, joint_model)
        b = predict_joint(claims[2], corpus, joint_model)
        assert a == b


class TestGradientCheck:
    def test_head_gradients_match_finite_differences(self, corpus, claims):
        """Analytic head gradients against central differences on the total
        joint loss, teacher forcing off so the loss is the inference loss."""
        model = _tiny_model(seed=3)
        claim = claims[1]
        premise = resolve_premise(claim, corpus)
        gold = gold_evidence_globals(claim, premise)
        weights = (1.0, 1.0)

        # finite differences only see the analytic gradient while the gate
        # pattern is constant, so keep every probability away from the
        # threshold (the loss is piecewise smooth in between crossings)
        base = forward_joint(claim, premise, model)
        assert all(abs(p - model.threshold) > 1e-3 for p in base.evidence_probs)

        n = len(_packed(model, claim, premise).span_map)

        def total_loss():
            out = forward_joint(claim, premise, model)
            return joint_loss(
                out.evidence_probs[:n], out.class_probs, gold, claim.gold_label, weights
            )

        *_, ev_grads, v_grads = joint_grads(
            model, [(_packed(model, claim, premise), gold, claim.gold_label)], weights,
            teacher_forcing=False,
        )
        # gating makes the loss piecewise; probe a few coordinates only and
        # rely on the acceptance gradient check for aggregate coverage
        eps = 1e-5
        for params, grads in (
            (model.evidence_head.params, ev_grads),
            (model.verdict_head.params, v_grads),
        ):
            for name in ("W2", "b2"):
                for idx in [(0, 0), (2, 1)] if params[name].ndim == 2 else [(0,), (1,)]:
                    params[name][idx] += eps
                    plus = total_loss()
                    params[name][idx] -= 2 * eps
                    minus = total_loss()
                    params[name][idx] += eps
                    fd = (plus - minus) / (2 * eps)
                    np.testing.assert_allclose(grads[name][idx], fd, rtol=1e-4, atol=1e-8)


# --- the joint gradient path before it shared the inference forward ----------
# Copied verbatim apart from its name: a per-span pool_span list, one head
# forward and backward per sentence, and a re-pack of (claim, premise) on
# every call. It calls the one-sequence encoder cache and backward, one-span
# pool backward, one-example cross-entropy, one-vector head backward and
# dense accumulation of that time (the ``_oracle_*`` copies).


def _oracle_joint_grads(
    model: JointModel,
    claim: ClaimInstance,
    premise: PremiseDoc,
    gold_evidence: frozenset[int],
    gold_label: str,
    weights: tuple[float, float] = (1.0, 1.0),
    teacher_forcing: bool = True,
):
    """Loss terms and analytic gradients for one claim.

    Returns (total, evidence_loss, verdict_loss, encoder grads or None,
    evidence-head grads, verdict-head grads). With ``teacher_forcing`` the
    evidence summary pools the gold spans that survived truncation (falling
    back to all survivors when none did); otherwise it pools the gated spans,
    matching inference.
    """
    w_ev, w_ent = weights
    encoder, pooling = model.encoder, model.pooling
    ji = build_joint_sequence(encoder.tokenizer, claim.text, premise, model.max_len)
    trainable = encoder.trainable
    if trainable:
        matrix, enc_cache = _oracle_encode_with_cache(encoder, ji.token_ids)
    else:
        matrix, enc_cache = encoder.encode(ji.token_ids), None
    d_matrix = np.zeros_like(matrix)

    sentence_vecs = [pool_span(matrix, span, pooling) for span in ji.span_map]
    n_surv = len(sentence_vecs)

    # Evidence term: mean BCE over survivors.
    ev_grads = _oracle_zero_grads(model.evidence_head.params)
    evidence_loss = 0.0
    probs = []
    for i, vec in enumerate(sentence_vecs):
        logits, cache = mlp_forward(model.evidence_head.params, vec)
        probs.append(float(softmax(logits)[EVIDENCE_CLASS]))
        target = EVIDENCE_CLASS if i in gold_evidence else 1 - EVIDENCE_CLASS
        loss, d_logits = _oracle_cross_entropy(logits, target)
        evidence_loss += loss / n_surv
        grads, d_vec = _oracle_mlp_backward(
            model.evidence_head.params, cache, d_logits * (w_ev / n_surv)
        )
        _oracle_accumulate(ev_grads, grads)
        _oracle_pool_span_backward(d_vec, matrix, ji.span_map[i], pooling, out=d_matrix)

    # Verdict term over the pooled evidence summary.
    if teacher_forcing:
        pool_set = sorted(i for i in gold_evidence if i < n_surv)
        if not pool_set:
            pool_set = list(range(n_surv))
    else:
        pool_set = sorted(select_evidence(probs, model.threshold)[0]) if probs else []
    if pool_set:
        summary = np.mean([sentence_vecs[i] for i in pool_set], axis=0)
    else:
        summary = np.zeros(encoder.dim)
    logits, cache = mlp_forward(model.verdict_head.params, summary)
    verdict_loss, d_logits = _oracle_cross_entropy(logits, LABELS.index(gold_label))
    v_grads, d_summary = _oracle_mlp_backward(model.verdict_head.params, cache, d_logits * w_ent)
    for i in pool_set:
        _oracle_pool_span_backward(
            d_summary / len(pool_set), matrix, ji.span_map[i], pooling, out=d_matrix
        )

    enc_grads = _oracle_toy_backward(encoder, enc_cache, d_matrix) if trainable else None
    total = w_ev * evidence_loss + w_ent * verdict_loss
    return total, evidence_loss, verdict_loss, enc_grads, ev_grads, v_grads


def _survivor_budgets(tokenizer, claim, premise):
    """max_len values keeping every sentence, the first two, and none."""
    claim_len = len(tokenizer.tokenize(claim.text).token_ids) + 1
    s0, s1 = (len(tokenizer.tokenize(s).token_ids) for s in premise.texts[:2])
    return {"all": 1024, "two": claim_len + s0 + 1 + s1, "none": claim_len}


class TestJointGradsMatchOldPath:
    """The shared forward must leave every loss and gradient bit-identical."""

    @pytest.mark.parametrize("frozen", [False, True], ids=["toy", "frozen"])
    @pytest.mark.parametrize("budget", ["all", "two", "none"])
    @pytest.mark.parametrize("teacher_forcing", [True, False])
    @pytest.mark.parametrize("pooling", ["mean", "max", "first"])
    def test_bitwise_equal(self, corpus, claims, pooling, teacher_forcing, budget, frozen):
        model = _tiny_model(seed=4)
        if frozen:
            model.encoder = _StubPretrained(ToyEncoder(dim=16, seed=5))
        model.pooling = pooling
        weights = (0.7, 1.3)
        seen_types = set()
        for claim in claims:
            premise = resolve_premise(claim, corpus)
            gold = gold_evidence_globals(claim, premise)
            model.max_len = _survivor_budgets(model.encoder.tokenizer, claim, premise)[budget]
            ji = _packed(model, claim, premise)
            seen_types.add(claim.secondary_ctr is not None)
            new = joint_grads(model, [(ji, gold, claim.gold_label)], weights, teacher_forcing)
            old = _oracle_joint_grads(
                model, claim, premise, gold, claim.gold_label, weights, teacher_forcing
            )
            assert new[:3] == old[:3], claim.claim_id
            assert (new[3] is None) == frozen and (old[3] is None) == frozen
            for new_g, old_g in zip(new[3:], old[3:]):
                assert_grads_equal(new_g or {}, old_g or {})
            if not frozen:
                assert np.array_equal(new[3]["emb"][0], np.unique(ji.token_ids))
            assert len(ji.span_map) == {"all": premise.n, "two": 2, "none": 0}[budget]
        assert seen_types == {False, True}  # single and comparison claims


def test_train_joint_packs_each_claim_once(corpus, claims, monkeypatch):
    calls = []

    def counting(*args):
        calls.append(args[1])
        return build_joint_sequence(*args)

    monkeypatch.setattr(joint, "build_joint_sequence", counting)
    for max_steps in (0, 1, 7):
        calls.clear()
        train_joint(claims, corpus, Hyperparams(max_steps=max_steps, batch_size=3, seed=1))
        assert calls == [claim.text for claim in claims]
