"""Two-stage system: selection rule, verdict rule, training, prediction."""

import dataclasses
import json

import numpy as np
import pytest

from ctrnli.corpus import LABELS, resolve_premise
from ctrnli.encode import PretrainedEncoder, ToyEncoder, build_pair_sequence, build_pair_sequences
from ctrnli.errors import CtrnliError
from ctrnli.nn import ClassifierHead, Hyperparams, softmax
from ctrnli.pipeline import (
    EVIDENCE_CLASS,
    PipelineModel,
    SystemPrediction,
    classify_entailment,
    entailment_training_items,
    evidence_training_items,
    predict_pipeline,
    score_evidence,
    select_evidence,
    train_evidence_model,
    verdict_from_probs,
)
from conftest import OVERFIT_POOLING
from test_encode import _oracle_pool_span


class TestSelectEvidence:
    def test_strictly_above_threshold(self):
        selected, fallback_used = select_evidence([0.2, 0.8, 0.5, 0.51], threshold=0.5)
        assert selected == (1, 3)
        assert not fallback_used

    def test_exact_threshold_excluded(self):
        _, fallback_used = select_evidence([0.5, 0.5], threshold=0.5)
        # nothing is strictly above, so the fallback fires
        assert fallback_used

    def test_fallback_picks_single_best(self):
        selected, fallback_used = select_evidence([0.1, 0.4, 0.3], threshold=0.5)
        assert selected == (1,)
        assert fallback_used

    def test_fallback_tie_takes_lowest_index(self):
        selected, _ = select_evidence([0.3, 0.4, 0.4], threshold=0.5)
        assert selected == (1,)

    def test_all_selected(self):
        selected, fallback_used = select_evidence([0.9, 0.6], threshold=0.5)
        assert selected == (0, 1)
        assert not fallback_used


class TestVerdictRule:
    def test_argmax(self):
        assert verdict_from_probs((0.3, 0.7)) == "Contradiction"
        assert verdict_from_probs((0.7, 0.3)) == "Entailment"

    def test_exact_tie_resolves_to_entailment(self):
        assert verdict_from_probs((0.5, 0.5)) == "Entailment"


class TestSystemPrediction:
    def _make(self, **over):
        base = dict(
            claim_id="c",
            evidence_probs=(0.9, 0.1, 0.6),
            selected=(0, 2),
            class_probs=(0.7, 0.3),
            verdict="Entailment",
        )
        base.update(over)
        return SystemPrediction(**base)

    def test_valid(self):
        pred = self._make()
        assert pred.selected == (0, 2)

    def test_probability_out_of_range(self):
        with pytest.raises(ValueError):
            self._make(evidence_probs=(1.5, 0.1, 0.6))

    def test_class_probs_must_sum_to_one(self):
        with pytest.raises(ValueError):
            self._make(class_probs=(0.7, 0.4))

    def test_verdict_must_match_argmax(self):
        with pytest.raises(ValueError):
            self._make(verdict="Contradiction")

    def test_selected_must_be_sorted_unique(self):
        with pytest.raises(ValueError):
            self._make(selected=(2, 0))
        with pytest.raises(ValueError):
            self._make(selected=(0, 0, 2))

    def test_selected_must_be_in_premise(self):
        with pytest.raises(ValueError):
            self._make(selected=(0, 3))

    def test_json_round_trip(self):
        pred = self._make(fallback_used=True)
        again = SystemPrediction.from_json_obj(json.loads(json.dumps(dataclasses.asdict(pred))))
        assert again == pred

    def test_json_missing_fallback_flag_defaults_false(self):
        obj = dataclasses.asdict(self._make())
        del obj["fallback_used"]
        assert SystemPrediction.from_json_obj(obj).fallback_used is False


class TestScoreAndClassify:
    def test_probs_are_per_sentence(self, corpus, claims, pipeline_model):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        probs = score_evidence(
            claim, premise, pipeline_model.evidence_encoder, pipeline_model.evidence_head,
            max_len=512, pooling=OVERFIT_POOLING,
        )
        assert len(probs) == premise.n
        assert all(0.0 <= p <= 1.0 for p in probs)

    def test_empty_premise(self, corpus, claims, pipeline_model):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        empty = type(premise)(texts=(), spans={})
        with pytest.raises(CtrnliError, match="resolved to an empty premise"):
            score_evidence(
                claim, empty, pipeline_model.evidence_encoder, pipeline_model.evidence_head,
                512, "mean",
            )

    def test_empty_selection_rejected(self, corpus, claims, pipeline_model):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        with pytest.raises(CtrnliError, match="no evidence sentences selected"):
            classify_entailment(
                claim, premise, [], pipeline_model.entailment_encoder,
                pipeline_model.entailment_head, 512, "mean",
            )

    def test_selection_order_does_not_matter(self, corpus, claims, pipeline_model):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        kwargs = dict(
            encoder=pipeline_model.entailment_encoder,
            head=pipeline_model.entailment_head,
            max_len=512,
            pooling=OVERFIT_POOLING,
        )
        a = classify_entailment(claim, premise, [2, 0, 1], **kwargs)
        b = classify_entailment(claim, premise, [0, 1, 2, 2], **kwargs)
        assert a == b


def _per_pair_scores(claim, premise, encoder, head, max_len, pooling):
    """Reference: score each [sentence, SEP, claim] pair on its own."""
    probs = []
    for text in premise.texts:
        pair = build_pair_sequence(encoder.tokenizer, text, claim.text, max_len)
        matrix = encoder.encode(pair.token_ids)
        pooled = _oracle_pool_span(matrix, (0, matrix.shape[0]), pooling)
        probs.append(float(softmax(head.logits(pooled))[EVIDENCE_CLASS]))
    return probs


class _HashingHfTokenizer:
    """Stands in for a HuggingFace tokenizer inside the pretrained adapter."""

    sep_token_id = 1

    def __init__(self):
        self._tok = ToyEncoder(dim=8).tokenizer

    def encode(self, text, add_special_tokens=False):
        return list(self._tok.tokenize(text).token_ids)


class _StubPretrained(PretrainedEncoder):
    """The frozen adapter with a toy encoder in place of the transformer: its
    own tokenize runs, and ``encode_batch`` reaches the stubbed ``encode``
    once per sequence, which it keeps in ``received``."""

    def __init__(self, toy):
        self._hf_tokenizer = _HashingHfTokenizer()
        self._toy = toy
        self.dim = toy.dim
        self.encode_calls = 0
        self.received = []

    def encode(self, token_ids):
        self.encode_calls += 1
        self.received.append(token_ids)
        return self._toy.encode(token_ids)


class TestBatchedScoring:
    """score_evidence batches a premise; the per-pair loop is its oracle."""

    @pytest.mark.parametrize("pooling", ["mean", "first", "max"])
    @pytest.mark.parametrize("truncate", [False, True])
    def test_matches_per_pair_loop_bitwise(self, corpus, claims, pooling, truncate):
        encoder = ToyEncoder(dim=16, seed=3)
        head = ClassifierHead.create(16, seed=4)
        truncated = 0
        for claim in claims:
            premise = resolve_premise(claim, corpus)
            max_len = 512
            if truncate:  # room for the claim, SEP and three sentence tokens
                tokenize = encoder.tokenizer.tokenize
                max_len = len(tokenize(claim.text).token_ids) + 4
                truncated += sum(len(tokenize(t).token_ids) > 3 for t in premise.texts)
            expected = _per_pair_scores(claim, premise, encoder, head, max_len, pooling)
            assert score_evidence(claim, premise, encoder, head, max_len, pooling) == expected
        assert truncated > 0 or not truncate

    def test_predict_encodes_n_plus_one_times(self, corpus, claims):
        """One encode per premise sentence plus one for the verdict."""
        encoder = ToyEncoder(dim=16)
        model = PipelineModel(
            evidence_encoder=encoder,
            evidence_head=ClassifierHead.create(16, seed=1),
            entailment_encoder=encoder,
            entailment_head=ClassifierHead.create(16, seed=2),
        )
        for claim in claims:
            before = encoder.encode_calls
            predict_pipeline(claim, corpus, model)
            assert encoder.encode_calls - before == resolve_premise(claim, corpus).n + 1

    @pytest.mark.parametrize("pooling", ["mean", "max"])
    def test_frozen_encoder_scores_through_encode_batch(self, corpus, claims, pooling):
        toy = ToyEncoder(dim=16, seed=3)
        stub = _StubPretrained(toy)
        head = ClassifierHead.create(16, seed=4)
        assert not stub.trainable
        for claim in claims[:5]:
            premise = resolve_premise(claim, corpus)
            expected = _per_pair_scores(claim, premise, toy, head, 512, pooling)
            assert score_evidence(claim, premise, stub, head, 512, pooling) == expected
        assert stub.encode_calls == sum(resolve_premise(c, corpus).n for c in claims[:5])

    def test_encoder_without_reach_gets_whole_pairs(self, corpus, claims):
        """An encoder with no ``reach``, as the pretrained adapter, whose
        attention reads the whole sequence, borrows no claim row: it encodes
        exactly the whole pairs of ``build_pair_sequences``, as lists of
        ints."""
        stub = _StubPretrained(ToyEncoder(dim=16, seed=3))
        head = ClassifierHead.create(16, seed=4)
        assert not hasattr(stub, "reach")
        for claim in claims:
            premise = resolve_premise(claim, corpus)
            stub.received.clear()
            score_evidence(claim, premise, stub, head, 512, "mean")
            pairs = build_pair_sequences(stub.tokenizer, premise.texts, claim.text, 512)
            assert stub.received == [list(pair) for pair in pairs]
            assert {type(i) for seq in stub.received for i in seq} == {int}


class TestTrainingItems:
    def test_evidence_targets_match_gold(self, corpus, claims):
        from ctrnli.corpus import gold_evidence_globals
        from ctrnli.encode import HashingTokenizer

        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        gold = gold_evidence_globals(claim, premise)
        items = evidence_training_items([claim], corpus, HashingTokenizer(), 512)
        assert len(items) == premise.n
        for i, (_, target) in enumerate(items):
            assert target == (0 if i in gold else 1)

    def test_entailment_targets_are_label_indices(self, corpus, claims):
        from ctrnli.encode import HashingTokenizer

        items = entailment_training_items(
            claims, corpus, HashingTokenizer(), 512, threshold=0.5, pooling="mean"
        )
        assert len(items) == len(claims)
        for claim, (_, target) in zip(claims, items):
            assert target == LABELS.index(claim.gold_label)

    def test_predicted_evidence_source_uses_model_selection(self, corpus, claims):
        model = train_evidence_model(
            claims[:2], corpus, Hyperparams(max_steps=1, seed=0), pooling=OVERFIT_POOLING
        )
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        probs = score_evidence(
            claim, premise, model.encoder, model.head, max_len=512, pooling=OVERFIT_POOLING
        )
        expected, _ = select_evidence(probs, 0.5)
        items = entailment_training_items(
            [claim], corpus, model.encoder.tokenizer, 512,
            evidence_model=model, threshold=0.5, pooling=OVERFIT_POOLING,
        )
        texts = [premise.texts[i] for i in expected]
        from ctrnli.encode import build_entailment_sequence

        seq = build_entailment_sequence(model.encoder.tokenizer, claim.text, texts, 512)
        assert items[0][0] == seq.token_ids

    def test_missing_gold_raises(self, corpus, claims):
        from dataclasses import replace

        from ctrnli.encode import HashingTokenizer

        unlabeled = replace(claims[0], gold_evidence=None, gold_label=None)
        with pytest.raises(CtrnliError, match="has no gold evidence"):
            evidence_training_items([unlabeled], corpus, HashingTokenizer(), 512)
        with pytest.raises(CtrnliError, match="has no gold label"):
            entailment_training_items(
                [unlabeled], corpus, HashingTokenizer(), 512, threshold=0.5, pooling="mean"
            )


class TestTraining:
    def test_loss_decreases_on_average(self, corpus, claims):
        """Averaged over seeds, the tail of the curve sits below the head."""
        curves = []
        for seed in range(5):
            hp = Hyperparams(
                learning_rate=0.02, weight_decay=0.0, batch_size=512,
                epochs=999, seed=seed, max_steps=50,
            )
            result = train_evidence_model(claims, corpus, hp, pooling=OVERFIT_POOLING)
            curves.append(result.loss_curve)
        mean_curve = np.mean(np.array(curves), axis=0)
        assert mean_curve[-10:].mean() < mean_curve[:10].mean()

    def test_same_seed_reproduces_parameters(self, corpus, claims):
        hp = Hyperparams(max_steps=3, seed=7)
        a = train_evidence_model(claims, corpus, hp)
        b = train_evidence_model(claims, corpus, hp)
        for name in a.head.params:
            np.testing.assert_array_equal(a.head.params[name], b.head.params[name])
        for name in a.encoder.params:
            np.testing.assert_array_equal(a.encoder.params[name], b.encoder.params[name])

    def test_different_seeds_differ(self, corpus, claims):
        a = train_evidence_model(claims, corpus, Hyperparams(max_steps=1, seed=0))
        b = train_evidence_model(claims, corpus, Hyperparams(max_steps=1, seed=1))
        assert any(
            not np.array_equal(a.head.params[n], b.head.params[n]) for n in a.head.params
        )

    def test_encoder_factory_controls_capacity(self, corpus, claims):
        from ctrnli.encode import ToyEncoder

        result = train_evidence_model(
            claims[:2], corpus, Hyperparams(max_steps=1, seed=0),
            encoder_factory=lambda seed: ToyEncoder(dim=8, seed=seed),
        )
        assert result.encoder.dim == 8
        assert result.head.params["W1"].shape[0] == 8


class TestPredictPipeline:
    def test_prediction_shape(self, corpus, claims, pipeline_model):
        claim = claims[0]
        premise = resolve_premise(claim, corpus)
        pred = predict_pipeline(claim, corpus, pipeline_model)
        assert pred.claim_id == claim.claim_id
        assert len(pred.evidence_probs) == premise.n
        assert pred.verdict in LABELS

    def test_selection_consistent_with_probs(self, corpus, claims, pipeline_model):
        for claim in claims:
            pred = predict_pipeline(claim, corpus, pipeline_model)
            selected, fallback_used = select_evidence(pred.evidence_probs, pipeline_model.threshold)
            assert set(pred.selected) == set(selected)
            assert pred.fallback_used == fallback_used

    def test_overfit_model_memorizes_training_set(self, corpus, claims, pipeline_model):
        from ctrnli.corpus import gold_evidence_globals

        for claim in claims:
            premise = resolve_premise(claim, corpus)
            pred = predict_pipeline(claim, corpus, pipeline_model)
            assert set(pred.selected) == gold_evidence_globals(claim, premise), claim.claim_id
            assert pred.verdict == claim.gold_label, claim.claim_id

    def test_deterministic(self, corpus, claims, pipeline_model):
        a = predict_pipeline(claims[3], corpus, pipeline_model)
        b = predict_pipeline(claims[3], corpus, pipeline_model)
        assert a == b
