"""The benchmark tracer still finds every name it wraps in the package.

``bench/tracing.py`` swaps its span wrappers in by name, in each module that
imports a wrapped function, so removing or renaming one of those names in
``src/`` makes ``bench/run.py --trace 1`` fail at start-up. Installing and
uninstalling a tracer here catches that in the fast suite, and a short
traced joint training run and traced prediction passes check that the spans
still follow the calls a signature change, a cache or a call path could hide
from them; nothing under ``bench/`` is modified.
"""

import dataclasses
from pathlib import Path

import pytest

from ctrnli import Hyperparams, JointModel, PipelineModel, joint, nn, pipeline
from ctrnli.checkpoint import load_any_model, save_joint_model, save_pipeline_model
from ctrnli.corpus import resolve_premise
from ctrnli.encode import (
    HashingTokenizer,
    ToyEncoder,
    build_entailment_sequence,
    build_joint_sequence,
    build_pair_sequences,
)
from ctrnli.nn import ClassifierHead

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_tracer_installs_and_uninstalls(monkeypatch):
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    originals = (pipeline.sequence_classification_grads, joint.pool_span, nn.SgdwOptimizer.step)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert pipeline.sequence_classification_grads is not originals[0]
        assert joint.pool_span is not originals[1]
    finally:
        tracer.uninstall()
    restored = (pipeline.sequence_classification_grads, joint.pool_span, nn.SgdwOptimizer.step)
    assert all(a is b for a, b in zip(restored, originals))


def test_traced_joint_training_counts(monkeypatch, corpus, claims):
    """One ``joint.grads`` and one ``encode.backward`` span per minibatch,
    one ``encode.build_joint`` span per training claim."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    hp = Hyperparams(max_steps=2, batch_size=3, seed=0)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        joint.train_joint(claims, corpus, hp)
    finally:
        tracer.uninstall()
    spans = list(tracer.span_name)
    assert spans.count(tracer.names.index("joint.grads")) == hp.max_steps
    assert spans.count(tracer.names.index("encode.backward")) == hp.max_steps
    assert spans.count(tracer.names.index("encode.build_joint")) == len(claims) == 20


def test_traced_prediction_spans_every_tokenize_call(monkeypatch, corpus, claims):
    """One ``encode.tokenize`` span for every text the sequence builders
    tokenize, memo hits included, so ``encode.tokenize_calls`` and
    ``encode.repeat_text_share`` keep counting calls, not distinct texts.

    Every claim is predicted twice, so the second pass is all memo hits. The
    joint packer tokenizes the claim, each surviving sentence and the first
    sentence that overflows; the pipeline tokenizes the claim and every
    sentence to score them, then the claim and the selected evidence again.
    """
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    joint_model = JointModel(
        ToyEncoder(64, 8), ClassifierHead.create(8), ClassifierHead.create(8), max_len=48
    )
    pipeline_model = PipelineModel(
        ToyEncoder(64, 8), ClassifierHead.create(8), ToyEncoder(64, 8), ClassifierHead.create(8)
    )
    twice = claims + claims
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for claim in twice:
            joint.predict_joint(claim, corpus, joint_model)
        joint_spans = list(tracer.span_name).count(tracer.names.index("encode.tokenize"))
        pipeline_preds = [pipeline.predict_pipeline(c, corpus, pipeline_model) for c in twice]
    finally:
        tracer.uninstall()
    pipeline_spans = list(tracer.span_name).count(tracer.names.index("encode.tokenize"))
    pipeline_spans -= joint_spans

    expected_joint = expected_pipeline = truncated = 0
    for claim, pipeline_pred in zip(twice, pipeline_preds):
        premise = resolve_premise(claim, corpus)
        packed = build_joint_sequence(HashingTokenizer(64), claim.text, premise, 48)
        expected_joint += 1 + len(packed.span_map) + bool(packed.dropped_sentences)
        truncated += bool(packed.dropped_sentences)
        expected_pipeline += (1 + premise.n) + (1 + len(pipeline_pred.selected))
    assert 0 < truncated < len(twice)
    assert joint_spans == expected_joint
    assert pipeline_spans == expected_pipeline


def test_traced_prediction_spans_every_encoder_call(monkeypatch, corpus, claims):
    """One ``encode.forward`` span per encoder call, whether or not it keeps
    a cache: two per pipeline claim (the batch of pairs, then the evidence
    sequence) and one per joint claim. ``forward_tokens`` counts every token
    those calls encode, so the cache-free path is no blind spot."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    joint_model = JointModel(
        ToyEncoder(64, 8), ClassifierHead.create(8), ClassifierHead.create(8), max_len=48
    )
    pipeline_model = PipelineModel(
        ToyEncoder(64, 8), ClassifierHead.create(8), ToyEncoder(64, 8), ClassifierHead.create(8)
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        tracer.set_phase("joint")
        for claim in claims:
            joint.predict_joint(claim, corpus, joint_model)
        tracer.set_phase("pipeline")
        pipeline_preds = [pipeline.predict_pipeline(c, corpus, pipeline_model) for c in claims]
    finally:
        tracer.uninstall()
    forward = tracer.names.index("encode.forward")
    spans = [tracer.phases[phase] for name, phase in zip(tracer.span_name, tracer.span_phase)
             if name == forward]
    assert spans.count("joint") == len(claims)
    assert spans.count("pipeline") == 2 * len(claims)

    tokenizer = HashingTokenizer(64)
    joint_tokens = pipeline_tokens = 0
    for claim, pred in zip(claims, pipeline_preds):
        premise = resolve_premise(claim, corpus)
        joint_tokens += build_joint_sequence(tokenizer, claim.text, premise, 48).length
        pairs = build_pair_sequences(tokenizer, premise.texts, claim.text, 512)
        evidence = [premise.texts[i] for i in pred.selected]
        pipeline_tokens += sum(pair.length for pair in pairs)
        pipeline_tokens += build_entailment_sequence(tokenizer, claim.text, evidence, 512).length
    assert tracer.layer_metrics(("joint",))["encode.forward_tokens"] == joint_tokens
    assert tracer.layer_metrics(("pipeline",))["encode.forward_tokens"] == pipeline_tokens


@pytest.mark.parametrize("pooling", ["mean", "max", "first"])
def test_traced_pipeline_prediction_pools_once_per_claim(monkeypatch, corpus, claims, pooling):
    """One ``encode.pool`` span per pipeline claim at every pooling mode: the
    entailment stage's single span. Evidence scoring pools every premise
    sentence in one ``pool_spans`` call, which never goes through the traced
    ``pool_span``, so a mean-pooling claim records no span per sentence."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    model = PipelineModel(
        ToyEncoder(64, 8), ClassifierHead.create(8), ToyEncoder(64, 8), ClassifierHead.create(8),
        pooling=pooling,
    )
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for claim in claims:
            pipeline.predict_pipeline(claim, corpus, model)
    finally:
        tracer.uninstall()
    assert list(tracer.span_name).count(tracer.names.index("encode.pool")) == len(claims)


def test_traced_memo_miss_resolves_its_premise(monkeypatch, tmp_path, corpus, claims,
                                               pipeline_model, joint_model):
    """A loaded model's memo miss records one ``corpus.resolve_premise`` span
    and counts its premise in ``premise_sentences``; a hit records neither.
    Every claim is predicted, then its renamed copy, which the memo answers."""
    monkeypatch.syspath_prepend(str(BENCH))
    import tracing

    save_pipeline_model(pipeline_model, tmp_path / "pipeline")
    save_joint_model(joint_model, tmp_path / "joint")
    keys = [(c.text, *(corpus[t].sections[c.section_id] for t in c.ctr_ids)) for c in claims]
    missed = [c for i, c in enumerate(claims) if keys[i] not in keys[:i]]
    again = [dataclasses.replace(c, claim_id=f"{c.claim_id}-again") for c in claims]
    predict = {"pipeline": pipeline.predict_pipeline, "joint": joint.predict_joint}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for system in ("pipeline", "joint"):
            model = load_any_model(tmp_path / system)[1]
            for phase, batch in (("first", claims), ("again", again)):
                tracer.set_phase(f"{system}.{phase}")
                for claim in batch:
                    predict[system](claim, corpus, model)
    finally:
        tracer.uninstall()
    resolve = tracer.names.index("corpus.resolve_premise")
    spans = [tracer.phases[phase] for name, phase in zip(tracer.span_name, tracer.span_phase)
             if name == resolve]
    sentences = sum(resolve_premise(claim, corpus).n for claim in missed)
    for system in ("pipeline", "joint"):
        assert spans.count(f"{system}.first") == len(missed)
        assert spans.count(f"{system}.again") == 0
        layer = tracer.layer_metrics((f"{system}.first", f"{system}.again"))
        assert layer["corpus.premise_sentences"] == sentences
