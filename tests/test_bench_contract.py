"""The benchmark tracer still finds every name it wraps in the package.

``bench/tracing.py`` swaps its span wrappers in by name, in each module that
imports a wrapped function, so removing or renaming one of those names in
``src/`` makes ``bench/run.py --trace 1`` fail at start-up. Installing and
uninstalling a tracer here catches that in the fast suite, and a short
traced joint training run checks that the spans still follow the calls a
signature change could hide from them; nothing under ``bench/`` is modified.
"""

from pathlib import Path

from ctrnli import Hyperparams, joint, nn, pipeline

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
