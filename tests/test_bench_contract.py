"""The benchmark tracer still finds every name it wraps in the package.

``bench/tracing.py`` swaps its span wrappers in by name, in each module that
imports a wrapped function, so removing or renaming one of those names in
``src/`` makes ``bench/run.py --trace 1`` fail at start-up. Installing and
uninstalling a tracer here catches that in the fast suite; nothing under
``bench/`` is modified.
"""

from pathlib import Path

from ctrnli import joint, nn, pipeline

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
