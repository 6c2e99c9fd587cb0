"""Shared fixtures: the synthetic dataset and models overfit on it.

Training is the slow part, so the overfit models are session-scoped and
reused by every test that only needs a competent model.
"""

from __future__ import annotations

import signal
from contextlib import contextmanager

import pytest

from ctrnli import (
    Hyperparams,
    PipelineModel,
    build_fixture,
    build_gold_view,
    train_entailment_model,
    train_evidence_model,
    train_joint,
)

OVERFIT_POOLING = "max"


@contextmanager
def time_limit(seconds: int):
    """Raise ``TimeoutError`` inside the block once ``seconds`` have passed,
    so that a loop that never ends fails its test instead of hanging the
    suite (``SIGALRM``: POSIX only, main thread only)."""

    def expire(signum, frame):
        raise TimeoutError(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def overfit_hyperparams(max_steps: int, seed: int = 0) -> Hyperparams:
    """Aggressive settings that memorize the fixture quickly."""
    return Hyperparams(
        learning_rate=0.2,
        weight_decay=0.0,
        epochs=999,
        batch_size=16,
        seed=seed,
        max_steps=max_steps,
    )


@pytest.fixture(scope="session")
def dataset():
    return build_fixture()


@pytest.fixture(scope="session")
def corpus(dataset):
    return dataset[0]


@pytest.fixture(scope="session")
def claims(dataset):
    return dataset[1]


@pytest.fixture(scope="session")
def golds(corpus, claims):
    return build_gold_view(claims, corpus)


@pytest.fixture(scope="session")
def pipeline_model(corpus, claims) -> PipelineModel:
    hp = overfit_hyperparams(300)
    evidence = train_evidence_model(claims, corpus, hp, pooling=OVERFIT_POOLING)
    entailment = train_entailment_model(claims, corpus, hp, pooling=OVERFIT_POOLING)
    return PipelineModel(
        evidence_encoder=evidence.encoder,
        evidence_head=evidence.head,
        entailment_encoder=entailment.encoder,
        entailment_head=entailment.head,
        pooling=OVERFIT_POOLING,
    )


@pytest.fixture(scope="session")
def joint_result(corpus, claims):
    return train_joint(claims, corpus, overfit_hyperparams(400), pooling=OVERFIT_POOLING)


@pytest.fixture(scope="session")
def joint_model(joint_result):
    return joint_result.model
