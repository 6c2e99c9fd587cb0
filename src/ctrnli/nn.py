"""Classifier heads, losses, and the training-step machinery.

Everything here is plain numpy with hand-written gradients. Heads are
two-layer perceptrons (tanh hidden layer); losses are cross-entropy over a
2-way softmax, which for the evidence task is exactly per-sentence binary
cross-entropy. The optimizer is gradient descent with decoupled weight decay
and a linear warmup followed by linear decay.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """Loss and d(loss)/d(logits) for one example."""
    probs = softmax(logits)
    loss = -float(np.log(max(probs[target], 1e-300)))
    d_logits = probs.copy()
    d_logits[target] -= 1.0
    return loss, d_logits


def init_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> dict:
    return {
        "W1": rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_hidden)),
        "b1": np.zeros(d_hidden),
        "W2": rng.normal(0.0, 1.0 / np.sqrt(d_hidden), size=(d_hidden, d_out)),
        "b2": np.zeros(d_out),
    }


def mlp_forward(params: dict, x: np.ndarray):
    z1 = x @ params["W1"] + params["b1"]
    a1 = np.tanh(z1)
    logits = a1 @ params["W2"] + params["b2"]
    return logits, (x, a1)


def mlp_backward(params: dict, cache, d_logits: np.ndarray):
    """Returns (parameter grads, gradient wrt the input).

    Takes the cache of one vector, or of a stack of them with leading axes
    (such as the ``[B, 1, D]`` stack the heads score in one call), together
    with ``d_logits`` of the same leading shape. Parameter grads are summed
    over the stack in row order, each row's share equal to that of a
    one-vector call; the input gradient has one row per vector, each rounded
    as a one-vector call rounds it, because ``np.matmul`` runs a stack of
    matrix-vector products as one gemv per row.
    """
    x, a1 = cache
    d_a1 = np.matmul(params["W2"], d_logits[..., None])[..., 0]
    d_z1 = d_a1 * (1.0 - a1 * a1)
    grads = {
        "W2": a1[..., :, None] * d_logits[..., None, :],
        "b2": d_logits.copy(),
        "W1": x[..., :, None] * d_z1[..., None, :],
        "b1": d_z1,
    }
    if d_logits.ndim > 1:  # a stack: sum each parameter's per-row grads in row order
        lead = tuple(range(d_logits.ndim - 1))
        grads = {name: g.sum(axis=lead) for name, g in grads.items()}
    d_x = np.matmul(params["W1"], d_z1[..., None])[..., 0]
    return grads, d_x


@dataclass
class ClassifierHead:
    """A 2-layer MLP head producing class logits from one pooled vector."""

    params: dict

    @classmethod
    def create(cls, dim: int, n_classes: int = 2, hidden: int | None = None, seed: int = 0):
        rng = np.random.default_rng(seed)
        hidden = hidden or dim
        return cls(params=init_mlp(rng, dim, hidden, n_classes))

    def logits(self, x: np.ndarray) -> np.ndarray:
        out, _ = mlp_forward(self.params, x)
        return out

    def probabilities(self, x: np.ndarray) -> np.ndarray:
        return softmax(self.logits(x))


class EvidenceHead(ClassifierHead):
    """Maps a pooled sentence-pair vector to (evidence, non-evidence) logits.

    Index 0 is the positive "is evidence" class.
    """


class EntailmentHead(ClassifierHead):
    """Maps a pooled sequence vector to verdict logits.

    Index 0 is Entailment, index 1 Contradiction.
    """


def zero_grads(params: dict) -> dict:
    return {name: np.zeros_like(p) for name, p in params.items()}


def accumulate(into: dict, grads: dict, scale: float = 1.0) -> None:
    """Add ``scale`` times each gradient into the dense buffer of its name.

    A gradient is a dense array or a row-sparse ``(rows, values)`` pair with
    unique ``rows``, which adds only into those rows of the buffer.
    """
    for name, g in grads.items():
        if isinstance(g, tuple):
            rows, values = g
            into[name][rows] += scale * values
        else:
            into[name] += scale * g


@dataclass
class WarmupLinearSchedule:
    """Linear warmup over a fraction of the run, then linear decay to zero."""

    base_lr: float
    total_steps: int
    warmup_rate: float = 0.06

    def lr(self, step: int) -> float:
        warmup_steps = max(1, int(round(self.warmup_rate * self.total_steps)))
        if step < warmup_steps:
            return self.base_lr * (step + 1) / warmup_steps
        remaining = max(1, self.total_steps - warmup_steps)
        return self.base_lr * max(0, self.total_steps - step) / remaining


@dataclass
class SgdwOptimizer:
    """Gradient descent with decoupled weight decay.

    Decay applies to weight matrices and embeddings, never to biases
    (parameter names beginning with "b").
    """

    schedule: WarmupLinearSchedule
    weight_decay: float = 0.0
    step_count: int = field(default=0)

    def step(self, param_groups: list[dict], grad_groups: list[dict]) -> float:
        lr = self.schedule.lr(self.step_count)
        for params, grads in zip(param_groups, grad_groups):
            for name, p in params.items():
                p -= lr * grads[name]
                if self.weight_decay and not name.startswith("b"):
                    p -= lr * self.weight_decay * p
        self.step_count += 1
        return lr


def is_count(value, low: int) -> bool:
    """``value`` is an integer (not a bool) of at least ``low``."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def _is_finite(value) -> bool:
    return isinstance(value, numbers.Real) and not isinstance(value, bool) and math.isfinite(value)


@dataclass
class Hyperparams:
    """Training configuration; defaults follow the published recipe."""

    learning_rate: float = 1e-5
    warmup_rate: float = 0.06
    weight_decay: float = 0.01
    epochs: int = 6
    batch_size: int = 16
    seed: int = 0
    max_steps: int | None = None
    w_evidence: float = 1.0
    w_entailment: float = 1.0

    def __post_init__(self):
        """Refuse settings that would crash training or silently train nothing."""
        lr, warmup = self.learning_rate, self.warmup_rate
        rules = [
            ("batch_size", is_count(self.batch_size, 1), "an integer >= 1"),
            ("epochs", is_count(self.epochs, 0), "an integer >= 0"),
            ("max_steps", self.max_steps is None or is_count(self.max_steps, 0),
             "None or an integer >= 0"),
            ("learning_rate", _is_finite(lr) and lr > 0, "a finite number > 0"),
            ("warmup_rate", _is_finite(warmup) and 0 <= warmup <= 1, "a number in [0, 1]"),
        ]
        for name in ("weight_decay", "w_evidence", "w_entailment"):
            value = getattr(self, name)
            rules.append((name, _is_finite(value) and value >= 0, "a finite number >= 0"))
        for name, ok, rule in rules:
            if not ok:
                raise ValueError(f"{name} must be {rule}, got {getattr(self, name)!r}")

    def total_steps(self, n_items: int) -> int:
        if self.max_steps is not None:
            return self.max_steps
        if n_items == 0:
            return 0
        steps_per_epoch = int(np.ceil(n_items / self.batch_size))
        return self.epochs * steps_per_epoch


def minibatches(n_items: int, hp: Hyperparams, rng: np.random.Generator):
    """Yield index arrays: seeded reshuffle every pass, stop at total_steps."""
    total = hp.total_steps(n_items)
    emitted = 0
    while emitted < total:
        order = rng.permutation(n_items)
        for start in range(0, n_items, hp.batch_size):
            if emitted >= total:
                return
            yield order[start : start + hp.batch_size]
            emitted += 1


def fit(groups: list[dict], batch_grads, n_items: int, hp: Hyperparams, rng: np.random.Generator):
    """The training loop: SGDW with warmup then decay over seeded minibatches.

    ``batch_grads(batch_idx)`` returns (loss, one grad dict per entry of
    ``groups``), which are updated in place. Returns the per-step losses.
    """
    schedule = WarmupLinearSchedule(hp.learning_rate, hp.total_steps(n_items), hp.warmup_rate)
    optimizer = SgdwOptimizer(schedule, weight_decay=hp.weight_decay)
    curve = []
    for batch_idx in minibatches(n_items, hp, rng):
        loss, grads = batch_grads(batch_idx)
        optimizer.step(groups, grads)
        curve.append(loss)
    return curve
