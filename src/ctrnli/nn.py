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
import reprlib
from dataclasses import dataclass, field

import numpy as np

from .errors import CtrnliError


def softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - np.max(logits, axis=-1, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=-1, keepdims=True)


def cross_entropy(logits: np.ndarray, target) -> tuple:
    """Loss and d(loss)/d(logits) for one example, or for each row of a
    ``[B, C]`` stack given one target per row (then a list of B losses)."""
    probs = softmax(logits)
    target = np.asarray(target, dtype=np.intp)  # an empty list holds no integers
    picked = np.take_along_axis(probs, target[..., None], axis=-1)[..., 0]
    loss = -np.log(np.maximum(picked, 1e-300))
    return loss.tolist(), probs - np.eye(probs.shape[-1])[target]


def mlp_forward(params: dict, x: np.ndarray):
    a1 = x @ params["W1"]
    a1 += params["b1"]
    np.tanh(a1, out=a1)
    logits = a1 @ params["W2"]
    logits += params["b2"]
    return logits, (x, a1)


def scaled_sum(items: np.ndarray, scale: float) -> np.ndarray:
    """``scale`` times each entry of ``items`` along its first axis, summed in
    entry order: the bits of a loop adding ``scale * item`` into zeros.
    ``items`` is scaled in place."""
    items *= scale
    return items.sum(axis=0)


def mlp_backward(params: dict, cache, d_logits: np.ndarray, scale: float = 1.0):
    """Returns (parameter grads, gradient wrt the input).

    Takes the cache of one vector, or of a stack of them with leading axes
    (such as the ``[B, 1, D]`` stack the heads score in one call), together
    with ``d_logits`` of the same leading shape. A stack's first axis indexes
    items: each item's parameter grads are summed over its rows in row order,
    each row's share equal to that of a one-vector call, and ``scale`` times
    the item sums are added up in item order. The input gradient has one row
    per vector, each rounded as a one-vector call rounds it, because
    ``np.matmul`` runs a stack of matrix-vector products as one gemv per row.
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
    if d_logits.ndim > 1:  # a stack: reduce as a loop over items and their rows would
        rows = tuple(range(1, d_logits.ndim - 1))
        grads = {name: scaled_sum(g.sum(axis=rows), scale) for name, g in grads.items()}
    d_x = np.matmul(params["W1"], d_z1[..., None])[..., 0]
    return grads, d_x


def padded(rows: np.ndarray, lengths) -> np.ndarray:
    """The ``rows`` of items of ``lengths``, laid back to back, as a
    ``[items, max length, ...]`` stack with zeros past each item's end."""
    lengths = np.asarray(lengths)
    keep = np.arange(lengths.max()) < lengths[:, None]
    out = np.zeros(keep.shape + rows.shape[1:])
    out[keep] = rows
    return out


@dataclass(frozen=True)
class ClassifierHead:
    """A 2-layer MLP head producing two class logits from one pooled vector.
    Index 0 is the positive "is evidence" class for an evidence head, and
    Entailment for a verdict head, whose index 1 is Contradiction. Its
    ``params`` mapping is never replaced; training updates the arrays in place."""

    params: dict

    @classmethod
    def create(cls, dim: int, seed: int = 0) -> ClassifierHead:
        """Weights drawn from N(0, 1 / fan-in) in :meth:`param_shapes` order; zero biases."""
        rng = np.random.default_rng(seed)
        return cls(params={
            name: rng.normal(0.0, 1.0 / np.sqrt(shape[0]), size=shape) if name[0] == "W"
            else np.zeros(shape)
            for name, shape in cls.param_shapes(dim).items()
        })

    @staticmethod
    def param_shapes(dim: int) -> dict[str, tuple[int, ...]]:
        """The name and shape of each parameter of a head over ``dim``-wide vectors."""
        return {"W1": (dim, dim), "b1": (dim,), "W2": (dim, 2), "b2": (2,)}

    def logits(self, x: np.ndarray) -> np.ndarray:
        out, _ = mlp_forward(self.params, x)
        return out


def to_stored_precision(encoder, *heads: ClassifierHead) -> None:
    """Round a trained model in place to the float32 values a checkpoint stores:
    a toy encoder's as float32 arrays, a head's in float64 ones for its softmax."""
    params = encoder.params  # a frozen encoder's is empty and read-only
    with np.errstate(over="ignore"):  # past the float32 range is inf, which is never saved
        for name in params:
            params[name] = params[name].astype(np.float32)
        for arr in [a for head in heads for a in head.params.values()]:
            arr[...] = arr.astype(np.float32)


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
    (parameter names beginning with "b"). A gradient is a dense array or a
    row-sparse ``(rows, values)`` pair with unique ``rows``, whose other rows
    take a zero step. The ``lr * grad`` and decay products land in one
    buffer per parameter, reused across steps.
    """

    schedule: WarmupLinearSchedule
    weight_decay: float = 0.0
    step_count: int = field(default=0)
    _buffers: dict = field(default_factory=dict, repr=False)

    def step(self, param_groups: list[dict], grad_groups: list[dict]) -> float:
        lr = self.schedule.lr(self.step_count)
        for group, (params, grads) in enumerate(zip(param_groups, grad_groups)):
            for name, p in params.items():
                buf = self._buffers.get((group, name))
                if buf is None:
                    buf = self._buffers[group, name] = np.empty_like(p)
                g = grads[name]
                if isinstance(g, tuple):
                    rows, values = g
                    p[rows] -= np.multiply(lr, values, out=buf[: len(rows)])
                else:
                    p -= np.multiply(lr, g, out=buf)
                if self.weight_decay and not name.startswith("b"):
                    p -= np.multiply(lr * self.weight_decay, p, out=buf)
        self.step_count += 1
        return lr


def is_count(value, low: int) -> bool:
    """``value`` is an integer (not a bool) of at least ``low``."""
    if type(value) is int:  # the common case, without the ABC check
        return value >= low
    return isinstance(value, numbers.Integral) and not isinstance(value, bool) and value >= low


def is_finite_number(value) -> bool:
    """``value`` is a real number (not a bool) that converts to a finite float;
    an int past the float range is not."""
    if not isinstance(value, numbers.Real) or isinstance(value, bool):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:
        return False


def in_unit_interval(value) -> bool:
    """``value`` is a finite number (not a bool) in [0, 1]."""
    return is_finite_number(value) and 0 <= value <= 1


def refusal(name: str, rule: str, value) -> ValueError:
    """``{name} must be {rule}, got {value}``, with ``value`` abbreviated."""
    return ValueError(f"{name} must be {rule}, got {reprlib.repr(value)}")


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
        lr = self.learning_rate
        rules = [
            ("batch_size", is_count(self.batch_size, 1), "an integer >= 1"),
            ("epochs", is_count(self.epochs, 0), "an integer >= 0"),
            ("seed", is_count(self.seed, 0), "an integer >= 0"),
            ("max_steps", self.max_steps is None or is_count(self.max_steps, 0),
             "None or an integer >= 0"),
            ("learning_rate", is_finite_number(lr) and lr > 0, "a finite number > 0"),
            ("warmup_rate", in_unit_interval(self.warmup_rate), "a number in [0, 1]"),
        ]
        for name in ("weight_decay", "w_evidence", "w_entailment"):
            value = getattr(self, name)
            rules.append((name, is_finite_number(value) and value >= 0, "a finite number >= 0"))
        for name, ok, rule in rules:
            if not ok:
                raise refusal(name, rule, getattr(self, name))

    def total_steps(self, n_items: int) -> int:
        if self.max_steps is not None:
            return self.max_steps
        steps_per_epoch = int(np.ceil(n_items / self.batch_size))
        return self.epochs * steps_per_epoch


def minibatches(n_items: int, hp: Hyperparams, rng: np.random.Generator):
    """Yield index arrays: seeded reshuffle every pass, stop at total_steps.
    Steps asked of no items raise :class:`CtrnliError` instead of never ending."""
    total = hp.total_steps(n_items)
    if total and not n_items:
        raise CtrnliError(f"{total} training steps asked for, but there is nothing to train on")
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
    ``groups``), which are updated in place; the loss is a number or a list
    of loss terms. An empty group, such as a frozen encoder's ``{}``, is
    never read, so its grads may be None. Returns the per-step losses.

    Overflow and invalid values raise no numpy warning here. A diverged run
    stops at its first non-finite loss with :class:`CtrnliError`,
    before that step updates anything; the checkpoint writer refuses
    parameters that overflow while the loss is still finite.
    """
    schedule = WarmupLinearSchedule(hp.learning_rate, hp.total_steps(n_items), hp.warmup_rate)
    optimizer = SgdwOptimizer(schedule, weight_decay=hp.weight_decay)
    curve = []
    with np.errstate(over="ignore", invalid="ignore"):
        for step, batch_idx in enumerate(minibatches(n_items, hp, rng)):
            loss, grads = batch_grads(batch_idx)
            if not np.isfinite(loss).all():
                raise CtrnliError(
                    f"non-finite training loss {loss} at step {step + 1}: "
                    "training diverged, no checkpoint written"
                )
            optimizer.step(groups, grads)
            curve.append(loss)
    return curve
