"""Heads, losses, schedule, and optimizer mechanics."""

import numpy as np
import pytest

from conftest import time_limit
from ctrnli.errors import CtrnliError
from ctrnli.nn import (
    ClassifierHead,
    Hyperparams,
    SgdwOptimizer,
    WarmupLinearSchedule,
    cross_entropy,
    fit,
    minibatches,
    mlp_backward,
    mlp_forward,
    softmax,
)


def _oracle_init_mlp(rng: np.random.Generator, d_in: int, d_hidden: int, d_out: int) -> dict:
    """The head initializer as it stood before ``ClassifierHead.create``
    drew from ``param_shapes``, copied verbatim."""
    return {
        "W1": rng.normal(0.0, 1.0 / np.sqrt(d_in), size=(d_in, d_hidden)),
        "b1": np.zeros(d_hidden),
        "W2": rng.normal(0.0, 1.0 / np.sqrt(d_hidden), size=(d_hidden, d_out)),
        "b2": np.zeros(d_out),
    }


def three_class_head(dim: int, seed: int = 0) -> ClassifierHead:
    """A head with three output classes, which ``create`` never builds."""
    return ClassifierHead(params=_oracle_init_mlp(np.random.default_rng(seed), dim, dim, 3))


def _oracle_mlp_backward(params: dict, cache, d_logits: np.ndarray):
    """``mlp_backward`` as it stood for one vector only, copied verbatim."""
    x, a1 = cache
    grads = {
        "W2": np.outer(a1, d_logits),
        "b2": d_logits.copy(),
    }
    d_a1 = params["W2"] @ d_logits
    d_z1 = d_a1 * (1.0 - a1 * a1)
    grads["W1"] = np.outer(x, d_z1)
    grads["b1"] = d_z1
    d_x = params["W1"] @ d_z1
    return grads, d_x


def _oracle_cross_entropy(logits: np.ndarray, target: int) -> tuple[float, np.ndarray]:
    """``cross_entropy`` as it stood for one example only, copied verbatim."""
    probs = softmax(logits)
    loss = -float(np.log(max(probs[target], 1e-300)))
    d_logits = probs.copy()
    d_logits[target] -= 1.0
    return loss, d_logits


class _OracleSgdwOptimizer(SgdwOptimizer):
    """``SgdwOptimizer`` with its step as it stood for dense gradients and
    fresh temporaries, copied verbatim."""

    def step(self, param_groups: list[dict], grad_groups: list[dict]) -> float:
        lr = self.schedule.lr(self.step_count)
        for params, grads in zip(param_groups, grad_groups):
            for name, p in params.items():
                p -= lr * grads[name]
                if self.weight_decay and not name.startswith("b"):
                    p -= lr * self.weight_decay * p
        self.step_count += 1
        return lr


def _oracle_zero_grads(params: dict) -> dict:
    """``zero_grads`` as it stood beside the per-item training loops, copied verbatim."""
    return {name: np.zeros_like(p) for name, p in params.items()}


def _oracle_accumulate(into: dict, grads: dict, scale: float = 1.0) -> None:
    """``accumulate`` as it stood for dense gradients only, copied verbatim."""
    for name, g in grads.items():
        into[name] += scale * g


class TestSoftmax:
    def test_worked_value(self):
        probs = softmax(np.array([2.0, 0.0]))
        np.testing.assert_allclose(probs, [0.8807970779778823, 0.1192029220221176], atol=1e-12)

    def test_sums_to_one(self):
        probs = softmax(np.array([0.3, -1.2, 4.0]))
        assert probs.sum() == pytest.approx(1.0)

    def test_large_logits_stable(self):
        probs = softmax(np.array([1000.0, 999.0]))
        assert np.isfinite(probs).all()
        np.testing.assert_allclose(probs, softmax(np.array([1.0, 0.0])))

    def test_shift_invariant(self):
        logits = np.array([0.5, -0.7, 2.2])
        np.testing.assert_allclose(softmax(logits), softmax(logits + 100.0))


class TestCrossEntropy:
    def test_gradient_is_probs_minus_onehot(self):
        logits = np.array([1.0, -0.5, 0.2])
        loss, d_logits = cross_entropy(logits, 1)
        probs = softmax(logits)
        expected = probs.copy()
        expected[1] -= 1.0
        np.testing.assert_allclose(d_logits, expected)
        assert loss == pytest.approx(-np.log(probs[1]))

    def test_gradient_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        logits = rng.normal(size=4)
        _, d_logits = cross_entropy(logits, 2)
        eps = 1e-6
        for i in range(4):
            bumped = logits.copy()
            bumped[i] += eps
            plus, _ = cross_entropy(bumped, 2)
            bumped[i] -= 2 * eps
            minus, _ = cross_entropy(bumped, 2)
            np.testing.assert_allclose(d_logits[i], (plus - minus) / (2 * eps), atol=1e-8)

    def test_uniform_probs_loss(self):
        loss, _ = cross_entropy(np.zeros(2), 0)
        assert loss == pytest.approx(np.log(2.0))

    def test_stack_matches_one_example_bitwise(self):
        """Each row of a [B, C] stack gets the loss and gradient of the
        one-example call as it stood, including a probability that underflows."""
        rng = np.random.default_rng(6)
        logits = rng.normal(size=(40, 2)) * rng.choice([1e-3, 1.0, 30.0], size=(40, 1))
        logits[0] = [800.0, -800.0]
        targets = rng.integers(0, 2, size=40)
        targets[0] = 1
        losses, d_logits = cross_entropy(logits, targets)
        for row, target, loss, d in zip(logits, targets, losses, d_logits):
            old_loss, old_d = _oracle_cross_entropy(row, int(target))
            assert loss == old_loss
            assert np.array_equal(d, old_d)

    def test_stack_of_no_rows(self):
        """A batch whose examples keep no sentence scores zero evidence rows."""
        losses, d_logits = cross_entropy(np.zeros((0, 2)), [])
        assert losses == []
        assert d_logits.shape == (0, 2)

    def test_plain_list_of_targets_equals_an_array(self):
        logits = np.random.default_rng(7).normal(size=(5, 2))
        targets = [1, 0, 0, 1, 1]
        from_list = cross_entropy(logits, targets)
        from_array = cross_entropy(logits, np.array(targets))
        assert from_list[0] == from_array[0]
        assert np.array_equal(from_list[1], from_array[1])
        for row, target, loss in zip(logits, targets, from_list[0]):
            assert loss == _oracle_cross_entropy(row, target)[0]


class TestMlp:
    def test_backward_matches_finite_differences(self):
        rng = np.random.default_rng(9)
        head = three_class_head(5, seed=9)
        x = rng.normal(size=5)
        d_logits = rng.normal(size=3)

        _, cache = mlp_forward(head.params, x)
        grads, d_x = mlp_backward(head.params, cache, d_logits)

        def objective():
            logits, _ = mlp_forward(head.params, x)
            return float(logits @ d_logits)

        eps = 1e-6
        for name, param in head.params.items():
            it = np.nditer(param, flags=["multi_index"])
            for _ in it:
                idx = it.multi_index
                param[idx] += eps
                plus = objective()
                param[idx] -= 2 * eps
                minus = objective()
                param[idx] += eps
                np.testing.assert_allclose(
                    grads[name][idx], (plus - minus) / (2 * eps), atol=1e-7,
                    err_msg=f"param {name} at {idx}",
                )
        for i in range(5):
            x[i] += eps
            plus = objective()
            x[i] -= 2 * eps
            minus = objective()
            x[i] += eps
            np.testing.assert_allclose(d_x[i], (plus - minus) / (2 * eps), atol=1e-7)

    def test_one_vector_matches_old_backward_bitwise(self):
        rng = np.random.default_rng(3)
        for seed in range(50):
            head = ClassifierHead.create(dim=16, seed=seed)
            x = rng.normal(size=16) * rng.choice([1e-3, 1.0, 30.0])
            d_logits = rng.normal(size=2)
            _, cache = mlp_forward(head.params, x)
            grads, d_x = mlp_backward(head.params, cache, d_logits)
            old_grads, old_d_x = _oracle_mlp_backward(head.params, cache, d_logits)
            assert np.array_equal(d_x, old_d_x)
            for name in old_grads:
                assert np.array_equal(grads[name], old_grads[name]), name

    @pytest.mark.parametrize("n", [0, 1, 2, 7, 40])
    def test_stack_matches_per_row_loop_bitwise(self, n):
        """A [n, 1, D] stack sums the per-row grads in row order, from zero,
        and gives each row the input gradient of a one-vector call."""
        rng = np.random.default_rng(n)
        for seed in range(20):
            head = ClassifierHead.create(dim=16, seed=seed)
            xs = rng.normal(size=(n, 1, 16)) * rng.choice([1e-3, 1.0, 30.0])
            d_logits = rng.normal(size=(n, 1, 2))
            _, cache = mlp_forward(head.params, xs)
            grads, d_x = mlp_backward(head.params, cache, d_logits)
            expected = _oracle_zero_grads(head.params)
            assert d_x.shape == (n, 1, 16)
            for i in range(n):
                _, row_cache = mlp_forward(head.params, xs[i, 0])
                row_grads, row_d_x = _oracle_mlp_backward(head.params, row_cache, d_logits[i, 0])
                _oracle_accumulate(expected, row_grads)
                assert np.array_equal(d_x[i, 0], row_d_x), i
            for name in expected:
                assert np.array_equal(grads[name], expected[name]), name

    def test_head_probabilities_normalized(self):
        head = ClassifierHead.create(dim=8, seed=1)
        probs = softmax(head.logits(np.random.default_rng(0).normal(size=8)))
        assert probs.shape == (2,)
        assert probs.sum() == pytest.approx(1.0)

    def test_create_is_seeded(self):
        a = ClassifierHead.create(dim=6, seed=42)
        b = ClassifierHead.create(dim=6, seed=42)
        for name in a.params:
            np.testing.assert_array_equal(a.params[name], b.params[name])

    @pytest.mark.parametrize("dim", [1, 2, 6, 16, 33])
    @pytest.mark.parametrize("seed", [0, 7, 2**40])
    def test_create_draws_what_the_old_initializer_drew(self, dim, seed):
        """Bit for bit the old ``init_mlp(rng, dim, dim, 2)``: the same names
        in the same order, the same dtypes, and the same draws, W1 before W2."""
        head = ClassifierHead.create(dim, seed=seed)
        expected = _oracle_init_mlp(np.random.default_rng(seed), dim, dim, 2)
        assert list(head.params) == list(expected)
        for name, arr in expected.items():
            assert head.params[name].dtype == arr.dtype, name
            assert head.params[name].tobytes() == arr.tobytes(), name

    def test_configurable_class_count(self):
        head = three_class_head(6)
        assert head.logits(np.zeros(6)).shape == (3,)


class TestSchedule:
    def test_warmup_then_decay(self):
        sched = WarmupLinearSchedule(base_lr=1.0, total_steps=100, warmup_rate=0.06)
        # warmup_steps = round(0.06 * 100) = 6
        assert sched.lr(0) == pytest.approx(1.0 / 6)
        assert sched.lr(5) == pytest.approx(1.0)
        # decay is linear from the peak down to zero at total_steps
        assert sched.lr(6) == pytest.approx(94 / 94)
        assert sched.lr(53) == pytest.approx(47 / 94)
        assert sched.lr(100) == 0.0

    def test_tiny_run_has_at_least_one_warmup_step(self):
        sched = WarmupLinearSchedule(base_lr=0.5, total_steps=3, warmup_rate=0.06)
        assert sched.lr(0) == pytest.approx(0.5)

    def test_never_negative(self):
        sched = WarmupLinearSchedule(base_lr=1.0, total_steps=10)
        assert all(sched.lr(s) >= 0.0 for s in range(25))


class TestOptimizer:
    def test_decay_skips_biases(self):
        params = {"W1": np.ones((2, 2)), "b1": np.ones(2)}
        grads = {"W1": np.zeros((2, 2)), "b1": np.zeros(2)}
        sched = WarmupLinearSchedule(base_lr=1.0, total_steps=1, warmup_rate=1.0)
        opt = SgdwOptimizer(schedule=sched, weight_decay=0.1)
        opt.step([params], [grads])
        np.testing.assert_allclose(params["W1"], 0.9 * np.ones((2, 2)))
        np.testing.assert_array_equal(params["b1"], np.ones(2))

    def test_step_applies_lr_times_grad(self):
        params = {"W1": np.zeros(3)}
        grads = {"W1": np.array([1.0, -2.0, 0.5])}
        sched = WarmupLinearSchedule(base_lr=2.0, total_steps=1, warmup_rate=1.0)
        opt = SgdwOptimizer(schedule=sched, weight_decay=0.0)
        lr = opt.step([params], [grads])
        assert lr == pytest.approx(2.0)
        np.testing.assert_allclose(params["W1"], [-2.0, 4.0, -1.0])
        assert opt.step_count == 1

    def test_row_sparse_step_matches_dense(self):
        """A (rows, values) gradient steps like its dense scatter, bit for bit,
        with weight decay and over several steps that touch the same rows."""
        rng = np.random.default_rng(4)
        sparse_params = {"emb": rng.normal(size=(10, 3)), "b": rng.normal(size=3)}
        dense_params = {name: p.copy() for name, p in sparse_params.items()}
        sched = WarmupLinearSchedule(base_lr=0.7, total_steps=3, warmup_rate=0.5)
        sparse_opt = SgdwOptimizer(schedule=sched, weight_decay=0.01)
        dense_opt = SgdwOptimizer(schedule=sched, weight_decay=0.01)
        for rows in ([1, 4, 7], [0, 4, 9], [4, 7]):
            rows = np.array(rows)
            values = rng.normal(size=(len(rows), 3))
            b = rng.normal(size=3)
            scattered = np.zeros((10, 3))
            scattered[rows] = values
            sparse_opt.step([sparse_params], [{"emb": (rows, values), "b": b}])
            dense_opt.step([dense_params], [{"emb": scattered, "b": b}])
            assert np.array_equal(sparse_params["emb"], dense_params["emb"])
            assert np.array_equal(sparse_params["b"], dense_params["b"])

    @pytest.mark.parametrize("weight_decay", [0.0, 0.01])
    def test_step_matches_old_step_bitwise(self, weight_decay):
        """The reused-buffer products give the bits of the step that computed
        ``lr * g`` and ``lr * wd * p`` into fresh temporaries, step after step."""
        rng = np.random.default_rng(8)
        params = {"W1": rng.normal(size=(5, 4)), "b1": rng.normal(size=4)}
        expected = {name: p.copy() for name, p in params.items()}
        sched = WarmupLinearSchedule(base_lr=0.3, total_steps=6, warmup_rate=0.3)
        opt = SgdwOptimizer(schedule=sched, weight_decay=weight_decay)
        oracle = _OracleSgdwOptimizer(schedule=sched, weight_decay=weight_decay)
        for step in range(6):
            grads = {name: rng.normal(size=p.shape) for name, p in params.items()}
            assert opt.step([params], [grads]) == oracle.step([expected], [grads])
            for name in params:
                assert np.array_equal(params[name], expected[name]), (step, name)


class TestHyperparams:
    def test_total_steps_from_epochs(self):
        hp = Hyperparams(epochs=6, batch_size=16)
        # ceil(100 / 16) = 7 steps per epoch
        assert hp.total_steps(100) == 42

    def test_max_steps_override(self):
        hp = Hyperparams(epochs=6, batch_size=16, max_steps=13)
        assert hp.total_steps(100) == 13

    def test_empty_dataset(self):
        assert Hyperparams().total_steps(0) == 0


class TestHyperparamsValidation:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("batch_size", 0), ("batch_size", 2.0), ("batch_size", True), ("epochs", -1),
            ("max_steps", -1), ("max_steps", 1.5), ("learning_rate", 0.0),
            ("learning_rate", float("nan")), ("learning_rate", float("inf")),
            ("learning_rate", "0.1"), ("warmup_rate", -0.1), ("warmup_rate", 1.01),
            ("warmup_rate", float("nan")), ("weight_decay", -1e-9),
            ("weight_decay", float("inf")), ("w_evidence", float("nan")), ("w_entailment", -1.0),
            ("seed", -1), ("seed", 1.5), ("seed", float("nan")), ("seed", None),
        ],
    )
    def test_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            Hyperparams(**{field: value})

    def test_boundaries_accepted(self):
        hp = Hyperparams(
            epochs=0, max_steps=0, batch_size=1, warmup_rate=1.0, weight_decay=0.0,
            w_evidence=0.0, w_entailment=0, learning_rate=np.float64(0.5),
        )
        assert hp.total_steps(10) == 0
        assert Hyperparams(warmup_rate=0, max_steps=np.int64(3)).total_steps(10) == 3


class TestMinibatches:
    def test_deterministic_given_seed(self):
        hp = Hyperparams(epochs=2, batch_size=4)
        runs = []
        for _ in range(2):
            rng = np.random.default_rng(123)
            runs.append([batch.tolist() for batch in minibatches(10, hp, rng)])
        assert runs[0] == runs[1]

    def test_each_pass_covers_all_items(self):
        hp = Hyperparams(epochs=1, batch_size=4)
        rng = np.random.default_rng(0)
        seen = np.concatenate(list(minibatches(10, hp, rng)))
        assert sorted(seen.tolist()) == list(range(10))

    def test_respects_max_steps(self):
        hp = Hyperparams(epochs=50, batch_size=4, max_steps=7)
        rng = np.random.default_rng(0)
        assert len(list(minibatches(10, hp, rng))) == 7

    def test_zero_epochs_yields_nothing(self):
        hp = Hyperparams(epochs=0, batch_size=4)
        assert list(minibatches(10, hp, np.random.default_rng(0))) == []

    def test_steps_over_no_items_are_refused(self):
        """Steps asked of zero items raise instead of looping forever."""
        with time_limit(20), pytest.raises(CtrnliError, match="5 training steps .* nothing"):
            list(minibatches(0, Hyperparams(max_steps=5), np.random.default_rng(0)))

    @pytest.mark.parametrize("max_steps", [None, 0])
    def test_no_steps_over_no_items_yield_nothing(self, max_steps):
        hp = Hyperparams(max_steps=max_steps)
        assert list(minibatches(0, hp, np.random.default_rng(0))) == []


class TestFit:
    def test_steps_over_no_items_are_refused(self):
        def batch_grads(batch_idx):
            raise AssertionError("no batch exists")

        with time_limit(20), pytest.raises(CtrnliError, match="nothing to train on"):
            fit([{}], batch_grads, 0, Hyperparams(max_steps=3), np.random.default_rng(0))

    @pytest.mark.parametrize(
        "bad", [float("nan"), [1.0, float("inf"), 0.5]], ids=["loss", "loss-terms"]
    )
    def test_stops_at_the_first_non_finite_loss(self, bad):
        """The step whose loss is not finite raises before it updates
        anything, and no later step runs: one optimizer step in all."""
        params = {"W": np.ones(2)}
        losses = iter([0.5, bad, 0.25])

        def batch_grads(batch_idx):
            return next(losses), [{"W": np.ones(2)}]

        hp = Hyperparams(
            learning_rate=0.1, warmup_rate=0.0, weight_decay=0.0, batch_size=1, max_steps=3
        )
        with pytest.raises(CtrnliError, match="non-finite training loss .* at step 2"):
            fit([params], batch_grads, 3, hp, np.random.default_rng(0))
        assert next(losses) == 0.25
        np.testing.assert_array_equal(params["W"], np.full(2, 1.0 - 0.1))
