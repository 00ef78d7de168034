import inspect
import math
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from decal import learner
from decal.errors import ConfigError, TrainingDiverged
from decal.learner import (
    ADAM_BETA1,
    ADAM_BETA2,
    ADAM_EPSILON,
    LearnerConfig,
    TrainResult,
    cross_entropy_loss_and_grads,
    evaluate,
    gradient_embedding,
    init_model,
    penultimate,
    predict_proba,
    train_lockstep,
)
from helpers import linear_model, train_solo

FAST = LearnerConfig(hidden_width=8, learning_rate=0.1, train_accuracy_target=0.98,
                     max_epochs=200, minibatch_size=16)


def blobs(seed=0, per_class=20, dim=2, classes=3, separation=6.0, noise=0.3):
    rng = np.random.default_rng(seed)
    centers = separation * rng.standard_normal((classes, dim))
    features = np.concatenate(
        [centers[c] + noise * rng.standard_normal((per_class, dim)) for c in range(classes)]
    )
    labels = np.repeat(np.arange(classes), per_class)
    return features, labels


class TestInitModel:
    def test_deterministic_in_seed(self):
        a = init_model(FAST, 4, 3, seed=5)
        b = init_model(FAST, 4, 3, seed=5)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa, pb)

    def test_different_seeds_differ(self):
        a = init_model(FAST, 4, 3, seed=5)
        b = init_model(FAST, 4, 3, seed=6)
        assert any(not np.array_equal(pa, pb) for pa, pb in zip(a.parameters(), b.parameters()))

    def test_linear_parameter_count(self):
        cfg = LearnerConfig(hidden_width=0)
        model = init_model(cfg, 4, 3, seed=0)
        assert sum(p.size for p in model.parameters()) == 4 * 3 + 3
        assert penultimate(model, np.zeros((1, 4))).shape == (1, 4)  # the linear model's penultimate is its input

    def test_scale_follows_fan_in(self):
        cfg = LearnerConfig(hidden_width=0)
        model = init_model(cfg, 10000, 3, seed=0)
        assert np.std(model.w_out) == pytest.approx(1 / np.sqrt(10000), rel=0.1)

    def test_bad_dims_rejected(self):
        with pytest.raises(ConfigError):
            init_model(FAST, 0, 3, seed=0)
        with pytest.raises(ConfigError):
            init_model(FAST, 4, 1, seed=0)


class TestPredictProba:
    def test_zero_model_is_uniform(self):
        model = linear_model(np.zeros((4, 3)), np.zeros(3))
        p = predict_proba(model, np.zeros(4))
        np.testing.assert_allclose(p, np.full(3, 1 / 3), atol=1e-15)

    def test_reference_logits(self):
        # softmax(10, 0, 0), frozen from a 60-digit evaluation
        model = linear_model(np.eye(3), np.zeros(3))
        p = predict_proba(model, np.array([10.0, 0.0, 0.0]))
        np.testing.assert_allclose(
            p, [0.99990920838434097818, 4.5395807829510909425e-05, 4.5395807829510909425e-05],
            rtol=0, atol=1e-12,
        )

    def test_rows_sum_to_one(self):
        rng = np.random.default_rng(0)
        model = init_model(FAST, 6, 4, seed=1)
        x = 100.0 * rng.standard_normal((200, 6))
        p = predict_proba(model, x)
        assert p.min() >= 0.0
        np.testing.assert_allclose(p.sum(axis=1), 1.0, atol=1e-9)

    def test_dimension_mismatch(self):
        model = init_model(FAST, 6, 4, seed=1)
        with pytest.raises(ValueError):
            predict_proba(model, np.zeros(5))


class TestPenultimate:
    def test_linear_returns_features(self):
        model = linear_model(np.zeros((3, 2)), np.zeros(2))
        x = np.array([1.0, -2.0, 3.0])
        np.testing.assert_array_equal(penultimate(model, x), x)

    def test_hidden_width(self):
        model = init_model(FAST, 5, 3, seed=0)
        assert penultimate(model, np.zeros(5)).shape == (8,)

    def test_zero_input_zero_bias_gives_zero(self):
        model = init_model(FAST, 5, 3, seed=0)
        model.b_hidden[:] = 0.0  # tanh is odd, so zero pre-activations stay zero
        np.testing.assert_array_equal(penultimate(model, np.zeros(5)), np.zeros(8))


class TestGradientEmbedding:
    def test_shape(self):
        model = init_model(FAST, 5, 3, seed=0)
        assert gradient_embedding(model, np.zeros(5)).shape == (8 * 3,)

    def test_matches_outer_product(self):
        model = init_model(FAST, 4, 3, seed=2)
        x = np.array([0.5, -1.0, 2.0, 0.1])
        p = predict_proba(model, x)
        h = penultimate(model, x)
        residual = p.copy()
        residual[np.argmax(p)] -= 1.0
        np.testing.assert_allclose(
            gradient_embedding(model, x), np.outer(residual, h).ravel(), atol=1e-15
        )

    def test_confident_prediction_vanishes(self):
        model = linear_model(np.eye(3) * 500.0, np.zeros(3))
        g = gradient_embedding(model, np.array([1.0, 0.0, 0.0]))
        assert np.linalg.norm(g) < 1e-30

    def test_norm_identity_reference_value(self):
        # posteriors (0.5, 0.3, 0.2) via the bias, penultimate norm 2:
        # embedding norm = 2 * sqrt(0.38), frozen from exact arithmetic
        model = linear_model(np.zeros((2, 3)), np.log([0.5, 0.3, 0.2]))
        g = gradient_embedding(model, np.array([2.0, 0.0]))
        assert np.linalg.norm(g) == pytest.approx(1.2328828005937952901, abs=1e-9)

    def test_norm_identity_random(self):
        rng = np.random.default_rng(7)
        model = init_model(FAST, 6, 4, seed=3)
        for _ in range(100):
            x = rng.standard_normal(6) * rng.uniform(0.1, 5)
            p = predict_proba(model, x)
            h = penultimate(model, x)
            residual = p.copy()
            residual[np.argmax(p)] -= 1.0
            expected = np.linalg.norm(residual) * np.linalg.norm(h)
            assert np.linalg.norm(gradient_embedding(model, x)) == pytest.approx(expected, abs=1e-9)


class TestEvaluate:
    def test_constant_predictor_on_balanced_set(self):
        model = linear_model(np.zeros((2, 3)), np.array([5.0, 0.0, 0.0]))
        x = np.zeros((9, 2))
        y = np.repeat([0, 1, 2], 3)
        assert evaluate(model, x, y) == pytest.approx(1 / 3)

    def test_three_of_four(self):
        model = linear_model(np.eye(2), np.zeros(2))
        x = np.array([[1.0, 0.0], [1.0, 0.0], [1.0, 0.0], [1.0, 0.0]])
        y = np.array([0, 0, 0, 1])
        assert evaluate(model, x, y) == 0.75

    def test_memorized_points(self):
        x, y = blobs(seed=4, per_class=4, separation=8.0, noise=0.1)
        model = init_model(FAST, 2, 3, seed=0)
        result = train_solo(model, x, y, LearnerConfig(
            hidden_width=8, learning_rate=0.1, train_accuracy_target=1.0,
            max_epochs=300, minibatch_size=12), seed=1)
        assert result.reached_target
        assert evaluate(model, x, y) == 1.0

    def test_empty_rejected(self):
        model = init_model(FAST, 2, 3, seed=0)
        with pytest.raises(ValueError):
            evaluate(model, np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_argmax_tie_goes_to_lowest_class(self):
        model = linear_model(np.zeros((2, 3)), np.zeros(3))
        x = np.zeros((4, 2))
        assert evaluate(model, x, np.zeros(4, dtype=int)) == 1.0
        assert evaluate(model, x, np.ones(4, dtype=int)) == 0.0


    def test_follows_the_logits_where_posteriors_round_to_a_tie(self):
        # logits (0, 1e-17, -3): class 1 has the larger logit, but softmax rounds
        # the top two posteriors to the same value, whose first argmax is class 0
        model = linear_model([[0.0, 1e-17, -3.0]], np.zeros(3))
        x = np.ones((1, 1))
        posteriors = predict_proba(model, x)
        assert posteriors[0, 0] == posteriors[0, 1] and np.argmax(posteriors) == 0
        assert evaluate(model, x, [1]) == 1.0
        assert evaluate(model, x, [0]) == 0.0


class TestTrainRound:
    def test_separable_blobs_reach_target(self):
        x, y = blobs(seed=1, per_class=20)
        model = init_model(FAST, 2, 3, seed=2)
        result = train_solo(model, x, y, FAST, seed=3)
        assert result.reached_target
        assert result.epochs_used < FAST.max_epochs
        assert result.train_accuracy >= FAST.train_accuracy_target
        assert evaluate(model, x, y) >= FAST.train_accuracy_target

    def test_single_class_trains_in_a_few_epochs(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 3))
        y = np.full(30, 2)
        model = init_model(FAST, 3, 3, seed=5)
        result = train_solo(model, x, y, LearnerConfig(
            hidden_width=8, learning_rate=0.1, train_accuracy_target=1.0,
            max_epochs=50, minibatch_size=16), seed=6)
        assert result.reached_target
        assert result.epochs_used <= 5

    def test_zero_epochs_leaves_model_unchanged(self):
        model = init_model(FAST, 2, 3, seed=7)
        before = [p.copy() for p in model.parameters()]
        x, y = blobs(seed=2, per_class=5)
        result = train_solo(model, x, y, LearnerConfig(
            hidden_width=8, learning_rate=0.1, max_epochs=0), seed=0)
        assert not result.reached_target
        assert result.epochs_used == 0
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_empty_training_set_rejected(self):
        model = init_model(FAST, 2, 3, seed=7)
        with pytest.raises(ValueError):
            train_solo(model, np.zeros((0, 2)), np.zeros(0, dtype=int), FAST, seed=0)

    def test_bit_identical_determinism(self):
        x, y = blobs(seed=3, per_class=20)

        def run(seed):
            model = init_model(FAST, 2, 3, seed=11)
            train_solo(model, x, y, FAST, seed=seed)
            return [p.copy() for p in model.parameters()]

        for pa, pb in zip(run(42), run(42)):
            np.testing.assert_array_equal(pa, pb)
        assert any(
            not np.array_equal(pa, pb) for pa, pb in zip(run(42), run(43))
        )

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_is_training_diverged(self):
        x, y = blobs(seed=1, per_class=20)
        model = init_model(FAST, 2, 3, seed=2)
        with pytest.raises(TrainingDiverged, match=r"loss is (nan|inf) at step \d+$"):
            train_solo(model, x, y, replace(FAST, learning_rate=1e308), seed=3)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("target", [0.01, 1.0], ids=["target-reached", "epoch-cap"])
    @pytest.mark.parametrize("scale, learning_rate", [(100.0, 1e307), (1.0, 1e308)],
                             ids=["infinite-parameters", "overflowing-logits"])
    def test_diverged_last_update_is_training_diverged(self, target, scale, learning_rate):
        # a single step, whose loss is finite: learning_rate * gradient overflows the
        # update, or leaves parameters near the float limit that overflow the logits
        x = scale * np.random.default_rng(0).standard_normal((8, 2))
        y = np.tile([0, 1], 4)
        cfg = LearnerConfig(hidden_width=0, learning_rate=learning_rate, train_accuracy_target=target,
                            max_epochs=1, minibatch_size=8)
        model = init_model(cfg, 2, 2, seed=0)
        with pytest.raises(TrainingDiverged, match="parameters or logits are not finite after step 1$"):
            train_solo(model, x, y, cfg, seed=0)
        assert all(np.isfinite(p).all() for p in model.parameters()) == (scale == 1.0)

    def test_infinite_parameter_behind_finite_logits_is_training_diverged(self):
        # a saturated tanh unit hides an infinite input weight from the logits
        x = 0.5 + np.abs(np.random.default_rng(0).standard_normal((8, 2)))
        model = init_model(FAST, 2, 2, seed=0)
        model.w_hidden[0, 0] = np.inf
        with pytest.raises(TrainingDiverged, match="parameters or logits are not finite after step 1$"):
            train_solo(model, x, np.tile([0, 1], 4), replace(FAST, max_epochs=1), seed=0)


def reference_loss_and_grads(model, x, y):
    """Cross-entropy gradients as separate fresh arrays, computed as before the fused trainer."""
    n = x.shape[0]
    h = x if model.w_hidden is None else np.tanh(x @ model.w_hidden + model.b_hidden)
    z = h @ model.w_out + model.b_out
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    dz = np.exp(z - log_norm[:, None])
    dz[np.arange(n), y] -= 1.0
    dz /= n
    dw_out = h.T @ dz
    db_out = dz.sum(axis=0)
    if model.w_hidden is None:
        return [dw_out, db_out]
    dh = dz @ model.w_out.T
    dz1 = dh * (1.0 - h * h)
    return [x.T @ dz1, dz1.sum(axis=0), dw_out, db_out]


def reference_train_round(model, x, y, cfg, seed):
    """The per-parameter Adam loop the fused trainer replaced, for finite runs."""
    rng = np.random.default_rng(seed)
    params = model.parameters()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    step = 0
    n = y.shape[0]
    batch_size = min(cfg.minibatch_size, n)
    accuracy = evaluate(model, x, y)
    epochs_used, reached_target = cfg.max_epochs, False
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            grads = reference_loss_and_grads(model, x[idx], y[idx])
            step += 1
            bias1 = 1.0 - ADAM_BETA1 ** step
            bias2 = 1.0 - ADAM_BETA2 ** step
            for p, g, m1, m2 in zip(params, grads, moment1, moment2):
                m1 *= ADAM_BETA1
                m1 += (1.0 - ADAM_BETA1) * g
                m2 *= ADAM_BETA2
                m2 += (1.0 - ADAM_BETA2) * (g * g)
                p -= cfg.learning_rate * (m1 / bias1) / (np.sqrt(m2 / bias2) + ADAM_EPSILON)
        accuracy = evaluate(model, x, y)
        if accuracy >= cfg.train_accuracy_target:
            epochs_used, reached_target = epoch, True
            break
    return TrainResult(epochs_used=epochs_used, reached_target=reached_target, train_accuracy=accuracy)


class TestFusedTrainer:
    # minibatch 16: 48 rows fill three batches, 45 leave a short last batch, 9 make one short batch
    @pytest.mark.parametrize("per_class", [16, 15, 3], ids=["n-multiple", "n-not-multiple", "n-below-batch"])
    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    @pytest.mark.parametrize("capped", [False, True], ids=["target", "epoch-cap"])
    def test_bitwise_equal_to_per_parameter_adam(self, per_class, hidden_width, capped):
        x, y = blobs(seed=5, per_class=per_class)
        if capped:  # the first two rows become one point with two labels
            x[1], y[1] = x[0], 1
        cfg = replace(FAST, hidden_width=hidden_width, learning_rate=0.01, train_accuracy_target=1.0, max_epochs=150)
        fused, reference = (init_model(cfg, 2, 3, seed=9) for _ in range(2))
        fetched = [p.copy() for p in fused.parameters()], fused.parameters()

        result = train_solo(fused, x, y, cfg, seed=4)
        assert result == reference_train_round(reference, x, y, cfg, seed=4)
        assert result.reached_target != capped and result.epochs_used > 1
        for p, q in zip(fused.parameters(), reference.parameters()):
            assert p.shape == q.shape and p.tobytes() == q.tobytes()
        # the model now holds views of one buffer; arrays fetched before the call are not updated
        for before, stale in zip(*fetched):
            np.testing.assert_array_equal(stale, before)


class TestGradients:
    @pytest.mark.parametrize("labels", [6, 8, 1])
    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    def test_labels_of_another_length_are_refused(self, labels, hidden_width):
        rng = np.random.default_rng(3)
        x, y = rng.standard_normal((7, 4)), rng.integers(0, 3, size=labels)
        model = init_model(LearnerConfig(hidden_width=hidden_width), 4, 3, seed=1)
        with pytest.raises(ValueError, match="^features and labels must have equal length$"):
            cross_entropy_loss_and_grads(model, x, y)

    def test_fresh_arrays_without_out(self):
        rng = np.random.default_rng(4)
        x, y = rng.standard_normal((7, 4)), rng.integers(0, 3, size=7)
        for hidden_width in (8, 0):
            model = init_model(LearnerConfig(hidden_width=hidden_width), 4, 3, seed=1)
            _, first = cross_entropy_loss_and_grads(model, x, y)
            _, second = cross_entropy_loss_and_grads(model, x, y)
            arrays = [*first, *second, *model.parameters(), x]
            for i, a in enumerate(arrays):
                assert not any(np.shares_memory(a, b) for b in arrays[i + 1:])

    def test_matches_central_finite_differences(self):
        rng = np.random.default_rng(12)
        step = 1e-5
        for trial in range(10):
            dim = int(rng.integers(2, 6))
            classes = int(rng.integers(2, 5))
            hidden = int(rng.integers(0, 9))
            cfg = LearnerConfig(hidden_width=hidden)
            model = init_model(cfg, dim, classes, seed=trial)
            x = rng.standard_normal((10, dim))
            y = rng.integers(0, classes, size=10)

            _, grads = cross_entropy_loss_and_grads(model, x, y)
            for p, g in zip(model.parameters(), grads):
                numeric = np.zeros_like(p)
                it = np.nditer(p, flags=["multi_index"])
                while not it.finished:
                    idx = it.multi_index
                    original = p[idx]
                    p[idx] = original + step
                    up, _ = cross_entropy_loss_and_grads(model, x, y)
                    p[idx] = original - step
                    down, _ = cross_entropy_loss_and_grads(model, x, y)
                    p[idx] = original
                    numeric[idx] = (up - down) / (2 * step)
                    it.iternext()
                denom = max(np.linalg.norm(g), np.linalg.norm(numeric), 1e-12)
                assert np.linalg.norm(g - numeric) / denom <= 1e-4


def trial_model(stack, row):
    """The model of one row of the stack: views of that row of the stack's parameters."""
    return replace(stack.model, **{name: getattr(stack.model, name)[row] for name in stack.names})


class TestTrainerForm:
    """The trainer's bound steps against the public, checked call."""

    # minibatch 16 over 37 rows: two full batches and a short last one of 5
    @pytest.mark.parametrize("trials", [1, 2, 5])
    @pytest.mark.parametrize("hidden_width", [0, 16])
    @pytest.mark.parametrize("classes", [2, 3, 10])
    def test_summed_loss_and_gradients_are_bitwise_the_public_call(self, trials, hidden_width, classes):
        rng = np.random.default_rng(100 * trials + 10 * classes + hidden_width)
        cfg = LearnerConfig(hidden_width=hidden_width, learning_rate=0.05, minibatch_size=16)
        x = rng.standard_normal((trials, 37, 4)) * rng.choice([0.5, 3.0], size=(trials, 1, 4))
        y = rng.integers(0, classes, size=(trials, 37))
        stack = learner._Stack([init_model(cfg, 4, classes, seed=t) for t in range(trials)], x, y, cfg)
        rngs = [np.random.default_rng(t) for t in range(trials)]
        step = 0
        for epoch in range(3):
            if epoch == 2 and trials > 1:  # the stack's plan is bound again for its kept rows
                stack.keep(np.arange(1, trials))
            stack.shuffle(rngs)
            for (start, end), run in zip(stack.spans, stack.steps):
                k = len(stack.rows)
                loss_sum = run().copy()
                grads = [g.copy() for g in stack._split(stack.grad[:k])]
                assert loss_sum.shape == (k,)
                for row in range(k):  # each row against a call on that trial's own model
                    model = trial_model(stack, row)
                    loss, expected = cross_entropy_loss_and_grads(model, stack.xs[row, start:end],
                                                                  stack.ys[row, start:end])
                    assert type(loss) is float
                    assert np.float64(loss_sum[row] / (end - start)).tobytes() == np.float64(loss).tobytes()
                    for g, e in zip(grads, expected):
                        assert g[row].shape == e.shape and g[row].tobytes() == e.tobytes()
                step += 1
                stack.update(step)  # in place, so the next step sees the updated biases through the views

    @pytest.mark.parametrize("trials", [1, 3])
    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    def test_bound_steps_and_updates_allocate_nothing(self, trials, hidden_width):
        # 37 rows in minibatches of 16 leave a short last batch of 5
        rng = np.random.default_rng(trials + hidden_width)
        cfg = LearnerConfig(hidden_width=hidden_width, learning_rate=0.05, minibatch_size=16)
        x, y = rng.standard_normal((trials, 37, 4)), rng.integers(0, 3, size=(trials, 37))
        stack = learner._Stack([init_model(cfg, 4, 3, seed=t) for t in range(trials)], x, y, cfg)
        stack.shuffle([np.random.default_rng(t) for t in range(trials)])
        tracemalloc.start()
        try:
            for step in range(1, 201):
                assert all(map(math.isfinite, stack.steps[step % len(stack.steps)]().tolist()))
                stack.update(step)
                if step == 1:
                    after_first = tracemalloc.get_traced_memory()[0]
            grown = tracemalloc.get_traced_memory()[0] - after_first
        finally:
            tracemalloc.stop()
        assert grown < 400  # the Python floats of tolist()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("nan", [True, False], ids=["nan", "inf"])
    def test_diverged_message_names_the_mean_loss(self, nan):
        # the linear model's label logit overflows to -inf on every row (+inf loss), or a feature is nan
        x = np.tile([[1e308, 0.0]], (6, 1))
        y = np.zeros(6, dtype=np.int64)
        if nan:
            x[2, 1] = np.nan
        cfg = LearnerConfig(hidden_width=0, max_epochs=1, minibatch_size=8)
        model = init_model(cfg, 2, 2, seed=0)
        model.w_out[0] = [-10.0, 0.5]
        loss, _ = cross_entropy_loss_and_grads(model, x, y)
        assert np.isnan(loss) if nan else loss == np.inf
        with pytest.raises(TrainingDiverged) as caught:
            train_solo(model, x, y, cfg, seed=0)
        assert str(caught.value) == f"training diverged: loss is {loss} at step 1"


def lockstep_trials(per_class, hidden_width):
    """Four training sets of equal size that stop at different epochs of a 1.0 target.

    Trial 2 makes its first two rows one point with two labels, so it can only
    stop at the epoch cap.
    """
    cfg = replace(FAST, hidden_width=hidden_width, learning_rate=0.01, train_accuracy_target=1.0, max_epochs=150)
    sets = [blobs(seed=seed, per_class=per_class, separation=separation, noise=noise)
            for seed, separation, noise in [(7, 8.0, 0.1), (6, 6.0, 0.3), (5, 10.0, 0.1), (8, 2.0, 0.3)]]
    x, y = np.stack([s[0] for s in sets]), np.stack([s[1] for s in sets])
    x[2, 1], y[2, 1] = x[2, 0], 1
    return cfg, x, y


class TestLockstep:
    # minibatch 16: 45 rows leave a short last batch, 48 fill three batches, 9 make one short batch
    @pytest.mark.parametrize("per_class", [15, 16, 3], ids=["n-not-multiple", "n-multiple", "n-below-batch"])
    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    def test_each_trial_is_bitwise_its_solo_run(self, per_class, hidden_width):
        cfg, x, y = lockstep_trials(per_class, hidden_width)
        seeds = [4, 40, 400, 4000]
        stacked = [init_model(cfg, 2, 3, seed=9 + t) for t in range(4)]
        outcomes = train_lockstep(stacked, x, y, cfg, seeds)
        epochs = [outcome.epochs_used for outcome in outcomes]
        assert outcomes[2].epochs_used == cfg.max_epochs and not outcomes[2].reached_target
        assert min(epochs) < cfg.max_epochs // 2 and len(set(epochs)) >= 3
        for t, (model, outcome) in enumerate(zip(stacked, outcomes)):
            solo = init_model(cfg, 2, 3, seed=9 + t)
            assert outcome == train_solo(solo, x[t], y[t], cfg, seed=seeds[t])
            for p, q in zip(model.parameters(), solo.parameters()):
                assert p.shape == q.shape and p.tobytes() == q.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    def test_a_diverging_trial_leaves_and_the_others_go_on(self, hidden_width):
        # trial 1's nan row is in the second of the three minibatches of its first epoch, so it
        # leaves the stack between two steps; its message is the one its solo run raises
        cfg, x, y = lockstep_trials(15, hidden_width)
        x[1, 3] = np.nan
        seeds = [4, 40, 400, 4000]
        stacked = [init_model(cfg, 2, 3, seed=9 + t) for t in range(4)]
        outcomes = train_lockstep(stacked, x, y, cfg, seeds)
        assert isinstance(outcomes[1], TrainingDiverged) and str(outcomes[1]).endswith("loss is nan at step 2")
        with pytest.raises(TrainingDiverged) as solo_error:
            train_solo(init_model(cfg, 2, 3, seed=10), x[1], y[1], cfg, seed=40)
        assert str(outcomes[1]) == str(solo_error.value)
        for t in (0, 2, 3):
            solo = init_model(cfg, 2, 3, seed=9 + t)
            assert outcomes[t] == train_solo(solo, x[t], y[t], cfg, seed=seeds[t])
            for p, q in zip(stacked[t].parameters(), solo.parameters()):
                assert p.tobytes() == q.tobytes()

    @pytest.mark.parametrize("hidden_width", [8, 0], ids=["hidden", "linear"])
    def test_a_trial_reaching_its_target_at_the_cap_leaves_the_others_theirs(self, hidden_width):
        # the epoch cap is the epoch where trial 0 reaches its target, so the others stop with it, capped
        cfg, x, y = lockstep_trials(15, hidden_width)
        cap = train_solo(init_model(cfg, 2, 3, seed=9), x[0], y[0], cfg, seed=4).epochs_used
        cfg = replace(cfg, max_epochs=cap)
        seeds = [4, 40, 400, 4000]
        outcomes = train_lockstep([init_model(cfg, 2, 3, seed=9 + t) for t in range(4)], x, y, cfg, seeds)
        assert [outcome.reached_target for outcome in outcomes] == [True, False, False, False]
        for t, outcome in enumerate(outcomes):
            assert outcome == train_solo(init_model(cfg, 2, 3, seed=9 + t), x[t], y[t], cfg, seed=seeds[t])

    @pytest.mark.parametrize("bad", [0, 2], ids=["reaching-trial", "capped-trial"])
    def test_each_trial_is_checked_against_its_own_logits_at_the_cap(self, monkeypatch, bad):
        # at the cap epoch trial 0 reaches its target and leaves before the capped trials are checked,
        # so the rows behind it move up; only the trial whose last logits are not finite diverges
        cfg, x, y = lockstep_trials(15, 8)
        cfg = replace(cfg, max_epochs=3)
        seeds = [4, 40, 400, 4000]
        solo = [train_solo(init_model(cfg, 2, 3, seed=9 + t), x[t], y[t], cfg, seed=seeds[t]) for t in range(4)]
        assert not any(result.reached_target for result in solo)
        accuracy, calls = learner._Stack.accuracy, []

        def at_the_cap(stack):
            result, logits = accuracy(stack)
            calls.append(len(stack.rows))
            if len(calls) == cfg.max_epochs + 1:  # the first call is before epoch 1
                logits[stack.rows.index(bad), 0, 0] = np.inf
                result[0] = 1.0
            return result, logits

        monkeypatch.setattr(learner._Stack, "accuracy", at_the_cap)
        outcomes = train_lockstep([init_model(cfg, 2, 3, seed=9 + t) for t in range(4)], x, y, cfg, seeds)
        assert calls[-1] == 4
        assert [isinstance(outcome, TrainingDiverged) for outcome in outcomes] == [t == bad for t in range(4)]
        if bad != 0:
            assert outcomes[0].reached_target
        for t in set(range(1, 4)) - {bad}:
            assert outcomes[t] == solo[t]

    def test_targets_follow_their_rows_when_the_stack_shrinks(self):
        cfg, x, y = lockstep_trials(15, 8)
        stack = learner._Stack([init_model(cfg, 2, 3, seed=t) for t in range(4)], x, y, cfg)
        stack.shuffle([np.random.default_rng(t) for t in range(4)])
        shuffled = stack.xs.copy()
        stack.keep(np.array([0, 2, 3]))
        for (start, end), run in zip(stack.spans, stack.steps):
            bound = inspect.getclosurevars(run).nonlocals
            onehot, picks = bound["onehot"], bound["picks"]
            # each step's picks index the label logits of its own (trials, rows, classes) logits
            assert np.array_equal(picks, learner._targets(onehot.argmax(-1), 3)[1])
            assert bound["x"].shape == (3, end - start, 2) and bound["z"].shape == onehot.shape
            assert np.array_equal(bound["x"], stack.xs[:3, start:end])
        assert np.array_equal(stack.xs[:3], shuffled[[0, 2, 3]])

    def test_shape_mismatch_is_rejected(self):
        cfg, x, y = lockstep_trials(3, 8)
        models = [init_model(cfg, 2, 3, seed=t) for t in range(4)]
        with pytest.raises(ValueError, match="must agree"):
            train_lockstep(models, x, y, cfg, [0, 1, 2])
        with pytest.raises(ValueError, match="must agree"):
            train_lockstep(models, x, y[:, :-1], cfg, [0, 1, 2, 3])

    def test_out_of_range_labels_are_rejected(self):
        cfg, x, y = lockstep_trials(3, 8)
        y[0, 0] = 3
        with pytest.raises(ValueError, match=r"labels must lie in \[0, 3\)"):
            train_lockstep([init_model(cfg, 2, 3, seed=t) for t in range(4)], x, y, cfg, [0, 1, 2, 3])


class TestStackRefused:
    """Only the trainer's bound steps take a stack of models; every public call refuses it."""

    @pytest.mark.parametrize("call", [
        lambda model, x, y: penultimate(model, x),
        lambda model, x, y: predict_proba(model, x),
        lambda model, x, y: gradient_embedding(model, x),
        lambda model, x, y: evaluate(model, x, y),
        lambda model, x, y: cross_entropy_loss_and_grads(model, x, y),
        lambda model, x, y: train_lockstep([model], x if x.ndim == 3 else x[None], y if y.ndim == 2 else y[None],
                                           FAST, [0]),
    ], ids=["penultimate", "predict_proba", "gradient_embedding", "evaluate", "loss_and_grads", "train_lockstep"])
    @pytest.mark.parametrize("batch", ["stacked", "one-trial"])
    @pytest.mark.parametrize("hidden_width", [4, 0], ids=["hidden", "linear"])
    def test_a_stacked_model_is_refused(self, call, batch, hidden_width):
        cfg = replace(FAST, hidden_width=hidden_width)
        rng = np.random.default_rng(0)
        x, y = rng.standard_normal((2, 5, 4)), rng.integers(0, 3, size=(2, 5))
        stack = learner._Stack([init_model(cfg, 4, 3, seed=t) for t in range(2)], x, y, cfg)
        if batch == "one-trial":
            x, y = x[0], y[0]
        with pytest.raises(ValueError, match="^model arrays carry a trial axis: a stack of models trains only "
                                             "inside train_lockstep$"):
            call(stack.model, x, y)
