from dataclasses import replace

import numpy as np
import pytest

from decal.errors import ConfigError, TrainingDiverged
from decal.learner import (
    LearnerConfig,
    cross_entropy_loss_and_grads,
    evaluate,
    gradient_embedding,
    init_model,
    penultimate,
    predict_proba,
    train_round,
)
from helpers import linear_model

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
        assert model.penultimate_dim == 4

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
        result = train_round(model, x, y, LearnerConfig(
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
        result = train_round(model, x, y, FAST, seed=3)
        assert result.reached_target
        assert result.epochs_used < FAST.max_epochs
        assert result.train_accuracy >= FAST.train_accuracy_target
        assert evaluate(model, x, y) >= FAST.train_accuracy_target

    def test_single_class_trains_in_a_few_epochs(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal((30, 3))
        y = np.full(30, 2)
        model = init_model(FAST, 3, 3, seed=5)
        result = train_round(model, x, y, LearnerConfig(
            hidden_width=8, learning_rate=0.1, train_accuracy_target=1.0,
            max_epochs=50, minibatch_size=16), seed=6)
        assert result.reached_target
        assert result.epochs_used <= 5

    def test_zero_epochs_leaves_model_unchanged(self):
        model = init_model(FAST, 2, 3, seed=7)
        before = [p.copy() for p in model.parameters()]
        x, y = blobs(seed=2, per_class=5)
        result = train_round(model, x, y, LearnerConfig(
            hidden_width=8, learning_rate=0.1, max_epochs=0), seed=0)
        assert not result.reached_target
        assert result.epochs_used == 0
        for p, b in zip(model.parameters(), before):
            np.testing.assert_array_equal(p, b)

    def test_empty_training_set_rejected(self):
        model = init_model(FAST, 2, 3, seed=7)
        with pytest.raises(ValueError):
            train_round(model, np.zeros((0, 2)), np.zeros(0, dtype=int), FAST, seed=0)

    def test_bit_identical_determinism(self):
        x, y = blobs(seed=3, per_class=20)

        def run(seed):
            model = init_model(FAST, 2, 3, seed=11)
            train_round(model, x, y, FAST, seed=seed)
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
            train_round(model, x, y, replace(FAST, learning_rate=1e308), seed=3)

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
            train_round(model, x, y, cfg, seed=0)
        assert all(np.isfinite(p).all() for p in model.parameters()) == (scale == 1.0)

    def test_infinite_parameter_behind_finite_logits_is_training_diverged(self):
        # a saturated tanh unit hides an infinite input weight from the logits
        x = 0.5 + np.abs(np.random.default_rng(0).standard_normal((8, 2)))
        model = init_model(FAST, 2, 2, seed=0)
        model.w_hidden[0, 0] = np.inf
        with pytest.raises(TrainingDiverged, match="parameters or logits are not finite after step 1$"):
            train_round(model, x, np.tile([0, 1], 4), replace(FAST, max_epochs=1), seed=0)


class TestGradients:
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
