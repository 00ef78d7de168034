"""A small differentiable softmax classifier trained with Adam.

The network is deliberately compact: an optional tanh hidden layer followed
by a linear softmax head. It exposes the three quantities the query
strategies consume — class posteriors, penultimate activations, and
loss-gradient embeddings — while staying small enough to verify every
gradient against finite differences.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8


@dataclass(frozen=True)
class LearnerConfig:
    """Classifier and training-loop settings.

    ``hidden_width`` of 0 selects a plain linear softmax model whose
    penultimate representation is the raw feature vector. Training runs
    until full-train accuracy reaches ``train_accuracy_target`` or
    ``max_epochs`` epochs elapse.
    """

    hidden_width: int = 16
    learning_rate: float = 1.5e-4
    train_accuracy_target: float = 0.98
    max_epochs: int = 500
    minibatch_size: int = 32

    def validate(self) -> None:
        if self.hidden_width < 0:
            raise ConfigError("hidden_width must be >= 0")
        if self.learning_rate <= 0:
            raise ConfigError("learning_rate must be > 0")
        if not 0.0 < self.train_accuracy_target <= 1.0:
            raise ConfigError("train_accuracy_target must be in (0, 1]")
        if self.max_epochs < 0:
            raise ConfigError("max_epochs must be >= 0")
        if self.minibatch_size < 1:
            raise ConfigError("minibatch_size must be >= 1")


@dataclass
class Model:
    """Classifier parameters; the hidden arrays are None for the linear model."""

    w_hidden: np.ndarray | None
    b_hidden: np.ndarray | None
    w_out: np.ndarray
    b_out: np.ndarray
    feature_dim: int
    num_classes: int

    @property
    def penultimate_dim(self) -> int:
        return self.feature_dim if self.w_hidden is None else self.w_hidden.shape[1]

    def parameters(self) -> list[np.ndarray]:
        if self.w_hidden is None:
            return [self.w_out, self.b_out]
        return [self.w_hidden, self.b_hidden, self.w_out, self.b_out]


def init_model(cfg: LearnerConfig, feature_dim: int, num_classes: int, seed: int) -> Model:
    """Fresh parameters from a zero-mean normal scaled by 1/sqrt(fan_in)."""
    cfg.validate()
    if feature_dim < 1:
        raise ConfigError("feature_dim must be >= 1")
    if num_classes < 2:
        raise ConfigError("num_classes must be >= 2")
    rng = np.random.default_rng(seed)

    def draw(fan_in: int, shape) -> np.ndarray:
        return rng.standard_normal(shape) / np.sqrt(fan_in)

    w_hidden = b_hidden = None
    width = feature_dim  # the linear model's penultimate layer is its input
    if cfg.hidden_width > 0:
        w_hidden = draw(feature_dim, (feature_dim, cfg.hidden_width))
        b_hidden = draw(feature_dim, (cfg.hidden_width,))
        width = cfg.hidden_width
    return Model(
        w_hidden=w_hidden,
        b_hidden=b_hidden,
        w_out=draw(width, (width, num_classes)),
        b_out=draw(width, (num_classes,)),
        feature_dim=feature_dim,
        num_classes=num_classes,
    )


def _as_batch(model: Model, features) -> tuple[np.ndarray, bool]:
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dimension mismatch: expected {model.feature_dim}, got shape {np.shape(features)}"
        )
    return x, single


def _forward(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate activations h (x itself for the linear model) and logits z of a batch."""
    h = x if model.w_hidden is None else np.tanh(x @ model.w_hidden + model.b_hidden)
    return h, h @ model.w_out + model.b_out


def _softmax(z: np.ndarray) -> np.ndarray:
    p = np.exp(z - z.max(axis=1, keepdims=True))
    p /= p.sum(axis=1, keepdims=True)
    return p


def penultimate(model: Model, features) -> np.ndarray:
    """Hidden-layer activation, or a copy of the raw features for the linear model."""
    x, single = _as_batch(model, features)
    h, _ = _forward(model, x)
    h = h.copy() if h is x else h
    return h[0] if single else h


def predict_proba(model: Model, features) -> np.ndarray:
    """Softmax class posteriors; rows are non-negative and sum to 1."""
    x, single = _as_batch(model, features)
    p = _softmax(_forward(model, x)[1])
    return p[0] if single else p


def gradient_embedding(model: Model, features) -> np.ndarray:
    """Loss-gradient embedding flatten((p - e_yhat) outer h), yhat = argmax p.

    Layout is class-major: entry [c * penultimate_dim + j] is
    (p - e_yhat)[c] * h[j]. Argmax ties break toward the lowest class index.
    """
    x, single = _as_batch(model, features)
    h, z = _forward(model, x)
    residual = _softmax(z)
    yhat = np.argmax(residual, axis=1)  # first occurrence = lowest class index on ties
    residual[np.arange(len(yhat)), yhat] -= 1.0
    g = np.einsum("nc,nj->ncj", residual, h).reshape(len(yhat), -1)
    return g[0] if single else g


def evaluate(model: Model, features, labels) -> float:
    """Fraction of samples whose argmax posterior equals the label."""
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty sample set")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must have equal length")
    # argmax over logits == argmax over posteriors; first max = lowest class index
    predictions = np.argmax(_forward(model, x)[1], axis=1)
    return float(np.mean(predictions == y))


def cross_entropy_loss_and_grads(model: Model, features, labels) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over a batch plus analytic parameter gradients.

    Gradients are returned in the order of ``model.parameters()``.
    """
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")

    h, z = _forward(model, x)
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    loss = float(np.mean(log_norm - z[np.arange(n), y]))

    dz = np.exp(z - log_norm[:, None])
    dz[np.arange(n), y] -= 1.0
    dz /= n
    dw_out = h.T @ dz
    db_out = dz.sum(axis=0)
    if model.w_hidden is None:
        return loss, [dw_out, db_out]
    dh = dz @ model.w_out.T
    dz1 = dh * (1.0 - h * h)
    return loss, [x.T @ dz1, dz1.sum(axis=0), dw_out, db_out]


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one training round.

    ``reached_target`` False means training stopped at the epoch cap without
    hitting the accuracy target and the caller should treat it as a warning.
    """

    epochs_used: int
    reached_target: bool
    train_accuracy: float


def train_round(model: Model, features, labels, cfg: LearnerConfig, seed: int) -> TrainResult:
    """Adam on cross-entropy over shuffled minibatches, mutating the model.

    Stops at the first epoch whose full-train accuracy reaches
    ``cfg.train_accuracy_target``, or at ``cfg.max_epochs``. Deterministic in
    (model, data, cfg, seed); the minibatch order is drawn from ``seed``.
    """
    cfg.validate()
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] == 0:
        raise ValueError("training set is empty")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must have equal length")

    rng = np.random.default_rng(seed)
    params = model.parameters()
    moment1 = [np.zeros_like(p) for p in params]
    moment2 = [np.zeros_like(p) for p in params]
    step = 0
    n = y.shape[0]
    batch_size = min(cfg.minibatch_size, n)

    accuracy = evaluate(model, x, y)
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            _, grads = cross_entropy_loss_and_grads(model, x[idx], y[idx])
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
            return TrainResult(epochs_used=epoch, reached_target=True, train_accuracy=accuracy)
    return TrainResult(epochs_used=cfg.max_epochs, reached_target=False, train_accuracy=accuracy)
