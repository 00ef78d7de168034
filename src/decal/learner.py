"""A small differentiable softmax classifier trained with Adam.

The network is deliberately compact: an optional tanh hidden layer followed
by a linear softmax head. It exposes the three quantities the query
strategies consume — class posteriors, penultimate activations, and
loss-gradient embeddings — while staying small enough to verify every
gradient against finite differences.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, TrainingDiverged

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
_MAX_HIDDEN_WIDTH = 4096  # 128 times the widest preset, benchmark or test model (32)


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

    def __post_init__(self):
        if not 0 <= self.hidden_width <= _MAX_HIDDEN_WIDTH:
            raise ConfigError(f"hidden_width must be in 0..{_MAX_HIDDEN_WIDTH}, got {self.hidden_width}")
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
    """Fraction of samples whose argmax logit equals the label.

    This is not always the argmax posterior: at a near tie softmax can round
    the top two posteriors to the same value.
    """
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0 or y.shape[0] == 0:
        raise ValueError("cannot evaluate on an empty sample set")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must have equal length")
    # argmax over the logits; ties go to the first max, the lowest class index
    predictions = np.argmax(_forward(model, x)[1], axis=1)
    return float(np.mean(predictions == y))


def cross_entropy_loss_and_grads(model: Model, features, labels,
                                 out: list[np.ndarray] | None = None) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over a batch plus analytic parameter gradients.

    Gradients are returned in the order of ``model.parameters()``. Given
    ``out``, arrays of those shapes, they are written into it and it is
    returned; otherwise they are fresh arrays.
    """
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    n = x.shape[0]
    if n == 0:
        raise ValueError("empty batch")
    if out is None:
        out = [np.empty_like(p) for p in model.parameters()]

    h, z = _forward(model, x)
    zmax = z.max(axis=1, keepdims=True)
    log_norm = zmax[:, 0] + np.log(np.exp(z - zmax).sum(axis=1))
    rows = np.arange(n)
    loss = float((log_norm - z[rows, y]).sum() / n)  # the bits of np.mean, without its overhead

    dz = np.exp(np.subtract(z, log_norm[:, None], out=z), out=z)  # the logits are not needed again
    dz[rows, y] -= 1.0
    dz /= n
    np.matmul(h.T, dz, out=out[-2])
    dz.sum(axis=0, out=out[-1])
    if model.w_hidden is not None:
        dz1 = dz @ model.w_out.T
        dz1 *= 1.0 - h * h
        np.matmul(x.T, dz1, out=out[0])
        dz1.sum(axis=0, out=out[1])
    return loss, out


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one training round.

    ``reached_target`` False means training stopped at the epoch cap without
    hitting the accuracy target and the caller should treat it as a warning.
    """

    epochs_used: int
    reached_target: bool
    train_accuracy: float


# the loss, parameter and logit checks catch divergence; numpy's overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train_round(model: Model, features, labels, cfg: LearnerConfig, seed: int) -> TrainResult:
    """Adam on cross-entropy over shuffled minibatches, mutating the model.

    The model's arrays are rebound to views of one flat parameter buffer,
    which a single Adam update per step reads and writes; arrays fetched from
    the model before the call keep their old values and are not updated.

    Stops at the first epoch whose full-train accuracy reaches
    ``cfg.train_accuracy_target``, or at ``cfg.max_epochs``. A non-finite
    minibatch loss, or trained parameters or training-set logits that are not
    finite, raise :class:`TrainingDiverged`. Deterministic in (model, data,
    cfg, seed); the minibatch order is drawn from ``seed``.
    """
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    if y.shape[0] == 0:
        raise ValueError("training set is empty")
    if x.shape[0] != y.shape[0]:
        raise ValueError("features and labels must have equal length")

    rng = np.random.default_rng(seed)
    params = model.parameters()
    offsets = np.cumsum([p.size for p in params])[:-1]

    def views(buffer: np.ndarray) -> list[np.ndarray]:
        return [part.reshape(p.shape) for part, p in zip(np.split(buffer, offsets), params)]

    flat = np.concatenate([p.ravel() for p in params])
    names = ("w_out", "b_out") if model.w_hidden is None else ("w_hidden", "b_hidden", "w_out", "b_out")
    for name, view in zip(names, views(flat)):
        setattr(model, name, view)
    grad, moment1, moment2 = np.zeros_like(flat), np.zeros_like(flat), np.zeros_like(flat)
    grads = views(grad)
    step = 0
    n = y.shape[0]
    batch_size = min(cfg.minibatch_size, n)

    accuracy = evaluate(model, x, y)
    epochs_used, reached_target = cfg.max_epochs, False
    for epoch in range(1, cfg.max_epochs + 1):
        order = rng.permutation(n)
        for start in range(0, n, batch_size):
            idx = order[start:start + batch_size]
            loss, _ = cross_entropy_loss_and_grads(model, x[idx], y[idx], out=grads)
            step += 1
            if not math.isfinite(loss):
                raise TrainingDiverged(f"training diverged: loss is {loss} at step {step}")
            bias1 = 1.0 - ADAM_BETA1 ** step
            bias2 = 1.0 - ADAM_BETA2 ** step
            # elementwise, so one update over the flat buffer has the bits of one per parameter
            moment1 *= ADAM_BETA1
            moment1 += (1.0 - ADAM_BETA1) * grad
            moment2 *= ADAM_BETA2
            moment2 += (1.0 - ADAM_BETA2) * (grad * grad)
            flat -= cfg.learning_rate * (moment1 / bias1) / (np.sqrt(moment2 / bias2) + ADAM_EPSILON)
        accuracy = evaluate(model, x, y)
        if accuracy >= cfg.train_accuracy_target:
            epochs_used, reached_target = epoch, True
            break
    # each loss is taken before its update, so only this sees the last update diverge;
    # finite parameters near the float limit can still overflow the logits
    if not (np.isfinite(flat).all() and np.isfinite(_forward(model, x)[1]).all()):
        raise TrainingDiverged(f"training diverged: parameters or logits are not finite after step {step}")
    return TrainResult(epochs_used=epochs_used, reached_target=reached_target, train_accuracy=accuracy)
