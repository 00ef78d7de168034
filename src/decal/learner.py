"""A small differentiable softmax classifier trained with Adam.

The network is deliberately compact: an optional tanh hidden layer followed
by a linear softmax head. It exposes the three quantities the query
strategies consume — class posteriors, penultimate activations, and
loss-gradient embeddings — while staying small enough to verify every
gradient against finite differences.

A step on a model this small is mostly numpy's per-call overhead, so the
trials of an experiment (a worker's chunk of them) train in lockstep: their
parameters are rows of one stack, and each step is one loss-and-gradient
call and one Adam update for all of them. ``train_round`` is the one-trial
call of the same step.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import reduce

import numpy as np

from .errors import ConfigError, TrainingDiverged

ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPSILON = 1e-8
_ONE = np.array(1.0)  # 0-d: a ufunc converts a Python scalar on every call
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
    """Classifier parameters; the hidden arrays are None for the linear model.

    The trainer's stack of models is one Model whose arrays carry a leading
    trial axis.
    """

    w_hidden: np.ndarray | None
    b_hidden: np.ndarray | None
    w_out: np.ndarray
    b_out: np.ndarray
    feature_dim: int
    num_classes: int

    @property
    def penultimate_dim(self) -> int:
        return self.feature_dim if self.w_hidden is None else self.w_hidden.shape[-1]

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
    # a stacked model's arrays carry a leading trial axis, and so do its batches
    if x.ndim != model.w_out.ndim or x.shape[-1] != model.feature_dim:
        raise ValueError(
            f"feature dimension mismatch: expected {model.feature_dim}, got shape {np.shape(features)}"
        )
    return x, single


def _bias_rows(model: Model) -> tuple[np.ndarray | None, np.ndarray]:
    """The biases as rows that broadcast over a batch; the linear model's hidden one is None."""
    return None if model.b_hidden is None else model.b_hidden[..., None, :], model.b_out[..., None, :]


def _forward(model: Model, x: np.ndarray, h=None, z=None, biases=None) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate activations h (x itself for the linear model) and logits z of a batch.

    Given arrays ``h`` and ``z`` of the results' shapes, they receive the results; ``biases`` are :func:`_bias_rows`.
    """
    b_hidden, b_out = biases or _bias_rows(model)
    if model.w_hidden is not None:
        h = np.matmul(x, model.w_hidden, h)
        h += b_hidden
        x = np.tanh(h, h)
    z = np.matmul(x, model.w_out, z)
    z += b_out
    return x, z


def _softmax(z: np.ndarray) -> np.ndarray:
    # the row max is a running max over columns (exact); sum(axis=1) adds 8+ classes in another order than columns
    p = np.exp(z - reduce(np.maximum, z.T)[:, None])
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


class _Work:
    """Every intermediate and every view of a loss-and-gradient call, so that a training step makes neither.

    ``lead`` is the batch's leading shape: (rows,) for a model, (trials, rows)
    for a stack. ``grads`` receive the gradients; fresh arrays if not given.
    Its views of the model follow in-place updates, as Adam's; a new stack shape needs a new ``_Work``.
    """

    def __init__(self, model: Model, lead: tuple[int, ...], grads=None):
        width, classes = model.w_out.shape[-2:]
        self.grads = [np.empty_like(p) for p in model.parameters()] if grads is None else grads
        self.h = self.dh = self.dtanh = self.h_t = None
        if model.w_hidden is not None:
            self.h, self.dh, self.dtanh = (np.empty((*lead, width)) for _ in range(3))
            self.h_t = self.h.swapaxes(-1, -2)
        self.z, self.e = np.empty((*lead, classes)), np.empty((*lead, classes))
        self.zmax = np.empty((*lead, 1))
        self.log_norm, self.picked = np.empty(lead), np.empty(lead)
        self.loss = np.empty(lead[:-1])
        self.rows = np.array(float(lead[-1]))  # 0-d: a ufunc converts a Python scalar on every call
        # views that every call takes, made once
        self.z_flat, self.zmax_flat, self.log_norm_col = self.z.reshape(-1), self.zmax[..., 0], self.log_norm[..., None]
        self.biases, self.w_out_t = _bias_rows(model), model.w_out.swapaxes(-1, -2)


def _targets(labels, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot rows of class indices, and where each label's logit sits in the flat logits."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and not 0 <= y.min() <= y.max() < num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    onehot = (y[..., None] == np.arange(num_classes)).astype(np.float64)
    return onehot, np.arange(y.size).reshape(y.shape) * num_classes + y


def cross_entropy_loss_and_grads(model: Model, features, labels,
                                 out: list[np.ndarray] | None = None) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over a batch of class indices ``labels`` plus analytic parameter gradients.

    A stacked model, whose arrays carry a leading trial axis, takes one batch
    per trial as ``features`` (trials, rows, dim) and returns one loss per
    trial, as an array.

    Gradients are returned in the order of ``model.parameters()``. Given
    ``out``, arrays of those shapes, they are written into it and it is
    returned; otherwise they are fresh arrays.

    Private to the trainer: its steps pass ``out`` as the model's ``_Work``,
    ``features`` as the batch and its ``swapaxes(-1, -2)``, and ``labels`` as
    the ``_targets`` pair gathered once per epoch. That form checks nothing and
    returns the loss summed over rows. Any other call is checked and converted to it here.
    """
    if isinstance(out, _Work):
        (x, x_t), (onehot, picks), work = features, labels, out
    else:
        x, _ = _as_batch(model, features)
        if x.shape[-2] == 0:
            raise ValueError("empty batch")
        x_t, (onehot, picks) = x.swapaxes(-1, -2), _targets(labels, model.num_classes)
        work = _Work(model, x.shape[:-1], out)

    h, z = _forward(model, x, work.h, work.z, work.biases)
    zmax = np.maximum.reduce(z, -1, None, work.zmax, True)
    log_norm = np.add.reduce(np.exp(np.subtract(z, zmax, work.e), work.e), -1, None, work.log_norm)
    np.add(work.zmax_flat, np.log(log_norm, log_norm), log_norm)
    # the label's logit is taken, not multiplied out of the one-hot row: an infinite logit would give nan
    picked = work.z_flat.take(picks, None, work.picked)
    loss = np.add.reduce(np.subtract(log_norm, picked, picked), -1, None, work.loss)

    dz = np.exp(np.subtract(z, work.log_norm_col, z), z)  # the logits are not needed again
    np.subtract(dz, onehot, dz)
    np.divide(dz, work.rows, dz)
    grads = work.grads
    np.matmul(x_t if work.h_t is None else work.h_t, dz, grads[-2])
    np.add.reduce(dz, -2, None, grads[-1])
    if work.h_t is not None:
        dh = np.matmul(dz, work.w_out_t, work.dh)
        np.multiply(dh, np.subtract(_ONE, np.multiply(h, h, work.dtanh), work.dtanh), dh)
        np.matmul(x_t, dh, grads[0])
        np.add.reduce(dh, -2, None, grads[1])
    if work is not out:
        loss = np.divide(loss, work.rows, loss)
    return (float(loss) if loss.ndim == 0 else loss), grads


@dataclass(frozen=True)
class TrainResult:
    """Outcome of one training round.

    ``reached_target`` False means training stopped at the epoch cap without
    hitting the accuracy target and the caller should treat it as a warning.
    """

    epochs_used: int
    reached_target: bool
    train_accuracy: float


class _Stack:
    """The trials still training, one row each: parameters, Adam moments, data and work arrays.

    A trial that leaves is dropped and the rows behind it move up, so a step
    costs what the remaining trials need. The parameter, moment and data
    arrays are allocated here; what the steps use are views of them, rebuilt
    with fresh work arrays when the stack shrinks.
    """

    def __init__(self, models: list[Model], x: np.ndarray, y: np.ndarray, cfg: LearnerConfig):
        trials, n, _ = x.shape
        first = models[0]
        self.names = ("w_out", "b_out") if first.w_hidden is None else ("w_hidden", "b_hidden", "w_out", "b_out")
        self.shapes = [p.shape for p in first.parameters()]
        self.offsets = np.cumsum([p.size for p in first.parameters()])[:-1]
        self.dims = (first.feature_dim, first.num_classes)
        self.flat = np.stack([np.concatenate([p.ravel() for p in m.parameters()]) for m in models])
        self.moment1, self.moment2, self.grad = (np.zeros_like(self.flat) for _ in range(3))
        self.scratch = (np.empty_like(self.flat), np.empty_like(self.flat))
        # 0-d: a ufunc converts a Python scalar on every call
        self.constants = tuple(np.array(c) for c in (ADAM_BETA1, 1.0 - ADAM_BETA1, ADAM_BETA2, 1.0 - ADAM_BETA2,
                                                     cfg.learning_rate, ADAM_EPSILON))
        self.x, self.y = x.copy(), y.copy()
        self.onehot, _ = _targets(y, first.num_classes)
        # shuffled every epoch; picks index each batch's own (trials, rows, classes) logits
        self.xs, self.ys = np.empty_like(self.x), np.empty_like(self.y)
        self.onehots, self.picks = np.empty_like(self.onehot), np.empty_like(self.y)
        size = min(cfg.minibatch_size, n)
        self.spans = [(start, min(start + size, n)) for start in range(0, n, size)]
        self.pick_offsets = np.empty_like(self.y)  # a batch's picks minus its labels, as in _targets
        for start, end in self.spans:
            self.pick_offsets[:, start:end] = np.arange(trials * (end - start)).reshape(trials, -1) * first.num_classes
        self.eval_arrays = (None if first.w_hidden is None else np.empty((trials, n, self.shapes[0][1])),
                            np.empty((trials, n, first.num_classes)), np.empty((trials, n), dtype=np.intp),
                            np.empty((trials, n), dtype=bool))
        self.rows = list(range(trials))  # the trial that each row holds
        self._view()

    def _split(self, buffer: np.ndarray) -> list[np.ndarray]:
        return [part.reshape(len(buffer), *shape) for part, shape in
                zip(np.split(buffer, self.offsets, axis=-1), self.shapes)]

    def _view(self) -> None:
        k = len(self.rows)
        params = self._split(self.flat[:k])
        hidden = params[:-2] if len(params) == 4 else [None, None]
        self.model = Model(*hidden, *params[-2:], *self.dims)
        self.adam = (self.flat[:k], self.grad[:k], self.moment1[:k], self.moment2[:k],
                     *(a[:k] for a in self.scratch))
        grads = self._split(self.grad[:k])
        works = {rows: _Work(self.model, (k, rows), grads) for rows in {end - start for start, end in self.spans}}
        self.batches = [((x := self.xs[:k, start:end], x.swapaxes(-1, -2)),
                         (self.onehots[:k, start:end], self.picks[:k, start:end]), works[end - start])
                        for start, end in self.spans]
        self.eval_views = [None if a is None else a[:k] for a in self.eval_arrays]

    def shuffle(self, rngs: list[np.random.Generator]) -> None:
        """Gather each trial's rows in a fresh permutation of its own, so every minibatch is a view."""
        for row, trial in enumerate(self.rows):
            order = rngs[trial].permutation(self.x.shape[1])
            self.x[row].take(order, 0, self.xs[row])
            self.y[row].take(order, 0, self.ys[row])
            self.onehot[row].take(order, 0, self.onehots[row])
        self._pick()

    def _pick(self) -> None:
        k = len(self.rows)
        np.add(self.ys[:k], self.pick_offsets[:k], self.picks[:k])

    def update(self, step: int) -> None:
        """One Adam update of every trial's flat parameters."""
        flat, grad, moment1, moment2, a, b = self.adam
        beta1, decay1, beta2, decay2, learning_rate, epsilon = self.constants
        bias1 = 1.0 - ADAM_BETA1 ** step
        bias2 = 1.0 - ADAM_BETA2 ** step
        # elementwise, so one update over the stack has the bits of one per parameter and trial
        np.multiply(moment1, beta1, moment1)
        np.add(moment1, np.multiply(grad, decay1, a), moment1)
        np.multiply(moment2, beta2, moment2)
        np.add(moment2, np.multiply(np.multiply(grad, grad, b), decay2, b), moment2)
        np.multiply(np.divide(moment1, bias1, a), learning_rate, a)
        np.subtract(flat, np.divide(a, np.add(np.sqrt(np.divide(moment2, bias2, b), b), epsilon, b), a), flat)

    def accuracy(self) -> np.ndarray:
        """Full-train accuracy of each row: the fraction of rows whose argmax logit is the label."""
        k, n = len(self.rows), self.x.shape[1]
        hidden, logits, predicted, hits = self.eval_views
        _, z = _forward(self.model, self.x[:k], hidden, logits)
        return np.equal(z.argmax(-1, predicted), self.y[:k], hits).sum(-1) / n

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not in ``rows`` (ascending); the kept rows move up in order."""
        k = len(rows)
        # the last evaluation's logits too: a trial capped at the epoch where another leaves is checked after this
        for array in (self.flat, self.moment1, self.moment2, self.grad, self.x, self.y, self.onehot,
                      self.xs, self.ys, self.onehots, self.eval_arrays[1]):
            array[:k] = array[rows]
        self.rows = [self.rows[row] for row in rows]
        self._pick()
        self._view()

    def release(self, row: int, model: Model) -> np.ndarray:
        """Rebind the row's model to views of a copy of its parameters, which is returned."""
        flat = self.flat[row].copy()
        for name, part, shape in zip(self.names, np.split(flat, self.offsets), self.shapes):
            setattr(model, name, part.reshape(shape))
        return flat

    def finish(self, row: int, model: Model, result: TrainResult, step: int) -> TrainResult | TrainingDiverged:
        flat = self.release(row, model)
        # each loss is taken before its update, so only this sees the last update diverge;
        # finite parameters near the float limit can still overflow the logits of the last evaluation
        if not (np.isfinite(flat).all() and np.isfinite(self.eval_views[1][row]).all()):
            return TrainingDiverged(f"training diverged: parameters or logits are not finite after step {step}")
        return result


# the loss, parameter and logit checks catch divergence; numpy's overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train_lockstep(models: list[Model], features, labels, cfg: LearnerConfig,
                   seeds: list[int]) -> list[TrainResult | TrainingDiverged]:
    """Train one model per trial in lockstep, each bitwise as :func:`train_round` alone would.

    ``features`` (trials, rows, dim) and ``labels`` (trials, rows) hold each
    trial's training set. Every trial has the same number of rows, so their
    minibatches stack, and each step is one loss-and-gradient call and one
    Adam update for the whole stack. Each trial shuffles with its own seed.

    A trial leaves the stack at the first epoch whose full-train accuracy
    reaches ``cfg.train_accuracy_target``, at ``cfg.max_epochs``, or at a
    non-finite minibatch loss. Its outcome, in the order of ``models``, is
    its :class:`TrainResult`, or the :class:`TrainingDiverged` that
    ``train_round`` would raise; the other trials go on. Each model's arrays
    are rebound to views of a flat copy of its parameters when it leaves.
    """
    x = np.asarray(features, dtype=np.float64)
    y = np.asarray(labels, dtype=np.int64)
    if (x.ndim != 3 or not 0 < len(models) == len(seeds) == len(x) or x.shape[:2] != y.shape
            or x.shape[2] != models[0].feature_dim):
        raise ValueError("models, seeds, features (trials, rows, dim) and labels (trials, rows) must agree")
    if y.shape[1] == 0:
        raise ValueError("training set is empty")
    stack = _Stack(models, x, y, cfg)
    rngs = [np.random.default_rng(seed) for seed in seeds]
    outcomes: list = [None] * len(models)
    step = 0
    accuracy = stack.accuracy()
    for epoch in range(1, cfg.max_epochs + 1):
        stack.shuffle(rngs)
        for batch in range(len(stack.batches)):
            features, targets, work = stack.batches[batch]
            loss_sum, _ = cross_entropy_loss_and_grads(stack.model, features, targets, out=work)
            step += 1
            finite = list(map(math.isfinite, loss_sum.tolist()))  # a sum is finite exactly when its mean is
            if not all(finite):
                for row in np.flatnonzero(np.logical_not(finite)):
                    trial = stack.rows[row]
                    stack.release(row, models[trial])
                    outcomes[trial] = TrainingDiverged(
                        f"training diverged: loss is {loss_sum[row] / work.rows} at step {step}")
                stack.keep(np.flatnonzero(finite))
                if not stack.rows:
                    return outcomes
            stack.update(step)
        accuracy = stack.accuracy()
        reached = accuracy >= cfg.train_accuracy_target
        if reached.any():
            for row in np.flatnonzero(reached):
                result = TrainResult(epochs_used=epoch, reached_target=True, train_accuracy=float(accuracy[row]))
                outcomes[stack.rows[row]] = stack.finish(row, models[stack.rows[row]], result, step)
            accuracy = accuracy[~reached]
            stack.keep(np.flatnonzero(~reached))
            if not stack.rows:
                return outcomes
    for row, trial in enumerate(stack.rows):
        result = TrainResult(epochs_used=cfg.max_epochs, reached_target=False, train_accuracy=float(accuracy[row]))
        outcomes[trial] = stack.finish(row, models[trial], result, step)
    return outcomes


def train_round(model: Model, features, labels, cfg: LearnerConfig, seed: int) -> TrainResult:
    """Adam on cross-entropy over shuffled minibatches, mutating the model.

    The one-trial call of :func:`train_lockstep`. The model's arrays are
    rebound to views of one flat parameter buffer; arrays fetched from the
    model before the call keep their old values and are not updated.

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
    (outcome,) = train_lockstep([model], x[None], y[None], cfg, [seed])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome
