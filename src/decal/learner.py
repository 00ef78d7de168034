"""A small differentiable softmax classifier trained with Adam.

The network is deliberately compact: an optional tanh hidden layer followed
by a linear softmax head. It exposes the three quantities the query
strategies consume — class posteriors, penultimate activations, and
loss-gradient embeddings — while staying small enough to verify every
gradient against finite differences.

A step on a model this small is mostly per-call overhead, so the trials of
an experiment (a worker's chunk of them) train in lockstep: their parameters
are rows of one stack, and each step is one loss-and-gradient step and one
Adam update for all of them. One trial trains as a stack of one. Each stack
binds its steps, update, shuffle and accuracy check once, as closures over
its arrays; :func:`cross_entropy_loss_and_grads` runs that same step once.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import reduce
from math import isfinite

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
    trial axis; only the trainer's bound steps take it.
    """

    w_hidden: np.ndarray | None
    b_hidden: np.ndarray | None
    w_out: np.ndarray
    b_out: np.ndarray
    feature_dim: int
    num_classes: int

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
    """One model's batch as rows, and whether ``features`` was a single row; a stack of models is refused."""
    if model.w_out.ndim != 2:
        raise ValueError("model arrays carry a trial axis: a stack of models trains only inside train_lockstep")
    x = np.asarray(features, dtype=np.float64)
    single = x.ndim == 1
    if single:
        x = x[None, :]
    if x.ndim != 2 or x.shape[1] != model.feature_dim:
        raise ValueError(
            f"feature dimension mismatch: expected {model.feature_dim}, got shape {np.shape(features)}"
        )
    return x, single


def _bias_rows(model: Model) -> tuple[np.ndarray | None, np.ndarray]:
    """The biases as rows that broadcast over a batch; the linear model's hidden one is None."""
    return None if model.b_hidden is None else model.b_hidden[..., None, :], model.b_out[..., None, :]


def _forward(model: Model, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Penultimate activations h (x itself for the linear model) and logits z of a batch."""
    if model.w_hidden is not None:
        h = np.matmul(x, model.w_hidden)
        h += model.b_hidden
        x = np.tanh(h, h)
    z = np.matmul(x, model.w_out)
    z += model.b_out
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


def gradient_factors(model: Model, features) -> tuple[np.ndarray, np.ndarray]:
    """The two factors of :func:`gradient_embedding`: the residual p - e_yhat and h.

    Row i of the embedding is the outer product of row i of each, so BADGE can
    build only the rows it measures. For the linear model ``h`` is the float64
    features, which it may share memory with.
    """
    x, single = _as_batch(model, features)
    h, z = _forward(model, x)
    residual = _softmax(z)
    yhat = np.argmax(residual, axis=1)  # first occurrence = lowest class index on ties
    residual[np.arange(len(yhat)), yhat] -= 1.0
    return (residual[0], h[0]) if single else (residual, h)


def gradient_embedding(model: Model, features) -> np.ndarray:
    """Loss-gradient embedding flatten((p - e_yhat) outer h), yhat = argmax p.

    Layout is class-major: entry [c * width(h) + j] is
    (p - e_yhat)[c] * h[j]. Argmax ties break toward the lowest class index.
    The rows are the ``einsum`` of :func:`gradient_factors`, which BADGE
    seeding also uses to build them.
    """
    residual, h = gradient_factors(model, features)
    g = np.einsum("nc,nj->ncj", np.atleast_2d(residual), np.atleast_2d(h))
    return g.ravel() if residual.ndim == 1 else g.reshape(len(g), -1)


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


def _step_binder(model: Model, lead: tuple[int, ...], grads: list[np.ndarray]):
    """Intermediates for batches of leading shape ``lead``, (rows,) for a model or (trials, rows) for a stack.

    ``bind(x, onehot, picks)`` returns a batch's loss-and-gradient step: a call
    that writes the gradients into ``grads`` (ordered as ``model.parameters()``)
    and returns each trial's loss summed over rows. Every array, view, ufunc
    and constant a step uses is bound here, so a step makes none, and the steps
    of one binder share its intermediates. Its views of the model follow
    in-place updates, as Adam's.
    """
    matmul, add, subtract, multiply, divide, exp, log, tanh = (
        np.matmul, np.add, np.subtract, np.multiply, np.divide, np.exp, np.log, np.tanh)
    maximum_reduce, add_reduce, one = np.maximum.reduce, np.add.reduce, _ONE
    w_hidden, w_out = model.w_hidden, model.w_out
    (b_hidden, b_out), w_out_t = _bias_rows(model), w_out.swapaxes(-1, -2)
    g_w_hidden, g_b_hidden, g_w_out, g_b_out = [None, None, *grads][-4:]
    width, classes = w_out.shape[-2:]
    hidden = w_hidden is not None
    h, dh, dtanh = (np.empty((*lead, width)) if hidden else None for _ in range(3))
    z, e, zmax = np.empty((*lead, classes)), np.empty((*lead, classes)), np.empty((*lead, 1))
    log_norm, picked, loss = np.empty(lead), np.empty(lead), np.empty(lead[:-1])
    rows = np.array(float(lead[-1]))  # 0-d: a ufunc converts a Python scalar on every call
    take, zmax_flat, log_norm_col = z.reshape(-1).take, zmax[..., 0], log_norm[..., None]

    def bind(x: np.ndarray, onehot: np.ndarray, picks: np.ndarray):
        x_t = x.swapaxes(-1, -2)
        a = h if hidden else x  # the penultimate activations: x itself for the linear model
        a_t = a.swapaxes(-1, -2)

        def step() -> np.ndarray:
            if hidden:
                matmul(x, w_hidden, h)
                add(h, b_hidden, h)
                tanh(h, h)
            matmul(a, w_out, z)
            add(z, b_out, z)
            maximum_reduce(z, -1, None, zmax, True)
            add_reduce(exp(subtract(z, zmax, e), e), -1, None, log_norm)
            add(zmax_flat, log(log_norm, log_norm), log_norm)
            # the label's logit is taken, not multiplied out of the one-hot row: an infinite logit would give nan
            take(picks, None, picked)
            add_reduce(subtract(log_norm, picked, picked), -1, None, loss)

            dz = exp(subtract(z, log_norm_col, z), z)  # the logits are not needed again
            subtract(dz, onehot, dz)
            divide(dz, rows, dz)
            matmul(a_t, dz, g_w_out)
            add_reduce(dz, -2, None, g_b_out)
            if hidden:
                matmul(dz, w_out_t, dh)
                multiply(dh, subtract(one, multiply(h, h, dtanh), dtanh), dh)
                matmul(x_t, dh, g_w_hidden)
                add_reduce(dh, -2, None, g_b_hidden)
            return loss

        return step

    return bind


def _targets(labels, num_classes: int) -> tuple[np.ndarray, np.ndarray]:
    """One-hot rows of class indices, and where each label's logit sits in the flat logits."""
    y = np.asarray(labels, dtype=np.int64)
    if y.size and not 0 <= y.min() <= y.max() < num_classes:
        raise ValueError(f"labels must lie in [0, {num_classes})")
    onehot = (y[..., None] == np.arange(num_classes)).astype(np.float64)
    return onehot, np.arange(y.size).reshape(y.shape) * num_classes + y


def cross_entropy_loss_and_grads(model: Model, features, labels) -> tuple[float, list[np.ndarray]]:
    """Mean cross-entropy over a batch of class indices ``labels`` plus analytic parameter gradients.

    Gradients are fresh arrays, returned in the order of ``model.parameters()``.
    The batch is checked, then run through the step the trainer binds for each
    of its minibatches (:func:`_step_binder`), once.
    """
    x, _ = _as_batch(model, features)
    y = np.asarray(labels, dtype=np.int64)
    if x.shape[0] == 0:
        raise ValueError("empty batch")
    if y.shape != x.shape[:1]:
        raise ValueError("features and labels must have equal length")
    onehot, picks = _targets(y, model.num_classes)
    grads = [np.empty_like(p) for p in model.parameters()]
    loss = _step_binder(model, x.shape[:-1], grads)(x, onehot, picks)()
    return float(loss) / len(x), grads


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
    """The trials still training, one row each: parameters, Adam moments, data, and the plan that trains them.

    A trial that leaves is dropped and the rows behind it move up, so a step
    costs what the remaining trials need. The parameter, moment and data
    arrays are allocated here. The plan is bound to views of them, and is
    bound again with fresh intermediates when the stack shrinks: ``steps``,
    one loss-and-gradient step per minibatch (:func:`_step_binder`),
    ``update(step)``, the Adam update, and ``shuffle(rngs)``, the epoch's
    shuffle. A step and an update make no array. :meth:`accuracy` hands out
    fresh logits with each accuracy, for the caller to drop rows from both.
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
        self.rows = list(range(trials))  # the trial that each row holds
        self._view()

    def _split(self, buffer: np.ndarray) -> list[np.ndarray]:
        return [part.reshape(len(buffer), *shape) for part, shape in
                zip(np.split(buffer, self.offsets, axis=-1), self.shapes)]

    def _view(self) -> None:
        k, n = len(self.rows), self.x.shape[1]
        params = self._split(self.flat[:k])
        hidden = params[:-2] if len(params) == 4 else [None, None]
        self.model = model = Model(*hidden, *params[-2:], *self.dims)
        grads = self._split(self.grad[:k])
        binders = {rows: _step_binder(model, (k, rows), grads) for rows in {end - start for start, end in self.spans}}
        self.steps = [binders[end - start](self.xs[:k, start:end], self.onehots[:k, start:end],
                                           self.picks[:k, start:end]) for start, end in self.spans]
        matmul, add, subtract, multiply, divide, sqrt, tanh = (
            np.matmul, np.add, np.subtract, np.multiply, np.divide, np.sqrt, np.tanh)

        flat, grad, moment1, moment2 = (array[:k] for array in (self.flat, self.grad, self.moment1, self.moment2))
        a, b = np.empty_like(flat), np.empty_like(flat)
        beta1, decay1, beta2, decay2, learning_rate, epsilon = self.constants

        def update(step: int) -> None:
            """One Adam update of every trial's flat parameters."""
            bias1 = 1.0 - ADAM_BETA1 ** step
            bias2 = 1.0 - ADAM_BETA2 ** step
            # elementwise, so one update over the stack has the bits of one per parameter and trial
            multiply(moment1, beta1, moment1)
            add(moment1, multiply(grad, decay1, a), moment1)
            multiply(moment2, beta2, moment2)
            add(moment2, multiply(multiply(grad, grad, b), decay2, b), moment2)
            multiply(divide(moment1, bias1, a), learning_rate, a)
            subtract(flat, divide(a, add(sqrt(divide(moment2, bias2, b), b), epsilon, b), a), flat)

        gathers = [(trial, self.x[row].take, self.xs[row], self.y[row].take, self.ys[row],
                    self.onehot[row].take, self.onehots[row]) for row, trial in enumerate(self.rows)]
        ys, pick_offsets, picks = self.ys[:k], self.pick_offsets[:k], self.picks[:k]

        def shuffle(rngs: list[np.random.Generator]) -> None:
            """Gather each trial's rows in a fresh permutation of its own, so every minibatch is a view."""
            for trial, take_x, xs, take_y, ys_row, take_onehot, onehots in gathers:
                order = rngs[trial].permutation(n)
                take_x(order, 0, xs)
                take_y(order, 0, ys_row)
                take_onehot(order, 0, onehots)
            add(ys, pick_offsets, picks)

        x, y, w_hidden, w_out = self.x[:k], self.y[:k], model.w_hidden, model.w_out
        b_hidden, b_out = _bias_rows(model)
        h = None if w_hidden is None else np.empty((k, n, w_hidden.shape[-1]))

        def accuracy() -> tuple[np.ndarray, np.ndarray]:
            penult = x if h is None else tanh(add(matmul(x, w_hidden, h), b_hidden, h), h)
            z = matmul(penult, w_out)
            add(z, b_out, z)
            return (z.argmax(-1) == y).sum(-1) / n, z

        self.update, self.shuffle, self._accuracy = update, shuffle, accuracy

    def accuracy(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-train accuracy of each row (the fraction of rows whose argmax logit is the label), and those logits."""
        return self._accuracy()

    def keep(self, rows: np.ndarray) -> None:
        """Drop every row not in ``rows`` (ascending); the kept rows move up in order."""
        k = len(rows)
        for array in (self.flat, self.moment1, self.moment2, self.grad, self.x, self.y, self.onehot,
                      self.xs, self.ys, self.onehots):
            array[:k] = array[rows]
        self.rows = [self.rows[row] for row in rows]
        np.add(self.ys[:k], self.pick_offsets[:k], self.picks[:k])
        self._view()

    def release(self, row: int, model: Model) -> np.ndarray:
        """Rebind the row's model to views of a copy of its parameters, which is returned."""
        flat = self.flat[row].copy()
        for name, part, shape in zip(self.names, np.split(flat, self.offsets), self.shapes):
            setattr(model, name, part.reshape(shape))
        return flat

    def finish(self, row: int, model: Model, result: TrainResult, step: int, logits) -> TrainResult | TrainingDiverged:
        """Release the row's model; its result, unless its parameters or its last ``logits`` are not finite."""
        flat = self.release(row, model)
        # each loss is taken before its update, so only this sees the last update diverge;
        # finite parameters near the float limit can still overflow the logits of the last evaluation
        if not (np.isfinite(flat).all() and np.isfinite(logits).all()):
            return TrainingDiverged(f"training diverged: parameters or logits are not finite after step {step}")
        return result


# the loss, parameter and logit checks catch divergence; numpy's overflow warnings would only repeat it
@np.errstate(over="ignore", invalid="ignore")
def train_lockstep(models: list[Model], features, labels, cfg: LearnerConfig,
                   seeds: list[int]) -> list[TrainResult | TrainingDiverged]:
    """Train one model per trial in lockstep, each bitwise as it trains in a stack of one.

    ``features`` (trials, rows, dim) and ``labels`` (trials, rows) hold each
    trial's training set. Every trial has the same number of rows, so their
    minibatches stack, and each step is one loss-and-gradient call and one
    Adam update for the whole stack. Each trial shuffles with its own seed.

    A trial leaves the stack at the first epoch whose full-train accuracy
    reaches ``cfg.train_accuracy_target``, at ``cfg.max_epochs``, or at a
    non-finite minibatch loss. Its outcome, in the order of ``models``, is
    its :class:`TrainResult`, or a :class:`TrainingDiverged` for that loss or for
    parameters or logits left non-finite; the other trials go on. A trial leaving after
    an evaluation is checked against its own row of that evaluation's logits.
    A model leaves with its arrays rebound to views of a flat copy of its parameters.
    A model whose arrays carry a trial axis is refused.
    """
    if any(model.w_out.ndim != 2 for model in models):
        raise ValueError("model arrays carry a trial axis: a stack of models trains only inside train_lockstep")
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
    accuracy, logits = stack.accuracy()
    for epoch in range(1, cfg.max_epochs + 1):
        stack.shuffle(rngs)
        for batch in range(len(stack.steps)):
            loss_sum = stack.steps[batch]()
            step += 1
            if not all(map(isfinite, loss_sum.tolist())):  # a sum is finite exactly when its mean is
                finite = list(map(isfinite, loss_sum.tolist()))
                start, end = stack.spans[batch]
                for row in np.flatnonzero(np.logical_not(finite)):
                    trial = stack.rows[row]
                    stack.release(row, models[trial])
                    outcomes[trial] = TrainingDiverged(
                        f"training diverged: loss is {loss_sum[row] / (end - start)} at step {step}")
                stack.keep(np.flatnonzero(finite))
                if not stack.rows:
                    return outcomes
            stack.update(step)
        accuracy, logits = stack.accuracy()
        reached = accuracy >= cfg.train_accuracy_target
        if reached.any():
            for row in np.flatnonzero(reached):
                result = TrainResult(epochs_used=epoch, reached_target=True, train_accuracy=float(accuracy[row]))
                outcomes[stack.rows[row]] = stack.finish(row, models[stack.rows[row]], result, step, logits[row])
            accuracy, logits = accuracy[~reached], logits[~reached]
            stack.keep(np.flatnonzero(~reached))
            if not stack.rows:
                return outcomes
    for row, trial in enumerate(stack.rows):
        result = TrainResult(epochs_used=cfg.max_epochs, reached_target=False, train_accuracy=float(accuracy[row]))
        outcomes[trial] = stack.finish(row, models[trial], result, step, logits[row])
    return outcomes

