"""Active-learning trials: initialize, train, evaluate, query, repeat.

A trial is fully deterministic in (config, trial_seed): the dataset draw
depends only on the config's base seed, and every stochastic step inside a
trial (init batch, per-round model reset, minibatch order, query sampling)
gets its own seed derived from (trial_seed, round, purpose), so trials can
run in any order or in parallel without changing results.
"""

from __future__ import annotations

import logging
import math
import os
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field, replace
from functools import partial

import numpy as np

from . import learner, patients
from .data import (
    CsvSchema,
    DatasetSplit,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    normalize_features,
)
from .errors import ConfigError, DecalError, InvariantViolation, TrainingDiverged
from .presets import get_preset

log = logging.getLogger(__name__)

_INIT_STREAM = 0
_MODEL_STREAM = 1
_TRAIN_STREAM = 2
_QUERY_STREAM = 3


def derive_seed(trial_seed: int, round_index: int, stream: int) -> int:
    """Stable per-(trial, round, purpose) seed, independent of execution order."""
    sequence = np.random.SeedSequence([int(trial_seed), int(round_index), int(stream)])
    return int(sequence.generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class DatasetSource:
    """Where a trial's data comes from: a CSV file, a preset, or a synthetic config.

    ``normalize`` optionally applies the fixed (x - mu) / sigma transform to
    every feature after loading or generation.
    """

    csv_path: str | None = None
    schema: CsvSchema | None = None
    synthetic: SyntheticConfig | None = None
    preset: str | None = None
    normalize: tuple[float, float] | None = None

    def __post_init__(self):
        sources = [s is not None for s in (self.csv_path, self.synthetic, self.preset)]
        if sum(sources) != 1:
            raise ConfigError("dataset must specify exactly one of csv_path, synthetic, preset")
        if self.schema is not None and self.csv_path is None:
            raise ConfigError("dataset schema is only valid together with csv_path")
        if self.normalize is not None and self.normalize[1] <= 0:
            raise ConfigError("normalize sigma must be > 0")


def build_dataset(source: DatasetSource, seed: int) -> DatasetSplit:
    if source.csv_path is not None:
        split = load_dataset(source.csv_path, source.schema)
    elif source.preset is not None:
        split = generate_synthetic(get_preset(source.preset), seed)
    else:
        split = generate_synthetic(source.synthetic, seed)
    if source.normalize is not None:
        split = normalize_features(split, *source.normalize)
    return split


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment: a strategy/init pair run for several seeded trials."""

    dataset: DatasetSource
    learner: learner.LearnerConfig = field(default_factory=learner.LearnerConfig)
    strategy: str = "random"
    init_mode: str = "random"
    init_size: int = 128
    batch_size: int = 128
    rounds: int = 20
    trials: int = 5
    base_seed: int = 0

    def __post_init__(self):
        if self.strategy not in patients.STRATEGIES:
            raise ConfigError(f"unknown strategy {self.strategy!r}; expected one of {patients.STRATEGIES}")
        if self.init_mode not in patients.INIT_MODES:
            raise ConfigError(f"init_mode must be one of {patients.INIT_MODES}, got {self.init_mode!r}")
        if self.init_size < 1:
            raise ConfigError("init_size must be >= 1")
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.rounds < 0:
            raise ConfigError("rounds must be >= 0")
        if self.trials < 1:
            raise ConfigError("trials must be >= 1")
        if self.base_seed < 0:
            raise ConfigError("base_seed must be >= 0")


@dataclass(frozen=True)
class RoundRecord:
    """Per-round outcome of one trial; round 0 is the post-init evaluation.

    ``relaxed_count`` belongs to the batch that brought the labeled set to
    this round's size (the initialization batch for round 0).
    ``reached_target`` is the round's :class:`learner.TrainResult` verdict; it is
    not in ``raw.csv``, so a record read back has None, and equality ignores it.
    """

    trial_seed: int
    round_index: int
    train_size: int
    test_accuracy: float
    epochs_used: int
    relaxed_count: int
    reached_target: bool | None = field(default=None, compare=False)

    def __post_init__(self):
        for name in ("trial_seed", "round_index", "train_size", "epochs_used", "relaxed_count"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0, got {getattr(self, name)}")
        if not 0.0 <= self.test_accuracy <= 1.0:
            raise ValueError(f"test_accuracy must be in [0, 1], got {self.test_accuracy}")


@dataclass(frozen=True)
class LearningCurve:
    """Per-round mean/std/stderr of test accuracy across trials."""

    train_sizes: tuple[int, ...]
    mean_accuracy: tuple[float, ...]
    std_accuracy: tuple[float, ...]
    stderr_accuracy: tuple[float, ...]
    trials: int


@dataclass(frozen=True)
class ExperimentResult:
    """The records and curve of the trials that finished, and one message per failed trial."""

    config: ExperimentConfig
    records: tuple[RoundRecord, ...]
    curve: LearningCurve
    failures: tuple[str, ...] = ()


def run_trial(cfg: ExperimentConfig, trial_seed: int, dataset: DatasetSplit | None = None,
              on_batch=None) -> list[RoundRecord]:
    """Run one trial; returns rounds + 1 records.

    Round 0 labels the initial batch, round r > 0 the batch round r-1's model
    picks from the unlabeled rows; each round then trains and evaluates a
    fresh model. ``on_batch(stage, round_index, batch)`` lets callers audit each
    batch, its members as sample ids, before it is labeled, as ("init", 0) or ("query", r-1). This is
    the one-trial call of the lockstep runner that every run uses.
    """
    split = dataset if dataset is not None else build_dataset(cfg.dataset, cfg.base_seed)
    ((records, error),) = _run_lockstep(split, [(cfg, trial_seed)], on_batch)
    if error is not None:
        raise TrainingDiverged(error)
    return records


class _Trial:
    """One trial between rounds: its labeled rows, its records (or divergence ``error``) and its last model."""

    def __init__(self, cfg: ExperimentConfig, split: DatasetSplit, seed: int):
        self.cfg, self.split, self.seed = cfg, split, seed
        self.labeled_rows = np.empty(0, dtype=np.int64)  # pool rows in labeling order
        self.labeled_mask = np.zeros(len(split.pool), dtype=bool)
        self.candidates = np.arange(len(split.pool))
        self.model = None
        self.batch = None
        self.records: list[RoundRecord] = []
        self.error: str | None = None

    def label_batch(self, round_index: int, on_batch=None) -> None:
        """Select, check and label this round's batch; round 0 reads no query strategy, so strategies share it."""
        cfg, pool = self.cfg, self.split.pool
        if round_index == 0:
            stage, size, constrained = "init", cfg.init_size, cfg.init_mode == "decal"
            seed = derive_seed(self.seed, 0, _INIT_STREAM)
            batch = (patients.decal_initialize(pool, size, seed) if constrained
                     else patients.select_query_batch("random", None, pool, self.candidates, size, seed))
        else:
            stage, size, constrained = "query", cfg.batch_size, cfg.strategy.startswith(patients.DECAL_PREFIX)
            seed = derive_seed(self.seed, round_index - 1, _QUERY_STREAM)
            batch = patients.select_query_batch(cfg.strategy, self.model, pool, self.candidates, size, seed)
        rows = _check_batch(batch, size, self.labeled_mask, pool, constrained=constrained)
        if on_batch is not None:  # hooks audit sample ids, not rows
            on_batch(stage, max(round_index - 1, 0), replace(batch, members=tuple(pool.ids[rows].tolist())))
        self.labeled_mask[rows] = True
        self.labeled_rows = np.concatenate([self.labeled_rows, rows])
        self.candidates = np.flatnonzero(~self.labeled_mask)
        expected = cfg.init_size + round_index * cfg.batch_size
        if len(self.labeled_rows) != expected or len(self.candidates) != len(pool) - expected:
            raise InvariantViolation(
                f"budget bookkeeping broken at round {round_index}: "
                f"labeled {len(self.labeled_rows)}, remaining {len(self.candidates)}, expected train size {expected}"
            )
        self.batch = batch

    def record_round(self, round_index: int, model: learner.Model,
                     outcome: learner.TrainResult | TrainingDiverged) -> None:
        """Keep the round's trained model and record its test accuracy; a diverged round raises."""
        if isinstance(outcome, TrainingDiverged):
            raise TrainingDiverged(f"trial {self.seed} round {round_index}: {outcome}")
        self.model = model
        self.records.append(RoundRecord(
            trial_seed=self.seed,
            round_index=round_index,
            train_size=len(self.labeled_rows),
            test_accuracy=learner.evaluate(model, self.split.test.features, self.split.test.labels),
            epochs_used=outcome.epochs_used,
            relaxed_count=self.batch.relaxed_count,
            reached_target=outcome.reached_target,
        ))


def _run_lockstep(split: DatasetSplit, trials,
                  on_batch=None) -> list[tuple[list[RoundRecord], str | None]]:
    """Run (config, seed) trials in lockstep; returns each one's records and failure message, in input order.

    The first config's learner, label budget and rounds hold for every trial.
    Every round, each trial selects, checks and labels its own batch, and then
    all of them train in one stacked call. A trial whose training diverges
    leaves with its message and no records; the others go on.
    """
    pool, cfg = split.pool, trials[0][0]
    budget = cfg.init_size + cfg.rounds * cfg.batch_size
    if budget > len(pool):
        raise ConfigError(
            f"label budget {budget} (init {cfg.init_size} + {cfg.rounds} rounds x {cfg.batch_size}) "
            f"exceeds pool size {len(pool)}"
        )
    trials = active = [_Trial(trial_cfg, split, seed) for trial_cfg, seed in trials]
    for round_index in range(cfg.rounds + 1):
        for trial in active:
            trial.label_batch(round_index, on_batch)
        models = [learner.init_model(cfg.learner, split.feature_dim, split.num_classes,
                                     derive_seed(trial.seed, round_index, _MODEL_STREAM)) for trial in active]
        outcomes = learner.train_lockstep(
            models,
            np.stack([pool.features[trial.labeled_rows] for trial in active]),
            np.stack([pool.labels[trial.labeled_rows] for trial in active]),
            cfg.learner,
            [derive_seed(trial.seed, round_index, _TRAIN_STREAM) for trial in active],
        )
        for trial, model, outcome in zip(active, models, outcomes):
            # a diverged trial becomes a message, so it cannot discard the trials that finish
            try:
                trial.record_round(round_index, model, outcome)
            except TrainingDiverged as exc:
                trial.records, trial.error = [], str(exc)
        active = [trial for trial in active if trial.error is None]
        if not active:
            break
    return [(trial.records, trial.error) for trial in trials]


def _check_batch(batch: patients.QueryBatch, k: int, labeled_mask: np.ndarray, pool,
                 constrained: bool) -> np.ndarray:
    """Re-check batch contracts instead of trusting the selection module; return the batch's pool rows."""
    rows = np.array(batch.members, dtype=np.int64)
    if len(rows) != k:
        raise InvariantViolation(f"batch has {len(rows)} members, expected {k}")
    if rows.min() < 0 or rows.max() >= len(pool):  # a negative row would index from the end
        raise InvariantViolation(f"batch selected rows outside the pool's 0..{len(pool) - 1}")
    if _distinct(rows) != k:
        raise InvariantViolation("batch contains duplicate rows")
    if labeled_mask[rows].any():
        raise InvariantViolation("batch selected rows outside the remaining pool")
    most = k if constrained else 0  # only the unique-patient fallback relaxes a slot
    if not 0 <= batch.relaxed_count <= most:
        raise InvariantViolation(f"relaxed_count {batch.relaxed_count} out of range 0..{most}")
    # each relaxed slot re-uses a patient already in the batch, and every other slot brings a new one
    if constrained and _distinct(pool.patient_codes[rows]) != k - batch.relaxed_count:
        raise InvariantViolation(f"unique-patient batch repeats a patient: expected {k - batch.relaxed_count} patients")
    return rows


def _distinct(values: np.ndarray) -> int:
    """The number of distinct values, by a sort: ``np.unique`` would import ``numpy.ma``."""
    ordered = np.sort(values)
    return int(np.count_nonzero(ordered[1:] != ordered[:-1])) + (len(ordered) > 0)


_worker_run = None  # _run_lockstep bound to the dataset, set once per pool worker


def _init_worker(run) -> None:
    global _worker_run
    _worker_run = run


def _run_worker_chunk(trials: list) -> list[tuple[list[RoundRecord], str | None]]:
    return _worker_run(trials)


def _pool_futures(run, chunks: list[list], workers: int) -> list:
    """Run each chunk of trials in lockstep on a fresh process pool; returns their futures, all done."""
    # initargs reach each worker once (inherited or pickled), not with every task
    with ProcessPoolExecutor(max_workers=workers, initializer=_init_worker, initargs=(run,)) as executor:
        return [executor.submit(_run_worker_chunk, chunk) for chunk in chunks]


def _chunk_outcomes(future, run, chunk: list) -> list[tuple[list[RoundRecord], str | None]]:
    # a dying worker fails every chunk still pending with it, so each of their trials reruns alone:
    # only a trial that breaks its own pool is lost, as a message like a diverged one
    if not isinstance(future.exception(), BrokenProcessPool):
        return future.result()
    outcomes = []
    for cfg, seed in chunk:
        try:
            outcomes += _pool_futures(run, [[(cfg, seed)]], workers=1)[0].result()
        except BrokenProcessPool as exc:
            outcomes.append(([], f"trial {seed}: {type(exc).__name__}: {exc}"))
    return outcomes


def _usable_cpus() -> int:
    """The CPUs this process may run on: its affinity set where the platform has one, else the CPU count."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _run_configs(cfgs: list[ExperimentConfig], workers: int) -> list[ExperimentResult]:
    """Run the configs' trials as one set, config by config, over the first config's dataset; one result each.

    A result keeps its config's failures and the records of the seeds that finished in every config; when
    there are none, the first failure in config order is raised as a DecalError. The rounds that stopped at
    the epoch cap without reaching the accuracy target are counted in one warning per config.
    """
    if workers < 1:
        raise ConfigError("workers must be >= 1")
    split = build_dataset(cfgs[0].dataset, cfgs[0].base_seed)
    run = partial(_run_lockstep, split)
    trials = [(cfg, seed) for cfg in cfgs for seed in range(cfg.base_seed, cfg.base_seed + cfg.trials)]
    # contiguous chunks of as equal a size as they can be, the longer ones first; one process each,
    # so no more than the CPUs that can run them
    n_chunks = min(workers, len(trials), _usable_cpus())
    chunks = [[trials[i] for i in part] for part in np.array_split(range(len(trials)), n_chunks)]
    if len(chunks) > 1:
        futures = _pool_futures(run, chunks, len(chunks))
        outcomes = [outcome for future, chunk in zip(futures, chunks) for outcome in _chunk_outcomes(future, run, chunk)]
    else:
        outcomes = run(trials)
    finished = Counter(seed for (_, seed), (_, error) in zip(trials, outcomes) if error is None)
    paired = {seed for seed, times in finished.items() if times == len(cfgs)}  # a config runs a seed once
    if not paired:  # the outcomes are in config order
        raise DecalError(next(error for _, error in outcomes if error is not None))
    results = []
    for cfg in cfgs:
        own, outcomes = outcomes[:cfg.trials], outcomes[cfg.trials:]
        records = tuple(record for trial_records, _ in own for record in trial_records if record.trial_seed in paired)
        failures = tuple(error for _, error in own if error is not None)
        missed = sum(not record.reached_target for record in records)
        if missed:
            log.warning("%s (%s init): %d of %d rounds hit the epoch cap of %d without reaching the accuracy target",
                        cfg.strategy, cfg.init_mode, missed, len(records), cfg.learner.max_epochs)
        results.append(ExperimentResult(config=cfg, records=records, curve=aggregate_curve(records), failures=failures))
    return results


def run_experiment(cfg: ExperimentConfig, workers: int = 1) -> ExperimentResult:
    """Run cfg.trials trials with seeds base_seed..base_seed+trials-1.

    The trials share one dataset build and are split into min(workers, trials,
    usable CPUs) contiguous chunks, each run in lockstep, in a process of its own when
    there are several chunks. Records are always assembled in trial-seed
    order, so the output is scheduling-independent. A trial whose training
    diverges, or that kills its worker process also when rerun alone, leaves
    its message in ``failures``, in seed order; when no trial finishes, the
    first of them is raised as a DecalError. Rounds that stopped at
    ``max_epochs`` without reaching the accuracy target are counted in one
    warning per run.
    """
    return _run_configs([cfg], workers)[0]


def aggregate_curve(records) -> LearningCurve:
    """Aggregate per-trial records into mean, sample std, and standard error.

    A single trial yields std 0 by convention (no divisor-by-zero surprises);
    otherwise std uses the n-1 divisor and stderr = std / sqrt(trials).
    """
    if not records:
        raise ValueError("no records to aggregate")
    by_trial: dict[int, list[RoundRecord]] = {}
    for record in records:
        by_trial.setdefault(record.trial_seed, []).append(record)
    trials = sorted(by_trial)
    for seed in trials:
        by_trial[seed].sort(key=lambda r: r.round_index)
        rounds = [r.round_index for r in by_trial[seed]]
        if rounds != list(range(len(rounds))):
            raise ValueError(f"trial {seed} has rounds {rounds}; expected 0..R, each once")
    sizes = [r.train_size for r in by_trial[trials[0]]]
    for seed in trials[1:]:
        if [r.train_size for r in by_trial[seed]] != sizes:
            raise ValueError(f"trials {trials[0]} and {seed} disagree on rounds or train sizes; cannot aggregate")

    accuracy = np.array([[r.test_accuracy for r in by_trial[seed]] for seed in trials])
    n = len(trials)
    mean = accuracy.mean(axis=0)
    std = accuracy.std(axis=0, ddof=1) if n > 1 else np.zeros(accuracy.shape[1])
    stderr = std / np.sqrt(n)
    return LearningCurve(
        train_sizes=tuple(sizes),
        mean_accuracy=tuple(float(v) for v in mean),
        std_accuracy=tuple(float(v) for v in std),
        stderr_accuracy=tuple(float(v) for v in stderr),
        trials=n,
    )


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------

def earliest_round_above_chance(curve: LearningCurve, num_classes: int) -> int | None:
    """Smallest round whose mean accuracy strictly exceeds 1/num_classes."""
    if num_classes < 2:
        raise ValueError("num_classes must be >= 2")
    chance = 1.0 / num_classes
    for round_index, mean in enumerate(curve.mean_accuracy):
        if mean > chance:
            return round_index
    return None


def percent_change(treatment: float, baseline: float) -> float:
    """Signed percentage change of treatment relative to baseline."""
    if baseline <= 0:
        raise ValueError(f"baseline must be > 0, got {baseline}")
    return (treatment - baseline) / baseline * 100.0


def percent_change_variants(treatments, baselines) -> dict[str, float]:
    """Two labeled ways to aggregate relative gains over paired results.

    "mean_of_percent_changes" averages the per-pair percent changes;
    "percent_change_of_means" compares the pooled means. The two generally
    differ, so both are reported and callers pick one explicitly. A zero
    baseline has no relative change: in any pair it makes the first NaN, as
    a mean the second.
    """
    treatments = [float(t) for t in treatments]
    baselines = [float(b) for b in baselines]
    if len(treatments) != len(baselines) or not treatments:
        raise ValueError("treatments and baselines must be equal-length and non-empty")

    def change(treatment: float, baseline: float) -> float:
        return percent_change(treatment, baseline) if baseline > 0 else math.nan

    per_pair = [change(t, b) for t, b in zip(treatments, baselines)]
    return {
        "mean_of_percent_changes": float(np.mean(per_pair)),
        "percent_change_of_means": change(float(np.mean(treatments)), float(np.mean(baselines))),
    }


@dataclass(frozen=True)
class InitComparison:
    """Side-by-side result of two experiments that differ only in init_mode."""

    round_index: int
    strategy: str
    treatment_mode: str
    baseline_mode: str
    treatment_mean: float
    treatment_std: float
    treatment_stderr: float
    baseline_mean: float
    baseline_std: float
    baseline_stderr: float
    percent_change: float
    variants: dict[str, float]
    treatment_result: ExperimentResult
    baseline_result: ExperimentResult


def compare_initializations(cfg_a: ExperimentConfig, cfg_b: ExperimentConfig,
                            round_index: int, workers: int = 1) -> InitComparison:
    """Run both configs and compare accuracy at one round.

    The configs must be identical apart from init_mode, and their init modes
    must differ; both are checked before the dataset is built. The config with
    init_mode "decal" is the treatment. Its trials and the baseline's run as
    one set of 2 x trials over min(workers, 2 x trials, usable CPUs) chunks, through the
    runner of :func:`run_experiment`, the treatment first. So each result
    keeps its own failures and epoch-cap warning, and the records of only the
    seeds that finished in both runs; when there are none, the first failure,
    the treatment's if it has one, is raised as a DecalError. The variants
    pair those trials by seed, and ``percent_change`` is their percent change
    of means. A zero baseline gives NaN; the runs are still reported.
    """
    if replace(cfg_a, init_mode="random") != replace(cfg_b, init_mode="random"):
        raise ConfigError("configs must be identical except for init_mode")
    if cfg_a.init_mode == cfg_b.init_mode:
        raise ConfigError(f"configs must differ in init_mode; both are {cfg_a.init_mode!r}")
    if not 0 <= round_index <= cfg_a.rounds:
        raise ConfigError(f"round {round_index} outside 0..{cfg_a.rounds}")

    treatment_cfg, baseline_cfg = (cfg_a, cfg_b) if cfg_a.init_mode == "decal" else (cfg_b, cfg_a)
    treatment, baseline = _run_configs([treatment_cfg, baseline_cfg], workers)
    variants = percent_change_variants(*([r.test_accuracy for r in result.records if r.round_index == round_index]
                                         for result in (treatment, baseline)))
    return InitComparison(
        round_index=round_index,
        strategy=cfg_a.strategy,
        treatment_mode=treatment_cfg.init_mode,
        baseline_mode=baseline_cfg.init_mode,
        treatment_mean=treatment.curve.mean_accuracy[round_index],
        treatment_std=treatment.curve.std_accuracy[round_index],
        treatment_stderr=treatment.curve.stderr_accuracy[round_index],
        baseline_mean=baseline.curve.mean_accuracy[round_index],
        baseline_std=baseline.curve.std_accuracy[round_index],
        baseline_stderr=baseline.curve.stderr_accuracy[round_index],
        percent_change=variants["percent_change_of_means"],
        variants=variants,
        treatment_result=treatment,
        baseline_result=baseline,
    )
