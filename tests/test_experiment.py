import math
import os
import re
from concurrent.futures import Future
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from decal import experiment, learner, patients
from decal.acquisition import BASE_STRATEGIES
from decal.cli import main
from decal.data import ImageCountSpec, SyntheticConfig
from decal.errors import ConfigError, DecalError, InvariantViolation, TrainingDiverged
from decal.experiment import (
    DatasetSource,
    ExperimentConfig,
    LearningCurve,
    RoundRecord,
    aggregate_curve,
    build_dataset,
    compare_initializations,
    derive_seed,
    earliest_round_above_chance,
    percent_change,
    percent_change_variants,
    run_experiment,
    run_trial,
)
from decal.learner import LearnerConfig
from decal.patients import DECAL_PREFIX, INIT_MODES, QueryBatch
from helpers import allow_cpus, forbid_trials, inject_at_round, rows_of, write_reversed_test_csv
from test_cli import config_dict, write_config

SMALL_SYNTH = SyntheticConfig(
    num_classes=3,
    num_patients=45,
    images_per_patient=ImageCountSpec(kind="uniform", low=3, high=5),
    feature_dim=4,
    class_separation=4.0,
    patient_offset_scale=0.5,
    test_fraction_of_patients=0.2,
    noise_scale=0.3,
)

FAST_LEARNER = LearnerConfig(
    hidden_width=8, learning_rate=0.1, train_accuracy_target=0.9,
    max_epochs=60, minibatch_size=32,
)


def small_cfg(**overrides):
    base = dict(
        dataset=DatasetSource(synthetic=SMALL_SYNTH),
        learner=FAST_LEARNER,
        strategy="decal_entropy",
        init_mode="decal",
        init_size=9,
        batch_size=6,
        rounds=3,
        trials=2,
        base_seed=100,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(3, 2, 1) == derive_seed(3, 2, 1)

    def test_streams_differ(self):
        seeds = {derive_seed(a, b, c) for a in range(3) for b in range(3) for c in range(4)}
        assert len(seeds) == 36


class TestRunTrial:
    def test_train_sizes_progress_by_batch(self):
        records = run_trial(small_cfg(), trial_seed=100)
        assert [r.train_size for r in records] == [9, 15, 21, 27]
        assert [r.round_index for r in records] == [0, 1, 2, 3]

    def test_zero_rounds_single_record(self):
        records = run_trial(small_cfg(rounds=0), trial_seed=100)
        assert len(records) == 1
        assert records[0].train_size == 9

    def test_deterministic(self):
        assert run_trial(small_cfg(), 101) == run_trial(small_cfg(), 101)

    def test_budget_overflow_is_config_error(self):
        with pytest.raises(ConfigError):
            run_trial(small_cfg(rounds=500), trial_seed=100)

    def test_no_sample_queried_twice(self):
        seen: list[int] = []

        def audit(stage, round_index, batch):
            seen.extend(batch.members)

        run_trial(small_cfg(strategy="entropy", init_mode="random"), 100, on_batch=audit)
        assert len(seen) == len(set(seen)) == 9 + 3 * 6

    def test_decal_batches_have_unique_patients(self):
        batches = []

        def audit(stage, round_index, batch):
            batches.append((stage, batch))

        cfg = small_cfg(strategy="decal_margin")
        dataset = build_dataset(cfg.dataset, cfg.base_seed)
        run_trial(cfg, 100, dataset=dataset, on_batch=audit)
        for stage, batch in batches:
            assert batch.relaxed_count == 0
            patients = dataset.pool.patients_for(batch.members)
            assert len(set(patients)) == len(batch.members)

    @pytest.mark.parametrize("init_mode", INIT_MODES)
    def test_round_zero_does_not_depend_on_the_strategy(self, init_mode):
        # round 0 reads no query strategy: every strategy of a seed labels one init batch and
        # records one first round; the query batches after it are the strategies' own
        source = DatasetSource(preset="skewed")
        dataset = build_dataset(source, 0)
        firsts, batches = set(), {"init": set(), "query": set()}
        for strategy in patients.STRATEGIES:
            cfg = small_cfg(dataset=source, strategy=strategy, init_mode=init_mode, init_size=16, batch_size=16,
                            rounds=1, base_seed=0)
            records = run_trial(cfg, 0, dataset=dataset,
                                on_batch=lambda stage, round_index, batch: batches[stage].add(batch))
            firsts.add((records[0], records[0].reached_target))
        assert len(patients.STRATEGIES) == 10
        assert len(firsts) == len(batches["init"]) == 1
        assert len(batches["query"]) > 1

    def test_accuracies_in_unit_interval(self):
        records = run_trial(small_cfg(), 100)
        assert all(0.0 <= r.test_accuracy <= 1.0 for r in records)

    @pytest.mark.parametrize("cfg, relaxed", [
        *(pytest.param(small_cfg(init_mode=init_mode, strategy=strategy), (False,) * 4, id=f"{init_mode}-{strategy}")
          for init_mode in INIT_MODES for strategy in ("random", "decal_badge")),
        # 64-image batches from the 45 patients of the skewed pool: every decal_* batch and
        # decal init relaxes, random init never does
        *(pytest.param(small_cfg(dataset=DatasetSource(preset="skewed"), init_mode=init_mode, strategy="decal_badge",
                                 init_size=64, batch_size=64, rounds=2, base_seed=3),
                       (init_mode == "decal", True, True), id=f"relaxed-{init_mode}-decal_badge")
          for init_mode in INIT_MODES),
    ])
    def test_round_trains_on_the_rows_of_the_batches_so_far(self, monkeypatch, cfg, relaxed):
        # round r trains on the pool rows of the init batch and the first r query batches, in
        # on_batch order, and records its own batch's relaxed_count; a query batch is reported
        # with the round of the model that picked it
        dataset = build_dataset(cfg.dataset, cfg.base_seed)
        pool = dataset.pool
        stages, batches, trained = [], [], []
        train_lockstep = learner.train_lockstep

        def recording_train_lockstep(models, features, labels, config, seeds):
            (trial_features,), (trial_labels,) = features, labels  # a stack of one trial
            trained.append((trial_features.copy(), trial_labels.copy()))
            return train_lockstep(models, features, labels, config, seeds)

        def audit(stage, round_index, batch):
            stages.append((stage, round_index))
            batches.append(batch)

        monkeypatch.setattr(learner, "train_lockstep", recording_train_lockstep)
        records = run_trial(cfg, cfg.base_seed, dataset=dataset, on_batch=audit)
        assert stages == [("init", 0)] + [("query", r) for r in range(cfg.rounds)]
        assert len(batches) == len(trained) == len(records) == cfg.rounds + 1
        for round_index, (features, labels) in enumerate(trained):
            rows = rows_of(pool, [i for batch in batches[:round_index + 1] for i in batch.members])
            np.testing.assert_array_equal(features, pool.features[rows])
            np.testing.assert_array_equal(labels, pool.labels[rows])
        assert [r.relaxed_count for r in records] == [batch.relaxed_count for batch in batches]
        assert tuple(batch.relaxed_count > 0 for batch in batches) == relaxed


def _rows(rows):
    return tuple(rows.tolist())


def _repeated_patient(pool, rows, k):
    codes = pool.patient_codes[rows]
    repeated = codes == codes[np.argmax(np.bincount(codes)[codes] > 1)]  # first patient with 2+ rows
    return QueryBatch(_rows(rows[repeated][:2]) + _rows(rows[~repeated][:k - 2]))


def _relaxed_repeats(pool, rows, k):
    # relaxed_count 1 allows one slot on a patient already in the batch; here two slots are
    codes = pool.patient_codes[rows]
    firsts = np.unique(codes, return_index=True)[1][:k - 2]  # the first candidate row of k - 2 patients
    repeats = np.setdiff1d(np.flatnonzero(np.isin(codes, codes[firsts])), firsts)[:2]
    return QueryBatch(_rows(rows[np.concatenate([firsts, repeats])]), relaxed_count=1)


# each fake selection gets the candidate rows and k and returns pool rows; batch_size is 6 in
# small_cfg() and config_dict()
BAD_BATCHES = {
    "wrong-size": (lambda pool, rows, k: QueryBatch(_rows(rows[:k - 1])),
                   "batch has 5 members, expected 6"),
    "duplicate-row": (lambda pool, rows, k: QueryBatch(_rows(rows[[0, *range(k - 1)]])),
                      "batch contains duplicate rows"),
    "non-pool-row": (lambda pool, rows, k: QueryBatch(_rows(rows[:k - 1]) + (2 * len(pool),)),
                     "batch selected rows outside the pool"),
    "row-at-pool-size": (lambda pool, rows, k: QueryBatch(_rows(rows[:k - 1]) + (len(pool),)),
                         "batch selected rows outside the pool"),
    # numpy would read row -1 as the pool's last row, which is unlabeled here
    "negative-row": (lambda pool, rows, k: QueryBatch(_rows(rows[:k - 1]) + (-1,)),
                     "batch selected rows outside the pool"),
    "labeled-row": (lambda pool, rows, k: QueryBatch(
                        _rows(rows[:k - 1]) + _rows(np.setdiff1d(np.arange(len(pool)), rows)[:1])),
                    "batch selected rows outside the remaining pool"),
    "relaxed-count": (lambda pool, rows, k: QueryBatch(_rows(rows[:k]), relaxed_count=k + 1),
                      "relaxed_count 7 out of range"),
    "repeated-patient": (_repeated_patient, "unique-patient batch repeats a patient"),
    "relaxed-batch-repeated-patient": (_relaxed_repeats, "unique-patient batch repeats a patient: expected 5 patients"),
}


class TestBatchContracts:
    """run_trial re-checks every query batch instead of trusting the selection module."""

    @pytest.mark.parametrize("make, message", BAD_BATCHES.values(), ids=BAD_BATCHES)
    def test_bad_batch_is_invariant_violation(self, monkeypatch, tmp_path, capsys, make, message):
        monkeypatch.setattr(patients, "select_query_batch",
                            lambda strategy, model, pool, rows, k, seed: make(pool, rows, k))
        with pytest.raises(InvariantViolation, match=message):
            run_trial(small_cfg(), 100)
        config = write_config(tmp_path, config_dict())
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("relaxed_strategy", ["random", "entropy"], ids=["random-init", "entropy-query"])
    def test_relaxed_unconstrained_batch_is_invariant_violation(self, monkeypatch, tmp_path, capsys,
                                                                relaxed_strategy):
        # only the unique-patient fallback relaxes a slot, so a random init or an entropy batch has none
        def select(strategy, model, pool, rows, k, seed):
            return QueryBatch(_rows(rows[:k]), relaxed_count=int(strategy == relaxed_strategy))

        monkeypatch.setattr(patients, "select_query_batch", select)
        message = "relaxed_count 1 out of range 0..0"
        with pytest.raises(InvariantViolation, match=re.escape(message)):
            run_trial(small_cfg(strategy="entropy", init_mode="random"), 100)
        config = write_config(tmp_path, config_dict(strategy="entropy", init_mode="random"))
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 3
        assert f"error: {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("init_mode, strategy", [("decal", "decal_entropy"), ("random", "decal_random")])
    def test_relaxed_batches_pass(self, init_mode, strategy):
        # 64-image batches from the 45 patients of the skewed pool relax every decal_* batch and decal init
        cfg = small_cfg(dataset=DatasetSource(preset="skewed"), init_mode=init_mode, strategy=strategy,
                        init_size=64, batch_size=64, rounds=2, base_seed=3)
        records = run_trial(cfg, cfg.base_seed)
        assert [r.relaxed_count > 0 for r in records] == [init_mode == "decal", True, True]


ONE_IMAGE_PER_PATIENT = replace(
    SMALL_SYNTH, num_patients=60, images_per_patient=ImageCountSpec(kind="uniform", low=1, high=1),
)


class TestUniquePatientMetamorphic:
    """With one image per patient, the unique-patient constraint never binds."""

    @pytest.mark.parametrize("base", BASE_STRATEGIES)
    def test_decal_strategy_matches_its_base(self, base):
        cfg = small_cfg(dataset=DatasetSource(synthetic=ONE_IMAGE_PER_PATIENT))
        dataset = build_dataset(cfg.dataset, cfg.base_seed)
        assert len(set(dataset.pool.patients)) == len(dataset.pool)
        for init_mode in INIT_MODES:
            plain = replace(cfg, strategy=base, init_mode=init_mode)
            constrained = replace(plain, strategy=DECAL_PREFIX + base)
            assert run_trial(constrained, 100, dataset=dataset) == run_trial(plain, 100, dataset=dataset)


class TestRunExperiment:
    def test_curve_shape_and_aggregates(self):
        result = run_experiment(small_cfg())
        assert len(result.curve.train_sizes) == 4
        assert result.curve.trials == 2
        assert len(result.records) == 2 * 4
        np.testing.assert_allclose(
            np.array(result.curve.stderr_accuracy),
            np.array(result.curve.std_accuracy) / np.sqrt(2),
        )

    def test_single_trial_std_zero(self):
        result = run_experiment(small_cfg(trials=1))
        assert all(s == 0.0 for s in result.curve.std_accuracy)
        records = run_trial(small_cfg(trials=1), 100)
        assert [r.test_accuracy for r in records] == list(result.curve.mean_accuracy)

    def test_parallel_matches_serial(self, monkeypatch):
        allow_cpus(monkeypatch, 3)
        cfg = small_cfg(trials=3)
        serial = run_experiment(cfg, workers=1)
        parallel = run_experiment(cfg, workers=3)
        assert serial.records == parallel.records

    def test_mean_of_trials_equals_curve_of_means(self):
        cfg = small_cfg(trials=3)
        result = run_experiment(cfg)
        per_trial = [run_trial(cfg, s) for s in range(100, 103)]
        manual = np.mean([[r.test_accuracy for r in t] for t in per_trial], axis=0)
        np.testing.assert_allclose(result.curve.mean_accuracy, manual)


# preset skewed at learning rate 1e306: of seeds 0-4, trial 2 diverges at step 2 of round 1 and the
# others finish
PARTLY_DIVERGING = ExperimentConfig(
    dataset=DatasetSource(preset="skewed"),
    learner=LearnerConfig(learning_rate=1e306, max_epochs=3),
    strategy="random", init_mode="random", init_size=16, batch_size=16, rounds=1, trials=5, base_seed=0,
)


class TestLockstepRunner:
    def test_a_trial_diverging_mid_chunk_leaves_the_others_as_their_solo_runs(self):
        result = run_experiment(PARTLY_DIVERGING, workers=1)  # one chunk of all five trials
        assert result.failures == ("trial 2 round 1: training diverged: loss is inf at step 2",)
        dataset = build_dataset(PARTLY_DIVERGING.dataset, PARTLY_DIVERGING.base_seed)
        solo = tuple(r for seed in (0, 1, 3, 4) for r in run_trial(PARTLY_DIVERGING, seed, dataset=dataset))
        assert repr(result.records) == repr(solo)

    def test_output_is_independent_of_the_worker_count(self, monkeypatch):
        # 5 trials in chunks of 5, 3/2 and 2/2/1
        allow_cpus(monkeypatch, 3)
        results = [run_experiment(PARTLY_DIVERGING, workers=workers) for workers in (1, 2, 3)]
        assert results[0].failures and results[0].records
        for result in results[1:]:
            assert repr(result.records) == repr(results[0].records)
            assert result.failures == results[0].failures

    def test_a_round_that_fails_in_a_chunk_leaves_its_chunk_mates(self, monkeypatch):
        def fault(cfg, trial_seed, round_index):
            if (trial_seed, round_index) == (101, 2):
                raise TrainingDiverged("trial 101 round 2: training diverged: stand-in")

        cfg = small_cfg(trials=3)
        expected = run_experiment(cfg)
        inject_at_round(monkeypatch, fault)
        result = run_experiment(cfg)
        assert result.failures == ("trial 101 round 2: training diverged: stand-in",)
        assert result.records == tuple(r for r in expected.records if r.trial_seed != 101)


class TestWorkerCap:
    """``workers`` past the CPUs this process may use run as many chunks as there are CPUs; no test here starts a process."""

    def test_workers_past_one_usable_cpu_run_one_chunk_in_this_process(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)

        def no_pool(*args):
            raise AssertionError("a process pool started")

        monkeypatch.setattr(experiment, "_pool_futures", no_pool)
        cfg = small_cfg(trials=3)
        assert run_experiment(cfg, workers=10**9).records == run_experiment(cfg, workers=1).records

    def test_chunks_are_capped_at_the_usable_cpus(self, monkeypatch):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3}, raising=False)
        pools = []

        def in_this_process(run, chunks, workers):
            pools.append(([len(chunk) for chunk in chunks], workers))
            futures = [Future() for _ in chunks]
            for future, chunk in zip(futures, chunks):
                future.set_result(run(chunk))
            return futures

        monkeypatch.setattr(experiment, "_pool_futures", in_this_process)
        cfg = small_cfg(trials=5)
        result = run_experiment(cfg, workers=64)
        assert pools == [([3, 2], 2)]
        assert result.records == run_experiment(cfg, workers=1).records

    @pytest.mark.parametrize("cpu_count, usable", [(6, 6), (None, 1)])
    def test_cpu_count_stands_in_where_there_is_no_affinity(self, monkeypatch, cpu_count, usable):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert experiment._usable_cpus() == usable


class TestReachedTarget:
    def test_each_record_carries_its_rounds_training_verdict(self, monkeypatch):
        verdicts = []
        train_lockstep = learner.train_lockstep

        def recording_train_lockstep(*args):
            outcomes = train_lockstep(*args)
            verdicts.extend(outcome.reached_target for outcome in outcomes)
            return outcomes

        monkeypatch.setattr(learner, "train_lockstep", recording_train_lockstep)
        # one trial, so the verdicts are in record order; some rounds reach the target and some are capped
        cfg = small_cfg(learner=replace(FAST_LEARNER, train_accuracy_target=0.97, max_epochs=20), trials=1)
        result = run_experiment(cfg)
        assert [record.reached_target for record in result.records] == verdicts
        assert set(verdicts) == {True, False}

    def test_records_read_back_have_none_and_compare_without_it(self):
        record = RoundRecord(0, 0, 10, 0.5, 1, 0, reached_target=True)
        read_back = RoundRecord(0, 0, 10, 0.5, 1, 0)
        assert read_back.reached_target is None
        assert record == read_back


class TestAggregateCurve:
    def test_two_point_statistics(self):
        records = [
            RoundRecord(0, 0, 10, 0.5, 1, 0),
            RoundRecord(1, 0, 10, 0.7, 1, 0),
        ]
        curve = aggregate_curve(records)
        assert curve.mean_accuracy[0] == pytest.approx(0.6)
        # sample std of {0.5, 0.7} = sqrt(0.02), stderr = std / sqrt(2) = 0.1
        assert curve.std_accuracy[0] == pytest.approx(0.14142135623730950488, abs=1e-12)
        assert curve.stderr_accuracy[0] == pytest.approx(0.1, abs=1e-12)

    def test_mismatched_trials_rejected(self):
        records = [
            RoundRecord(0, 0, 10, 0.5, 1, 0),
            RoundRecord(1, 0, 12, 0.7, 1, 0),
        ]
        with pytest.raises(ValueError):
            aggregate_curve(records)


class TestMetrics:
    def test_earliest_round_above_chance(self):
        curve = LearningCurve((10, 20, 30), (0.30, 0.34, 0.60), (0,) * 3, (0,) * 3, 1)
        assert earliest_round_above_chance(curve, 3) == 1

    def test_earliest_round_none_when_never(self):
        curve = LearningCurve((10, 20), (0.30, 1 / 3), (0,) * 2, (0,) * 2, 1)
        assert earliest_round_above_chance(curve, 3) is None

    def test_chance_threshold_is_one_over_c(self):
        curve = LearningCurve((10,), (0.26,), (0.0,), (0.0,), 1)
        assert earliest_round_above_chance(curve, 4) == 0
        assert earliest_round_above_chance(curve, 3) is None

    def test_percent_change_reference(self):
        expected = float(
            (Fraction("64.53") - Fraction("61.38")) / Fraction("61.38") * 100
        )
        value = percent_change(64.53, 61.38)
        assert value == pytest.approx(expected, abs=1e-9)
        assert value == pytest.approx(5.13, abs=0.01)

    def test_percent_change_trivia(self):
        assert percent_change(0.42, 0.42) == 0.0
        assert percent_change(50, 40) == pytest.approx(25.0)

    def test_percent_change_rejects_nonpositive_baseline(self):
        with pytest.raises(ValueError):
            percent_change(1.0, 0.0)

    def test_percent_change_variants(self):
        variants = percent_change_variants([2.0, 3.0], [1.0, 4.0])
        assert variants["mean_of_percent_changes"] == pytest.approx((100.0 - 25.0) / 2)
        assert variants["percent_change_of_means"] == pytest.approx(0.0)

    def test_percent_change_variants_zero_baseline_is_nan(self):
        variants = percent_change_variants([1.0, 2.0], [0.0, 1.0])
        assert math.isnan(variants["mean_of_percent_changes"])
        assert variants["percent_change_of_means"] == pytest.approx(200.0)
        assert all(math.isnan(v) for v in percent_change_variants([1.0], [0.0]).values())


class TestCompareInitializations:
    def test_mismatched_configs_rejected(self):
        with pytest.raises(ConfigError):
            compare_initializations(small_cfg(), small_cfg(batch_size=5), 0)

    def test_round_out_of_range_rejected(self):
        a = small_cfg(init_mode="decal")
        b = small_cfg(init_mode="random")
        with pytest.raises(ConfigError):
            compare_initializations(a, b, 9)

    @pytest.mark.parametrize("mode", ["random", "decal"])
    def test_equal_init_modes_rejected_before_any_trial(self, monkeypatch, mode):
        forbid_trials(monkeypatch)
        cfg = small_cfg(init_mode=mode, rounds=0, trials=1)
        with pytest.raises(ConfigError, match=f"configs must differ in init_mode; both are '{mode}'"):
            compare_initializations(cfg, cfg, 0)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_builds_the_dataset_once(self, monkeypatch, workers):
        calls = []

        def counting(source, seed):
            calls.append((source, seed))
            return build_dataset(source, seed)

        monkeypatch.setattr("decal.experiment.build_dataset", counting)
        cfg = small_cfg(init_mode="decal", rounds=1, trials=2)
        compare_initializations(cfg, replace(cfg, init_mode="random"), 1, workers=workers)
        assert calls == [(cfg.dataset, cfg.base_seed)]

    def test_both_runs_train_in_one_stack(self, monkeypatch):
        cfg = small_cfg(strategy="random", init_mode="decal", rounds=2, trials=2)
        stacks = []
        train_lockstep = learner.train_lockstep

        def counting_train_lockstep(models, *args):
            stacks.append(len(models))
            return train_lockstep(models, *args)

        monkeypatch.setattr(learner, "train_lockstep", counting_train_lockstep)
        compare_initializations(cfg, replace(cfg, init_mode="random"), 0, workers=1)
        assert len(stacks) == cfg.rounds + 1
        assert stacks[0] == 2 * cfg.trials

    @pytest.mark.parametrize("workers", [1, 2, 3])
    @pytest.mark.parametrize("decal_only_failure", [None, 4])
    def test_each_run_is_its_run_alone(self, monkeypatch, workers, decal_only_failure):
        # both init modes diverge at trial 2 of PARTLY_DIVERGING, and decal init also fails at
        # decal_only_failure; the 10 trials run in chunks of 10, 5/5 and 4/3/3, so at 3 workers one
        # chunk holds trials of both runs
        def fail_decal_trial(cfg, trial_seed, round_index):
            if (cfg.init_mode, trial_seed) == ("decal", decal_only_failure):
                raise TrainingDiverged(f"trial {trial_seed} round 0: training diverged: stand-in")

        inject_at_round(monkeypatch, fail_decal_trial)
        allow_cpus(monkeypatch, 3)
        comparison = compare_initializations(replace(PARTLY_DIVERGING, init_mode="decal"), PARTLY_DIVERGING, 1,
                                             workers=workers)
        diverged = "trial 2 round 1: training diverged: loss is inf at step 2"
        stand_in = () if decal_only_failure is None else ("trial 4 round 0: training diverged: stand-in",)
        assert comparison.treatment_result.failures == (diverged, *stand_in)
        assert comparison.baseline_result.failures == (diverged,)
        for result in (comparison.treatment_result, comparison.baseline_result):
            alone = run_experiment(result.config)
            assert result.failures == alone.failures
            paired = tuple(r for r in alone.records if r.trial_seed != decal_only_failure)
            assert repr(result.records) == repr(paired)

    def test_orients_decal_as_treatment(self):
        a = small_cfg(init_mode="random", rounds=0, trials=1)
        b = small_cfg(init_mode="decal", rounds=0, trials=1)
        comparison = compare_initializations(a, b, 0)
        assert comparison.treatment_mode == "decal"
        assert comparison.baseline_mode == "random"
        assert set(comparison.variants) == {
            "mean_of_percent_changes", "percent_change_of_means",
        }

    def test_mean_of_percent_changes_pairs_trials_by_seed(self):
        cfg = small_cfg(strategy="random", init_mode="decal", rounds=1, trials=4)
        comparison = compare_initializations(cfg, replace(cfg, init_mode="random"), round_index=1)

        def accuracy_by_seed(result):
            return {r.trial_seed: r.test_accuracy for r in result.records if r.round_index == 1}

        treatment = accuracy_by_seed(comparison.treatment_result)
        baseline = accuracy_by_seed(comparison.baseline_result)
        per_trial = [percent_change(treatment[seed], baseline[seed]) for seed in range(100, 104)]
        assert comparison.variants["mean_of_percent_changes"] == pytest.approx(np.mean(per_trial))
        assert comparison.variants["percent_change_of_means"] == comparison.percent_change
        assert comparison.percent_change == pytest.approx(
            percent_change(comparison.treatment_mean, comparison.baseline_mean))
        assert comparison.variants["mean_of_percent_changes"] != pytest.approx(comparison.percent_change)

    @staticmethod
    def diverge(monkeypatch, seed_by_init_mode):
        def fault(cfg, trial_seed, round_index):
            if trial_seed == seed_by_init_mode[cfg.init_mode]:
                raise TrainingDiverged(f"trial {trial_seed} round 0: training diverged: stand-in")

        inject_at_round(monkeypatch, fault)

    def test_pairs_the_seeds_both_runs_finished(self, monkeypatch):
        cfg = small_cfg(strategy="random", init_mode="decal", rounds=1, trials=4)
        full = compare_initializations(cfg, replace(cfg, init_mode="random"), round_index=1)
        self.diverge(monkeypatch, {"decal": 101, "random": 102})
        comparison = compare_initializations(cfg, replace(cfg, init_mode="random"), round_index=1)

        paired = {100, 103}
        accuracies = []
        for result, whole, seed in ((comparison.treatment_result, full.treatment_result, 101),
                                    (comparison.baseline_result, full.baseline_result, 102)):
            records = tuple(r for r in whole.records if r.trial_seed in paired)
            assert result.records == records
            assert result.curve == aggregate_curve(records)
            assert result.failures == (f"trial {seed} round 0: training diverged: stand-in",)
            accuracies.append([r.test_accuracy for r in records if r.round_index == 1])
        assert comparison.treatment_mean == comparison.treatment_result.curve.mean_accuracy[1]
        assert comparison.baseline_stderr == comparison.baseline_result.curve.stderr_accuracy[1]
        assert comparison.variants == percent_change_variants(*accuracies)
        assert comparison.percent_change == comparison.variants["percent_change_of_means"]

    def test_no_seed_finished_in_both_raises_the_first_failure(self, monkeypatch):
        cfg = small_cfg(strategy="random", init_mode="decal", rounds=0, trials=2)
        self.diverge(monkeypatch, {"decal": 100, "random": 101})
        with pytest.raises(DecalError, match="^trial 100 round 0: training diverged: stand-in$"):
            compare_initializations(cfg, replace(cfg, init_mode="random"), 0)

    def test_a_baseline_with_no_finished_seed_raises_the_treatments_first_failure(self, monkeypatch):
        # no seed finished in both runs, so the first failure in run order is raised: the treatment runs first
        def fault(cfg, trial_seed, round_index):
            if trial_seed in {"decal": {101}, "random": {100, 101}}[cfg.init_mode]:
                raise TrainingDiverged(f"{cfg.init_mode} trial {trial_seed} round 0: training diverged: stand-in")

        inject_at_round(monkeypatch, fault)
        cfg = small_cfg(strategy="random", init_mode="decal", rounds=0, trials=2)
        with pytest.raises(DecalError, match="^decal trial 101 round 0: training diverged: stand-in$"):
            compare_initializations(cfg, replace(cfg, init_mode="random"), 0)

    def test_zero_baseline_gives_nan_change(self, tmp_path):
        cfg = small_cfg(
            dataset=DatasetSource(csv_path=write_reversed_test_csv(tmp_path / "data.csv")),
            learner=LearnerConfig(hidden_width=0, learning_rate=0.1, max_epochs=200),
            strategy="random", init_size=10, batch_size=5, rounds=1,
        )
        comparison = compare_initializations(
            replace(cfg, init_mode="decal"), replace(cfg, init_mode="random"), round_index=0
        )
        assert comparison.baseline_mean == 0.0
        assert math.isnan(comparison.percent_change)
        assert set(comparison.variants) == {"mean_of_percent_changes", "percent_change_of_means"}
        assert all(math.isnan(v) for v in comparison.variants.values())

    def test_large_initial_training_set_protocol(self):
        # 1000-sample single-round comparison: the diverse init draws each of
        # its 1000 images from a distinct patient, so nothing is relaxed
        synth = SyntheticConfig(
            num_classes=3,
            num_patients=1300,
            images_per_patient=ImageCountSpec(kind="uniform", low=1, high=2),
            feature_dim=4,
            class_separation=4.0,
            patient_offset_scale=0.5,
            test_fraction_of_patients=0.2,
            noise_scale=0.3,
        )
        cfg = ExperimentConfig(
            dataset=DatasetSource(synthetic=synth),
            learner=LearnerConfig(hidden_width=8, learning_rate=0.1,
                                  train_accuracy_target=0.9, max_epochs=30,
                                  minibatch_size=256),
            strategy="random",
            init_mode="decal",
            init_size=1000,
            batch_size=1,
            rounds=0,
            trials=2,
            base_seed=50,
        )
        comparison = compare_initializations(
            cfg, replace(cfg, init_mode="random"), round_index=0
        )
        assert comparison.treatment_mode == "decal"
        assert len(comparison.treatment_result.curve.train_sizes) == 1
        for record in comparison.treatment_result.records:
            assert record.train_size == 1000
            assert record.relaxed_count == 0
        assert comparison.baseline_mean > 0


class TestDatasetSource:
    def test_exactly_one_source_required(self):
        with pytest.raises(ConfigError):
            DatasetSource()
        with pytest.raises(ConfigError):
            DatasetSource(csv_path="x.csv", preset="skewed")

    def test_preset_builds(self):
        split = build_dataset(DatasetSource(preset="skewed"), seed=0)
        assert split.num_classes == 3

    def test_normalize_applied(self):
        source = DatasetSource(synthetic=SMALL_SYNTH, normalize=(0.0, 2.0))
        plain = build_dataset(DatasetSource(synthetic=SMALL_SYNTH), seed=1)
        scaled = build_dataset(source, seed=1)
        np.testing.assert_allclose(scaled.pool.features, plain.pool.features / 2.0)
