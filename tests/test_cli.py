import contextlib
import copy
import csv
import io
import json
import logging
import os
import pathlib
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import decal
from decal.cli import main
from decal.config import load_config_file, parse_config
from decal.data import SampleSet, load_dataset
from decal.errors import DecalError, TrainingDiverged
from decal.experiment import build_dataset, run_trial
from decal.patients import INIT_MODES, STRATEGIES
from decal.presets import PRESETS
from decal.report import write_raw_csv
from helpers import allow_cpus, fail_reads_after, forbid_trials, inject_at_round, write_reversed_test_csv


def config_dict(**experiment_overrides):
    experiment = {
        "strategy": "decal_entropy",
        "init_mode": "decal",
        "init_size": 9,
        "batch_size": 6,
        "rounds": 2,
        "trials": 2,
        "base_seed": 7,
    }
    experiment.update(experiment_overrides)
    return {
        "dataset": {
            "synthetic": {
                "num_classes": 3,
                "num_patients": 36,
                "images_per_patient": {"kind": "uniform", "low": 3, "high": 4},
                "feature_dim": 4,
                "class_separation": 4.0,
                "patient_offset_scale": 0.5,
                "test_fraction_of_patients": 0.2,
                "noise_scale": 0.3,
            }
        },
        "learner": {
            "hidden_width": 8,
            "learning_rate": 0.1,
            "train_accuracy_target": 0.9,
            "max_epochs": 40,
            "minibatch_size": 32,
        },
        "experiment": experiment,
    }


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg), encoding="utf-8")
    return str(path)


class TestGen:
    def test_writes_loadable_csv(self, tmp_path, capsys):
        out = tmp_path / "data.csv"
        assert main(["gen", "--preset", "skewed", "--seed", "3", "--out", str(out)]) == 0
        split = load_dataset(out)
        assert split.num_classes == 3
        assert "wrote" in capsys.readouterr().out

    def test_deterministic(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        main(["gen", "--preset", "skewed", "--seed", "5", "--out", str(a)])
        main(["gen", "--preset", "skewed", "--seed", "5", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()

    def test_unknown_preset_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "x.csv"
        code = main(["gen", "--preset", "nope", "--seed", "1", "--out", str(out)])
        assert code == 1
        capsys.readouterr()


    def test_missing_parent_directory_is_created(self, tmp_path, capsys):
        out = tmp_path / "new" / "dir" / "data.csv"
        assert main(["gen", "--preset", "skewed", "--seed", "3", "--out", str(out)]) == 0
        assert load_dataset(out).num_classes == 3
        capsys.readouterr()

    @pytest.mark.parametrize("target", ["directory", "below-a-file"])
    def test_out_that_cannot_be_a_file_fails_before_generating(self, tmp_path, capsys, monkeypatch, target):
        def fail(*args, **kwargs):
            raise AssertionError("generated despite a bad --out")

        monkeypatch.setattr("decal.cli.generate_synthetic", fail)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out, message = ((tmp_path, f"output file {tmp_path} is a directory") if target == "directory" else
                        (blocker / "x.csv", f"output directory {blocker}: {blocker} exists and is not a directory"))
        assert main(["gen", "--preset", "skewed", "--seed", "3", "--out", str(out)]) == 1
        assert f"config error: {message}" in capsys.readouterr().err
        assert blocker.read_text(encoding="utf-8") == ""


class TestRun:
    def test_end_to_end(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "raw.csv").exists()
        assert (out / "aggregate.csv").exists()
        assert (out / "curve_decal_entropy_decal.svg").exists()
        assert "final mean accuracy" in capsys.readouterr().out

    def test_missing_config_file(self, tmp_path, capsys):
        assert main(["run", "--config", str(tmp_path / "none.json"), "--out", str(tmp_path)]) == 1
        capsys.readouterr()

    def test_unknown_config_key(self, tmp_path, capsys):
        raw = config_dict()
        raw["experiment"]["typo_key"] = 1
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "typo_key" in capsys.readouterr().err

    def test_unknown_strategy(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict(strategy="coreset"))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        capsys.readouterr()

    def test_missing_dataset_csv_is_data_error(self, tmp_path, capsys):
        raw = config_dict()
        raw["dataset"] = {"csv_path": str(tmp_path / "missing.csv")}
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        capsys.readouterr()

    def test_dataset_path_naming_a_directory_is_data_error(self, tmp_path, capsys):
        raw = config_dict()
        raw["dataset"] = {"csv_path": str(tmp_path)}
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err.startswith(f"data error: cannot read {tmp_path}: ")
        assert not (tmp_path / "o").exists()

    def test_budget_overflow_is_config_error(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict(rounds=1000))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        capsys.readouterr()

    def test_requires_output_dir(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        assert main(["run", "--config", cfg]) == 1
        capsys.readouterr()

    def test_output_dir_is_not_a_config_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict(output_dir=str(tmp_path / "o")))
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        assert "unknown keys in experiment: ['output_dir']" in capsys.readouterr().err

    @pytest.mark.parametrize("below", [None, "sub"])
    @pytest.mark.parametrize("command", ["run", "compare"])
    def test_out_that_cannot_be_a_directory_fails_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                                    command, below):
        def fail(*args, **kwargs):
            raise AssertionError("trials ran despite a bad --out")

        monkeypatch.setattr("decal.cli.run_experiment", fail)
        monkeypatch.setattr("decal.cli.compare_initializations", fail)
        blocker = tmp_path / "file"
        blocker.write_text("", encoding="utf-8")
        out = blocker / below if below else blocker
        cfg = write_config(tmp_path, config_dict())
        args = (["run", "--config", cfg] if command == "run"
                else ["compare", "--config-a", cfg, "--config-b", cfg, "--round", "0"])
        assert main([*args, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert f"config error: output directory {out}: {blocker} exists and is not a directory" in err

    @pytest.mark.parametrize("command, name", [
        ("run", "raw.csv"), ("run", "aggregate.csv"), ("run", "curve_decal_entropy_decal.svg"),
        ("compare", "comparison.csv"), ("compare", "curve_decal_entropy_random.svg"),
        ("compare", "curves_combined.svg"),
    ])
    def test_output_file_that_is_a_directory_fails_before_any_trial(self, tmp_path, capsys, monkeypatch,
                                                                    command, name):
        forbid_trials(monkeypatch)
        out = tmp_path / "o"
        (out / name).mkdir(parents=True)
        cfg = write_config(tmp_path, config_dict(), "a.json")
        args = (["run", "--config", cfg] if command == "run" else
                ["compare", "--config-a", cfg, "--config-b",
                 write_config(tmp_path, config_dict(init_mode="random"), "b.json"), "--round", "0"])
        assert main([*args, "--out", str(out)]) == 1
        assert capsys.readouterr().err == f"config error: output file {out / name} is a directory\n"


class TestDivergedTraining:
    # pytest records warnings instead of printing them, also in forked pool workers, so
    # they are made errors here: a warning would replace the divergence message on stderr
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("workers", ["1", "2"])
    @pytest.mark.parametrize("strategy", ["entropy", "random"])
    def test_exit_3_naming_trial_and_round(self, tmp_path, capfd, strategy, workers):
        raw = config_dict(strategy=strategy, init_mode="random")
        raw["dataset"] = {"preset": "skewed"}
        raw["learner"] = {"learning_rate": 1e308}
        out = tmp_path / "out"
        code = main(["run", "--config", write_config(tmp_path, raw), "--out", str(out), "--workers", workers])
        err = capfd.readouterr().err
        assert code == 3
        assert "RuntimeWarning" not in err
        assert err.startswith("error: trial 7 round 0: training diverged: loss is nan")
        assert len(err.splitlines()) == 1
        assert not out.exists()


    # preset skewed at learning rate 1e306: trials 0, 1 and 3 finish, trial 2 diverges in round 1
    PARTLY_DIVERGING = {
        "dataset": {"preset": "skewed"},
        "learner": {"learning_rate": 1e306, "max_epochs": 3},
        "experiment": {"strategy": "random", "init_mode": "random", "init_size": 16, "batch_size": 16,
                       "rounds": 1, "trials": 4},
    }

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_finished_trials_are_reported(self, tmp_path, capfd, workers):
        config = write_config(tmp_path, self.PARTLY_DIVERGING)
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out), "--workers", workers])
        err = capfd.readouterr().err
        assert code == 3
        assert [line for line in err.splitlines() if line.startswith("error:")] == [
            "error: trial 2 round 1: training diverged: loss is inf at step 2"
        ]
        cfg = load_config_file(config)
        dataset = build_dataset(cfg.dataset, cfg.base_seed)
        expected = tmp_path / "expected.csv"
        write_raw_csv([(("random", "random"), [r for s in (0, 1, 3) for r in run_trial(cfg, s, dataset)])], expected)
        assert (out / "raw.csv").read_bytes() == expected.read_bytes()
        assert (out / "aggregate.csv").exists() and (out / "curve_random_random.svg").exists()

    def test_compare_reports_the_seeds_both_runs_finished(self, tmp_path, capfd):
        configs = []
        for init_mode in ("decal", "random"):
            raw = copy.deepcopy(self.PARTLY_DIVERGING)
            raw["experiment"]["init_mode"] = init_mode
            configs.append(write_config(tmp_path, raw, f"{init_mode}.json"))
        out = tmp_path / "cmp"
        code = main(["compare", "--config-a", configs[0], "--config-b", configs[1], "--round", "1",
                     "--out", str(out)])
        assert code == 3
        assert [line for line in capfd.readouterr().err.splitlines() if line.startswith("error:")] == [
            f"error: {init_mode} init: trial 2 round 1: training diverged: loss is inf at step 2"
            for init_mode in ("decal", "random")
        ]
        groups = []
        for config in configs:
            cfg = load_config_file(config)
            dataset = build_dataset(cfg.dataset, cfg.base_seed)
            groups.append(((cfg.strategy, cfg.init_mode), [r for s in (0, 1, 3) for r in run_trial(cfg, s, dataset)]))
        expected = tmp_path / "expected.csv"
        write_raw_csv(groups, expected)
        assert (out / "raw.csv").read_bytes() == expected.read_bytes()
        assert (out / "comparison.csv").exists() and (out / "curves_combined.svg").exists()

    def test_compare_without_a_seed_both_runs_finished_leaves_no_directory(self, tmp_path, capfd, monkeypatch):
        def diverge(cfg, trial_seed, round_index):
            if trial_seed == {"decal": 0, "random": 1}[cfg.init_mode]:
                raise TrainingDiverged(f"trial {trial_seed} round 0: training diverged: stand-in")

        inject_at_round(monkeypatch, diverge)
        configs = []
        for init_mode in ("decal", "random"):
            raw = copy.deepcopy(self.PARTLY_DIVERGING)
            raw["learner"] = {"max_epochs": 3}
            raw["experiment"].update(init_mode=init_mode, rounds=0, trials=2)
            configs.append(write_config(tmp_path, raw, f"{init_mode}.json"))
        out = tmp_path / "cmp"
        code = main(["compare", "--config-a", configs[0], "--config-b", configs[1], "--round", "0",
                     "--out", str(out)])
        assert code == 3
        assert [line for line in capfd.readouterr().err.splitlines() if line.startswith("error:")] == [
            "error: trial 0 round 0: training diverged: stand-in"
        ]
        assert not out.exists()


class TestCrashedWorker:
    @pytest.fixture(autouse=True)
    def three_cpus(self, monkeypatch):
        # a crashing trial must run in a pool worker, and the compare case's chunks at 3 workers need 3 CPUs
        allow_cpus(monkeypatch, 3)

    def test_finished_trials_are_kept(self, tmp_path, capfd, monkeypatch):
        def crash_on_trial_2(cfg, trial_seed, round_index):
            if trial_seed == 2:
                os._exit(1)

        inject_at_round(monkeypatch, crash_on_trial_2)
        raw = {
            "dataset": {"preset": "skewed"},
            "learner": {"max_epochs": 3},
            "experiment": {"strategy": "random", "init_mode": "random", "init_size": 16, "batch_size": 16,
                           "rounds": 1, "trials": 4},
        }
        config = write_config(tmp_path, raw)
        out = tmp_path / "out"
        code = main(["run", "--config", config, "--out", str(out), "--workers", "2"])
        errors = [line for line in capfd.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == 3
        failed = [int(re.match(r"error: trial (\d+): BrokenProcessPool: ", line).group(1)) for line in errors]
        with open(out / "raw.csv", encoding="utf-8") as fh:
            kept = sorted({int(row["trial_seed"]) for row in csv.DictReader(fh)})
        assert failed == [2] and kept == [0, 1, 3]
        cfg = load_config_file(config)
        dataset = build_dataset(cfg.dataset, cfg.base_seed)
        expected = tmp_path / "expected.csv"
        write_raw_csv([(("random", "random"), [r for s in kept for r in run_trial(cfg, s, dataset)])], expected)
        assert (out / "raw.csv").read_bytes() == expected.read_bytes()

    # the 8 trials of a compare run in chunks of decal 0-3 and random 0-3 at 2 workers, and at 3 of
    # decal 0-2, decal 3 with random 0-1, and random 2-3; so at 3 workers random trial 1 breaks the
    # pool of a chunk that holds trials of both runs
    @pytest.mark.parametrize("workers, crashed", [("2", 2), ("3", 1)])
    def test_compare_keeps_the_seeds_both_runs_finished(self, tmp_path, capfd, monkeypatch, workers, crashed):
        def crash_on_one_random_trial(cfg, trial_seed, round_index):
            if (cfg.init_mode, trial_seed) == ("random", crashed):
                os._exit(1)

        inject_at_round(monkeypatch, crash_on_one_random_trial)
        configs = []
        for init_mode in ("decal", "random"):
            raw = {
                "dataset": {"preset": "skewed"},
                "learner": {"max_epochs": 3},
                "experiment": {"strategy": "random", "init_mode": init_mode, "init_size": 16, "batch_size": 16,
                               "rounds": 1, "trials": 4},
            }
            configs.append(write_config(tmp_path, raw, f"{init_mode}.json"))
        out = tmp_path / "cmp"
        code = main(["compare", "--config-a", configs[0], "--config-b", configs[1], "--round", "1",
                     "--out", str(out), "--workers", workers])
        errors = [line for line in capfd.readouterr().err.splitlines() if line.startswith("error:")]
        assert code == 3
        assert len(errors) == 1 and errors[0].startswith(f"error: random init: trial {crashed}: BrokenProcessPool: ")
        kept = [seed for seed in range(4) if seed != crashed]
        groups = []
        for config in configs:
            cfg = load_config_file(config)
            dataset = build_dataset(cfg.dataset, cfg.base_seed)
            groups.append(((cfg.strategy, cfg.init_mode), [r for s in kept for r in run_trial(cfg, s, dataset)]))
        expected = tmp_path / "expected.csv"
        write_raw_csv(groups, expected)
        assert (out / "raw.csv").read_bytes() == expected.read_bytes()


class TestEpochCapWarning:
    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_one_warning_per_run(self, tmp_path, caplog, capsys, workers):
        raw = {
            "dataset": {"preset": "skewed"},
            "learner": {"train_accuracy_target": 1.0, "max_epochs": 3},
            "experiment": {"strategy": "decal_entropy", "init_mode": "decal", "init_size": 16,
                           "batch_size": 16, "rounds": 3, "trials": 2},
        }
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "out"), "--workers", workers]) == 0
        capsys.readouterr()
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 1
        assert "decal_entropy (decal init): 8 of 8 rounds hit the epoch cap of 3" in warnings[0]

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_compare_warns_once_per_run_treatment_first(self, tmp_path, caplog, capsys, workers):
        configs = []
        for init_mode in ("random", "decal"):
            raw = {
                "dataset": {"preset": "skewed"},
                "learner": {"train_accuracy_target": 1.0, "max_epochs": 3},
                "experiment": {"strategy": "decal_entropy", "init_mode": init_mode, "init_size": 16,
                               "batch_size": 16, "rounds": 3, "trials": 2},
            }
            configs.append(write_config(tmp_path, raw, f"{init_mode}.json"))
        assert main(["compare", "--config-a", configs[0], "--config-b", configs[1], "--round", "3",
                     "--out", str(tmp_path / "cmp"), "--workers", workers]) == 0
        capsys.readouterr()
        warnings = [r.getMessage() for r in caplog.records if r.levelno >= logging.WARNING]
        assert len(warnings) == 2
        assert warnings[0].startswith("decal_entropy (decal init): 8 of 8 rounds hit the epoch cap of 3")
        assert warnings[1].startswith("decal_entropy (random init): 8 of 8 rounds hit the epoch cap of 3")

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_no_warning_when_every_round_reaches_the_target_at_the_cap(self, tmp_path, caplog, capsys, workers):
        # each round reaches the 0.5 target in its one epoch, so every row's epochs_used is max_epochs
        raw = {
            "dataset": {"preset": "large-uniform"},
            "learner": {"hidden_width": 8, "learning_rate": 0.05, "train_accuracy_target": 0.5, "max_epochs": 1},
            "experiment": {"strategy": "entropy", "init_mode": "decal", "init_size": 64, "batch_size": 64,
                           "rounds": 2, "trials": 2},
        }
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(out), "--workers", workers]) == 0
        capsys.readouterr()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        with open(out / "raw.csv", encoding="utf-8") as fh:
            assert [int(row["epochs_used"]) for row in csv.DictReader(fh)] == [1] * 6

    def test_no_warning_when_rounds_stop_early(self, tmp_path, caplog, capsys):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, config_dict()), "--out", str(out)]) == 0
        capsys.readouterr()
        assert [r for r in caplog.records if r.levelno >= logging.WARNING] == []
        with open(out / "raw.csv", encoding="utf-8") as fh:
            assert max(int(row["epochs_used"]) for row in csv.DictReader(fh)) < 40


# a file that opens and whose every read fails with EIO: reading from offset 0 of the process's memory
UNREADABLE = pathlib.Path("/proc/self/mem")
needs_unreadable = pytest.mark.skipif(not UNREADABLE.exists(), reason="no /proc/self/mem on this platform")


class TestCsvDatasetRun:
    @needs_unreadable
    def test_dataset_whose_reads_fail_is_data_error(self, tmp_path, capsys):
        raw = config_dict()
        raw["dataset"] = {"csv_path": str(UNREADABLE)}
        assert main(["run", "--config", write_config(tmp_path, raw), "--out", str(tmp_path / "o")]) == 2
        assert capsys.readouterr().err == f"data error: cannot read {UNREADABLE}: Input/output error\n"
        assert not (tmp_path / "o").exists()

    def test_generated_csv_with_schema_and_normalization(self, tmp_path, capsys):
        data_csv = tmp_path / "data.csv"
        assert main(["gen", "--preset", "large-uniform", "--seed", "2", "--out", str(data_csv)]) == 0
        raw = config_dict(rounds=1, trials=1, init_size=16, batch_size=8)
        raw["dataset"] = {
            "csv_path": str(data_csv),
            "schema": {"sample_id": "sample_id", "feature_prefix": "f"},
            "normalize": {"mu": 0.1987, "sigma": 0.0786},
        }
        cfg = write_config(tmp_path, raw)
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        assert (out / "raw.csv").exists()
        capsys.readouterr()


class TestNoPerRowPatientNames:
    """A run reads patients only as codes and batches only as pool rows.

    Per-row patient names and sample-id lookups are made for writing datasets and tests alone.
    """

    @staticmethod
    def config(tmp_path, source):
        """The run's config file; a CSV source is written here, before any patch."""
        raw = config_dict(strategy="decal_margin", rounds=1, trials=1, init_size=16, batch_size=8)
        if source == "preset":
            raw["dataset"] = {"preset": "skewed"}
        else:
            assert main(["gen", "--preset", "large-uniform", "--seed", "2", "--out", str(tmp_path / "data.csv")]) == 0
            raw["dataset"] = {"csv_path": str(tmp_path / "data.csv"), "normalize": {"mu": 0.2, "sigma": 0.1}}
        return write_config(tmp_path, raw)

    @pytest.mark.parametrize("source", ["preset", "csv"])
    def test_run_never_asks_for_per_row_patient_names(self, tmp_path, capsys, monkeypatch, source):
        config = self.config(tmp_path, source)

        def fail(*args):
            raise AssertionError("per-row patient names made during a run")

        monkeypatch.setattr(SampleSet, "patients", property(fail))
        monkeypatch.setattr(SampleSet, "patients_for", fail)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize("source", ["preset", "csv"])
    def test_run_never_maps_sample_ids_to_rows(self, tmp_path, capsys, monkeypatch, source):
        # selection hands pool rows to the labeled set: no batch goes through sample ids,
        # and patients_for is the one call that maps sample ids to rows
        config = self.config(tmp_path, source)

        def fail(*args):
            raise AssertionError("sample ids mapped to rows during a run")

        monkeypatch.setattr(SampleSet, "patients_for", fail)
        assert main(["run", "--config", config, "--out", str(tmp_path / "out")]) == 0
        capsys.readouterr()


# Runs decal.cli.main on each argv of the JSON list in argv[1], then prints the numpy.ma modules loaded.
MODULES_AFTER_RUNS = """
import contextlib, io, json, sys
from decal.cli import main
for argv in json.loads(sys.argv[1]):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        assert main(argv) == 0, argv
print(json.dumps(sorted(name for name in sys.modules if name == "numpy.ma" or name.startswith("numpy.ma."))))
"""


class TestRunImports:
    def test_run_and_report_never_import_numpy_ma(self, tmp_path, capsys):
        # np.unique and the set routines import numpy.ma, about 10 ms a process; a fresh interpreter shows it
        assert main(["gen", "--preset", "large-uniform", "--seed", "2", "--out", str(tmp_path / "data.csv")]) == 0
        capsys.readouterr()
        configs = {
            "preset": config_dict(strategy="decal_badge", rounds=1, trials=1, init_size=16, batch_size=8),
            "csv": config_dict(strategy="decal_margin", rounds=1, trials=1, init_size=16, batch_size=8),
            # 50 initial labels from the 45 pool patients of skewed: 5 relaxed
            "relaxed": config_dict(strategy="decal_entropy", rounds=1, trials=1, init_size=50, batch_size=8),
        }
        configs["preset"]["dataset"] = configs["relaxed"]["dataset"] = {"preset": "skewed"}
        configs["csv"]["dataset"] = {"csv_path": str(tmp_path / "data.csv"), "normalize": {"mu": 0.2, "sigma": 0.1}}
        argvs = []
        for name, raw in configs.items():
            out = str(tmp_path / f"out_{name}")
            argvs += [["run", "--config", write_config(tmp_path, raw, f"{name}.json"), "--out", out],
                      ["report", "--in", out]]
        src = str(pathlib.Path(decal.__file__).parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
        done = subprocess.run([sys.executable, "-c", MODULES_AFTER_RUNS, json.dumps(argvs)], env=env,
                              capture_output=True, text=True, timeout=300)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == []


class TestCompare:
    def test_compare_and_report(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, config_dict(init_mode="decal", rounds=0), "a.json")
        cfg_b = write_config(tmp_path, config_dict(init_mode="random", rounds=0), "b.json")
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config-a", cfg_a, "--config-b", cfg_b,
            "--round", "0", "--out", str(out),
        ])
        assert code == 0
        assert (out / "comparison.csv").exists()
        assert (out / "raw.csv").exists()
        assert (out / "curves_combined.svg").exists()
        header = (out / "comparison.csv").read_text().splitlines()[0]
        assert "percent_change_of_means" in header
        capsys.readouterr()

    def test_zero_baseline_writes_reports_with_nan_change(self, tmp_path, capsys):
        data_csv = write_reversed_test_csv(tmp_path / "data.csv")
        configs = []
        for mode in ("decal", "random"):
            raw = config_dict(strategy="random", init_mode=mode, init_size=10, batch_size=5, rounds=1)
            raw["dataset"] = {"csv_path": data_csv}
            raw["learner"] = {"hidden_width": 0, "learning_rate": 0.1, "max_epochs": 200}
            configs.append(write_config(tmp_path, raw, f"{mode}.json"))
        out = tmp_path / "cmp"
        code = main([
            "compare", "--config-a", configs[0], "--config-b", configs[1],
            "--round", "0", "--out", str(out),
        ])
        assert code == 0
        assert "change undefined: baseline accuracy is 0" in capsys.readouterr().out
        assert (out / "raw.csv").exists() and (out / "curves_combined.svg").exists()
        with open(out / "comparison.csv", encoding="utf-8") as fh:
            row = dict(zip(*(line.rstrip("\n").split(",") for line in fh)))
        assert row["baseline_mean"] == "0.0"
        changes = ("percent_change", "mean_of_percent_changes", "percent_change_of_means")
        assert [row[k] for k in changes] == ["nan"] * 3

    def test_equal_init_modes_are_config_error_before_any_trial(self, tmp_path, capsys, monkeypatch):
        forbid_trials(monkeypatch)
        cfg = write_config(tmp_path, config_dict(init_mode="random"))
        out = tmp_path / "cmp"
        code = main(["compare", "--config-a", cfg, "--config-b", cfg, "--round", "0", "--out", str(out)])
        assert code == 1
        assert "config error: configs must differ in init_mode; both are 'random'" in capsys.readouterr().err
        assert not out.exists()

    def test_mismatched_pair_is_config_error(self, tmp_path, capsys):
        cfg_a = write_config(tmp_path, config_dict(init_mode="decal"), "a.json")
        cfg_b = write_config(tmp_path, config_dict(init_mode="random", batch_size=5), "b.json")
        code = main([
            "compare", "--config-a", cfg_a, "--config-b", cfg_b,
            "--round", "0", "--out", str(tmp_path / "cmp"),
        ])
        assert code == 1
        capsys.readouterr()


class TestReport:
    def test_regenerates_outputs(self, tmp_path, capsys):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        main(["run", "--config", cfg, "--out", str(out)])
        aggregate = (out / "aggregate.csv").read_bytes()
        (out / "aggregate.csv").unlink()
        assert main(["report", "--in", str(out)]) == 0
        assert (out / "aggregate.csv").read_bytes() == aggregate
        capsys.readouterr()

    def test_missing_dir_is_data_error(self, tmp_path, capsys):
        assert main(["report", "--in", str(tmp_path / "missing")]) == 2
        capsys.readouterr()

    @needs_unreadable
    def test_raw_csv_whose_reads_fail_is_data_error(self, tmp_path, capsys):
        (tmp_path / "raw.csv").symlink_to(UNREADABLE)
        assert main(["report", "--in", str(tmp_path)]) == 2
        assert capsys.readouterr().err == f"data error: cannot read {tmp_path / 'raw.csv'}: Input/output error\n"

    def test_raw_csv_that_fails_mid_file_is_data_error(self, tmp_path, capsys, monkeypatch):
        out = tmp_path / "out"
        assert main(["run", "--config", write_config(tmp_path, config_dict()), "--out", str(out)]) == 0
        capsys.readouterr()
        fail_reads_after(monkeypatch, out / "raw.csv", (out / "raw.csv").stat().st_size // 2)
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: cannot read {out / 'raw.csv'}: Input/output error\n"

    def test_in_naming_a_file_is_data_error(self, tmp_path, capsys):
        path = tmp_path / "file"
        path.write_text("", encoding="utf-8")
        assert main(["report", "--in", str(path)]) == 2
        assert capsys.readouterr().err.startswith(f"data error: cannot read {path / 'raw.csv'}: ")


    @pytest.mark.parametrize("name", ["aggregate.csv", "curve_decal_entropy_decal.svg"])
    def test_output_file_that_is_a_directory_is_data_error_before_writing(self, tmp_path, capsys, name):
        cfg = write_config(tmp_path, config_dict())
        out = tmp_path / "out"
        assert main(["run", "--config", cfg, "--out", str(out)]) == 0
        for path in out.iterdir():
            if path.name != "raw.csv":
                path.unlink()
        (out / name).mkdir()
        assert main(["report", "--in", str(out)]) == 2
        assert capsys.readouterr().err == f"data error: cannot write {out / name}: it is a directory\n"
        assert sorted(path.name for path in out.iterdir()) == sorted(["raw.csv", name])

    def test_row_fault_before_a_bad_byte_names_its_line(self, tmp_path, capsys):
        rows = ["strategy,init_mode,trial_seed,round,train_size,test_accuracy,epochs_used,relaxed_count",
                "random,random,0,0,10,7.5,3,0", "random,random,0,1,15,0.5,3,0", "random,random,0,2,20,0.5,3,0"]
        rows[3] = rows[3].replace("20", "2\udcff0")
        (tmp_path / "raw.csv").write_bytes("\n".join(rows).encode("utf-8", "surrogateescape") + b"\n")
        assert main(["report", "--in", str(tmp_path)]) == 2
        assert capsys.readouterr().err == (f"data error: {tmp_path / 'raw.csv'}:2: "
                                           "malformed row (test_accuracy must be in [0, 1], got 7.5)\n")


class TestArgumentErrors:
    def test_no_subcommand_is_config_error(self, capsys):
        assert main([]) == 1
        capsys.readouterr()

    def test_bad_flag_is_config_error(self, capsys):
        assert main(["gen", "--nonsense"]) == 1
        capsys.readouterr()

    def test_verbose_flag_is_gone(self, tmp_path, capsys):
        assert main(["-v", "gen", "--preset", "skewed", "--seed", "1", "--out", str(tmp_path / "x.csv")]) == 1
        assert "unrecognized arguments: -v" in capsys.readouterr().err


class TestConfigFileContents:
    """Config file bytes that json cannot read are a config error naming the file, before any trial."""

    @pytest.mark.parametrize("command", ["run", "compare"])
    @pytest.mark.parametrize("content, reason", [
        pytest.param(b'{"dataset": {"preset": "sk\xffewed"}}', "can't decode byte 0xff", id="not-utf8"),
        pytest.param(b"[" * 200_000 + b"]" * 200_000, "maximum recursion depth exceeded", id="deep-nesting"),
        pytest.param(b'{"dataset": {"preset": "skewed"}, "experiment": {"rounds": ' + b"9" * 5000 + b"}}",
                     "Exceeds the limit (4300 digits)", id="5000-digit-int"),
    ])
    def test_exits_1_naming_the_file(self, tmp_path, capsys, monkeypatch, command, content, reason):
        forbid_trials(monkeypatch)
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        args = (["run", "--config", str(bad)] if command == "run" else
                ["compare", "--config-a", write_config(tmp_path, config_dict()), "--config-b", str(bad),
                 "--round", "0"])
        assert main([*args, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"config error: invalid JSON in {bad}: ") and reason in err


class TestOutOfRangeInts:
    """Ints that JSON and argparse accept but numpy cannot draw or allocate are config errors."""

    @pytest.mark.parametrize("keys, named", [
        (("dataset", "synthetic", "images_per_patient", "high"), "images_per_patient high"),
        (("dataset", "synthetic", "images_per_patient", "low"), "images_per_patient high (default: low)"),
        (("dataset", "synthetic", "num_patients"), "num_patients"),
        (("dataset", "synthetic", "feature_dim"), "feature_dim"),
        (("learner", "hidden_width"), "hidden_width"),
    ], ids=["high", "low", "num_patients", "feature_dim", "hidden_width"])
    def test_2_to_the_64_exits_1_naming_the_key(self, tmp_path, capsys, keys, named):
        raw = config_dict()
        section = raw
        for key in keys[:-1]:
            section = section[key]
        section[keys[-1]] = 2**64
        if keys[-1] == "low":
            del section["high"]
        cfg = write_config(tmp_path, raw)
        assert main(["run", "--config", cfg, "--out", str(tmp_path / "o")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and named in err

    def test_negative_gen_seed_exits_1_before_generating(self, tmp_path, capsys, monkeypatch):
        def fail(*args, **kwargs):
            raise AssertionError("generated despite a bad --seed")

        monkeypatch.setattr("decal.cli.generate_synthetic", fail)
        out = tmp_path / "x.csv"
        assert main(["gen", "--preset", "skewed", "--seed", "-1", "--out", str(out)]) == 1
        assert capsys.readouterr().err == "config error: --seed must be >= 0, got -1\n"
        assert not out.exists()


# Values the config reader accepts for any int or float field: each is rejected by a check, or is
# harmless. Mid-size values that pass the checks and then allocate are left out on purpose, and
# loop counts take only the values that end a run at once, so every example finishes quickly.
_EXTREMES = [-1, -(2**64), 0, 2**63, 2**64, 10**30]
_LOOP_COUNTS = {"max_epochs", "rounds", "trials"}

_SYNTHETIC = st.fixed_dictionaries({
    "num_classes": st.integers(2, 4),
    "num_patients": st.integers(2, 16),
    "images_per_patient": st.fixed_dictionaries(
        {"kind": st.sampled_from(["uniform", "heavy_tailed"]), "low": st.integers(1, 4)},
        optional={"high": st.integers(4, 6), "skew": st.floats(1.1, 3.0)},
    ),
    "feature_dim": st.integers(1, 6),
    "class_separation": st.floats(0.5, 5.0),
    "patient_offset_scale": st.floats(0.0, 2.0),
    "test_fraction_of_patients": st.floats(0.1, 0.9),
    "noise_scale": st.floats(0.05, 1.0),
})

_VALID_RUN_CONFIGS = st.fixed_dictionaries({
    "dataset": st.one_of(
        st.fixed_dictionaries({"preset": st.sampled_from(sorted(PRESETS))}),
        st.fixed_dictionaries({"synthetic": _SYNTHETIC}, optional={
            "normalize": st.fixed_dictionaries({"mu": st.floats(-1.0, 1.0), "sigma": st.floats(0.1, 2.0)}),
        }),
    ),
    "learner": st.fixed_dictionaries({
        "hidden_width": st.integers(0, 8),
        "learning_rate": st.floats(1e-3, 0.5),
        "train_accuracy_target": st.floats(0.5, 1.0),
        "max_epochs": st.integers(0, 2),
        "minibatch_size": st.integers(1, 16),
    }),
    "experiment": st.fixed_dictionaries({
        "strategy": st.sampled_from(STRATEGIES),
        "init_mode": st.sampled_from(INIT_MODES),
        "init_size": st.integers(1, 8),
        "batch_size": st.integers(1, 4),
        "rounds": st.integers(0, 2),
        "trials": st.integers(1, 2),
        "base_seed": st.integers(0, 5),
    }),
})


def _numeric_fields(section):
    """(object, key) of every int or float value in a nested config section."""
    for key, value in section.items():
        if isinstance(value, dict):
            yield from _numeric_fields(value)
        elif isinstance(value, (int, float)):
            yield section, key


@st.composite
def _run_configs(draw):
    """A valid small config with up to two of its numbers replaced by extremes."""
    raw = draw(_VALID_RUN_CONFIGS)
    fields = list(_numeric_fields(raw))
    for i in draw(st.lists(st.integers(0, len(fields) - 1), max_size=2, unique=True)):
        section, key = fields[i]
        section[key] = draw(st.sampled_from([v for v in _EXTREMES if v <= 0] if key in _LOOP_COUNTS else _EXTREMES))
    return raw


_UNTYPED_ERROR = re.compile(r"^error: [A-Za-z_]\w*: ", re.MULTILINE)


# Field values for the report fuzz: extreme ints, non-finite and out-of-range floats, an empty
# field, an int past Python's 4300-digit parse limit, and a byte that is not UTF-8.
_RAW_FIELD_EXTREMES = [*map(str, _EXTREMES), "nan", "-inf", "1e999", "-0.0", "", "9" * 5000, "\udcff"]


class TestCliFuzz:
    """Every command ends every input with exit 0-3 and never with an untyped error."""

    @staticmethod
    def check_main(argv):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main(argv)
        assert code in (0, 1, 2, 3), stderr.getvalue()
        assert not _UNTYPED_ERROR.search(stderr.getvalue()), stderr.getvalue()
        return code, stderr.getvalue()

    @settings(max_examples=60, deadline=None)
    @given(raw=_run_configs(), workers=st.one_of(st.just(1), st.sampled_from([-1, 0])))  # no pool starts
    def test_run(self, raw, workers):
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            self.check_main(["run", "--config", path, "--out", os.path.join(tmp, "out"),
                             "--workers", str(workers)])

    @settings(max_examples=25, deadline=None)
    @given(raw=_VALID_RUN_CONFIGS.filter(lambda raw: "synthetic" in raw["dataset"]), past=st.booleans())
    def test_run_at_the_label_budget(self, raw, past):
        # init_size + rounds x batch_size is the pool size, or one past it
        try:
            cfg = parse_config(raw)
            pool = len(build_dataset(cfg.dataset, cfg.base_seed).pool)
        except DecalError:
            assume(False)
        experiment = raw["experiment"]
        if pool + past - experiment["rounds"] * experiment["batch_size"] < 1:
            experiment["rounds"] = 0
        experiment["init_size"] = pool + past - experiment["rounds"] * experiment["batch_size"]
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "config.json")
            with open(path, "w", encoding="utf-8") as fh:
                json.dump(raw, fh)
            code, err = self.check_main(["run", "--config", path, "--out", os.path.join(tmp, "out")])
        assert (code, "label budget" in err) == ((1, True) if past else (0, False)), err

    @settings(max_examples=30, deadline=None)
    @given(command=st.sampled_from(["run", "compare", "gen", "report"]), bad=st.sampled_from(["read", "write"]),
           depth=st.integers(0, 2))
    def test_bad_paths(self, command, bad, depth):
        # "read": --config(-b) names a directory (gen: --out does; report: --in has no raw.csv);
        # "write": --out (report: --in) is a regular file or lies up to two levels under one
        with tempfile.TemporaryDirectory() as tmp:
            config = write_config(pathlib.Path(tmp), config_dict(rounds=0, trials=1))
            blocker = os.path.join(tmp, "file")
            with open(blocker, "w", encoding="utf-8") as fh:
                fh.write("")
            under_file = os.path.join(blocker, *["sub"] * depth)
            read, out = (tmp, os.path.join(tmp, "out")) if bad == "read" else (config, under_file)
            argv = {
                "run": ["run", "--config", read, "--out", out],
                "compare": ["compare", "--config-a", config, "--config-b", read, "--round", "0", "--out", out],
                "gen": ["gen", "--preset", "skewed", "--seed", "0",
                        "--out", tmp if bad == "read" else os.path.join(under_file, "d.csv")],
                "report": ["report", "--in", tmp if bad == "read" else under_file],
            }[command]
            code, err = self.check_main(argv)
        assert code == (2 if command == "report" else 1), err

    @settings(max_examples=15, deadline=None)
    @given(preset=st.sampled_from(sorted(PRESETS)), seed=st.one_of(st.integers(0, 5), st.sampled_from(_EXTREMES)))
    def test_gen(self, preset, seed):
        with tempfile.TemporaryDirectory() as tmp:
            self.check_main(["gen", "--preset", preset, "--seed", str(seed), "--out", os.path.join(tmp, "d.csv")])

    @settings(max_examples=30, deadline=None)
    @given(raw=_run_configs(), round_index=st.one_of(st.integers(0, 2), st.sampled_from(_EXTREMES)))
    def test_compare(self, raw, round_index):
        other = copy.deepcopy(raw)
        other["experiment"]["init_mode"] = next(m for m in INIT_MODES if m != raw["experiment"]["init_mode"])
        with tempfile.TemporaryDirectory() as tmp:
            paths = [os.path.join(tmp, "a.json"), os.path.join(tmp, "b.json")]
            for path, cfg in zip(paths, (raw, other)):
                with open(path, "w", encoding="utf-8") as fh:
                    json.dump(cfg, fh)
            self.check_main(["compare", "--config-a", paths[0], "--config-b", paths[1],
                             "--round", str(round_index), "--out", os.path.join(tmp, "out")])

    @pytest.fixture(scope="class")
    def tiny_raw_rows(self, tmp_path_factory):
        """The rows of ``raw.csv`` from one tiny run: 2 trials of 2 rounds."""
        tmp = tmp_path_factory.mktemp("tiny")
        self.check_main(["run", "--config", write_config(tmp, config_dict()), "--out", str(tmp / "out")])
        return list(csv.reader(io.StringIO((tmp / "out" / "raw.csv").read_text(encoding="utf-8"))))

    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), value=st.sampled_from(_RAW_FIELD_EXTREMES))
    def test_report(self, tiny_raw_rows, data, value):
        rows = copy.deepcopy(tiny_raw_rows)
        row = rows[data.draw(st.integers(1, len(rows) - 1))]
        row[data.draw(st.integers(0, len(row) - 1))] = value
        with tempfile.TemporaryDirectory() as tmp:
            with open(os.path.join(tmp, "raw.csv"), "w", newline="", encoding="utf-8",
                      errors="surrogateescape") as fh:
                csv.writer(fh, lineterminator="\n").writerows(rows)
            self.check_main(["report", "--in", tmp])
