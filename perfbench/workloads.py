"""Workload inputs: config files, the stress CSV fixture and the operations to run.

Every input is a pure function of (workload, seed, smoke) and is written
before timing starts. The program under test only sees these files.

All workloads train with a fixed epoch budget (``train_accuracy_target`` 1.0,
a per-workload ``max_epochs``, the default learning rate). With the default 0.98 target
the number of epochs to early-stop swings 3-4x between seeds, so the work in
a run, and with it any wall time, would depend more on the seed than on the
program. A target of 1.0 is rarely reached, so every round trains for about
the same number of steps and the runs of different seeds do the same work.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

PAPER_STRATEGIES = (
    "random", "entropy", "margin", "least_confidence", "badge",
    "decal_random", "decal_entropy", "decal_margin", "decal_least_confidence", "decal_badge",
)
STRESS_STRATEGIES = ("entropy", "decal_entropy", "badge", "decal_badge")
CSV_STRATEGY = "decal_margin"
CSV_WORKERS = 2

# The large-uniform generator with 7500 patients: a 48k-image pool and a 12k test set.
STRESS_SYNTHETIC = {
    "num_classes": 3,
    "num_patients": 7500,
    "images_per_patient": {"kind": "uniform", "low": 8, "high": 8},
    "feature_dim": 6,
    "class_separation": 3.0,
    "patient_offset_scale": 0.5,
    "test_fraction_of_patients": 0.2,
    "noise_scale": 0.3,
}
SMOKE_PATIENTS = 750

WORKLOADS = ("paper-grid", "stress-select", "csv-workers")


@dataclass(frozen=True)
class Shape:
    """Experiment sizes of one workload, as written into its configs."""

    rounds: int
    trials: int
    max_epochs: int
    init_size: int = 128
    batch_size: int = 128


# Full-size shapes, cut from the paper's 20 rounds and 5 trials so that a
# workload iteration takes a few seconds and a run repeats it several times.
# stress-select trains its small labeled sets for 200 epochs: after 60, its
# final accuracy still ranged 0.69-0.99 over seeds 1-10; after 200, 0.96-0.99.
SHAPES = {
    "paper-grid": Shape(rounds=3, trials=1, max_epochs=60),
    "stress-select": Shape(rounds=1, trials=1, max_epochs=200),
    "csv-workers": Shape(rounds=3, trials=4, max_epochs=60),
}
SMOKE_SHAPES = {
    name: Shape(rounds=1, trials=shape.trials, max_epochs=2, init_size=32, batch_size=32)
    for name, shape in SHAPES.items()
}


@dataclass(frozen=True)
class Op:
    """One `decal` invocation and what its output must look like."""

    name: str
    kind: str  # "run" or "report"
    argv: tuple[str, ...]
    config_path: Path
    out_dir: Path
    strategy: str
    init_mode: str
    base_seed: int
    shape: Shape


@dataclass(frozen=True)
class Workload:
    name: str
    seed: int
    smoke: bool
    ops: tuple[Op, ...]
    setup_config: Path  # config whose dataset source set-up time is measured on


def _write_config(path: Path, dataset: dict, strategy: str, seed: int, shape: Shape) -> Path:
    config = {
        "dataset": dataset,
        "learner": {"train_accuracy_target": 1.0, "max_epochs": shape.max_epochs},
        "experiment": {
            "strategy": strategy,
            "init_mode": "decal",
            "init_size": shape.init_size,
            "batch_size": shape.batch_size,
            "rounds": shape.rounds,
            "trials": shape.trials,
            "base_seed": seed,
        },
    }
    path.write_text(json.dumps(config, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    return path


def _run_op(work: Path, dataset: dict, strategy: str, seed: int, shape: Shape,
            workers: int = 1) -> Op:
    config = _write_config(work / f"config_{strategy}.json", dataset, strategy, seed, shape)
    out = work / f"out_{strategy}"
    argv = ("run", "--config", str(config), "--out", str(out))
    if workers > 1:
        argv += ("--workers", str(workers))
    return Op(f"run:{strategy}", "run", argv, config, out, strategy, "decal", seed, shape)


def _write_stress_csv(path: Path, synthetic: dict, seed: int) -> None:
    """Untimed fixture: the stress-select dataset, written with decal's own CSV writer."""
    from decal.config import parse_synthetic
    from decal.data import generate_synthetic, write_dataset

    write_dataset(generate_synthetic(parse_synthetic(synthetic), seed), path)


def build(name: str, seed: int, work: Path, smoke: bool = False) -> Workload:
    """Write the inputs of one workload under ``work`` and list its operations."""
    if name not in WORKLOADS:
        raise ValueError(f"unknown workload {name!r}; expected one of {WORKLOADS}")
    shape = (SMOKE_SHAPES if smoke else SHAPES)[name]
    synthetic = dict(STRESS_SYNTHETIC, num_patients=SMOKE_PATIENTS) if smoke else STRESS_SYNTHETIC

    if name == "paper-grid":
        dataset = {"preset": "large-uniform"}
        ops = [_run_op(work, dataset, s, seed, shape) for s in PAPER_STRATEGIES]
    elif name == "stress-select":
        dataset = {"synthetic": synthetic}
        ops = [_run_op(work, dataset, s, seed, shape) for s in STRESS_STRATEGIES]
    else:
        csv_path = work / "stress.csv"
        _write_stress_csv(csv_path, synthetic, seed)
        dataset = {"csv_path": str(csv_path)}
        run = _run_op(work, dataset, CSV_STRATEGY, seed, shape, workers=CSV_WORKERS)
        report = Op(f"report:{CSV_STRATEGY}", "report", ("report", "--in", str(run.out_dir)),
                    run.config_path, run.out_dir, CSV_STRATEGY, "decal", seed, shape)
        ops = [run, report]
    return Workload(name, seed, smoke, tuple(ops), ops[0].config_path)
