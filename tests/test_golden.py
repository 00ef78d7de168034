"""Golden ``raw.csv`` digests: selection behaviour pinned byte for byte.

Every strategy runs under both init modes, 2 trials each, on the ``skewed``
preset with base seed 3, and the sha256 of each experiment's ``raw.csv``
must equal the value committed in ``golden_raw.json``. The ``relaxed`` shape
asks for 64-image batches from a pool of only 45 patients, so every
``decal_*`` batch and every decal init takes the relaxed fill path.

Change the committed digests only for an intended behaviour change, and
record the reason with the change. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py > tests/golden_raw.json``.

The other files decal writes are pinned by the ``*_SHA256`` constants below:
the dataset CSV of ``decal gen``, ``aggregate.csv`` of one golden run, and
the ``comparison.csv`` of one small ``decal compare``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from decal.cli import main
from decal.data import write_dataset
from decal.data import DatasetSplit
from decal.experiment import DatasetSource, ExperimentConfig, aggregate_curve, build_dataset, run_trial
from decal.learner import LearnerConfig
from decal.patients import INIT_MODES, STRATEGIES
from decal.report import write_aggregate_csv, write_raw_csv

GOLDEN_PATH = Path(__file__).with_name("golden_raw.json")
BASE_SEED = 3
SKEWED = DatasetSource(preset="skewed")
# A slow learner, so that test accuracy and epochs_used both respond to
# which samples were picked and in what order.
LEARNER = LearnerConfig(
    hidden_width=8, learning_rate=0.01, train_accuracy_target=0.99,
    max_epochs=15, minibatch_size=32,
)
# shape name -> (init_size, batch_size, rounds)
SHAPES = {"small": (16, 16, 3), "relaxed": (64, 64, 2)}

# `decal gen --preset skewed --seed 3`
GEN_SHA256 = "123b56cbe63a97eeb70e7d1979a399cfea65cd4a3a306487f88bfad192812027"
# aggregate.csv of the golden run small/margin/random
AGGREGATE_SHA256 = "ae60b5e135e4b8d27aeab518e9175ed6ad2711758676f1d4c12ed19a2141814c"
# comparison.csv of `decal compare` at round 1 of small/entropy, decal init against random
COMPARISON_SHA256 = "ee84a9bbf7aefc2cff6f420b9ee9482f47a7555525021a583d0cee7e1c10ba6d"


def golden_records(source: DatasetSource, dataset: DatasetSplit, strategy: str, init_mode: str,
                   shape: str) -> list:
    """Records of one 2-trial experiment, run serially on ``dataset``."""
    init_size, batch_size, rounds = SHAPES[shape]
    cfg = ExperimentConfig(
        dataset=source, learner=LEARNER, strategy=strategy, init_mode=init_mode,
        init_size=init_size, batch_size=batch_size, rounds=rounds, trials=2,
        base_seed=BASE_SEED,
    )
    return [r for seed in (BASE_SEED, BASE_SEED + 1) for r in run_trial(cfg, seed, dataset=dataset)]


def file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def raw_digest(source: DatasetSource, dataset: DatasetSplit, strategy: str, init_mode: str,
               shape: str) -> str:
    """sha256 of the raw.csv of one 2-trial experiment, run serially on ``dataset``."""
    records = golden_records(source, dataset, strategy, init_mode, shape)
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        write_raw_csv([((strategy, init_mode), records)], path)
        return file_digest(path)


def golden_key(shape: str, strategy: str, init_mode: str) -> str:
    return f"{shape}/{strategy}/{init_mode}"


@pytest.fixture(scope="module")
def golden() -> dict[str, str]:
    return json.loads(GOLDEN_PATH.read_text(encoding="utf-8"))


@pytest.fixture(scope="module")
def skewed() -> DatasetSplit:
    return build_dataset(SKEWED, BASE_SEED)


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_raw_csv_matches_golden(golden, skewed, strategy):
    mismatched = [
        golden_key(shape, strategy, init_mode)
        for shape in SHAPES
        for init_mode in INIT_MODES
        if raw_digest(SKEWED, skewed, strategy, init_mode, shape) != golden[golden_key(shape, strategy, init_mode)]
    ]
    assert not mismatched, f"raw.csv digests changed: {mismatched}"


def test_shuffled_csv_rows_give_same_digests(golden, skewed, tmp_path):
    """Selection follows ascending sample id, never the order of CSV rows."""
    in_order = tmp_path / "in_order.csv"
    write_dataset(skewed, in_order)
    header, *rows = in_order.read_text(encoding="utf-8").splitlines()
    shuffled_rows = [rows[i] for i in np.random.default_rng(0).permutation(len(rows))]
    ids = [int(row.split(",", 1)[0]) for row in shuffled_rows]
    assert ids != sorted(ids)
    shuffled = tmp_path / "shuffled.csv"
    shuffled.write_text("\n".join([header, *shuffled_rows]) + "\n", encoding="utf-8")

    source = DatasetSource(csv_path=str(shuffled))
    dataset = build_dataset(source, BASE_SEED)
    mismatched = [
        golden_key("small", strategy, init_mode)
        for strategy in STRATEGIES
        for init_mode in INIT_MODES
        if raw_digest(source, dataset, strategy, init_mode, "small") != golden[golden_key("small", strategy, init_mode)]
    ]
    assert not mismatched, f"shuffled CSV changed raw.csv digests: {mismatched}"


def test_gen_csv_matches_golden(tmp_path, capsys):
    out = tmp_path / "skewed.csv"
    assert main(["gen", "--preset", "skewed", "--seed", str(BASE_SEED), "--out", str(out)]) == 0
    capsys.readouterr()
    assert file_digest(out) == GEN_SHA256


def test_aggregate_csv_matches_golden(skewed, tmp_path):
    records = golden_records(SKEWED, skewed, "margin", "random", "small")
    path = tmp_path / "aggregate.csv"
    write_aggregate_csv([(("margin", "random"), aggregate_curve(records))], path)
    assert file_digest(path) == AGGREGATE_SHA256


def test_comparison_csv_matches_golden(tmp_path, capsys):
    init_size, batch_size, rounds = SHAPES["small"]
    configs = []
    for init_mode in ("decal", "random"):
        raw = {
            "dataset": {"preset": SKEWED.preset},
            "learner": dataclasses.asdict(LEARNER),
            "experiment": {
                "strategy": "entropy", "init_mode": init_mode, "init_size": init_size,
                "batch_size": batch_size, "rounds": rounds, "trials": 2, "base_seed": BASE_SEED,
            },
        }
        configs.append(tmp_path / f"{init_mode}.json")
        configs[-1].write_text(json.dumps(raw), encoding="utf-8")
    out = tmp_path / "cmp"
    code = main(["compare", "--config-a", str(configs[0]), "--config-b", str(configs[1]),
                 "--round", "1", "--out", str(out)])
    capsys.readouterr()
    assert code == 0
    assert file_digest(out / "comparison.csv") == COMPARISON_SHA256


if __name__ == "__main__":
    split = build_dataset(SKEWED, BASE_SEED)
    digests = {
        golden_key(shape, strategy, init_mode): raw_digest(SKEWED, split, strategy, init_mode, shape)
        for shape in SHAPES
        for strategy in STRATEGIES
        for init_mode in INIT_MODES
    }
    json.dump(digests, sys.stdout, indent=2)
    sys.stdout.write("\n")
