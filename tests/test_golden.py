"""Golden ``raw.csv`` digests: selection behaviour pinned byte for byte.

Every strategy runs under both init modes, 2 trials each, on the ``skewed``
preset with base seed 3, and the sha256 of each experiment's ``raw.csv``
must equal the value committed in ``golden_raw.json``. The ``relaxed`` shape
asks for 64-image batches from a pool of only 45 patients, so every
``decal_*`` batch and every decal init takes the relaxed fill path.

Change the committed digests only for an intended behaviour change, and
record the reason with the change. Regenerate them with
``PYTHONPATH=src python tests/test_golden.py > tests/golden_raw.json``.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from decal.data import write_dataset
from decal.data import DatasetSplit
from decal.experiment import DatasetSource, ExperimentConfig, build_dataset, run_trial
from decal.learner import LearnerConfig
from decal.patients import INIT_MODES, STRATEGIES
from decal.report import write_raw_csv

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


def raw_digest(source: DatasetSource, dataset: DatasetSplit, strategy: str, init_mode: str,
               shape: str) -> str:
    """sha256 of the raw.csv of one 2-trial experiment, run serially on ``dataset``."""
    init_size, batch_size, rounds = SHAPES[shape]
    cfg = ExperimentConfig(
        dataset=source, learner=LEARNER, strategy=strategy, init_mode=init_mode,
        init_size=init_size, batch_size=batch_size, rounds=rounds, trials=2,
        base_seed=BASE_SEED,
    )
    records = [r for seed in (BASE_SEED, BASE_SEED + 1) for r in run_trial(cfg, seed, dataset=dataset)]
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "raw.csv"
        write_raw_csv([((strategy, init_mode), records)], path)
        return hashlib.sha256(path.read_bytes()).hexdigest()


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
