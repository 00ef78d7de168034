"""Shared construction helpers for the test suite."""

from __future__ import annotations

import numpy as np

from decal import experiment
from decal.data import DatasetSplit, SampleSet
from decal.learner import Model


def make_sampleset(rows):
    """Build a SampleSet from (id, patient, features, label) tuples."""
    ids = [r[0] for r in rows]
    patients = [r[1] for r in rows]
    features = np.array([r[2] for r in rows], dtype=np.float64)
    labels = [r[3] for r in rows]
    return SampleSet(ids, patients, features, labels)


def make_split(pool_rows, test_rows, num_classes=None):
    pool = make_sampleset(pool_rows)
    test = make_sampleset(test_rows)
    if num_classes is None:
        num_classes = int(max(pool.labels.max(), test.labels.max())) + 1
    return DatasetSplit(pool=pool, test=test, num_classes=num_classes,
                        feature_dim=pool.feature_dim)


def linear_model(w_out, b_out):
    """A linear softmax model with explicit parameters."""
    w = np.array(w_out, dtype=np.float64)
    b = np.array(b_out, dtype=np.float64)
    return Model(w_hidden=None, b_hidden=None, w_out=w, b_out=b,
                 feature_dim=w.shape[0], num_classes=w.shape[1])


def split_equal(a, b) -> bool:
    def part_equal(x, y):
        return (
            np.array_equal(x.ids, y.ids)
            and x.patients == y.patients
            and np.array_equal(x.features, y.features)
            and np.array_equal(x.labels, y.labels)
        )

    return (
        a.num_classes == b.num_classes
        and a.feature_dim == b.feature_dim
        and part_equal(a.pool, b.pool)
        and part_equal(a.test, b.test)
    )


def write_reversed_test_csv(path, per_class=20):
    """A 1-feature, 2-class CSV whose pool puts class 0 at f0 < 0 and class 1 at
    f0 > 0 while the test split has the reverse, so a model that fits the pool
    scores 0 on the test split. Every sample is its own patient."""
    lines = ["sample_id,patient_id,label,split,f0"]
    for split, sign in (("pool", 1.0), ("test", -1.0)):
        for i in range(per_class):
            for label in (0, 1):
                sid = len(lines) - 1
                f0 = sign * (1.0 + 0.1 * i) * (1 if label else -1)
                lines.append(f"{sid},p{sid},{label},{split},{f0!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


def inject_at_round(monkeypatch, fault):
    """Call ``fault(cfg, trial_seed, round_index)`` as each trial records a round.

    This is the per-trial seam of the lockstep runner, where a diverged round
    surfaces: a ``TrainingDiverged`` raised here fails that trial alone, and
    the fork start method carries the patch into pool workers.
    """
    record_round = experiment._Trial.record_round

    def faulty(trial, round_index, *args):
        fault(trial.cfg, trial.seed, round_index)
        return record_round(trial, round_index, *args)

    monkeypatch.setattr(experiment._Trial, "record_round", faulty)


def forbid_trials(monkeypatch):
    """Make any trial that starts fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment._Trial, "label_batch", fail)
