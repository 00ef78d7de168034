"""Shared construction helpers for the test suite."""

from __future__ import annotations

import errno
import io
import os
import tracemalloc
from pathlib import Path

import numpy as np

from decal import data, experiment
from decal.data import DatasetSplit, SampleSet, encode_names
from decal.errors import TrainingDiverged
from decal.learner import Model, train_lockstep


def make_sampleset(rows):
    """Build a SampleSet from (id, patient, features, label) tuples."""
    ids = [r[0] for r in rows]
    patients = [r[1] for r in rows]
    features = np.array([r[2] for r in rows], dtype=np.float64)
    labels = [r[3] for r in rows]
    return SampleSet(ids, encode_names(patients), features, labels)


def batch_ids(pool, batch) -> list[int]:
    """The sample ids of a batch of pool rows, in batch order: the form an id-keyed oracle gives."""
    return pool.ids[list(batch.members)].tolist()


def rows_of(part, sample_ids) -> np.ndarray:
    """The row of each sample id in ``part``, asserting that every id is there."""
    ids = np.asarray(sample_ids, dtype=np.int64)
    rows = np.searchsorted(part.ids, ids)
    assert (rows < len(part)).all() and np.array_equal(part.ids[rows], ids), f"ids not all in the set: {ids}"
    return rows


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


def train_solo(model, x, y, cfg, seed):
    """Train one model as a lockstep stack of one; a diverged trial raises its TrainingDiverged."""
    (outcome,) = train_lockstep([model], np.asarray(x)[None], np.asarray(y)[None], cfg, [seed])
    if isinstance(outcome, TrainingDiverged):
        raise outcome
    return outcome


def split_equal(a, b) -> bool:
    def part_equal(x, y):
        return (
            np.array_equal(x.ids, y.ids)
            and np.array_equal(x.patient_codes, y.patient_codes)
            and x.patient_names == y.patient_names
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


def traced_peak(fn, *args):
    """``fn(*args)`` and the peak bytes that tracemalloc traced while it ran."""
    tracemalloc.start()
    try:
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def allow_cpus(monkeypatch, cpus):
    """Let ``workers`` up to ``cpus`` start that many pool processes, whatever CPUs the host lets this process use."""
    monkeypatch.setattr(experiment, "_usable_cpus", lambda: cpus)


def forbid_trials(monkeypatch):
    """Make any trial that starts fail the test."""
    def fail(*args, **kwargs):
        raise AssertionError("a trial ran")

    monkeypatch.setattr(experiment._Trial, "label_batch", fail)


class _EioAfter(io.RawIOBase):
    """Raw bytes that read as ``data`` and then fail with EIO, as a disk that breaks mid-file does."""

    def __init__(self, data: bytes):
        self.data, self.pos = data, 0

    def readable(self):
        return True

    def readinto(self, buf):
        if self.pos == len(self.data):
            raise OSError(errno.EIO, os.strerror(errno.EIO))
        n = min(len(buf), len(self.data) - self.pos)
        buf[:n] = self.data[self.pos:self.pos + n]
        self.pos += n
        return n


def fail_reads_after(monkeypatch, path, n_bytes):
    """Make ``decal.data`` open ``path`` as a file whose reads raise EIO past its first ``n_bytes``."""
    def opener(file, mode="r", **kwargs):
        if Path(file) != Path(path):
            return open(file, mode, **kwargs)
        return io.TextIOWrapper(io.BufferedReader(_EioAfter(Path(path).read_bytes()[:n_bytes])), **kwargs)

    monkeypatch.setattr(data, "open", opener, raising=False)
