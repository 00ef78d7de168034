"""Output checks for every operation, independent of decal's own readers.

A `run` operation must leave a `raw.csv` with trials x (rounds + 1) records
in trial and round order, train sizes init + r * batch, relaxed counts within
the batch, and an `aggregate.csv`. A `report` operation must regenerate that
`aggregate.csv` byte for byte. Digests are compared with the reference
digests stored for the default seed, and with the first iteration of the run.

reference.json changes only with a behaviour change that was meant: rerun each
workload with `--seed 0` and copy the `digest <op> <sha256>` lines it prints.
"""

from __future__ import annotations

import csv
import hashlib
import json
import shutil
from pathlib import Path

from workloads import Op, Workload

RAW_FIELDS = [
    "strategy", "init_mode", "trial_seed", "round", "train_size",
    "test_accuracy", "epochs_used", "relaxed_count",
]
REFERENCE_FILE = Path(__file__).with_name("reference.json")


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def load_reference(workload: Workload) -> dict[str, str] | None:
    """Reference digests by op name, or None where none is stored for this seed."""
    if workload.smoke:
        return None
    reference = json.loads(REFERENCE_FILE.read_text(encoding="utf-8"))
    if workload.seed != reference["seed"]:
        return None
    return reference["digests"].get(workload.name)


def raw_structure_error(op: Op, path: Path) -> str | None:
    """Why raw.csv breaks the run's shape, or None if it holds."""
    shape = op.shape
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != RAW_FIELDS:
        return f"raw.csv header {rows[0] if rows else None}"
    records = rows[1:]
    expected_rows = shape.trials * (shape.rounds + 1)
    if len(records) != expected_rows:
        return f"raw.csv has {len(records)} records, expected {expected_rows}"
    for index, row in enumerate(records):
        trial, round_index = divmod(index, shape.rounds + 1)
        if len(row) != len(RAW_FIELDS):
            return f"raw.csv record {index} has {len(row)} fields"
        strategy, init_mode, trial_seed, rnd, train_size, accuracy, epochs, relaxed = row
        try:
            values = (int(trial_seed), int(rnd), int(train_size), float(accuracy),
                      int(epochs), int(relaxed))
        except ValueError as exc:
            return f"raw.csv record {index}: {exc}"
        trial_seed, rnd, train_size, accuracy, epochs, relaxed = values
        limit = shape.init_size if round_index == 0 else shape.batch_size
        problems = [
            (strategy, init_mode) != (op.strategy, op.init_mode) and "strategy/init_mode",
            trial_seed != op.base_seed + trial and "trial_seed",
            rnd != round_index and "round",
            train_size != shape.init_size + round_index * shape.batch_size and "train_size",
            not 0.0 <= accuracy <= 1.0 and "test_accuracy",
            not 0 <= epochs <= shape.max_epochs and "epochs_used",
            not 0 <= relaxed <= limit and "relaxed_count",
        ]
        bad = [p for p in problems if p]
        if bad:
            return f"raw.csv record {index}: bad {', '.join(bad)}: {row}"
    return None


def final_accuracy(path: Path, rounds: int) -> float:
    """Mean over trials of the final-round test accuracy in raw.csv."""
    with open(path, newline="", encoding="utf-8") as fh:
        finals = [float(r["test_accuracy"]) for r in csv.DictReader(fh) if int(r["round"]) == rounds]
    return sum(finals) / len(finals)


class Checker:
    """Checks each operation's output; keeps the digests seen across iterations."""

    def __init__(self, reference: dict[str, str] | None):
        self.reference = reference
        self.first: dict[str, str] = {}  # op name -> digest in the first iteration
        self.digests: dict[str, str] = {}  # op name -> digest in the latest iteration
        self.final_acc: dict[str, float] = {}  # run op name -> final-round mean accuracy
        self._aggregate: dict[Path, str] = {}  # out dir -> aggregate.csv digest written by run

    def prepare(self, op: Op) -> None:
        """Remove what the op is about to write, so a check never sees stale output."""
        if op.kind == "run":
            shutil.rmtree(op.out_dir, ignore_errors=True)
            return
        for path in [op.out_dir / "aggregate.csv", *op.out_dir.glob("*.svg")]:
            path.unlink(missing_ok=True)

    def check(self, op: Op) -> str | None:
        """None if the op's output is correct, else the reason it is not."""
        try:
            if op.kind == "run":
                error, digest = self._check_run(op)
            else:
                error, digest = self._check_report(op)
        except (OSError, ValueError, KeyError, ZeroDivisionError) as exc:
            return f"output check raised {type(exc).__name__}: {exc}"
        if error:
            return error
        self.digests[op.name] = digest
        first = self.first.setdefault(op.name, digest)
        if digest != first:
            return f"digest {digest} differs from this run's first iteration {first}"
        if self.reference is not None and self.reference.get(op.name) != digest:
            return f"digest {digest} differs from reference {self.reference.get(op.name)}"
        return None

    def _check_run(self, op: Op) -> tuple[str | None, str]:
        raw = op.out_dir / "raw.csv"
        aggregate = op.out_dir / "aggregate.csv"
        if not raw.is_file() or not aggregate.is_file():
            return "raw.csv or aggregate.csv missing", ""
        error = raw_structure_error(op, raw)
        if error:
            return error, ""
        self._aggregate[op.out_dir] = sha256(aggregate)
        self.final_acc[op.name] = final_accuracy(raw, op.shape.rounds)
        return None, sha256(raw)

    def _check_report(self, op: Op) -> tuple[str | None, str]:
        written = self._aggregate.pop(op.out_dir, None)
        if written is None:
            return "no checked run output to regenerate", ""
        digest = sha256(op.out_dir / "aggregate.csv")
        if digest != written:
            return "regenerated aggregate.csv differs from the one the run wrote", ""
        if not any(op.out_dir.glob("curve_*.svg")):
            return "no learning-curve SVG written", ""
        return None, digest
