"""Span tracing around the public functions of decal's modules, from outside.

Each wrapper is installed on the module the caller looks the name up in, so
`decal.learner.evaluate` also catches the per-epoch calls inside
`train_round`, and `decal.cli.run_experiment` catches what the CLI calls.
A span is (name, start, end, parent). Spans stay in memory until the run
ends; pool workers forked by `run_experiment --workers` inherit the wrappers
and write their spans to a spool file at the end of every trial, which the
parent merges after the operation.

Self time of a span is its duration minus the union of its children's
intervals, so parallel children from two workers are not counted twice.
"""

from __future__ import annotations

import importlib
import json
import os
from array import array
from collections import Counter
from pathlib import Path
from statistics import median
from time import perf_counter


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_train(counts, args, kwargs, result) -> None:
    counts["learner.epochs"] += result.epochs_used
    counts["learner.reached_target"] += bool(result.reached_target)


def _count_select(counts, args, kwargs, result) -> None:
    counts["patients.candidates"] += len(_arg(args, kwargs, 3, "candidate_ids"))
    counts["patients.relaxed"] += result.relaxed_count


def _count_trial(counts, args, kwargs, result) -> None:
    counts["experiment.rounds"] += len(result)


def _count_report(counts, args, kwargs, result) -> None:
    for value in result.values():
        for path in value if isinstance(value, list) else [value]:
            counts["report.bytes"] += os.path.getsize(path)


# (module, attribute, span name, counter hook). The module is the one the
# caller looks the name up in, which is not always where it is defined.
WRAPPED = (
    ("decal.cli", "load_config_file", "config.load", None),
    ("decal.cli", "run_experiment", "experiment.run", None),
    ("decal.cli", "emit_report", "report.emit", _count_report),
    ("decal.cli", "regenerate_report", "report.regenerate", _count_report),
    ("decal.experiment", "run_trial", "experiment.trial", _count_trial),
    ("decal.experiment", "aggregate_curve", "experiment.aggregate", None),
    ("decal.report", "aggregate_curve", "experiment.aggregate", None),
    ("decal.experiment", "build_dataset", "data.build", None),
    ("decal.experiment", "generate_synthetic", "data.generate", None),
    ("decal.experiment", "load_dataset", "data.load_csv", None),
    ("decal.data", "LabeledSet.features", "data.labeled_features", None),
    ("decal.learner", "init_model", "learner.init", None),
    ("decal.learner", "train_round", "learner.train", _count_train),
    ("decal.learner", "evaluate", "learner.eval", None),
    ("decal.learner", "cross_entropy_loss_and_grads", "learner.loss_grads", None),
    ("decal.learner", "predict_proba", "learner.predict_proba", None),
    ("decal.learner", "gradient_embedding", "learner.gradient_embedding", None),
    ("decal.acquisition", "make_ranking", "acquisition.make_ranking", None),
    ("decal.acquisition", "score_rows", "acquisition.score_rows", None),
    ("decal.acquisition", "select_top_k", "acquisition.select_top_k", None),
    ("decal.acquisition", "select_badge", "acquisition.select_badge", None),
    ("decal.acquisition", "select_random", "acquisition.select_random", None),
    ("decal.patients", "select_query_batch", "patients.select", _count_select),
    ("decal.patients", "constrain_unique_patients", "patients.constrain", None),
    ("decal.patients", "select_badge_unique_patients", "patients.badge_unique", None),
    ("decal.patients", "decal_initialize", "patients.init", None),
    ("decal.patients", "random_initialize", "patients.init", None),
)
TRIAL_SPAN = "experiment.trial"

# Per-layer metrics: (name, unit). `*_s` is inclusive time unless named `self`.
LAYER_METRICS = (
    ("learner.train_s", "s"), ("learner.train_calls", "count"), ("learner.epochs", "count"),
    ("learner.steps", "count"), ("learner.step_us", "us"), ("learner.loss_grads_s", "s"),
    ("learner.eval_s", "s"), ("learner.eval_calls", "count"), ("learner.reached_target_frac", "ratio"),
    ("learner.predict_proba_s", "s"), ("learner.gradient_embedding_s", "s"),
    ("acquisition.make_ranking_s", "s"), ("acquisition.score_rows_s", "s"),
    ("acquisition.select_top_k_s", "s"), ("acquisition.select_badge_s", "s"),
    ("acquisition.select_random_s", "s"),
    ("patients.select_s", "s"), ("patients.select_self_s", "s"), ("patients.constrain_s", "s"),
    ("patients.badge_unique_s", "s"), ("patients.init_s", "s"), ("patients.candidates", "count"),
    ("patients.relaxed", "count"),
    ("experiment.run_s", "s"), ("experiment.trial_s", "s"), ("experiment.trial_self_s", "s"),
    ("experiment.rounds", "count"), ("experiment.aggregate_s", "s"),
    ("data.build_s", "s"), ("data.generate_s", "s"), ("data.load_csv_s", "s"),
    ("data.load_csv_calls", "count"), ("data.labeled_features_s", "s"),
    ("report.emit_s", "s"), ("report.regenerate_s", "s"), ("report.bytes", "bytes"),
    ("config.load_s", "s"),
    ("trace.overhead_s", "s"), ("trace.unattributed_s", "s"),
)

# Span name that each per-layer metric is read from, and how.
_FROM_SPANS = {
    "learner.train_s": ("learner.train", "incl"),
    "learner.train_calls": ("learner.train", "calls"),
    "learner.steps": ("learner.loss_grads", "calls"),
    "learner.loss_grads_s": ("learner.loss_grads", "incl"),
    "learner.eval_s": ("learner.eval", "incl"),
    "learner.eval_calls": ("learner.eval", "calls"),
    "learner.predict_proba_s": ("learner.predict_proba", "incl"),
    "learner.gradient_embedding_s": ("learner.gradient_embedding", "incl"),
    "acquisition.make_ranking_s": ("acquisition.make_ranking", "incl"),
    "acquisition.score_rows_s": ("acquisition.score_rows", "incl"),
    "acquisition.select_top_k_s": ("acquisition.select_top_k", "incl"),
    "acquisition.select_badge_s": ("acquisition.select_badge", "incl"),
    "acquisition.select_random_s": ("acquisition.select_random", "incl"),
    "patients.select_s": ("patients.select", "incl"),
    "patients.select_self_s": ("patients.select", "self"),
    "patients.constrain_s": ("patients.constrain", "incl"),
    "patients.badge_unique_s": ("patients.badge_unique", "incl"),
    "patients.init_s": ("patients.init", "incl"),
    "experiment.run_s": ("experiment.run", "incl"),
    "experiment.trial_s": ("experiment.trial", "incl"),
    "experiment.trial_self_s": ("experiment.trial", "self"),
    "experiment.aggregate_s": ("experiment.aggregate", "incl"),
    "data.build_s": ("data.build", "incl"),
    "data.generate_s": ("data.generate", "incl"),
    "data.load_csv_s": ("data.load_csv", "incl"),
    "data.load_csv_calls": ("data.load_csv", "calls"),
    "data.labeled_features_s": ("data.labeled_features", "incl"),
    "report.emit_s": ("report.emit", "incl"),
    "report.regenerate_s": ("report.regenerate", "incl"),
    "config.load_s": ("config.load", "incl"),
}
_FROM_COUNTS = ("learner.epochs", "patients.candidates", "patients.relaxed",
                "experiment.rounds", "report.bytes")


def _resolve(module: str, attribute: str):
    owner = importlib.import_module(module)
    *path, name = attribute.split(".")
    for part in path:
        owner = getattr(owner, part)
    return owner, name


class Tracer:
    """Spans of one traced workload iteration, kept in flat arrays."""

    def __init__(self, spool: Path):
        self.spool = spool
        self.names: list[str] = []
        self.code = array("H")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack = [-1]
        self.counts: Counter = Counter()
        self.missing: set[str] = set()  # wrapped names the program no longer has
        self._patched: list[tuple[object, str, object]] = []
        self._main_pid = os.getpid()
        self._child_pid = None
        self._child_base = 0
        self._flushes = 0

    def install(self) -> None:
        self.spool.mkdir(parents=True, exist_ok=True)
        for module, attribute, span, hook in WRAPPED:
            owner, name = _resolve(module, attribute)
            original = owner.__dict__.get(name)
            if original is None:
                self.missing.add(f"{module}.{attribute}")
                continue
            self._patched.append((owner, name, original))
            setattr(owner, name, self._wrap(span, original, hook))

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patched):
            setattr(owner, name, original)
        self._patched.clear()

    def _wrap(self, span: str, fn, hook):
        if span not in self.names:
            self.names.append(span)
        code = self.names.index(span)
        codes, parents, starts, ends, stack = self.code, self.parent, self.start, self.end, self.stack
        counts = self.counts
        is_trial = span == TRIAL_SPAN

        def traced(*args, **kwargs):
            if is_trial:
                self._enter_trial()
            sid = len(starts)
            codes.append(code)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, result)
            if is_trial and self._child_pid is not None:
                self._flush_child()
            return result

        return traced

    def _enter_trial(self) -> None:
        # A pool worker forked from this process: spans before the fork belong
        # to the parent, so the worker only ships what it records from here on.
        pid = os.getpid()
        if pid != self._main_pid and pid != self._child_pid:
            self._child_pid = pid
            self._child_base = len(self.start)
            self.counts.clear()

    def _flush_child(self) -> None:
        base = self._child_base
        payload = {
            "base": base,
            "code": self.code[base:].tolist(),
            "parent": self.parent[base:].tolist(),
            "start": self.start[base:].tolist(),
            "end": self.end[base:].tolist(),
            "counts": dict(self.counts),
        }
        self._flushes += 1
        path = self.spool / f"{self._child_pid}-{self._flushes}.json"
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(payload), encoding="utf-8")
        tmp.rename(path)
        for column in (self.code, self.parent, self.start, self.end):
            del column[base:]
        self.counts.clear()

    def collect_workers(self) -> None:
        """Merge the spans pool workers flushed; parent ids below the fork point stay."""
        for path in sorted(self.spool.glob("*.json")):
            payload = json.loads(path.read_text(encoding="utf-8"))
            path.unlink()
            base, offset = payload["base"], len(self.start) - payload["base"]
            self.code.extend(payload["code"])
            self.parent.extend(p + offset if p >= base else p for p in payload["parent"])
            self.start.extend(payload["start"])
            self.end.extend(payload["end"])
            self.counts.update(payload["counts"])

    def top_level_s(self) -> float:
        return sum(e - s for s, e, p in zip(self.start, self.end, self.parent) if p < 0)

    def summary(self) -> dict[str, dict[str, float]]:
        """Per span name: calls, inclusive time (outermost spans only) and self time."""
        n = len(self.start)
        children: dict[int, list[int]] = {}
        for sid in range(n):
            children.setdefault(self.parent[sid], []).append(sid)
        out = {name: {"calls": 0, "incl": 0.0, "self": 0.0} for name in self.names}
        for sid in range(n):
            name = self.names[self.code[sid]]
            duration = self.end[sid] - self.start[sid]
            entry = out[name]
            entry["calls"] += 1
            entry["self"] += duration - self._covered(sid, children.get(sid, ()))
            if not self._nested_in_same(sid):
                entry["incl"] += duration
        return out

    def _covered(self, sid: int, kids) -> float:
        lo, hi = self.start[sid], self.end[sid]
        covered, reach = 0.0, lo
        for s, e in sorted((max(self.start[k], lo), min(self.end[k], hi)) for k in kids):
            if e > reach:
                covered += e - max(s, reach)
                reach = e
        return covered

    def _nested_in_same(self, sid: int) -> bool:
        code, parent = self.code[sid], self.parent[sid]
        while parent >= 0:
            if self.code[parent] == code:
                return True
            parent = self.parent[parent]
        return False


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced iteration, except the trace.* pair."""
    spans = tracer.summary()
    empty = {"calls": 0, "incl": 0.0, "self": 0.0}
    metrics = {name: float(spans.get(span, empty)[kind]) for name, (span, kind) in _FROM_SPANS.items()}
    metrics.update({name: float(tracer.counts[name]) for name in _FROM_COUNTS})
    steps, calls = metrics["learner.steps"], metrics["learner.train_calls"]
    metrics["learner.step_us"] = metrics["learner.train_s"] / steps * 1e6 if steps else 0.0
    metrics["learner.reached_target_frac"] = (
        tracer.counts["learner.reached_target"] / calls if calls else 0.0
    )
    return metrics


def median_metrics(per_iteration: list[dict[str, float]]) -> dict[str, float]:
    return {name: median(m[name] for m in per_iteration) for name in per_iteration[0]}
