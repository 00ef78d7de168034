"""Benchmark of `decal run` and `decal report`, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload paper-grid --seed 0 --seconds 30 --trace 0

Workloads (workloads.py has their exact inputs; all use decal init):

* paper-grid: the large-uniform preset, 128 initial labels plus 3 rounds of
  128, one trial of each of the 10 strategies. The trainer does most of the work.
* stress-select: the same generator with 7500 patients (48k-image pool, 12k
  test set), 1 round of 128 for entropy, decal_entropy, badge and decal_badge.
  Selection and the patient constraint scale with the pool; training does not.
* csv-workers: that 48k dataset written to CSV before timing, decal_margin
  with 4 trials on 2 pool workers and 3 rounds, then `decal report --in`.

Each operation calls `decal.cli.main` in-process and its output is checked
(checks.py). A run repeats the workload's operations until `--seconds` is
used up and reports, per operation, the median over those iterations.

With `--trace 0` the last stdout line holds the end-to-end metrics:
* wall_s: sum over operations of their median wall time;
* setup_s: median time of `build_dataset` on the workload's dataset source
  (generate, or parse the CSV), timed in a slice before every iteration;
* peak_rss_mb: the larger peak RSS of this process and of its pool workers;
* final_acc: mean over experiments of the final-round mean test accuracy.
wall_s and setup_s are scaled by a machine-speed probe (see SpeedProbe) so that
load from other tenants of the host cancels out; the unscaled values are
printed above the result. fail_frac, the share of operations that exited
non-zero or failed their check, is carried by the `failed` and `attempted`
keys and printed above; it is not a metric because it is 0 on a correct run.

With `--trace 1` iterations alternate untraced and traced, and the last line
holds the per-layer metrics of spans.py (medians over traced iterations) plus
trace.overhead_s (traced minus untraced wall) and trace.unattributed_s (traced
wall minus the top-level spans).

Provenance (commit, seed, versions, CPUs, BLAS) is printed on the line before
the result, and the sha256 of every operation's output above it.
Exit code 0 after printing a result, 2 if the checkout has no `src/decal`.
"""

from __future__ import annotations

import argparse
import io
import json
import logging
import os
import platform
import resource
import shutil
import subprocess
import sys
import tempfile
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from statistics import median
from time import perf_counter

sys.dont_write_bytecode = True  # leave no __pycache__ in the checkout

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench_work"
# Set-up is timed in a slice before every iteration, so its median samples the
# same stretch of machine load as the operations do.
SETUP_SLICE_S = 0.25
# Load from other tenants of the host slows this process by up to 1.6x for
# seconds at a time. A fixed probe is timed between measured sections, and each
# section is scaled by PROBE_REF_S / (mean of the probes just before and after
# it), which states its time at the speed the probe has at PROBE_REF_S. The
# probe uses numpy only, never decal, so a change to decal cannot move it.
PROBE_REF_S = 0.02

END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "final_acc": "ratio"}


@dataclass
class Sample:
    """One timed section: an operation or one set-up call."""

    name: str
    wall: float
    probe: float | None = None  # mean probe time around the section, untraced runs only
    traced: bool = False
    error: str | None = None

    @property
    def scaled(self) -> float:
        return self.wall * PROBE_REF_S / self.probe


class SpeedProbe:
    """Machine-speed probe, timed once at start and then after every measured section.

    Its work is like a training step: many small numpy calls with Python
    arithmetic. It allocates nothing large, so it adds nothing to peak RSS.
    """

    def __init__(self):
        import numpy as np

        self._np = np
        self._x = np.linspace(-1.0, 1.0, 32 * 6).reshape(32, 6)
        self._w = np.full((6, 16), 0.1)
        self.times = [self._probe()]

    def _probe(self) -> float:
        np, x, w = self._np, self._x, self._w
        total = 0.0
        start = perf_counter()
        for _ in range(3000):
            total += float(np.tanh(x @ w).sum())
        elapsed = perf_counter() - start
        if not np.isfinite(total):
            raise RuntimeError("probe arithmetic went non-finite")
        return elapsed

    def around_last_section(self) -> float:
        self.times.append(self._probe())
        return (self.times[-2] + self.times[-1]) / 2


def run_op(op) -> tuple[float, int, str]:
    """Time one `decal` invocation; returns (wall seconds, exit code, stderr)."""
    from decal import cli

    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        start = perf_counter()
        code = cli.main(list(op.argv))
        wall = perf_counter() - start
    return wall, code, err.getvalue()


def run_iteration(workload, checker, tracer=None, speed=None) -> list[Sample]:
    """Run every operation of the workload once and check each one's output."""
    samples = []
    for op in workload.ops:
        checker.prepare(op)
        if tracer is not None:
            tracer.install()
        try:
            wall, code, err = run_op(op)
        finally:
            if tracer is not None:
                tracer.uninstall()
                tracer.collect_workers()
        around = speed.around_last_section() if speed is not None else None
        error = f"exit code {code}: {err.strip()[-500:]}" if code != 0 else checker.check(op)
        samples.append(Sample(op.name, wall, around, tracer is not None, error))
    return samples


def time_setup(dataset_source, seed: int, speed: SpeedProbe) -> list[Sample]:
    """Time build_dataset on the workload's dataset source for at least SETUP_SLICE_S."""
    from decal.experiment import build_dataset

    times: list[float] = []
    while sum(times) < SETUP_SLICE_S:
        start = perf_counter()
        build_dataset(dataset_source, seed)
        times.append(perf_counter() - start)
    around = speed.around_last_section()
    return [Sample("setup", t, around) for t in times]


def sum_of_medians(samples: list[Sample], value) -> float:
    """Sum over operations of the median of value(sample) across iterations."""
    by_op: dict[str, list[float]] = {}
    for sample in samples:
        by_op.setdefault(sample.name, []).append(value(sample))
    return sum(median(values) for values in by_op.values())


def peak_rss_mb() -> float:
    self_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(self_kb, children_kb) / 1024.0


def measure(workload, seconds: float, trace: bool, work: Path) -> dict:
    """Run the workload until `seconds` is used up; returns the result object."""
    from checks import Checker, load_reference
    from spans import LAYER_METRICS, Tracer, layer_metrics, median_metrics

    from decal.config import load_config_file

    setup_cfg = load_config_file(workload.setup_config)
    checker = Checker(load_reference(workload))
    speed = None if trace else SpeedProbe()
    setup: list[Sample] = []
    iterations: list[list[Sample]] = []
    tracers: list = []
    iteration_times: list[float] = []
    deadline = perf_counter() + seconds
    while True:
        tracer = Tracer(work / f"spool{len(iterations)}") if trace and len(iterations) % 2 else None
        if speed is not None:
            setup += time_setup(setup_cfg.dataset, setup_cfg.base_seed, speed)
        start = perf_counter()
        iterations.append(run_iteration(workload, checker, tracer, speed))
        iteration_times.append(perf_counter() - start)
        if tracer is not None:
            tracers.append(tracer)
        done = len(iterations)
        complete = done >= 2 and done % 2 == 0 if trace else done >= 1
        if complete and perf_counter() + median(iteration_times) > deadline:
            break

    results = [sample for iteration in iterations for sample in iteration]
    failed = sum(r.error is not None for r in results)
    unscaled = {}
    if trace:
        per_iteration = []
        for tracer, iteration in zip(tracers, iterations[1::2]):
            metrics = layer_metrics(tracer)
            metrics["trace.unattributed_s"] = sum(s.wall for s in iteration) - tracer.top_level_s()
            per_iteration.append(metrics)
        values = median_metrics(per_iteration)
        values["trace.overhead_s"] = (
            sum_of_medians([r for r in results if r.traced], lambda s: s.wall)
            - sum_of_medians([r for r in results if not r.traced], lambda s: s.wall)
        )
        units = dict(LAYER_METRICS)
        missing = sorted({m for t in tracers for m in t.missing})
    else:
        finals = list(checker.final_acc.values())
        values = {
            "wall_s": sum_of_medians(results, lambda s: s.scaled),
            "setup_s": median(s.scaled for s in setup),
            "peak_rss_mb": peak_rss_mb(),
            "final_acc": sum(finals) / len(finals) if finals else 0.0,
        }
        unscaled = {
            "wall_s": sum_of_medians(results, lambda s: s.wall),
            "setup_s": median(s.wall for s in setup),
            "probe_s": median(speed.times),
        }
        units = END_TO_END_UNITS
        missing = []
    return {
        "unscaled": unscaled,
        "iterations": iteration_times,
        "results": results,
        "digests": dict(checker.digests),
        "unmeasured": missing,
        "summary": {
            "correct": failed == 0,
            "attempted": len(results),
            "failed": failed,
            "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
        },
    }


def provenance(seed: int, caller_blas_threads: str) -> dict:
    import numpy as np

    commit = "unavailable (not a git checkout)"
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=30, check=False)
        commit = proc.stdout.strip() or commit
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_commit": commit,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OPENBLAS_NUM_THREADS_of_caller": caller_blas_threads,
    }


def _print_report(name: str, seed: int, trace: bool, outcome: dict) -> None:
    summary = outcome["summary"]
    attempted, failed = summary["attempted"], summary["failed"]
    walls = ", ".join(f"{t:.3f}" for t in outcome["iterations"])
    print(f"perfbench {name} seed={seed} trace={int(trace)}: "
          f"{len(outcome['iterations'])} iterations ({walls} s), {attempted} operations")
    for metric, entry in summary["metrics"].items():
        print(f"  {metric:32s} {entry['value']:.6g} {entry['unit']}")
    print(f"  {'fail_frac':32s} {failed / attempted:.6g} ratio ({failed}/{attempted})")
    for metric, value in outcome["unscaled"].items():
        print(f"  {'unscaled ' + metric:32s} {value:.6g} s")
    for r in outcome["results"]:
        if r.error:
            print(f"  FAILED {r.name}: {r.error}")
    walls: dict[str, list[str]] = {}
    for r in outcome["results"]:
        walls.setdefault(f"{r.name}{' traced' if r.traced else ''}", []).append(f"{r.wall:.4f}")
    for op, times in walls.items():
        print(f"walls {op}: {' '.join(times)}")
    for op, digest in outcome["digests"].items():
        print(f"digest {op} {digest}")
    if outcome["unmeasured"]:
        print(f"unmeasured (reported as 0): {', '.join(outcome['unmeasured'])}")


def import_decal() -> bool:
    """Put the checkout's src/ first on sys.path and import decal from it."""
    # OpenBLAS worker threads spin after each large matmul; on two vCPUs they
    # slow whatever runs next, the speed probe included, by up to 2x. One BLAS
    # thread per process keeps the probe a measure of the machine alone.
    # Pool workers inherit the setting. raw.csv is the same either way.
    os.environ["OPENBLAS_NUM_THREADS"] = "1"
    if not (SRC / "decal" / "__init__.py").is_file():
        print(f"perfbench: no src/decal under {ROOT}; run from a full checkout", file=sys.stderr)
        return False
    sys.path.insert(0, str(SRC))
    import decal

    if Path(decal.__file__).resolve().parent != (SRC / "decal").resolve():
        print(f"perfbench: imported decal from {decal.__file__}, not {SRC}", file=sys.stderr)
        return False
    return True


@contextmanager
def work_dir(prefix: str):
    """A scratch directory inside the checkout, with decal's log kept in it; removed on exit."""
    WORK_ROOT.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{prefix}-", dir=WORK_ROOT))
    # decal's CLI logs a warning per capped round; keep it in a file, not on the console
    handler = logging.FileHandler(work / "decal.log", encoding="utf-8")
    logging.getLogger().addHandler(handler)
    try:
        yield work
    finally:
        logging.getLogger().removeHandler(handler)
        handler.close()
        shutil.rmtree(work, ignore_errors=True)
        try:
            WORK_ROOT.rmdir()
        except OSError:
            pass  # another run still uses it


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=("paper-grid", "stress-select", "csv-workers"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")

    caller_blas_threads = os.environ.get("OPENBLAS_NUM_THREADS", "unset")
    if not import_decal():
        return 2
    import workloads

    with work_dir(args.workload) as work:
        workload = workloads.build(args.workload, args.seed, work)
        outcome = measure(workload, args.seconds, bool(args.trace), work)
    _print_report(args.workload, args.seed, bool(args.trace), outcome)
    print(json.dumps({"provenance": provenance(args.seed, caller_blas_threads)}))
    print(json.dumps(outcome["summary"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
