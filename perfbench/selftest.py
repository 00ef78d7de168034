"""Self-test of the benchmark on smoke-size versions of every workload.

Run from the root of a checkout:

    python3 perfbench/selftest.py

For each workload it shows that
* a clean iteration passes every output check, twice with identical digests;
* a traced iteration yields every per-layer metric, with the spans of pool
  workers merged (one `experiment.trial` span per trial);
* a tampered raw.csv, caught only by its digest, raises fail_frac above 0;
* a non-zero exit raises fail_frac above 0;
and in both failure cases every operation is still attempted.
Exit code 0 if all hold, 1 otherwise.
"""

from __future__ import annotations

import sys

import run

failures: list[str] = []


def expect(condition: bool, label: str, detail: str = "") -> None:
    print(f"{'PASS' if condition else 'FAIL'} {label}{': ' + detail if detail and not condition else ''}")
    if not condition:
        failures.append(label)


def fail_frac(samples) -> float:
    return sum(s.error is not None for s in samples) / len(samples)


def tamper(raw_csv) -> None:
    """Change the last digit of the last record's test accuracy; structure stays valid."""
    lines = raw_csv.read_text(encoding="utf-8").splitlines()
    fields = lines[-1].split(",")
    digit = fields[5][-1]
    fields[5] = fields[5][:-1] + ("1" if digit != "1" else "2")
    lines[-1] = ",".join(fields)
    raw_csv.write_text("\n".join(lines) + "\n", encoding="utf-8")


def check_workload(name: str) -> None:
    import workloads
    from checks import Checker, raw_structure_error
    from spans import LAYER_METRICS, Tracer, layer_metrics

    with run.work_dir(f"selftest-{name}") as work:
        workload = workloads.build(name, seed=0, work=work, smoke=True)
        ops = workload.ops

        checker = Checker(None)
        speed = run.SpeedProbe()
        clean = run.run_iteration(workload, checker, speed=speed)
        clean += run.run_iteration(workload, checker, speed=speed)
        errors = [f"{s.name}: {s.error}" for s in clean if s.error]
        expect(not errors, f"{name}: clean iterations pass and repeat byte for byte", "; ".join(errors))
        reference = dict(checker.digests)

        tracer = Tracer(work / "spool")
        traced = run.run_iteration(workload, Checker(reference), tracer=tracer)
        metrics = layer_metrics(tracer)
        trials = workload.ops[0].shape.trials * sum(op.kind == "run" for op in ops)
        missing = [m for m, _ in LAYER_METRICS if m not in metrics and not m.startswith("trace.")]
        expect(not missing and not tracer.missing and fail_frac(traced) == 0,
               f"{name}: traced iteration reports every per-layer metric",
               f"missing {missing or tracer.missing}, failures {[s.error for s in traced if s.error]}")
        expect(tracer.summary()["experiment.trial"]["calls"] == trials and metrics["learner.steps"] > 0,
               f"{name}: spans of every trial reach the trace ({trials} trials)",
               f"{tracer.summary()['experiment.trial']['calls']} trial spans")

        class TamperingChecker(Checker):
            def check(self, op):
                if op.kind == "run":
                    tamper(op.out_dir / "raw.csv")
                    if raw_structure_error(op, op.out_dir / "raw.csv"):
                        return "tampering broke the structure"
                return super().check(op)

        tampered = run.run_iteration(workload, TamperingChecker(reference))
        expect(fail_frac(tampered) > 0 and len(tampered) == len(ops),
               f"{name}: tampered raw.csv raises fail_frac to {fail_frac(tampered):.2f}")

        config = ops[0].config_path
        original = config.read_text(encoding="utf-8")
        config.write_text("{not json", encoding="utf-8")
        try:
            broken = run.run_iteration(workload, Checker(reference))
        finally:
            config.write_text(original, encoding="utf-8")
        exited = broken[0].error is not None and broken[0].error.startswith("exit code")
        expect(exited and fail_frac(broken) > 0 and len(broken) == len(ops),
               f"{name}: non-zero exit raises fail_frac to {fail_frac(broken):.2f}")


def main() -> int:
    if not run.import_decal():
        return 2
    import workloads

    for name in workloads.WORKLOADS:
        check_workload(name)
    print(f"{len(failures)} failure(s)" if failures else "all self-tests passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
