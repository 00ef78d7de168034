"""Every benchmark record at the repository root says what was run, against what, and where.

A performance claim counts only with a ``BENCH_*.json`` that shows it, and
this host's noise makes a number meaningless without its numpy, Python, CPU
count and BLAS thread setting. A record's ``claim`` names a workload and an
end-to-end metric of ``BENCHMARK.json``, or says that it claims none.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = {workload["name"] for workload in BENCHMARK["workloads"]}
METRICS = {metric["name"] for metric in BENCHMARK["end_to_end"]}


def test_records_exist():
    assert RECORDS


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_names_its_run_and_environment(path):
    record = json.loads(path.read_text(encoding="utf-8"))
    assert isinstance(record, dict)
    for key in ("title", "command", "parent_commit"):
        assert record.get(key), f"{path.name} has no {key}"
    environment = record.get("environment")
    assert isinstance(environment, dict), f"{path.name} has no environment"
    for key in ("numpy", "python", "cpu_count", "OPENBLAS_NUM_THREADS"):
        assert key in environment, f"{path.name}'s environment has no {key}"


@pytest.mark.parametrize("path", RECORDS, ids=[path.name for path in RECORDS])
def test_record_claims_a_benchmark_metric_or_none(path):
    claim = json.loads(path.read_text(encoding="utf-8")).get("claim")
    if isinstance(claim, dict):
        assert claim.get("workload") in WORKLOADS and claim.get("metric") in METRICS, f"{path.name}: {claim}"
    else:
        assert isinstance(claim, str), f"{path.name} has no claim"
        named = {f"{workload} {metric}" for workload in WORKLOADS for metric in METRICS}
        assert claim.startswith("none") or any(claim.startswith(prefix) for prefix in named), f"{path.name}: {claim}"
