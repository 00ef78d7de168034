"""Every benchmark record at the repository root says what was run, against what, and where.

A performance claim counts only with a ``BENCH_*.json`` that shows it, and
this host's noise makes a number meaningless without its numpy, Python, CPU
count and BLAS thread setting.
"""

import json
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
RECORDS = sorted(ROOT.glob("BENCH_*.json"))


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
