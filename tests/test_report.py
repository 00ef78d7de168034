import re

import numpy as np
import pytest

from decal.cli import main
from decal.errors import DataError
from decal.experiment import (
    ExperimentResult,
    RoundRecord,
    aggregate_curve,
)
from decal.report import (
    AGGREGATE_FILENAME,
    RAW_FIELDS,
    RAW_FILENAME,
    emit_report,
    read_raw_csv,
    regenerate_report,
    render_curves_svg,
    write_raw_csv,
)
from test_experiment import small_cfg


def fake_result(strategy, init_mode, trials=5, rounds=20, seed0=0):
    rng = np.random.default_rng(hash((strategy, init_mode)) % 2**32)
    records = []
    for t in range(trials):
        accuracy = 0.4
        for r in range(rounds + 1):
            accuracy = min(1.0, accuracy + float(rng.uniform(0, 0.03)))
            records.append(RoundRecord(
                trial_seed=seed0 + t,
                round_index=r,
                train_size=128 + 128 * r,
                test_accuracy=accuracy,
                epochs_used=int(rng.integers(1, 50)),
                relaxed_count=0,
            ))
    cfg = small_cfg(strategy=strategy, init_mode=init_mode)
    return ExperimentResult(config=cfg, records=tuple(records),
                            curve=aggregate_curve(records))


class TestCsvEmission:
    def test_raw_row_count(self, tmp_path):
        results = [
            fake_result("entropy", "random"),
            fake_result("decal_entropy", "decal"),
        ]
        paths = emit_report(results, tmp_path)
        lines = paths["raw"].read_text().splitlines()
        assert lines[0] == "strategy,init_mode,trial_seed,round,train_size,test_accuracy,epochs_used,relaxed_count"
        assert len(lines) == 1 + 2 * 5 * 21

    def test_reemission_is_byte_identical(self, tmp_path):
        results = [fake_result("margin", "random")]
        first = emit_report(results, tmp_path / "a")
        second = emit_report(results, tmp_path / "b")
        assert first["raw"].read_bytes() == second["raw"].read_bytes()
        assert first["aggregate"].read_bytes() == second["aggregate"].read_bytes()

    def test_raw_round_trips_records(self, tmp_path):
        result = fake_result("badge", "decal", trials=3, rounds=4)
        emit_report([result], tmp_path)
        groups = read_raw_csv(tmp_path / RAW_FILENAME)
        assert list(groups) == [("badge", "decal")]
        assert tuple(groups[("badge", "decal")]) == result.records

    def test_read_rejects_wrong_header(self, tmp_path):
        path = tmp_path / RAW_FILENAME
        path.write_text("a,b,c\n1,2,3\n")
        with pytest.raises(DataError):
            read_raw_csv(path)

    def test_distinct_keys_required(self, tmp_path):
        results = [fake_result("entropy", "random"), fake_result("entropy", "random")]
        with pytest.raises(ValueError):
            emit_report(results, tmp_path)


class TestSvg:
    def test_one_path_and_band_per_strategy(self, tmp_path):
        results = [
            fake_result("entropy", "random"),
            fake_result("decal_entropy", "decal"),
            fake_result("badge", "random"),
        ]
        paths = emit_report(results, tmp_path)
        combined = (tmp_path / "curves_combined.svg").read_text()
        assert combined.count('class="curve"') == 3
        assert combined.count('class="band"') == 3
        for svg_path in paths["svg"][:-1]:
            text = svg_path.read_text()
            assert text.count('class="curve"') == 1
            assert text.count('class="band"') == 1
            assert text.startswith("<svg ")
            assert text.rstrip().endswith("</svg>")

    def test_single_point_curve_renders(self):
        result = fake_result("random", "random", rounds=0)
        svg = render_curves_svg([("random", result.curve)])
        assert 'class="curve"' in svg

    def test_deterministic_output(self):
        result = fake_result("entropy", "decal")
        series = [("entropy (decal init)", result.curve)]
        assert render_curves_svg(series) == render_curves_svg(series)


class TestRegenerate:
    def test_rebuilds_aggregate_identically(self, tmp_path):
        results = [fake_result("entropy", "random"), fake_result("margin", "decal")]
        paths = emit_report(results, tmp_path)
        original_aggregate = paths["aggregate"].read_bytes()
        (tmp_path / AGGREGATE_FILENAME).unlink()
        regenerate_report(tmp_path)
        assert (tmp_path / AGGREGATE_FILENAME).read_bytes() == original_aggregate

    def test_missing_raw_is_data_error(self, tmp_path):
        with pytest.raises(DataError):
            regenerate_report(tmp_path)

    @pytest.mark.parametrize("rows, message", [
        pytest.param([(0, 0), (0, 1), (1, 0)], r"raw\.csv: random \(random init\): trials 0 and 1 disagree",
                     id="trial-missing-a-round"),
        pytest.param([(0, 0), (0, 0)], r"raw\.csv:3: random \(random init\) trial 0 round 0 repeats line 2",
                     id="round-listed-twice"),
        pytest.param([(0, 0), (0, 2)], r"raw\.csv: random \(random init\): trial 0 has rounds \[0, 2\]",
                     id="round-gap"),
        pytest.param([(0, 1)], r"trial 0 has rounds \[1\]", id="no-round-0"),
    ])
    def test_bad_round_structure_is_data_error(self, tmp_path, rows, message):
        write_raw_rows(tmp_path, [f"random,random,{t},{r},{16 * (r + 1)},0.5,3,0" for t, r in rows])
        with pytest.raises(DataError, match=message):
            regenerate_report(tmp_path)
        assert not (tmp_path / AGGREGATE_FILENAME).exists()

    @pytest.mark.parametrize("field, value", [
        ("test_accuracy", "nan"),
        ("test_accuracy", "inf"),
        ("test_accuracy", "7.5"),
        ("test_accuracy", "-0.25"),
        ("round", "-1"),
        ("train_size", "-32"),
        ("epochs_used", "-3"),
        ("relaxed_count", "-1"),
        ("strategy", "x/y"),
        ("strategy", "decal_bogus"),
        ("init_mode", "bogus"),
    ])
    def test_bad_field_is_data_error_at_its_line(self, tmp_path, field, value):
        rows = [dict(zip(RAW_FIELDS, ["random", "random", "0", str(r), str(16 * (r + 1)), "0.5", "3", "0"]))
                for r in range(3)]
        rows[1][field] = value
        write_raw_rows(tmp_path, [",".join(row.values()) for row in rows])
        with pytest.raises(DataError, match=r"raw\.csv:3: malformed row"):
            regenerate_report(tmp_path)
        assert not (tmp_path / AGGREGATE_FILENAME).exists()

    @pytest.mark.parametrize("line3, message", [
        pytest.param(b"random,random,0,1,32,0.5,3,\xff", r"raw\.csv:3: not valid UTF-8", id="non-utf8-byte"),
        pytest.param(b"random,random,0,1,32,0.5,3," + b"0" * 200_000, r"raw\.csv:3: field larger than field limit",
                     id="oversized-field"),
        pytest.param(b"random,random,0,1,32,0.5,3,0,9", r"raw\.csv:3: malformed row \(expected 8 fields, found 9\)",
                     id="nine-fields"),
        pytest.param(b"\n\nrandom,random,0,1,32,7.5,3,0", r"raw\.csv:5: malformed row", id="after-two-blank-lines"),
    ])
    def test_unreadable_row_is_exit_2_at_its_physical_line(self, tmp_path, capsys, line3, message):
        lines = [",".join(RAW_FIELDS).encode(), b"random,random,0,0,16,0.5,3,0", line3, b"random,random,0,2,48,0.5,3,0"]
        (tmp_path / RAW_FILENAME).write_bytes(b"\n".join(lines) + b"\n")
        assert main(["report", "--in", str(tmp_path)]) == 2
        assert re.match(r"data error: .*" + message, capsys.readouterr().err)
        assert not (tmp_path / AGGREGATE_FILENAME).exists()


def write_raw_rows(directory, lines):
    (directory / RAW_FILENAME).write_text("\n".join([",".join(RAW_FIELDS), *lines]) + "\n", encoding="utf-8")


class TestWriteRaw:
    def test_float_formatting_round_trips(self, tmp_path):
        records = [RoundRecord(0, 0, 16, 1 / 3, 5, 0)]
        path = tmp_path / "raw.csv"
        write_raw_csv([(("random", "random"), records)], path)
        back = read_raw_csv(path)[("random", "random")][0]
        assert back.test_accuracy == 1 / 3
