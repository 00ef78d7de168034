import csv
import io
import json
import os
import re
import signal
import subprocess
import sys
import tempfile
from contextlib import ExitStack, contextmanager
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import decal
from decal import data
from decal.data import (
    CsvSchema,
    DatasetSplit,
    ImageCountSpec,
    SampleSet,
    SyntheticConfig,
    generate_synthetic,
    load_dataset,
    normalize_features,
    patient_distribution,
    write_dataset,
)
from decal.errors import (
    ConfigError,
    CsvParseError,
    DataError,
    FeatureDimensionError,
    PatientOverlapError,
)
from decal.presets import PRESETS
from helpers import fail_reads_after, make_sampleset, make_split, rows_of, split_equal, traced_peak

BASIC_CSV = """sample_id,patient_id,label,split,f0,f1
0,A,0,pool,0.1,0.2
1,A,1,pool,0.3,0.4
2,B,0,pool,0.5,0.6
3,B,1,pool,0.7,0.8
4,C,0,test,0.9,1.0
5,C,1,test,1.1,1.2
"""


def write_csv(tmp_path, text, name="data.csv"):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


class TestLoadDataset:
    def test_basic_read_back(self, tmp_path):
        split = load_dataset(write_csv(tmp_path, BASIC_CSV))
        assert len(split.pool) == 4
        assert len(split.test) == 2
        assert split.feature_dim == 2
        assert split.num_classes == 2
        assert set(split.pool.patients) == {"A", "B"}
        assert set(split.test.patients) == {"C"}
        assert split.pool.labels[rows_of(split.pool, [1])].tolist() == [1]
        np.testing.assert_array_equal(split.pool.features[rows_of(split.pool, [0])], [[0.1, 0.2]])

    def test_patient_in_both_splits_rejected(self, tmp_path):
        text = BASIC_CSV.replace("4,C,0,test", "4,A,0,test")
        with pytest.raises(PatientOverlapError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert "'A'" in str(err.value)

    def test_extra_feature_is_dimension_error_with_line(self, tmp_path):
        text = BASIC_CSV.replace("2,B,0,pool,0.5,0.6", "2,B,0,pool,0.5,0.6,0.7")
        with pytest.raises(FeatureDimensionError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert ":4:" in str(err.value)

    def test_malformed_row_has_line_number(self, tmp_path):
        text = BASIC_CSV.replace("3,B,1,pool", "3,B,notalabel,pool")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 5

    def test_line_number_is_the_physical_line(self, tmp_path):
        # a quoted patient id spans lines 2-3, so the row with feature abc ends on line 6
        text = BASIC_CSV.replace("0,A,0,pool", '0,"A\nA",0,pool').replace("3,B,1,pool,0.7", "3,B,1,pool,abc")
        with pytest.raises(CsvParseError, match=r"data\.csv:6: ") as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 6

    def test_header_fault_names_the_header_line(self, tmp_path):
        text = "\n" + BASIC_CSV.replace("patient_id", "who")
        with pytest.raises(CsvParseError, match="missing required column") as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 2

    def test_short_row_is_parse_error(self, tmp_path):
        text = BASIC_CSV.replace("1,A,1,pool,0.3,0.4", "1,A,1,pool,0.3")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 3

    def test_bad_split_value(self, tmp_path):
        text = BASIC_CSV.replace("0,A,0,pool", "0,A,0,train")
        with pytest.raises(CsvParseError):
            load_dataset(write_csv(tmp_path, text))

    def test_duplicate_sample_id(self, tmp_path):
        text = BASIC_CSV.replace("1,A,1,pool", "0,A,1,pool")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert "duplicate" in str(err.value)

    # the row reader looks for repeated ids only before it raises and at the end: the first faulty line still wins
    @pytest.mark.parametrize("edits, message", [
        ({"3,B,1,pool": "1,B,1,pool", "5,C,1,test,1.1": "5,C,1,test,x"},
         "5: duplicate sample id 1 (first seen on line 3)"),
        ({"1,A,1,pool,0.3": "1,A,1,pool,x", "3,B,1,pool": "1,B,1,pool"},
         "3: could not convert string to float: 'x'"),
        ({"3,B,1,pool": "1,B,1,pool", "5,C,1,test,1.1": "5,C,1,test,\udcff"},
         "5: duplicate sample id 1 (first seen on line 3)"),
        ({"3,B,1,pool": "0,B,1,pool", "4,C,0,test": "1,C,0,test"},
         "5: duplicate sample id 0 (first seen on line 2)"),
    ], ids=["before-a-row-fault", "after-a-row-fault", "before-a-bad-byte", "the-first-of-two"])
    def test_the_first_of_a_repeated_id_and_another_fault_is_reported(self, tmp_path, edits, message):
        text = BASIC_CSV
        for old, new in edits.items():
            text = text.replace(old, new)
        path = tmp_path / "data.csv"
        path.write_bytes(text.encode("utf-8", "surrogateescape"))
        with pytest.raises(CsvParseError) as err:
            load_dataset(path)
        assert str(err.value) == f"{path}:{message}"

    def test_unexpected_column_rejected(self, tmp_path):
        text = BASIC_CSV.replace("split,f0", "split,extra,f0").replace(
            "pool,0.1", "pool,x,0.1"
        )
        with pytest.raises(CsvParseError):
            load_dataset(write_csv(tmp_path, text))

    def test_missing_required_column(self, tmp_path):
        text = BASIC_CSV.replace("patient_id", "who")
        with pytest.raises(CsvParseError):
            load_dataset(write_csv(tmp_path, text))

    def test_non_finite_feature_rejected(self, tmp_path):
        text = BASIC_CSV.replace("0.5,0.6", "nan,0.6")
        with pytest.raises(CsvParseError):
            load_dataset(write_csv(tmp_path, text))

    def test_empty_test_split_rejected(self, tmp_path):
        text = "\n".join(BASIC_CSV.splitlines()[:5]) + "\n"
        with pytest.raises(DataError):
            load_dataset(write_csv(tmp_path, text))

    def test_label_gap_rejected(self, tmp_path):
        # labels {0, 2} would otherwise load as 3 classes with a phantom class 1
        text = BASIC_CSV.replace(",1,pool", ",2,pool").replace(",1,test", ",2,test")
        with pytest.raises(DataError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert "class 1" in str(err.value)

    def test_class_only_in_test_split_rejected(self, tmp_path):
        text = BASIC_CSV.replace("5,C,1,test", "5,C,2,test")
        with pytest.raises(DataError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert "class 2" in str(err.value)

    def test_non_utf8_byte_is_parse_error_at_its_line(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(BASIC_CSV.encode("utf-8").replace(b"3,B,1", b"3,B\xff,1"))
        with pytest.raises(CsvParseError) as err:
            load_dataset(path)
        assert err.value.line_number == 5

    @pytest.mark.parametrize("line_end", ["\r", "\r\n"], ids=["cr", "crlf"])
    def test_non_utf8_byte_is_named_at_its_line_whatever_the_line_ends(self, tmp_path, line_end):
        path = tmp_path / "data.csv"
        path.write_bytes(BASIC_CSV.replace("\n", line_end).encode("utf-8").replace(b"3,B,1", b"3,B\xff,1"))
        with pytest.raises(CsvParseError, match=r"data\.csv:5: not valid UTF-8$"):
            load_dataset(path)

    def test_oversized_field_is_parse_error(self, tmp_path):
        text = BASIC_CSV.replace("2,B,0,pool", "2," + "B" * 200_000 + ",0,pool")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 4

    def test_sample_id_beyond_int64_is_parse_error(self, tmp_path):
        text = BASIC_CSV.replace("3,B,1,pool", f"{2**70},B,1,pool")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 5

    def test_label_beyond_int64_is_parse_error(self, tmp_path):
        text = BASIC_CSV.replace("3,B,1,pool", f"3,B,{2**70},pool")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 5

    def test_huge_label_is_label_gap_at_its_line(self, tmp_path):
        # the gap check must not enumerate 0..label: this label once cost gigabytes
        text = BASIC_CSV.replace("3,B,1,pool", f"3,B,{10**15},pool")
        with pytest.raises(CsvParseError) as err:
            load_dataset(write_csv(tmp_path, text))
        assert err.value.line_number == 5
        assert "has no sample in the pool split" in str(err.value)

    def test_non_ascii_digit_column_is_unexpected(self, tmp_path):
        text = BASIC_CSV.replace("f0,f1", "f0,f\u00b2")
        with pytest.raises(CsvParseError, match="unexpected column"):
            load_dataset(write_csv(tmp_path, text))

    def test_unopenable_path_is_data_error_naming_it(self, tmp_path):
        for path in (tmp_path, tmp_path / "missing.csv", write_csv(tmp_path, BASIC_CSV) / "x.csv"):
            with pytest.raises(DataError, match=f"cannot read {re.escape(str(path))}: "):
                load_dataset(path)

    # 0 bytes: the byte-order-mark check fails; 30: the header; half: numpy's read of the body
    @pytest.mark.parametrize("cut", [0, 30, 0.5])
    def test_read_error_after_opening_is_data_error_naming_it(self, tmp_path, monkeypatch, cut):
        path = tmp_path / "data.csv"
        write_dataset(generate_synthetic(PRESETS["skewed"], 0), path)
        fail_reads_after(monkeypatch, path, int(cut * path.stat().st_size) if cut == 0.5 else cut)
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: Input/output error$"):
            load_dataset(path)

    def test_csv_rows_read_error_is_data_error_naming_it(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path, BASIC_CSV)
        fail_reads_after(monkeypatch, path, 60)  # 2 bytes into line 3
        rows = data.csv_rows(path)
        assert [next(rows)[0], next(rows)[0]] == [1, 2]
        with pytest.raises(DataError, match=f"^cannot read {re.escape(str(path))}: Input/output error$"):
            next(rows)

    def test_file_is_closed_when_a_row_is_rejected(self, tmp_path, monkeypatch):
        handles = []

        def recording_open(*args, **kwargs):
            handles.append(open(*args, **kwargs))
            return handles[-1]

        monkeypatch.setattr("decal.data.open", recording_open, raising=False)
        with pytest.raises(CsvParseError, match=":3: ") as caught:
            load_dataset(write_csv(tmp_path, BASIC_CSV.replace("1,A,1,pool", "1,A,one,pool")))
        # the faulty file is read a second time, from the top; both reads are
        # closed while the error, and the frames it holds, are still alive
        assert len(handles) == 2 and all(fh.closed for fh in handles)
        assert caught.value.line_number == 3

    def test_clean_file_left_to_the_row_reader_loads_as_numpy_reads_it(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path, BASIC_CSV)
        expected = load_dataset(path)
        monkeypatch.setattr(data, "_numpy_columns", lambda fh, layout: None)
        assert split_equal(load_dataset(path), expected)

    # 24,000 rows of the stress shape (8 images a patient, 6 features). Read a block at a time, numpy's columns peak
    # at 2.35 times the arrays returned (3.86 with the body in one table); with every column a flat array of C values
    # and patients coded as they come, the row reader peaks at 2.50 times them (3.79 with a dict entry and a patient
    # string per row, 7.73 with a list of floats per row as well)
    @pytest.mark.parametrize("reader, bound", [("numpy", 2.5), ("rows", 3.0)])
    def test_peak_memory_is_a_bounded_multiple_of_the_returned_arrays(self, tmp_path, monkeypatch, reader, bound):
        path = tmp_path / "data.csv"
        cfg = synth_cfg(num_patients=3000, images_per_patient=ImageCountSpec(low=8), feature_dim=6, noise_scale=0.3)
        write_dataset(generate_synthetic(cfg, seed=0), path)
        load_dataset(path)  # np.unique imports numpy.ma on its first call: the process's memory, not the load's
        if reader == "rows":
            monkeypatch.setattr(data, "_numpy_columns", lambda fh, layout: None)
        split, peak = traced_peak(load_dataset, path)
        returned = sum(a.nbytes for part in (split.pool, split.test)
                       for a in (part.ids, part.patient_codes, part.features, part.labels))
        assert len(split.pool) + len(split.test) == 24_000
        assert peak <= bound * returned

    @pytest.mark.parametrize("reader", ["numpy", "rows"])
    def test_a_leading_byte_order_mark_is_skipped(self, tmp_path, monkeypatch, reader):
        # spreadsheet "CSV UTF-8" exports start with EF BB BF; a quoted line break sends a file to the row reader
        if reader == "numpy":
            write_dataset(generate_synthetic(PRESETS["skewed"], 0), tmp_path / "plain.csv")
            plain = tmp_path / "plain.csv"
        else:
            plain = write_csv(tmp_path, BASIC_CSV.replace("0,A,0,pool", '0,"A\nA",0,pool'), "plain.csv")
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
        expected = load_dataset(plain)
        row_reads = []
        row_columns = data._row_columns
        monkeypatch.setattr(data, "_row_columns", lambda *args: row_reads.append(args) or row_columns(*args))
        assert split_equal(load_dataset(marked), expected)
        assert len(row_reads) == (reader == "rows")

    @pytest.mark.parametrize("marks, message", [
        (1, "missing required column 'patient_id'"),  # the header's own fault, not the mark's
        (2, "missing required column 'sample_id'"),  # only one mark is skipped
    ])
    def test_a_byte_order_mark_leaves_the_header_on_line_1(self, tmp_path, marks, message):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" * marks + BASIC_CSV.replace("patient_id", "who").encode())
        with pytest.raises(CsvParseError, match=r"data\.csv:1: " + message) as err:
            load_dataset(path)
        assert err.value.line_number == 1

    def test_a_byte_order_mark_leaves_row_lines_as_they_are(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(b"\xef\xbb\xbf" + BASIC_CSV.replace("1,A,1,pool", "1,A,one,pool").encode())
        with pytest.raises(CsvParseError, match=r"data\.csv:3: ") as err:
            load_dataset(path)
        assert err.value.line_number == 3

    def test_schema_remapping(self, tmp_path):
        text = BASIC_CSV.replace("sample_id,patient_id", "sid,subject")
        schema = CsvSchema(sample_id="sid", patient_id="subject")
        split = load_dataset(write_csv(tmp_path, text), schema)
        assert len(split.pool) == 4

    def test_round_trip(self, tmp_path):
        split = load_dataset(write_csv(tmp_path, BASIC_CSV))
        out = tmp_path / "again.csv"
        write_dataset(split, out)
        reloaded = load_dataset(out)
        assert split_equal(split, reloaded)
        # a second serialization is byte-identical
        out2 = tmp_path / "third.csv"
        write_dataset(reloaded, out2)
        assert out.read_bytes() == out2.read_bytes()

    @pytest.mark.parametrize("patient", ["a\rb", "a\nb", "a\r\nb", "a\n\rb", "a\r\rb"])  # ids are stripped on load
    def test_round_trip_of_a_line_break_in_a_patient_id(self, tmp_path, patient):
        split = make_split([(0, patient, [0.5], 0), (1, "c", [0.25], 1)],
                           [(2, "d", [1.0], 0), (3, "e", [2.0], 1)])
        out = tmp_path / "out.csv"
        write_dataset(split, out)
        assert split_equal(load_dataset(out), split)
        # only that field is quoted, and rows still end with a bare LF
        text = out.read_bytes().decode("utf-8")
        assert text.count('"') == 2 and f'"{patient}"' in text
        assert text.endswith("3,e,1,test,2.0\n")

    # load_dataset strips patient ids, so "a" and "a " would load back as one patient
    @pytest.mark.parametrize("patient", ["a ", " a", "a\r", "\ta\n", "a\u3000"])
    def test_patient_id_with_outer_whitespace_is_refused(self, tmp_path, patient):
        split = make_split([(0, "a", [0.5], 0), (1, patient, [0.25], 1)],
                           [(2, "d", [1.0], 0), (3, "e", [2.0], 1)])
        out = tmp_path / "out.csv"
        with pytest.raises(DataError, match=f"patient id {re.escape(repr(patient))} would not load back unchanged"):
            write_dataset(split, out)
        assert not out.exists()

    @pytest.mark.parametrize("patient", ["", " ", "\r", "\u3000"])
    def test_patient_id_empty_once_stripped_is_refused(self, tmp_path, patient):
        split = make_split([(0, "c", [0.5], 0), (1, "c", [0.25], 1)],
                           [(2, patient, [1.0], 0), (3, "e", [2.0], 1)])
        out = tmp_path / "out.csv"
        with pytest.raises(DataError, match=f"patient id {re.escape(repr(patient))} would not load back unchanged"):
            write_dataset(split, out)
        assert not out.exists()


RANGE_ROWS = ["sample_id,patient_id,label,split,f0"] + [
    f"{i},p{i},{i % 2},{'pool' if i < 6 else 'test'},{i / 8!r}" for i in range(8)
]
# patient S has the first and the last row, so its rows fall in both of two ranges
SHARED_PATIENT = ["sample_id,patient_id,label,split,f0"] + [
    f"{i},{'S' if i in (0, 19) else f'p{i % 6}'},{i % 3},{'test' if i % 6 == 5 else 'pool'},{i / 16!r}"
    for i in range(20)
]


def skewed_csv(quoting=None, blanks=False) -> bytes:
    """The skewed preset's CSV as write_dataset writes it, or rewritten with a quoting and blank lines."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "skewed.csv"
        write_dataset(generate_synthetic(PRESETS["skewed"], 3), path)
        if quoting is None and not blanks:
            return path.read_bytes()
        with open(path, newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))
    if blanks:  # 12 blank lines after every 7th row, so that some blocks hold only blank lines
        rows = [row for i, line in enumerate(rows) for row in [line] + [[]] * 12 * (i % 7 == 6)]
    buf = io.StringIO(newline="")
    csv.writer(buf, quoting=quoting or csv.QUOTE_MINIMAL, lineterminator="\n").writerows(rows)
    return buf.getvalue().encode()


# Each fixture's CSV bytes, and whether both of its ranges vouch for their text: a quote, or bare "\r" line ends,
# leave a file to one process
RANGE_FIXTURES = {
    "basic": (BASIC_CSV.encode(), True),
    "lf": ("\n".join(RANGE_ROWS).encode() + b"\n", True),
    "crlf": ("\r\n".join(RANGE_ROWS).encode() + b"\r\n", True),
    "no-final-line-end": ("\n".join(RANGE_ROWS).encode(), True),
    "byte-order-mark": (b"\xef\xbb\xbf" + "\n".join(RANGE_ROWS).encode() + b"\n", True),
    "blank-lines": (("\n\n" + "\n\n\n".join(RANGE_ROWS) + "\n\n").encode(), True),
    "non-ascii-ids": (BASIC_CSV.replace(",A,", ",Ä ,").replace(",B,", ",李,").replace(",C,", ",éé,").encode(), True),
    "shared-patient": ("\n".join(SHARED_PATIENT).encode() + b"\n", True),
    "write-dataset": (skewed_csv(), True),
    "write-dataset-blank-lines": (skewed_csv(blanks=True), True),
    "quote-all": (skewed_csv(csv.QUOTE_ALL), False),
    "bare-cr": ("\r".join(RANGE_ROWS).encode() + b"\r", False),
    # the csv module ends the header at its "\r", so the first "\n" ends a body row, not the header
    "bare-cr-header": ((RANGE_ROWS[0] + "\r" + "\n".join(RANGE_ROWS[1:])).encode() + b"\n", False),
}


@contextmanager
def recording(*names):
    """A list of what the named ``decal.data`` functions return, filled in call order while in the block."""
    returned = []
    with ExitStack() as stack:
        for name in names:
            fn = getattr(data, name)
            stack.enter_context(mock.patch.object(
                data, name, lambda *args, fn=fn: returned.append(fn(*args)) or returned[-1]))
        yield returned


def one_process_columns(path):
    """The columns a one-process load of ``path`` reads: numpy's, or else the row reader's."""
    with recording("_numpy_columns", "_row_columns") as returned:
        load_dataset(path)
    return next(columns for columns in returned if columns is not None)


def assert_same_columns(got, expected):
    """ids, labels, features, patient codes and names, and in_test, equal in dtype, shape and bytes."""
    def arrays(columns):
        ids, labels, features, (codes, _), in_test, _ = columns
        return ids, labels, features, codes, in_test

    for a, b in zip(arrays(got), arrays(expected)):
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes())
    assert got[3][1] == expected[3][1]


def load_outcome(path, workers=1):
    """The split loaded, or the type and message of the data error raised."""
    try:
        return load_dataset(path, workers=workers)
    except DataError as exc:
        return type(exc), str(exc)


class TestByteRanges:
    """``workers`` of 2 read the body in two byte ranges, one in a forked child, and load what one process loads."""

    @pytest.fixture(autouse=True)
    def one_line_blocks(self, monkeypatch):
        # one line a block, so that any body of two bytes or more is split: the small fixtures take the range path
        monkeypatch.setattr(data, "_BATCH_CHARS", 1)
        monkeypatch.setattr(data, "_BLOCK_BATCHES", 1)

    @pytest.mark.parametrize("name", RANGE_FIXTURES)
    def test_two_ranges_read_the_columns_of_one_process(self, tmp_path, name):
        text, vouched = RANGE_FIXTURES[name]
        path = tmp_path / "data.csv"
        path.write_bytes(text)
        expected = one_process_columns(path)
        with recording("_range_columns") as returned:
            split = load_dataset(path, workers=2)
        assert len(returned) == 1 and (returned[0] is not None) == vouched
        if vouched:
            assert_same_columns(returned[0], expected)
        assert split_equal(split, load_dataset(path))

    def test_a_patient_in_both_ranges_is_one_patient(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes(RANGE_FIXTURES["shared-patient"][0])
        with open(path, "rb") as fh:
            starts = data._range_starts(fh.fileno(), 1, 2)
        text = path.read_bytes()
        first, last = text.index(b"\n0,S,") + 1, text.index(b"\n19,S,") + 1  # where patient S's rows start
        assert first < starts[1] <= last
        with recording("_range_columns") as returned:
            split = load_dataset(path, workers=2)
        assert returned[0] is not None
        assert split.pool.patients_for([0, 19]) == ["S", "S"] and split.pool.patient_names.count("S") == 1

    @pytest.mark.parametrize("last_line, error", [
        ("1,p9,0,test,0.5", "10: duplicate sample id 1 (first seen on line 3)"),  # each range holds one of the two
        ('8,"p8",0,test,0.5', None),  # the one quote is in the second range
    ], ids=["duplicate-id", "quote"])
    def test_what_a_range_cannot_vouch_for_is_left_to_one_process(self, tmp_path, last_line, error):
        path = tmp_path / "data.csv"
        path.write_text("\n".join([*RANGE_ROWS, last_line]) + "\n", encoding="utf-8")
        expected = load_outcome(path)
        with recording("_range_columns") as returned:
            got = load_outcome(path, workers=2)
        assert returned == [None]
        if error is None:
            assert split_equal(got, expected)
        else:
            assert got == expected == (CsvParseError, f"{path}:{error}")

    def test_a_bare_cr_file_has_no_line_end_to_split_after(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_bytes("\r".join([*RANGE_ROWS, "8,p8,0,pool,x"]).encode())
        with recording("_range_columns") as returned:
            got = load_outcome(path, workers=2)
        assert got == load_outcome(path) == (CsvParseError, f"{path}:10: could not convert string to float: 'x'")
        assert returned == [None]

    def test_a_child_that_dies_leaves_the_load_to_one_process(self, tmp_path, monkeypatch):
        path = tmp_path / "data.csv"
        path.write_bytes(RANGE_FIXTURES["write-dataset"][0])
        expected = load_dataset(path)
        parent, forks = os.getpid(), []
        range_stretch, fork = data._range_stretch, os.fork

        def dying(*args):
            if os.getpid() != parent:
                os._exit(3)
            return range_stretch(*args)

        monkeypatch.setattr(data, "_range_stretch", dying)
        monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
        with recording("_range_columns") as returned:
            split = load_dataset(path, workers=2)
        assert returned == [None] and forks == [1]
        assert split_equal(split, expected)

    def test_no_child_is_forked_where_processes_are_spawned(self, tmp_path, monkeypatch):
        path = write_csv(tmp_path, BASIC_CSV)
        monkeypatch.setattr(data.multiprocessing, "get_start_method", lambda allow_none=False: "spawn")
        with recording("_range_columns") as returned:
            split = load_dataset(path, workers=2)
        assert returned == []
        assert split_equal(split, load_dataset(path))


def test_the_stress_csv_in_two_ranges_reads_the_columns_of_one_process(tmp_path):
    # 60,000 rows, 8.2 MB: two ranges of several of the reader's own 1 MB blocks
    path = tmp_path / "stress.csv"
    write_dataset(generate_synthetic(replace(PRESETS["large-uniform"], num_patients=7500), 0), path)
    expected = one_process_columns(path)
    with recording("_range_columns") as returned:
        split = load_dataset(path, workers=2)
    assert returned[0] is not None
    assert_same_columns(returned[0], expected)
    assert split_equal(split, load_dataset(path))


# Replacement fields for the fuzz below: unbounded ints reach past int64, text
# reaches commas, quotes, newlines and non-ASCII digits.
FUZZ_FIELDS = st.one_of(
    st.integers().map(str),
    st.floats().map(repr),
    st.text(max_size=6),
    st.sampled_from(["pool", "test", "", "f2", "f\u00b2", "0"]),
)


@st.composite
def fuzzed_csv(draw) -> bytes:
    rows = [line.split(",") for line in BASIC_CSV.splitlines()]
    for _ in range(draw(st.integers(0, 4))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        row[draw(st.integers(0, len(row) - 1))] = draw(FUZZ_FIELDS)
    data = "\n".join(",".join(row) for row in rows).encode("utf-8")
    cut = draw(st.integers(0, len(data)))
    return data[:cut] + draw(st.binary(max_size=4)) + data[cut:]


@settings(max_examples=300, deadline=None)
@given(fuzzed_csv())
def test_fuzzed_csv_raises_only_data_errors(data):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(data)
        try:
            load_dataset(path)
        except DataError:
            pass


# An int field holding a character past U+FFFF could crash numpy 2.4.6's loadtxt
# (SIGSEGV), so the cases run `decal run` in a subprocess: the repro file, then
# one code point of each of planes 1-16 in one of three placements.
PAST_THE_BMP = [("label", "\U0010DAD9")] + [
    (("sample_id", "label")[plane % 2], ("{}", "1{}", "{}1")[plane % 3].format(chr(plane * 0x10000 + 0xDAD9)))
    for plane in range(1, 17)
]
PAST_THE_BMP_IDS = ["repro", *(f"plane-{plane}" for plane in range(1, 17))]

# Calls decal.cli.main on each (case, argv) of the JSON list in argv[1]. It prints a line as a case
# starts and one with its exit code and stderr as it ends, so a crash names the case it hit.
RUN_CASES = """
import contextlib, io, json, sys
from decal.cli import main
for case, argv in json.loads(sys.argv[1]):
    print(json.dumps({"case": case}), flush=True)
    stderr = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(stderr):
        code = main(argv)
    print(json.dumps({"case": case, "code": code, "stderr": stderr.getvalue()}), flush=True)
"""


@pytest.fixture(scope="module")
def past_the_bmp_runs(tmp_path_factory):
    """Each case's (CSV path, exit code, stderr) from one subprocess, or why the subprocess did not report it."""
    cases, paths = [], {}
    for case, (column, value) in zip(PAST_THE_BMP_IDS, PAST_THE_BMP):
        directory = tmp_path_factory.mktemp(case)
        fields = {"sample_id": "1", "patient_id": "B", "label": "0", "split": "pool", "f0": "0.2"}
        fields[column] = value
        paths[case] = write_csv(directory, "sample_id,patient_id,label,split,f0\n0,A,0,pool,0.1\n"
                                           f"{','.join(fields.values())}\n2,C,1,test,0.3\n")
        config = directory / "config.json"
        config.write_text(json.dumps({"dataset": {"csv_path": str(paths[case])}}), encoding="utf-8")
        cases.append((case, ["run", "--config", str(config), "--out", str(directory / "out")]))
    src = str(Path(decal.__file__).parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    done = subprocess.run([sys.executable, "-c", RUN_CASES, json.dumps(cases)], env=env, capture_output=True,
                          timeout=120)
    reports = [json.loads(line) for line in done.stdout.decode("ascii").splitlines()]
    ended = {report["case"]: report for report in reports if "code" in report}
    running = next((report["case"] for report in reports if report["case"] not in ended), None)
    how = f"signal {signal.Signals(-done.returncode).name}" if done.returncode < 0 else f"exit {done.returncode}"
    lost = (f"not reported: the subprocess ended by {how} while running case {running}\n"
            + done.stderr.decode("utf-8", "replace"))
    return {case: (paths[case], ended[case]["code"], ended[case]["stderr"]) if case in ended else lost
            for case, _ in cases}


@pytest.mark.parametrize("column, value", PAST_THE_BMP, ids=PAST_THE_BMP_IDS)
def test_int_field_past_the_bmp_is_a_row_error_not_a_crash(past_the_bmp_runs, column, value):
    run = past_the_bmp_runs[PAST_THE_BMP_IDS[PAST_THE_BMP.index((column, value))]]
    if isinstance(run, str):
        pytest.fail(run)
    path, code, stderr = run
    assert code == 2, stderr
    assert stderr == f"data error: {path}:3: invalid literal for int() with base 10: {value!r}\n"


# A row fault for the test below: (column, value, the error message of a row with it).
ROW_FAULTS = [
    ("f0", "bad", "could not convert string to float: 'bad'"),
    ("split", "train", "split must be 'pool' or 'test', got 'train'"),
    ("patient_id", " ", "empty patient id"),
    ("label", "-1", "label must be in 0..2**63-1, got -1"),
]


@st.composite
def row_fault_and_bad_byte(draw):
    """(CSV bytes of 1-40 KB, line a, the message of its row fault, line b holding a non-UTF-8 byte)."""
    header = ["sample_id", "patient_id", "label", "split", "f0", "f1", "f2"]
    rows = [[str(i), f"p{i % 7}", str(i % 2), "test" if i % 7 == 0 else "pool",
             f"{i / 7:.20f}", f"{-i / 3:.20f}", f"{i / 11:.20f}"]
            for i in range(draw(st.integers(13, 440)))]
    a, b = draw(st.lists(st.integers(2, len(rows) + 1), min_size=2, max_size=2, unique=True))
    column, value, message = draw(st.sampled_from(ROW_FAULTS))
    rows[a - 2][header.index(column)] = value
    lines = [",".join(row).encode("utf-8") for row in [header, *rows]]
    cut = draw(st.integers(0, len(lines[b - 1])))
    lines[b - 1] = lines[b - 1][:cut] + b"\xff" + lines[b - 1][cut:]
    return b"".join(line + b"\n" for line in lines), a, message, b


@settings(max_examples=100, deadline=None)
@given(row_fault_and_bad_byte())
def test_the_first_of_a_row_fault_and_a_bad_byte_is_reported(case):
    text, a, message, b = case
    assert 1024 <= len(text) <= 40 * 1024
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text)
        with pytest.raises(CsvParseError) as err:
            load_dataset(path)
    line, expected = (a, message) if a < b else (b, "not valid UTF-8")
    assert str(err.value) == f"{path}:{line}: {expected}"


def synth_cfg(**overrides):
    base = dict(
        num_classes=3,
        num_patients=30,
        images_per_patient=ImageCountSpec(kind="uniform", low=5, high=5),
        feature_dim=4,
        class_separation=3.0,
        patient_offset_scale=1.0,
        test_fraction_of_patients=0.2,
        noise_scale=0.2,
    )
    base.update(overrides)
    return SyntheticConfig(**base)


class TestGenerateSynthetic:
    def test_patient_counts_follow_config(self):
        split = generate_synthetic(synth_cfg(), seed=3)
        assert len(set(split.pool.patients)) == 24
        assert len(set(split.test.patients)) == 6
        assert len(split.pool) == 24 * 5
        assert len(split.test) == 6 * 5
        assert not set(split.pool.patients) & set(split.test.patients)

    def test_deterministic_in_seed(self):
        a = generate_synthetic(synth_cfg(), seed=11)
        b = generate_synthetic(synth_cfg(), seed=11)
        assert split_equal(a, b)
        c = generate_synthetic(synth_cfg(), seed=12)
        assert not np.array_equal(a.pool.features, c.pool.features)

    def test_zero_offset_removes_patient_structure(self):
        split = generate_synthetic(
            synth_cfg(patient_offset_scale=0.0, noise_scale=0.05), seed=5
        )
        # with no offsets every sample of a class sits near one common mean
        for part in (split.pool, split.test):
            for c in range(split.num_classes):
                rows = part.features[part.labels == c]
                centered = rows - rows.mean(axis=0)
                assert np.linalg.norm(centered, axis=1).max() < 8 * 0.05 * np.sqrt(4)

    def test_heavy_tailed_counts_vary(self):
        cfg = synth_cfg(
            images_per_patient=ImageCountSpec(kind="heavy_tailed", low=2, high=40, skew=1.6),
            num_patients=60,
        )
        split = generate_synthetic(cfg, seed=9)
        counts = list(patient_distribution(split.pool).values())
        assert min(counts) >= 2 and max(counts) <= 40
        assert max(counts) > min(counts)

    def test_too_few_patients_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(synth_cfg(num_patients=2), seed=0)

    def test_invalid_fraction_rejected(self):
        with pytest.raises(ConfigError):
            generate_synthetic(synth_cfg(test_fraction_of_patients=1.0), seed=0)

    def test_pool_past_the_bound_is_config_error_naming_the_keys(self):
        # at seed 0 the first patient draws 10**12 images: the per-patient draw failed
        # with MemoryError there; the bound is checked before anything that size exists
        cfg = synth_cfg(images_per_patient=ImageCountSpec(kind="heavy_tailed", low=1, high=10**12, skew=1.0001))
        with pytest.raises(ConfigError, match="images_per_patient and num_patients drew") as err:
            generate_synthetic(cfg, seed=0)
        assert f"at most {10**8} are generated" in str(err.value)

    def test_presets_and_a_60k_image_pool_are_far_below_the_bound(self):
        configs = [*PRESETS.values(), synth_cfg(num_patients=7500, images_per_patient=ImageCountSpec(low=8))]
        for cfg in configs:
            split = generate_synthetic(cfg, seed=0)
            assert (len(split.pool) + len(split.test)) * split.feature_dim * 250 < data._MAX_FEATURE_VALUES

    def test_peak_memory_is_at_most_two_and_a_half_feature_arrays(self):
        # 10**6 feature values: the peak is 2.28 arrays (the features, and repeat's copies of the patients'
        # means or the two splits' rows), so another pool-sized temporary or copy of the features fails this
        cfg = synth_cfg(num_patients=1000, images_per_patient=ImageCountSpec(low=10), feature_dim=100)
        split, peak = traced_peak(generate_synthetic, cfg, 0)
        assert peak <= 2.5 * (len(split.pool) + len(split.test)) * cfg.feature_dim * 8

    # at seed 2 a class-mean direction has an entry past 1.8, so a separation of 1e308 overflows
    @pytest.mark.parametrize("key", ["class_separation", "patient_offset_scale", "noise_scale"])
    def test_non_finite_features_name_the_scale_keys(self, key):
        with pytest.raises(ConfigError, match="class_separation, patient_offset_scale or noise_scale"):
            generate_synthetic(synth_cfg(**{key: 1e308}), seed=2)

    def test_round_trips_through_csv(self, tmp_path):
        split = generate_synthetic(synth_cfg(), seed=21)
        path = tmp_path / "synth.csv"
        write_dataset(split, path)
        assert split_equal(split, load_dataset(path))


class TestSampleSet:
    def test_rows_sorted_by_sample_id(self):
        part = make_sampleset([(5, "B", [5.0], 1), (2, "A", [2.0], 0), (9, "C", [9.0], 1)])
        assert part.ids.tolist() == [2, 5, 9]
        assert part.patients == ("A", "B", "C")
        assert part.features[:, 0].tolist() == [2.0, 5.0, 9.0]
        assert part.labels.tolist() == [0, 1, 1]

    def test_patient_codes_number_patients_in_sorted_order(self):
        part = make_sampleset([(0, "zed", [0.0], 0), (1, "amy", [0.0], 0), (2, "zed", [0.0], 0)])
        assert part.patient_codes.tolist() == [1, 0, 1]

    def test_patient_codes_are_a_frozen_attribute_set_at_construction(self):
        part = SampleSet([7, 3], (np.array([0, 1]), ("b", "c")), [[0.0], [1.0]], [0, 1])
        assert vars(part)["patient_codes"] is part.patient_codes  # no cached property
        assert part.patient_codes.dtype == np.int64 and not part.patient_codes.flags.writeable
        assert part.patient_codes.tolist() == [1, 0] and part.patients == ("c", "b")  # sorted with the ids

    @pytest.mark.parametrize("codes, names, code_range", [
        ([0, 0], ("a", "b"), "0..1"),
        ([0, 2], ("a", "b"), "0..1"),
        ([-1, 1], ("a", "b"), "0..1"),
        ([1, 2], ("a", "b", "c"), "0..2"),
        ([0, 1], ("b", "a"), "0..1"),
        ([0, 1], ("a", "a"), "0..1"),
    ], ids=["unused-name", "code-past-names", "negative-code", "unused-first-name", "unsorted-names", "repeated-name"])
    def test_bad_code_and_name_pairs_are_rejected(self, codes, names, code_range):
        with pytest.raises(DataError, match=f"patient codes must use each of {code_range}, naming distinct ascending names"):
            SampleSet([0, 1], (codes, names), [[0.0], [1.0]], [0, 1])

    def test_public_constructor_leaves_the_callers_arrays_writable_and_unshared(self):
        ids, codes, features, labels = np.array([3, 1]), np.array([1, 0]), np.array([[0.5], [1.5]]), np.array([0, 1])
        for unsorted in (True, False):  # with and without a reorder by sample id
            given = [ids if unsorted else ids[::-1].copy(), codes, features, labels]
            part = SampleSet(given[0], (codes, ("a", "b")), features, labels)
            for mine, kept in zip(given, (part.ids, part.patient_codes, part.features, part.labels)):
                assert mine.flags.writeable and not kept.flags.writeable
                assert not np.shares_memory(mine, kept)

    @pytest.mark.parametrize("ids, codes, names, features, labels, message", [
        ([0, 1], [0, 0], ("a", "b"), [[0.0], [1.0]], [0, 1], "patient codes must use each of 0..1"),
        ([0, 0], [0, 0], ("a",), [[0.0], [1.0]], [0, 1], "sample ids must be unique"),
        ([-1, 0], [0, 0], ("a",), [[0.0], [1.0]], [0, 1], "sample ids must be non-negative"),
        ([0, 1], [0, 0], ("a",), [[0.0], [np.inf]], [0, 1], "features must be finite"),
        ([0, 1], [0, 0], ("a",), [[0.0], [1.0]], [0, -1], "labels must be non-negative"),
        ([0, 1], [0, 0], ("a",), [0.0, 1.0], [0, 1], "features must be a 2-D array"),
        ([0, 1], [0], ("a",), [[0.0], [1.0]], [0, 1], "must have equal length"),
        ([], [], (), np.zeros((0, 1)), [], "at least one sample"),
    ])
    def test_builders_sets_run_the_constructors_checks(self, ids, codes, names, features, labels, message):
        made = [np.array(ids, np.int64), np.array(codes, np.int64), names, np.array(features, np.float64),
                np.array(labels, np.int64)]
        with pytest.raises(DataError, match=message) as public:
            SampleSet(made[0], (made[1], made[2]), *made[3:])
        with pytest.raises(DataError) as adopted:
            SampleSet._adopt(*made)
        assert str(adopted.value) == str(public.value)

    def test_builders_sets_keep_their_arrays_frozen_and_sorted(self):
        made = [np.array([9, 2]), np.array([0, 1]), ("a", "b"), np.array([[9.0], [2.0]]), np.array([1, 0])]
        part = SampleSet._adopt(*made)
        assert part.ids.tolist() == [2, 9] and part.patients == ("b", "a") and part.features[:, 0].tolist() == [2.0, 9.0]
        made[0] = np.array([2, 9])  # already in id order: the set holds the arrays it was given
        part = SampleSet._adopt(*made)
        assert part.ids is made[0] and part.features is made[3] and not made[3].flags.writeable

    def test_positions_of_ids(self):
        part = make_sampleset([(5, "B", [5.0], 1), (2, "A", [2.0], 0), (9, "C", [9.0], 1)])
        assert part.patients_for([9, 2, 5]) == ["C", "A", "B"]
        for unknown in (0, 3, 10):
            with pytest.raises(KeyError, match=f"unknown sample id {unknown}"):
                part.patients_for([9, unknown])


class TestPatientDistribution:
    def test_counts(self):
        pool = make_sampleset([
            (0, "A", [0.0], 0), (1, "A", [0.0], 1), (2, "B", [0.0], 0),
        ])
        assert patient_distribution(pool) == {"A": 2, "B": 1}

    def test_single_patient_bulk(self):
        pool = make_sampleset([(i, "A", [0.0], 0) for i in range(1000)])
        assert patient_distribution(pool) == {"A": 1000}

    def test_counts_sum_to_pool_size(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 50))
            rows = [(i, f"p{rng.integers(8)}", [0.0], 0) for i in range(n)]
            pool = make_sampleset(rows)
            assert sum(patient_distribution(pool).values()) == n


class TestNormalizeFeatures:
    def test_identity(self):
        split = generate_synthetic(synth_cfg(), seed=2)
        same = normalize_features(split, 0.0, 1.0)
        assert np.array_equal(same.pool.features, split.pool.features)
        assert np.array_equal(same.test.features, split.test.features)

    def test_constant_maps_to_zero(self):
        split = make_split(
            [(0, "A", [0.5, 0.5], 0), (1, "B", [0.5, 0.5], 1)],
            [(2, "C", [0.5, 0.5], 0)],
        )
        normalized = normalize_features(split, 0.5, 2.0)
        assert np.all(normalized.pool.features == 0.0)

    def test_reference_constants(self):
        # (0.2773 - 0.1987) / 0.0786 = 1 exactly in real arithmetic
        split = make_split(
            [(0, "A", [0.2773], 0), (1, "B", [0.2773], 1)],
            [(2, "C", [0.2773], 0)],
        )
        normalized = normalize_features(split, 0.1987, 0.0786)
        assert abs(normalized.pool.features[0, 0] - 1.0) < 1e-12

    def test_non_finite_result_is_config_error_naming_normalize(self):
        split = generate_synthetic(synth_cfg(), seed=2)
        with pytest.raises(ConfigError, match=r"normalize mu 0\.0, sigma 1e-308 makes features non-finite"):
            normalize_features(split, 0.0, 1e-308)

    def test_invalid_sigma(self):
        split = generate_synthetic(synth_cfg(), seed=2)
        with pytest.raises(ConfigError):
            normalize_features(split, 0.0, 0.0)


class TestSplitInvariants:
    def test_shared_sample_id_rejected(self):
        with pytest.raises(DataError):
            make_split(
                [(0, "A", [0.0], 0), (1, "B", [1.0], 1)],
                [(0, "C", [2.0], 1)],
            )

    def test_smallest_shared_sample_id_is_named(self):
        with pytest.raises(DataError, match="^sample id 4 appears in both pool and test$"):
            make_split(
                [(1, "A", [0.0], 0), (4, "A", [0.0], 1), (9, "B", [1.0], 1)],
                [(0, "C", [2.0], 1), (9, "C", [2.0], 0), (4, "C", [2.0], 0), (12, "C", [2.0], 0)],
            )
        split = make_split([(1, "A", [0.0], 0), (4, "B", [1.0], 1)], [(0, "C", [2.0], 1), (5, "C", [2.0], 0)])
        assert split.test.ids.tolist() == [0, 5]

    def test_label_out_of_range_rejected(self):
        with pytest.raises(DataError):
            DatasetSplit(
                pool=make_sampleset([(0, "A", [0.0], 5), (1, "B", [1.0], 0)]),
                test=make_sampleset([(2, "C", [0.0], 0)]),
                num_classes=2,
                feature_dim=1,
            )

    def test_sampleset_rejects_duplicates_and_nan(self):
        with pytest.raises(DataError):
            make_sampleset([(0, "A", [0.0], 0), (0, "B", [1.0], 0)])
        with pytest.raises(DataError):
            make_sampleset([(0, "A", [np.nan], 0)])
