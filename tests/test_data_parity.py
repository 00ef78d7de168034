"""Parity of the dataset builders with the row-wise code they replaced.

``reference_load_dataset`` and ``reference_generate_synthetic`` are the
loader and generator as they were before ``decal.data`` converted whole
columns: every row is read by the csv module and checked and converted on
its own, and every patient's image count and images are drawn by calls of
their own. They are the oracles here: the current builders, the loader's
numpy reader among them, must return bitwise the same splits, and raise the
same exception type with the same message.
"""

import contextlib
import csv
import hashlib
import io
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from decal import data
from decal.data import (
    SPLIT_POOL,
    SPLIT_TEST,
    CsvSchema,
    DatasetSplit,
    ImageCountSpec,
    SampleSet,
    SyntheticConfig,
    csv_rows,
    generate_synthetic,
    load_dataset,
    normalize_features,
)
from decal.errors import ConfigError, CsvParseError, DataError, FeatureDimensionError
from decal.presets import PRESETS

_INT64_MAX = 2**63 - 1


def oracle_codes(patients):
    """The oracle's (codes, names) of per-row patient names: a dict over their sorted set, kept apart from ``decal.data``."""
    code_of = {name: code for code, name in enumerate(sorted(set(patients)))}
    return np.array([code_of[p] for p in patients], dtype=np.int64), tuple(sorted(code_of))


def reference_load_dataset(path, schema=None):
    """The loader before its column-wise rewrite: every check runs row by row."""
    schema = schema or CsvSchema()
    reader = csv_rows(path)
    header_line, header = next(reader, (1, None))
    if header is None:
        raise CsvParseError(path, header_line, "empty file: header row required")
    header = [h.strip() for h in header]

    col: dict[str, int] = {}
    for field in (schema.sample_id, schema.patient_id, schema.label, schema.split):
        if field not in header:
            raise CsvParseError(path, header_line, f"missing required column {field!r}")
        col[field] = header.index(field)

    feature_cols: list[tuple[int, int]] = []
    known = set(col.values())
    for i, name in enumerate(header):
        if i in known:
            continue
        suffix = name[len(schema.feature_prefix):]
        if name.startswith(schema.feature_prefix) and suffix.isascii() and suffix.isdigit():
            feature_cols.append((int(suffix), i))
        else:
            raise CsvParseError(path, header_line, f"unexpected column {name!r}")
    feature_cols.sort()
    if not feature_cols:
        raise CsvParseError(path, header_line, f"no feature columns ({schema.feature_prefix}0, ...) found")
    if [k for k, _ in feature_cols] != list(range(len(feature_cols))):
        raise CsvParseError(
            path, header_line, f"feature columns must be contiguous {schema.feature_prefix}0..{schema.feature_prefix}{{d-1}}"
        )
    dim = len(feature_cols)
    feature_idx = [i for _, i in feature_cols]

    rows: dict[str, dict[str, list]] = {
        SPLIT_POOL: {"ids": [], "patients": [], "labels": [], "features": []},
        SPLIT_TEST: {"ids": [], "patients": [], "labels": [], "features": []},
    }
    seen_ids: dict[int, int] = {}
    top_label, top_line = -1, 0
    for line_number, row in reader:
        if len(row) > len(header):
            raise FeatureDimensionError(
                f"{path}:{line_number}: expected {dim} feature values, found {len(row) - len(header) + dim}"
            )
        if len(row) < len(header):
            raise CsvParseError(
                path, line_number, f"expected {len(header)} columns, found {len(row)}"
            )
        try:
            sample_id = int(row[col[schema.sample_id]])
            label = int(row[col[schema.label]])
        except ValueError as exc:
            raise CsvParseError(path, line_number, str(exc)) from None
        if not 0 <= sample_id <= _INT64_MAX:
            raise CsvParseError(path, line_number, f"sample id must be in 0..2**63-1, got {sample_id}")
        if not 0 <= label <= _INT64_MAX:
            raise CsvParseError(path, line_number, f"label must be in 0..2**63-1, got {label}")
        if label > top_label:
            top_label, top_line = label, line_number
        patient = row[col[schema.patient_id]].strip()
        if not patient:
            raise CsvParseError(path, line_number, "empty patient id")
        split_value = row[col[schema.split]].strip()
        if split_value not in (SPLIT_POOL, SPLIT_TEST):
            raise CsvParseError(
                path, line_number, f"split must be 'pool' or 'test', got {split_value!r}"
            )
        try:
            feats = [float(row[i]) for i in feature_idx]
        except ValueError as exc:
            raise CsvParseError(path, line_number, str(exc)) from None
        if not all(np.isfinite(feats)):
            raise CsvParseError(path, line_number, "non-finite feature value")
        if sample_id in seen_ids:
            raise CsvParseError(
                path, line_number,
                f"duplicate sample id {sample_id} (first seen on line {seen_ids[sample_id]})",
            )
        seen_ids[sample_id] = line_number
        bucket = rows[split_value]
        bucket["ids"].append(sample_id)
        bucket["patients"].append(patient)
        bucket["labels"].append(label)
        bucket["features"].append(feats)

    for name in (SPLIT_POOL, SPLIT_TEST):
        if not rows[name]["ids"]:
            raise DataError(f"{path}: the {name} split is empty")

    num_classes = top_label + 1
    if num_classes < 2:
        raise DataError(f"{path}: at least 2 classes required, found {num_classes}")
    # O(pool size) whatever the largest label: the sorted distinct labels
    # equal their positions up to the first missing class
    present = np.unique(rows[SPLIT_POOL]["labels"])
    if len(present) < num_classes:
        missing = int(np.sum(present == np.arange(len(present))))
        raise CsvParseError(
            path, top_line, f"class {missing} of 0..{num_classes - 1} has no sample in the pool split"
        )

    def part(name: str) -> SampleSet:
        b = rows[name]
        return SampleSet(b["ids"], oracle_codes(b["patients"]), np.array(b["features"], dtype=np.float64), b["labels"])

    return DatasetSplit(
        pool=part(SPLIT_POOL), test=part(SPLIT_TEST),
        num_classes=num_classes, feature_dim=dim,
    )


def per_patient_counts(spec, rng, n):
    """The image counts as the generator drew them before ``ImageCountSpec.draw`` took a size: one call each."""
    if spec.kind == "uniform":
        counts = [int(rng.integers(spec.low, spec.high + 1)) for _ in range(n)]
    else:
        counts = [int(min(spec.high, spec.low - 1 + rng.zipf(spec.skew))) for _ in range(n)]
    return np.array(counts)


def reference_generate_synthetic(cfg, seed):
    """The generator before its one-draw rewrites: one count draw and one noise draw per patient."""
    rng = np.random.default_rng(seed)
    n_classes, n_patients, dim = cfg.num_classes, cfg.num_patients, cfg.feature_dim

    # Class means: random directions at distance class_separation from the origin.
    means = rng.standard_normal((n_classes, dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = cfg.class_separation * means / norms

    patient_class = np.arange(n_patients) % n_classes
    counts = per_patient_counts(cfg.images_per_patient, rng, n_patients)
    offsets = cfg.patient_offset_scale * rng.standard_normal((n_patients, dim))

    test_patients: set[int] = set()
    for c in range(n_classes):
        members = np.flatnonzero(patient_class == c)
        if len(members) < 2:
            raise ConfigError(
                f"class {c} has only {len(members)} patient(s); need >= 2 to hold out a test patient"
            )
        n_test = int(np.floor(cfg.test_fraction_of_patients * len(members) + 0.5))
        n_test = min(max(n_test, 1), len(members) - 1)
        test_patients.update(int(p) for p in rng.choice(members, size=n_test, replace=False))

    n_images = sum(counts.tolist())
    if n_images * dim > data._MAX_FEATURE_VALUES:
        raise ConfigError(
            f"images_per_patient and num_patients drew {n_images} images of feature_dim {dim}, "
            f"{n_images * dim} feature values; at most {data._MAX_FEATURE_VALUES} are generated"
        )
    blocks = [
        means[patient_class[p]] + offsets[p] + cfg.noise_scale * rng.standard_normal((counts[p], dim))
        for p in range(n_patients)
    ]
    features = np.concatenate(blocks, axis=0)
    owner = np.repeat(np.arange(n_patients), counts)  # patient of each row; sample id = row
    in_test = np.isin(owner, sorted(test_patients))
    names = np.array([f"p{p:04d}" for p in range(n_patients)], dtype=object)

    def part(mask: np.ndarray) -> SampleSet:
        rows = np.flatnonzero(mask)
        return SampleSet(rows, oracle_codes(names[owner[rows]].tolist()), features[rows], patient_class[owner[rows]])

    return DatasetSplit(
        pool=part(~in_test),
        test=part(in_test),
        num_classes=n_classes,
        feature_dim=dim,
    )



def bitwise_equal(a: DatasetSplit, b: DatasetSplit) -> bool:
    def same(x: SampleSet, y: SampleSet) -> bool:
        return all(
            u.dtype == v.dtype and u.shape == v.shape and u.strides == v.strides and u.tobytes() == v.tobytes()
            for u, v in ((x.ids, y.ids), (x.patient_codes, y.patient_codes), (x.features, y.features),
                         (x.labels, y.labels))
        ) and x.patient_names == y.patient_names

    return (a.num_classes, a.feature_dim) == (b.num_classes, b.feature_dim) and same(a.pool, b.pool) and same(a.test, b.test)


def outcome(build, *args):
    """The split ``build`` returns, or the type and message of what it raises."""
    try:
        return build(*args)
    except Exception as exc:  # noqa: BLE001 - every exception is compared
        return type(exc), str(exc)


def assert_same_outcome(expected, got):
    if isinstance(expected, tuple):
        assert got == expected
    else:
        assert not isinstance(got, tuple), got
        assert bitwise_equal(got, expected)


def assert_loads_like_the_row_loop(path, schema=None):
    expected = outcome(reference_load_dataset, path, schema)
    got = outcome(load_dataset, path, schema)
    assert_same_outcome(expected, got)
    return got


ROLES = ["sample_id", "patient_id", "label", "split"]


@st.composite
def valid_records(draw):
    """A loadable dataset as a header and rows of text fields, columns and rows in drawn orders."""
    dim = draw(st.integers(1, 3))
    n_pool, n_test = draw(st.integers(2, 6)), draw(st.integers(1, 4))
    n = n_pool + n_test
    ids = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n, unique=True))
    values = draw(st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=n * dim, max_size=n * dim))
    header = draw(st.permutations(ROLES + [f"f{j}" for j in range(dim)]))
    records = []
    for i in range(n):
        pool = i < n_pool
        fields = {
            "sample_id": str(ids[i]),
            "patient_id": f"{'P' if pool else 'T'}{draw(st.integers(0, 2))}",
            "label": str(i % 2 if pool else draw(st.integers(0, 1))),  # both classes in the pool
            "split": SPLIT_POOL if pool else SPLIT_TEST,
            **{f"f{j}": repr(values[i * dim + j]) for j in range(dim)},
        }
        records.append([fields[name] for name in header])
    return header, draw(st.permutations(records))


# Field values that int() or float() accept in unusual spellings, or reject.
INT_TEXTS = ["1x", "", "1.5", " 7 ", "+3", "1_0", "٣", "-1", str(2**63), str(2**64), "9" * 4301,
             "0" * 4300 + "1", "\x1c7", "7\x1f"]
FLOAT_TEXTS = ["abc", "", "1e400", "nan", "-inf", "1_0.5", " 2.5 ", "0x1p3", "٣.5", "-0.0", "\x1e2.5",
               " 2.5", "0." + "0" * 5000 + "1"]
SPLIT_TEXTS = ["train", " pool ", "POOL", "", "test\t"]
LABEL_GAPS = ["2", "3", str(10**15), str(_INT64_MAX)]


def apply_fault(draw, header, rows, fault):
    """Apply one named fault to a drawn row (or between rows) in place."""
    at = draw(st.integers(0, len(rows) - 1))
    row = rows[at]
    if not row:  # a blank line inserted earlier
        fault = "blank"
    column = {name: i for i, name in enumerate(header)}
    if fault == "blank":
        rows.insert(at, [])
    elif fault == "newline_patient":
        row[column["patient_id"]] = row[column["patient_id"]] + "\n" + draw(st.sampled_from(["x", ""]))
    elif fault == "marked_patient":  # still a loadable file
        row[column["patient_id"]] = row[column["patient_id"]] + draw(st.sampled_from([",", '"', "#", "\n", '"\r\n,"']))
    elif fault == "bad_int":
        row[column[draw(st.sampled_from(["sample_id", "label"]))]] = draw(st.sampled_from(INT_TEXTS))
    elif fault == "bad_float":
        row[column[draw(st.sampled_from([n for n in header if n not in ROLES]))]] = draw(st.sampled_from(FLOAT_TEXTS))
    elif fault == "duplicate_id":
        other = draw(st.sampled_from([r for r in rows if r]))
        row[column["sample_id"]] = other[column["sample_id"]]
    elif fault == "short_row":
        row.pop()
    elif fault == "long_row":
        row.append(draw(st.sampled_from(["0", "", "x"])))
    elif fault == "bad_split":
        row[column["split"]] = draw(st.sampled_from(SPLIT_TEXTS))
    elif fault == "label_gap":
        row[column["label"]] = draw(st.sampled_from(LABEL_GAPS))
    elif fault == "empty_patient":
        row[column["patient_id"]] = " "
    elif fault == "shared_patient":
        other = draw(st.sampled_from([r for r in rows if r]))
        row[column["patient_id"]] = other[column["patient_id"]]


FAULTS = ["blank", "newline_patient", "bad_int", "bad_float", "duplicate_id", "short_row", "long_row",
          "bad_split", "label_gap", "empty_patient", "shared_patient", "bad_utf8"]
# Edits after which the file still loads
HARMLESS = ["blank", "newline_patient", "marked_patient"]


@st.composite
def drawn_csv(draw, faults=st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3)) -> bytes:
    """CSV bytes of a valid dataset with drawn faults, quoting, line ends and blank lines before the header.

    With several faults, the earliest faulty line should win.
    """
    header, rows = draw(valid_records())
    faults = draw(faults)
    # field edits first, so that each one finds a full row
    for fault in sorted(faults, key=lambda fault: fault in ("blank", "short_row", "long_row")):
        if fault != "bad_utf8":
            apply_fault(draw, header, rows, fault)
    line_end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    quoting = draw(st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL]))

    def line(row):
        # a "\r\n" terminator makes csv quote every field that holds "\r" or "\n"
        buf = io.StringIO(newline="")
        csv.writer(buf, quoting=quoting, lineterminator="\r\n").writerow(row)
        return buf.getvalue()[:-2] + line_end

    head = line_end * draw(st.integers(0, 2)) + line(header)
    text = (head + "".join(map(line, rows))).encode("utf-8")
    if "bad_utf8" in faults:
        body_start = len(head)  # the header is ASCII
        cut = draw(st.integers(body_start, len(text)))
        text = text[:cut] + b"\xff" + text[cut:]
    return text


@st.composite
def raw_patient_csv(draw) -> bytes:
    """A clean file whose patient ids are drawn from raw pieces of quoting, not written by csv."""
    pieces = st.sampled_from(['"', '""', "a", "b", ",", " ", "#", "\n", "\r\n", "\r"])
    rows = ["sample_id,patient_id,label,split,f0"]
    for i in range(draw(st.integers(3, 6))):
        patient = "".join(draw(st.lists(pieces, min_size=1, max_size=6)))
        rows.append(f"{i},{patient}{i},{i % 2},{'pool' if i > 0 else 'test'},{i / 4!r}")
    return draw(st.sampled_from(["\n", "\r\n", "\r"])).join(rows).encode("utf-8")


def blocks_of_lines(lines):
    """The numpy reader's blocks made ``lines`` lines long (a batch per line), for block boundaries in small files."""
    return mock.patch.multiple(data, _BATCH_CHARS=1, _BLOCK_BATCHES=lines)


# None: the reader's own block size, which holds every drawn file in one block
BLOCK_LINES = st.sampled_from([None, 1, 2, 3])


def load_bytes_like_the_row_loop(text: bytes, block_lines=None):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "data.csv"
        path.write_bytes(text)
        with blocks_of_lines(block_lines) if block_lines else contextlib.nullcontext():
            return assert_loads_like_the_row_loop(path)


class TestLoaderParity:
    @settings(max_examples=300, deadline=None)
    @given(drawn_csv(), BLOCK_LINES)
    def test_fuzzed_faulty_csv_loads_like_the_row_loop(self, text, block_lines):
        load_bytes_like_the_row_loop(text, block_lines)

    @settings(max_examples=150, deadline=None)
    @given(drawn_csv(faults=st.lists(st.sampled_from(HARMLESS), max_size=3)), BLOCK_LINES)
    def test_fuzzed_quoting_and_line_ends_load_like_the_row_loop(self, text, block_lines):
        assert isinstance(load_bytes_like_the_row_loop(text, block_lines), DatasetSplit)

    @settings(max_examples=150, deadline=None)
    @given(raw_patient_csv(), BLOCK_LINES)
    def test_fuzzed_raw_quoting_loads_like_the_row_loop(self, text, block_lines):
        load_bytes_like_the_row_loop(text, block_lines)

    # Lines 5 and 6 become one record when a quote opens a field of line 5 and closes after line 6's first field.
    # numpy takes a quoted field left open at the end of its input as closed: with f0 quoted, a block that ended
    # on line 5 loaded pool ids [0, 1, 7], where the row loop reads one row of 5 feature values on line 6.
    QUOTE_OVER_LINES = ["patient_id,sample_id,label,split,f0", "q,0,1,pool,0.25", "r,5,1,test,0.5",
                        "s,6,0,test,0.5", "a,1,0,pool,0.5", "x,7,0,pool,0.75"]

    @pytest.mark.parametrize("block_lines", [1, 2, 3])
    @pytest.mark.parametrize("column", range(5), ids=["patient", "id", "label", "split", "f0"])
    def test_quoted_line_break_across_a_block_boundary_loads_like_the_row_loop(self, tmp_path, column, block_lines):
        # the field of ``column`` opens a quote on line 5 and the quote closes on line 6, after its first field
        lines = list(self.QUOTE_OVER_LINES)
        fields = lines[4].split(",")
        lines[4] = ",".join(fields[:column] + ['"' + fields[column]])
        lines[5] = lines[5].replace(",", '",', 1)
        path = self.write(tmp_path / "data.csv", lines)
        with blocks_of_lines(block_lines):
            got = assert_loads_like_the_row_loop(path)
        if column == 0:  # a patient named "a\nx" with sample id 7
            assert isinstance(got, DatasetSplit) and got.pool.ids.tolist() == [0, 7]
        else:
            assert got == (FeatureDimensionError, f"{path}:6: expected 1 feature values, found {column + 1}")

    ROWS = ["sample_id,patient_id,label,split,f0"] + [
        f"{i},p{i},{i % 2},{'pool' if i < 6 else 'test'},{i / 8!r}" for i in range(8)
    ]

    @staticmethod
    def write(path, lines, line_end="\n"):
        path.write_bytes(line_end.join(lines).encode("utf-8", "surrogateescape") + line_end.encode())
        return path

    # Each dialect writes the same rows: quoting changes no field, and the line numbers stay.
    DIALECTS = {
        "lf": lambda lines: (lines, "\n"),
        "crlf": lambda lines: (lines, "\r\n"),
        "cr": lambda lines: (lines, "\r"),
        "quote-all": lambda lines: (['"' + line.replace(",", '","') + '"' for line in lines], "\n"),
    }

    @pytest.mark.parametrize("edits, error, line", [
        ({}, None, None),
        # the duplicate is six lines after the id it repeats
        ({7: "1,p6,0,pool,0.5"}, CsvParseError, 8),
        # a bad float on line 3 and a bad label on line 4
        ({2: "1,p1,1,pool,x", 3: "2,p2,y,pool,0.5"}, CsvParseError, 3),
        # a bad label, then a long row
        ({4: "3,p3,z,pool,0.5", 5: "4,p4,0,pool,0.5,9"}, CsvParseError, 5),
        ({5: "4,p4,0,pool,0.5,9", 4: "3,p3,z,pool,0.5"}, CsvParseError, 5),
        ({6: "5,p5,1,pool,0.5,9"}, FeatureDimensionError, 7),
        ({8: "7,p7,1,test"}, CsvParseError, 9),
        ({3: "2,p2,0,pool,inf"}, CsvParseError, 4),
        ({3: "2,p2,0,valid,0.5"}, CsvParseError, 4),
        ({3: f"{2**63},p2,0,pool,0.5"}, CsvParseError, 4),
        ({3: "-2,p2,0,pool,0.5"}, CsvParseError, 4),
        ({3: f"2,p2,{2**63},pool,0.5"}, CsvParseError, 4),
        ({3: "2, ,0,pool,0.5"}, CsvParseError, 4),
    ], ids=["clean", "duplicate-id", "two-faults", "bad-label-then-long-row",
            "edit-order", "long-row", "short-row", "non-finite", "bad-split", "id-past-int64",
            "negative-id", "label-past-int64", "blank-patient"])
    @pytest.mark.parametrize("dialect", DIALECTS)
    def test_named_faults_raise_the_row_loop_error_at_the_first_faulty_line(self, tmp_path, dialect,
                                                                           edits, error, line):
        lines = list(self.ROWS)
        for at, text in edits.items():
            lines[at] = text
        got = assert_loads_like_the_row_loop(self.write(tmp_path / "data.csv", *self.DIALECTS[dialect](lines)))
        if error is None:
            assert isinstance(got, DatasetSplit)
        else:
            assert got[0] is error and f"data.csv:{line}: " in got[1]

    @pytest.mark.parametrize("bad_row_line, oversized_line, line", [
        (3, 6, 3),    # a row fault before the reader's fault
        (None, 6, 6),  # clean rows before the reader's fault
        (7, 6, 6),
    ])
    @pytest.mark.parametrize("line_end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    def test_reader_fault_comes_after_the_rows_before_it(self, tmp_path, line_end, bad_row_line,
                                                         oversized_line, line):
        # csv raises on a field past its size limit when it reaches that row
        lines = list(self.ROWS)
        if bad_row_line is not None:
            lines[bad_row_line - 1] = lines[bad_row_line - 1].replace(",0.", ",x0.")
        lines[oversized_line - 1] = lines[oversized_line - 1].replace(",p", ",p" + "p" * 200_000)
        got = assert_loads_like_the_row_loop(self.write(tmp_path / "data.csv", lines, line_end))
        assert got[0] is CsvParseError and f"data.csv:{line}: " in got[1]

    # Line 4 of ROWS ("2,p2,0,pool,0.25") replaced by fields that numpy's reader
    # and the csv module with int() and float() could read differently.
    @pytest.mark.parametrize("row, line", [
        ("2,p2" + "p" * 200_000 + ",0,pool,0.25", 4),
        ('2,"p2' + "\np" * 70_000 + '",0,pool,0.25', 65_539),
        ("2,p2,0,pool,0." + "0" * 200_000 + "25", 4),
        ('2,p2,0,pool,"' + "\n" * 140_000 + '0.25"', 131_076),
        ('2,p2,0,pool,"' + " " * 140_000 + '0.25"', 4),
        ("0" * 4300 + "2,p2,0,pool,0.25", 4),
        ("0" * 4299 + "2,p2,0,pool,0.25", None),
        ("2,p2,0,pool,\x1c0.25", 4),
        ("\x1f2,p2,0,pool,0.25", 4),
        ("2,p2,\x1d0,pool,0.25", 4),
        ("2,p\udcff2,0,pool,0.25", 4),
        ('2,"p,\udcc3",0,pool,0.25', 4),
        ("2,p2,0,pool,0.25\udcff", 4),
        ("2,p\u00e92,0,pool,0.25", None),
        ("2,p2\u3000,0,pool,\u20070.25\xa0", None),
        ("2,p2\x85\x0b\x0c\u2028,0,pool,0.25", None),
        ('2,"p2\n",0,pool,"0.25\r\n"', None),
    ], ids=["patient-past-field-limit", "quoted-patient-over-lines-past-field-limit",
            "number-past-field-limit", "quoted-number-over-lines-past-field-limit",
            "quoted-padded-number-past-field-limit", "id-past-int-digit-limit", "id-at-int-digit-limit",
            "file-separator-before-float", "unit-separator-before-id", "group-separator-before-label",
            "non-utf8-in-patient", "non-utf8-in-quoted-patient", "non-utf8-after-float",
            "utf8-patient", "unicode-spaces", "other-line-breaks", "quoted-newlines"])
    def test_spellings_numpy_could_read_differently_load_like_the_row_loop(self, tmp_path, row, line):
        lines = list(self.ROWS)
        lines[3] = row
        got = assert_loads_like_the_row_loop(self.write(tmp_path / "data.csv", lines))
        if line is None:
            assert isinstance(got, DatasetSplit)
        else:
            assert got[0] is CsvParseError and f"data.csv:{line}: " in got[1]

    @pytest.mark.parametrize("line, text, via_rows", [
        (2, "1_0,p1,1,pool,0.125", True),
        (5, "٣,p3,1,pool,0.375", True),
        (9, " 7 ,p7,1,test,0.875", False),
        (3, "1,p1,1,pool,1_0.5", True),
    ], ids=["underscore-id", "arabic-indic-id", "padded-id", "underscore-float"])
    def test_numbers_python_reads_and_numpy_may_not_load(self, tmp_path, line, text, via_rows):
        lines = list(self.ROWS)
        lines[line - 1] = text
        with mock.patch.object(data, "_row_columns", wraps=data._row_columns) as row_columns:
            got = assert_loads_like_the_row_loop(self.write(tmp_path / "data.csv", lines))
        assert isinstance(got, DatasetSplit)
        assert row_columns.called == via_rows

    def test_header_only_file_is_an_empty_pool_and_warns_nothing(self, tmp_path):
        path = self.write(tmp_path / "data.csv", [self.ROWS[0], ""])
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            got = assert_loads_like_the_row_loop(path)
        assert got == (DataError, f"{path}: the pool split is empty")
        assert caught == []

    def test_class_gap_after_blank_lines_names_the_physical_line_of_the_largest_label(self, tmp_path):
        lines = ["", ""] + self.ROWS[:3] + ["", ""] + self.ROWS[3:]
        lines[8] = "3,p3,3,pool,0.375"  # on line 9; class 2 has no sample
        got = assert_loads_like_the_row_loop(self.write(tmp_path / "data.csv", lines))
        assert got == (CsvParseError, f"{tmp_path / 'data.csv'}:9: class 2 of 0..3 has no sample in the pool split")

    def test_schema_remapping_loads_like_the_row_loop(self, tmp_path):
        path = self.write(tmp_path / "data.csv", [line.replace("sample_id,patient_id", "sid,who") for line in self.ROWS])
        got = assert_loads_like_the_row_loop(path, CsvSchema(sample_id="sid", patient_id="who"))
        assert isinstance(got, DatasetSplit)


class TestNoSilentFallback:
    """Clean files must load through numpy's reader: a slow path that is never taken shows in no output."""

    @pytest.mark.parametrize("block_lines", [None, 3])
    @pytest.mark.parametrize("quoting, line_end, blanks", [
        (None, "\n", False), (csv.QUOTE_ALL, "\n", False), (csv.QUOTE_MINIMAL, "\r\n", False),
        (csv.QUOTE_MINIMAL, "\n", True),
    ], ids=["write-dataset", "quote-all", "crlf", "blank-lines"])
    def test_clean_files_never_reach_the_row_reader(self, tmp_path, quoting, line_end, blanks, block_lines):
        path = tmp_path / "data.csv"
        data.write_dataset(generate_synthetic(PRESETS["skewed"], 3), path)
        if quoting is not None:
            with open(path, newline="", encoding="utf-8") as fh:
                rows = list(csv.reader(fh))
            if blanks:  # 12 blank lines after every 7th row, so that some blocks hold only blank lines
                rows = [row for i, line in enumerate(rows) for row in [line] + [[]] * 12 * (i % 7 == 6)]
            with open(path, "w", newline="", encoding="utf-8") as fh:
                csv.writer(fh, quoting=quoting, lineterminator=line_end).writerows(rows)
        expected = reference_load_dataset(path)
        with (mock.patch.object(data, "_row_columns", side_effect=AssertionError("left to the row reader")),
              mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as loadtxt,
              blocks_of_lines(block_lines) if block_lines else contextlib.nullcontext()):
            assert bitwise_equal(load_dataset(path), expected)
        # with every line quoted the body is one block: no block ends after a quote
        assert (loadtxt.call_count > 1) == (block_lines is not None and quoting != csv.QUOTE_ALL)


HEAVY_TAILED = SyntheticConfig(
    num_classes=4, num_patients=50,
    images_per_patient=ImageCountSpec(kind="heavy_tailed", low=1, high=200, skew=1.3),
    feature_dim=5, class_separation=2.0, patient_offset_scale=0.8,
    test_fraction_of_patients=0.3, noise_scale=0.4,
)


@st.composite
def small_synthetic_configs(draw):
    n_classes = draw(st.integers(2, 4))
    kind = draw(st.sampled_from(["uniform", "heavy_tailed"]))
    low = draw(st.integers(1, 5))
    # a wide range or a skew near 1 mostly draws more images than SMALL_BOUND allows
    high = draw(st.integers(low, low + 20) | st.integers(low, _INT64_MAX))
    skew = draw(st.floats(1.05, 3.0) | st.floats(1.0, 1.05, exclude_min=True))
    return SyntheticConfig(
        num_classes=n_classes,
        num_patients=draw(st.integers(2 * n_classes, 24)),
        images_per_patient=ImageCountSpec(kind=kind, low=low, high=high, skew=skew),
        feature_dim=draw(st.integers(1, 6)),
        class_separation=draw(st.floats(0.01, 1e3)),
        patient_offset_scale=draw(st.floats(0.0, 1e3)),
        test_fraction_of_patients=draw(st.floats(0.05, 0.95)),
        noise_scale=draw(st.floats(1e-3, 1e3)),
    )


# Feature values allowed while fuzzing: above 24 patients x 25 images x 6 features, so a config with
# a narrow range is generated, and small enough that a wide one stays small until it fails the bound.
SMALL_BOUND = 10**4


class TestGeneratorParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", [*sorted(PRESETS), "heavy-tailed"])
    def test_presets_equal_the_per_patient_draws(self, name, seed):
        cfg = PRESETS.get(name, HEAVY_TAILED)
        assert bitwise_equal(generate_synthetic(cfg, seed), reference_generate_synthetic(cfg, seed))

    @settings(max_examples=150, deadline=None)
    @given(small_synthetic_configs(), st.integers(0, 2**32))
    def test_small_configs_equal_the_per_patient_draws(self, cfg, seed):
        with mock.patch.object(data, "_MAX_FEATURE_VALUES", SMALL_BOUND):
            assert_same_outcome(outcome(reference_generate_synthetic, cfg, seed),
                                outcome(generate_synthetic, cfg, seed))

    @pytest.mark.parametrize("kind", ["uniform", "heavy_tailed"])
    def test_image_count_past_int64_fails_the_bound_with_its_count(self, kind):
        # four patients of 2**62 images: an int64 total wraps to 0 and would pass the bound
        cfg = SyntheticConfig(
            num_classes=2, num_patients=4,
            images_per_patient=ImageCountSpec(kind=kind, low=2**62, high=2**62, skew=1.5),
            feature_dim=1, class_separation=1.0, patient_offset_scale=0.0,
            test_fraction_of_patients=0.5, noise_scale=1.0,
        )
        got = outcome(generate_synthetic, cfg, 0)
        assert got == outcome(reference_generate_synthetic, cfg, 0)
        assert got[0] is ConfigError and f"drew {2**64} images" in got[1]

    @pytest.mark.parametrize("low, high", [
        (3, 3),
        (1, 2**32),  # a range of 2**32 values: numpy's widest 32-bit draw
        (1, 2**32 + 1),  # the narrowest 64-bit one
        (2**32 - 3, 2**32 + 3),
        (1, _INT64_MAX),
        (2**62, _INT64_MAX),
    ], ids=["low-is-high", "range-2**32", "range-2**32+1", "across-2**32", "low-1-high-max", "low-2**62-high-max"])
    @pytest.mark.parametrize("kind, skew", [("uniform", 2.0), ("heavy_tailed", 1 + 1e-9),
                                            ("heavy_tailed", 1.5), ("heavy_tailed", 3.0)])
    def test_one_call_draws_the_per_patient_counts(self, kind, skew, low, high):
        spec = ImageCountSpec(kind=kind, low=low, high=high, skew=skew)
        rng, oracle = np.random.default_rng(11), np.random.default_rng(11)
        counts = spec.draw(rng, 2000)
        expected = per_patient_counts(spec, oracle, 2000)
        assert counts.dtype == np.int64
        assert counts.tolist() == expected.tolist()
        assert low <= counts.min() and counts.max() <= high
        assert rng.random() == oracle.random()


def split_digest(split: DatasetSplit) -> str:
    """SHA-256 of a split's class count, feature width, and each part's arrays (dtype, shape, bytes) and names."""
    digest = hashlib.sha256(repr((split.num_classes, split.feature_dim)).encode())
    for part in (split.pool, split.test):
        for arr in (part.ids, part.patient_codes, part.features, part.labels):
            digest.update(repr((arr.dtype.str, arr.shape)).encode())
            digest.update(np.ascontiguousarray(arr).tobytes())
        digest.update("\n".join(part.patient_names).encode())
    return digest.hexdigest()[:16]


# The stress-select generator (a 48k-image pool) and one past 10000 patients, where name order is not number order.
PINNED_CONFIGS = {
    **PRESETS,
    "stress-7500": replace(PRESETS["large-uniform"], num_patients=7500),
    "uniform-12000": replace(PRESETS["large-uniform"], num_patients=12_000,
                             images_per_patient=ImageCountSpec(low=1, high=4)),
}

# Recorded from the generator before it drew its features in place.
PINNED_DIGESTS = {
    ("large-uniform", 0): "c7e3febd4486e924", ("large-uniform", 1): "376ba6007662fcca",
    ("large-uniform", 7): "66d869c7460f41bb", ("large-uniform", 123): "99bb79e5062773f3",
    ("skewed", 0): "089ac784366ead51", ("skewed", 1): "a35b4894a1dc9b0f",
    ("skewed", 7): "4308588aa922c9b4", ("skewed", 123): "5831bff711d1a8fe",
    ("skewed-control", 0): "3142488ba91b166e", ("skewed-control", 1): "7768076c92a50348",
    ("skewed-control", 7): "eaea422b3528cd93", ("skewed-control", 123): "ba15ba4eb8bf9583",
    ("stress-7500", 0): "6ecd29bf3207b80c", ("stress-7500", 1): "9535c5faf38853e7",
    ("stress-7500", 7): "327ae17074a93bd7", ("stress-7500", 123): "5548a9f53251de01",
    ("uniform-12000", 0): "dfa1e7a6d163fc53", ("uniform-12000", 1): "b53a4a230373b967",
    ("uniform-12000", 7): "6a0afe374c154818", ("uniform-12000", 123): "d59396fea000a306",
}


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
@pytest.mark.parametrize("name", sorted(PINNED_CONFIGS))
def test_generated_splits_hash_to_their_pinned_digests(name, seed):
    assert split_digest(generate_synthetic(PINNED_CONFIGS[name], seed)) == PINNED_DIGESTS[name, seed]


def assert_coded_like_the_oracle(part: SampleSet, patients):
    """``part`` holds the per-row ``patients`` (in sample-id order) as the oracle codes them."""
    codes, names = oracle_codes(patients)
    assert part.patient_codes.dtype == np.int64 and part.patient_codes.tolist() == codes.tolist()
    assert part.patient_names == names
    assert part.patients == tuple(patients)
    assert part.patients_for(part.ids[::-1]) == list(patients)[::-1]


class TestPatientCodesOracle:
    """Codes, names and the per-row names made from them, against the oracle of per-row strings."""

    def test_generator_past_10000_patients_codes_by_name_not_number(self):
        # one image per patient: sample id i is patient i, named p%04d, and "p10000" < "p2000"
        cfg = SyntheticConfig(
            num_classes=2, num_patients=10_500, images_per_patient=ImageCountSpec(low=1),
            feature_dim=1, class_separation=1.0, patient_offset_scale=0.5,
            test_fraction_of_patients=0.2, noise_scale=0.3,
        )
        split = generate_synthetic(cfg, 4)
        assert bitwise_equal(split, reference_generate_synthetic(cfg, 4))
        for part in (split.pool, split.test):
            assert_coded_like_the_oracle(part, [f"p{i:04d}" for i in part.ids.tolist()])
        # rows follow patient numbers, and from p10000 on codes do not
        assert (np.diff(split.pool.patient_codes) < 0).any() and (np.diff(split.test.patient_codes) < 0).any()

    # " a", "a " and "a" are one patient; "10" sorts before "9"
    PATIENTS = {0: " a", 1: "a ", 2: "10", 3: "\u00e9", 4: "9", 5: "a", 6: "\u00e9 ", 7: "Z", 8: "t1", 9: "t\u00e9", 10: " t1"}
    TEST_IDS = {8, 9, 10}

    def write(self, path):
        lines = ["sample_id,patient_id,label,split,f0"] + [
            f"{i},{patient},{i % 2},{'test' if i in self.TEST_IDS else 'pool'},{i / 4!r}"
            for i, patient in reversed(self.PATIENTS.items())
        ]
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return path

    @pytest.mark.parametrize("reader", ["numpy", "rows"])
    def test_csv_readers_code_stripped_ids(self, tmp_path, reader):
        path = self.write(tmp_path / "data.csv")
        if reader == "numpy":
            leave = mock.patch.object(data, "_row_columns", side_effect=AssertionError("left to the row reader"))
        else:
            leave = mock.patch.object(data, "_numpy_columns", return_value=None)
        with leave:
            split = assert_loads_like_the_row_loop(path)
        for part in (split.pool, split.test):
            assert_coded_like_the_oracle(part, [self.PATIENTS[i].strip() for i in part.ids.tolist()])
        assert split.pool.patient_names == ("10", "9", "Z", "a", "\u00e9")
        assert split.test.patient_names == ("t1", "t\u00e9")

    def test_normalize_features_keeps_the_codes(self, tmp_path):
        split = load_dataset(self.write(tmp_path / "data.csv"))
        normalized = normalize_features(split, 0.5, 2.0)
        for before, after in ((split.pool, normalized.pool), (split.test, normalized.test)):
            assert_coded_like_the_oracle(after, [self.PATIENTS[i].strip() for i in after.ids.tolist()])
            assert after.patient_codes.tobytes() == before.patient_codes.tobytes()
