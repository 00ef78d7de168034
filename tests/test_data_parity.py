"""Parity of the column-wise dataset builders with the row-wise code they replaced.

``reference_load_dataset`` and ``reference_generate_synthetic`` are the
loader and generator as they were before ``decal.data`` converted whole
columns: every row is checked and converted on its own, and every patient's
images are drawn in a block of their own. They are the oracles here: the
current builders must return bitwise the same splits, and raise the same
exception type with the same message.
"""

import csv
import io
import tempfile
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
)
from decal.errors import ConfigError, CsvParseError, DataError, FeatureDimensionError
from decal.presets import PRESETS

_INT64_MAX = 2**63 - 1


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
        return SampleSet(b["ids"], b["patients"], np.array(b["features"], dtype=np.float64), b["labels"])

    return DatasetSplit(
        pool=part(SPLIT_POOL), test=part(SPLIT_TEST),
        num_classes=num_classes, feature_dim=dim,
    )


def reference_generate_synthetic(cfg, seed):
    """The generator before its one-draw rewrite: one noise draw per patient."""
    rng = np.random.default_rng(seed)
    n_classes, n_patients, dim = cfg.num_classes, cfg.num_patients, cfg.feature_dim

    # Class means: random directions at distance class_separation from the origin.
    means = rng.standard_normal((n_classes, dim))
    norms = np.linalg.norm(means, axis=1, keepdims=True)
    norms[norms == 0] = 1.0
    means = cfg.class_separation * means / norms

    patient_class = np.arange(n_patients) % n_classes
    counts = np.array([cfg.images_per_patient.draw(rng) for _ in range(n_patients)])
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
        return SampleSet(rows, names[owner[rows]], features[rows], patient_class[owner[rows]])

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
            for u, v in ((x.ids, y.ids), (x.features, y.features), (x.labels, y.labels))
        ) and x.patients == y.patients

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


def assert_loads_like_the_row_loop(path, chunk_rows):
    expected = outcome(reference_load_dataset, path)
    with mock.patch.object(data, "_CHUNK_ROWS", chunk_rows):
        got = outcome(load_dataset, path)
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
INT_TEXTS = ["1x", "", "1.5", " 7 ", "+3", "1_0", "٣", "-1", str(2**63), str(2**64), "9" * 4301]
FLOAT_TEXTS = ["abc", "", "1e400", "nan", "-inf", "1_0.5", " 2.5 ", "0x1p3", "٣.5", "-0.0"]
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


@st.composite
def faulty_csv(draw) -> bytes:
    """CSV bytes of a valid dataset with up to three drawn faults; the earliest faulty line should win."""
    header, rows = draw(valid_records())
    faults = draw(st.lists(st.sampled_from(FAULTS), min_size=1, max_size=3))
    # field edits first, so that each one finds a full row
    for fault in sorted(faults, key=lambda fault: fault in ("blank", "short_row", "long_row")):
        if fault != "bad_utf8":
            apply_fault(draw, header, rows, fault)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    text = buf.getvalue().encode("utf-8")
    if "bad_utf8" in faults:
        cut = draw(st.integers(text.index(b"\n") + 1, len(text)))
        text = text[:cut] + b"\xff" + text[cut:]
    return text


class TestLoaderParity:
    @settings(max_examples=300, deadline=None)
    @given(faulty_csv(), st.integers(1, 3))
    def test_fuzzed_multi_chunk_csv_loads_like_the_row_loop(self, text, chunk_rows):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "data.csv"
            path.write_bytes(text)
            assert_loads_like_the_row_loop(path, chunk_rows)

    ROWS = ["sample_id,patient_id,label,split,f0"] + [
        f"{i},p{i},{i % 2},{'pool' if i < 6 else 'test'},{i / 8!r}" for i in range(8)
    ]

    @pytest.mark.parametrize("edits, error, line", [
        ({}, None, None),
        # the duplicate is three chunks after the id it repeats
        ({7: "1,p6,0,pool,0.5"}, CsvParseError, 8),
        # a bad float on line 3 and a bad label on line 4, in the same chunk
        ({2: "1,p1,1,pool,x", 3: "2,p2,y,pool,0.5"}, CsvParseError, 3),
        # a bad label in one chunk, a long row in the next
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
    ], ids=["clean", "duplicate-across-chunks", "two-faults-one-chunk", "two-faults-two-chunks",
            "edit-order", "long-row", "short-row", "non-finite", "bad-split", "id-past-int64",
            "negative-id", "label-past-int64", "blank-patient"])
    @pytest.mark.parametrize("chunk_rows", [1, 2, 3, 4096])
    def test_named_faults_raise_the_row_loop_error_at_the_first_faulty_line(self, tmp_path, chunk_rows,
                                                                           edits, error, line):
        lines = list(self.ROWS)
        for at, text in edits.items():
            lines[at] = text
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = assert_loads_like_the_row_loop(path, chunk_rows)
        if error is None:
            assert isinstance(got, DatasetSplit)
        else:
            assert got[0] is error and f"data.csv:{line}: " in got[1]

    @pytest.mark.parametrize("bad_row_line, oversized_line, line", [
        (3, 6, 3),    # a row fault before the reader's fault, in a chunk the reader cut short
        (None, 6, 6),  # clean rows before the reader's fault
        (7, 6, 6),
    ])
    @pytest.mark.parametrize("chunk_rows", [2, 3, 4096])
    def test_reader_fault_comes_after_the_rows_before_it(self, tmp_path, chunk_rows, bad_row_line,
                                                         oversized_line, line):
        # csv raises on a field past its size limit when it reaches that row
        lines = list(self.ROWS)
        if bad_row_line is not None:
            lines[bad_row_line - 1] = lines[bad_row_line - 1].replace(",0.", ",x0.")
        lines[oversized_line - 1] = lines[oversized_line - 1].replace(",p", ",p" + "p" * 200_000)
        path = tmp_path / "data.csv"
        path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        got = assert_loads_like_the_row_loop(path, chunk_rows)
        assert got[0] is CsvParseError and f"data.csv:{line}: " in got[1]

    def test_header_only_file_is_an_empty_pool(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text(self.ROWS[0] + "\n\n", encoding="utf-8")
        got = assert_loads_like_the_row_loop(path, 2)
        assert got == (DataError, f"{path}: the pool split is empty")

    def test_schema_remapping_loads_like_the_row_loop(self, tmp_path):
        path = tmp_path / "data.csv"
        path.write_text("\n".join(self.ROWS).replace("sample_id,patient_id", "sid,who") + "\n", encoding="utf-8")
        schema = CsvSchema(sample_id="sid", patient_id="who")
        expected = outcome(reference_load_dataset, path, schema)
        with mock.patch.object(data, "_CHUNK_ROWS", 3):
            assert_same_outcome(expected, outcome(load_dataset, path, schema))
        assert isinstance(expected, DatasetSplit)


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
    return SyntheticConfig(
        num_classes=n_classes,
        num_patients=draw(st.integers(2 * n_classes, 24)),
        images_per_patient=ImageCountSpec(kind=kind, low=low, high=low + draw(st.integers(0, 20)),
                                          skew=draw(st.floats(1.05, 3.0))),
        feature_dim=draw(st.integers(1, 6)),
        class_separation=draw(st.floats(0.01, 1e3)),
        patient_offset_scale=draw(st.floats(0.0, 1e3)),
        test_fraction_of_patients=draw(st.floats(0.05, 0.95)),
        noise_scale=draw(st.floats(1e-3, 1e3)),
    )


class TestGeneratorParity:
    @pytest.mark.parametrize("seed", range(5))
    @pytest.mark.parametrize("name", [*sorted(PRESETS), "heavy-tailed"])
    def test_presets_equal_the_per_patient_draws(self, name, seed):
        cfg = PRESETS.get(name, HEAVY_TAILED)
        assert bitwise_equal(generate_synthetic(cfg, seed), reference_generate_synthetic(cfg, seed))

    @settings(max_examples=150, deadline=None)
    @given(small_synthetic_configs(), st.integers(0, 2**32))
    def test_small_configs_equal_the_per_patient_draws(self, cfg, seed):
        assert_same_outcome(outcome(reference_generate_synthetic, cfg, seed),
                            outcome(generate_synthetic, cfg, seed))
