"""Patient-grouped sample collections, CSV ingestion, and synthetic benchmarks.

Every sample carries a patient identity, and the pool and test splits never
share a patient, so test accuracy always measures generalization to unseen
patients. Ground-truth labels in the pool are treated as hidden until a
trial of ``experiment`` labels their rows. Label spending is audited in the
trial loop: ``experiment._check_batch`` checks the pool rows of every batch
before they are added, and the trial checks the number of labeled rows
against the budget every round.
"""

from __future__ import annotations

import csv
import re
import sys
import warnings
from array import array
from contextlib import closing, contextmanager
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, compress, islice
from pathlib import Path
from types import SimpleNamespace
from typing import NamedTuple

import numpy as np

from .errors import (
    ConfigError,
    CsvParseError,
    DataError,
    FeatureDimensionError,
    PatientOverlapError,
)

SPLIT_POOL = "pool"
SPLIT_TEST = "test"
_INT64_MAX = 2**63 - 1  # sample ids and labels are stored as int64
# valid UTF-8 never decodes to a lone surrogate, so an escaped byte marks an invalid one
_UNDECODABLE = re.compile("[\udc80-\udcff]")


class SampleSet:
    """Immutable columnar collection of samples, one row per sample.

    Rows are kept in ascending sample-id order, sorted once on construction,
    so row order and id order agree: every tie-break and random draw over
    rows follows ascending sample id, whatever order the input came in. Patients come as a (codes, names)
    pair like :func:`encode_names` makes: ``patient_codes`` per row, ``patient_names`` ascending, none unused.
    The constructor copies what it is given, so a caller's arrays are never frozen or aliased; the dataset
    builders hand the arrays they have just made to :meth:`_adopt`, which keeps them after the same checks.
    """

    def __init__(self, ids, patients, features, labels):
        self._keep(np.array(ids, dtype=np.int64), np.array(patients[0], dtype=np.int64), tuple(patients[1]),
                   np.array(features, dtype=np.float64), np.array(labels, dtype=np.int64))

    @classmethod
    def _adopt(cls, ids, codes, names, features, labels) -> SampleSet:
        """A set that keeps and freezes these arrays themselves: only for arrays no one else writes to."""
        part = cls.__new__(cls)
        part._keep(np.asarray(ids, dtype=np.int64), np.asarray(codes, dtype=np.int64), tuple(names),
                   np.asarray(features, dtype=np.float64), np.asarray(labels, dtype=np.int64))
        return part

    def _keep(self, ids, codes, names, features, labels):
        """Check the arrays, sort them by sample id, freeze them and hold them."""
        if features.ndim != 2:
            raise DataError("features must be a 2-D array of shape (n_samples, feature_dim)")
        n = features.shape[0]
        if not (len(ids) == len(codes) == len(labels) == n):
            raise DataError("ids, patients, features and labels must have equal length")
        if n == 0:
            raise DataError("a sample set must contain at least one sample")
        if ids.min() < 0:
            raise DataError("sample ids must be non-negative")
        if (codes.min() < 0 or codes.max() != len(names) - 1 or not np.bincount(codes).all()
                or any(map(str.__ge__, names, names[1:]))):
            raise DataError(f"patient codes must use each of 0..{len(names) - 1}, naming distinct ascending names")
        order = np.argsort(ids) if np.any(ids[1:] < ids[:-1]) else None
        sorted_ids = ids if order is None else ids[order]
        if np.any(sorted_ids[1:] == sorted_ids[:-1]):
            raise DataError("sample ids must be unique")
        if labels.min() < 0:
            raise DataError("labels must be non-negative")
        if not np.all(np.isfinite(features)):
            raise DataError("features must be finite (no NaN or Inf)")
        if order is not None:
            ids, features, labels, codes = sorted_ids, features[order], labels[order], codes[order]
        for arr in (ids, features, labels, codes):
            arr.setflags(write=False)
        self.ids = ids
        self.patient_codes = codes
        self.patient_names = names
        self.features = features
        self.labels = labels

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @property
    def patients(self) -> tuple[str, ...]:
        """Each row's patient name, made from the codes on every call."""
        return tuple(map(self.patient_names.__getitem__, self.patient_codes.tolist()))

    def __len__(self) -> int:
        return len(self.ids)

    def patients_for(self, sample_ids) -> list[str]:
        """Patient name of each sample id; KeyError names the first id not in the set."""
        ids = np.asarray(sample_ids, dtype=np.int64).reshape(-1)
        rows = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        unknown = self.ids[rows] != ids
        if unknown.any():
            raise KeyError(f"unknown sample id {int(ids[unknown][0])}")
        return [self.patient_names[code] for code in self.patient_codes[rows].tolist()]


def encode_names(names) -> tuple[np.ndarray, tuple[str, ...]]:
    """The (codes, names) pair of per-row names: codes number the distinct names in ascending order."""
    distinct = sorted(dict.fromkeys(names))  # kept in first-seen order, which is often sorted already
    code_of = {name: code for code, name in enumerate(distinct)}
    return np.fromiter(map(code_of.__getitem__, names), np.int64, len(names)), tuple(distinct)


def _part(ids, codes, names, features, labels) -> SampleSet:
    """A SampleSet keeping these fresh arrays, its patients renumbered 0..P-1 in ``names`` order over those it holds."""
    used = np.bincount(codes, minlength=len(names)) > 0
    return SampleSet._adopt(ids, (np.cumsum(used) - 1)[codes], compress(names, used.tolist()), features, labels)


@dataclass(frozen=True)
class DatasetSplit:
    """An unlabeled pool (with hidden labels) and a patient-disjoint test set, each coding only its own patients."""

    pool: SampleSet
    test: SampleSet
    num_classes: int
    feature_dim: int

    def __post_init__(self):
        if self.num_classes < 2:
            raise DataError("a dataset needs at least 2 classes")
        for name, part in (("pool", self.pool), ("test", self.test)):
            if part.feature_dim != self.feature_dim:
                raise FeatureDimensionError(
                    f"{name} features have dimension {part.feature_dim}, expected {self.feature_dim}"
                )
            if int(part.labels.max()) >= self.num_classes:
                raise DataError(
                    f"{name} contains label {int(part.labels.max())} outside [0, {self.num_classes})"
                )
        # both parts' ids ascend, so the first test id found in the pool is the smallest shared one
        test_ids = self.test.ids
        shared = self.pool.ids[np.minimum(np.searchsorted(self.pool.ids, test_ids), len(self.pool) - 1)] == test_ids
        if shared.any():
            raise DataError(f"sample id {int(test_ids[shared.argmax()])} appears in both pool and test")
        shared_patients = set(self.pool.patient_names).intersection(self.test.patient_names)
        if shared_patients:
            raise PatientOverlapError(min(shared_patients))


def patient_distribution(pool: SampleSet) -> dict[str, int]:
    """Multiplicity count per patient, in name order, from one count of the codes; counts sum to the pool size."""
    return dict(zip(pool.patient_names, np.bincount(pool.patient_codes).tolist()))


class LabeledSet:
    """Empty stand-in: ``perfbench/spans.py`` resolves ``LabeledSet.features`` and lists it missing.

    The labeled set is two arrays of ``experiment._Trial``; delete this with that span.
    """


def normalize_features(split: DatasetSplit, mu: float, sigma: float) -> DatasetSplit:
    """Replace every feature x with (x - mu) / sigma, identically in pool and test."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")

    def transform(part: SampleSet) -> SampleSet:
        with np.errstate(over="ignore"):
            features = (part.features - mu) / sigma
        if not np.isfinite(features).all():
            raise ConfigError(f"normalize mu {mu}, sigma {sigma} makes features non-finite")
        return SampleSet._adopt(part.ids, part.patient_codes, part.patient_names, features, part.labels)

    return replace(split, pool=transform(split.pool), test=transform(split.test))


# ---------------------------------------------------------------------------
# Synthetic patient-structured benchmarks
# ---------------------------------------------------------------------------

# Bound on generated feature values (images x feature_dim), over 250 times the largest
# preset or benchmark pool (60k images x 6). At the bound one float64 feature array is
# 800 MB, and generate_synthetic holds about 2.2 at its peak (traced: 175 MB for 10^7
# values), so about 1.8 GB.
_MAX_FEATURE_VALUES = 10**8

@dataclass(frozen=True)
class ImageCountSpec:
    """How many images each patient contributes.

    "uniform" draws counts from [low, high]; "heavy_tailed" draws
    low - 1 + Zipf(skew) clipped at high, so a few patients dominate the pool.
    An omitted ``high`` equals ``low``: every patient has ``low`` images.
    :meth:`draw` makes every patient's count in one generator call.
    """

    kind: str = "uniform"
    low: int = 1
    high: int | None = None
    skew: float = 2.0

    def __post_init__(self):
        if self.high is None:
            object.__setattr__(self, "high", self.low)
        if self.kind not in ("uniform", "heavy_tailed"):
            raise ConfigError(f"images_per_patient kind must be 'uniform' or 'heavy_tailed', got {self.kind!r}")
        if self.low < 1:
            raise ConfigError("images_per_patient low must be >= 1")
        if self.high < self.low:
            raise ConfigError("images_per_patient high must be >= low")
        if self.high > _INT64_MAX:
            raise ConfigError(f"images_per_patient high (default: low) must be <= 2**63-1, got {self.high}")
        if self.kind == "heavy_tailed" and self.skew <= 1.0:
            raise ConfigError("heavy_tailed skew must be > 1")

    def draw(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """``size`` counts from one generator call, with the values and stream of ``size`` one-count calls.

        Clipping before the shift keeps every value in int64, up to ``high`` = 2**63-1.
        """
        if self.kind == "uniform":
            return rng.integers(self.low, self.high + 1, size=size)
        return np.minimum(rng.zipf(self.skew, size=size), self.high - self.low + 1) + (self.low - 1)


@dataclass(frozen=True)
class SyntheticConfig:
    """Class-mean + per-patient-offset Gaussian generator.

    Each patient belongs to one class and owns an offset vector whose
    magnitude scales with ``patient_offset_scale``; the patient's images are
    Gaussian draws around (class mean + patient offset). Setting the offset
    scale to zero removes all intra-class patient structure, which makes the
    generator a one-knob test bed for whether patient identity matters.
    """

    num_classes: int
    num_patients: int
    images_per_patient: ImageCountSpec
    feature_dim: int
    class_separation: float
    patient_offset_scale: float
    test_fraction_of_patients: float
    noise_scale: float

    def __post_init__(self):
        if self.num_classes < 2:
            raise ConfigError("num_classes must be >= 2")
        if self.num_patients < self.num_classes:
            raise ConfigError(
                f"num_patients ({self.num_patients}) must be >= num_classes ({self.num_classes})"
            )
        if self.feature_dim < 1:
            raise ConfigError("feature_dim must be >= 1")
        if self.num_patients * self.feature_dim > _MAX_FEATURE_VALUES:  # each patient has an image
            raise ConfigError(f"num_patients x feature_dim must be <= {_MAX_FEATURE_VALUES} feature values, "
                              f"got {self.num_patients} x {self.feature_dim}")
        if self.class_separation <= 0:
            raise ConfigError("class_separation must be > 0")
        if self.patient_offset_scale < 0:
            raise ConfigError("patient_offset_scale must be >= 0")
        if not 0.0 < self.test_fraction_of_patients < 1.0:
            raise ConfigError("test_fraction_of_patients must be in (0, 1)")
        if self.noise_scale <= 0:
            raise ConfigError("noise_scale must be > 0")


def generate_synthetic(cfg: SyntheticConfig, seed: int) -> DatasetSplit:
    """Generate a patient-grouped split; a pure function of (cfg, seed).

    Patients are assigned classes round-robin; per class, a
    ``test_fraction_of_patients`` share of patients (at least one, never all)
    is held out entirely to the test split. Patient p is named ``p%04d``; each split codes its patients in name
    order. A config that would draw more than ``_MAX_FEATURE_VALUES`` feature values, or non-finite ones, is a ConfigError.
    """
    rng = np.random.default_rng(seed)
    n_classes, n_patients, dim = cfg.num_classes, cfg.num_patients, cfg.feature_dim

    # Class means: random directions at distance class_separation from the origin.
    directions = rng.standard_normal((n_classes, dim))
    norms = np.linalg.norm(directions, axis=1, keepdims=True)
    norms[norms == 0] = 1.0

    patient_class = np.arange(n_patients) % n_classes
    # one draw for all patients, patient after patient, is the stream of one draw per patient
    counts = cfg.images_per_patient.draw(rng, n_patients)
    offsets = rng.standard_normal((n_patients, dim))  # scaled and shifted to each patient's mean image below

    held_out = np.zeros(n_patients, dtype=bool)  # per patient: in the test split
    for c in range(n_classes):
        members = np.flatnonzero(patient_class == c)
        if len(members) < 2:
            raise ConfigError(
                f"class {c} has only {len(members)} patient(s); need >= 2 to hold out a test patient"
            )
        n_test = int(np.floor(cfg.test_fraction_of_patients * len(members) + 0.5))
        n_test = min(max(n_test, 1), len(members) - 1)
        held_out[rng.choice(members, size=n_test, replace=False)] = True

    n_images = sum(counts.tolist())  # Python ints: an int64 sum can wrap past the bound below
    if n_images * dim > _MAX_FEATURE_VALUES:
        raise ConfigError(
            f"images_per_patient and num_patients drew {n_images} images of feature_dim {dim}, "
            f"{n_images * dim} feature values; at most {_MAX_FEATURE_VALUES} are generated"
        )
    owner = np.repeat(np.arange(n_patients), counts)  # patient of each row; sample id = row
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite features are reported below
        # in place, bitwise means[patient_class] + patient_offset_scale * offsets: IEEE + and * commute
        offsets *= cfg.patient_offset_scale
        offsets += (cfg.class_separation * directions / norms)[patient_class]
        # one draw for all images, patient after patient, is the stream of one draw per patient; scaled and
        # shifted in place, so that repeat's copies of the patients' means are the one other array this size
        features = rng.standard_normal((n_images, dim))
        features *= cfg.noise_scale
        features += np.repeat(offsets, counts, axis=0)
    if not np.isfinite(features).all():
        raise ConfigError(
            "generated features are not finite; lower class_separation, patient_offset_scale or noise_scale"
        )
    in_test = held_out[owner]
    names = ["p%04d" % p for p in range(n_patients)]  # %-formatting: a third faster than an f-string here
    code = np.arange(n_patients)  # place in name order, which is number order up to p9999
    if n_patients > 10_000:  # "p10000" < "p2000"
        code = np.argsort(sorted(range(n_patients), key=names.__getitem__))
        names.sort()

    def part(mask: np.ndarray) -> SampleSet:
        rows = np.flatnonzero(mask)
        patient = owner[rows]
        return _part(rows, code[patient], names, features[rows], patient_class[patient])

    return DatasetSplit(
        pool=part(~in_test),
        test=part(in_test),
        num_classes=n_classes,
        feature_dim=dim,
    )


# ---------------------------------------------------------------------------
# CSV ingestion and serialization
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CsvSchema:
    """Column-name mapping for dataset CSV files."""

    sample_id: str = "sample_id"
    patient_id: str = "patient_id"
    label: str = "label"
    split: str = "split"
    feature_prefix: str = "f"

    def __post_init__(self):
        roles = {role: getattr(self, role) for role in ("sample_id", "patient_id", "label", "split")}
        if len(set(roles.values())) != len(roles):
            raise ConfigError(f"schema roles must name distinct columns, got {roles}")


def csv_rows(path):
    """(physical line the row ends on, row) per non-blank row of the UTF-8 file at ``path``.

    Lines are decoded as the reader reaches them, so csv and decoding faults are a
    CsvParseError at the first faulty line. A file that cannot be opened or read is a DataError naming it.
    It reads raw CSVs and a dataset row by row; a dataset's header is read the same way
    (:func:`_file_rows`) from the file numpy then reads the body of.
    """
    with _open_csv(path) as fh:
        yield from _file_rows(fh, path)


@contextmanager
def _open_csv(path):
    """The open text file at ``path``; an OSError opening it or reading it in the block is a DataError naming it."""
    try:
        with open(path, newline="", encoding="utf-8", errors="surrogateescape") as fh:
            if fh.buffer.peek(3)[:3] == b"\xef\xbb\xbf":  # one leading byte-order mark, as spreadsheet exports write
                fh.buffer.read(3)
            yield fh
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror}") from None


def _file_rows(fh, path):
    """:func:`csv_rows` of the open file ``fh``, from where it stands."""
    def lines():
        for line in fh:
            if not line.isascii() and _UNDECODABLE.search(line):  # the reader has counted the lines before
                raise CsvParseError(path, reader.line_num + 1, "not valid UTF-8")
            yield line

    reader = csv.reader(lines())
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise CsvParseError(path, reader.line_num, str(exc)) from None


def load_dataset(path, schema: CsvSchema | None = None) -> DatasetSplit:
    """Load a pool/test split from a feature CSV.

    Violations are rejected, never repaired: malformed rows raise a parse
    error with the offending line number, a patient present in both splits
    raises a disjointness error naming the patient, rows whose feature
    count disagrees with the header raise a dimension error, and a class in
    0..max(label) with no pool sample raises a parse error at the line of the
    largest label.

    The csv module reads the header and numpy's C reader the body, about 1 MB
    of lines at a time, from the same open file (:func:`_numpy_columns`), so a
    load holds little besides the arrays it returns. A file numpy's columns cannot
    vouch for is read again from the top, row by row (:func:`_row_columns`), so
    ``path`` must be a file that can be opened twice. An error then names the
    first faulty physical line, whether its fault is a row, csv or decoding one.
    Patient ids are stripped, and each split codes its patients in name order.
    """
    schema = schema or CsvSchema()
    with _open_csv(path) as fh:
        header_line, header = next(_file_rows(fh, path), (1, None))
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
        layout = _Layout(len(header), *col.values(), [i for _, i in feature_cols])  # col is in role order

        ids, labels, features, (codes, names), in_test, lines = _numpy_columns(fh, layout) or _row_columns(path, layout)
    in_pool = ~in_test

    for name, mask in ((SPLIT_POOL, in_pool), (SPLIT_TEST, in_test)):
        if not mask.any():
            raise DataError(f"{path}: the {name} split is empty")

    num_classes = int(labels.max()) + 1
    if num_classes < 2:
        raise DataError(f"{path}: at least 2 classes required, found {num_classes}")
    # O(pool size) whatever the largest label: the sorted distinct labels
    # equal their positions up to the first missing class (by a sort, as
    # np.unique would import numpy.ma)
    ordered = np.sort(labels[in_pool])
    present = ordered[np.r_[True, ordered[1:] != ordered[:-1]]]
    if len(present) < num_classes:
        missing = int(np.sum(present == np.arange(len(present))))
        if lines is None:  # numpy's columns carry no line numbers
            lines = _row_columns(path, layout)[-1]
        raise CsvParseError(  # at the first largest label
            path, lines[labels.argmax()], f"class {missing} of 0..{num_classes - 1} has no sample in the pool split"
        )

    def part(mask: np.ndarray) -> SampleSet:
        return _part(ids[mask], codes[mask], names, features[mask], labels[mask])

    return DatasetSplit(
        pool=part(in_pool), test=part(in_test),
        num_classes=num_classes, feature_dim=len(layout.features),
    )


class _Layout(NamedTuple):
    """The header's width and the column of each field."""

    width: int
    sample_id: int
    patient_id: int
    label: int
    split: int
    features: list[int]


# _numpy_columns reads the body a block of _BLOCK_BATCHES batches of whole lines (about _BATCH_CHARS characters
# each, 1 MB a block) per np.loadtxt call, so a load's short-lived table and strings stay that small in any file
_BATCH_CHARS = 1 << 16
_BLOCK_BATCHES = 16


def _numpy_columns(fh, layout: _Layout):
    """:func:`_row_columns` of the rest of ``fh`` but the lines, from ``np.loadtxt`` calls; None to leave them to it.

    With ``quotechar='"'`` numpy splits fields as ``csv.reader`` does, and each
    number it takes is the one ``int`` or ``float`` makes. None when numpy
    refuses the body, a row check fails on a whole column, or the text holds
    what the two read differently: a record over several lines or a line past
    csv's field size limit, ``\\x1c``-``\\x1f`` (numpy strips them around a
    number), an int64 of more digits than ``int`` takes, or a byte not UTF-8.
    Also None for text past U+FFFF, which can crash numpy 2.4.6 in an int64 field.
    The body is read in blocks of lines, a call each, and a block's table and strings are let go before the next
    block is read. No block ends after a line batch that holds a ``"``: from there on the body is one call, as a
    block that ended inside a quoted field would load, numpy 2.4.6 taking the field as closed.
    Raw patient and split values are coded as they first appear; only the distinct ones are stripped and checked.
    """
    field_limit = csv.field_size_limit()
    max_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)()  # 0: no limit
    zeros = "0" * (max_digits - 18) if max_digits else None  # an int64 has at most 19 other digits
    rows = 0  # non-blank lines read: more than numpy returns if a record spans lines
    quoted = False  # whether a batch read so far holds a '"'

    def checked(batch):
        nonlocal rows, quoted
        text = "".join(batch)
        if (max(map(len, batch)) > field_limit or any(map(text.__contains__, "\x1c\x1d\x1e\x1f"))
                or zeros and zeros in text
                or not text.isascii() and (max(text) > "\uffff" or _UNDECODABLE.search(text))):
            raise ValueError("left to the row reader")
        rows += len(batch) - batch.count("\n") - batch.count("\r\n") - batch.count("\r")
        quoted = quoted or '"' in text
        return batch

    # whole lines, about _BATCH_CHARS at a time, fed to numpy without a Python frame per line
    batches = map(checked, iter(partial(fh.readlines, _BATCH_CHARS), []))

    def block(first):
        yield first
        yield from islice(batches, _BLOCK_BATCHES - 1)
        if quoted:  # a boundary after a quote could end numpy's input inside a quoted field, which it takes as closed
            yield from batches

    def coded(code_of: dict, values: list) -> np.ndarray:
        for value in dict.fromkeys(values):  # the block's distinct values, first seen first
            code_of.setdefault(value, len(code_of))
        return np.fromiter(map(code_of.__getitem__, values), np.int64, len(values))

    kinds = {layout.sample_id: np.int64, layout.label: np.int64, layout.patient_id: object, layout.split: object}
    dtype = np.dtype([(f"c{i}", kinds.get(i, np.float64)) for i in range(layout.width)])
    ids, labels, features, raw_codes, split_codes = [], [], [], [], []  # a part per block
    raw_code_of, split_code_of = {}, {}
    try:
        for first in batches:
            with warnings.catch_warnings(record=True) as warned:
                warnings.simplefilter("always")
                table = np.loadtxt(chain.from_iterable(block(first)), dtype=dtype, delimiter=",", quotechar='"',
                                   comments=None, encoding="utf-8", ndmin=1)
            if warned and len(table):  # numpy warns of a block of blank lines; any other warning: the row reader
                return None
            ids.append(table[f"c{layout.sample_id}"].copy())
            labels.append(table[f"c{layout.label}"].copy())
            features.append(np.column_stack([table[f"c{i}"] for i in layout.features]))
            raw_codes.append(coded(raw_code_of, table[f"c{layout.patient_id}"].tolist()))
            split_codes.append(coded(split_code_of, table[f"c{layout.split}"].tolist()))
            del table, first  # the loop's names would hold them while the next block is read
    except ValueError:
        return None
    if not rows:  # no rows: the row reader names the empty split
        return None
    ids, labels, features = np.concatenate(ids), np.concatenate(labels), np.concatenate(features)
    raw_codes, split_codes = np.concatenate(raw_codes), np.concatenate(split_codes)
    codes, names = encode_names([name.strip() for name in raw_code_of])  # " a" and "a" are one; "" sorts first
    sorted_ids = np.sort(ids)
    if (len(ids) != rows or ids.min() < 0 or labels.min() < 0 or "" in names[:1]
            or not {SPLIT_POOL, SPLIT_TEST}.issuperset(map(str.strip, split_code_of))
            or not np.isfinite(features).all() or np.any(sorted_ids[1:] == sorted_ids[:-1])):
        return None
    in_test = np.array([name.strip() == SPLIT_TEST for name in split_code_of])[split_codes]
    return ids, labels, features, (codes[raw_codes], names), in_test, None


def _row_columns(path, layout: _Layout):
    """Read the file at ``path`` again from the top, row by row, and raise the error of its first faulty row.

    The one source of row error messages, and the only place that maps sample
    ids to lines. Without a faulty row, the body's (ids, labels, features,
    patients as :func:`encode_names` codes them, in_test, line of each row),
    converted by Python's ``int`` and ``float``, which take spellings numpy refuses (``1_0``).
    """
    dim = len(layout.features)
    seen: dict[int, int] = {}  # sample id -> the line it was read on
    # features flat, a C double per value: a float's own bits, without a Python object per value
    labels, patients, in_test, features = [], [], [], array("d")
    with closing(csv_rows(path)) as reader:
        next(reader, None)  # the header
        for line_number, row in reader:
            if len(row) > layout.width:
                raise FeatureDimensionError(
                    f"{path}:{line_number}: expected {dim} feature values, found {len(row) - layout.width + dim}"
                )
            if len(row) < layout.width:
                raise CsvParseError(
                    path, line_number, f"expected {layout.width} columns, found {len(row)}"
                )
            try:
                sample_id = int(row[layout.sample_id])
                label = int(row[layout.label])
            except ValueError as exc:
                raise CsvParseError(path, line_number, str(exc)) from None
            if not 0 <= sample_id <= _INT64_MAX:
                raise CsvParseError(path, line_number, f"sample id must be in 0..2**63-1, got {sample_id}")
            if not 0 <= label <= _INT64_MAX:
                raise CsvParseError(path, line_number, f"label must be in 0..2**63-1, got {label}")
            patient = row[layout.patient_id].strip()
            if not patient:
                raise CsvParseError(path, line_number, "empty patient id")
            split_value = row[layout.split].strip()
            if split_value not in (SPLIT_POOL, SPLIT_TEST):
                raise CsvParseError(
                    path, line_number, f"split must be 'pool' or 'test', got {split_value!r}"
                )
            try:
                feats = [float(row[i]) for i in layout.features]
            except ValueError as exc:
                raise CsvParseError(path, line_number, str(exc)) from None
            if not all(np.isfinite(feats)):
                raise CsvParseError(path, line_number, "non-finite feature value")
            if sample_id in seen:
                raise CsvParseError(
                    path, line_number,
                    f"duplicate sample id {sample_id} (first seen on line {seen[sample_id]})",
                )
            seen[sample_id] = line_number
            labels.append(label)
            patients.append(patient)
            features.extend(feats)
            in_test.append(split_value == SPLIT_TEST)
    return (np.fromiter(seen, np.int64, len(seen)), np.array(labels, np.int64),
            np.frombuffer(features, np.float64).reshape(len(seen), dim), encode_names(patients),
            np.array(in_test, bool), list(seen.values()))


def write_dataset(split: DatasetSplit, path) -> None:
    """Serialize a split to CSV such that load_dataset round-trips it exactly; an id it would strip is a DataError."""
    changed = sorted(p for p in {*split.pool.patient_names, *split.test.patient_names} if not p or p.strip() != p)
    if changed:
        raise DataError(f"patient id {changed[0]!r} would not load back unchanged: load_dataset strips it")
    schema = CsvSchema()
    header = [schema.sample_id, schema.patient_id, schema.label, schema.split]
    header += [f"{schema.feature_prefix}{i}" for i in range(split.feature_dim)]
    write_csv(path, header, (
        [part.ids[i], patient, part.labels[i], split_name, *part.features[i]]
        for split_name, part in ((SPLIT_POOL, split.pool), (SPLIT_TEST, split.test))
        for i, patient in enumerate(part.patients)
    ))


def write_csv(path, header, rows) -> None:
    """The one CSV writer: UTF-8, LF line ends, floats (numpy's too) as ``repr(float(v))``; makes the directory.

    Fields holding ``\\r`` or ``\\n`` are quoted: csv before Python 3.12 quotes only its line
    terminator's characters, so rows are made with ``\\r\\n`` and written with ``\\n``.
    """
    Path(path).parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(SimpleNamespace(write=lambda row: fh.write(row[:-2] + "\n")), lineterminator="\r\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
