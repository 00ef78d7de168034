"""Patient-grouped sample collections, CSV ingestion, and synthetic benchmarks.

Every sample carries a patient identity, and the pool and test splits never
share a patient, so test accuracy always measures generalization to unseen
patients. Ground-truth labels in the pool are treated as hidden until their
rows join a :class:`LabeledSet`. Label spending is audited in the trial loop:
``experiment._check_batch`` checks every batch and maps its sample ids to
the rows that are added, and ``run_trial`` checks the labeled-set size
against the budget every round.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property

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


class SampleSet:
    """Immutable columnar collection of samples, one row per sample.

    Rows are kept in ascending sample-id order, sorted once on construction,
    so row order and id order agree: every tie-break and random draw over
    rows follows ascending sample id, whatever order the input came in.
    """

    def __init__(self, ids, patients, features, labels):
        # copies, not views: the arrays get frozen below and must not alias
        # caller-owned data
        ids = np.array(ids, dtype=np.int64)
        features = np.array(features, dtype=np.float64)
        labels = np.array(labels, dtype=np.int64)
        patients = tuple(str(p) for p in patients)
        if features.ndim != 2:
            raise DataError("features must be a 2-D array of shape (n_samples, feature_dim)")
        n = features.shape[0]
        if not (len(ids) == len(patients) == len(labels) == n):
            raise DataError("ids, patients, features and labels must have equal length")
        if n == 0:
            raise DataError("a sample set must contain at least one sample")
        if ids.min() < 0:
            raise DataError("sample ids must be non-negative")
        if len(np.unique(ids)) != n:
            raise DataError("sample ids must be unique")
        if labels.min() < 0:
            raise DataError("labels must be non-negative")
        if not np.all(np.isfinite(features)):
            raise DataError("features must be finite (no NaN or Inf)")
        if np.any(ids[1:] < ids[:-1]):
            order = np.argsort(ids)
            ids, features, labels = ids[order], features[order], labels[order]
            patients = tuple(patients[i] for i in order)
        for arr in (ids, features, labels):
            arr.setflags(write=False)
        self.ids = ids
        self.patients = patients
        self.features = features
        self.labels = labels

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    @cached_property
    def patient_codes(self) -> np.ndarray:
        """Per-row int patient code; codes number the patients in sorted id order."""
        code_of = {name: code for code, name in enumerate(sorted(set(self.patients)))}
        codes = np.array([code_of[p] for p in self.patients], dtype=np.int64)
        codes.setflags(write=False)
        return codes

    def __len__(self) -> int:
        return len(self.ids)

    def positions(self, sample_ids) -> np.ndarray:
        """Row of each sample id; KeyError names the first id not in the set."""
        ids = np.asarray(sample_ids, dtype=np.int64).reshape(-1)
        rows = np.minimum(np.searchsorted(self.ids, ids), len(self.ids) - 1)
        unknown = self.ids[rows] != ids
        if unknown.any():
            raise KeyError(f"unknown sample id {int(ids[unknown][0])}")
        return rows

    def patients_for(self, sample_ids) -> list[str]:
        return [self.patients[row] for row in self.positions(sample_ids)]


@dataclass(frozen=True)
class DatasetSplit:
    """An unlabeled pool (with hidden labels) and a patient-disjoint test set."""

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
        shared_ids = np.intersect1d(self.pool.ids, self.test.ids)
        if len(shared_ids):
            raise DataError(f"sample id {int(shared_ids[0])} appears in both pool and test")
        shared_patients = sorted(set(self.pool.patients) & set(self.test.patients))
        if shared_patients:
            raise PatientOverlapError(shared_patients[0])


def patient_distribution(pool: SampleSet) -> dict[str, int]:
    """Multiplicity count per patient; counts sum to the pool size."""
    return dict(Counter(pool.patients))


class LabeledSet:
    """The growing training set: pool rows whose labels have been revealed.

    Rows are kept in labeling order, never repeat, and only ever grow;
    ``mask`` marks the labeled rows.
    """

    def __init__(self, pool: SampleSet):
        self._pool = pool
        self._rows = np.empty(0, dtype=np.int64)
        self._mask = np.zeros(len(pool), dtype=bool)

    def add(self, rows) -> None:
        """Reveal the labels of the given pool rows, appended in the given order."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(np.unique(rows)) != len(rows) or self._mask[rows].any():
            raise ValueError("rows must be distinct and not yet labeled")
        self._mask[rows] = True
        self._rows = np.concatenate([self._rows, rows])

    def __len__(self) -> int:
        return len(self._rows)

    @property
    def mask(self) -> np.ndarray:
        """Read-only boolean mask over pool rows, True where the label is revealed."""
        view = self._mask.view()
        view.setflags(write=False)
        return view

    def features(self) -> np.ndarray:
        return self._pool.features[self._rows]

    def labels(self) -> np.ndarray:
        return self._pool.labels[self._rows]


def normalize_features(split: DatasetSplit, mu: float, sigma: float) -> DatasetSplit:
    """Replace every feature x with (x - mu) / sigma, identically in pool and test."""
    if sigma <= 0:
        raise ConfigError(f"sigma must be > 0, got {sigma}")

    def transform(part: SampleSet) -> SampleSet:
        return SampleSet(part.ids, part.patients, (part.features - mu) / sigma, part.labels)

    return replace(split, pool=transform(split.pool), test=transform(split.test))


# ---------------------------------------------------------------------------
# Synthetic patient-structured benchmarks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ImageCountSpec:
    """How many images each patient contributes.

    "uniform" draws counts from [low, high]; "heavy_tailed" draws
    low - 1 + Zipf(skew) clipped at high, so a few patients dominate the pool.
    An omitted ``high`` equals ``low``: every patient has ``low`` images.
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
        if self.kind == "heavy_tailed" and self.skew <= 1.0:
            raise ConfigError("heavy_tailed skew must be > 1")

    def draw(self, rng: np.random.Generator) -> int:
        if self.kind == "uniform":
            return int(rng.integers(self.low, self.high + 1))
        return int(min(self.high, self.low - 1 + rng.zipf(self.skew)))


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
    is held out entirely to the test split.
    """
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


def csv_rows(path, fh):
    """(physical line the row ends on, row) per non-blank row; faults become CsvParseError."""
    reader = csv.reader(fh)
    try:
        for row in reader:
            if row:
                yield reader.line_num, row
    except csv.Error as exc:
        raise CsvParseError(path, reader.line_num, str(exc)) from None
    except UnicodeDecodeError:
        raise CsvParseError(path, _undecodable_line(path), "not valid UTF-8") from None


def _undecodable_line(path) -> int:
    # text files decode in chunks, so the failing read does not locate the byte
    with open(path, "rb") as fh:
        for line_number, line in enumerate(fh, start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError:
                return line_number
    return line_number


def load_dataset(path, schema: CsvSchema | None = None) -> DatasetSplit:
    """Load a pool/test split from a feature CSV.

    Violations are rejected, never repaired: malformed rows raise a parse
    error with the offending line number, a patient present in both splits
    raises a disjointness error naming the patient, rows whose feature
    count disagrees with the header raise a dimension error, and a class in
    0..max(label) with no pool sample raises a parse error at the line of the
    largest label.
    """
    schema = schema or CsvSchema()
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv_rows(path, fh)
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


def write_dataset(split: DatasetSplit, path) -> None:
    """Serialize a split to CSV such that load_dataset round-trips it exactly."""
    schema = CsvSchema()
    header = [schema.sample_id, schema.patient_id, schema.label, schema.split]
    header += [f"{schema.feature_prefix}{i}" for i in range(split.feature_dim)]
    write_csv(path, header, (
        [part.ids[i], part.patients[i], part.labels[i], split_name, *part.features[i]]
        for split_name, part in ((SPLIT_POOL, split.pool), (SPLIT_TEST, split.test))
        for i in range(len(part))
    ))


def write_csv(path, header, rows) -> None:
    """The one CSV writer: UTF-8, LF line ends, floats (numpy's too) as ``repr(float(v))``."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([repr(float(v)) if isinstance(v, float) else v for v in row])
