"""JSON config files with sections ``dataset``, ``learner``, ``experiment``.

Each section is read straight into its dataclass, which is the one place its
keys, defaults and value types are written down. Parsing is strict: unknown
keys anywhere are errors, so typos fail fast instead of silently running a
default, and every value must have its field's JSON type.
"""

from __future__ import annotations

import json
import sys
from dataclasses import MISSING, fields
from functools import partial
from typing import Any, Mapping

from .data import CsvSchema, ImageCountSpec, SyntheticConfig
from .errors import ConfigError
from .experiment import DatasetSource, ExperimentConfig
from .learner import LearnerConfig

# JSON name and Python types of each scalar annotation's values. An int is a valid
# float; bools, NaN and infinities (which Python's json parses) are not numbers.
_JSON_TYPES = {"int": ("an integer", int), "float": ("a finite number", (int, float)), "str": ("a string", str)}


def _require_mapping(value: Any, section: str) -> dict:
    if not isinstance(value, Mapping):
        raise ConfigError(f"section {section!r} must be a JSON object")
    return dict(value)


def _check_keys(mapping: Mapping[str, Any], allowed, required, section: str) -> None:
    unknown = set(mapping) - set(allowed)
    if unknown:
        raise ConfigError(f"unknown keys in {section}: {sorted(unknown)}")
    missing = set(required) - set(mapping)
    if missing:
        raise ConfigError(f"missing keys in {section}: {sorted(missing)}")


def _scalar(value: Any, key: str, annotation: str):
    """``value`` checked against a field annotation such as ``"float"`` or ``"str | None"``."""
    kind = annotation.removesuffix(" | None")  # optional fields still reject null
    name, types = _JSON_TYPES[kind]
    if (isinstance(value, bool) or not isinstance(value, types)
            or kind == "float" and not abs(value) <= sys.float_info.max):  # exact for huge ints
        raise ConfigError(f"{key} must be {name}, got {json.dumps(value)}")
    return float(value) if kind == "float" else value


def _read(cls, value: Any, section: str, nested: Mapping = {}, given: Mapping = {}):
    """Build dataclass ``cls`` from the JSON object ``value``.

    The allowed keys are the fields of ``cls`` minus those in ``given``, which
    the caller supplies itself. Fields without a default are required, and
    omitted keys take the dataclass defaults. ``nested`` maps a field name to
    the reader of its sub-object, called as ``reader(value, "section.key")``;
    every other field is a scalar of its annotated type.
    """
    entry = _require_mapping(value, section)
    readable = [f for f in fields(cls) if f.name not in given]
    required = [f.name for f in readable if f.default is MISSING and f.default_factory is MISSING]
    _check_keys(entry, [f.name for f in readable], required, section)
    kwargs = dict(given)
    for f in readable:
        if f.name in entry:
            read = nested.get(f.name, partial(_scalar, annotation=f.type))
            kwargs[f.name] = read(entry[f.name], f"{section}.{f.name}")
    return cls(**kwargs)


def _parse_normalize(value: Any, key: str) -> tuple[float, float]:
    entry = _require_mapping(value, key)
    _check_keys(entry, ("mu", "sigma"), ("mu", "sigma"), key)
    return tuple(_scalar(entry[name], f"{key}.{name}", "float") for name in ("mu", "sigma"))


def parse_synthetic(value: Any, section: str = "dataset.synthetic") -> SyntheticConfig:
    return _read(SyntheticConfig, value, section,
                 nested={"images_per_patient": partial(_read, ImageCountSpec)})


def parse_config(mapping: Mapping[str, Any]) -> ExperimentConfig:
    root = _require_mapping(mapping, "config")
    _check_keys(root, ("dataset", "learner", "experiment"), ("dataset",), "config")
    dataset = _read(DatasetSource, root["dataset"], "dataset", nested={
        "schema": partial(_read, CsvSchema),
        "synthetic": parse_synthetic,
        "normalize": _parse_normalize,
    })
    return _read(ExperimentConfig, root.get("experiment", {}), "experiment", given={
        "dataset": dataset,
        "learner": _read(LearnerConfig, root.get("learner", {}), "learner"),
    })


def load_config_file(path) -> ExperimentConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"invalid JSON in {path}: {exc}") from None
    return parse_config(raw)
