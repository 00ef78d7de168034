import copy
import json

import pytest

from decal.cli import main
from decal.config import parse_config
from decal.data import CsvSchema, ImageCountSpec, SyntheticConfig
from decal.errors import ConfigError
from decal.experiment import DatasetSource, ExperimentConfig
from decal.learner import LearnerConfig
from test_cli import config_dict

CSV_DATASET = {
    "csv_path": "data.csv",
    "schema": {"sample_id": "sid", "label": "y"},
    "normalize": {"mu": 0.5, "sigma": 2.0},
}


def with_value(raw, path, value):
    """A deep copy of ``raw`` with the key at ``path`` (a tuple of keys) set to ``value``."""
    raw = copy.deepcopy(raw)
    parent(raw, path)[path[-1]] = value
    return raw


def without(raw, path):
    """A deep copy of ``raw`` with the key at ``path`` removed."""
    raw = copy.deepcopy(raw)
    del parent(raw, path)[path[-1]]
    return raw


def parent(raw, path):
    for key in path[:-1]:
        raw = raw[key]
    return raw


class TestDefaults:
    def test_omitted_keys_equal_dataclass_defaults(self):
        cfg = parse_config({"dataset": {"preset": "skewed"}})
        assert cfg == ExperimentConfig(dataset=DatasetSource(preset="skewed"))

    def test_every_key_reaches_its_field(self):
        cfg = parse_config(config_dict())
        assert cfg == ExperimentConfig(
            dataset=DatasetSource(synthetic=SyntheticConfig(
                num_classes=3,
                num_patients=36,
                images_per_patient=ImageCountSpec(kind="uniform", low=3, high=4),
                feature_dim=4,
                class_separation=4.0,
                patient_offset_scale=0.5,
                test_fraction_of_patients=0.2,
                noise_scale=0.3,
            )),
            learner=LearnerConfig(
                hidden_width=8, learning_rate=0.1, train_accuracy_target=0.9,
                max_epochs=40, minibatch_size=32,
            ),
            strategy="decal_entropy",
            init_mode="decal",
            init_size=9,
            batch_size=6,
            rounds=2,
            trials=2,
            base_seed=7,
        )

    def test_csv_schema_and_normalize(self):
        cfg = parse_config({"dataset": CSV_DATASET, "experiment": {"output_dir": "out"}})
        assert cfg.dataset == DatasetSource(
            csv_path="data.csv",
            schema=CsvSchema(sample_id="sid", label="y"),
            normalize=(0.5, 2.0),
        )
        assert cfg.output_dir == "out"

    def test_high_defaults_to_low(self):
        raw = with_value(config_dict(), ("dataset", "synthetic", "images_per_patient"),
                         {"kind": "uniform", "low": 3})
        spec = parse_config(raw).dataset.synthetic.images_per_patient
        assert spec == ImageCountSpec(kind="uniform", low=3, high=3)

    def test_int_accepted_for_float(self):
        raw = with_value(config_dict(), ("learner", "learning_rate"), 1)
        raw = with_value(raw, ("dataset", "synthetic", "class_separation"), 4)
        cfg = parse_config(raw)
        assert cfg.learner.learning_rate == 1.0 and type(cfg.learner.learning_rate) is float
        assert type(cfg.dataset.synthetic.class_separation) is float
        dataset = with_value(CSV_DATASET, ("normalize",), {"mu": 0, "sigma": 2})
        normalize = parse_config({"dataset": dataset}).dataset.normalize
        assert normalize == (0.0, 2.0) and all(type(v) is float for v in normalize)


MISTYPED = [
    (("experiment", "rounds"), "abc"),
    (("experiment", "rounds"), 1.9),
    (("experiment", "rounds"), "1"),
    (("experiment", "trials"), True),
    (("experiment", "strategy"), 3),
    (("experiment", "output_dir"), None),
    (("learner", "learning_rate"), "fast"),
    (("learner", "learning_rate"), False),
    (("learner", "max_epochs"), None),
    (("learner", "learning_rate"), float("nan")),
    (("learner", "train_accuracy_target"), float("inf")),
    (("learner", "learning_rate"), 10**400),
    (("dataset", "synthetic", "num_patients"), "36"),
    (("dataset", "synthetic", "images_per_patient", "low"), 2.5),
    (("dataset", "synthetic", "images_per_patient", "kind"), None),
]
CSV_MISTYPED = [
    (("dataset", "preset"), None),
    (("dataset", "csv_path"), 1),
    (("dataset", "schema", "label"), 3),
    (("dataset", "normalize", "sigma"), "1"),
    (("dataset", "normalize", "mu"), None),
]


class TestRejected:
    @pytest.mark.parametrize("raw, path", [
        pytest.param(with_value(base, path, value), path, id=f"{'.'.join(path)}={json.dumps(value)}")
        for base, cases in ((config_dict(), MISTYPED), ({"dataset": CSV_DATASET}, CSV_MISTYPED))
        for path, value in cases
    ])
    def test_mistyped_value_names_its_key(self, tmp_path, capsys, raw, path):
        key = ".".join(path)
        with pytest.raises(ConfigError, match=f"^{key} must be "):
            parse_config(raw)
        config = tmp_path / "config.json"
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["run", "--config", str(config), "--out", str(tmp_path / "out")]) == 1
        assert key in capsys.readouterr().err

    def test_experiment_dataset_is_unknown_key(self):
        raw = with_value(config_dict(), ("experiment", "dataset"), {"preset": "skewed"})
        with pytest.raises(ConfigError, match=r"unknown keys in experiment: \['dataset'\]"):
            parse_config(raw)

    @pytest.mark.parametrize("raw, message", [
        (without(config_dict(), ("dataset", "synthetic", "noise_scale")),
         "missing keys in dataset.synthetic: ['noise_scale']"),
        (without({"dataset": CSV_DATASET}, ("dataset", "normalize", "sigma")),
         "missing keys in dataset.normalize: ['sigma']"),
        (without(config_dict(), ("dataset",)), "missing keys in config: ['dataset']"),
    ])
    def test_missing_required_key(self, raw, message):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert str(err.value) == message

    @pytest.mark.parametrize("raw, section", [
        (with_value(config_dict(), ("dataset", "synthetic", "images_per_patient", "typo"), 1),
         "dataset.synthetic.images_per_patient"),
        (with_value({"dataset": CSV_DATASET}, ("dataset", "schema", "typo"), 1), "dataset.schema"),
        (with_value(config_dict(), ("learner", "typo"), 1), "learner"),
    ])
    def test_unknown_nested_key(self, raw, section):
        with pytest.raises(ConfigError) as err:
            parse_config(raw)
        assert str(err.value) == f"unknown keys in {section}: ['typo']"

    def test_nested_section_must_be_object(self):
        raw = with_value(config_dict(), ("dataset", "synthetic", "images_per_patient"), 3)
        with pytest.raises(ConfigError, match="dataset.synthetic.images_per_patient"):
            parse_config(raw)
