from dataclasses import fields

from ares.config import DEFAULTS, SECTIONS, EvalConfig, resolve_config, to_configs
from ares.datagen import DataConfig
from ares.escape import EscapeConfig
from ares.training import TrainConfig

STAGE_KEYS = {"escape": "stage_escape", "expansion": "stage_expansion", "estimation": "stage_estimation"}


def test_defaults_keys_are_dataclass_fields():
    assert SECTIONS == {"data": DataConfig, "escape": EscapeConfig, "train": TrainConfig, "eval": EvalConfig}
    assert set(DEFAULTS["data"]) == {f.name for f in fields(DataConfig)}
    assert set(DEFAULTS["escape"]) == {f.name for f in fields(EscapeConfig)}
    assert set(DEFAULTS["train"]) == {
        STAGE_KEYS.get(f.name, f.name) for f in fields(TrainConfig) if f.name != "escape_cfg"
    }
    assert set(DEFAULTS["eval"]) == {f.name for f in fields(EvalConfig)}


def test_resolved_defaults_are_dataclass_defaults():
    data, train, ev = to_configs(resolve_config())
    assert data == DataConfig()
    assert train == TrainConfig()
    assert train.escape_cfg == EscapeConfig()
    assert ev == EvalConfig()


def test_ini_values_parse_to_field_types():
    resolved = resolve_config(overrides={
        ("train", "stage_expansion"): "off",
        ("train", "hidden_dims"): "8, 4",
        ("train", "lr_end"): "1e-5",
        ("escape", "p_mix"): "0.5",
        ("data", "ood_sets"): "ring",
    })
    data, train, _ = to_configs(resolved)
    assert train.expansion is False and train.escape is True
    assert train.hidden_dims == (8, 4)
    assert train.lr_end == 1e-5
    assert train.escape_cfg == EscapeConfig(p_mix=0.5)
    assert data.ood_names == ["ring"]
