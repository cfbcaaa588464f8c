"""Run configuration: flat key=value INI sections, a desk-scale preset, and
the hash of the resolved values.

The config dataclasses are the schema: each section's keys, defaults and
value types are the fields of its dataclass (``[data]`` DataConfig,
``[escape]`` EscapeConfig, ``[train]`` TrainConfig, ``[eval]`` EvalConfig).
Every resolved value participates in the manifest hash."""

from __future__ import annotations

import configparser
import hashlib
from dataclasses import dataclass, fields, is_dataclass
from typing import get_type_hints

from .datagen import DataConfig
from .errors import ConfigError
from .escape import EscapeConfig
from .training import TrainConfig

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "SECTIONS",
    "EvalConfig",
    "config_hash",
    "load_config",
    "resolve_config",
    "to_configs",
]


@dataclass(frozen=True)
class EvalConfig:
    """``ares eval`` settings (the ``[eval]`` config section)."""

    histogram_bins: int = 50

    def __post_init__(self):
        if self.histogram_bins < 1:
            raise ConfigError(f"histogram_bins must be >= 1, got {self.histogram_bins}")


SECTIONS = {"data": DataConfig, "escape": EscapeConfig, "train": TrainConfig, "eval": EvalConfig}

# [train] names the stage masks stage_*; TrainConfig names them after the stage
_KEY_OF_FIELD = {stage: f"stage_{stage}" for stage in ("escape", "expansion", "estimation")}


def _schema(cls) -> dict[str, tuple[str, type]]:
    """INI key -> (field name, value type) for the plain fields of ``cls``;
    a nested config dataclass is a section of its own."""
    hints = get_type_hints(cls)
    return {
        _KEY_OF_FIELD.get(f.name, f.name): (f.name, hints[f.name])
        for f in fields(cls)
        if not is_dataclass(hints[f.name])
    }


_SCHEMAS = {sec: _schema(cls) for sec, cls in SECTIONS.items()}


def _format(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


_BOOLS = {"true": True, "1": True, "yes": True, "on": True,
          "false": False, "0": False, "no": False, "off": False}


def _parse(section: str, key: str, typ: type, raw: str):
    try:
        if typ is bool:
            return _BOOLS[raw.strip().lower()]
        if typ is tuple:
            return tuple(int(v) for v in raw.split(",") if v.strip())
        return typ(raw)
    except (KeyError, ValueError):
        raise ConfigError(f"[{section}] {key}: expected {typ.__name__}, got {raw!r}") from None


def _defaults(section: str) -> dict[str, str]:
    default = SECTIONS[section]()
    return {key: _format(getattr(default, name)) for key, (name, _) in _SCHEMAS[section].items()}


# Section -> key -> default, as the INI strings of the dataclass defaults.
DEFAULTS: dict[str, dict[str, str]] = {sec: _defaults(sec) for sec in SECTIONS}

# Presets override sizes only; "paper" keeps the published hyperparameters.
PRESETS: dict[str, dict[tuple[str, str], str]] = {
    "paper": {},
    "desk": {
        ("train", "total_epochs"): "100",
        ("train", "pretrain_epochs"): "40",
    },
}


def load_config(path) -> dict[str, dict[str, str]]:
    """Parse a config file into section -> key -> raw string."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file not found: {path}")
    return {section: dict(parser.items(section)) for section in parser.sections()}


def resolve_config(
    file_cfg: dict | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> dict[str, dict[str, str]]:
    """Defaults < preset < config file < explicit CLI overrides. Unknown
    keys and bad values are errors naming ``[section] key``, raised here,
    before any work starts."""
    if preset is not None and preset not in PRESETS:
        raise ConfigError(f"unknown preset: {preset!r}")
    file_items = {(sec, key): val for sec, keys in (file_cfg or {}).items() for key, val in keys.items()}
    resolved = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    for layer in (PRESETS[preset] if preset else {}, file_items, overrides or {}):
        for (sec, key), val in layer.items():
            if key not in resolved.get(sec, {}):
                raise ConfigError(f"unknown config key: [{sec}] {key}")
            resolved[sec][key] = str(val)
    to_configs(resolved)
    return resolved


def config_hash(resolved: dict[str, dict[str, str]]) -> str:
    """SHA-256 over the canonical section.key=value dump."""
    lines = []
    for sec in sorted(resolved):
        for key in sorted(resolved[sec]):
            lines.append(f"{sec}.{key}={resolved[sec][key]}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def _build(resolved: dict[str, dict[str, str]], section: str, **nested):
    values = resolved[section]
    kw = {name: _parse(section, key, typ, values[key]) for key, (name, typ) in _SCHEMAS[section].items()}
    try:
        return SECTIONS[section](**kw, **nested)
    except ValueError as err:
        raise ConfigError(f"[{section}] {err}") from None


def to_configs(resolved: dict[str, dict[str, str]]) -> tuple[DataConfig, TrainConfig, EvalConfig]:
    """The validated dataclasses of a resolved config; ``[escape]`` becomes
    the ``escape_cfg`` that the TrainConfig carries."""
    escape_cfg = _build(resolved, "escape")
    return (
        _build(resolved, "data"),
        _build(resolved, "train", escape_cfg=escape_cfg),
        _build(resolved, "eval"),
    )
