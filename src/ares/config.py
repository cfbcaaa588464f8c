"""Run configuration: flat key=value sections, paper-default values, and a
desk-scale preset. Every resolved value participates in the manifest hash."""

from __future__ import annotations

import configparser
import hashlib

from .errors import ConfigError
from .training import TrainConfig

__all__ = [
    "DEFAULTS",
    "PRESETS",
    "config_hash",
    "load_config",
    "resolve_config",
    "to_train_config",
]

# Section -> key -> default. Training hyperparameters default to the
# published settings; data keys describe the synthetic desk-scale world.
DEFAULTS: dict[str, dict[str, str]] = {
    "data": {
        "generator": "blobs",
        "n_train": "1200",
        "n_test": "600",
        "k": "3",
        "d": "2",
        "spread": "0.5",
        "center_radius": "3.0",
        "aux_size": "0",
        "ifs_maps": "3",
        "ood_sets": "ring,uniform,shifted-blobs",
        "n_ood": "600",
        "ring_inner": "8.0",
        "ring_outer": "10.0",
        "box_low": "-6.0",
        "box_high": "6.0",
        "shift_offset": "2.5",
    },
    "escape": {
        "alpha1": "3.0",
        "max_iters": "4",
        "p_mix": "0.9",
    },
    "train": {
        "total_epochs": "500",
        "pretrain_epochs": "200",
        "batch_size": "128",
        "lr_start": "0.1",
        "lr_end": "1e-6",
        "beta": "0.1",
        "alpha2": "2.0",
        "m_candidates": "10000",
        "t_rank": "128",
        "seed": "0",
        "loss_kind": "jsd",
        "stage_escape": "true",
        "stage_expansion": "true",
        "stage_estimation": "true",
        "beta_warmup_epochs": "10",
        "hidden_dims": "64,64",
        "feature_dim": "16",
        "nce_temperature": "0.1",
        "ridge_scale": "1e-6",
        "debug_gradcheck": "false",
    },
    "eval": {
        "histogram_bins": "50",
    },
}

# Presets override sizes only; "paper" keeps the published hyperparameters.
PRESETS: dict[str, dict[tuple[str, str], str]] = {
    "paper": {},
    "desk": {
        ("train", "total_epochs"): "100",
        ("train", "pretrain_epochs"): "40",
    },
}

_BOOL_KEYS = {
    ("train", "stage_escape"),
    ("train", "stage_expansion"),
    ("train", "stage_estimation"),
    ("train", "debug_gradcheck"),
}


def _parse_bool(section: str, key: str, raw: str) -> bool:
    low = raw.strip().lower()
    if low in ("true", "1", "yes", "on"):
        return True
    if low in ("false", "0", "no", "off"):
        return False
    raise ConfigError(f"[{section}] {key}: expected a boolean, got {raw!r}")


def load_config(path) -> dict[str, dict[str, str]]:
    """Parse a config file; unknown sections or keys are errors naming the
    offender."""
    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"config file not found: {path}")
    out: dict[str, dict[str, str]] = {}
    for section in parser.sections():
        if section not in DEFAULTS:
            raise ConfigError(f"unknown config section: [{section}]")
        out[section] = {}
        for key, val in parser.items(section):
            if key not in DEFAULTS[section]:
                raise ConfigError(f"unknown config key: [{section}] {key}")
            out[section][key] = val
    return out


def resolve_config(
    file_cfg: dict | None = None,
    preset: str | None = None,
    overrides: dict | None = None,
) -> dict[str, dict[str, str]]:
    """Defaults < preset < config file < explicit CLI overrides."""
    resolved = {sec: dict(keys) for sec, keys in DEFAULTS.items()}
    if preset is not None:
        if preset not in PRESETS:
            raise ConfigError(f"unknown preset: {preset!r}")
        for (sec, key), val in PRESETS[preset].items():
            resolved[sec][key] = val
    for sec, keys in (file_cfg or {}).items():
        resolved[sec].update(keys)
    for (sec, key), val in (overrides or {}).items():
        if sec not in resolved or key not in resolved[sec]:
            raise ConfigError(f"unknown config key: [{sec}] {key}")
        resolved[sec][key] = str(val)
    # validate booleans eagerly so errors name the key
    for sec, key in _BOOL_KEYS:
        _parse_bool(sec, key, resolved[sec][key])
    return resolved


def config_hash(resolved: dict[str, dict[str, str]]) -> str:
    """SHA-256 over the canonical section.key=value dump."""
    lines = []
    for sec in sorted(resolved):
        for key in sorted(resolved[sec]):
            lines.append(f"{sec}.{key}={resolved[sec][key]}")
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()


def to_train_config(resolved: dict[str, dict[str, str]]) -> TrainConfig:
    """Build the validated in-memory training configuration."""
    t = resolved["train"]
    e = resolved["escape"]
    try:
        hidden = tuple(int(h) for h in t["hidden_dims"].split(",") if h.strip())
        cfg = TrainConfig(
            total_epochs=int(t["total_epochs"]),
            pretrain_epochs=int(t["pretrain_epochs"]),
            batch_size=int(t["batch_size"]),
            lr_start=float(t["lr_start"]),
            lr_end=float(t["lr_end"]),
            beta=float(t["beta"]),
            alpha1=float(e["alpha1"]),
            alpha2=float(t["alpha2"]),
            m_candidates=int(t["m_candidates"]),
            t_rank=int(t["t_rank"]),
            seed=int(t["seed"]),
            loss_kind=t["loss_kind"],
            escape=_parse_bool("train", "stage_escape", t["stage_escape"]),
            expansion=_parse_bool("train", "stage_expansion", t["stage_expansion"]),
            estimation=_parse_bool("train", "stage_estimation", t["stage_estimation"]),
            max_iters=int(e["max_iters"]),
            p_mix=float(e["p_mix"]),
            beta_warmup_epochs=int(t["beta_warmup_epochs"]),
            hidden_dims=hidden,
            feature_dim=int(t["feature_dim"]),
            nce_temperature=float(t["nce_temperature"]),
            ridge_scale=float(t["ridge_scale"]),
            debug_gradcheck=_parse_bool("train", "debug_gradcheck", t["debug_gradcheck"]),
        )
    except ValueError as err:
        raise ConfigError(f"invalid config value: {err}") from err
    cfg.validate()
    return cfg
