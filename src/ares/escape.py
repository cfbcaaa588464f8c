"""Surrogate inlier generation: push each training instance away from its
original region by iteratively mixing it with auxiliary points and applying
geometric transforms. Labels are always preserved."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .datagen import TRANSFORM_KINDS, LabeledDataset, geometric_transform
from .numerics import beta_sample
from .rng import Rng

__all__ = ["EscapeConfig", "escape_dataset", "escape_instance"]


@dataclass(frozen=True)
class EscapeConfig:
    """Surrogate generation settings (the ``[escape]`` config section)."""

    alpha1: float = 3.0          # Beta parameter for the mixing coefficient
    max_iters: int = 4           # iteration budget per instance, uniform in [1, max_iters]
    p_mix: float = 0.9           # per-iteration probability of aux-mix over transform

    def __post_init__(self):
        if not self.alpha1 > 0:
            raise ValueError(f"alpha1 must be > 0, got {self.alpha1}")
        if not 1 <= self.max_iters <= 4:
            raise ValueError(f"max_iters must lie in [1, 4], got {self.max_iters}")
        if not 0.0 <= self.p_mix <= 1.0:
            raise ValueError(f"p_mix must lie in [0, 1], got {self.p_mix}")


def _mix_with_aux(x: np.ndarray, aux: np.ndarray, alpha1: float, rng: Rng) -> np.ndarray:
    lam = beta_sample(alpha1, rng)
    other = aux[int(rng.integers(0, len(aux)))]
    return lam * x + (1.0 - lam) * other


def escape_instance(
    x: np.ndarray, aux: np.ndarray, cfg: EscapeConfig, rng: Rng, center: np.ndarray
) -> np.ndarray:
    """Displace one instance.

    Draws an iteration count uniformly from [1, max_iters]; each iteration
    either mixes with a random auxiliary point (coefficient ~
    Beta(alpha1, alpha1)) or applies a random geometric transform about
    ``center`` (:func:`escape_dataset` passes the inlier mean). If no
    iteration chose a mix, one extra mix is forced so every output has
    touched the auxiliary set at least once.
    """
    if len(aux) == 0:
        raise ValueError("escape_instance: auxiliary set is empty")
    x = np.asarray(x, dtype=float)
    if x.shape[0] != aux.shape[1]:
        raise ValueError(
            f"escape_instance: dimension mismatch (instance {x.shape[0]}, aux {aux.shape[1]})"
        )
    n_steps = int(rng.integers(1, cfg.max_iters + 1))
    mixed = False
    for _ in range(n_steps):
        if rng.uniform() < cfg.p_mix:
            x = _mix_with_aux(x, aux, cfg.alpha1, rng)
            mixed = True
        else:
            kind = TRANSFORM_KINDS[int(rng.integers(0, len(TRANSFORM_KINDS)))]
            x = geometric_transform(x, kind, rng, center)
    if not mixed:
        x = _mix_with_aux(x, aux, cfg.alpha1, rng)
    return x


def escape_dataset(
    data: LabeledDataset, aux: np.ndarray, cfg: EscapeConfig, rng: Rng
) -> LabeledDataset:
    """Displace every instance of ``data``; element i of the output derives
    from element i of the input and keeps its label.

    Each instance consumes its own child stream, so the result does not
    depend on processing order.
    """
    center = data.x.mean(axis=0)
    out = np.empty_like(data.x)
    for i in range(len(data)):
        out[i] = escape_instance(data.x[i], aux, cfg, rng.child(i), center)
    return LabeledDataset(x=out, y=data.y.copy())
