"""Feature-space expansion and virtual-outlier selection.

Expansion mixes pairs of feature vectors into a candidate pool; estimation
fits one class-agnostic Gaussian over that pool, thresholds density at an
order statistic, and keeps the lowest-density members as virtual outliers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import SynthesisUnderflowError
from .numerics import RIDGE_SCALE, GaussianModel, fit_gaussian, gaussian_logpdf
from .rng import Rng

__all__ = [
    "ExpandedSet",
    "OutlierBatch",
    "estimate_outlier_region",
    "expand_features",
    "sample_virtual_outliers",
    "select_epsilon",
]


@dataclass
class ExpandedSet:
    """Mixed feature points plus provenance: point i is
    ``lam[i] * feats[idx_i[i]] + (1 - lam[i]) * feats[idx_j[i]]``."""

    points: np.ndarray
    idx_i: np.ndarray
    idx_j: np.ndarray
    lam: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


@dataclass
class OutlierBatch:
    """Selected virtual outliers with the density threshold that admitted
    them, their per-point log densities, and their indices into the
    candidate pool they were drawn from."""

    points: np.ndarray
    epsilon: float
    loglik: np.ndarray
    indices: np.ndarray

    def __len__(self) -> int:
        return self.points.shape[0]


def _as_points(xs) -> np.ndarray:
    pts = xs.points if isinstance(xs, ExpandedSet) else np.asarray(xs, dtype=float)
    if pts.ndim != 2:
        raise ValueError("expected a 2-d candidate array")
    return pts


def expand_features(feats: np.ndarray, alpha2: float, n_pairs: int, rng: Rng) -> ExpandedSet:
    """Mix ``n_pairs`` random pairs of distinct feature vectors.

    Coefficients are Beta(alpha2, alpha2); every output is a convex
    combination of two inputs, so the pool never leaves the coordinate-wise
    bounding box of the features.
    """
    feats = np.asarray(feats, dtype=float)
    n = feats.shape[0]
    if n < 2:
        raise ValueError(f"expand_features: need at least 2 feature vectors, got {n}")
    if not np.isfinite(alpha2) or alpha2 <= 0:
        raise ValueError(f"expand_features: alpha2 must be finite and > 0, got {alpha2}")
    idx_i = rng.integers(0, n, n_pairs)
    idx_j = rng.integers(0, n - 1, n_pairs)
    idx_j = idx_j + (idx_j >= idx_i)  # uniform over pairs with j != i
    lam = rng.beta(alpha2, alpha2, n_pairs)
    points = lam[:, None] * feats[idx_i] + (1.0 - lam)[:, None] * feats[idx_j]
    return ExpandedSet(points=points, idx_i=idx_i, idx_j=idx_j, lam=lam)


def estimate_outlier_region(xs, ridge_scale: float = RIDGE_SCALE) -> GaussianModel:
    """One Gaussian over all expanded points at once — deliberately
    class-agnostic, since real outliers scatter across the whole space."""
    return fit_gaussian(_as_points(xs), ridge_scale=ridge_scale)


def _density_order(pts: np.ndarray, model: GaussianModel) -> tuple[np.ndarray, np.ndarray]:
    """Log densities plus the stable (density, index) ordering."""
    loglik = gaussian_logpdf(model, pts)
    with np.errstate(over="ignore"):
        dens = np.exp(loglik)
    order = np.lexsort((np.arange(len(pts)), dens))
    return loglik, order


def select_epsilon(xs, model: GaussianModel, m: int, t: int, rng: Rng) -> float:
    """Density threshold: the t-th smallest density among ``m`` candidates
    sampled uniformly without replacement (``m`` is clamped to the pool
    size; when it covers the whole pool no sampling happens). Ties resolve
    by (density, index)."""
    pts = _as_points(xs)
    n = len(pts)
    m_eff = min(int(m), n)
    if m_eff < 1 or t < 1:
        raise ValueError(f"select_epsilon: need m >= 1 and t >= 1, got m={m} t={t}")
    if t > m_eff:
        raise ValueError(f"select_epsilon: rank t={t} exceeds effective sample size {m_eff}")
    if m_eff < n:
        cand = np.sort(rng.choice(n, size=m_eff, replace=False))
        pts = pts[cand]
    loglik, order = _density_order(pts, model)
    with np.errstate(over="ignore"):
        return float(np.exp(loglik[order[t - 1]]))


def sample_virtual_outliers(
    xs, model: GaussianModel, epsilon: float, count: int | None = None
) -> OutlierBatch:
    """Pick virtual outliers from the candidate pool.

    With ``count`` given: the ``count`` lowest-density members, provided at
    least that many lie strictly below ``epsilon`` (otherwise a
    :class:`SynthesisUnderflowError` names the deficit). With ``count=None``:
    every member strictly below ``epsilon``.
    """
    pts = _as_points(xs)
    loglik, order = _density_order(pts, model)
    if np.isposinf(epsilon):
        n_below = len(pts)  # every candidate qualifies; ties become irrelevant
    else:
        with np.errstate(over="ignore"):
            dens = np.exp(loglik)
        n_below = int(np.count_nonzero(dens < epsilon))
    if count is None:
        take = order[:n_below]
    else:
        count = int(count)
        if n_below < count:
            raise SynthesisUnderflowError(requested=count, available=n_below)
        take = order[:count]
    return OutlierBatch(
        points=pts[take].copy(), epsilon=float(epsilon), loglik=loglik[take], indices=take
    )
