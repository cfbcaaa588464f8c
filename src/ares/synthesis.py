"""Feature-space expansion and virtual-outlier selection.

Expansion mixes pairs of feature vectors into a candidate pool; estimation
ranks the pool by density under one class-agnostic Gaussian fit
(``numerics.fit_gaussian``) and keeps the lowest-density members as virtual
outliers.
"""

from __future__ import annotations

import numpy as np

from .numerics import GaussianModel, gaussian_logpdf
from .rng import Rng

__all__ = ["expand_features", "sample_virtual_outliers"]


def expand_features(feats: np.ndarray, alpha2: float, n_pairs: int, rng: Rng) -> np.ndarray:
    """Mix ``n_pairs`` random pairs of distinct feature vectors: point m is
    ``lam[m] * feats[i[m]] + (1 - lam[m]) * feats[j[m]]`` for pair indices
    ``i``, ``j`` and coefficients ``lam`` drawn from ``rng`` in that order.

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
    return lam[:, None] * feats[idx_i] + (1.0 - lam)[:, None] * feats[idx_j]


def sample_virtual_outliers(xs, model: GaussianModel, count: int) -> np.ndarray:
    """The ``count`` lowest-density rows of the candidate array ``xs`` under
    ``model``, in (density, index) order (every row when ``count >= len(xs)``).

    The ranking sorts densities, not log densities, with a stable sort:
    densities that underflow to 0 tie and keep their index order.
    """
    pts = np.asarray(xs, dtype=float)
    with np.errstate(over="ignore"):
        dens = np.exp(gaussian_logpdf(model, pts))
    return pts[np.argsort(dens, kind="stable")[:count]]
