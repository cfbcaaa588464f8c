"""Gaussian estimation, likelihood evaluation, and closed-form divergences.

All covariance and moment estimates use population normalisation (divide by
the number of points, not N-1). A multivariate fit sorts its points into one
canonical row order before it sums them, so it is bitwise invariant to the
order in which the points arrive.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import NumericalError
from .rng import Rng

__all__ = [
    "RIDGE_SCALE",
    "VAR_FLOOR",
    "Gauss1d",
    "GaussianModel",
    "beta_sample",
    "fit_gaussian",
    "gaussian_logpdf",
    "jsd_gauss1d",
    "kld_gauss1d",
    "moment_match_mixture",
]

VAR_FLOOR = 1e-12
RIDGE_SCALE = 1e-6  # default relative ridge of every Gaussian fit
_LOG_2PI = math.log(2.0 * math.pi)
_MAX_RIDGE_ESCALATIONS = 8


def beta_sample(alpha: float, rng: Rng) -> float:
    """Draw one value from Beta(alpha, alpha).

    Used for every mixing coefficient in the pipeline. Deterministic given
    the generator state; raises ``ValueError`` for non-finite or
    non-positive ``alpha``.
    """
    if not np.isfinite(alpha) or alpha <= 0:
        raise ValueError(f"beta_sample: alpha must be finite and > 0, got {alpha}")
    return float(rng.beta(alpha, alpha))


@dataclass(frozen=True)
class Gauss1d:
    """A 1-d Gaussian summary (mean, variance). Variance is floored at
    ``VAR_FLOOR`` so downstream divergences stay defined on degenerate
    inputs."""

    mu: float
    var: float

    def __post_init__(self):
        object.__setattr__(self, "mu", float(self.mu))
        object.__setattr__(self, "var", max(float(self.var), VAR_FLOOR))


@dataclass
class GaussianModel:
    """Multivariate Gaussian with a cached Cholesky factor.

    ``sigma`` is exactly symmetric, and ``chol @ chol.T == sigma + ridge * I``:
    the factor is taken of the ridge-regularised covariance, and all density
    evaluations go through it (a general LU solve against the triangular
    factor, since numpy has no triangular solver; never an explicit inverse).
    """

    mu: np.ndarray
    sigma: np.ndarray
    chol: np.ndarray
    ridge: float
    _logdet: float = field(init=False, repr=False)

    def __post_init__(self):
        self._logdet = 2.0 * float(np.sum(np.log(np.diag(self.chol))))

    @property
    def dim(self) -> int:
        return self.mu.shape[0]

    @classmethod
    def from_moments(cls, mu, sigma, ridge_scale: float = RIDGE_SCALE) -> "GaussianModel":
        """Build a model from given moments, applying the same ridge
        escalation as :func:`fit_gaussian`. A non-finite mean or covariance
        entry is a :class:`NumericalError`."""
        mu = np.asarray(mu, dtype=float)
        if not np.all(np.isfinite(mu)):
            raise NumericalError(f"from_moments: the mean has non-finite entries: {mu.tolist()}")
        sigma = np.asarray(sigma, dtype=float)
        sigma = 0.5 * (sigma + sigma.T)
        chol, ridge = _factorize(sigma, ridge_scale)
        return cls(mu=mu, sigma=sigma, chol=chol, ridge=ridge)


def _factorize(sigma: np.ndarray, ridge_scale: float) -> tuple[np.ndarray, float]:
    """Cholesky of sigma + ridge*I with x10 ridge escalation on failure."""
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("covariance factorization: sigma has non-finite entries")
    p = sigma.shape[0]
    base = ridge_scale * float(np.trace(sigma)) / p
    if base <= 0.0:
        base = ridge_scale
    ridge = base
    eye = np.eye(p)
    for _ in range(_MAX_RIDGE_ESCALATIONS + 1):
        try:
            chol = np.linalg.cholesky(sigma + ridge * eye)
            return chol, ridge
        except np.linalg.LinAlgError:
            ridge *= 10.0
    raise NumericalError(
        f"covariance factorization failed after {_MAX_RIDGE_ESCALATIONS} "
        f"ridge escalations (final ridge {ridge:.3e})"
    )


def fit_gaussian(points, ridge_scale: float = RIDGE_SCALE) -> GaussianModel:
    """Fit a multivariate Gaussian with population (1/N) normalisation.

    Parameters
    ----------
    points : (n, p) array-like
        At least two finite points of equal dimension.
    ridge_scale : float
        Relative diagonal regularisation: the initial ridge is
        ``ridge_scale * trace(sigma) / p``, escalated x10 until the
        Cholesky factorization succeeds.

    The points are sorted lexicographically (column 0 first) before the
    mean and the covariance are summed, so the fit is bitwise invariant to
    permutations of the input points (rows that compare equal differ at
    most in the signs of zeros, and swapping those changes no sum).
    ``sigma`` is the upper triangle of ``dev.T @ dev / n``, mirrored.
    Raises :class:`NumericalError` if the moments overflow float64.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"fit_gaussian: expected a 2-d point array, got ndim={pts.ndim}")
    n, p = pts.shape
    if n < 2:
        raise ValueError(f"fit_gaussian: need at least 2 points, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("fit_gaussian: input contains non-finite values")

    pts = pts[np.lexsort(pts.T[::-1])]
    with np.errstate(over="ignore", invalid="ignore"):  # named below instead
        mu = pts.sum(axis=0) / n
        dev = pts - mu
        sigma = dev.T @ dev / n
    if not np.all(np.isfinite(sigma)):
        raise NumericalError("fit_gaussian: the moments of the points overflow float64")
    lower = np.tril_indices(p, -1)
    sigma[lower] = sigma.T[lower]

    chol, ridge = _factorize(sigma, ridge_scale)
    return GaussianModel(mu=mu, sigma=sigma, chol=chol, ridge=ridge)


def gaussian_logpdf(model: GaussianModel, v):
    """Log-density of ``v`` under the (regularised) model.

    Accepts a single p-vector or an (n, p) batch; returns a float or an
    (n,) array accordingly. The Mahalanobis term is computed by
    ``np.linalg.solve`` (LU) against the stored lower-triangular Cholesky
    factor; numpy has no triangular solver, and another solver would change
    the float bits.
    """
    arr = np.asarray(v, dtype=float)
    single = arr.ndim == 1
    pts = arr.reshape(1, -1) if single else arr
    p = model.dim
    if pts.shape[1] != p:
        raise ValueError(
            f"gaussian_logpdf: dimension mismatch (model dim {p}, point dim {pts.shape[1]})"
        )
    diff = pts - model.mu
    y = np.linalg.solve(model.chol, diff.T)
    maha = np.sum(y * y, axis=0)
    out = -0.5 * (p * _LOG_2PI + model._logdet + maha)
    return float(out[0]) if single else out


def kld_gauss1d(p: Gauss1d, q: Gauss1d) -> float:
    """KL divergence KL(p || q) between 1-d Gaussians, closed form.

    = log(sig_q/sig_p) + (var_p + (mu_p - mu_q)^2) / (2 var_q) - 1/2,
    clamped at zero against rounding for near-identical inputs. Plain float
    arithmetic: ``gap * gap`` saturates to inf where ``gap ** 2`` would
    raise OverflowError, so a diverging input yields a non-finite value.
    """
    gap = p.mu - q.mu
    val = 0.5 * math.log(q.var / p.var) + (p.var + gap * gap) / (2.0 * q.var) - 0.5
    if math.isnan(val):
        return val
    return max(0.0, val)


def moment_match_mixture(p: Gauss1d, q: Gauss1d) -> Gauss1d:
    """The unique Gaussian sharing the first two moments of the equal-weight
    mixture of ``p`` and ``q``.

    The mixture itself is not Gaussian; matching its moments keeps the
    midpoint divergence in closed form. Overflow saturates to inf, as in
    :func:`kld_gauss1d`, so callers detect divergence as a non-finite value.
    """
    gap = p.mu - q.mu
    return Gauss1d(mu=0.5 * (p.mu + q.mu), var=0.5 * (p.var + q.var) + 0.25 * (gap * gap))


def jsd_gauss1d(p: Gauss1d, q: Gauss1d) -> float:
    """Jensen-Shannon divergence against the moment-matched midpoint.

    Symmetric by construction (bitwise: swapping the arguments produces the
    identical float) and zero when the inputs coincide.
    """
    m = moment_match_mixture(p, q)
    return 0.5 * kld_gauss1d(p, m) + 0.5 * kld_gauss1d(q, m)
