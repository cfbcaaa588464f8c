"""Gaussian estimation, likelihood evaluation, and closed-form divergences.

All covariance and moment estimates use population normalisation (divide by
the number of points, not N-1). Multivariate fits sum each entry with an
exact vectorized kernel whose correctly rounded result equals ``math.fsum``
bit for bit, so a fit is bitwise invariant to the order of the input points.
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
_MAX_EXTRACT_PASSES = 60


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

    ``chol @ chol.T == sigma + ridge * I`` — the factor is taken of the
    ridge-regularised covariance, and all density evaluations go through it
    (a general LU solve against the triangular factor, since numpy has no
    triangular solver; never an explicit inverse).
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
        escalation as :func:`fit_gaussian`."""
        mu = np.asarray(mu, dtype=float)
        sigma = np.asarray(sigma, dtype=float)
        sigma = 0.5 * (sigma + sigma.T)
        chol, ridge = _factorize(sigma, ridge_scale)
        return cls(mu=mu, sigma=sigma, chol=chol, ridge=ridge)


def _exact_colsum(a: np.ndarray) -> np.ndarray:
    """Correctly rounded per-column sums, bitwise equal to ``math.fsum``.

    Error-free extraction (Rump, Ogita & Oishi, "Accurate floating-point
    summation, part I", SIAM J. Sci. Comput. 31(1), 2008): with
    ``sigma = 2**(exponent(max|r|) + h)`` and ``2**h >= n + 2``, the parts
    ``q = (r + sigma) - sigma`` lie on one grid and their column sum is
    exact in any order, while ``r - q`` is exact too. Passes repeat until
    the remainders vanish; ``math.fsum`` then rounds the few exact partials
    per column once, so the result matches ``math.fsum`` over the raw
    column. Inputs where ``sigma`` could overflow or go subnormal (or that
    need too many passes) take per-column ``math.fsum`` directly.
    """
    n = a.shape[0]
    h = (n + 1).bit_length()  # ceil(log2(n + 2))
    r = np.array(a, dtype=float)
    q = np.empty_like(r)
    partials = [np.zeros(a.shape[1])]  # keeps the stack 2-d for all-zero input
    for _ in range(_MAX_EXTRACT_PASSES):
        amax = np.abs(r, out=q).max(axis=0)
        if not amax.any():
            return np.array([math.fsum(col) for col in np.transpose(partials).tolist()])
        exp = np.frexp(amax)[1] + h
        # sigma = 2**exp must stay finite and normal
        tiny = (amax > 0.0) & (amax < 2.0**-960)
        if not np.isfinite(amax).all() or exp.max() > 1000 or tiny.any():
            break
        sigma = np.ldexp(1.0, exp)
        np.add(r, sigma, out=q)
        q -= sigma
        r -= q
        partials.append(q.sum(axis=0))
    return np.array([math.fsum(a[:, j]) for j in range(a.shape[1])])


def _factorize(sigma: np.ndarray, ridge_scale: float) -> tuple[np.ndarray, float]:
    """Cholesky of sigma + ridge*I with x10 ridge escalation on failure."""
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

    The per-entry sums are exact (equal to ``math.fsum``), so the fit is
    bitwise invariant to permutations of the input points.
    """
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        raise ValueError(f"fit_gaussian: expected a 2-d point array, got ndim={pts.ndim}")
    n, p = pts.shape
    if n < 2:
        raise ValueError(f"fit_gaussian: need at least 2 points, got {n}")
    if not np.all(np.isfinite(pts)):
        raise ValueError("fit_gaussian: input contains non-finite values")

    mu = _exact_colsum(pts) / n
    dev = pts - mu
    iu, ju = np.triu_indices(p)
    prods = dev[:, iu] * dev[:, ju]
    upper = _exact_colsum(prods) / n
    sigma = np.zeros((p, p))
    sigma[iu, ju] = upper
    sigma[ju, iu] = upper

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
    clamped at zero against rounding for near-identical inputs.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        gap2 = float(np.square(np.float64(p.mu) - q.mu))
        val = 0.5 * math.log(q.var / p.var) + (p.var + gap2) / (2.0 * q.var) - 0.5
    if math.isnan(val):
        return val
    return max(0.0, val)


def moment_match_mixture(p: Gauss1d, q: Gauss1d) -> Gauss1d:
    """The unique Gaussian sharing the first two moments of the equal-weight
    mixture of ``p`` and ``q``.

    The mixture itself is not Gaussian; matching its moments keeps the
    midpoint divergence in closed form.
    """
    mu = 0.5 * (p.mu + q.mu)
    # numpy arithmetic saturates to inf instead of raising OverflowError,
    # letting callers detect divergence as a non-finite value
    with np.errstate(over="ignore"):
        var = 0.5 * (p.var + q.var) + 0.25 * float(np.square(np.float64(p.mu) - q.mu))
    return Gauss1d(mu=mu, var=var)


def jsd_gauss1d(p: Gauss1d, q: Gauss1d) -> float:
    """Jensen-Shannon divergence against the moment-matched midpoint.

    Symmetric by construction (bitwise: swapping the arguments produces the
    identical float) and zero when the inputs coincide.
    """
    m = moment_match_mixture(p, q)
    return 0.5 * kld_gauss1d(p, m) + 0.5 * kld_gauss1d(q, m)
