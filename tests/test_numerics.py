import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from scipy import integrate

from ares.errors import NumericalError
from ares.numerics import (
    VAR_FLOOR,
    Gauss1d,
    GaussianModel,
    beta_sample,
    fit_gaussian,
    gaussian_logpdf,
    jsd_gauss1d,
    kld_gauss1d,
    moment_match_mixture,
)
from ares.numerics import _row_order
from ares.rng import Rng


# ---- oracles ---------------------------------------------------------------

def kld_quadrature(p: Gauss1d, q: Gauss1d) -> float:
    """Adaptive quadrature of the KL integrand (test-suite oracle)."""
    sp, sq = math.sqrt(p.var), math.sqrt(q.var)

    def integrand(x):
        lp = -0.5 * ((x - p.mu) / sp) ** 2 - math.log(sp * math.sqrt(2 * math.pi))
        lq = -0.5 * ((x - q.mu) / sq) ** 2 - math.log(sq * math.sqrt(2 * math.pi))
        return math.exp(lp) * (lp - lq)

    lo = min(p.mu - 40 * sp, q.mu - 40 * sq)
    hi = max(p.mu + 40 * sp, q.mu + 40 * sq)
    val, _err = integrate.quad(integrand, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-10)
    return val


def dense_logpdf(mu, sigma_reg, v) -> float:
    """Dense-inverse multivariate normal log density (test-suite oracle)."""
    p = len(mu)
    diff = np.asarray(v) - mu
    sign, logdet = np.linalg.slogdet(sigma_reg)
    assert sign > 0
    maha = diff @ np.linalg.inv(sigma_reg) @ diff
    return -0.5 * (p * math.log(2 * math.pi) + logdet + maha)


# ---- beta sampling -----------------------------------------------------------

def test_beta_alpha1_uniform_ks():
    rng = Rng(0)
    draws = np.array([beta_sample(1.0, rng) for _ in range(100_000)])
    grid = np.sort(draws)
    ks = np.max(np.abs(grid - (np.arange(1, len(grid) + 1) / len(grid))))
    assert ks < 0.02


def test_beta_alpha3_mean_half():
    rng = Rng(1)
    draws = np.array([beta_sample(3.0, rng) for _ in range(100_000)])
    assert abs(draws.mean() - 0.5) < 0.01


def test_beta_alpha2_support():
    rng = Rng(2)
    draws = np.array([beta_sample(2.0, rng) for _ in range(10_000)])
    assert np.all((draws > 0.0) & (draws < 1.0))


@pytest.mark.parametrize("alpha", [0.0, -1.0, float("nan"), float("inf")])
def test_beta_invalid_alpha(alpha):
    with pytest.raises(ValueError):
        beta_sample(alpha, Rng(0))


# ---- gaussian fit --------------------------------------------------------------

def test_fit_hand_case_exact():
    m = fit_gaussian([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    assert np.array_equal(m.mu, [1.0, 1.0])
    assert np.array_equal(m.sigma, np.eye(2))


def test_fit_identical_points():
    c = np.array([3.0, -1.0, 2.0])
    m = fit_gaussian(np.tile(c, (5, 1)))
    assert np.array_equal(m.mu, c)
    assert np.array_equal(m.sigma, np.zeros((3, 3)))
    assert np.allclose(m.chol, math.sqrt(m.ridge) * np.eye(3))
    assert m.ridge > 0


def test_fit_monte_carlo_recovery():
    rng = Rng(10)
    mu0 = np.array([1.0, -2.0, 0.5])
    a = rng.standard_normal((3, 3))
    sigma0 = a @ a.T + 0.5 * np.eye(3)
    chol0 = np.linalg.cholesky(sigma0)
    pts = mu0 + rng.standard_normal((10_000, 3)) @ chol0.T
    m = fit_gaussian(pts)
    assert np.all(np.abs(m.mu - mu0) < 0.05)


def test_fit_errors():
    with pytest.raises(ValueError):
        fit_gaussian([[1.0, 2.0]])
    with pytest.raises(ValueError):
        fit_gaussian([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        fit_gaussian(np.zeros(4))
    with pytest.raises(ValueError, match="no coordinates"):
        fit_gaussian(np.zeros((3, 0)))


def test_fit_overflow_is_a_named_error():
    # finite points whose sum or squared deviations leave float64
    for pts in ([[1.7e308], [1.7e308]], [[-1e300, 0.0], [1e300, 1.0]]):
        with pytest.raises(NumericalError, match="overflow"):
            fit_gaussian(pts)


def test_fit_permutation_invariant_bitwise():
    rng = Rng(11)
    pts = rng.standard_normal((257, 5)) * np.array([1.0, 10.0, 0.1, 100.0, 1e-3])
    m1 = fit_gaussian(pts)
    m2 = fit_gaussian(pts[rng.permutation(len(pts))])
    assert np.array_equal(m1.mu, m2.mu)
    assert np.array_equal(m1.sigma, m2.sigma)
    assert np.array_equal(m1.chol, m2.chol)


# ---- row-order contract -------------------------------------------------------
# The fit sorts its rows before summing; each input below has rows that a
# weaker order (a stable sort on column 0 alone, say) would leave in input
# order, where a plain sum would see the permutation.

def fit_bytes(pts) -> tuple:
    """The fit's arrays and ridge as raw bytes (so -0.0 != 0.0), or the
    exception it raised."""
    try:
        m = fit_gaussian(pts)
    except (NumericalError, ValueError) as err:
        return (type(err), str(err))
    return (m.mu.tobytes(), m.sigma.tobytes(), m.chol.tobytes(), np.float64(m.ridge).tobytes())


def assert_permutation_invariant(pts, seed: int, rounds: int = 5) -> None:
    want = fit_bytes(pts)
    rng = np.random.default_rng(seed)
    for _ in range(rounds):
        assert fit_bytes(pts[rng.permutation(len(pts))]) == want


def test_fit_permutation_invariant_ties_in_leading_columns():
    rng = np.random.default_rng(40)
    pts = rng.standard_normal((300, 5))
    pts[:, 0] = rng.integers(-1, 2, size=300)  # three values: column 0 ties
    assert_permutation_invariant(pts, seed=41)
    pts[:, 1] = rng.integers(0, 2, size=300)  # and columns 0-1 tie in pairs
    assert_permutation_invariant(pts, seed=42)


def test_fit_permutation_invariant_duplicate_rows():
    rng = np.random.default_rng(43)
    rows = rng.standard_normal((40, 4)) * np.array([1.0, 1e3, 1e-3, 7.0])
    pts = np.repeat(rows, rng.integers(1, 6, size=40), axis=0)
    assert_permutation_invariant(pts, seed=44)


def test_fit_permutation_invariant_signed_zeros():
    rng = np.random.default_rng(45)
    n = 200
    signs = rng.choice([-1.0, 1.0], size=(n, 3))
    pts = np.column_stack([
        signs[:, 0] * 0.0,  # only +0.0 and -0.0: every row ties in column 0
        np.where(rng.random(n) < 0.5, signs[:, 1] * 0.0, rng.standard_normal(n)),
        rng.integers(0, 3, size=n).astype(float),
        signs[:, 2] * 0.0,
    ])
    assert_permutation_invariant(pts, seed=46)
    # rows that differ only in the sign of a zero compare equal in the sort
    assert_permutation_invariant(np.column_stack([signs * 0.0, np.ones(n)]), seed=47)


def test_fit_permutation_invariant_training_shaped_pool():
    # one estimation fit of training: 1200 candidates, 16 features
    rng = np.random.default_rng(48)
    mix = rng.standard_normal((16, 16))
    pts = np.tanh(rng.standard_normal((1200, 16)) @ mix + rng.standard_normal(16))
    assert_permutation_invariant(pts, seed=49)


# values whose uint64 keys must order as the floats do: signed zeros (equal),
# the smallest subnormals, the smallest normals and values near the top
EDGE_VALUES = np.array([0.0, -0.0, 1.0, -1.0, 5e-324, -5e-324, 2.2e-308, -2.2e-308, 1e300, -1e300,
                        1.7e308, -1.7e308, 3.5, -3.5])


def test_row_order_equals_lexsort():
    # the key sort is np.lexsort's stable permutation, ties included, on
    # 3,000 small arrays: edge values, few distinct values at a tiny or huge
    # scale (ties in leading columns), and Gaussian rows with duplicates
    rng = np.random.default_rng(60)
    for i in range(3000):
        n, p = int(rng.integers(1, 60)), int(rng.integers(1, 7))
        if i % 3 == 0:
            pts = rng.choice(EDGE_VALUES, size=(n, p))
        elif i % 3 == 1:
            pts = rng.integers(-2, 3, size=(n, p)) * rng.choice([1.0, 1e-310, 1e300])
        else:
            pts = rng.standard_normal((n, p))
            pts[rng.integers(0, n, size=n // 2)] = pts[0]
        assert np.array_equal(_row_order(pts), np.lexsort(pts.T[::-1])), (i, pts)
    # a training-shaped pool, and the same points in other memory layouts
    pts = np.tanh(rng.standard_normal((1200, 16)))
    want = np.lexsort(pts.T[::-1])
    assert np.array_equal(_row_order(pts), want)
    assert np.array_equal(_row_order(np.asfortranarray(pts)), want)
    wide = np.repeat(pts, 2, axis=1)[:, ::2]  # strided columns
    assert np.array_equal(_row_order(wide), want)


def test_fit_moments_match_fsum_within_rounding():
    # the sums are plain float sums, not correctly rounded: each entry must
    # stay within the worst-case rounding bound of any summation order,
    # n * eps * sum|terms|
    rng = np.random.default_rng(50)
    pts = rng.standard_normal((1200, 4)) * [1.0, 1e3, 1e-3, 7.0] + [0.0, 5e3, -2.0, 1.0]
    m = fit_gaussian(pts)
    n, p = pts.shape
    tol = n * np.finfo(float).eps
    mu = np.array([math.fsum(col) for col in pts.T]) / n
    assert np.all(np.abs(m.mu - mu) <= tol * np.abs(pts).sum(axis=0) / n)
    dev = pts - mu
    for i in range(p):
        for j in range(p):
            terms = dev[:, i] * dev[:, j]
            assert abs(m.sigma[i, j] - math.fsum(terms) / n) <= tol * np.abs(terms).sum() / n


@given(
    a=hnp.arrays(
        np.float64,
        st.tuples(st.integers(2, 300), st.integers(1, 16)),
        elements=st.floats(allow_nan=False, allow_infinity=False),
    ),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=300, deadline=None)
def test_fit_permutation_invariant_property(a, seed):
    assert_permutation_invariant(a, seed, rounds=2)


def test_fit_sigma_symmetric_and_factor_consistent():
    rng = Rng(12)
    pts = rng.standard_normal((100, 6))
    m = fit_gaussian(pts)
    assert np.array_equal(m.sigma, m.sigma.T)
    recon = m.chol @ m.chol.T
    assert np.max(np.abs(recon - (m.sigma + m.ridge * np.eye(6)))) < 1e-8


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_mean_raises(bad):
    # a NaN mean would give NaN densities everywhere, and the bottom-B
    # ranking would silently fall back to index order
    with pytest.raises(NumericalError, match="mean"):
        GaussianModel.from_moments([bad], [[1.0]])
    with pytest.raises(NumericalError, match="mean"):
        GaussianModel.from_moments([0.0, bad], np.eye(2))


def test_factorization_failure_raises():
    cases = [
        np.array([[1.0, 2.0], [2.0, 1.0]]) * -1e300,  # not SPD at any tested ridge
        np.array([[np.nan]]),  # a NaN or inf entry would otherwise factor to itself
        np.array([[1.0, 0.0], [0.0, np.inf]]),
    ]
    for bad in cases:
        with pytest.raises(NumericalError):
            GaussianModel.from_moments(np.zeros(len(bad)), bad, ridge_scale=1e-6)


# ---- log density ----------------------------------------------------------------

def test_logpdf_at_mean_identity_cov():
    m = GaussianModel.from_moments([0.0, 0.0], np.eye(2))
    assert abs(gaussian_logpdf(m, [0.0, 0.0]) - math.log(1.0 / (2 * math.pi))) < 1e-5


def test_logpdf_unit_offset():
    m = GaussianModel.from_moments([0.0, 0.0], np.eye(2))
    expected = math.log(1.0 / (2 * math.pi)) - 0.5
    assert abs(gaussian_logpdf(m, [1.0, 0.0]) - expected) < 1e-5


def test_logpdf_matches_dense_inverse():
    rng = Rng(20)
    a = rng.standard_normal((3, 3))
    sigma = a @ a.T + 0.1 * np.eye(3)
    m = GaussianModel.from_moments([0.5, -0.5, 1.0], sigma)
    for _ in range(20):
        v = rng.standard_normal(3) * 3
        ours = gaussian_logpdf(m, v)
        ref = dense_logpdf(m.mu, m.sigma + m.ridge * np.eye(3), v)
        assert abs(ours - ref) < 1e-9


def test_logpdf_batch_matches_single():
    rng = Rng(21)
    m = GaussianModel.from_moments(rng.standard_normal(4), np.eye(4))
    pts = rng.standard_normal((200, 4))
    batch = gaussian_logpdf(m, pts)
    singles = [gaussian_logpdf(m, p) for p in pts]
    # batched and single solves may differ by a few ulp (LAPACK blocking)
    assert np.allclose(batch, singles, rtol=1e-12, atol=1e-12)


def test_logpdf_dim_mismatch():
    m = GaussianModel.from_moments([0.0, 0.0], np.eye(2))
    with pytest.raises(ValueError):
        gaussian_logpdf(m, [1.0, 2.0, 3.0])


# ---- divergences ---------------------------------------------------------------

def test_kld_identity_zero():
    g = Gauss1d(1.3, 2.2)
    assert kld_gauss1d(g, g) == 0.0


def test_kld_known_values():
    assert abs(kld_gauss1d(Gauss1d(0, 1), Gauss1d(1, 1)) - 0.5) < 1e-12
    assert abs(kld_gauss1d(Gauss1d(0, 1), Gauss1d(0, math.e)) - 1 / (2 * math.e)) < 1e-12


def test_kld_matches_quadrature():
    rng = Rng(30)
    for _ in range(20):
        p = Gauss1d(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
        q = Gauss1d(rng.uniform(-5, 5), rng.uniform(0.1, 4.0))
        closed = kld_gauss1d(p, q)
        quad = kld_quadrature(p, q)
        assert abs(closed - quad) <= 1e-6 * max(1e-9, abs(quad))


@given(
    mu_p=st.floats(-20, 20),
    var_p=st.floats(1e-6, 100),
    mu_q=st.floats(-20, 20),
    var_q=st.floats(1e-6, 100),
)
@settings(max_examples=200, deadline=None)
def test_kld_nonnegative_property(mu_p, var_p, mu_q, var_q):
    assert kld_gauss1d(Gauss1d(mu_p, var_p), Gauss1d(mu_q, var_q)) >= 0.0


def test_moment_match_examples():
    g = moment_match_mixture(Gauss1d(2.0, 4.0), Gauss1d(2.0, 4.0))
    assert g.mu == 2.0 and g.var == 4.0
    g = moment_match_mixture(Gauss1d(0, 1), Gauss1d(2, 1))
    assert g.mu == 1.0 and g.var == 2.0
    g = moment_match_mixture(Gauss1d(0, 1), Gauss1d(0, 9))
    assert g.mu == 0.0 and g.var == 5.0


def test_jsd_zero_and_symmetric():
    p = Gauss1d(0.7, 1.9)
    assert jsd_gauss1d(p, p) == 0.0
    q = Gauss1d(-3.1, 0.4)
    assert jsd_gauss1d(p, q) == jsd_gauss1d(q, p)  # bitwise


@given(
    mu_p=st.floats(-20, 20),
    var_p=st.floats(1e-6, 100),
    mu_q=st.floats(-20, 20),
    var_q=st.floats(1e-6, 100),
)
@settings(max_examples=200, deadline=None)
def test_jsd_symmetric_property(mu_p, var_p, mu_q, var_q):
    p, q = Gauss1d(mu_p, var_p), Gauss1d(mu_q, var_q)
    assert jsd_gauss1d(p, q) == jsd_gauss1d(q, p)
    assert jsd_gauss1d(p, q) >= 0.0


def test_jsd_matches_quadrature_against_matched_midpoint():
    p, q = Gauss1d(0.0, 1.0), Gauss1d(10.0, 1.0)
    m = moment_match_mixture(p, q)
    ref = 0.5 * (kld_quadrature(p, m) + kld_quadrature(q, m))
    ours = jsd_gauss1d(p, q)
    assert abs(ours - ref) <= 1e-6 * abs(ref)


def test_var_floor_applies():
    g = Gauss1d(0.0, 0.0)
    assert g.var == VAR_FLOOR
