import numpy as np
import pytest

from ares.numerics import fit_gaussian, gaussian_logpdf
from ares.rng import Rng
from ares.synthesis import expand_features, sample_virtual_outliers


class ForcedBetaRng(Rng):
    """Rng whose beta draws always return a fixed value."""

    def __init__(self, seed, value):
        super().__init__(seed)
        self.value = value

    def beta(self, a, b, size=None):
        return np.full(size, self.value) if size is not None else self.value


def brute_force_densities(model, pts):
    # same density values as the library (their correctness is checked
    # against a dense-inverse oracle elsewhere); the selection logic under
    # test is the sorting/counting done on top of them
    return np.exp(gaussian_logpdf(model, pts))


# ---- expansion -----------------------------------------------------------------

def test_lambda_one_returns_first_endpoint():
    feats = Rng(0).standard_normal((10, 3))
    xs = expand_features(feats, 2.0, 5, ForcedBetaRng(1, 1.0))
    assert np.array_equal(xs.points, feats[xs.idx_i])


def test_lambda_half_midpoint():
    feats = np.array([[0.0, 0.0], [2.0, 2.0]])
    xs = expand_features(feats, 2.0, 4, ForcedBetaRng(2, 0.5))
    assert np.allclose(xs.points, [[1.0, 1.0]] * 4)


def test_expanded_points_in_pairwise_box():
    feats = Rng(3).standard_normal((20, 4))
    xs = expand_features(feats, 2.0, 100, Rng(4))
    lo = np.minimum(feats[xs.idx_i], feats[xs.idx_j])
    hi = np.maximum(feats[xs.idx_i], feats[xs.idx_j])
    assert np.all(xs.points >= lo - 1e-12) and np.all(xs.points <= hi + 1e-12)


def test_expansion_never_pairs_point_with_itself():
    xs = expand_features(Rng(5).standard_normal((7, 2)), 2.0, 500, Rng(6))
    assert np.all(xs.idx_i != xs.idx_j)


def test_expansion_needs_two_points():
    with pytest.raises(ValueError):
        expand_features(np.zeros((1, 3)), 2.0, 5, Rng(0))


def test_expansion_lambda_mean_near_half():
    xs = expand_features(Rng(7).standard_normal((50, 2)), 2.0, 100_000, Rng(8))
    assert abs(xs.lam.mean() - 0.5) < 0.01


# ---- estimation -----------------------------------------------------------------

def test_estimate_matches_hand_case():
    pts = np.array([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    model = fit_gaussian(pts)
    assert np.array_equal(model.mu, [1.0, 1.0])
    assert np.array_equal(model.sigma, np.eye(2))


def test_estimate_shuffle_invariant():
    pts = Rng(9).standard_normal((40, 3))
    a = fit_gaussian(pts)
    b = fit_gaussian(pts[Rng(10).permutation(40)])
    assert np.array_equal(a.mu, b.mu) and np.array_equal(a.sigma, b.sigma)


def test_estimate_degenerate_cloud_uses_ridge():
    pts = np.tile([1.0, 2.0], (6, 1))
    model = fit_gaussian(pts)
    assert np.array_equal(model.sigma, np.zeros((2, 2)))
    assert model.ridge > 0


# ---- virtual outlier selection ------------------------------------------------------

@pytest.fixture
def pool_and_model():
    rng = Rng(11)
    pts = rng.standard_normal((500, 3))
    model = fit_gaussian(pts)
    return pts, model


def test_bottom_one_is_global_minimum(pool_and_model):
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    picked = sample_virtual_outliers(pts, model, count=1)
    assert np.array_equal(picked[0], pts[np.argmin(dens)])


def test_bottom_b_matches_brute_force(pool_and_model):
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    b = 64
    picked = sample_virtual_outliers(pts, model, count=b)
    expect = pts[np.argsort(dens, kind="stable")[:b]]
    assert np.array_equal(picked, expect)


def test_underflowed_densities_keep_index_order():
    # the first three densities underflow to 0 and tie; their log densities
    # differ, so a ranking by log density would reorder them
    model = fit_gaussian(np.array([[-1.0], [1.0]]))
    pts = np.array([[40.0], [-50.0], [45.0], [0.0]])
    assert np.array_equal(brute_force_densities(model, pts)[:3], [0.0, 0.0, 0.0])
    assert np.array_equal(sample_virtual_outliers(pts, model, count=4), pts)


def test_partition_invariant(pool_and_model):
    # max density inside the batch < min density outside, under distinct densities
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    b = 50
    picked = sample_virtual_outliers(pts, model, count=b)
    inside = brute_force_densities(model, picked)
    assert np.array_equal(np.sort(inside), np.sort(dens)[:b])
    assert inside.max() < np.sort(dens)[b]


def test_outlier_mean_density_below_pool_mean(pool_and_model):
    pts, model = pool_and_model
    picked = sample_virtual_outliers(pts, model, count=100)
    assert gaussian_logpdf(model, picked).mean() < gaussian_logpdf(model, pts).mean()
