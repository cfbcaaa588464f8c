import numpy as np
import pytest

from ares.errors import SynthesisUnderflowError
from ares.numerics import GaussianModel, fit_gaussian, gaussian_logpdf
from ares.rng import Rng
from ares.synthesis import expand_features, sample_virtual_outliers, select_epsilon


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


# ---- epsilon selection ------------------------------------------------------------

@pytest.fixture
def pool_and_model():
    rng = Rng(11)
    pts = rng.standard_normal((500, 3))
    model = fit_gaussian(pts)
    return pts, model


def test_epsilon_t1_is_minimum(pool_and_model):
    pts, model = pool_and_model
    eps = select_epsilon(pts, model, m=len(pts), t=1, rng=Rng(12))
    assert eps == brute_force_densities(model, pts).min()


def test_epsilon_full_pool_order_statistic(pool_and_model):
    pts, model = pool_and_model
    dens = np.sort(brute_force_densities(model, pts))
    for t in (1, 3, 128, 500):
        eps = select_epsilon(pts, model, m=len(pts), t=t, rng=Rng(13))
        assert eps == dens[t - 1]


def test_epsilon_small_hand_pool():
    # four points whose densities sort strictly; t=3 returns the third smallest
    model = GaussianModel.from_moments([0.0], np.eye(1))
    pts = np.array([[0.0], [0.5], [1.0], [2.0]])
    dens = brute_force_densities(model, pts)
    eps = select_epsilon(pts, model, m=4, t=3, rng=Rng(14))
    assert eps == np.sort(dens)[2]


def test_epsilon_subsample_reproducible(pool_and_model):
    pts, model = pool_and_model
    a = select_epsilon(pts, model, m=100, t=10, rng=Rng(15))
    b = select_epsilon(pts, model, m=100, t=10, rng=Rng(15))
    assert a == b


def test_epsilon_subsample_matches_brute_force_recount(pool_and_model):
    pts, model = pool_and_model
    m, t = 100, 10
    eps = select_epsilon(pts, model, m=m, t=t, rng=Rng(16))
    cand = np.sort(Rng(16).choice(len(pts), size=m, replace=False))
    dens = np.sort(brute_force_densities(model, pts[cand]))
    assert eps == dens[t - 1]


def test_epsilon_rank_validation(pool_and_model):
    pts, model = pool_and_model
    with pytest.raises(ValueError):
        select_epsilon(pts, model, m=10, t=11, rng=Rng(0))
    with pytest.raises(ValueError):
        select_epsilon(pts, model, m=2000, t=501, rng=Rng(0))  # m clamps to 500


# ---- virtual outlier selection ------------------------------------------------------

def test_bottom_one_is_global_minimum(pool_and_model):
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    batch = sample_virtual_outliers(pts, model, epsilon=np.inf, count=1)
    assert np.array_equal(batch.points[0], pts[np.argmin(dens)])


def test_selected_all_below_epsilon(pool_and_model):
    pts, model = pool_and_model
    eps = select_epsilon(pts, model, m=len(pts), t=129, rng=Rng(17))
    batch = sample_virtual_outliers(pts, model, eps, count=128)
    assert np.all(np.exp(batch.loglik) < eps)


def test_bottom_b_matches_brute_force(pool_and_model):
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    b = 64
    batch = sample_virtual_outliers(pts, model, epsilon=np.inf, count=b)
    expect = pts[np.argsort(dens, kind="stable")[:b]]
    assert np.array_equal(batch.points, expect)


def test_underflow_names_deficit(pool_and_model):
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    eps = np.sort(dens)[4]  # only 4 points lie strictly below
    with pytest.raises(SynthesisUnderflowError) as exc:
        sample_virtual_outliers(pts, model, eps, count=10)
    assert exc.value.deficit == 6


def test_partition_invariant(pool_and_model):
    # max density inside the batch < min density outside, under distinct densities
    pts, model = pool_and_model
    dens = brute_force_densities(model, pts)
    b = 50
    batch = sample_virtual_outliers(pts, model, epsilon=np.inf, count=b)
    inside = np.exp(batch.loglik).max()
    outside = np.delete(dens, batch.indices).min()
    assert inside < outside


def test_outlier_mean_density_below_pool_mean(pool_and_model):
    pts, model = pool_and_model
    batch = sample_virtual_outliers(pts, model, epsilon=np.inf, count=100)
    assert batch.loglik.mean() < gaussian_logpdf(model, pts).mean()

