import math

import numpy as np
import pytest

from ares.losses import (
    DIV_GUARD,
    LogisticHead,
    ce_logistic_grad,
    ce_logistic_loss,
    energy_histogram,
    fit_energy_distribution,
    jsd_discrimination_grad,
    jsd_discrimination_loss,
    nce_grad,
    nce_loss,
    total_loss,
    write_energy_histogram_csv,
)
from ares.numerics import VAR_FLOOR, Gauss1d, jsd_gauss1d
from ares.rng import Rng


def fd_score_grads(loss_fn, scores, h=1e-6):
    scores = np.array(scores, dtype=float)
    out = np.zeros_like(scores)
    for i in range(scores.size):
        up = scores.copy()
        up[i] += h
        down = scores.copy()
        down[i] -= h
        out[i] = (loss_fn(up) - loss_fn(down)) / (2 * h)
    return out


# ---- energy distribution fits --------------------------------------------------

def test_fit_constant_scores_floors_variance():
    d = fit_energy_distribution([1.0, 1.0, 1.0])
    assert d.mu == 1.0 and d.var == VAR_FLOOR


def test_fit_two_point():
    d = fit_energy_distribution([0.0, 2.0])
    assert d.mu == 1.0 and d.var == 1.0


def test_fit_hand_case():
    d = fit_energy_distribution([-3.0, -1.0, 1.0, 3.0])
    assert d.mu == 0.0 and d.var == 5.0


def test_fit_empty_rejected():
    with pytest.raises(ValueError):
        fit_energy_distribution([])


# ---- jsd discrimination ---------------------------------------------------------

def test_jsd_identical_lists_zero():
    s = [0.3, -1.2, 4.0]
    assert jsd_discrimination_loss(s, s) == 0.0


def test_jsd_symmetric():
    a = Rng(0).standard_normal(30)
    b = Rng(1).standard_normal(30) + 2
    assert jsd_discrimination_loss(a, b) == jsd_discrimination_loss(b, a)


def test_jsd_shift_invariant():
    a = Rng(2).standard_normal(30)
    b = Rng(3).standard_normal(30) + 2
    base = jsd_discrimination_loss(a, b)
    shifted = jsd_discrimination_loss(a + 100.0, b + 100.0)
    assert abs(base - shifted) < 1e-9


def test_jsd_sampled_batches_near_closed_form():
    rng = Rng(4)
    id_scores = 5.0 + rng.standard_normal(128)
    ood_scores = -5.0 + rng.standard_normal(128)
    target = jsd_gauss1d(Gauss1d(5.0, 1.0), Gauss1d(-5.0, 1.0))
    got = jsd_discrimination_loss(id_scores, ood_scores)
    assert abs(got - target) / target < 0.02


def test_jsd_grad_matches_finite_differences():
    rng = Rng(5)
    a = rng.standard_normal(16) * 2.0 + 1.0
    b = rng.standard_normal(12) - 0.5
    loss, d_a, d_b = jsd_discrimination_grad(a, b)
    assert loss == jsd_discrimination_loss(a, b)
    fd_a = fd_score_grads(lambda s: jsd_discrimination_loss(s, b), a)
    fd_b = fd_score_grads(lambda s: jsd_discrimination_loss(a, s), b)
    denom_a = np.maximum(np.abs(fd_a), 1e-6)
    denom_b = np.maximum(np.abs(fd_b), 1e-6)
    assert np.max(np.abs(d_a - fd_a) / denom_a) <= 1e-4
    assert np.max(np.abs(d_b - fd_b) / denom_b) <= 1e-4


def oracle_jsd_grad(id_scores, ood_scores):
    """The JSD gradient through ``mean()``, numpy scalars, ``np.square`` in
    the Gaussian divergences and one ``errstate`` per expression group."""
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    b1, b2 = e.size, f.size
    with np.errstate(over="ignore", invalid="ignore"):
        mu_p = e.mean()
        vp_raw = float(((e - mu_p) ** 2).mean())
        mu_q = f.mean()
        vq_raw = float(((f - mu_q) ** 2).mean())
    vp = max(vp_raw, VAR_FLOOR)
    vq = max(vq_raw, VAR_FLOOR)
    mu_m = 0.5 * (mu_p + mu_q)
    with np.errstate(over="ignore", invalid="ignore"):
        vm_raw = 0.5 * (vp + vq) + 0.25 * (mu_p - mu_q) ** 2

    def kld(m1, v1, m2, v2):
        with np.errstate(over="ignore", invalid="ignore"):
            gap2 = float(np.square(np.float64(m1) - m2))
            val = 0.5 * math.log(v2 / v1) + (v1 + gap2) / (2.0 * v2) - 0.5
        return val if math.isnan(val) else max(0.0, val)

    with np.errstate(over="ignore"):  # the loss against the moment-matched midpoint
        mix_var = 0.5 * (vp + vq) + 0.25 * float(np.square(np.float64(mu_p) - mu_q))
    mix_mu, mix_var = 0.5 * (float(mu_p) + float(mu_q)), max(mix_var, VAR_FLOOR)
    loss = 0.5 * kld(float(mu_p), vp, mix_mu, mix_var) + 0.5 * kld(float(mu_q), vq, mix_mu, mix_var)
    vm = max(vm_raw, VAR_FLOOR)
    with np.errstate(over="ignore", invalid="ignore"):
        g_mu_m = -(mu_p - mu_m) / vm - (mu_q - mu_m) / vm
        g_vm = 1.0 / vm - (vp + (mu_p - mu_m) ** 2 + vq + (mu_q - mu_m) ** 2) / (2.0 * vm**2)
        vm_active = 1.0 if vm_raw > VAR_FLOOR else 0.0
        d_mu_p = 0.5 * ((mu_p - mu_m) / vm + 0.5 * g_mu_m + 0.5 * (mu_p - mu_q) * g_vm * vm_active)
        d_mu_q = 0.5 * ((mu_q - mu_m) / vm + 0.5 * g_mu_m - 0.5 * (mu_p - mu_q) * g_vm * vm_active)
        d_vp = 0.5 * (-0.5 / vp + 0.5 / vm + 0.5 * g_vm * vm_active)
        d_vq = 0.5 * (-0.5 / vq + 0.5 / vm + 0.5 * g_vm * vm_active)
        vp_active = 1.0 if vp_raw > VAR_FLOOR else 0.0
        vq_active = 1.0 if vq_raw > VAR_FLOOR else 0.0
        d_id = d_mu_p / b1 + d_vp * 2.0 * (e - mu_p) / b1 * vp_active
        d_ood = d_mu_q / b2 + d_vq * 2.0 * (f - mu_q) / b2 * vq_active
    return float(loss), d_id, d_ood


@pytest.mark.parametrize("case", ["normal", "wide", "constant", "one-constant", "single", "huge", "inf"])
def test_jsd_grad_matches_mean_oracle_bitwise(case):
    rng = Rng(6)
    a = rng.standard_normal(128) * 3.0 - 20.0
    b = rng.standard_normal(96) - 25.0
    if case == "wide":
        a, b = a * 1e5, b * 1e-5
    elif case == "constant":
        a, b = np.full(128, -3.0), np.full(96, -3.0)
    elif case == "one-constant":
        b = np.full(96, -7.5)
    elif case == "single":
        a, b = a[:1], b[:1]
    elif case == "huge":  # the squared deviations overflow
        a, b = a * 1e160, b * 1e155
    elif case == "inf":
        a[3] = np.inf
    loss, d_a, d_b = jsd_discrimination_grad(a, b)
    want, want_a, want_b = oracle_jsd_grad(a, b)
    assert np.float64(loss).tobytes() == np.float64(want).tobytes()
    assert d_a.tobytes() == want_a.tobytes()
    assert d_b.tobytes() == want_b.tobytes()


def test_jsd_empty_rejected():
    with pytest.raises(ValueError):
        jsd_discrimination_loss([], [1.0])


# ---- total loss ------------------------------------------------------------------

def test_total_loss_arithmetic():
    assert abs(total_loss(1.0, 2.0, 0.1) - 1.05) < 1e-7


def test_total_loss_beta_zero():
    assert total_loss(3.0, 17.0, 0.0) == 3.0


def test_total_loss_monotone_decreasing_in_dis():
    vals = [total_loss(1.0, d, 0.1) for d in (0.1, 1.0, 10.0, 1e6)]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert vals[-1] > 1.0  # approaches cls from above


def test_total_loss_guard_bounds_blowup():
    assert total_loss(0.0, 0.0, 0.1) == 0.1 / DIV_GUARD


def test_total_loss_negative_dis_rejected():
    with pytest.raises(ValueError):
        total_loss(1.0, -0.5, 0.1)


# ---- ce ablation loss ---------------------------------------------------------------

def test_ce_uninformative_head_log2():
    head = LogisticHead(weight=0.0, bias=0.0)
    a = Rng(6).standard_normal(40)
    b = Rng(7).standard_normal(40)
    assert abs(ce_logistic_loss(a, b, head) - np.log(2.0)) < 1e-12


def test_ce_separated_scores_small_loss():
    head = LogisticHead(weight=1.0, bias=0.0)
    id_scores = np.full(20, 8.0)
    ood_scores = np.full(20, -8.0)
    assert ce_logistic_loss(id_scores, ood_scores, head) < 0.1


def test_ce_nonnegative():
    head = LogisticHead(weight=-2.0, bias=1.0)
    a = Rng(8).standard_normal(10)
    b = Rng(9).standard_normal(10)
    assert ce_logistic_loss(a, b, head) >= 0.0


def test_ce_grads_match_fd():
    head = LogisticHead(weight=1.3, bias=-0.2)
    a = Rng(10).standard_normal(9)
    b = Rng(11).standard_normal(7)
    loss, d_a, d_b, d_w, d_b_head = ce_logistic_grad(a, b, head)
    fd_a = fd_score_grads(lambda s: ce_logistic_loss(s, b, head), a)
    fd_b = fd_score_grads(lambda s: ce_logistic_loss(a, s, head), b)
    assert np.allclose(d_a, fd_a, atol=1e-8)
    assert np.allclose(d_b, fd_b, atol=1e-8)
    h = 1e-6
    fd_w = (
        ce_logistic_loss(a, b, LogisticHead(head.weight + h, head.bias))
        - ce_logistic_loss(a, b, LogisticHead(head.weight - h, head.bias))
    ) / (2 * h)
    fd_bh = (
        ce_logistic_loss(a, b, LogisticHead(head.weight, head.bias + h))
        - ce_logistic_loss(a, b, LogisticHead(head.weight, head.bias - h))
    ) / (2 * h)
    assert abs(d_w - fd_w) < 1e-7 and abs(d_b_head - fd_bh) < 1e-7


# ---- nce ablation loss ----------------------------------------------------------------

def test_nce_all_equal_scores():
    head = LogisticHead()
    for m in (1, 5, 33):
        loss = nce_loss(np.zeros(10), np.zeros(m), head, temperature=0.1)
        assert abs(loss - np.log(1 + m)) < 1e-12


def test_nce_single_separated_ood_bounded():
    head = LogisticHead()
    loss_near = nce_loss([0.0], [0.01], head, temperature=0.1)
    loss_far = nce_loss([0.0], [50.0], head, temperature=0.1)
    assert loss_near <= np.log(2.0) + 1e-12
    assert loss_far < 1e-9


def test_nce_matches_brute_force():
    head = LogisticHead(weight=0.7, bias=0.3)
    a = Rng(12).standard_normal(5)
    b = Rng(13).standard_normal(4)
    t = 0.25
    expected = 0.0
    for ai in a:
        z = 1.0
        for bj in b:
            z += np.exp(-abs((0.7 * ai + 0.3) - (0.7 * bj + 0.3)) / t)
        expected += np.log(z)
    expected /= len(a)
    assert abs(nce_loss(a, b, head, t) - expected) < 1e-12


def test_nce_nonnegative_and_temperature_validation():
    head = LogisticHead()
    assert nce_loss([1.0, 2.0], [0.5], head, 0.5) >= 0.0
    with pytest.raises(ValueError):
        nce_loss([1.0], [0.5], head, 0.0)


def test_nce_grads_match_fd():
    head = LogisticHead(weight=1.1, bias=0.4)
    a = Rng(14).standard_normal(6) * 2
    b = Rng(15).standard_normal(5) * 2 + 1
    t = 0.3
    loss, d_a, d_b, d_w, d_bh = nce_grad(a, b, head, t)
    fd_a = fd_score_grads(lambda s: nce_loss(s, b, head, t), a)
    fd_b = fd_score_grads(lambda s: nce_loss(a, s, head, t), b)
    assert np.allclose(d_a, fd_a, atol=1e-7)
    assert np.allclose(d_b, fd_b, atol=1e-7)
    h = 1e-6
    fd_w = (
        nce_loss(a, b, LogisticHead(head.weight + h, head.bias), t)
        - nce_loss(a, b, LogisticHead(head.weight - h, head.bias), t)
    ) / (2 * h)
    assert abs(d_w - fd_w) < 1e-6
    assert abs(d_bh) < 1e-12  # a shared shift cancels in the similarity


# ---- histogram export --------------------------------------------------------------

def test_histogram_covers_joint_range_and_counts(tmp_path):
    id_s = [0.0, 1.0, 2.0]
    ood_s = [10.0]
    v_s = [-5.0, -5.0]
    rows = energy_histogram(id_s, ood_s, v_s, n_bins=50)
    assert len(rows) == 50
    assert rows[0][0] == -5.0 and rows[-1][1] == 10.0
    assert sum(r[2] for r in rows) == 3
    assert sum(r[3] for r in rows) == 1
    assert sum(r[4] for r in rows) == 2
    path = tmp_path / "hist.csv"
    write_energy_histogram_csv(path, id_s, ood_s, v_s, n_bins=50)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "bin_left,bin_right,count_id,count_ood,count_virtual"
    assert len(lines) == 51
