"""Score-distribution losses for the discrimination phase.

The main path fits 1-d Gaussians to the energy scores of inliers and
virtual outliers and repels them through the closed-form Jensen-Shannon
divergence; the total loss rewards a large divergence through a guarded
reciprocal. Two ablation losses (binary cross entropy and a noise
contrastive loss, both through a scalar logistic head) share the same
interface. Every loss here also exposes its analytic gradients w.r.t. the
input scores, since the training loop backpropagates by hand.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import VAR_FLOOR, Gauss1d, jsd_gauss1d

__all__ = [
    "DIV_GUARD",
    "LogisticHead",
    "ce_logistic_grad",
    "ce_logistic_loss",
    "energy_histogram",
    "fit_energy_distribution",
    "jsd_discrimination_grad",
    "jsd_discrimination_loss",
    "nce_grad",
    "nce_loss",
    "total_loss",
    "write_energy_histogram_csv",
]

DIV_GUARD = 1e-8


@dataclass
class LogisticHead:
    """Scalar affine head mapping an energy score to a logit; its sigmoid
    output is the probability of being an inlier."""

    weight: float = 1.0
    bias: float = 0.0

    def __call__(self, scores: np.ndarray) -> np.ndarray:
        return self.weight * np.asarray(scores, dtype=float) + self.bias


def fit_energy_distribution(scores) -> Gauss1d:
    """Population mean/variance of a score list, variance floored (by
    :class:`Gauss1d`)."""
    s = np.asarray(scores, dtype=float)
    if s.size == 0:
        raise ValueError("fit_energy_distribution: empty score list")
    mu = float(s.mean())
    var = float(((s - mu) ** 2).mean())
    return Gauss1d(mu=mu, var=var)


def jsd_discrimination_loss(id_scores, ood_scores) -> float:
    """Jensen-Shannon divergence between the fitted score distributions."""
    if len(id_scores) == 0 or len(ood_scores) == 0:
        raise ValueError("jsd_discrimination_loss: empty score list")
    return jsd_gauss1d(fit_energy_distribution(id_scores), fit_energy_distribution(ood_scores))


def jsd_discrimination_grad(id_scores, ood_scores) -> tuple[float, np.ndarray, np.ndarray]:
    """Loss value plus analytic d(loss)/d(score) for both lists.

    The divergence is a smooth function of the four batch moments; the
    chain rule through population mean/variance gives per-score gradients.
    Floored variances contribute zero gradient (the floor is flat).
    """
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    if e.size == 0 or f.size == 0:
        raise ValueError("jsd_discrimination_grad: empty score list")
    b1, b2 = e.size, f.size
    # a diverging network's scores overflow here; training names the non-finite loss
    with np.errstate(over="ignore", invalid="ignore"):
        # ``sum() / n`` is numpy's ``mean()``: the same add.reduce, the same division
        mu_p = e.sum() / b1
        dev_p = e - mu_p
        vp_raw = float((dev_p**2).sum() / b1)
        mu_q = f.sum() / b2
        dev_q = f - mu_q
        vq_raw = float((dev_q**2).sum() / b2)
        vp = max(vp_raw, VAR_FLOOR)
        vq = max(vq_raw, VAR_FLOOR)

        mu_m = 0.5 * (mu_p + mu_q)
        vm_raw = 0.5 * (vp + vq) + 0.25 * (mu_p - mu_q) ** 2
        vm = max(vm_raw, VAR_FLOOR)

        loss = jsd_gauss1d(Gauss1d(mu_p, vp), Gauss1d(mu_q, vq))

        # d(K1+K2)/d(mu_m) and /d(vm)
        g_mu_m = -(mu_p - mu_m) / vm - (mu_q - mu_m) / vm
        g_vm = 1.0 / vm - (vp + (mu_p - mu_m) ** 2 + vq + (mu_q - mu_m) ** 2) / (2.0 * vm**2)
        vm_active = 1.0 if vm_raw > VAR_FLOOR else 0.0

        d_mu_p = 0.5 * ((mu_p - mu_m) / vm + 0.5 * g_mu_m + 0.5 * (mu_p - mu_q) * g_vm * vm_active)
        d_mu_q = 0.5 * ((mu_q - mu_m) / vm + 0.5 * g_mu_m - 0.5 * (mu_p - mu_q) * g_vm * vm_active)
        d_vp = 0.5 * (-0.5 / vp + 0.5 / vm + 0.5 * g_vm * vm_active)
        d_vq = 0.5 * (-0.5 / vq + 0.5 / vm + 0.5 * g_vm * vm_active)

        vp_active = 1.0 if vp_raw > VAR_FLOOR else 0.0
        vq_active = 1.0 if vq_raw > VAR_FLOOR else 0.0
        # d_mu / b + d_v * 2 (x - mu) / b * active, in place on the deviations
        for dev, d_mu, d_v, b, active in ((dev_p, d_mu_p, d_vp, b1, vp_active),
                                          (dev_q, d_mu_q, d_vq, b2, vq_active)):
            np.multiply(d_v * 2.0, dev, out=dev)
            dev /= b
            dev *= active
            np.add(d_mu / b, dev, out=dev)
    return float(loss), dev_p, dev_q


def total_loss(cls: float, dis: float, beta: float) -> float:
    """Classification term plus ``beta`` times the guarded reciprocal of the
    discrimination divergence (large divergence => small penalty)."""
    if dis < 0:
        raise ValueError(f"total_loss: discrimination term must be >= 0, got {dis}")
    return float(cls + beta / (dis + DIV_GUARD))


# ---- ablation losses ---------------------------------------------------------

def _softplus(x: np.ndarray) -> np.ndarray:
    # log(1 + e^x), overflow-safe
    return np.logaddexp(0.0, x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def ce_logistic_loss(id_scores, ood_scores, head: LogisticHead) -> float:
    """Binary cross entropy on sigmoid(head(score)): inliers labeled 1,
    virtual outliers 0, averaged over the concatenation."""
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    if e.size == 0 or f.size == 0:
        raise ValueError("ce_logistic_loss: empty score list")
    return float((_softplus(-head(e)).sum() + _softplus(head(f)).sum()) / (e.size + f.size))


def ce_logistic_grad(
    id_scores, ood_scores, head: LogisticHead
) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """Loss plus gradients w.r.t. scores and the head parameters."""
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    loss = ce_logistic_loss(e, f, head)
    n = e.size + f.size
    dh_id = (_sigmoid(head(e)) - 1.0) / n
    dh_ood = _sigmoid(head(f)) / n
    d_id = head.weight * dh_id
    d_ood = head.weight * dh_ood
    d_w = float(dh_id @ e + dh_ood @ f)
    d_b = float(dh_id.sum() + dh_ood.sum())
    return loss, d_id, d_ood, d_w, d_b


def nce_loss(id_scores, ood_scores, head: LogisticHead, temperature: float) -> float:
    """Contrastive loss: each inlier must prefer itself over every virtual
    outlier under a similarity of minus the absolute head-logit gap over
    ``temperature``; mean over inliers."""
    if temperature <= 0:
        raise ValueError(f"nce_loss: temperature must be > 0, got {temperature}")
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    if e.size == 0 or f.size == 0:
        raise ValueError("nce_loss: empty score list")
    h_id = head(e)
    h_ood = head(f)
    a = np.exp(-np.abs(h_id[:, None] - h_ood[None, :]) / temperature)
    return float(np.log1p(a.sum(axis=1)).mean())


def nce_grad(
    id_scores, ood_scores, head: LogisticHead, temperature: float
) -> tuple[float, np.ndarray, np.ndarray, float, float]:
    """NCE loss plus analytic gradients w.r.t. scores and head parameters."""
    if temperature <= 0:
        raise ValueError(f"nce_grad: temperature must be > 0, got {temperature}")
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    h_id = head(e)
    h_ood = head(f)
    delta = h_id[:, None] - h_ood[None, :]
    a = np.exp(-np.abs(delta) / temperature)
    z = 1.0 + a.sum(axis=1)
    loss = float(np.log(z).mean())
    # d l_i / d h = -sign(delta)/T * a/z for h_i, opposite sign for h_j
    w_ij = (a / z[:, None]) * (-np.sign(delta) / temperature)
    b1 = e.size
    dh_id = w_ij.sum(axis=1) / b1
    dh_ood = -w_ij.sum(axis=0) / b1
    d_id = head.weight * dh_id
    d_ood = head.weight * dh_ood
    d_w = float(dh_id @ e + dh_ood @ f)
    d_b = float(dh_id.sum() + dh_ood.sum())
    return loss, d_id, d_ood, d_w, d_b


# ---- reporting ---------------------------------------------------------------

def energy_histogram(
    id_scores, ood_scores, virtual_scores, n_bins: int
) -> list[tuple[float, float, int, int, int]]:
    """Uniform binning of the three score populations over their joint
    range; rows of (bin_left, bin_right, count_id, count_ood, count_virtual)."""
    groups = [np.asarray(s, dtype=float) for s in (id_scores, ood_scores, virtual_scores)]
    joined = np.concatenate([g for g in groups if g.size]) if any(g.size for g in groups) else np.zeros(1)
    lo, hi = float(joined.min()), float(joined.max())
    if lo == hi:
        lo, hi = lo - 0.5, hi + 0.5
    edges = np.linspace(lo, hi, n_bins + 1)
    counts = [np.histogram(g, bins=edges)[0] if g.size else np.zeros(n_bins, dtype=int) for g in groups]
    return [
        (float(edges[i]), float(edges[i + 1]), int(counts[0][i]), int(counts[1][i]), int(counts[2][i]))
        for i in range(n_bins)
    ]


def write_energy_histogram_csv(path, id_scores, ood_scores, virtual_scores, n_bins: int) -> None:
    rows = energy_histogram(id_scores, ood_scores, virtual_scores, n_bins)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("bin_left,bin_right,count_id,count_ood,count_virtual\n")
        for left, right, c_id, c_ood, c_v in rows:
            fh.write("%.17g,%.17g,%d,%d,%d\n" % (left, right, c_id, c_ood, c_v))
