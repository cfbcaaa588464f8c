"""Central finite-difference gradient oracle shared by the unit and
acceptance tests."""

import numpy as np

from ares.losses import LogisticHead, ce_logistic_loss, jsd_discrimination_loss, nce_loss, total_loss
from ares.network import cross_entropy_batch, energy_score_batch


def compute_batch_loss(net, xb, yb, cfg, v_pts=None) -> float:
    """The training loss of one batch, value only (no gradients): the
    function the oracle differentiates. ``v_pts=None`` means a warmup batch
    (classification term only)."""
    cache = net.forward(np.asarray(xb, dtype=float))
    cls_loss, _ = cross_entropy_batch(cache.logits, yb)
    if v_pts is None:
        return cls_loss
    e_id = energy_score_batch(net, cache.logits)
    e_v = energy_score_batch(net, np.asarray(v_pts, dtype=float) @ net.cls_w + net.cls_b)
    if cfg.loss_kind == "jsd":
        return total_loss(cls_loss, jsd_discrimination_loss(e_id, e_v), cfg.beta)
    head = LogisticHead(weight=float(net.head_w), bias=float(net.head_b))
    if cfg.loss_kind == "ce":
        return cls_loss + cfg.beta * ce_logistic_loss(e_id, e_v, head)
    return cls_loss + cfg.beta * nce_loss(e_id, e_v, head, cfg.nce_temperature)


def finite_difference_grads(net, loss_fn, h: float = 1e-5) -> dict:
    """Central differences of ``loss_fn()`` w.r.t. every parameter of ``net``."""
    grads = {}
    for name, p in net.params().items():
        g = np.zeros_like(p)
        flat_p = p.reshape(-1) if p.ndim else p
        flat_g = g.reshape(-1) if g.ndim else g
        n = flat_p.size if p.ndim else 1
        for i in range(n):
            if p.ndim:
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = loss_fn()
                flat_p[i] = orig - h
                down = loss_fn()
                flat_p[i] = orig
                flat_g[i] = (up - down) / (2 * h)
            else:
                orig = float(p)
                p[...] = orig + h
                up = loss_fn()
                p[...] = orig - h
                down = loss_fn()
                p[...] = orig
                g[...] = (up - down) / (2 * h)
        grads[name] = g
    return grads


def max_relative_error(analytic: dict, numeric: dict, floor: float = 1e-6) -> float:
    """max over parameters of |a - f| / max(|a|, |f|, floor)."""
    worst = 0.0
    for name in analytic:
        a = np.asarray(analytic[name], dtype=float)
        f = np.asarray(numeric[name], dtype=float)
        denom = np.maximum(np.maximum(np.abs(a), np.abs(f)), floor)
        worst = max(worst, float(np.max(np.abs(a - f) / denom)))
    return worst
