"""The end-to-end training loop: surrogate generation up front, a
classification-only warmup phase, then joint classification + score
repulsion with per-epoch candidate synthesis, plain SGD, and a cosine
learning-rate schedule. All randomness flows from ``cfg.seed`` through
named child streams, so a run is bitwise reproducible."""

from __future__ import annotations

import copy
import os
import tempfile
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .datagen import DataBundle, LabeledDataset
from .errors import ConfigError, SynthesisUnderflowError, TrainingDiverged
from .escape import EscapeConfig, escape_dataset
from .losses import (
    DIV_GUARD,
    LogisticHead,
    ce_logistic_grad,
    ce_logistic_loss,
    jsd_discrimination_grad,
    jsd_discrimination_loss,
    nce_grad,
    nce_loss,
    total_loss,
)
from .network import (
    GradientTape,
    MlpNetwork,
    cross_entropy_batch,
    energy_gradients,
    energy_score_batch,
    save_checkpoint,
)
from .numerics import fit_gaussian
from .rng import Rng
from .synthesis import expand_features, sample_virtual_outliers

__all__ = ["EpochRecord", "TrainConfig", "TrainLog", "cosine_lr", "sgd_step", "train"]

LOSS_KINDS = ("jsd", "ce", "nce")


@dataclass
class TrainConfig:
    total_epochs: int = 500
    pretrain_epochs: int = 200
    batch_size: int = 128
    lr_start: float = 0.1
    lr_end: float = 1e-6
    beta: float = 0.1
    alpha1: float = 3.0
    alpha2: float = 2.0
    m_candidates: int = 10000
    t_rank: int = 128
    seed: int = 0
    loss_kind: str = "jsd"
    # stage mask (ablations disable individual stages)
    escape: bool = True
    expansion: bool = True
    estimation: bool = True
    # escape details
    max_iters: int = 4
    p_mix: float = 0.9
    beta_warmup_epochs: int = 10  # per-step linear ramp into the joint phase; 0 = off
    # architecture
    hidden_dims: tuple = (64, 64)
    feature_dim: int = 16
    # misc numerics
    nce_temperature: float = 0.1
    ridge_scale: float = 1e-6
    debug_gradcheck: bool = False  # spot-check gradients every 10th step

    def validate(self) -> None:
        if self.pretrain_epochs > self.total_epochs:
            raise ConfigError(
                f"pretrain_epochs ({self.pretrain_epochs}) must not exceed "
                f"total_epochs ({self.total_epochs})"
            )
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (self.lr_start >= self.lr_end > 0):
            raise ConfigError(
                f"need lr_start >= lr_end > 0, got {self.lr_start}, {self.lr_end}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        if self.m_candidates < 1 or self.t_rank < 1:
            raise ConfigError("m_candidates and t_rank must be >= 1")
        if self.beta_warmup_epochs < 0:
            raise ConfigError("beta_warmup_epochs must be >= 0")

    def replace(self, **kw) -> "TrainConfig":
        vals = {f.name: getattr(self, f.name) for f in fields(self)}
        vals.update(kw)
        return TrainConfig(**vals)


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    cls_loss: float
    dis_loss: float
    total_loss: float
    train_accuracy: float
    escape_s: float = 0.0
    expansion_s: float = 0.0
    estimation_s: float = 0.0
    divergence_s: float = 0.0


@dataclass
class TrainLog:
    records: list = field(default_factory=list)

    DETERMINISTIC_COLUMNS = ("epoch", "lr", "cls_loss", "dis_loss", "total_loss", "train_accuracy")
    TIMING_COLUMNS = ("epoch", "escape_s", "expansion_s", "estimation_s", "divergence_s")

    def append(self, rec: EpochRecord) -> None:
        self.records.append(rec)

    def stage_totals(self) -> dict[str, float]:
        return {
            stage: float(sum(getattr(r, f"{stage}_s") for r in self.records))
            for stage in ("escape", "expansion", "estimation", "divergence")
        }

    def write_csv(self, path) -> None:
        """Deterministic per-epoch columns only (no wall-clock data)."""
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.DETERMINISTIC_COLUMNS) + "\n")
            for r in self.records:
                fh.write(
                    "%d,%.17g,%.17g,%.17g,%.17g,%.17g\n"
                    % (r.epoch, r.lr, r.cls_loss, r.dis_loss, r.total_loss, r.train_accuracy)
                )

    def write_timings_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.TIMING_COLUMNS) + "\n")
            for r in self.records:
                fh.write(
                    "%d,%.6f,%.6f,%.6f,%.6f\n"
                    % (r.epoch, r.escape_s, r.expansion_s, r.estimation_s, r.divergence_s)
                )


def cosine_lr(step: int, total_steps: int, lr_start: float, lr_end: float) -> float:
    """Cosine interpolation from ``lr_start`` (step 0) to ``lr_end``
    (step == total_steps)."""
    if total_steps < 1:
        raise ValueError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + np.cos(np.pi * step / total_steps))


def sgd_step(net: MlpNetwork, tape: GradientTape, lr: float) -> None:
    """theta <- theta - lr * grad for every parameter; zeroes the tape."""
    for name, p in net.params().items():
        p -= lr * tape.grads[name]
    net.version += 1
    tape.zero()


def _checkpoint_of(net_snapshot: MlpNetwork, epoch: int, checkpoint_dir) -> str:
    if checkpoint_dir is None:
        fd, path = tempfile.mkstemp(prefix="last_good_", suffix=".json")
        os.close(fd)
    else:
        path = os.path.join(checkpoint_dir, "last_good_checkpoint.json")
    save_checkpoint(net_snapshot, path, epoch=epoch)
    return path


class _SynthesisState:
    """Per-epoch candidate pool and fitted region model."""

    def __init__(self, cfg: TrainConfig, feats: np.ndarray, expand_rng, eps_rng):
        pool = feats
        if cfg.expansion:
            pool = expand_features(feats, cfg.alpha2, feats.shape[0], expand_rng).points
        self.model = None
        self.candidates = pool
        if cfg.estimation:
            self.model = fit_gaussian(pool, ridge_scale=cfg.ridge_scale)
            if len(pool) > cfg.m_candidates:
                keep = np.sort(eps_rng.choice(len(pool), size=cfg.m_candidates, replace=False))
                self.candidates = pool[keep]

    def draw_outliers(self, b_eff: int, eps_rng, context: str) -> np.ndarray:
        """Bottom-``b_eff`` virtual outliers (or a uniform draw when the
        estimation stage is masked off).

        Selection is the order statistic directly (ties resolved by
        candidate index), which stays well-defined even when densities tie
        at the threshold exactly.
        """
        cand = self.candidates
        if len(cand) < b_eff:
            raise SynthesisUnderflowError(requested=b_eff, available=len(cand), context=context)
        if self.model is None:
            idx = eps_rng.choice(len(cand), size=b_eff, replace=False)
            return cand[idx]
        return sample_virtual_outliers(cand, self.model, np.inf, count=b_eff).points


def divergence_terms(
    net: MlpNetwork,
    cache,
    cls_loss: float,
    dlogits: np.ndarray,
    v_pts: np.ndarray,
    cfg: TrainConfig,
    tape: GradientTape,
):
    """Discrimination term of one joint batch.

    Computes the energy scores of the batch and of the virtual outliers,
    the configured discrimination loss, and its gradient contributions:
    returns ``(dis, batch_total, dlogits)`` where ``dlogits`` now includes
    the divergence path and head/energy/classifier gradients for the
    outlier path have been accumulated on the tape.
    """
    logits_v = v_pts @ net.cls_w + net.cls_b
    e_id, dedz_id = energy_gradients(net, cache.logits)
    e_v, dedz_v = energy_gradients(net, logits_v)

    if cfg.loss_kind == "jsd":
        dis, de_id, de_v = jsd_discrimination_grad(e_id, e_v)
        batch_total = total_loss(cls_loss, dis, cfg.beta)
        scale = -cfg.beta / (dis + DIV_GUARD) ** 2
    else:
        head = LogisticHead(weight=float(net.head_w), bias=float(net.head_b))
        if cfg.loss_kind == "ce":
            dis, de_id, de_v, d_hw, d_hb = ce_logistic_grad(e_id, e_v, head)
        else:
            dis, de_id, de_v, d_hw, d_hb = nce_grad(e_id, e_v, head, cfg.nce_temperature)
        batch_total = cls_loss + cfg.beta * dis
        scale = cfg.beta
        tape.add("head_w", scale * d_hw)
        tape.add("head_b", scale * d_hb)

    dlogits = dlogits + (scale * de_id)[:, None] * dedz_id
    dlogits_v = (scale * de_v)[:, None] * dedz_v
    tape.add("energy_u", (scale * de_id) @ dedz_id + (scale * de_v) @ dedz_v)
    tape.add("cls_w", v_pts.T @ dlogits_v)
    tape.add("cls_b", dlogits_v.sum(axis=0))
    return dis, batch_total, dlogits


def compute_batch_gradients(
    net: MlpNetwork, xb, yb, cfg: TrainConfig, v_pts=None
) -> tuple[float, float, float, GradientTape]:
    """One full forward/backward on a batch (fresh tape); the exact code
    path the training loop takes. ``v_pts=None`` means a warmup batch
    (classification term only). Returns (cls, dis, total, tape)."""
    tape = GradientTape(net)
    cache = net.forward(np.asarray(xb, dtype=float))
    cls_loss, dlogits = cross_entropy_batch(cache.logits, yb)
    dis = 0.0
    batch_total = cls_loss
    if v_pts is not None:
        dis, batch_total, dlogits = divergence_terms(
            net, cache, cls_loss, dlogits, np.asarray(v_pts, dtype=float), cfg, tape
        )
    net.backward(cache, tape, dlogits)
    return cls_loss, dis, batch_total, tape


def compute_batch_loss(net: MlpNetwork, xb, yb, cfg: TrainConfig, v_pts=None) -> float:
    """Loss value only (no gradients); the finite-difference oracle in the
    test suite drives this."""
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


def _debug_gradient_spot_check(net, tape, xb, yb, cfg, v_pts, h=1e-5, tol=1e-3):
    """Central-difference check of a few coordinates per parameter tensor.

    Coordinates whose gradient sits below the finite-difference noise floor
    (cancellation error ~ eps * |loss| / h) are skipped; they cannot be
    resolved numerically.
    """
    def loss_fn():
        return compute_batch_loss(net, xb, yb, cfg, v_pts=v_pts)

    noise_floor = 1e-5 * max(1.0, abs(loss_fn()))
    for name, p in net.params().items():
        flat_p = p.reshape(-1) if p.ndim else p
        acc = tape.grads[name].reshape(-1) if p.ndim else tape.grads[name]
        n = flat_p.size if p.ndim else 1
        for i in sorted({0, n // 2, n - 1}):
            if p.ndim:
                orig = flat_p[i]
                flat_p[i] = orig + h
                up = loss_fn()
                flat_p[i] = orig - h
                down = loss_fn()
                flat_p[i] = orig
                analytic = float(acc[i])
            else:
                orig = float(p)
                p[...] = orig + h
                up = loss_fn()
                p[...] = orig - h
                down = loss_fn()
                p[...] = orig
                analytic = float(acc)
            fd = (up - down) / (2 * h)
            if max(abs(analytic), abs(fd)) < noise_floor:
                continue
            rel = abs(analytic - fd) / max(abs(analytic), abs(fd), noise_floor)
            if rel > tol:
                raise RuntimeError(
                    f"debug gradient check failed at {name}[{i}]: "
                    f"analytic {analytic:.6e}, finite-difference {fd:.6e}"
                )


def train(
    cfg: TrainConfig,
    data: DataBundle,
    checkpoint_dir=None,
    resume: tuple[MlpNetwork, int] | None = None,
    progress=None,
) -> tuple[MlpNetwork, TrainLog]:
    """Run the full pipeline on ``data`` and return the trained network and
    per-epoch log.

    ``resume`` continues a run from ``(net, start_epoch)``. ``progress`` is
    an optional callable receiving one machine-parseable line per epoch.
    Raises :class:`TrainingDiverged` (with a last-good checkpoint path) if
    the loss goes non-finite, and propagates synthesis underflows with
    epoch/batch context.
    """
    cfg.validate()
    root = Rng(cfg.seed)
    d_in = data.id_train.dim
    k = data.id_train.n_classes

    if resume is not None:
        net, start_epoch = resume
    else:
        net = MlpNetwork(d_in, cfg.hidden_dims, cfg.feature_dim, k, root.child("init"))
        start_epoch = 0

    tape = GradientTape(net)
    log = TrainLog()
    ecfg = EscapeConfig(
        alpha1=cfg.alpha1,
        max_iters=cfg.max_iters,
        p_mix=cfg.p_mix,
    )

    escape_s0 = 0.0
    if cfg.escape:
        t0 = time.perf_counter()
        dstar = escape_dataset(data.id_train, data.aux, ecfg, root.child("escape"))
        escape_s0 = time.perf_counter() - t0
    else:
        dstar = LabeledDataset(x=data.id_train.x.copy(), y=data.id_train.y.copy())

    last_good = copy.deepcopy(net)
    last_good_epoch = start_epoch
    anchor_feats = None

    for epoch in range(start_epoch, cfg.total_epochs):
        lr = cosine_lr(epoch, cfg.total_epochs, cfg.lr_start, cfg.lr_end)
        esc_s = escape_s0 if epoch == start_epoch else 0.0
        order = root.child("shuffle", epoch).permutation(len(dstar))
        joint = epoch >= cfg.pretrain_epochs and cfg.beta != 0.0
        eps_rng = root.child("epsilon", epoch)
        steps_per_epoch = (len(dstar) + cfg.batch_size - 1) // cfg.batch_size
        warmup_steps = cfg.beta_warmup_epochs * steps_per_epoch

        exp_s = est_s = div_s = 0.0
        synth = None
        if joint:
            t0 = time.perf_counter()
            # the features are snapshotted once at joint start; fresh
            # mixtures are still drawn from the snapshot every epoch
            if anchor_feats is None:
                anchor_feats = net.forward(dstar.x).feats
            t1 = time.perf_counter()
            synth = _SynthesisState(cfg, anchor_feats, root.child("expand", epoch), eps_rng)
            t2 = time.perf_counter()
            exp_s += t1 - t0
            # mixing happens inside _SynthesisState; attribute the fit separately
            if cfg.estimation:
                est_s += t2 - t1
            else:
                exp_s += t2 - t1

        cls_sum = dis_sum = tot_sum = 0.0
        n_batches = n_joint = 0
        for b, lo in enumerate(range(0, len(order), cfg.batch_size)):
            idx = order[lo : lo + cfg.batch_size]
            cache = net.forward(dstar.x[idx])
            cls_loss, dlogits = cross_entropy_batch(cache.logits, dstar.y[idx])
            batch_total = cls_loss
            check_cfg, check_v = cfg, None

            if joint:
                t0 = time.perf_counter()
                v_pts = synth.draw_outliers(
                    len(idx), eps_rng, context=f"epoch {epoch}, batch {b}"
                )
                est_s += time.perf_counter() - t0

                t0 = time.perf_counter()
                # ramp the discrimination weight over the first joint steps;
                # the raw reciprocal gradient at near-zero divergence is
                # otherwise large enough to destroy the warmed-up network
                step_cfg = cfg
                if warmup_steps:
                    done = (epoch - cfg.pretrain_epochs) * steps_per_epoch + b
                    if done + 1 < warmup_steps:
                        step_cfg = cfg.replace(beta=cfg.beta * (done + 1) / warmup_steps)
                dis, batch_total, dlogits = divergence_terms(
                    net, cache, cls_loss, dlogits, v_pts, step_cfg, tape
                )
                check_cfg, check_v = step_cfg, v_pts
                dis_sum += dis
                n_joint += 1
                div_s += time.perf_counter() - t0

            if not np.isfinite(batch_total):
                path = _checkpoint_of(last_good, last_good_epoch, checkpoint_dir)
                raise TrainingDiverged(epoch=epoch, batch=b, checkpoint_path=path)

            net.backward(cache, tape, dlogits)
            if cfg.debug_gradcheck and (epoch * steps_per_epoch + b) % 10 == 0:
                _debug_gradient_spot_check(net, tape, dstar.x[idx], dstar.y[idx], check_cfg, check_v)
            sgd_step(net, tape, lr)
            cls_sum += cls_loss
            tot_sum += batch_total
            n_batches += 1

        accuracy = float((net.predict(data.id_train.x) == data.id_train.y).mean())
        rec = EpochRecord(
            epoch=epoch,
            lr=float(lr),
            cls_loss=cls_sum / n_batches,
            dis_loss=dis_sum / n_joint if n_joint else 0.0,
            total_loss=tot_sum / n_batches,
            train_accuracy=accuracy,
            escape_s=esc_s,
            expansion_s=exp_s,
            estimation_s=est_s,
            divergence_s=div_s,
        )
        log.append(rec)
        if progress is not None:
            progress(
                f"epoch={rec.epoch} cls={rec.cls_loss:.6g} dis={rec.dis_loss:.6g} "
                f"lr={rec.lr:.6g} acc={rec.train_accuracy:.4f}"
            )
        last_good = copy.deepcopy(net)
        last_good_epoch = epoch + 1

    return net, log
