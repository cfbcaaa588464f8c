"""The end-to-end training loop: surrogate generation up front, a
classification-only warmup phase, then joint classification + score
repulsion with per-epoch candidate synthesis, plain SGD, and a cosine
learning-rate schedule. All randomness flows from ``cfg.seed`` through
named child streams, so a run is bitwise reproducible.

Training runs on one BLAS thread, on the calling thread. A run allocates
one block workspace (at most one block): the joint-start features, and
the accuracy pass that scores the training set after each epoch, forward
through it. A caller that does not read the accuracy (the ablation suite)
trains with ``accuracy=False``: no pass runs, and every other number of
the run is unchanged."""

from __future__ import annotations

import ctypes
import math
import time
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .datagen import DataBundle, LabeledDataset
from .errors import ConfigError, TrainingDiverged
from .escape import EscapeConfig, escape_dataset
from .losses import (
    DIV_GUARD,
    LogisticHead,
    ce_logistic_grad,
    jsd_discrimination_grad,
    nce_grad,
    total_loss,
)
from .network import (
    GradientTape,
    MlpNetwork,
    RunState,
    cross_entropy_batch,
    energy_gradients,
)
from .numerics import RIDGE_SCALE, fit_gaussian
from .rng import Rng
from .synthesis import expand_features, sample_virtual_outliers

__all__ = ["EpochRecord", "TrainConfig", "TrainLog", "check_resume", "cosine_lr", "sgd_step",
           "train"]

LOSS_KINDS = ("jsd", "ce", "nce")

# ``step`` is the warmup forwards and cross entropy, the backward passes and SGD
# updates, shuffling and bookkeeping; ``accuracy`` is the per-epoch accuracy pass
STAGES = ("escape", "expansion", "estimation", "divergence", "step", "accuracy")
_ESCAPE, _EXPANSION, _ESTIMATION, _DIVERGENCE, _STEP, _ACCURACY = STAGES


@dataclass(frozen=True)
class TrainConfig:
    """Training settings (the ``[train]`` config section, with ``[escape]``
    nested as ``escape_cfg``). Validated on construction."""

    total_epochs: int = 500
    pretrain_epochs: int = 200
    batch_size: int = 128
    lr_start: float = 0.1
    lr_end: float = 1e-6
    beta: float = 0.1
    alpha2: float = 2.0
    seed: int = 0
    loss_kind: str = "jsd"
    # stage mask (ablations disable individual stages)
    escape: bool = True
    expansion: bool = True
    estimation: bool = True
    escape_cfg: EscapeConfig = field(default_factory=EscapeConfig)  # the escape stage's settings
    beta_warmup_epochs: int = 10  # per-step linear ramp into the joint phase; 0 = off
    # architecture
    hidden_dims: tuple = (64, 64)
    feature_dim: int = 16
    # misc numerics
    nce_temperature: float = 0.1
    ridge_scale: float = RIDGE_SCALE

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        if self.pretrain_epochs < 0:
            raise ConfigError(f"pretrain_epochs must be >= 0, got {self.pretrain_epochs}")
        if self.pretrain_epochs > self.total_epochs:
            raise ConfigError(
                f"pretrain_epochs ({self.pretrain_epochs}) must not exceed "
                f"total_epochs ({self.total_epochs})"
            )
        if self.batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {self.batch_size}")
        if not (self.lr_start >= self.lr_end > 0):
            raise ConfigError(
                f"lr_start, lr_end: need lr_start >= lr_end > 0, got {self.lr_start}, {self.lr_end}"
            )
        if self.loss_kind not in LOSS_KINDS:
            raise ConfigError(f"loss_kind must be one of {LOSS_KINDS}, got {self.loss_kind!r}")
        for name in ("lr_start", "alpha2", "feature_dim", "nce_temperature", "ridge_scale"):
            if not 0 < getattr(self, name) < math.inf:
                raise ConfigError(f"{name} must be finite and > 0, got {getattr(self, name)}")
        if not all(h > 0 for h in self.hidden_dims):
            raise ConfigError(f"hidden_dims must be positive, got {self.hidden_dims}")
        if not 0 <= self.beta < math.inf:  # 0 is the classification-only baseline
            raise ConfigError(f"beta must be finite and >= 0, got {self.beta}")
        if self.beta_warmup_epochs < 0:
            raise ConfigError("beta_warmup_epochs must be >= 0")
        if self.seed < 0:  # np.random.SeedSequence, under Rng, takes no negative seed
            raise ConfigError(f"seed must be >= 0, got {self.seed}")

    def replace(self, **kw) -> "TrainConfig":
        return replace(self, **kw)


# The settings the loop first reads at epoch ``pretrain_epochs``. Runs whose
# configs differ only here train the same escape stage and warmup, bit for bit.
_JOINT_ONLY = ("expansion", "estimation", "loss_kind", "beta", "alpha2", "beta_warmup_epochs",
               "nce_temperature", "ridge_scale")


def _warmup_key(cfg: TrainConfig) -> TrainConfig:
    """``cfg`` with its joint-only settings at their defaults: runs with equal
    keys share the warmup prefix that :func:`_warmup` trains."""
    return cfg.replace(**{f.name: f.default for f in fields(TrainConfig) if f.name in _JOINT_ONLY})


@dataclass
class EpochRecord:
    epoch: int
    lr: float
    cls_loss: float
    dis_loss: float
    total_loss: float
    train_accuracy: float
    times: dict = field(default_factory=lambda: dict.fromkeys(STAGES, 0.0))  # seconds per stage


@dataclass
class TrainLog:
    """Per-epoch records and the final run state. The records' stage times
    add up to the wall time of the ``train()`` call."""

    records: list = field(default_factory=list)
    state: RunState | None = None  # the run state after the last epoch (what a checkpoint stores)

    DETERMINISTIC_COLUMNS = ("epoch", "lr", "cls_loss", "dis_loss", "total_loss", "train_accuracy")
    TIMING_COLUMNS = ("epoch", *(f"{stage}_s" for stage in STAGES))

    def stage_totals(self) -> dict[str, float]:
        return {stage: float(sum(r.times[stage] for r in self.records)) for stage in STAGES}

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
                fh.write(",".join([str(r.epoch)] + ["%.6f" % r.times[stage] for stage in STAGES]) + "\n")


def cosine_lr(step: int, total_steps: int, lr_start: float, lr_end: float) -> float:
    """Cosine interpolation from ``lr_start`` (step 0) to ``lr_end``
    (step == total_steps)."""
    if total_steps < 1:
        raise ValueError(f"cosine_lr: total_steps must be >= 1, got {total_steps}")
    if not 0 <= step <= total_steps:
        raise ValueError(f"cosine_lr: step {step} outside [0, {total_steps}]")
    return lr_end + 0.5 * (lr_start - lr_end) * (1.0 + np.cos(np.pi * step / total_steps))


def sgd_step(net: MlpNetwork, tape: GradientTape, lr: float) -> None:
    """theta <- theta - lr * grad, as one update of the whole parameter
    vector; zeroes the tape."""
    np.multiply(lr, tape.flat, out=tape.flat)
    net.flat -= tape.flat
    net.version += 1
    tape.zero()


def check_resume(state: RunState, cfg: TrainConfig, data: DataBundle, source="resume state"):
    """Raise a :class:`ConfigError` naming every architecture field in which
    ``state`` differs from the network ``cfg`` and ``data`` ask for, so a
    resumed run never trains a network other than the one configured, and
    naming an epoch outside the run's ``[0, total_epochs]``."""
    arch = state.arch
    d_in, k = data.id_train.dim, data.id_train.n_classes
    wrong = []
    if arch["input_dim"] != d_in:
        wrong.append(f"input_dim: {arch['input_dim']}-d inputs but data is {d_in}-d")
    hidden, want_hidden = list(arch["hidden_dims"]), list(cfg.hidden_dims)
    if hidden != want_hidden:
        wrong.append(f"hidden_dims: {hidden} but config asks for {want_hidden}")
    if arch["feature_dim"] != cfg.feature_dim:
        wrong.append(f"feature_dim: {arch['feature_dim']} but config asks for {cfg.feature_dim}")
    if arch["n_classes"] != k:
        wrong.append(f"n_classes: {arch['n_classes']} classes but data has {k}")
    if not 0 <= state.epoch <= cfg.total_epochs:
        wrong.append(f"epoch: {state.epoch} is outside [0, total_epochs = {cfg.total_epochs}]")
    if wrong:
        raise ConfigError(f"{source} does not fit this run: " + "; ".join(wrong))


class _Clock:
    """Books each interval of the calling thread to the one of ``STAGES``
    that the last :meth:`switch` or :meth:`take` named. It starts on
    ``step``, with ``totals`` (a prefix's untaken ones) already booked."""

    def __init__(self, totals: dict | None):
        self.totals = dict(totals or dict.fromkeys(STAGES, 0.0))
        self.stage, self.since = _STEP, time.perf_counter()

    def switch(self, stage: str) -> None:
        now = time.perf_counter()
        self.totals[self.stage] += now - self.since
        self.stage, self.since = stage, now

    def take(self) -> dict:
        """The totals booked since the last take; the clock books on from zero, on ``step``."""
        self.switch(_STEP)
        taken, self.totals = self.totals, dict.fromkeys(STAGES, 0.0)
        return taken


class _SynthesisState:
    """Candidate pools and fitted region models of a run's joint epochs,
    drawn from ``feats``, the features of the joint-start network. Each
    joint epoch builds its own at its start, on the epoch's own streams
    (:meth:`start_epoch`). A pool holds one candidate per training point, so
    no batch asks for more than it has. Without expansion the pool is
    ``feats`` itself, fixed for the run, so one fit and ranking serve every
    epoch."""

    def __init__(self, cfg: TrainConfig, feats: np.ndarray):
        self.cfg, self.feats = cfg, feats
        self.ranked = None

    def start_epoch(self, epoch: int, clock: _Clock) -> None:
        """Build epoch ``epoch``'s pool and, with estimation, its ranking.
        The caller's ``clock`` is on ``expansion`` for the mixing; the fit
        and ranking go to ``estimation``."""
        cfg = self.cfg
        root = Rng(cfg.seed)
        self.eps_rng = root.child("epsilon", epoch)
        self.candidates = self.feats
        if cfg.expansion:
            self.candidates = expand_features(self.feats, cfg.alpha2, len(self.feats),
                                              root.child("expand", epoch))
        clock.switch(_ESTIMATION)
        if cfg.estimation and (cfg.expansion or self.ranked is None):
            # one class-agnostic Gaussian: real outliers scatter across the whole space
            model = fit_gaussian(self.candidates, ridge_scale=cfg.ridge_scale)
            # the pool and the model are fixed for the epoch, so every
            # batch's bottom-B is a prefix of this one ranking's first batch
            self.ranked = sample_virtual_outliers(self.candidates, model, count=cfg.batch_size)
        clock.switch(_STEP)

    def draw_outliers(self, b_eff: int) -> np.ndarray:
        """Bottom-``b_eff`` virtual outliers (or a uniform draw when the
        estimation stage is masked off).

        The bottom-``b_eff`` is a prefix of the epoch's (density, index)
        ranking, so it stays well-defined when densities tie.
        """
        if self.ranked is None:
            idx = self.eps_rng.choice(len(self.candidates), size=b_eff, replace=False)
            return self.candidates[idx]
        return self.ranked[:b_eff]


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
    returns ``(dis, batch_total, dlogits)`` where ``dlogits``, updated in
    place, now includes the divergence path and head/energy/classifier
    gradients for the outlier path have been accumulated on the tape.
    """
    energy_w = net.energy_w
    logits_v = v_pts @ net.cls_w
    logits_v += net.cls_b
    e_id, dedz_id = energy_gradients(energy_w, cache.logits)
    e_v, dedz_v = energy_gradients(energy_w, logits_v)
    grads = tape.grads

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
        grads["head_w"] += scale * d_hw
        grads["head_b"] += scale * d_hb

    c_id = scale * de_id
    c_v = scale * de_v
    grads["energy_u"] += c_id @ dedz_id + c_v @ dedz_v
    np.multiply(c_id[:, None], dedz_id, out=dedz_id)
    dlogits += dedz_id
    np.multiply(c_v[:, None], dedz_v, out=dedz_v)  # the gradient w.r.t. the outliers' logits
    grads["cls_w"] += v_pts.T @ dedz_v
    grads["cls_b"] += dedz_v.sum(axis=0)
    return dis, batch_total, dlogits


def batch_terms(net: MlpNetwork, xb, yb, cfg: TrainConfig, tape: GradientTape, v_pts=None):
    """Forward pass, cross entropy and, for a joint batch, the divergence
    terms of one batch under step config ``cfg``: the part of a training
    step before the backward pass. ``v_pts=None`` means a warmup batch
    (classification term only). The outlier-path gradients go on ``tape``;
    returns ``(cache, cls, dis, total, dlogits)`` for ``net.backward``."""
    cache = net.forward(xb)
    cls_loss, dlogits = cross_entropy_batch(cache.logits, yb)
    if v_pts is None:
        return cache, cls_loss, 0.0, cls_loss, dlogits
    dis, batch_total, dlogits = divergence_terms(
        net, cache, cls_loss, dlogits, np.asarray(v_pts, dtype=float), cfg, tape
    )
    return cache, cls_loss, dis, batch_total, dlogits


# ---- threads ----------------------------------------------------------------

_OPENBLAS = None  # (getter, setter) of the loaded OpenBLAS's thread count, () without one


def _openblas() -> tuple:
    """The thread-count getter and setter of the OpenBLAS numpy runs its
    matmuls on, looked up once; ``()`` when numpy links none or it lacks
    either. The symbols are looked up through numpy's own extension
    module, whose dependencies hold numpy's BLAS only: another OpenBLAS
    loaded in the process (scipy's, say) is not one of them."""
    global _OPENBLAS
    if _OPENBLAS is None:
        _OPENBLAS, lib = (), None
        try:
            from numpy._core import _multiarray_umath
        except ImportError:  # numpy < 2
            from numpy.core import _multiarray_umath
        try:
            lib = ctypes.CDLL(_multiarray_umath.__file__)
        except OSError:
            pass
        for symbol in ("openblas_{}", "openblas_{}64_", "scipy_openblas_{}64_", "scipy_openblas_{}"):
            get = getattr(lib, symbol.format("get_num_threads"), None)
            put = getattr(lib, symbol.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                _OPENBLAS = (get, put)
                break
    return _OPENBLAS


def _set_blas_threads(n: int) -> int | None:
    """Set the loaded OpenBLAS to ``n`` threads and return the count it had,
    to restore later; without an OpenBLAS getter and setter, leave BLAS
    alone and return None."""
    if not _openblas():
        return None
    get, put = _OPENBLAS
    before = get()
    put(n)
    return before


@dataclass(frozen=True)
class _Prefix(RunState):
    """The run state at the end of a warmup prefix (see :func:`_warmup`),
    with the training set the prefix trained on, escaped or not, and the
    stage times no epoch record holds yet. ``train(resume=...)`` takes that
    set as given instead of running the escape stage again."""

    escaped: LabeledDataset | None = None
    times: dict | None = None


def train(
    cfg: TrainConfig,
    data: DataBundle,
    resume: RunState | None = None,
    progress=None,
    accuracy: bool = True,
) -> tuple[MlpNetwork, TrainLog]:
    """Run the full pipeline on ``data`` and return the trained network and
    per-epoch log, whose ``state`` is the final run state.

    ``resume`` continues a run, exactly, from a :class:`RunState` whose
    architecture matches ``cfg`` and ``data`` (see :func:`check_resume`).
    ``progress`` is an optional callable receiving one machine-parseable
    line per epoch, in epoch order. Raises :class:`TrainingDiverged`, which
    carries the last good run state, if a loss goes non-finite; the lines
    of every finished epoch come first. The call writes no file: a caller
    that wants that state on disk saves ``err.state``.

    After each epoch, an accuracy pass scores the (unescaped) training set
    for the record's ``train_accuracy``. With ``accuracy=False`` no pass
    runs and every record's ``train_accuracy`` is NaN; every other column
    and every parameter are the same bits.

    The call caps OpenBLAS at one thread and restores the caller's count on
    return or raise.
    """
    return _train(cfg, data, cfg.total_epochs, accuracy, resume, progress)


def _warmup(cfg: TrainConfig, data: DataBundle) -> TrainLog:
    """The escape stage and the warmup epochs of a run of ``cfg``, which no
    setting in ``_JOINT_ONLY`` changes, without accuracy passes. The log's
    state is a :class:`_Prefix` at epoch ``pretrain_epochs``, from which
    ``train(resume=...)`` finishes the run of any config with the same
    :func:`_warmup_key`."""
    return _train(cfg, data, cfg.pretrain_epochs, False)[1]


def _train(cfg: TrainConfig, data: DataBundle, end: int, accuracy: bool,
           resume: RunState | None = None, progress=None) -> tuple[MlpNetwork, TrainLog]:
    """:func:`train`, stopped before epoch ``end``: the escape stage (unless
    ``resume`` is a :class:`_Prefix`, which brings its training set), then
    each epoch trained by :func:`_train_epoch` and, when ``accuracy``,
    scored on the training set. A run that stops before ``total_epochs``
    returns a :class:`_Prefix`, with the clock's untaken times."""
    clock = _Clock(resume.times if isinstance(resume, _Prefix) else None)
    root = Rng(cfg.seed)
    if resume is not None:
        check_resume(resume, cfg, data)
    d_in, k = data.id_train.dim, data.id_train.n_classes
    state = resume or RunState.of(
        MlpNetwork(d_in, cfg.hidden_dims, cfg.feature_dim, k, root.child("init")), 0
    )
    net = state.network()
    log = TrainLog(state=state)
    if state.epoch == cfg.total_epochs:  # a finished run: nothing to escape or train
        return net, log

    blas_threads = _set_blas_threads(1)
    try:
        if isinstance(state, _Prefix):
            dstar = state.escaped
        else:
            dstar = data.id_train  # no-escape trains on the inliers themselves
            if cfg.escape:
                clock.switch(_ESCAPE)
                dstar = escape_dataset(data.id_train, data.aux, cfg.escape_cfg, root.child("escape"))
                clock.switch(_STEP)
        synth = None  # built at the first joint epoch
        x_train, y_train = data.id_train.x, data.id_train.y
        workspace = net.block_workspace(len(x_train))

        while state.epoch < end:
            rec, state, synth = _train_epoch(cfg, state, synth, net, dstar, root, workspace, clock)
            if accuracy:  # otherwise the record keeps its NaN; hits / n is (pred == y).mean()
                clock.switch(_ACCURACY)
                hits = sum(np.count_nonzero(np.argmax(cache.logits, axis=1) == y_train[rows])
                           for rows, cache in net.forward_blocks(x_train, workspace))
                rec.train_accuracy = float(hits / len(x_train))
            rec.times = clock.take()
            log.records.append(rec)
            if progress is not None:
                progress(
                    f"epoch={rec.epoch} cls={rec.cls_loss:.6g} dis={rec.dis_loss:.6g} "
                    f"lr={rec.lr:.6g} acc={rec.train_accuracy:.4f}"
                )
        if end < cfg.total_epochs:
            state = _Prefix(**vars(state), escaped=dstar, times=clock.take())
        log.state = state
        return net, log
    finally:
        if blas_threads is not None:
            _set_blas_threads(blas_threads)


def _train_epoch(cfg: TrainConfig, state: RunState, synth: _SynthesisState | None, net: MlpNetwork,
                 dstar: LabeledDataset, root: Rng, workspace: list, clock: _Clock):
    """Train epoch ``state.epoch`` of a run on ``dstar``, the network ``net``
    holding ``state``'s parameters: a joint epoch first starts its synthesis
    on ``synth`` (built here, when None, from the joint-start features,
    forwarded through ``workspace``), then every batch takes one SGD step.
    Returns the epoch's record, whose accuracy and times the caller fills
    in, the run state after the epoch, and the synthesis. A non-finite loss
    raises :class:`TrainingDiverged` with the state at the epoch's start."""
    epoch, virtual = state.epoch, state.virtual
    tape = GradientTape(net)
    lr = cosine_lr(epoch, cfg.total_epochs, cfg.lr_start, cfg.lr_end)
    order = root.child("shuffle", epoch).permutation(len(dstar))
    xs, ys = dstar.x[order], dstar.y[order]  # each batch is a slice of these
    joint = epoch >= cfg.pretrain_epochs and cfg.beta != 0.0
    steps_per_epoch = (len(dstar) + cfg.batch_size - 1) // cfg.batch_size
    warmup_steps = cfg.beta_warmup_epochs * steps_per_epoch

    if joint:
        clock.switch(_EXPANSION)
        if synth is None:
            # the features are snapshotted once at joint start, from the
            # joint-start parameters the run state keeps; fresh mixtures are
            # still drawn from the snapshot every epoch
            if state.joint_start is None:
                state = replace(state, joint_start=state.params)
            feats = np.empty((len(dstar), net.feature_dim))
            for rows, cache in state.network(state.joint_start).forward_blocks(dstar.x, workspace):
                feats[rows] = cache.feats
            synth = _SynthesisState(cfg, feats)
        synth.start_epoch(epoch, clock)

    cls_sum = dis_sum = tot_sum = 0.0
    n_batches = 0
    for b, lo in enumerate(range(0, len(order), cfg.batch_size)):
        xb, yb = xs[lo : lo + cfg.batch_size], ys[lo : lo + cfg.batch_size]
        v_pts = None
        step_cfg = cfg
        if joint:
            clock.switch(_ESTIMATION)
            v_pts = synth.draw_outliers(len(xb))
            clock.switch(_DIVERGENCE)  # the ramp and a joint batch's loss terms, forward pass included
            if b == 0:  # the batch a checkpoint keeps for ``ares eval``
                virtual = v_pts
            # ramp the discrimination weight over the first joint steps;
            # the raw reciprocal gradient at near-zero divergence is
            # otherwise large enough to destroy the warmed-up network
            if warmup_steps:
                done = (epoch - cfg.pretrain_epochs) * steps_per_epoch + b
                if done + 1 < warmup_steps:
                    step_cfg = cfg.replace(beta=cfg.beta * (done + 1) / warmup_steps)

        cache, cls_loss, dis, batch_total, dlogits = batch_terms(net, xb, yb, step_cfg, tape, v_pts)
        clock.switch(_STEP)

        for term, value in (("cls", cls_loss), ("dis", dis), ("total", batch_total)):
            if not math.isfinite(value):
                raise TrainingDiverged(epoch, b, term, state)

        net.backward(cache, tape, dlogits)
        sgd_step(net, tape, lr)
        cls_sum += cls_loss
        dis_sum += dis  # 0.0 on a warmup batch
        tot_sum += batch_total
        n_batches += 1

    rec = EpochRecord(
        epoch=epoch,
        lr=float(lr),
        cls_loss=cls_sum / n_batches,
        dis_loss=dis_sum / n_batches,  # 0.0 on a warmup epoch
        total_loss=tot_sum / n_batches,
        train_accuracy=math.nan,  # filled in from the accuracy pass, if one runs
    )
    return rec, RunState.of(net, epoch + 1, state.joint_start, virtual), synth
