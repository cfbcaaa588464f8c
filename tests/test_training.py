import ctypes
import glob
import math
import os
import pickle
import platform
import resource
import subprocess
import sys
import tempfile
import time
import tracemalloc

import numpy as np
import pytest

import ares.training as training_mod
from ares.datagen import make_bundle
from ares.errors import ConfigError, NumericalError, TrainingDiverged
from ares.network import GradientTape, MlpNetwork, RunState, load_checkpoint, save_checkpoint
from ares.rng import Rng
from ares.training import STAGES, TrainConfig, TrainLog, cosine_lr, sgd_step, train
from test_acceptance import BENCH_DATA


def tiny_bundle(seed=0, n=120):
    return make_bundle(
        {"n_train": n, "n_test": 60, "k": 3, "d": 2, "n_ood": 60, "ood_sets": "ring"}, seed=seed
    )


def tiny_cfg(**kw):
    base = dict(
        total_epochs=6,
        pretrain_epochs=2,
        batch_size=30,
        lr_start=0.05,
        lr_end=1e-4,
        seed=1,
    )
    base.update(kw)
    return TrainConfig(**base)


# ---- learning-rate schedule -----------------------------------------------------

def test_cosine_endpoints():
    assert cosine_lr(0, 100, 0.1, 1e-6) == pytest.approx(0.1, abs=0)
    assert cosine_lr(100, 100, 0.1, 1e-6) == pytest.approx(1e-6, abs=1e-20)


def test_cosine_midpoint():
    assert cosine_lr(50, 100, 0.1, 1e-6) == pytest.approx((0.1 + 1e-6) / 2, rel=1e-12)


def test_cosine_non_increasing():
    vals = [cosine_lr(s, 500, 0.1, 1e-6) for s in range(501)]
    assert all(a >= b for a, b in zip(vals, vals[1:]))


def test_cosine_range_validation():
    with pytest.raises(ValueError):
        cosine_lr(-1, 10, 0.1, 1e-6)
    with pytest.raises(ValueError):
        cosine_lr(11, 10, 0.1, 1e-6)
    with pytest.raises(ValueError):
        cosine_lr(0, 0, 0.1, 1e-6)


# ---- sgd step ----------------------------------------------------------------------

def test_sgd_zero_lr_no_change():
    net = MlpNetwork(2, (4,), 3, 2, Rng(0))
    tape = GradientTape(net)
    tape.grads["cls_b"] += np.ones(2)
    before = {k: v.copy() for k, v in net.params().items()}
    sgd_step(net, tape, 0.0)
    for k, v in net.params().items():
        assert np.array_equal(v, before[k])


def test_sgd_quadratic_toy():
    # f(w) = w^2 at w=1 with lr = 1/2 lands exactly on the optimum
    net = MlpNetwork(2, (), 2, 2, Rng(0))
    net.cls_b[...] = [1.0, 0.0]
    tape = GradientTape(net)
    tape.grads["cls_b"] += np.array([2.0 * net.cls_b[0], 0.0])
    sgd_step(net, tape, 0.5)
    assert net.cls_b[0] == 0.0


def test_sgd_zeroes_tape():
    net = MlpNetwork(2, (), 2, 2, Rng(0))
    tape = GradientTape(net)
    tape.grads["cls_b"] += np.ones(2)
    sgd_step(net, tape, 0.1)
    assert np.all(tape.grads["cls_b"] == 0.0)


def test_sgd_linear_additivity():
    # on a linear loss, two steps with the same gradient equal one step of
    # the summed gradients (constant lr)
    net = MlpNetwork(2, (), 2, 2, Rng(1))
    g = np.array([0.3, -0.7])
    start = net.cls_b.copy()
    tape = GradientTape(net)
    tape.grads["cls_b"] += g
    sgd_step(net, tape, 0.1)
    tape.grads["cls_b"] += g
    sgd_step(net, tape, 0.1)
    two_steps = net.cls_b.copy()
    net.cls_b[...] = start
    tape.grads["cls_b"] += 2.0 * g
    sgd_step(net, tape, 0.1)
    assert np.allclose(net.cls_b, two_steps, atol=1e-15)


# ---- config validation -----------------------------------------------------------

def test_config_validation():
    with pytest.raises(ConfigError):
        TrainConfig(total_epochs=10, pretrain_epochs=11).validate()
    with pytest.raises(ConfigError):
        TrainConfig(batch_size=1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(lr_start=1e-6, lr_end=0.1).validate()
    with pytest.raises(ConfigError):
        TrainConfig(loss_kind="wasserstein").validate()
    bad = [
        ("ridge_scale", 0.0), ("ridge_scale", -1.0), ("ridge_scale", float("inf")),
        ("alpha2", float("inf")), ("alpha2", 0.0), ("nce_temperature", float("nan")),
        ("nce_temperature", -0.1), ("lr_start", float("inf")), ("pretrain_epochs", -3),
    ]
    for name, value in bad:
        with pytest.raises(ConfigError, match=name):
            TrainConfig(**{name: value})
    TrainConfig(total_epochs=10, pretrain_epochs=10).validate()  # boundary allowed
    TrainConfig(total_epochs=10, pretrain_epochs=0).validate()


# ---- the loop -----------------------------------------------------------------------

def test_run_is_deterministic():
    bundle = tiny_bundle()
    cfg = tiny_cfg()
    net1, log1 = train(cfg, bundle)
    net2, log2 = train(cfg, bundle)
    for k in net1.params():
        assert np.array_equal(net1.params()[k], net2.params()[k])
    for r1, r2 in zip(log1.records, log2.records):
        assert (r1.cls_loss, r1.dis_loss, r1.total_loss, r1.train_accuracy) == (
            r2.cls_loss,
            r2.dis_loss,
            r2.total_loss,
            r2.train_accuracy,
        )


def test_pretrain_gate_holds():
    bundle = tiny_bundle()
    cfg = tiny_cfg(total_epochs=4, pretrain_epochs=4)  # never leaves warmup
    net, log = train(cfg, bundle)
    assert np.all(net.energy_u == 0.0)
    assert float(net.head_w) == 1.0 and float(net.head_b) == 0.0
    assert all(r.dis_loss == 0.0 for r in log.records)


def test_joint_phase_moves_energy_weights():
    bundle = tiny_bundle()
    net, log = train(tiny_cfg(), bundle)
    assert np.any(net.energy_u != 0.0)
    assert any(r.dis_loss != 0.0 for r in log.records[2:])


def test_one_record_per_epoch_and_monotone():
    bundle = tiny_bundle()
    cfg = tiny_cfg()
    _, log = train(cfg, bundle)
    assert [r.epoch for r in log.records] == list(range(cfg.total_epochs))


def test_beta_zero_keeps_energy_at_init():
    bundle = tiny_bundle()
    net, log = train(tiny_cfg(beta=0.0), bundle)
    assert np.all(net.energy_u == 0.0)
    assert all(r.dis_loss == 0.0 for r in log.records)


@pytest.mark.parametrize(
    "mask", [{"escape": False}, {"expansion": False}, {"estimation": False}]
)
def test_stage_masks_run(mask):
    bundle = tiny_bundle()
    net, log = train(tiny_cfg(**mask), bundle)
    assert len(log.records) == 6


# case ids are pinned so a case keeps its name when others are added or removed
@pytest.mark.parametrize(
    "flags",
    [
        pytest.param({"beta_warmup_epochs": 0}, id="flags0"),
        pytest.param({"beta_warmup_epochs": 0, "loss_kind": "ce"}, id="flags1"),
        pytest.param({"loss_kind": "ce"}, id="flags6"),
        pytest.param({"loss_kind": "nce"}, id="flags7"),
    ],
)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_alternative_modes_run(flags):
    # every mode must either complete with a finite log or abort explicitly,
    # naming the non-finite term, with no numpy warning on the way (this
    # tiny budget is too chaotic for more)
    bundle = tiny_bundle()
    try:
        net, log = train(tiny_cfg(**flags), bundle)
    except TrainingDiverged as err:
        assert err.term in ("cls", "dis", "total")
        assert f"non-finite {err.term} loss" in str(err)
        assert err.state.epoch <= err.epoch
        return
    assert len(log.records) == 6
    assert all(np.isfinite(r.total_loss) for r in log.records)


def _record_synthesis(monkeypatch):
    """Log every candidate ranking and every per-batch outlier draw (with the
    epoch being trained). Each joint epoch ranks its candidates at its start,
    so an epoch's ranking comes after every draw of the epoch before."""
    events = []
    epoch = []  # the epoch _train_epoch is training
    real_rank = training_mod.sample_virtual_outliers
    real_draw = training_mod._SynthesisState.draw_outliers
    real_epoch = training_mod._train_epoch

    def train_epoch(cfg, state, *rest):
        epoch[:] = [state.epoch]
        return real_epoch(cfg, state, *rest)

    def rank(xs, model, count):
        out = real_rank(xs, model, count=count)
        whole = real_rank(xs, model, count=len(xs))  # the ranking of the whole pool
        events.append(("rank", len(xs), count, out.copy(), whole))
        return out

    def draw(self, b_eff):
        pts = real_draw(self, b_eff)
        events.append(("draw", epoch[0], b_eff, pts.copy()))
        return pts

    monkeypatch.setattr(training_mod, "_train_epoch", train_epoch)
    monkeypatch.setattr(training_mod, "sample_virtual_outliers", rank)
    monkeypatch.setattr(training_mod._SynthesisState, "draw_outliers", draw)
    return events


def test_candidates_ranked_once_per_joint_epoch(monkeypatch):
    # 120 surrogates in batches of 50: the last batch of each epoch holds 20
    cfg = tiny_cfg(batch_size=50)
    joint_epochs = range(cfg.pretrain_epochs, cfg.total_epochs)
    events = _record_synthesis(monkeypatch)
    train(cfg, tiny_bundle())
    # rank(e), every draw of epoch e, then rank(e + 1)
    order = [(kind, rest[0] if kind == "draw" else None) for kind, *rest in events]
    assert order == [ev for e in joint_epochs for ev in [("rank", None)] + [("draw", e)] * 3]
    ranks = [e[1:] for e in events if e[0] == "rank"]
    draws = {}
    for kind, *rest in events:
        if kind == "draw":
            epoch, b_eff, pts = rest
            draws.setdefault(epoch, []).append((b_eff, pts))
    for epoch, (n_cand, count, ranking, whole) in zip(joint_epochs, ranks):
        # only the first batch's worth of the pool's ranking is kept
        assert (n_cand, count) == (120, cfg.batch_size)
        assert np.array_equal(ranking, whole[:count])
        assert [b_eff for b_eff, _pts in draws[epoch]] == [50, 50, 20]
        for b_eff, pts in draws[epoch]:
            assert np.array_equal(pts, ranking[:b_eff])


def test_no_ranking_without_estimation(monkeypatch):
    events = _record_synthesis(monkeypatch)
    cfg = tiny_cfg(batch_size=50, estimation=False)
    train(cfg, tiny_bundle())
    assert not [e for e in events if e[0] == "rank"]
    assert len(events) == 3 * (cfg.total_epochs - cfg.pretrain_epochs)


def test_no_expansion_fits_once_per_run(monkeypatch, tmp_path):
    # without expansion the pool is the joint-start features, fixed for the
    # run: one fit and ranking serve every joint epoch, and the run has the
    # bits of one that fits and ranks again at every joint epoch's start
    bundle, cfg = tiny_bundle(), tiny_cfg(expansion=False)
    fits = {"n": 0}
    real_fit, real_start = training_mod.fit_gaussian, training_mod._SynthesisState.start_epoch

    def fit(pool, **kw):
        fits["n"] += 1
        return real_fit(pool, **kw)

    def refit(self, epoch, clock):
        self.ranked = None
        real_start(self, epoch, clock)

    def run(tag):
        fits["n"] = 0
        net, log = train(cfg, bundle)
        log.write_csv(tmp_path / f"{tag}.csv")
        save_checkpoint(log.state, tmp_path / f"{tag}.json")
        return fits["n"], net.flat.tobytes()

    monkeypatch.setattr(training_mod, "fit_gaussian", fit)
    once = run("once")
    monkeypatch.setattr(training_mod._SynthesisState, "start_epoch", refit)
    every = run("every-epoch")
    assert (once[0], every[0]) == (1, cfg.total_epochs - cfg.pretrain_epochs)
    assert once[1] == every[1]
    for ext in ("csv", "json"):
        assert (tmp_path / f"once.{ext}").read_bytes() == (tmp_path / f"every-epoch.{ext}").read_bytes()


def test_escape_mask_trains_on_original_points(monkeypatch):
    calls = {"n": 0}
    import ares.training as tm

    real = tm.escape_dataset

    def counting(*a, **kw):
        calls["n"] += 1
        return real(*a, **kw)

    monkeypatch.setattr(tm, "escape_dataset", counting)
    train(tiny_cfg(escape=False, total_epochs=2, pretrain_epochs=1), tiny_bundle())
    assert calls["n"] == 0


def _diverge_at(monkeypatch, epoch, steps_per_epoch, batch=0):
    """Make the classification loss of batch ``batch`` of ``epoch`` NaN."""
    real = training_mod.cross_entropy_batch
    calls = {"n": 0}

    def poisoned(logits, ys):
        calls["n"] += 1
        loss, dlogits = real(logits, ys)
        if calls["n"] == epoch * steps_per_epoch + batch + 1:
            return float("nan"), dlogits
        return loss, dlogits

    monkeypatch.setattr(training_mod, "cross_entropy_batch", poisoned)


def test_divergence_abort_carries_checkpoint(tmp_path, monkeypatch):
    # the error hands back the state at the start of the diverging epoch, a
    # checkpoint the caller can save and resume from
    bundle = tiny_bundle()
    cfg = tiny_cfg(total_epochs=4, pretrain_epochs=0)
    want = training_mod._train(cfg, bundle, 1, False)[1].state  # the run stopped after epoch 0
    _diverge_at(monkeypatch, 1, steps_per_epoch=4)  # 120 surrogates, batches of 30
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, bundle)
    err = exc.value
    assert (err.epoch, err.batch, err.term) == (1, 0, "cls")
    assert str(err) == "non-finite cls loss at epoch 1, batch 0; last good state (epoch 1)"
    assert err.state.epoch == want.epoch == 1
    assert err.state.joint_start is not None  # the joint phase began at epoch 0
    for name, p in want.params.items():
        assert err.state.params[name].tobytes() == p.tobytes(), name
        assert err.state.joint_start[name].tobytes() == want.joint_start[name].tobytes(), name
    save_checkpoint(err.state, tmp_path / "last_good_checkpoint.json")
    written = load_checkpoint(tmp_path / "last_good_checkpoint.json")
    assert written.epoch == err.state.epoch == 1
    for name, p in err.state.params.items():
        assert np.array_equal(written.params[name], p)
        assert np.array_equal(written.joint_start[name], err.state.joint_start[name])


def test_divergence_without_checkpoint_dir_writes_no_file(tmp_path, monkeypatch):
    # train() writes no file anywhere on divergence: saving the state is the
    # caller's call
    scratch = tmp_path / "tmp"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    monkeypatch.chdir(tmp_path)
    _diverge_at(monkeypatch, 1, steps_per_epoch=4)
    with pytest.raises(TrainingDiverged) as exc:
        train(tiny_cfg(), tiny_bundle())
    assert exc.value.state.epoch == 1
    assert [p.name for p in tmp_path.rglob("*")] == ["tmp"]


def test_divergence_state_does_not_follow_the_live_network(monkeypatch):
    # aborting at batch 0 or at batch 2 of epoch 1 hands back the same state,
    # taken after epoch 0, although the live network stepped twice more
    states = []
    for batch in (0, 2):
        with monkeypatch.context() as m:
            _diverge_at(m, 1, steps_per_epoch=4, batch=batch)
            with pytest.raises(TrainingDiverged) as exc:
                train(tiny_cfg(), tiny_bundle())
        assert exc.value.batch == batch
        states.append(exc.value.state)
    assert states[0].epoch == states[1].epoch == 1
    for name, p in states[0].params.items():
        assert p.tobytes() == states[1].params[name].tobytes(), name


def test_errors_survive_pickling():
    net = MlpNetwork(2, (4,), 3, 3, Rng(41))
    state = RunState.of(net, 2, joint_start=net.params(), virtual=Rng(42).standard_normal((5, 3)))
    err = TrainingDiverged(3, 1, "dis", state)
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is TrainingDiverged and str(back) == str(err)
    assert (back.epoch, back.batch, back.term) == (3, 1, "dis")
    assert (back.state.arch, back.state.epoch) == (state.arch, state.epoch)
    assert back.state.virtual.tobytes() == state.virtual.tobytes()
    for name, p in state.params.items():
        assert back.state.params[name].tobytes() == p.tobytes(), name
        assert back.state.joint_start[name].tobytes() == state.joint_start[name].tobytes(), name


def test_resume_continues_epoch_numbering():
    bundle = tiny_bundle()
    cfg = tiny_cfg(total_epochs=6, pretrain_epochs=2)
    net, log1 = train(cfg.replace(total_epochs=3), bundle)
    net2, log2 = train(cfg, bundle, resume=log1.state)
    assert [r.epoch for r in log2.records] == [3, 4, 5]


# (input_dim, hidden_dims, feature_dim, n_classes) of a state against the
# tiny bundle (2-d, 3 classes) under tiny_cfg's default (64, 64)/16 network
@pytest.mark.parametrize("field, arch, cfg_kw", [
    ("input_dim", (3, (64, 64), 16, 3), {}),
    ("hidden_dims", (2, (64, 64), 16, 3), {"hidden_dims": (8,)}),
    ("feature_dim", (2, (64, 64), 16, 3), {"feature_dim": 4}),
    ("n_classes", (2, (64, 64), 16, 4), {}),
    ("epoch", (2, (64, 64), 16, 3), {"total_epochs": 2, "pretrain_epochs": 1}),
], ids=["input_dim", "hidden_dims", "feature_dim", "n_classes", "epoch"])
def test_resume_rejects_other_architecture(monkeypatch, field, arch, cfg_kw):
    state = RunState.of(MlpNetwork(*arch, Rng(0)), 3)
    monkeypatch.setattr(training_mod, "escape_dataset", _must_not_run)
    with pytest.raises(ConfigError) as exc:
        train(tiny_cfg(**cfg_kw), tiny_bundle(), resume=state)
    msg = str(exc.value)
    assert f"{field}:" in msg
    others = {"input_dim", "hidden_dims", "feature_dim", "n_classes"} - {field}
    assert not any(f"{name}:" in msg for name in others), msg


def _must_not_run(*args, **kwargs):
    raise AssertionError("training started despite an architecture mismatch")


def test_resume_epoch_bounds(monkeypatch):
    # total_epochs = 6: a finished run resumes to itself, a negative epoch
    # is named before training starts
    cfg, bundle = tiny_cfg(), tiny_bundle()
    net = MlpNetwork(2, (64, 64), 16, 3, Rng(0))
    done = RunState.of(net, 6)
    _, log = train(cfg, bundle, resume=done)
    assert log.records == [] and log.state is done
    monkeypatch.setattr(training_mod, "escape_dataset", _must_not_run)
    with pytest.raises(ConfigError, match=r"epoch: -1 is outside \[0, total_epochs = 6\]"):
        train(cfg, bundle, resume=RunState.of(net, -1))


def test_finished_run_resumes_without_escape(monkeypatch):
    # a run resumed at its last epoch returns its own state without running
    # the escape stage
    cfg, bundle = tiny_cfg(total_epochs=3), tiny_bundle()
    _, log = train(cfg, bundle)
    calls = []
    real = training_mod.escape_dataset
    monkeypatch.setattr(training_mod, "escape_dataset", lambda *a, **kw: calls.append(a) or real(*a, **kw))
    net, resumed = train(cfg, bundle, resume=log.state)
    assert calls == [] and resumed.records == []
    state = resumed.state
    assert state.epoch == 3 and state.arch == log.state.arch
    for name, p in log.state.params.items():
        assert np.array_equal(state.params[name], p) and np.array_equal(net.params()[name], p)
        assert np.array_equal(state.joint_start[name], log.state.joint_start[name])
    assert np.array_equal(state.virtual, log.state.virtual)


# pretrain epochs 0-2, beta ramp over epochs 3-4, then plain joint epochs 5-7
RESUME_CFG = dict(total_epochs=8, pretrain_epochs=3, beta_warmup_epochs=2)


@pytest.mark.parametrize("at", [2, 4, 7], ids=["pretrain", "warmup-ramp", "late-joint"])
def test_resume_is_exact(monkeypatch, tmp_path, at):
    # interrupt the run at the first batch of epoch ``at``, resume from the
    # state the abort carries, and compare with the uninterrupted run
    bundle = tiny_bundle()
    cfg = tiny_cfg(**RESUME_CFG)
    _, full = train(cfg, bundle)
    with monkeypatch.context() as m:
        _diverge_at(m, at, steps_per_epoch=4)
        with pytest.raises(TrainingDiverged) as exc:
            train(cfg, bundle)
    state = exc.value.state
    assert state.epoch == at
    assert (state.joint_start is None) == (at <= cfg.pretrain_epochs)
    _, resumed = train(cfg, bundle, resume=state)
    for name, log in (("full", full), ("resumed", resumed)):
        log.write_csv(tmp_path / f"{name}.csv")
        save_checkpoint(log.state, tmp_path / f"{name}.json")
    full_rows = (tmp_path / "full.csv").read_text().split("\n")
    resumed_rows = (tmp_path / "resumed.csv").read_text().split("\n")
    assert resumed_rows[0] == full_rows[0]
    assert resumed_rows[1:] == full_rows[1 + at :]
    assert (tmp_path / "resumed.json").read_bytes() == (tmp_path / "full.json").read_bytes()


# the variants of the ablation matrix, each of which resumes from a warmup
# prefix (no-escape and the doubled budget from one of their own), and the edges
PREFIX_CASES = {
    "full": {},
    "no-escape": {"escape": False},
    "no-expansion": {"expansion": False},
    "no-estimation": {"estimation": False},
    "loss-ce": {"loss_kind": "ce"},
    "loss-nce": {"loss_kind": "nce"},
    "epochs-16": {"total_epochs": 16, "pretrain_epochs": 6},
    "beta-0": {"beta": 0.0},
    "pretrain-0": {"pretrain_epochs": 0},
    "pretrain-all": {"pretrain_epochs": 8},
}


@pytest.mark.parametrize("kw", PREFIX_CASES.values(), ids=PREFIX_CASES.keys())
def test_resume_from_warmup_prefix_is_exact(monkeypatch, tmp_path, kw):
    # the prefix trains the config's warmup key up to pretrain_epochs; the run
    # resumed from it, with the prefix's records in front, is the whole run
    # (both without accuracy passes, as the prefix runs none)
    bundle = tiny_bundle()
    cfg = tiny_cfg(**{**RESUME_CFG, **kw})
    net, full = train(cfg, bundle, accuracy=False)
    prefix = training_mod._warmup(training_mod._warmup_key(cfg), bundle)
    assert prefix.state.epoch == cfg.pretrain_epochs
    assert [r.epoch for r in prefix.records] == list(range(cfg.pretrain_epochs))
    monkeypatch.setattr(training_mod, "escape_dataset", _must_not_run)  # the set comes carried
    resumed_net, resumed = train(cfg, bundle, resume=prefix.state, accuracy=False)
    resumed.records[:0] = prefix.records
    full.write_csv(tmp_path / "full.csv")
    resumed.write_csv(tmp_path / "resumed.csv")
    assert (tmp_path / "resumed.csv").read_bytes() == (tmp_path / "full.csv").read_bytes()
    assert np.array_equal(resumed_net.flat, net.flat)
    # the prefix's escape time is booked once, in the first record (no-escape has none),
    # also when the prefix trains no epoch and hands the time on untaken (pretrain-0)
    assert [r.times["escape"] > 0.0 for r in resumed.records] == [cfg.escape] + [False] * (cfg.total_epochs - 1)


def test_learning_accuracy_improves():
    # classification-only on clean blobs is trivially separable; the loop
    # must drive accuracy high (escape-noise robustness is calibrated in
    # the acceptance suite)
    bundle = tiny_bundle(n=300)
    cfg = tiny_cfg(
        total_epochs=30, pretrain_epochs=30, batch_size=32, lr_start=0.05, escape=False
    )
    net, log = train(cfg, bundle)
    assert log.records[-1].train_accuracy >= 0.95


def test_log_csv_round_trip(tmp_path):
    bundle = tiny_bundle()
    _, log = train(tiny_cfg(), bundle)
    path = tmp_path / "log.csv"
    log.write_csv(path)
    lines = path.read_text().strip().split("\n")
    assert lines[0] == "epoch,lr,cls_loss,dis_loss,total_loss,train_accuracy"
    assert len(lines) == 7
    tpath = tmp_path / "timings.csv"
    log.write_timings_csv(tpath)
    lines = tpath.read_text().strip().split("\n")
    assert lines[0] == "epoch,escape_s,expansion_s,estimation_s,divergence_s,step_s,accuracy_s"
    assert [line.split(",")[0] for line in lines[1:]] == [str(e) for e in range(6)]


# ---- progress, the accuracy pass and BLAS threads ----------------------------------


def _progress_epochs():
    """A progress callable and the list of epochs its lines name, in order."""
    seen = []

    def progress(line):
        seen.append(int(line.split()[0].removeprefix("epoch=")))

    return seen, progress


def test_progress_lines_in_order_before_divergence(monkeypatch):
    bundle, cfg = tiny_bundle(), tiny_cfg()
    seen, progress = _progress_epochs()
    _, log = train(cfg, bundle, progress=progress)
    assert seen == list(range(cfg.total_epochs))
    assert [r.epoch for r in log.records] == list(range(cfg.total_epochs))
    seen.clear()
    # batch 2 of epoch 4 goes non-finite: epochs 0-3 each print once, first
    _diverge_at(monkeypatch, 4, steps_per_epoch=4, batch=2)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, bundle, progress=progress)
    assert (exc.value.epoch, exc.value.batch) == (4, 2)
    assert seen == [0, 1, 2, 3]


def _no_pass_over(x_train):
    """An ``MlpNetwork.forward_blocks`` that fails an accuracy pass, which
    forwards ``x_train`` itself (the run's escaped points are another array)."""
    real = MlpNetwork.forward_blocks

    def forward_blocks(self, x, ws):
        if x is x_train:
            raise AssertionError("an accuracy pass ran")
        return real(self, x, ws)

    return forward_blocks


def _deterministic_bytes(log):
    """The log's deterministic columns but ``train_accuracy``, as bytes."""
    cols = [c for c in TrainLog.DETERMINISTIC_COLUMNS if c != "train_accuracy"]
    return np.array([[getattr(r, c) for c in cols] for r in log.records]).tobytes()


def test_run_without_accuracy_moves_no_other_bit(monkeypatch, tmp_path):
    # accuracy=False runs no pass over the training set: every record's
    # train_accuracy is NaN, and every other column, every parameter and the
    # checkpoint equal the run whose passes ran; the warmup prefix, which
    # runs no pass, has the records of that run's first epochs
    bundle, cfg = tiny_bundle(), tiny_cfg(**RESUME_CFG)
    seen, progress = _progress_epochs()
    net, log = train(cfg, bundle, progress=progress)
    assert seen == list(range(cfg.total_epochs))
    assert not any(math.isnan(r.train_accuracy) for r in log.records)
    seen.clear()
    with monkeypatch.context() as m:
        m.setattr(MlpNetwork, "forward_blocks", _no_pass_over(bundle.id_train.x))
        bare_net, bare = train(cfg, bundle, progress=progress, accuracy=False)
        prefix = training_mod._warmup(cfg, bundle)
    assert seen == list(range(cfg.total_epochs))
    for n, got in ((cfg.total_epochs, bare), (cfg.pretrain_epochs, prefix)):
        want = TrainLog(records=log.records[:n])
        assert [r.epoch for r in got.records] == list(range(n))
        assert all(math.isnan(r.train_accuracy) for r in got.records)
        assert _deterministic_bytes(got) == _deterministic_bytes(want)
    assert bare_net.flat.tobytes() == net.flat.tobytes()
    save_checkpoint(log.state, tmp_path / "with.json")
    save_checkpoint(bare.state, tmp_path / "without.json")
    assert (tmp_path / "with.json").read_bytes() == (tmp_path / "without.json").read_bytes()


# Two 10-epoch warmup runs on the benchmark world (1200 inliers), each with
# its accuracy passes; prints the second run's minor page faults.
REPEATED_RUN_FAULTS = f"""
import resource
import ares.training as training
from ares.datagen import make_bundle
bundle = make_bundle({BENCH_DATA!r}, seed=0)
cfg = training.TrainConfig(total_epochs=10, pretrain_epochs=10, batch_size=128)
training.train(cfg, bundle)
before = resource.getrusage(resource.RUSAGE_THREAD).ru_minflt
training.train(cfg, bundle)
print(resource.getrusage(resource.RUSAGE_THREAD).ru_minflt - before)
"""


@pytest.mark.skipif(not hasattr(resource, "RUSAGE_THREAD"), reason="needs RUSAGE_THREAD (Linux)")
@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="the bound is glibc malloc's")
def test_accuracy_passes_reuse_one_workspace():
    # every pass of a run scores into the run's one workspace, so a run faults
    # in about one workspace's pages (~300 4 KiB pages), where fresh layer
    # arrays per pass fault ~3,000. It runs in a fresh interpreter with
    # glibc's default malloc settings: once a process has freed a block of a
    # few MB, glibc's malloc stops handing such memory back, and fresh arrays
    # no longer fault either
    src = os.path.dirname(os.path.dirname(training_mod.__file__))
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("MALLOC_") and k != "GLIBC_TUNABLES"}
    env["PYTHONPATH"] = src
    out = subprocess.run([sys.executable, "-c", REPEATED_RUN_FAULTS], env=env, check=True,
                         capture_output=True, text=True)
    assert int(out.stdout) < 1000


def test_joint_start_forwards_into_the_run_workspace():
    # the joint-start features are forwarded through the run's one block
    # workspace (1024 rows of the input and four layers, 1.22 MB) into one
    # 1200 x 16 array: the traced peak of this run is 1.99 MB, and fresh
    # 1200-row layer arrays beside the workspace lifted it to 3.04 MB. It
    # resumes from its warmup prefix, so runs no escape stage, and without
    # expansion its synthesis allocates little
    bundle = make_bundle(BENCH_DATA, seed=0)
    cfg = TrainConfig(total_epochs=3, pretrain_epochs=1, batch_size=128, expansion=False)
    prefix = training_mod._warmup(cfg, bundle)
    tracemalloc.start()
    try:
        train(cfg, bundle, resume=prefix.state)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.6e6, peak


def _padded_forward(net, x):
    """The features and logits of one forward of the whole of ``x``,
    zero-padded to a multiple of 8 rows, trimmed to ``x``'s rows."""
    xs = np.zeros((-(-len(x) // 8) * 8, x.shape[1]))
    xs[: len(x)] = x
    cache = net.forward(xs)
    return cache.feats[: len(x)], cache.logits[: len(x)]


@pytest.mark.parametrize("n", [1025, 1029])
def test_training_passes_equal_padded_whole_array_bitwise(monkeypatch, n):
    # after one 1024-row block, the accuracy pass and the joint-start
    # features end in a 1- or 5-row block; padded, its rows come out as
    # inside one padded forward of the whole training set
    bundle, cfg = tiny_bundle(n=n), TrainConfig(total_epochs=2, pretrain_epochs=1, batch_size=128)
    seen, escape, synthesis = {}, training_mod.escape_dataset, training_mod._SynthesisState
    monkeypatch.setattr(training_mod, "escape_dataset", lambda *a: seen.setdefault("dstar", escape(*a)))
    monkeypatch.setattr(training_mod, "_SynthesisState", lambda *a: seen.setdefault("synth", synthesis(*a)))
    _net, log = train(cfg, bundle)
    prefix = training_mod._warmup(cfg, bundle).state
    state = log.state
    feats = _padded_forward(state.network(state.joint_start), seen["dstar"].x)[0]
    assert seen["synth"].feats.tobytes() == feats.tobytes()
    for rec, params in zip(log.records, (prefix.params, state.params)):
        logits = _padded_forward(state.network(params), bundle.id_train.x)[1]
        want = float((np.argmax(logits, axis=1) == bundle.id_train.y).mean())
        assert type(rec.train_accuracy) is float, rec.epoch
        assert rec.train_accuracy.hex() == want.hex(), rec.epoch


def test_train_memory_bounded_by_block():
    # the accuracy passes and the joint-start features go through one block
    # workspace of at most 1024 rows: the traced peak is 3.69 MB, where
    # 4100-row layer arrays took it to 7.31 MB
    bundle = tiny_bundle(n=4100)
    cfg = TrainConfig(total_epochs=2, pretrain_epochs=1, batch_size=128, escape=False, expansion=False)
    tracemalloc.start()
    try:
        train(cfg, bundle)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 4.5e6, peak


def _fail_fit_at(monkeypatch, *epochs):
    """Make the Gaussian fit of the given joint epochs of ``tiny_cfg()``
    (joint from epoch 2) raise a NumericalError; fits run in epoch order."""
    real = training_mod.fit_gaussian
    calls = {"n": 0}

    def fit(pool, **kw):
        epoch = 2 + calls["n"]
        calls["n"] += 1
        if epoch in epochs:
            raise NumericalError(f"injected fit failure at epoch {epoch}")
        return real(pool, **kw)

    monkeypatch.setattr(training_mod, "fit_gaussian", fit)


def test_fit_error_surfaces_at_its_epoch(monkeypatch):
    bundle, cfg = tiny_bundle(), tiny_cfg()
    seen, progress = _progress_epochs()
    with monkeypatch.context() as m:
        _fail_fit_at(m, 4)
        with pytest.raises(NumericalError, match="at epoch 4"):
            train(cfg, bundle, progress=progress)
    assert seen == [0, 1, 2, 3]
    # epoch 4 diverges before epoch 5's fit runs
    seen.clear()
    _fail_fit_at(monkeypatch, 5)
    _diverge_at(monkeypatch, 4, steps_per_epoch=4)
    with pytest.raises(TrainingDiverged):
        train(cfg, bundle, progress=progress)
    assert seen == [0, 1, 2, 3]


def test_stage_times_add_up():
    # one clock books every interval of the calling thread to one stage, so
    # the stage times add up to the call's wall time, less its entry and exit
    cfg, bundle = tiny_cfg(), tiny_bundle()
    t0 = time.perf_counter()
    _, log = train(cfg, bundle)
    wall = time.perf_counter() - t0
    assert all(tuple(r.times) == STAGES for r in log.records)
    assert all(t >= 0.0 for r in log.records for t in r.times.values())
    assert 0.95 * wall <= sum(log.stage_totals().values()) <= wall


def test_blas_threads_restored(monkeypatch):
    # train() runs on one BLAS thread and hands the caller's count back,
    # whether it returns or raises
    blas = training_mod._openblas()
    count = blas[0] if blas else lambda: None
    before = training_mod._set_blas_threads(2)  # a count other than train()'s own
    try:
        outer, inside = count(), []

        def progress(line):
            inside.append(count())

        train(tiny_cfg(), tiny_bundle(), progress=progress)
        assert count() == outer
        _diverge_at(monkeypatch, 3, steps_per_epoch=4)
        with pytest.raises(TrainingDiverged):
            train(tiny_cfg(), tiny_bundle(), progress=progress)
        assert count() == outer
        assert set(inside) == {1 if blas else None}
    finally:
        if before is not None:
            training_mod._set_blas_threads(before)


def test_blas_threads_reach_numpys_openblas(monkeypatch):
    # scipy loads an OpenBLAS of its own (32-bit integers); the cap must
    # reach the one numpy ships and runs every matmul on, not scipy's
    pytest.importorskip("scipy.linalg")
    libs = glob.glob(os.path.join(os.path.dirname(os.path.dirname(np.__file__)), "numpy.libs", "*openblas*"))
    if not libs:
        pytest.skip("numpy ships no OpenBLAS of its own")
    count = ctypes.CDLL(libs[0]).scipy_openblas_get_num_threads64_
    count.argtypes, count.restype = [], ctypes.c_int
    monkeypatch.setattr(training_mod, "_OPENBLAS", None)  # look it up with scipy's loaded
    before = training_mod._set_blas_threads(2)
    try:
        assert count() == 2
        training_mod._set_blas_threads(1)
        assert count() == 1
    finally:
        training_mod._set_blas_threads(before)


def test_import_loads_no_thread_pool():
    # run_ablation_suite() imports its process pool when it runs, not at import
    src = os.path.dirname(os.path.dirname(training_mod.__file__))
    code = "import sys, ares; sys.exit('concurrent.futures' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": src}
    assert subprocess.run([sys.executable, "-c", code], env=env).returncode == 0
