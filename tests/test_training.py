import numpy as np
import pytest

import ares.training as training_mod
from ares.datagen import make_bundle
from ares.errors import ConfigError, SynthesisUnderflowError, TrainingDiverged
from ares.network import GradientTape, MlpNetwork, load_checkpoint
from ares.rng import Rng
from ares.training import TrainConfig, cosine_lr, sgd_step, train


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
        m_candidates=10000,
        t_rank=16,
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
    tape.add("cls_b", np.ones(2))
    before = {k: v.copy() for k, v in net.params().items()}
    sgd_step(net, tape, 0.0)
    for k, v in net.params().items():
        assert np.array_equal(v, before[k])


def test_sgd_quadratic_toy():
    # f(w) = w^2 at w=1 with lr = 1/2 lands exactly on the optimum
    net = MlpNetwork(2, (), 2, 2, Rng(0))
    net.cls_b[...] = [1.0, 0.0]
    tape = GradientTape(net)
    tape.add("cls_b", np.array([2.0 * net.cls_b[0], 0.0]))
    sgd_step(net, tape, 0.5)
    assert net.cls_b[0] == 0.0


def test_sgd_zeroes_tape():
    net = MlpNetwork(2, (), 2, 2, Rng(0))
    tape = GradientTape(net)
    tape.add("cls_b", np.ones(2))
    sgd_step(net, tape, 0.1)
    assert np.all(tape.grads["cls_b"] == 0.0)


def test_sgd_linear_additivity():
    # on a linear loss, two steps with the same gradient equal one step of
    # the summed gradients (constant lr)
    net = MlpNetwork(2, (), 2, 2, Rng(1))
    g = np.array([0.3, -0.7])
    start = net.cls_b.copy()
    tape = GradientTape(net)
    tape.add("cls_b", g)
    sgd_step(net, tape, 0.1)
    tape.add("cls_b", g)
    sgd_step(net, tape, 0.1)
    two_steps = net.cls_b.copy()
    net.cls_b[...] = start
    tape.add("cls_b", 2.0 * g)
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
    TrainConfig(total_epochs=10, pretrain_epochs=10).validate()  # boundary allowed


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
def test_alternative_modes_run(flags):
    # every mode must either complete with a finite log or abort explicitly
    # with a checkpoint (this tiny budget is too chaotic for more)
    bundle = tiny_bundle()
    try:
        net, log = train(tiny_cfg(**flags), bundle)
    except TrainingDiverged as err:
        assert err.checkpoint_path
        return
    assert len(log.records) == 6
    assert all(np.isfinite(r.total_loss) for r in log.records)


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


def test_divergence_abort_carries_checkpoint(tmp_path, monkeypatch):
    bundle = tiny_bundle()
    cfg = tiny_cfg(total_epochs=4, pretrain_epochs=0)
    real = training_mod.cross_entropy_batch
    state = {"count": 0}

    def poisoned(logits, ys):
        state["count"] += 1
        loss, dlogits = real(logits, ys)
        if state["count"] >= 6:
            return float("nan"), dlogits
        return loss, dlogits

    monkeypatch.setattr(training_mod, "cross_entropy_batch", poisoned)
    with pytest.raises(TrainingDiverged) as exc:
        train(cfg, bundle, checkpoint_dir=tmp_path)
    assert tmp_path.joinpath("last_good_checkpoint.json").exists()
    net, epoch = load_checkpoint(exc.value.checkpoint_path)
    assert epoch <= 4


def test_synthesis_underflow_reports_context():
    bundle = tiny_bundle(n=120)
    # 8 sampled candidates can never cover a 30-point batch
    cfg = tiny_cfg(m_candidates=8, total_epochs=3, pretrain_epochs=0)
    with pytest.raises(SynthesisUnderflowError) as exc:
        train(cfg, bundle)
    assert "epoch 0" in str(exc.value)


def test_resume_continues_epoch_numbering():
    bundle = tiny_bundle()
    cfg = tiny_cfg(total_epochs=6, pretrain_epochs=2)
    net, log1 = train(cfg.replace(total_epochs=3), bundle)
    net2, log2 = train(cfg, bundle, resume=(net, 3))
    assert [r.epoch for r in log2.records] == [3, 4, 5]


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


def test_debug_gradcheck_mode_runs_clean():
    # every 10th step re-verifies a few gradient coordinates by finite
    # differences; a healthy run must never trip it
    bundle = tiny_bundle()
    net, log = train(tiny_cfg(total_epochs=4, pretrain_epochs=2, debug_gradcheck=True), bundle)
    assert len(log.records) == 4


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
    assert tpath.read_text().startswith("epoch,escape_s,expansion_s,estimation_s,divergence_s")
