import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ares.errors import ConfigError
from ares.network import (
    GradientTape,
    MlpNetwork,
    RunState,
    cross_entropy_batch,
    energy_score_batch,
    load_checkpoint,
    save_checkpoint,
)
from ares.rng import Rng
from ares.training import TrainConfig, compute_batch_gradients, compute_batch_loss, sgd_step
from gradcheck import finite_difference_grads, max_relative_error


def small_net(seed=0, input_dim=3, hidden=(5,), feature_dim=4, k=3):
    return MlpNetwork(input_dim, hidden, feature_dim, k, Rng(seed))


def energy_of(net, z):
    """Energy of one logit vector, through the batch function."""
    return energy_score_batch(net, np.asarray(z, dtype=float)[None, :])[0]


def ce_of(logits, y):
    """Cross entropy of one logit vector, through the batch function."""
    return cross_entropy_batch(np.asarray(logits, dtype=float)[None, :], np.array([y]))[0]


# ---- forward -------------------------------------------------------------------

def test_zero_weights_zero_features():
    net = small_net()
    for w, b in zip(net.ext_w, net.ext_b):
        w[...] = 0.0
        b[...] = 0.0
    assert np.array_equal(net.forward(np.ones((1, 3))).feats, np.zeros((1, 4)))


def test_identity_layer_passthrough():
    net = MlpNetwork(3, (), 3, 2, Rng(0))
    net.ext_w[0][...] = np.eye(3)
    net.ext_b[0][...] = 0.0
    x = np.array([0.5, 1.0, 2.0])  # nonnegative, so the ReLU is inactive
    assert np.array_equal(net.forward(x[None, :]).feats[0], x)


def test_forward_finite_on_random_input():
    net = small_net(1)
    out = net.forward(Rng(2).standard_normal((20, 3)))
    assert np.all(np.isfinite(out.feats)) and np.all(np.isfinite(out.logits))


def test_zero_classifier_weights_give_bias_logits():
    net = small_net()
    net.cls_w[...] = 0.0
    net.cls_b[...] = np.array([0.3, -0.1, 2.0])
    logits = net.forward(Rng(1).standard_normal((4, 3))).logits
    assert np.array_equal(logits, np.tile([0.3, -0.1, 2.0], (4, 1)))


def test_prediction_tie_breaks_low_index():
    net = small_net(k=2)
    net.cls_w[...] = 0.0
    net.cls_b[...] = np.array([1.5, 1.5])
    pred = net.predict(np.zeros((1, 3)))
    assert pred[0] == 0


def test_dimension_mismatch_errors():
    net = small_net()
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        energy_score_batch(net, np.zeros((2, 5)))


# ---- energy score ---------------------------------------------------------------

def test_energy_single_class_zero():
    net = MlpNetwork(2, (), 2, 1, Rng(0))
    assert energy_of(net, [0.0]) == 0.0


def test_energy_two_equal_logits():
    net = MlpNetwork(2, (), 2, 2, Rng(0))
    assert abs(energy_of(net, [0.0, 0.0]) + np.log(2.0)) < 1e-15


@given(a=st.floats(-700, 700))
@settings(max_examples=50, deadline=None)
def test_energy_shift_identity(a):
    net = MlpNetwork(2, (), 2, 2, Rng(0))
    assert abs(energy_of(net, [a, a]) - (-a - np.log(2.0))) < 1e-9


def test_energy_constant_shift_property():
    net = small_net()
    rng = Rng(3)
    z = rng.standard_normal(3)
    net.energy_u[...] = rng.standard_normal(3) * 0.3
    c = 2.7
    base = energy_of(net, z)
    shifted = energy_of(net, z + c)
    assert abs(shifted - (base - c)) < 1e-12


def test_energy_joint_permutation_invariance():
    net = small_net()
    rng = Rng(4)
    z = rng.standard_normal(3)
    net.energy_u[...] = rng.standard_normal(3)
    perm = np.array([2, 0, 1])
    base = energy_of(net, z)
    net.energy_u[...] = net.energy_u[perm]
    assert abs(energy_of(net, z[perm]) - base) < 1e-12


def test_energy_batch_matches_single():
    # rows are scored independently: one batch equals eight one-row batches
    net = small_net(5)
    zs = Rng(6).standard_normal((8, 3))
    batch = energy_score_batch(net, zs)
    singles = [energy_of(net, z) for z in zs]
    assert np.allclose(batch, singles, rtol=0, atol=0)


# ---- cross entropy -----------------------------------------------------------------

def test_ce_confident_correct_near_zero():
    assert ce_of([100.0, -100.0], 0) < 1e-12


def test_ce_uniform_is_log_k():
    for k in (2, 5, 10):
        assert abs(ce_of(np.zeros(k), 0) - np.log(k)) < 1e-12


@given(st.lists(st.floats(-50, 50), min_size=2, max_size=6))
@settings(max_examples=100, deadline=None)
def test_ce_nonnegative(logits):
    assert ce_of(logits, 0) >= 0.0


def test_ce_label_out_of_range():
    with pytest.raises(ValueError):
        ce_of(np.zeros(3), 3)
    with pytest.raises(ValueError):
        cross_entropy_batch(np.zeros((2, 3)), np.array([0, 5]))


# ---- gradients ----------------------------------------------------------------------

def test_gradcheck_cross_entropy_only():
    net = small_net(seed=7, input_dim=3, hidden=(5,), feature_dim=4, k=3)
    rng = Rng(8)
    xb = rng.standard_normal((8, 3))
    yb = rng.integers(0, 3, 8)
    cfg = TrainConfig()

    _, _, _, tape = compute_batch_gradients(net, xb, yb, cfg, v_pts=None)
    numeric = finite_difference_grads(net, lambda: compute_batch_loss(net, xb, yb, cfg))
    # energy and head parameters take no part in the classification loss
    for name in ("energy_u", "head_w", "head_b"):
        assert np.all(tape.grads[name] == 0.0)
        numeric.pop(name)
    analytic = {k: v for k, v in tape.grads.items() if k in numeric}
    assert max_relative_error(analytic, numeric) <= 1e-4


@pytest.mark.parametrize("loss_kind", ["jsd", "ce", "nce"])
def test_gradcheck_composite(loss_kind):
    net = small_net(seed=9, input_dim=3, hidden=(5,), feature_dim=4, k=3)
    rng = Rng(10)
    net.energy_u[...] = 0.2 * rng.standard_normal(3)
    xb = rng.standard_normal((8, 3))
    yb = rng.integers(0, 3, 8)
    v_pts = rng.standard_normal((8, 4)) * 2.0
    cfg = TrainConfig(beta=0.1, loss_kind=loss_kind)

    _, _, _, tape = compute_batch_gradients(net, xb, yb, cfg, v_pts=v_pts)
    numeric = finite_difference_grads(
        net, lambda: compute_batch_loss(net, xb, yb, cfg, v_pts=v_pts)
    )
    if loss_kind == "jsd":  # the head is untouched by the jsd path
        numeric.pop("head_w")
        numeric.pop("head_b")
    analytic = {k: v for k, v in tape.grads.items() if k in numeric}
    assert max_relative_error(analytic, numeric) <= 1e-3


def test_zero_beta_means_zero_energy_gradient():
    net = small_net(11)
    rng = Rng(12)
    xb = rng.standard_normal((6, 3))
    yb = rng.integers(0, 3, 6)
    cfg = TrainConfig(beta=0.0, loss_kind="jsd")
    v_pts = rng.standard_normal((6, 4))
    _, _, _, tape = compute_batch_gradients(net, xb, yb, cfg, v_pts=v_pts)
    assert np.all(tape.grads["energy_u"] == 0.0)


def test_stale_cache_rejected():
    net = small_net(13)
    cache = net.forward(np.zeros((2, 3)))
    tape = GradientTape(net)
    sgd_step(net, tape, 0.1)
    with pytest.raises(RuntimeError):
        net.backward(cache, tape, np.zeros((2, 3)))


def test_tape_shape_validation():
    net = small_net()
    tape = GradientTape(net)
    with pytest.raises(ValueError):
        tape.add("cls_b", np.zeros(7))


# ---- checkpointing ----------------------------------------------------------------

def _run_state(seed, epoch, joint=True):
    net = small_net(seed)
    net.energy_u[...] = Rng(seed + 1).standard_normal(3)
    joint_start = small_net(seed + 2).params() if joint else None
    return RunState.of(net, epoch, joint_start)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for joint in (True, False):
        state = _run_state(14, 17, joint)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 17 and loaded.arch == state.arch
        assert (loaded.joint_start is None) == (not joint)
        for name, p in state.params.items():
            assert np.array_equal(p, loaded.network().params()[name])
            if joint:
                assert np.array_equal(state.joint_start[name], loaded.joint_start[name])
        path2 = tmp_path / "ckpt2.json"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()


def test_run_state_is_a_copy():
    net = small_net(3)
    state = RunState.of(net, 2)
    net.cls_b[...] += 1.0
    assert not np.array_equal(state.params["cls_b"], net.cls_b)
    assert np.array_equal(state.network().cls_b, net.cls_b - 1.0)


def test_checkpoint_shape_mismatch(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(_run_state(0, 1), path)
    import json

    for block in ("params", "joint_start"):
        doc = json.loads(path.read_text())
        doc[block]["cls_b"] = {"shape": [1], "data": [0.0]}
        bad = tmp_path / f"bad_{block}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="cls_b"):
            load_checkpoint(bad)


def test_checkpoint_rejects_other_files(tmp_path):
    import json

    save_checkpoint(_run_state(0, 1), tmp_path / "ckpt.json")
    v1 = json.loads((tmp_path / "ckpt.json").read_text())
    del v1["joint_start"]
    v1["version"] = 1
    cases = {
        "missing.json": None,
        "v1.json": json.dumps(v1),
        "points.csv": "# ares-points id dim=2\nx0,x1,label\n0.0,1.0,0\n",
        "list.json": "[1, 2]",
        "truncated.json": (tmp_path / "ckpt.json").read_text()[:50],
    }
    for name, text in cases.items():
        if text is not None:
            (tmp_path / name).write_text(text)
        with pytest.raises(ConfigError, match=name):
            load_checkpoint(tmp_path / name)
    with pytest.raises(ConfigError, match="version 1"):
        load_checkpoint(tmp_path / "v1.json")
