import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ares.training as training_mod
from ares.datagen import make_bundle
from ares.errors import ConfigError
from ares.losses import DIV_GUARD, LogisticHead, ce_logistic_grad, jsd_discrimination_grad, nce_grad, total_loss
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
from ares.training import (
    TrainConfig,
    batch_terms,
    compute_batch_gradients,
    compute_batch_loss,
    sgd_step,
    train,
)
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


def test_dimension_mismatch_errors():
    net = small_net()
    with pytest.raises(ValueError):
        net.forward(np.zeros((2, 4)))
    with pytest.raises(ValueError):
        energy_score_batch(net, np.zeros((2, 5)))


# ---- the in-place forward and the cached activations, against an oracle ----------

def oracle_forward(net, x):
    """The out-of-place forward pass: fresh arrays for ``a @ w``, ``+ b``
    and the ReLU; caches the pre-activations."""
    a, pres = x, []
    for w, b in zip(net.ext_w, net.ext_b):
        z = a @ w + b
        pres.append(z)
        a = np.maximum(z, 0.0)
    return pres, a, a @ net.cls_w + net.cls_b


def oracle_backward(net, x, pres, feats, dlogits, tape=None):
    """The backward pass over pre-activations: masks with ``pre > 0``,
    recomputes each layer's input with ``np.maximum`` and propagates down
    to the input, accumulating through ``tape.add`` (a fresh tape by
    default)."""
    tape = GradientTape(net) if tape is None else tape
    tape.add("cls_w", feats.T @ dlogits)
    tape.add("cls_b", dlogits.sum(axis=0))
    dact = dlogits @ net.cls_w.T
    for i in range(len(net.ext_w) - 1, -1, -1):
        dz = dact * (pres[i] > 0.0)
        inputs = x if i == 0 else np.maximum(pres[i - 1], 0.0)
        tape.add(f"ext_w{i}", inputs.T @ dz)
        tape.add(f"ext_b{i}", dz.sum(axis=0))
        dact = dz @ net.ext_w[i].T
    return tape


def oracle_net(kind):
    """The default architecture (2 -> 64 -> 64 -> 16 -> 3). ``dead``: random
    weights and biases, but one unit per extractor layer has zero weights
    and bias, so its pre-activation is exactly zero on every row. ``zero``:
    every extractor weight and bias is zero."""
    net = MlpNetwork(2, (64, 64), 16, 3, Rng(21))
    rng = Rng(22)
    for i, (w, b) in enumerate(zip(net.ext_w, net.ext_b)):
        if kind == "zero":
            w[...] = 0.0
            b[...] = 0.0
        else:
            b[...] = 0.5 * rng.standard_normal(b.shape)
            w[:, i] = 0.0
            b[i] = 0.0
    net.cls_b[...] = rng.standard_normal(3)
    return net


@pytest.mark.parametrize("kind", ["dead", "zero"])
@pytest.mark.parametrize("n", [1, 128, 1200, 20000])
def test_forward_and_backward_match_out_of_place_oracle(n, kind):
    net = oracle_net(kind)
    rng = Rng(23 + n)
    x = 3.0 * rng.standard_normal((n, 2))
    x[: max(1, n // 10)] = 0.0  # rows whose first pre-activations are the biases
    x.flags.writeable = False  # a write into the input would raise
    before = x.tobytes()
    dlogits = rng.standard_normal((n, 3))

    cache = net.forward(x)
    pres, feats, logits = oracle_forward(net, x)
    assert x.tobytes() == before
    assert cache.logits.tobytes() == logits.tobytes()
    assert cache.feats.tobytes() == feats.tobytes()
    for act, pre in zip(cache.acts, pres):
        assert act.tobytes() == np.maximum(pre, 0.0).tobytes()
        assert np.array_equal(act > 0.0, pre > 0.0)

    tape = GradientTape(net)
    net.backward(cache, tape, dlogits)
    expected = oracle_backward(net, x, pres, feats, dlogits)
    assert tape.grads.keys() == expected.grads.keys()
    for name, g in expected.grads.items():
        assert tape.grads[name].tobytes() == g.tobytes(), name


@pytest.mark.parametrize("threads", [1, 2])
def test_forward_into_workspace_equals_fresh_forward_bitwise(threads):
    # forward(x, out=ws) writes each layer into the first n rows of the
    # workspace, with the same bits as the fresh arrays of forward(x); rows
    # past n and values left there by an earlier call play no part
    net = oracle_net("dead")
    ws = net.workspace(4096)
    for buf in ws:
        buf.fill(np.nan)
    rng = Rng(24)
    before = training_mod._set_blas_threads(threads)
    try:
        for n in (1, 7, 8, 600, 4096):
            x = 3.0 * rng.standard_normal((n, 2))
            want, got = net.forward(x), net.forward(x, out=ws)
            assert got.logits.tobytes() == want.logits.tobytes(), n
            assert len(got.acts) == len(want.acts) == len(ws) - 1
            for act, fresh, buf in zip(got.acts, want.acts, ws):
                assert act.tobytes() == fresh.tobytes(), n
                assert np.shares_memory(act, buf)
            assert np.shares_memory(got.logits, ws[-1])
    finally:
        if before is not None:
            training_mod._set_blas_threads(before)


# ---- a whole training step, against an out-of-place, per-parameter oracle -------

def oracle_cross_entropy(logits, ys):
    n = logits.shape[0]
    m = logits.max(axis=1, keepdims=True)
    tot = np.exp(logits - m).sum(axis=1)
    logp = logits - m - np.log(tot)[:, None]
    dlogits = np.exp(logp)
    dlogits[np.arange(n), ys] -= 1.0
    return float(-logp[np.arange(n), ys].mean()), dlogits / n


def oracle_energy_gradients(net, logits):
    m = logits.max(axis=1)
    s = net.energy_w * np.exp(logits - m[:, None])
    tot = s.sum(axis=1)
    return -(m + np.log(tot)), -s / tot[:, None]


def oracle_divergence_terms(net, logits, cls_loss, dlogits, v_pts, cfg, tape):
    """The divergence term with fresh arrays throughout and every gradient
    through ``tape.add``."""
    e_id, dedz_id = oracle_energy_gradients(net, logits)
    e_v, dedz_v = oracle_energy_gradients(net, v_pts @ net.cls_w + net.cls_b)
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


def oracle_sgd_step(net, tape, lr):
    """One update and one zeroing per parameter tensor."""
    for name, p in net.params().items():
        p -= lr * tape.grads[name]
    net.version += 1
    for g in tape.grads.values():
        g[...] = 0.0


@pytest.mark.parametrize("loss_kind", ["jsd", "ce", "nce"])
def test_training_steps_match_out_of_place_oracle(loss_kind):
    net = oracle_net("dead")
    ref = RunState.of(net, 0).network()
    tape, ref_tape = GradientTape(net), GradientTape(ref)
    cfg = TrainConfig(beta=0.5, loss_kind=loss_kind)
    rng = Rng(24)
    for step in range(5):
        x = 3.0 * rng.standard_normal((128, 2))
        x[:10] = 0.0
        y = rng.integers(0, 3, 128)
        v_pts = None if step == 0 else 4.0 * rng.standard_normal((128, 16))  # a warmup step first
        lr = 0.05 / (step + 1)

        cache, cls_loss, dis, total, dlogits = batch_terms(net, x, y, cfg, tape, v_pts)
        net.backward(cache, tape, dlogits)
        grads = {name: g.copy() for name, g in tape.grads.items()}
        sgd_step(net, tape, lr)

        pres, feats, logits = oracle_forward(ref, x)
        want_cls, want_dlogits = oracle_cross_entropy(logits, y)
        want_dis, want_total = 0.0, want_cls
        if v_pts is not None:
            want_dis, want_total, want_dlogits = oracle_divergence_terms(
                ref, logits, want_cls, want_dlogits, v_pts, cfg, ref_tape
            )
        oracle_backward(ref, x, pres, feats, want_dlogits, ref_tape)
        want_grads = {name: g.copy() for name, g in ref_tape.grads.items()}
        oracle_sgd_step(ref, ref_tape, lr)

        assert (cls_loss, dis, total) == (want_cls, want_dis, want_total)
        assert grads.keys() == want_grads.keys()
        for name, g in want_grads.items():
            assert grads[name].tobytes() == g.tobytes(), (step, name)
        for name, p in ref.params().items():
            assert net.params()[name].tobytes() == p.tobytes(), (step, name)
        assert not tape.flat.any()


def _assert_views_of_flat(net):
    params = net.params()
    assert sum(p.size for p in params.values()) == net.flat.size
    for name, p in params.items():
        assert np.shares_memory(p, net.flat), name


def test_parameters_and_gradients_are_views_of_one_vector(tmp_path):
    net = oracle_net("dead")
    _assert_views_of_flat(net)
    assert net.params()["cls_w"] is net.cls_w and net.params()["head_w"].shape == ()
    tape = GradientTape(net)
    assert tape.flat.shape == net.flat.shape
    for name, g in tape.grads.items():
        assert g.shape == net.params()[name].shape and np.shares_memory(g, tape.flat), name

    state = RunState.of(net, 3)
    for name, p in state.params.items():
        assert not np.shares_memory(p, net.flat), name
    copy = state.network()
    _assert_views_of_flat(copy)
    assert copy.flat.tobytes() == net.flat.tobytes()
    save_checkpoint(state, tmp_path / "ckpt.json")
    loaded = load_checkpoint(tmp_path / "ckpt.json").network()
    _assert_views_of_flat(loaded)
    assert loaded.flat.tobytes() == net.flat.tobytes()


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


def random_case(loss_kind):
    """A fresh network with random energy weights, a random batch and
    random virtual outliers."""
    net = small_net(seed=9, input_dim=3, hidden=(5,), feature_dim=4, k=3)
    rng = Rng(10)
    net.energy_u[...] = 0.2 * rng.standard_normal(3)
    xb = rng.standard_normal((8, 3))
    yb = rng.integers(0, 3, 8)
    v_pts = rng.standard_normal((8, 4)) * 2.0
    return net, xb, yb, v_pts, TrainConfig(beta=0.1, loss_kind=loss_kind)


def trained_case(loss_kind):
    """The network a short train() run ends with, a batch of its inliers,
    the virtual outliers of its last joint epoch, and the beta its warmup
    ramp reached at the last step (6 of 12 ramp steps)."""
    bundle = make_bundle({"n_train": 60, "n_test": 30, "n_ood": 30, "ood_sets": "ring"}, seed=2)
    cfg = TrainConfig(total_epochs=3, pretrain_epochs=1, batch_size=20, hidden_dims=(5,),
                      feature_dim=4, beta_warmup_epochs=4, seed=3, loss_kind=loss_kind)
    net, log = train(cfg, bundle)
    v_pts = log.state.virtual[:8]
    xb, yb = bundle.id_train.x[:8], bundle.id_train.y[:8]
    return net, xb, yb, v_pts, cfg.replace(beta=cfg.beta * 6 / 12)


@pytest.mark.parametrize("case, loss_kind", [
    pytest.param(random_case, "jsd", id="jsd"),
    pytest.param(random_case, "ce", id="ce"),
    pytest.param(random_case, "nce", id="nce"),
    pytest.param(trained_case, "jsd", id="trained-ramp"),
])
def test_gradcheck_composite(case, loss_kind):
    net, xb, yb, v_pts, cfg = case(loss_kind)

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
    """A run state; in the joint phase it carries a joint start and a
    (5, feature_dim) virtual-outlier batch."""
    net = small_net(seed)
    net.energy_u[...] = Rng(seed + 1).standard_normal(3)
    joint_start = small_net(seed + 2).params() if joint else None
    virtual = Rng(seed + 3).standard_normal((5, 4)) * 1e3 if joint else None
    return RunState.of(net, epoch, joint_start, virtual)


def test_checkpoint_round_trip_bit_exact(tmp_path):
    for joint in (True, False):
        state = _run_state(14, 17, joint)
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        loaded = load_checkpoint(path)
        assert loaded.epoch == 17 and loaded.arch == state.arch
        assert (loaded.joint_start is None) == (not joint)
        assert (loaded.virtual is None) == (not joint)
        for name, p in state.params.items():
            assert np.array_equal(p, loaded.network().params()[name])
            if joint:
                assert np.array_equal(state.joint_start[name], loaded.joint_start[name])
        if joint:
            assert loaded.virtual.shape == (5, 4)
            assert np.array_equal(state.virtual, loaded.virtual)
        doc = json.loads(path.read_text())  # keys in file order: sorted, virtual last
        assert doc["version"] == 3 and list(doc)[-2:] == ["version", "virtual"]
        path2 = tmp_path / "ckpt2.json"
        save_checkpoint(loaded, path2)
        assert path.read_bytes() == path2.read_bytes()



def test_run_state_is_a_copy():
    net = small_net(3)
    virtual = np.ones((2, 4))
    state = RunState.of(net, 2, virtual=virtual)
    net.cls_b[...] += 1.0
    virtual[...] = 0.0
    assert not np.array_equal(state.params["cls_b"], net.cls_b)
    assert np.array_equal(state.network().cls_b, net.cls_b - 1.0)
    assert np.all(state.virtual == 1.0)


def test_checkpoint_bytes_equal_streamed_json(tmp_path):
    # the one-call writer gives the bytes json.dump streams out
    for joint in (True, False):
        state = _run_state(15, 9, joint)
        state.params["cls_w"].reshape(-1)[:4] = [-0.0, 5e-324, -1.7976931348623157e308, 0.1]
        path = tmp_path / "ckpt.json"
        save_checkpoint(state, path)
        reference = tmp_path / "streamed.json"
        with open(reference, "w", encoding="utf-8") as fh:
            json.dump(json.loads(path.read_text()), fh, sort_keys=True, separators=(",", ":"))
            fh.write("\n")
        assert path.read_bytes() == reference.read_bytes()


def test_checkpoint_shape_mismatch(tmp_path):
    path = tmp_path / "ckpt.json"
    save_checkpoint(_run_state(0, 1), path)
    for block in ("params", "joint_start"):
        doc = json.loads(path.read_text())
        doc[block]["cls_b"] = {"shape": [1], "data": [0.0]}
        bad = tmp_path / f"bad_{block}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match="cls_b"):
            load_checkpoint(bad)
    # the virtual batch is (n, feature_dim) = (n, 4), and its shape must fit its data
    for name, block in {
        "wide": {"shape": [1, 5], "data": [0.0] * 5},
        "flat": {"shape": [4], "data": [0.0] * 4},
        "short": {"shape": [2, 4], "data": [0.0] * 4},
        "ragged": {"shape": [1, 4], "data": [0.0] * 5},
        "negative": {"shape": [-1, 4], "data": [0.0] * 8},
    }.items():
        doc = json.loads(path.read_text())
        doc["virtual"] = block
        bad = tmp_path / f"bad_virtual_{name}.json"
        bad.write_text(json.dumps(doc))
        with pytest.raises(ConfigError, match=f"bad_virtual_{name}.json: malformed"):
            load_checkpoint(bad)


@pytest.mark.parametrize("field, value", [
    ("input_dim", 0),
    ("hidden_dims", [5, -1]),
    ("feature_dim", 0),
    ("feature_dim", 2.5),
    ("n_classes", 1),
], ids=["input_dim", "hidden_dims", "feature_dim", "feature_dim-float", "n_classes"])
def test_checkpoint_rejects_bad_architecture(tmp_path, field, value):
    path = tmp_path / "ckpt.json"
    save_checkpoint(_run_state(0, 1), path)
    doc = json.loads(path.read_text())
    doc["arch"][field] = value
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError, match=f"ckpt.json: malformed checkpoint \\(arch {field}"):
        load_checkpoint(path)


def test_checkpoint_rejects_other_files(tmp_path):
    save_checkpoint(_run_state(0, 1), tmp_path / "ckpt.json")
    v2 = json.loads((tmp_path / "ckpt.json").read_text())
    del v2["virtual"]
    v2["version"] = 2
    v1 = dict(v2, version=1)
    del v1["joint_start"]
    cases = {
        "missing.json": None,
        "v1.json": json.dumps(v1),
        "v2.json": json.dumps(v2),
        "points.csv": "# ares-points id dim=2\nx0,x1,label\n0.0,1.0,0\n",
        "list.json": "[1, 2]",
        "truncated.json": (tmp_path / "ckpt.json").read_text()[:50],
    }
    for name, text in cases.items():
        if text is not None:
            (tmp_path / name).write_text(text)
        with pytest.raises(ConfigError, match=name):
            load_checkpoint(tmp_path / name)
    for version in (1, 2):
        with pytest.raises(ConfigError, match=f"version {version} .*retrain to write one"):
            load_checkpoint(tmp_path / f"v{version}.json")
