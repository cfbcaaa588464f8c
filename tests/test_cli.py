import json
import os
import shutil
import time

import pytest

import numpy as np

import ares.evaluation as eval_mod
import ares.training as training_mod
from ares.cli import _load_bundle, main
from ares.datagen import load_points_csv, make_bundle, save_points_csv
from ares.evaluation import auroc, fpr95, score_bundle
from ares.losses import write_energy_histogram_csv
from ares.network import MlpNetwork, RunState, energy_score_batch, load_checkpoint, save_checkpoint
from ares.rng import Rng

SMOKE_CONFIG = """
[data]
n_train = 150
n_test = 60
n_ood = 60

[train]
total_epochs = 8
pretrain_epochs = 3
batch_size = 30
beta_warmup_epochs = 2
seed = 11
"""


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    """One generated dataset + one trained run, reused across CLI tests."""
    root = tmp_path_factory.mktemp("smoke")
    cfg = root / "run.ini"
    cfg.write_text(SMOKE_CONFIG)
    data_dir = root / "data"
    out_dir = root / "train"
    assert main(["gen", "--config", str(cfg), "--out", str(data_dir)]) == 0
    assert main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out_dir)]) == 0
    return cfg, data_dir, out_dir


def test_gen_writes_consistent_files(smoke):
    _, data_dir, _ = smoke
    names = sorted(os.listdir(data_dir))
    assert "id_train.csv" in names and "id_test.csv" in names and "aux.csv" in names
    ood = [n for n in names if n.startswith("ood_")]
    assert len(ood) >= 3
    dims = set()
    for name in names:
        if name.endswith(".csv"):
            _, _, meta = load_points_csv(data_dir / name)
            dims.add(meta["dim"])
    assert dims == {"2"}
    # each point file has its binary copy, and the manifest lists both
    points = [n for n in names if n.endswith(".csv")]
    assert sorted(n for n in names if n.endswith(".bin")) == [n + ".bin" for n in points]
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["artifacts"] == sorted(names)


def test_gen_idempotent_bytes(smoke, tmp_path):
    cfg, data_dir, _ = smoke
    second = tmp_path / "data2"
    assert main(["gen", "--config", str(cfg), "--out", str(second)]) == 0
    for name in sorted(os.listdir(data_dir)):
        if name == "manifest.json":
            continue  # carries a timestamp by design
        assert (data_dir / name).read_bytes() == (second / name).read_bytes()


def test_gen_unknown_generator_names_field(tmp_path, capsys):
    cfg = tmp_path / "bad.ini"
    cfg.write_text("[data]\ngenerator = spiral\n")
    rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 2
    assert "spiral" in capsys.readouterr().err


def test_unknown_config_key_rejected(tmp_path, capsys):
    # feature_refresh, n_mix, reescape_each_epoch and debug_gradcheck are
    # keys of training modes that no longer exist; t_rank set the threshold
    # of the histogram pool that ares eval no longer builds; m_candidates
    # capped a candidate pool that never held more than n_train points
    cases = [
        ("train", "learning_rate", "0.1"),
        ("train", "feature_refresh", "epoch"),
        ("train", "n_mix", "8"),
        ("escape", "reescape_each_epoch", "true"),
        ("train", "t_rank", "128"),
        ("eval", "t_rank", "128"),
        ("train", "debug_gradcheck", "true"),
        ("train", "m_candidates", "10000"),
    ]
    for section, key, value in cases:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        rc = main(["gen", "--config", str(cfg), "--out", str(tmp_path / "out")])
        assert rc == 2, key
        assert key in capsys.readouterr().err


def test_bad_config_value_rejected_at_resolve(tmp_path, capsys):
    # every section is validated before any command runs, so an [escape]
    # value that only training reads already fails in gen
    cases = [
        ("data", "n_train", "abc"),
        ("data", "k", "1"),
        ("data", "n_test", "10"),  # the 95%-TPR gate needs 20 inlier scores
        ("escape", "max_iters", "5"),
        ("escape", "alpha1", "0"),
        ("train", "feature_dim", "0"),
        ("train", "hidden_dims", "64,0"),
        ("train", "beta", "-1"),
        ("train", "ridge_scale", "0"),
        ("train", "ridge_scale", "-1"),
        ("train", "pretrain_epochs", "-3"),
        ("train", "alpha2", "inf"),
        ("train", "nce_temperature", "0"),
        ("train", "lr_start", "inf"),
        # non-finite values: each failed only inside numerics, generation or training
        ("escape", "alpha1", "inf"),
        ("train", "beta", "inf"),
        ("data", "ring_outer", "nan"),
        ("data", "spread", "inf"),
        ("data", "box_low", "-inf"),
        # generator-specific shapes: moons2d needs k = d = 2, rings d = 2
        ("data", "generator", "moons2d"),
        ("data", "generator", "rings\nd = 3"),
    ]
    data = str(tmp_path / "no-data")  # never read: resolving fails first
    commands = [
        ["gen"],
        ["train", "--data", data],
        ["eval", "--data", data, "--checkpoint", str(tmp_path / "no.json")],
        ["ablate", "--data", data],
    ]
    for section, key, value in cases:
        cfg = tmp_path / "bad.ini"
        cfg.write_text(f"[{section}]\n{key} = {value}\n")
        for command in commands:
            rc = main(command + ["--config", str(cfg), "--out", str(tmp_path / "out")])
            assert rc == 2, (command[0], key, value)
            assert f"[{section}] {key}" in capsys.readouterr().err
            assert not (tmp_path / "out").exists()


def test_library_bundle_matches_gen_defaults(tmp_path):
    # make_bundle's defaults are the CLI's: same world, same bytes
    assert main(["gen", "--seed", "3", "--out", str(tmp_path / "cli")]) == 0
    bundle = make_bundle({}, seed=3)
    lib = tmp_path / "lib"
    lib.mkdir()
    k = bundle.id_train.n_classes
    save_points_csv(lib / "id_train.csv", bundle.id_train.x, bundle.id_train.y, "id", k)
    save_points_csv(lib / "id_test.csv", bundle.id_test.x, bundle.id_test.y, "id", k)
    save_points_csv(lib / "aux.csv", bundle.aux, None, "aux", 0)
    for name, pts in bundle.ood_eval.items():
        save_points_csv(lib / f"ood_{name}.csv", pts, None, "ood", 0)
    names = sorted(p.name for p in (tmp_path / "cli").glob("*.csv*"))  # with the .csv.bin copies
    assert names == sorted(p.name for p in lib.glob("*.csv*"))
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (lib / name).read_bytes(), name


def test_train_artifacts_and_progress(smoke, capsys):
    _, _, out_dir = smoke
    for name in ("checkpoint.json", "train_log.csv", "train_timings.csv", "manifest.json"):
        assert (out_dir / name).exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["seed"] == 11
    state = load_checkpoint(out_dir / "checkpoint.json")
    assert state.epoch == 8
    assert state.joint_start is not None


def test_train_smoke_budget(smoke, tmp_path):
    cfg, data_dir, _ = smoke
    t0 = time.time()
    assert main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "t")]) == 0
    assert time.time() - t0 < 30.0


def test_train_stage_mask_recorded(smoke, tmp_path):
    cfg, data_dir, _ = smoke
    out = tmp_path / "masked"
    assert main([
        "train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out),
        "--stage-mask", "no-escape",
    ]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["resolved_config"]["train"]["stage_escape"] == "false"


def test_train_missing_data_errors(smoke, tmp_path, capsys):
    cfg, _, _ = smoke
    rc = main(["train", "--config", str(cfg), "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "o")])
    assert rc == 2
    assert "id_train.csv" in capsys.readouterr().err


@pytest.mark.parametrize("k, what", [(3, "label 7 is not below the header's classes=3"),
                                     ("three", "header classes='three' is not an integer")],
                         ids=["label-not-below-classes", "classes-not-integer"])
def test_train_rejects_label_outside_header_classes(smoke, tmp_path, capsys, k, what):
    # the file is saved with its binary copy, so the check runs on the copy's table
    cfg, data_dir, _ = smoke
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    x, y, _ = load_points_csv(data / "id_train.csv")
    y[5] = 7
    save_points_csv(data / "id_train.csv", x, y, "id", k)
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert f"id_train.csv: {what}" in capsys.readouterr().err
    assert not out.exists()


def test_train_rejects_class_missing_from_header(smoke, tmp_path, capsys):
    # the network's class count comes from the labels: a declared class that
    # no training row uses must stop the run, not train a narrower network
    cfg, data_dir, _ = smoke
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    x, y, _ = load_points_csv(data / "id_train.csv")
    y[y == 2] = 1
    save_points_csv(data / "id_train.csv", x, y, "id", 3)
    out = tmp_path / "out"
    rc = main(["train", "--config", str(cfg), "--data", str(data), "--out", str(out)])
    assert rc == 2
    assert "id_train.csv: no row has label(s) [2] of the header's classes=3" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("name, value", [("ood_ring", np.inf), ("aux", np.nan), ("id_test", -np.inf)])
def test_non_finite_coordinate_exits_before_output(smoke, tmp_path, capsys, name, value):
    # the point file round-trips the value exactly; train and eval refuse it
    # before writing anything, instead of failing inside training or scoring
    cfg, data_dir, out_dir = smoke
    data = tmp_path / "data"
    shutil.copytree(data_dir, data)
    x, y, meta = load_points_csv(data / f"{name}.csv")
    x[5, 1] = value
    save_points_csv(data / f"{name}.csv", x, y, meta["role"], int(meta.get("classes", 0)))
    assert np.array_equal(load_points_csv(data / f"{name}.csv")[0], x, equal_nan=True)
    for command in (["train"], ["eval", "--checkpoint", str(out_dir / "checkpoint.json")]):
        out = tmp_path / command[0]
        rc = main(command + ["--config", str(cfg), "--data", str(data), "--out", str(out)])
        assert rc == 2, command[0]
        assert f"{name}.csv: every coordinate must be finite" in capsys.readouterr().err
        assert not out.exists()


def test_train_determinism_bytes(smoke, tmp_path):
    cfg, data_dir, _ = smoke
    a = tmp_path / "a"
    b = tmp_path / "b"
    for out in (a, b):
        assert main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out)]) == 0
    for name in ("checkpoint.json", "train_log.csv"):
        assert (a / name).read_bytes() == (b / name).read_bytes()


def test_resume_continues_numbering(smoke, tmp_path):
    cfg, data_dir, out_dir = smoke
    resumed = tmp_path / "resumed"
    # config trains 8 epochs; resuming from its checkpoint is a no-op unless
    # the budget grows, so extend via a copy of the config
    cfg2 = tmp_path / "extended.ini"
    cfg2.write_text(SMOKE_CONFIG.replace("total_epochs = 8", "total_epochs = 10"))
    assert main([
        "train", "--config", str(cfg2), "--data", str(data_dir), "--out", str(resumed),
        "--resume", str(out_dir / "checkpoint.json"),
    ]) == 0
    log = (resumed / "train_log.csv").read_text().strip().split("\n")
    epochs = [int(line.split(",")[0]) for line in log[1:]]
    assert epochs == [8, 9]


def test_eval_artifacts_and_consistency(smoke, tmp_path):
    cfg, data_dir, out_dir = smoke
    eval_dir = tmp_path / "eval"
    assert main([
        "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoint.json"),
        "--data", str(data_dir), "--out", str(eval_dir),
    ]) == 0
    report = json.loads((eval_dir / "report.json").read_text())
    # recompute one metric pair directly from the artifacts
    net = load_checkpoint(out_dir / "checkpoint.json").network()
    x_test, _, _ = load_points_csv(data_dir / "id_test.csv")
    ring, _, _ = load_points_csv(data_dir / "ood_ring.csv")
    id_scores = energy_score_batch(net, net.forward(x_test).logits)
    ring_scores = energy_score_batch(net, net.forward(ring).logits)
    assert report["per_set"]["ring"]["auroc"] == pytest.approx(auroc(id_scores, ring_scores), abs=0)
    assert report["per_set"]["ring"]["fpr95"] == pytest.approx(fpr95(id_scores, ring_scores), abs=0)
    header = (eval_dir / "report.csv").read_text().split("\n")[0]
    assert header.startswith("variant,seed,gamma")
    # the report has no stage times, so the table has no stage-time columns
    assert header.endswith(",average_fpr95,average_auroc,average_auroc_oriented,error")
    assert not [col for col in header.split(",") if col.endswith("_s")]
    hist = (eval_dir / "energy_hist.csv").read_text().strip().split("\n")
    assert hist[0] == "bin_left,bin_right,count_id,count_ood,count_virtual"
    assert len(hist) == 51
    assert "scores" not in report


def test_eval_report_same_without_copies(smoke, tmp_path):
    # the binary copies only skip the text parse: without them, ares eval
    # parses every CSV, writes the same report.json, and writes no copy back
    cfg, data_dir, out_dir = smoke
    bare = tmp_path / "bare"
    shutil.copytree(data_dir, bare, ignore=shutil.ignore_patterns("*.bin"))
    for data, ev in ((data_dir, tmp_path / "e"), (bare, tmp_path / "eb")):
        assert main([
            "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoint.json"),
            "--data", str(data), "--out", str(ev),
        ]) == 0
    assert (tmp_path / "e" / "report.json").read_bytes() == (tmp_path / "eb" / "report.json").read_bytes()
    assert not list(bare.glob("*.bin"))


def test_eval_scores_each_set_once(smoke, tmp_path, monkeypatch):
    # the histogram reuses the scores evaluate() computed for the metrics
    cfg, data_dir, out_dir = smoke
    real, calls = eval_mod.score_bundle, []

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(eval_mod, "score_bundle", counting)
    assert main([
        "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoint.json"),
        "--data", str(data_dir), "--out", str(tmp_path / "eval"),
    ]) == 0
    assert len(calls) == 1


def test_eval_missing_checkpoint(smoke, tmp_path, capsys):
    cfg, data_dir, _ = smoke
    rc = main([
        "eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "none.json"),
        "--data", str(data_dir), "--out", str(tmp_path / "e"),
    ])
    assert rc == 2
    assert "none.json" in capsys.readouterr().err


def test_eval_rejects_non_checkpoint(smoke, tmp_path, capsys):
    cfg, data_dir, _ = smoke
    rc = main([
        "eval", "--config", str(cfg), "--checkpoint", str(data_dir / "aux.csv"),
        "--data", str(data_dir), "--out", str(tmp_path / "e"),
    ])
    assert rc == 2
    assert "aux.csv" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_eval_rejects_zero_width_checkpoint(smoke, tmp_path, capsys):
    cfg, data_dir, out_dir = smoke
    doc = json.loads((out_dir / "checkpoint.json").read_text())
    doc["arch"]["feature_dim"] = 0
    (tmp_path / "zero.json").write_text(json.dumps(doc))
    rc = main([
        "eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "zero.json"),
        "--data", str(data_dir), "--out", str(tmp_path / "e"),
    ])
    assert rc == 2
    assert "zero.json: malformed checkpoint (arch feature_dim = 0" in capsys.readouterr().err
    assert not (tmp_path / "e").exists()


def test_non_finite_parameter_exits_before_output(smoke, tmp_path, capsys):
    # a NaN parameter once reached choose_gamma as 20000 non-finite scores,
    # after manifest.json was written; eval and train --resume refuse it first
    cfg, data_dir, out_dir = smoke
    doc = json.loads((out_dir / "checkpoint.json").read_text())
    doc["params"]["cls_b"]["data"][0] = float("nan")
    bad = tmp_path / "nan.json"
    bad.write_text(json.dumps(doc))
    for command in (["eval", "--checkpoint", str(bad)], ["train", "--resume", str(bad)]):
        out = tmp_path / command[0]
        rc = main(command + ["--config", str(cfg), "--data", str(data_dir), "--out", str(out)])
        assert rc == 2, command[0]
        err = capsys.readouterr().err
        assert "nan.json: malformed checkpoint (parameter cls_b holds a non-finite value)" in err, err
        assert not out.exists(), command[0]


def test_resume_bad_checkpoint_exits_before_output(smoke, tmp_path, capsys):
    cfg, data_dir, out_dir = smoke
    doc = json.loads((out_dir / "checkpoint.json").read_text())
    v2 = {key: value for key, value in doc.items() if key != "virtual"}
    v2["version"] = 2
    (tmp_path / "v2.json").write_text(json.dumps(v2))
    v1 = {key: value for key, value in v2.items() if key != "joint_start"}
    v1["version"] = 1
    (tmp_path / "v1.json").write_text(json.dumps(v1))
    # the smoke run trains 8 epochs
    for epoch in (500, -1):
        (tmp_path / f"epoch{epoch}.json").write_text(json.dumps(dict(doc, epoch=epoch)))
    (tmp_path / "notes.json").write_text("not a checkpoint\n")
    # a 3-d network against the smoke world's 2-d points
    save_checkpoint(RunState.of(MlpNetwork(3, (64, 64), 16, 3, Rng(0)), 8), tmp_path / "d3.json")
    cases = {
        "missing.json": "missing checkpoint",
        "notes.json": "not a checkpoint",
        "aux.csv": "not a checkpoint",
        "v1.json": "version 1",
        "v2.json": "version 2",
        "d3.json": "3-d inputs but data is 2-d",
        "epoch500.json": "epoch: 500 is outside [0, total_epochs = 8]",
        "epoch-1.json": "malformed checkpoint (epoch = -1 is not a non-negative integer)",
    }
    for name, why in cases.items():
        path = data_dir / name if name == "aux.csv" else tmp_path / name
        out = tmp_path / "out"
        rc = main([
            "train", "--config", str(cfg), "--data", str(data_dir), "--out", str(out),
            "--resume", str(path),
        ])
        assert rc == 2, name
        err = capsys.readouterr().err
        assert str(path) in err and why in err, (name, err)
        assert not out.exists(), name


# the smoke run's network is (64, 64)/16 on 2-d points with 3 classes
@pytest.mark.parametrize("field, arch, ini", [
    ("input_dim", (3, (64, 64), 16, 3), ""),
    ("hidden_dims", (2, (64, 64), 16, 3), "hidden_dims = 8\n"),
    ("feature_dim", (2, (64, 64), 16, 3), "feature_dim = 4\n"),
    ("n_classes", (2, (64, 64), 16, 4), ""),
], ids=["input_dim", "hidden_dims", "feature_dim", "n_classes"])
def test_resume_other_architecture_exits_before_output(smoke, tmp_path, capsys, field, arch, ini):
    cfg, data_dir, _ = smoke
    other_cfg = tmp_path / "other.ini"
    other_cfg.write_text(cfg.read_text().replace("[train]\n", "[train]\n" + ini))
    ckpt = tmp_path / "state.json"
    save_checkpoint(RunState.of(MlpNetwork(*arch, Rng(0)), 8), ckpt)
    out = tmp_path / "out"
    rc = main([
        "train", "--config", str(other_cfg), "--data", str(data_dir), "--out", str(out),
        "--resume", str(ckpt),
    ])
    assert rc == 2
    err = capsys.readouterr().err
    assert str(ckpt) in err and f"{field}:" in err, err
    assert not out.exists()


# pretrain epochs 0-2, beta ramp over epochs 3-4 (smoke config), joint to 7
@pytest.mark.parametrize("at", [2, 4, 7], ids=["pretrain", "warmup-ramp", "late-joint"])
def test_cli_resume_is_exact(smoke, tmp_path, monkeypatch, at):
    # interrupt the smoke run at the first batch of epoch ``at``, resume from
    # the last-good checkpoint it leaves, and compare with the smoke run
    cfg, data_dir, out_dir = smoke
    real = training_mod.cross_entropy_batch
    calls = {"n": 0}

    def poisoned(logits, ys):
        calls["n"] += 1
        loss, dlogits = real(logits, ys)
        return (float("nan") if calls["n"] == at * 5 + 1 else loss), dlogits  # 150 / 30 batches

    cut = tmp_path / "cut"
    with monkeypatch.context() as m:
        m.setattr(training_mod, "cross_entropy_batch", poisoned)
        assert main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(cut)]) == 1
    resumed = tmp_path / "resumed"
    assert main([
        "train", "--config", str(cfg), "--data", str(data_dir), "--out", str(resumed),
        "--resume", str(cut / "last_good_checkpoint.json"),
    ]) == 0
    full_rows = (out_dir / "train_log.csv").read_text().split("\n")
    resumed_rows = (resumed / "train_log.csv").read_text().split("\n")
    assert resumed_rows[0] == full_rows[0]
    assert resumed_rows[1:] == full_rows[1 + at :]
    assert (resumed / "checkpoint.json").read_bytes() == (out_dir / "checkpoint.json").read_bytes()


def _must_not_run(*args, **kwargs):
    raise AssertionError("ares eval ran the synthesis pipeline")


# (what the config file adds to [train], train's --stage-mask, whether eval gets the config)
@pytest.mark.parametrize("ini, mask, eval_config", [
    ("stage_estimation = true\n", None, True),
    ("stage_estimation = false\n", None, True),
    ("", "no-estimation", True),
    ("", "no-estimation", False),
], ids=["full", "no-estimation", "mask-plain-config", "mask-no-config"])
def test_eval_histogram_shows_training_outliers(smoke, tmp_path, monkeypatch, ini, mask, eval_config):
    # energy_hist.csv's virtual column holds the outliers training drew for
    # the first batch of its last joint epoch, scored by the final network;
    # the checkpoint carries them, so eval needs neither the training config
    # nor any of the synthesis code
    _, data_dir, _ = smoke
    cfg = tmp_path / "run.ini"
    cfg.write_text(SMOKE_CONFIG + ini)
    drawn = {}  # epoch -> the outlier draws of its batches, in order
    epoch = []  # the epoch _train_epoch is training
    real_draw = training_mod._SynthesisState.draw_outliers
    real_epoch = training_mod._train_epoch

    def train_epoch(cfg, state, *rest):
        epoch[:] = [state.epoch]
        return real_epoch(cfg, state, *rest)

    def draw(self, b_eff):
        pts = real_draw(self, b_eff)
        drawn.setdefault(epoch[0], []).append(pts.copy())
        return pts

    run = tmp_path / "run"
    with monkeypatch.context() as m:
        m.setattr(training_mod, "_train_epoch", train_epoch)
        m.setattr(training_mod._SynthesisState, "draw_outliers", draw)
        assert main([
            "train", "--config", str(cfg), "--data", str(data_dir), "--out", str(run),
            *(["--stage-mask", mask] if mask else []),
        ]) == 0
    ev = tmp_path / "eval"
    with monkeypatch.context() as m:
        m.setattr(training_mod, "escape_dataset", _must_not_run)
        m.setattr(training_mod, "_SynthesisState", _must_not_run)
        assert main([
            "eval", *(["--config", str(cfg)] if eval_config else []),
            "--checkpoint", str(run / "checkpoint.json"), "--data", str(data_dir), "--out", str(ev),
        ]) == 0
    state = load_checkpoint(run / "checkpoint.json")
    net = state.network()
    virtual = drawn[7][0]
    assert len(virtual) == 30
    assert np.array_equal(state.virtual, virtual)
    id_scores, ood_scores = score_bundle(net, _load_bundle(data_dir))
    write_energy_histogram_csv(
        tmp_path / "expected.csv",
        id_scores,
        np.concatenate(list(ood_scores.values())),
        energy_score_batch(net, virtual @ net.cls_w + net.cls_b),
        n_bins=50,
    )
    assert (ev / "energy_hist.csv").read_bytes() == (tmp_path / "expected.csv").read_bytes()


def test_eval_dimension_mismatch(smoke, tmp_path, capsys):
    cfg, data_dir, out_dir = smoke
    other = tmp_path / "data3"
    cfg3 = tmp_path / "d3.ini"
    cfg3.write_text("[data]\nd = 3\nn_train = 90\nn_test = 60\nn_ood = 30\nood_sets = ring\n")
    assert main(["gen", "--config", str(cfg3), "--out", str(other)]) == 0
    rc = main([
        "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoint.json"),
        "--data", str(other), "--out", str(tmp_path / "e2"),
    ])
    assert rc == 2
    assert "2-d" in capsys.readouterr().err or "3-d" in capsys.readouterr().err


def test_ablate_only_losses(smoke, tmp_path):
    cfg, data_dir, _ = smoke
    out = tmp_path / "abl"
    assert main([
        "ablate", "--config", str(cfg), "--data", str(data_dir), "--out", str(out),
        "--only", "losses",
    ]) == 0
    lines = (out / "ablation_report.csv").read_text().strip().split("\n")
    assert len(lines) == 4  # header + 3 variants
    assert {line.split(",")[0] for line in lines[1:]} == {"loss-ce", "loss-nce", "loss-jsd"}


def test_ablate_default_matrix(smoke, tmp_path):
    cfg, data_dir, _ = smoke
    out = tmp_path / "abl9"
    assert main(["ablate", "--config", str(cfg), "--data", str(data_dir), "--out", str(out)]) == 0
    lines = (out / "ablation_report.csv").read_text().strip().split("\n")
    assert len(lines) == 10  # header + 9 variants
    stage_cols = ["escape_s", "expansion_s", "estimation_s", "divergence_s", "step_s", "accuracy_s"]
    assert lines[0].split(",")[-7:] == stage_cols + ["error"]


REPORT_KEYS = {"variant", "seed", "gamma", "per_set", "average", "stage_times", "error"}


def test_report_keys(smoke, tmp_path):
    # report.json and each ablation_report.json row carry exactly these keys,
    # plus "extra" on the rows that share the full run
    cfg, data_dir, out_dir = smoke
    assert main([
        "eval", "--config", str(cfg), "--checkpoint", str(out_dir / "checkpoint.json"),
        "--data", str(data_dir), "--out", str(tmp_path / "eval"),
    ]) == 0
    assert set(json.loads((tmp_path / "eval" / "report.json").read_text())) == REPORT_KEYS
    assert main(["ablate", "--config", str(cfg), "--data", str(data_dir), "--out", str(tmp_path / "abl")]) == 0
    rows = json.loads((tmp_path / "abl" / "ablation_report.json").read_text())
    shared = {"loss-jsd", "epochs-8"}
    assert shared < {row["variant"] for row in rows}
    for row in rows:
        assert set(row) == REPORT_KEYS | ({"extra"} if row["variant"] in shared else set())


def test_help_documents_flags(capsys):
    with pytest.raises(SystemExit):
        main(["train", "--help"])
    out = capsys.readouterr().out
    for flag in ("--config", "--seed", "--out", "--stage-mask", "--loss", "--preset"):
        assert flag in out


def test_preset_desk_overrides_epochs(tmp_path):
    data_dir = tmp_path / "d"
    cfg = tmp_path / "tiny.ini"
    cfg.write_text("[data]\nn_train = 90\nn_test = 60\nn_ood = 30\n")
    assert main(["gen", "--config", str(cfg), "--out", str(data_dir), "--preset", "desk"]) == 0
    manifest = json.loads((data_dir / "manifest.json").read_text())
    assert manifest["resolved_config"]["train"]["total_epochs"] == "100"
    assert manifest["resolved_config"]["train"]["pretrain_epochs"] == "40"
