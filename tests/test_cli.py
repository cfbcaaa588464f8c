import json
import os
import time

import pytest

from ares.cli import main
from ares.datagen import load_points_csv, make_bundle, save_points_csv
from ares.evaluation import auroc, fpr95
from ares.network import energy_score_batch, load_checkpoint

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
    # feature_refresh, n_mix and reescape_each_epoch are keys of training
    # modes that no longer exist; t_rank is an [eval] key
    cases = [
        ("train", "learning_rate", "0.1"),
        ("train", "feature_refresh", "epoch"),
        ("train", "n_mix", "8"),
        ("escape", "reescape_each_epoch", "true"),
        ("train", "t_rank", "128"),
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
        ("escape", "max_iters", "5"),
        ("escape", "alpha1", "0"),
        ("train", "feature_dim", "0"),
        ("train", "hidden_dims", "64,0"),
        ("train", "beta", "-1"),
        ("eval", "t_rank", "0"),
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
    names = sorted(p.name for p in (tmp_path / "cli").glob("*.csv"))
    assert names == sorted(p.name for p in lib.glob("*.csv"))
    for name in names:
        assert (tmp_path / "cli" / name).read_bytes() == (lib / name).read_bytes(), name


def test_train_artifacts_and_progress(smoke, capsys):
    _, _, out_dir = smoke
    for name in ("checkpoint.json", "train_log.csv", "train_timings.csv", "manifest.json"):
        assert (out_dir / name).exists()
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["config_hash"]
    assert manifest["seed"] == 11
    net, epoch = load_checkpoint(out_dir / "checkpoint.json")
    assert epoch == 8


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
    net, _ = load_checkpoint(out_dir / "checkpoint.json")
    x_test, _, _ = load_points_csv(data_dir / "id_test.csv")
    ring, _, _ = load_points_csv(data_dir / "ood_ring.csv")
    id_scores = energy_score_batch(net, net.forward(x_test).logits)
    ring_scores = energy_score_batch(net, net.forward(ring).logits)
    assert report["per_set"]["ring"]["auroc"] == pytest.approx(auroc(id_scores, ring_scores), abs=0)
    assert report["per_set"]["ring"]["fpr95"] == pytest.approx(fpr95(id_scores, ring_scores), abs=0)
    header = (eval_dir / "report.csv").read_text().split("\n")[0]
    assert header.startswith("variant,seed,gamma")
    hist = (eval_dir / "energy_hist.csv").read_text().strip().split("\n")
    assert hist[0] == "bin_left,bin_right,count_id,count_ood,count_virtual"
    assert len(hist) == 51


def test_eval_missing_checkpoint(smoke, tmp_path, capsys):
    cfg, data_dir, _ = smoke
    rc = main([
        "eval", "--config", str(cfg), "--checkpoint", str(tmp_path / "none.json"),
        "--data", str(data_dir), "--out", str(tmp_path / "e"),
    ])
    assert rc == 2
    assert "none.json" in capsys.readouterr().err


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
    header = lines[0].split(",")
    for col in ("escape_s", "expansion_s", "estimation_s", "divergence_s"):
        assert col in header


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
