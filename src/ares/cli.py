"""Command line entry point: dataset generation, training, evaluation, and
the ablation matrix, all driven by one config file and one seed.

Commands are idempotent given (config, seed, out dir): rerunning overwrites
every artifact with identical bytes, except the manifest timestamp and the
wall-clock timing files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time

import numpy as np

from . import __version__
from .config import config_hash, load_config, resolve_config, to_configs
from .datagen import DataBundle, LabeledDataset, load_points_csv, make_bundle, save_points_csv
from .errors import AresError, ConfigError
from .evaluation import ABLATION_SUBSETS, evaluate, run_ablation_suite, write_report_json, write_reports_csv
from .losses import write_energy_histogram_csv
from .network import RunState, energy_score_batch, load_checkpoint, save_checkpoint
from .training import check_resume, train

STAGE_MASKS = ("none", "no-escape", "no-expansion", "no-estimation")


def _write_manifest(out_dir, config_path, resolved, seed, artifacts) -> None:
    doc = {
        "config_path": str(config_path) if config_path else None,
        "config_hash": config_hash(resolved),
        "seed": seed,
        "out_dir": str(out_dir),
        "artifacts": sorted(artifacts),
        "tool_version": __version__,
        "created_utc": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "resolved_config": {sec: dict(kv) for sec, kv in sorted(resolved.items())},
    }
    with open(os.path.join(out_dir, "manifest.json"), "w", encoding="utf-8") as fh:
        json.dump(doc, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _resolve(args) -> tuple[dict, tuple]:
    """Resolved INI strings (for the manifest) and ``to_configs`` of them."""
    file_cfg = load_config(args.config) if args.config else None
    overrides = _stage_mask_overrides(getattr(args, "stage_mask", None))
    if getattr(args, "loss", None) is not None:
        overrides[("train", "loss_kind")] = args.loss
    if args.seed is not None:
        overrides[("train", "seed")] = str(args.seed)
    resolved = resolve_config(file_cfg, preset=args.preset, overrides=overrides)
    return resolved, to_configs(resolved)


def _stage_mask_overrides(mask: str | None) -> dict:
    """``no-<stage>`` switches ``[train] stage_<stage>`` off."""
    if mask in (None, "none"):
        return {}
    return {("train", "stage_" + mask.removeprefix("no-")): "false"}


def _load_bundle(data_dir) -> DataBundle:
    def need(name):
        path = os.path.join(data_dir, name)
        if not os.path.exists(path):
            raise ConfigError(f"missing data file: {path}")
        return path

    def load(path):
        x, y, meta = load_points_csv(path)
        if not np.isfinite(x).all():  # ares gen writes none; one would fail deep inside a command
            raise ConfigError(f"{path}: every coordinate must be finite")
        return x, y, meta

    train_path = need("id_train.csv")
    x_tr, y_tr, meta = load(train_path)
    if y_tr is not None and meta.get("classes") is not None:
        # the network's class count is read off the labels, so a declared
        # class that no training row uses would silently narrow it
        # (np.setdiff1d would import numpy.ma, ~2 MB, on every command)
        missing = np.flatnonzero(np.bincount(y_tr, minlength=int(meta["classes"])) == 0).tolist()
        if missing:
            raise ConfigError(f"{train_path}: no row has label(s) {missing} "
                              f"of the header's classes={meta['classes']}")
    x_te, y_te, _ = load(need("id_test.csv"))
    aux, _, _ = load(need("aux.csv"))
    ood = {}
    for fname in sorted(os.listdir(data_dir)):
        if fname.startswith("ood_") and fname.endswith(".csv"):
            pts, _, _ = load(os.path.join(data_dir, fname))
            ood[fname[len("ood_") : -len(".csv")]] = pts
    if y_tr is None or y_te is None:
        raise ConfigError("id_train.csv / id_test.csv must carry labels")
    if not ood:
        raise ConfigError(f"no ood_<name>.csv files found in {data_dir}")
    return DataBundle(
        id_train=LabeledDataset(x=x_tr, y=y_tr),
        id_test=LabeledDataset(x=x_te, y=y_te),
        aux=aux,
        ood_eval=ood,
    )


def _load_run_state(path, bundle: DataBundle) -> RunState:
    """The checkpoint at ``path``, checked against the data's input dimension."""
    state = load_checkpoint(path)
    if state.arch["input_dim"] != bundle.id_train.dim:
        raise ConfigError(
            f"{path}: checkpoint expects {state.arch['input_dim']}-d inputs but data is "
            f"{bundle.id_train.dim}-d"
        )
    return state


def cmd_gen(args) -> int:
    resolved, (data_cfg, cfg, _) = _resolve(args)
    os.makedirs(args.out, exist_ok=True)
    bundle = make_bundle(data_cfg, cfg.seed)
    k = bundle.id_train.n_classes
    points = ["id_train.csv", "id_test.csv", "aux.csv"] + [f"ood_{name}.csv" for name in bundle.ood_eval]
    artifacts = points + [name + ".bin" for name in points] + ["manifest.json"]
    _write_manifest(args.out, args.config, resolved, cfg.seed, artifacts)
    save_points_csv(os.path.join(args.out, "id_train.csv"), bundle.id_train.x, bundle.id_train.y, "id", k)
    save_points_csv(os.path.join(args.out, "id_test.csv"), bundle.id_test.x, bundle.id_test.y, "id", k)
    save_points_csv(os.path.join(args.out, "aux.csv"), bundle.aux, None, "aux", 0)
    for name, pts in bundle.ood_eval.items():
        save_points_csv(os.path.join(args.out, f"ood_{name}.csv"), pts, None, "ood", 0)
    return _check_artifacts(args.out, artifacts)


def cmd_train(args) -> int:
    resolved, (_, cfg, _) = _resolve(args)
    bundle = _load_bundle(args.data)
    resume = None
    if args.resume:
        resume = load_checkpoint(args.resume)
        check_resume(resume, cfg, bundle, source=args.resume)
    os.makedirs(args.out, exist_ok=True)
    artifacts = ["checkpoint.json", "train_log.csv", "train_timings.csv", "manifest.json"]
    _write_manifest(args.out, args.config, resolved, cfg.seed, artifacts)

    _, log = train(cfg, bundle, checkpoint_dir=args.out, resume=resume, progress=print)
    save_checkpoint(log.state, os.path.join(args.out, "checkpoint.json"))
    log.write_csv(os.path.join(args.out, "train_log.csv"))
    log.write_timings_csv(os.path.join(args.out, "train_timings.csv"))
    return _check_artifacts(args.out, artifacts)


def cmd_eval(args) -> int:
    # the checkpoint, the data and [eval] decide the output; [train] only seeds the report
    resolved, (_, cfg, eval_cfg) = _resolve(args)
    bundle = _load_bundle(args.data)
    state = _load_run_state(args.checkpoint, bundle)
    os.makedirs(args.out, exist_ok=True)
    artifacts = ["report.json", "report.csv", "energy_hist.csv", "manifest.json"]
    _write_manifest(args.out, args.config, resolved, cfg.seed, artifacts)

    net = state.network()
    report = evaluate(net, bundle, variant="eval", seed=cfg.seed)
    write_report_json(os.path.join(args.out, "report.json"), report)
    write_reports_csv(os.path.join(args.out, "report.csv"), [report])
    id_scores, ood_scores = report.scores
    # training's first outlier batch of its last joint epoch, scored by the final network
    virtual = np.zeros((0, net.feature_dim)) if state.virtual is None else state.virtual
    write_energy_histogram_csv(
        os.path.join(args.out, "energy_hist.csv"),
        id_scores,
        np.concatenate(list(ood_scores.values())),
        energy_score_batch(net, virtual @ net.cls_w + net.cls_b),
        n_bins=eval_cfg.histogram_bins,
    )
    return _check_artifacts(args.out, artifacts)


def cmd_ablate(args) -> int:
    resolved, (_, cfg, _) = _resolve(args)
    bundle = _load_bundle(args.data)
    os.makedirs(args.out, exist_ok=True)
    artifacts = ["ablation_report.csv", "ablation_report.json", "manifest.json"]
    _write_manifest(args.out, args.config, resolved, cfg.seed, artifacts)

    reports = run_ablation_suite(cfg, bundle, only=args.only)
    write_reports_csv(os.path.join(args.out, "ablation_report.csv"), reports)
    with open(os.path.join(args.out, "ablation_report.json"), "w", encoding="utf-8") as fh:
        json.dump([r.to_json_dict() for r in reports], fh, sort_keys=True, indent=2)
        fh.write("\n")
    return _check_artifacts(args.out, artifacts)


def _check_artifacts(out_dir, artifacts) -> int:
    missing = [a for a in artifacts if not os.path.exists(os.path.join(out_dir, a))]
    if missing:
        print(f"error: artifacts not written: {missing}", file=sys.stderr)
        return 1
    return 0


def _add_common(p, data=False, checkpoint=False):
    p.add_argument("--config", default=None, help="config file (INI sections: data/escape/train/eval)")
    p.add_argument("--seed", type=int, default=None, help="override the run seed")
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--preset", choices=("paper", "desk"), default=None,
                   help="paper: published hyperparameters (default); desk: small epoch budget")
    if data:
        p.add_argument("--data", required=True, help="directory of generated dataset CSVs")
    if checkpoint:
        p.add_argument("--checkpoint", required=True, help="checkpoint JSON to evaluate")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ares",
        description="Outlier-synthesis OOD detection pipeline: generate data, "
        "train the detector, evaluate FPR95/AUROC, run ablations.",
    )
    parser.add_argument("--version", action="version", version=f"ares {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate dataset CSVs")
    _add_common(p)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("train", help="train a detector")
    _add_common(p, data=True)
    p.add_argument("--stage-mask", choices=STAGE_MASKS, default=None,
                   help="disable one pipeline stage")
    p.add_argument("--loss", choices=("jsd", "ce", "nce"), default=None,
                   help="discrimination loss")
    p.add_argument("--resume", default=None, help="checkpoint to continue from")
    p.set_defaults(func=cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    _add_common(p, data=True, checkpoint=True)
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("ablate", help="run the ablation matrix")
    _add_common(p, data=True)
    p.add_argument("--stage-mask", choices=STAGE_MASKS, default=None)
    p.add_argument("--loss", choices=("jsd", "ce", "nce"), default=None)
    p.add_argument("--only", choices=tuple(ABLATION_SUBSETS), default=None,
                   help="restrict the ablation matrix")
    p.set_defaults(func=cmd_ablate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except AresError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
