"""The benchmark's workloads.

Each workload builds its inputs from the run seed in ``setup`` (timed
apart as set-up, and repeated), runs one operation per ``op`` call (timed),
and verifies that operation's outputs in ``check`` (untimed). ``check`` returns
an :class:`Outcome`: a determinism key and digest, the reports it verified,
and every problem found; an operation with a problem counts as failed.
"""

from __future__ import annotations

import contextlib
import csv
import json
import math
import os
import sys
import threading
from dataclasses import dataclass, field

from ares import cli, datagen, evaluation, training

import reference
from tracer import ares_modules, rebind, restore

# The benchmark world of tests/test_acceptance.py: blobs (k=3, d=2) against
# the 8-10 ring, at the desk budget.
BENCH_DATA = {
    "n_train": 1200,
    "n_test": 600,
    "k": 3,
    "d": 2,
    "n_ood": 600,
    "ood_sets": "ring",
    "ring_inner": 8.0,
    "ring_outer": 10.0,
}
DESK = dict(total_epochs=100, pretrain_epochs=40, batch_size=128)

# desk_train cycles through this many consecutive training seeds, starting
# at the run seed, so ``--seed 0`` covers the acceptance seeds 0-4.
SEED_WINDOW = 5

# eval_cli scores this many held-out inliers and points per outlier set.
EVAL_POINTS = 20000


@dataclass
class Record:
    """One ``evaluate()`` call seen during an operation."""

    report: object
    scores: tuple | None
    run: tuple | None  # (net, log) of the training behind it, when captured


@dataclass
class Outcome:
    key: str
    digest: str
    reports: dict = field(default_factory=dict)  # quality key -> RunReport
    problems: list = field(default_factory=list)


class Capture:
    """Keeps, for each report ``evaluate()`` returns, the scores it was
    computed from and, under ``run_ablation_suite``, the training run
    behind it. Costs one extra Python call per hooked call."""

    def __init__(self):
        self.records: list[Record] = []
        self._local = threading.local()
        self._undo: list = []

    def install(self) -> None:
        ev = sys.modules["ares.evaluation"]
        orig_score, orig_eval, orig_train = ev.score_bundle, ev.evaluate, ev.train
        local = self._local

        def score_bundle(*args, **kwargs):
            local.scores = orig_score(*args, **kwargs)
            return local.scores

        def train(*args, **kwargs):
            local.run = orig_train(*args, **kwargs)
            return local.run

        def evaluate(*args, **kwargs):
            local.scores = None
            report = orig_eval(*args, **kwargs)
            self.records.append(Record(report, local.scores, getattr(local, "run", None)))
            local.run = None
            return report

        # score_bundle and train only where evaluate() and
        # run_ablation_suite() look them up; evaluate everywhere.
        self._undo = [(ev, "score_bundle", orig_score), (ev, "train", orig_train)]
        ev.score_bundle, ev.train = score_bundle, train
        self._undo += rebind(ares_modules(), orig_eval, evaluate)

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    def take(self) -> list[Record]:
        out, self.records = self.records, []
        return out


def _find(records, report) -> Record | None:
    return next((r for r in records if r.report is report), None)


def _check_report(record: Record | None, label: str) -> list[str]:
    if record is None or record.scores is None:
        return [f"{label}: no captured scores"]
    id_scores, ood_scores = record.scores
    return [f"{label}: {p}" for p in reference.report_mismatches(record.report, id_scores, ood_scores)]


def _bundle_digest(bundles) -> str:
    chunks = []
    for b in bundles:
        chunks += [b.id_train.x.tobytes(), b.id_train.y.tobytes(), b.id_test.x.tobytes(),
                   b.id_test.y.tobytes(), b.aux.tobytes()]
        chunks += [b.ood_eval[k].tobytes() for k in sorted(b.ood_eval)]
    return reference.bytes_digest(*chunks)


class Workload:
    """Interface of a workload; ``min_ops`` operations run at least."""

    name = ""
    min_ops = 1

    def setup(self, rep: int) -> str:
        """Build the inputs; returns a digest of them."""
        raise NotImplementedError

    def prepare(self, i: int) -> None:
        """Untimed work before operation ``i``."""

    def op(self, i: int):
        raise NotImplementedError

    def check(self, i: int, out, records) -> Outcome:
        raise NotImplementedError


class DeskTrain(Workload):
    """Library ``train()`` + ``evaluate()`` for one seed at desk budget."""

    name = "desk_train"
    min_ops = SEED_WINDOW

    def __init__(self, seed: int, workdir: str):
        self.seeds = [seed + i for i in range(SEED_WINDOW)]

    def setup(self, rep: int) -> str:
        self.bundles = {s: datagen.make_bundle(BENCH_DATA, seed=s) for s in self.seeds}
        return _bundle_digest(self.bundles[s] for s in self.seeds)

    def op(self, i: int):
        s = self.seeds[i % SEED_WINDOW]
        net, log = training.train(training.TrainConfig(seed=s, **DESK), self.bundles[s])
        report = evaluation.evaluate(net, self.bundles[s], seed=s)
        return s, net, log, report

    def check(self, i: int, out, records) -> Outcome:
        s, net, log, report = out
        res = Outcome(f"{self.name}/train-seed{s}", reference.run_digest(net, log),
                      reports={f"seed{s}": report})
        if not reference.log_is_finite(log):
            res.problems.append("non-finite loss in train log")
        res.problems += _check_report(_find(records, report), f"seed {s}")
        return res


class AblateStages(Workload):
    """``run_ablation_suite(only="stages")`` for the run seed at desk budget."""

    name = "ablate_stages"
    min_ops = 2

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.cfg = training.TrainConfig(seed=seed, **DESK)
        self._redone: dict = {}

    def setup(self, rep: int) -> str:
        self.bundle = datagen.make_bundle(BENCH_DATA, seed=self.seed)
        return _bundle_digest([self.bundle])

    def op(self, i: int):
        return evaluation.run_ablation_suite(self.cfg, self.bundle, only="stages")

    def _redo(self, variant: str) -> Record:
        """Train and evaluate ``variant`` here, for a report computed where
        the capture could not see it (in another process)."""
        if variant not in self._redone:
            cfg = dict(evaluation.ablation_variants(self.cfg))[variant]
            net, log = training.train(cfg, self.bundle)
            report = evaluation.evaluate(net, self.bundle, variant=variant, seed=cfg.seed)
            scores = evaluation.score_bundle(net, self.bundle)
            self._redone[variant] = Record(report, scores, (net, log))
        return self._redone[variant]

    def check(self, i: int, reports, records) -> Outcome:
        problems, digests = [], []
        for report in reports:
            if report.error:
                problems.append(f"{report.variant}: {report.error}")
                continue
            record = _find(records, report)
            if record is None:
                record = self._redo(report.variant)
                for key in ("gamma", "per_set", "average"):
                    if getattr(report, key) != getattr(record.report, key):
                        problems.append(f"{report.variant}: {key} differs from an in-process rerun")
            problems += _check_report(record, report.variant)
            if record.run is None:
                problems.append(f"{report.variant}: no captured training run")
                continue
            net, log = record.run
            if not reference.log_is_finite(log):
                problems.append(f"{report.variant}: non-finite loss in train log")
            digests.append(f"{report.variant}={reference.run_digest(net, log)}")
        if len(reports) != 4:
            problems.append(f"expected 4 variant reports, got {len(reports)}")
        return Outcome(f"{self.name}/seed{self.seed}",
                       reference.bytes_digest(*(d.encode() for d in digests)),
                       reports={r.variant: r for r in reports}, problems=problems)


class EvalCli(Workload):
    """One in-process ``ares eval`` on a CLI-default world (three outlier
    sets) with 20k held-out inliers and 20k points per outlier set."""

    name = "eval_cli"
    min_ops = 3

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.out = os.path.join(workdir, "eval")

    def setup(self, rep: int) -> str:
        base = os.path.join(self.workdir, f"setup{rep}")
        os.makedirs(base, exist_ok=True)
        self.config = os.path.join(base, "eval.ini")
        with open(self.config, "w", encoding="utf-8") as fh:
            fh.write(f"[data]\nn_test = {EVAL_POINTS}\nn_ood = {EVAL_POINTS}\n\n"
                     f"[train]\nseed = {self.seed}\n")
        self.data = os.path.join(base, "data")
        run = os.path.join(base, "train")
        common = ["--config", self.config, "--preset", "desk"]
        log = os.path.join(base, "cli.log")
        with open(log, "w", encoding="utf-8") as fh, contextlib.redirect_stdout(fh):
            for argv in (["gen", *common, "--out", self.data],
                         ["train", *common, "--data", self.data, "--out", run]):
                rc = cli.main(argv)
                if rc != 0:
                    raise RuntimeError(f"ares {argv[0]} exited {rc}; see {log}")
        self.checkpoint = os.path.join(run, "checkpoint.json")
        with open(os.path.join(run, "train_log.csv"), encoding="utf-8") as fh:
            rows = list(csv.DictReader(fh))
        if not rows or not all(math.isfinite(float(v)) for r in rows for v in r.values()):
            raise RuntimeError("ares train wrote a non-finite or empty train_log.csv")
        files = [self.checkpoint, os.path.join(run, "train_log.csv")]
        files += [os.path.join(self.data, f) for f in sorted(os.listdir(self.data))
                  if f.endswith(".csv")]
        chunks = []
        for path in files:
            with open(path, "rb") as fh:
                chunks.append(fh.read())
        self.setup_digest = reference.bytes_digest(*chunks)
        return self.setup_digest

    def prepare(self, i: int) -> None:
        with contextlib.suppress(FileNotFoundError):
            os.remove(os.path.join(self.out, "report.json"))

    def op(self, i: int):
        return cli.main(["eval", "--config", self.config, "--preset", "desk",
                         "--checkpoint", self.checkpoint, "--data", self.data,
                         "--out", self.out])

    def check(self, i: int, rc, records) -> Outcome:
        problems = [] if rc == 0 else [f"ares eval exited {rc}"]
        path = os.path.join(self.out, "report.json")
        if not os.path.exists(path):
            return Outcome(f"{self.name}/seed{self.seed}", "", problems=problems + ["no report.json"])
        with open(path, "rb") as fh:
            raw = fh.read()
        written = json.loads(raw)
        if len(records) != 1:
            problems.append(f"expected one evaluate() call, saw {len(records)}")
        reports = {}
        if records:
            record = records[0]
            reports["eval"] = record.report
            problems += _check_report(record, "eval")
            for key in ("gamma", "per_set", "average"):
                if written[key] != getattr(record.report, key):
                    problems.append(f"report.json {key} differs from the evaluated report")
        return Outcome(f"{self.name}/seed{self.seed}",
                       reference.bytes_digest(self.setup_digest.encode(), raw),
                       reports=reports, problems=problems)


WORKLOADS = {w.name: w for w in (DeskTrain, EvalCli, AblateStages)}
