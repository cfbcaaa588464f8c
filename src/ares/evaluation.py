"""Post-training scoring, discrimination and metrics.

The decision rule is "inlier iff energy score >= gamma" with gamma chosen
so at least 95% of held-out inliers pass. FPR95 is the fraction of
outliers passing that gate; AUROC is the Mann-Whitney probability that a
random inlier outscores a random outlier (ties half). Because the score's
sign convention is emergent (the energy weights are learned), reports also
carry the orientation-corrected AUROC max(a, 1-a) as a diagnostic column;
the headline metric stays literal.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field, replace

import numpy as np

from .datagen import MIN_GATE_SCORES, DataBundle
from .network import MlpNetwork, energy_score_batch
from .training import STAGES, TrainConfig, TrainLog, _set_blas_threads, _warmup, _warmup_key, train

__all__ = [
    "RunReport",
    "auroc",
    "choose_gamma",
    "evaluate",
    "fpr95",
    "run_ablation_suite",
    "run_variants",
    "score_bundle",
    "write_reports_csv",
]

TPR_TARGET = 0.95


def _scores(values, where: str) -> np.ndarray:
    """``values`` as a float array; a non-finite score is a ValueError."""
    s = np.asarray(values, dtype=float)
    bad = s[~np.isfinite(s)]
    if bad.size:
        raise ValueError(f"{where}: {bad.size} non-finite score(s), e.g. {bad[:3].tolist()}")
    return s


def choose_gamma(id_scores) -> float:
    """Largest threshold keeping at least 95% of the inlier scores on the
    ``>= gamma`` side: the ceil(0.95 n)-th largest score. When 0.95 is not
    exactly attainable the smallest attainable rate above it is used
    (conservative gate)."""
    s = _scores(id_scores, "choose_gamma")
    n = s.size
    if n < MIN_GATE_SCORES:
        raise ValueError(f"choose_gamma: need at least {MIN_GATE_SCORES} scores, got {n}")
    keep = math.ceil(TPR_TARGET * n)  # fewest scores that reach the target rate
    return float(np.partition(s, n - keep)[n - keep])


def _pass_rate(ood_scores: np.ndarray, gamma: float) -> float:
    """Fraction of outlier scores passing the gate ``score >= gamma``."""
    return float(np.count_nonzero(ood_scores >= gamma) / ood_scores.size)


def fpr95(id_scores, ood_scores) -> float:
    """Fraction of outlier scores passing the 95%-TPR inlier gate."""
    id_scores = np.asarray(id_scores, dtype=float)
    ood_scores = _scores(ood_scores, "fpr95")
    if id_scores.size == 0 or ood_scores.size == 0:
        raise ValueError("fpr95: empty score list")
    return _pass_rate(ood_scores, choose_gamma(id_scores))


def auroc(id_scores, ood_scores) -> float:
    """P(inlier score > outlier score) + 0.5 P(equal), counted exactly on
    the sorted score lists: for each outlier score, the inlier scores at or
    below it and those strictly below it."""
    e = np.sort(_scores(id_scores, "auroc"))
    f = np.sort(_scores(ood_scores, "auroc"))
    if e.size == 0 or f.size == 0:
        raise ValueError("auroc: empty score list")
    at_or_below = int(np.searchsorted(e, f, "right").sum())
    below = int(np.searchsorted(e, f, "left").sum())
    pairs = e.size * f.size
    u = pairs - at_or_below + 0.5 * (at_or_below - below)  # wins + ties / 2, exact below 2**52
    return float(u / pairs)


@dataclass
class RunReport:
    """Per-run metrics: one (fpr95, auroc, auroc_oriented) triple per
    outlier set plus macro averages, the chosen gamma, and bookkeeping.
    ``scores`` holds the ``(id_scores, ood_scores)`` the metrics came from;
    it is not part of the report's value, its repr or its JSON."""

    variant: str
    seed: int
    gamma: float
    per_set: dict[str, dict[str, float]]
    average: dict[str, float]
    stage_times: dict | None = None
    error: str | None = None
    extra: dict = field(default_factory=dict)
    scores: tuple | None = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {
            "variant": self.variant,
            "seed": self.seed,
            "gamma": self.gamma,
            "per_set": self.per_set,
            "average": self.average,
            "stage_times": self.stage_times,
            "error": self.error,
            **({"extra": self.extra} if self.extra else {}),
        }


def score_bundle(net: MlpNetwork, bundle: DataBundle) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Energy scores for the held-out inliers and each outlier set, each
    set forwarded by :meth:`MlpNetwork.forward_blocks` through one block
    workspace per call: a call's memory is bounded by one block, and a
    row's score does not depend on the size of its set."""
    sets = [bundle.id_test.x, *bundle.ood_eval.values()]
    ws = net.block_workspace(max(map(len, sets)))
    scores = [np.empty(len(x)) for x in sets]
    for x, out in zip(sets, scores):
        for rows, cache in net.forward_blocks(x, ws):
            out[rows] = energy_score_batch(net, cache.logits)
    return scores[0], dict(zip(bundle.ood_eval, scores[1:]))


def evaluate(net: MlpNetwork, bundle: DataBundle, variant: str = "full", seed: int = 0) -> RunReport:
    """Score the bundle once and assemble a report with macro averages;
    the report keeps the scores."""
    if not bundle.ood_eval:
        raise ValueError("evaluate: bundle has no outlier evaluation sets")
    id_scores, ood_scores = score_bundle(net, bundle)
    gamma = choose_gamma(id_scores)  # one gate shared by every outlier set
    per_set = {}
    for name in sorted(ood_scores):
        a = auroc(id_scores, ood_scores[name])
        per_set[name] = {
            "fpr95": _pass_rate(ood_scores[name], gamma),
            "auroc": a,
            "auroc_oriented": max(a, 1.0 - a),
        }
    average = {
        key: float(np.mean([m[key] for m in per_set.values()]))
        for key in ("fpr95", "auroc", "auroc_oriented")
    }
    return RunReport(
        variant=variant,
        seed=seed,
        gamma=gamma,
        per_set=per_set,
        average=average,
        scores=(id_scores, ood_scores),
    )


def _error(err: Exception) -> str:
    return f"{type(err).__name__}: {err}"


def _failed_report(variant: str, cfg: TrainConfig, error: str) -> RunReport:
    return RunReport(
        variant=variant,
        seed=cfg.seed,
        gamma=float("nan"),
        per_set={},
        average={},
        error=error,
    )


def ablation_variants(base_cfg: TrainConfig) -> list[tuple[str, TrainConfig]]:
    """The default ablation matrix: full + three single-stage removals,
    three discrimination losses, two epoch budgets. ``epochs-N``, and
    ``loss-jsd`` on a JSD base, are the base config, so they share the full run."""
    long = base_cfg.replace(
        total_epochs=2 * base_cfg.total_epochs,
        pretrain_epochs=2 * base_cfg.pretrain_epochs,
    )
    return [
        ("full", base_cfg),
        ("no-escape", base_cfg.replace(escape=False)),
        ("no-expansion", base_cfg.replace(expansion=False)),
        ("no-estimation", base_cfg.replace(estimation=False)),
        ("loss-ce", base_cfg.replace(loss_kind="ce")),
        ("loss-nce", base_cfg.replace(loss_kind="nce")),
        ("loss-jsd", base_cfg.replace(loss_kind="jsd")),
        (f"epochs-{base_cfg.total_epochs}", base_cfg),
        (f"epochs-{long.total_epochs}", long),
    ]


def _train_and_evaluate(name: str, cfg: TrainConfig, bundle: DataBundle,
                        prefix: TrainLog | None = None) -> RunReport:
    """One variant's report, or its failure report; a pool worker runs it.
    With a ``prefix`` (the :func:`_warmup` log of the variant's warmup key)
    the run resumes from its state, and its log starts with its records.
    The report reads only the log's stage times, so the run skips its
    accuracy passes (``accuracy=False``)."""
    try:
        if prefix is None:
            net, log = train(cfg, bundle, accuracy=False)
        else:
            net, log = train(cfg, bundle, resume=prefix.state, accuracy=False)
            log.records[:0] = prefix.records
        report = evaluate(net, bundle, variant=name, seed=cfg.seed)
        report.stage_times = log.stage_totals()
        return report
    except Exception as err:  # per-variant isolation is the contract
        return _failed_report(name, cfg, _error(err))


def _warmup_or_error(cfg: TrainConfig, bundle: DataBundle) -> tuple[TrainLog | None, str | None]:
    """A shared prefix's log, or the error a run of ``cfg`` would report; a
    pool worker runs it. The error travels as text: not every exception
    survives the trip back from the worker. Like :func:`_train_and_evaluate`,
    it skips the accuracy passes."""
    try:
        return _warmup(cfg, bundle), None
    except Exception as err:
        return None, _error(err)


# ``run_ablation_suite``'s subsets: the matrix rows whose names start with one of these
ABLATION_SUBSETS = {"stages": ("full", "no-"), "losses": ("loss-",), "epochs": ("epochs-",)}


def run_ablation_suite(
    base_cfg: TrainConfig,
    bundle: DataBundle,
    only: str | None = None,
) -> list[RunReport]:
    """Train and evaluate every ablation variant with shared data and seed,
    through :func:`run_variants`, in the matrix order.

    ``only`` restricts the matrix to "stages", "losses", or "epochs": the
    rows whose names start as ``ABLATION_SUBSETS`` says.
    """
    if only is not None and only not in ABLATION_SUBSETS:
        raise ValueError(f"run_ablation_suite: unknown subset {only!r}")
    return run_variants([(name, cfg, bundle) for name, cfg in ablation_variants(base_cfg)
                         if only is None or name.startswith(ABLATION_SUBSETS[only])])


def run_variants(rows: list[tuple[str, TrainConfig, DataBundle]]) -> list[RunReport]:
    """Train and evaluate each row ``(name, config, bundle)``; the reports
    come back in row order.

    Rows train in parallel, one forked worker per usable CPU, each with one
    BLAS thread; a run is a pure function of its config, seed and bundle,
    so the reports equal a sequential run's.

    Rows with equal configs on the same bundle object share one run: the
    first trains it, and each other gets a copy of its report with
    ``extra={"shared_with": <the first's name>}``. Every run resumes from
    the prefix of its :func:`_warmup_key` on its bundle, the escape stage
    and warmup epochs, which is trained once per key and bundle; the
    reports equal runs from scratch. A run's stage times are the wall times
    of the workers that trained it, so each run's ``escape`` time is its
    prefix's. No report carries a training accuracy, so the workers train
    with ``accuracy=False`` and run no accuracy pass.

    A row that raises, or whose worker dies, gets a report with its
    ``error`` set; the call itself does not raise. A prefix that raises
    gives each of its rows the error a run of its own would report. A
    dying worker breaks the whole pool, so every row it took down is rerun
    alone, from scratch on its own bundle, in a fresh one-worker pool.
    """
    owners: dict[tuple, int] = {}  # (config, bundle) -> the first row with them, which trains the run
    owner = [owners.setdefault((cfg, id(bundle)), i) for i, (_name, cfg, bundle) in enumerate(rows)]
    groups: dict[tuple, list[int]] = {}  # (warmup key, bundle) -> the runs that resume from its prefix
    for (cfg, b), i in owners.items():
        groups.setdefault((_warmup_key(cfg), b), []).append(i)

    # imported here, so that ``import ares`` does not pay for the pool modules
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    def pool(workers):
        return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_set_blas_threads, initargs=(1,))

    reports: dict[int, RunReport] = {}
    broken = []
    with pool(min(len(os.sched_getaffinity(0)), len(owners))) as executor:
        pending = {}  # future -> the rows it serves: a prefix's runs, or one run

        def submit(members, fn, *args):
            try:
                pending[executor.submit(fn, *args)] = members
            except BrokenProcessPool as err:  # a worker died since the last submit
                fail(members, err)

        def fail(members, err):
            for i in members:
                reports[i] = _failed_report(*rows[i][:2], _error(err))
            if isinstance(err, BrokenProcessPool):
                broken.extend(members)

        for (key, _b), members in groups.items():
            submit(members, _warmup_or_error, key, rows[members[0]][2])
        while pending:
            done, _ = wait(pending, return_when=FIRST_COMPLETED)
            for future in done:
                members = pending.pop(future)
                try:
                    result = future.result()
                except Exception as err:  # the worker died, or its result did not come back
                    fail(members, err)
                    continue
                if isinstance(result, RunReport):
                    reports[members[0]] = result
                    continue
                prefix, error = result
                for i in members:
                    if error is not None:
                        reports[i] = _failed_report(*rows[i][:2], error)
                    else:
                        submit([i], _train_and_evaluate, *rows[i], prefix)
    # a dead worker fails every pending future with it: rerun each of those
    # alone, so that only the row that kills its own worker keeps the error
    for i in broken:
        with pool(1) as executor:
            try:
                reports[i] = executor.submit(_train_and_evaluate, *rows[i]).result()
            except Exception as err:
                reports[i] = _failed_report(*rows[i][:2], _error(err))

    return [
        reports[i] if owner[i] == i
        else replace(reports[owner[i]], variant=name, extra={"shared_with": rows[owner[i]][0]}, scores=None)
        for i, (name, _cfg, _bundle) in enumerate(rows)
    ]


def write_reports_csv(path, reports: list[RunReport]) -> None:
    """Flat table: one row per variant, per-set FPR95/AUROC columns plus
    averages, gamma, and per-stage wall times when some report has them."""
    set_names = sorted({name for r in reports for name in r.per_set})
    stages = STAGES if any(r.stage_times for r in reports) else ()
    cols = ["variant", "seed", "gamma"]
    for name in set_names:
        cols += [f"{name}_fpr95", f"{name}_auroc", f"{name}_auroc_oriented"]
    cols += ["average_fpr95", "average_auroc", "average_auroc_oriented"]
    cols += [f"{stage}_s" for stage in stages] + ["error"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for r in reports:
            row = [r.variant, str(r.seed), _fmt(r.gamma)]
            for name in set_names:
                m = r.per_set.get(name, {})
                row += [_fmt(m.get(k)) for k in ("fpr95", "auroc", "auroc_oriented")]
            row += [_fmt(r.average.get(k)) for k in ("fpr95", "auroc", "auroc_oriented")]
            times = r.stage_times or {}
            row += [_fmt(times.get(stage)) for stage in stages]
            row.append("" if r.error is None else r.error.replace(",", ";"))
            fh.write(",".join(row) + "\n")


def _fmt(v) -> str:
    if v is None:
        return ""
    return "%.17g" % float(v)


def write_report_json(path, report: RunReport) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(report.to_json_dict(), fh, sort_keys=True, indent=2)
        fh.write("\n")
