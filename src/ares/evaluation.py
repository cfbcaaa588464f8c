"""Post-training discrimination and metrics.

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
    "score_bundle",
    "write_reports_csv",
]

TPR_TARGET = 0.95
# rows per forward pass in score_bundle; each block is zero-padded to a
# multiple of PAD_ROWS rows, of which SCORE_BLOCK is one
SCORE_BLOCK = 4096
PAD_ROWS = 8


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


def _average_ranks(values: np.ndarray) -> np.ndarray:
    """1-based ranks with ties sharing their average rank."""
    order = np.argsort(values)  # tied values share one rank, so any order of ties will do
    sorted_vals = values[order]
    starts = np.flatnonzero(np.r_[True, sorted_vals[1:] != sorted_vals[:-1]])  # tie groups
    ends = np.r_[starts[1:], values.size] - 1  # last sorted index of each group
    ranks = np.empty(values.size, dtype=float)
    ranks[order] = np.repeat(0.5 * (starts + ends) + 1.0, ends - starts + 1)
    return ranks


def auroc(id_scores, ood_scores) -> float:
    """P(inlier score > outlier score) + 0.5 P(equal), via rank sums."""
    e = _scores(id_scores, "auroc")
    f = _scores(ood_scores, "auroc")
    if e.size == 0 or f.size == 0:
        raise ValueError("auroc: empty score list")
    ranks = _average_ranks(np.concatenate([e, f]))
    r_id = ranks[: e.size].sum()
    u = r_id - e.size * (e.size + 1) / 2.0
    return float(u / (e.size * f.size))


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


def _padded(n: int) -> int:
    """``n`` rounded up to a multiple of ``PAD_ROWS``."""
    return -(-n // PAD_ROWS) * PAD_ROWS


def _block_energies(net: MlpNetwork, x: np.ndarray, ws: tuple) -> np.ndarray:
    """Energy score of each row of ``x``, computed ``SCORE_BLOCK`` rows at
    a time in the workspace ``ws`` = (input rows, layer outputs). Each
    block is copied into the input rows and zero-padded to a multiple of
    ``PAD_ROWS`` rows; the padded rows' scores are dropped."""
    x = np.asarray(x, dtype=float)
    if x.ndim != 2 or x.shape[1] != net.input_dim:  # the copy below would broadcast a 1-wide x
        raise ValueError(f"score_bundle: expected (n, {net.input_dim}) points, got {x.shape}")
    xs, layers = ws
    out = np.empty(len(x))
    for lo in range(0, len(x), SCORE_BLOCK):
        block = x[lo : lo + SCORE_BLOCK]
        m, rows = len(block), _padded(len(block))
        xs[:m] = block
        xs[m:rows] = 0.0
        logits = net.forward(xs[:rows], out=layers).logits
        out[lo : lo + m] = energy_score_batch(net, logits[:m])
    return out


def score_bundle(net: MlpNetwork, bundle: DataBundle) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Energy scores for the held-out inliers and each outlier set.

    Each set is scored in consecutive blocks of ``SCORE_BLOCK`` rows
    through one workspace, allocated once per call and sized to the
    smaller of the largest set and one block, so the memory a call needs
    is bounded by the block, not by the set size, and no block maps fresh
    pages. Each block is zero-padded to a multiple of ``PAD_ROWS`` rows:
    the last ``n mod 4`` rows of an n-row GEMM take OpenBLAS's row-tail
    path and can round differently than inside a longer block, and a
    one-row matmul runs down another BLAS path. Padded, a row's score does
    not depend on the block it is scored in (checked on the ``SkylakeX``
    kernel). Blocks also keep every GEMM below the size (20,834 rows) at
    which OpenBLAS moves the logits matmul to another kernel, which
    changes the bits of about 30 % of the rows.
    """
    sets = [bundle.id_test.x, *bundle.ood_eval.values()]
    rows = min(SCORE_BLOCK, _padded(max(map(len, sets))))
    ws = (np.empty((rows, net.input_dim)), net.workspace(rows))
    id_scores = _block_energies(net, bundle.id_test.x, ws)
    ood_scores = {name: _block_energies(net, pts, ws) for name, pts in bundle.ood_eval.items()}
    return id_scores, ood_scores


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


def _failed_report(variant: str, seed: int, error: str) -> RunReport:
    return RunReport(
        variant=variant,
        seed=seed,
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
        return _failed_report(name, cfg.seed, _error(err))


def _warmup_or_error(cfg: TrainConfig, bundle: DataBundle) -> tuple[TrainLog | None, str | None]:
    """A shared prefix's log, or the error a run of ``cfg`` would report; a
    pool worker runs it. The error travels as text: not every exception
    survives the trip back from the worker. Like :func:`_train_and_evaluate`,
    it skips the accuracy passes."""
    try:
        return _warmup(cfg, bundle), None
    except Exception as err:
        return None, _error(err)


def run_ablation_suite(
    base_cfg: TrainConfig,
    bundle: DataBundle,
    only: str | None = None,
) -> list[RunReport]:
    """Train and evaluate every ablation variant with shared data and seed.

    ``only`` restricts the matrix to "stages", "losses", or "epochs".
    Variants train in parallel, one forked worker per usable CPU, each
    with one BLAS thread; a run is a pure function of its config and seed,
    so the reports equal a sequential run's, in the matrix order.

    Variants with equal configs share one run: the first trains it, and
    each other gets a copy of its report with ``extra={"shared_with":
    <the first>}`` (loss-jsd and epochs-N share full's). Every run resumes
    from the prefix of its :func:`_warmup_key`, the escape stage and warmup
    epochs, which the suite trains once per key; the reports equal runs
    from scratch. A run's stage times are the wall times of the workers
    that trained it, so each run's ``escape`` time is its prefix's.
    No report carries a training accuracy, so the workers train with
    ``accuracy=False`` and run no accuracy pass.

    A variant that raises, or whose worker dies, gets a report with its
    ``error`` set; the suite itself does not raise. A prefix that raises
    gives each of its variants the error a run of its own would report. A
    dying worker breaks the whole pool, so every variant it took down is
    rerun alone, from scratch, in a fresh one-worker pool.
    """
    matrix = ablation_variants(base_cfg)
    if only == "stages":
        matrix = matrix[:4]
    elif only == "losses":
        matrix = [matrix[4], matrix[5], matrix[6]]
    elif only == "epochs":
        matrix = [matrix[7], matrix[8]]
    elif only is not None:
        raise ValueError(f"run_ablation_suite: unknown subset {only!r}")
    owners: dict[TrainConfig, str] = {}  # config -> the first variant with it, which trains the run
    for name, cfg in matrix:
        owners.setdefault(cfg, name)
    groups: dict[TrainConfig, list] = {}  # warmup key -> the runs that resume from its prefix
    for cfg, name in owners.items():
        groups.setdefault(_warmup_key(cfg), []).append((name, cfg))

    # imported here, so that ``import ares`` does not pay for the pool modules
    import multiprocessing
    from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
    from concurrent.futures.process import BrokenProcessPool

    def pool(workers):
        return ProcessPoolExecutor(max_workers=workers, mp_context=multiprocessing.get_context("fork"),
                                   initializer=_set_blas_threads, initargs=(1,))

    reports: dict[str, RunReport] = {}
    broken = []
    with pool(min(len(os.sched_getaffinity(0)), len(owners))) as executor:
        pending = {}  # future -> the runs it serves: a prefix's runs, or one run

        def submit(members, fn, *args):
            try:
                pending[executor.submit(fn, *args)] = members
            except BrokenProcessPool as err:  # a worker died since the last submit
                fail(members, err)

        def fail(members, err):
            for name, cfg in members:
                reports[name] = _failed_report(name, cfg.seed, _error(err))
            if isinstance(err, BrokenProcessPool):
                broken.extend(members)

        for key, members in groups.items():
            submit(members, _warmup_or_error, key, bundle)
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
                    reports[result.variant] = result
                    continue
                prefix, error = result
                for name, cfg in members:
                    if error is not None:
                        reports[name] = _failed_report(name, cfg.seed, error)
                    else:
                        submit([(name, cfg)], _train_and_evaluate, name, cfg, bundle, prefix)
    # a dead worker fails every pending future with it: rerun each of those
    # alone, so that only the variant that kills its own worker keeps the error
    for name, cfg in broken:
        with pool(1) as executor:
            try:
                reports[name] = executor.submit(_train_and_evaluate, name, cfg, bundle).result()
            except Exception as err:
                reports[name] = _failed_report(name, cfg.seed, _error(err))

    return [
        reports[name] if owners[cfg] == name
        else replace(reports[owners[cfg]], variant=name, extra={"shared_with": owners[cfg]}, scores=None)
        for name, cfg in matrix
    ]


def write_reports_csv(path, reports: list[RunReport]) -> None:
    """Flat table: one row per variant, per-set FPR95/AUROC columns plus
    averages, gamma, and per-stage wall times."""
    set_names = sorted({name for r in reports for name in r.per_set})
    cols = ["variant", "seed", "gamma"]
    for name in set_names:
        cols += [f"{name}_fpr95", f"{name}_auroc", f"{name}_auroc_oriented"]
    cols += ["average_fpr95", "average_auroc", "average_auroc_oriented"]
    cols += [f"{stage}_s" for stage in STAGES] + ["error"]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(cols) + "\n")
        for r in reports:
            row = [r.variant, str(r.seed), _fmt(r.gamma)]
            for name in set_names:
                m = r.per_set.get(name, {})
                row += [_fmt(m.get(k)) for k in ("fpr95", "auroc", "auroc_oriented")]
            row += [_fmt(r.average.get(k)) for k in ("fpr95", "auroc", "auroc_oriented")]
            times = r.stage_times or {}
            row += [_fmt(times.get(stage)) for stage in STAGES]
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
