"""Acceptance gate: every criterion below prints one PASS/FAIL/WARN line
(run with ``pytest -s tests/test_acceptance.py`` to see them live).

End-to-end targets were locked in by the first calibrated run on the fixed
benchmark seeds and are frozen here; determinism makes them stable.
"""

import math
import time

import numpy as np
import pytest
from scipy import integrate

from ares.cli import main as cli_main
from ares.datagen import make_bundle
from ares.evaluation import auroc, choose_gamma, evaluate, fpr95
from ares.network import MlpNetwork
from ares.numerics import (
    Gauss1d,
    GaussianModel,
    fit_gaussian,
    gaussian_logpdf,
    jsd_gauss1d,
    kld_gauss1d,
)
from ares.rng import Rng
from ares.synthesis import sample_virtual_outliers
from ares.training import TrainConfig, compute_batch_gradients, compute_batch_loss, train
from gradcheck import finite_difference_grads, max_relative_error

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
BENCH_SEEDS = (0, 1, 2, 3, 4)
DESK = dict(total_epochs=100, pretrain_epochs=40, batch_size=128)
SECONDS_PER_SEED_BUDGET = 120.0


def report(number: int, name: str, ok: bool, detail: str, soft: bool = False, evidence: str = ""):
    status = "PASS" if ok else ("WARN" if soft else "FAIL")
    print(f"ACCEPTANCE {number:2d} {status}: {name} — {detail}{evidence}")
    if not ok and not soft:
        pytest.fail(f"criterion {number} ({name}): {detail}")


# ---------------------------------------------------------------------------
# shared benchmark runs (trained once, reused by criteria 6, 7, 8, 10)
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def bench():
    bundles = {s: make_bundle(BENCH_DATA, seed=s) for s in BENCH_SEEDS}
    cache: dict = {"bundles": bundles, "runs": {}, "train_seconds": []}

    def run(variant: str, seed: int, **kw):
        key = (variant, seed)
        if key not in cache["runs"]:
            cfg = TrainConfig(seed=seed, **{**DESK, **kw})
            t0 = time.perf_counter()
            net, log = train(cfg, bundles[seed])
            cache["train_seconds"].append(time.perf_counter() - t0)
            rep = evaluate(net, bundles[seed], variant=variant, seed=seed)
            cache["runs"][key] = (rep, log)
        return cache["runs"][key]

    cache["run"] = run
    return cache


def seed_values(bench_cache, variant: str, metric: str, seeds=BENCH_SEEDS, **kw) -> list[float]:
    return [bench_cache["run"](variant, s, **kw)[0].average[metric] for s in seeds]


def mean_metric(bench_cache, variant: str, metric: str, seeds=BENCH_SEEDS, **kw) -> float:
    return float(np.mean(seed_values(bench_cache, variant, metric, seeds, **kw)))


def per_seed_evidence(bench_cache, metric: str, higher_better: bool, variants: dict) -> str:
    """Detail lines behind a comparison of means (printed only, never
    gated): the per-seed ``metric`` of ``full`` and of each variant (name ->
    train overrides), each variant's paired per-seed difference against
    ``full`` with its win count, and every run whose AUROC is below 0.5."""
    full = seed_values(bench_cache, "full", metric)
    lines, inverted = [], []
    for name, kw in {"full": {}, **variants}.items():
        vals = seed_values(bench_cache, name, metric, **kw)
        line = f"{name} {metric} per seed " + " ".join(f"{v:.3f}" for v in vals)
        if name != "full":
            diffs = [v - f for v, f in zip(vals, full)]
            wins = sum(d > 0 if higher_better else d < 0 for d in diffs)
            line += (" | minus full " + " ".join(f"{d:+.3f}" for d in diffs)
                     + f" | {name} better on {wins}/{len(diffs)}")
        lines.append(line)
        aurocs = seed_values(bench_cache, name, "auroc", **kw)
        inverted += [f"{name} seed {s} ({a:.3f})" for s, a in zip(BENCH_SEEDS, aurocs) if a < 0.5]
    lines.append("AUROC < 0.5 (inverted scores): " + (", ".join(inverted) or "none"))
    return "".join("\n    " + line for line in lines)


# ---------------------------------------------------------------------------
# 1. divergence oracle
# ---------------------------------------------------------------------------

def quadrature_kld(p: Gauss1d, q: Gauss1d) -> float:
    sp, sq = math.sqrt(p.var), math.sqrt(q.var)

    def integrand(x):
        lp = -0.5 * ((x - p.mu) / sp) ** 2 - math.log(sp * math.sqrt(2 * math.pi))
        lq = -0.5 * ((x - q.mu) / sq) ** 2 - math.log(sq * math.sqrt(2 * math.pi))
        return math.exp(lp) * (lp - lq)

    lo = min(p.mu - 40 * sp, q.mu - 40 * sq)
    hi = max(p.mu + 40 * sp, q.mu + 40 * sq)
    val, _ = integrate.quad(integrand, lo, hi, limit=400, epsabs=1e-13, epsrel=1e-10)
    return val


def test_criterion_1_divergence_oracle():
    t0 = time.perf_counter()
    rng = Rng(101)
    worst = 0.0
    for _ in range(200):
        p = Gauss1d(rng.uniform(-10, 10), rng.uniform(0.05, 9.0))
        q = Gauss1d(rng.uniform(-10, 10), rng.uniform(0.05, 9.0))
        closed = kld_gauss1d(p, q)
        quad = quadrature_kld(p, q)
        rel = abs(closed - quad) / max(1e-9, abs(quad))
        worst = max(worst, rel)
        assert jsd_gauss1d(p, q) == jsd_gauss1d(q, p)
        assert jsd_gauss1d(p, p) <= 1e-12
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-6 and elapsed < 5.0
    report(1, "closed-form divergences vs quadrature", ok,
           f"max rel err {worst:.2e} over 200 pairs, symmetry exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. gaussian fit oracle
# ---------------------------------------------------------------------------

def test_criterion_2_gaussian_fit_oracle():
    hand = fit_gaussian([[0.0, 0.0], [2.0, 0.0], [0.0, 2.0], [2.0, 2.0]])
    exact = np.array_equal(hand.mu, [1.0, 1.0]) and np.array_equal(hand.sigma, np.eye(2))

    rng = Rng(202)
    worst = 0.0
    for _ in range(50):
        p = int(rng.integers(2, 17))
        a = rng.standard_normal((p, p))
        sigma = a @ a.T + 0.05 * np.eye(p)
        model = GaussianModel.from_moments(rng.standard_normal(p), sigma)
        reg = model.sigma + model.ridge * np.eye(p)
        sign, logdet = np.linalg.slogdet(reg)
        inv = np.linalg.inv(reg)
        for _ in range(4):
            v = rng.standard_normal(p) * 2.0
            diff = v - model.mu
            ref = -0.5 * (p * math.log(2 * math.pi) + logdet + diff @ inv @ diff)
            worst = max(worst, abs(gaussian_logpdf(model, v) - ref))
    ok = exact and worst <= 1e-9
    report(2, "gaussian fit + factorized log-density vs dense inverse", ok,
           f"hand case exact={exact}, max |logpdf diff| {worst:.2e} over 50 SPD models (p<=16)")


# ---------------------------------------------------------------------------
# 3. bottom-B selection
# ---------------------------------------------------------------------------

def test_criterion_3_epsilon_quantile():
    t0 = time.perf_counter()
    rng = Rng(303)
    for trial in range(100):
        n = int(rng.integers(50, 400))
        p = int(rng.integers(2, 6))
        pts = rng.standard_normal((n, p)) * rng.uniform(0.5, 2.0)
        model = fit_gaussian(pts)
        dens = np.exp(gaussian_logpdf(model, pts))
        b = int(rng.integers(1, n // 2 + 1))
        expect = pts[np.argsort(dens, kind="stable")[:b]]
        assert np.array_equal(sample_virtual_outliers(pts, model, count=b), expect), f"trial {trial}"
    elapsed = time.perf_counter() - t0
    ok = elapsed < 10.0
    report(3, "bottom-B selection vs brute force", ok,
           f"100 trials exact, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 4. metric oracles
# ---------------------------------------------------------------------------

def test_criterion_4_metric_oracles():
    t0 = time.perf_counter()
    assert auroc([2.0, 1.0], [1.5, 0.0]) == 0.75
    rng = Rng(404)
    for trial in range(100):
        n = int(rng.integers(25, 1001))
        m = int(rng.integers(25, 1001))
        a = np.round(rng.standard_normal(n) * rng.uniform(0.5, 3), 2)
        b = np.round(rng.standard_normal(m) - rng.uniform(0, 1), 2)
        pair = ((a[:, None] > b[None, :]).sum() + 0.5 * (a[:, None] == b[None, :]).sum()) / (n * m)
        assert auroc(a, b) == pair, f"trial {trial}"

        gamma = None
        for g in np.unique(a)[::-1]:
            if (a >= g).mean() >= 0.95:
                gamma = g
                break
        scan = (b >= gamma).mean()
        assert fpr95(a, b) == scan, f"trial {trial}"
        assert choose_gamma(a) == gamma
    elapsed = time.perf_counter() - t0
    ok = elapsed < 20.0
    report(4, "auroc pair count + fpr95 threshold scan", ok,
           f"100 random score-set pairs exact, hand case 0.75, {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 5. gradient correctness
# ---------------------------------------------------------------------------

def test_criterion_5_gradients():
    net = MlpNetwork(3, (6,), 4, 3, Rng(505))  # two weight layers
    rng = Rng(506)
    net.energy_u[...] = 0.15 * rng.standard_normal(3)
    xb = rng.standard_normal((8, 3))
    yb = rng.integers(0, 3, 8)
    v_pts = rng.standard_normal((8, 4)) * 1.5
    cfg = TrainConfig(beta=0.1, loss_kind="jsd")

    _, _, _, tape = compute_batch_gradients(net, xb, yb, cfg, v_pts=None)
    fd = finite_difference_grads(net, lambda: compute_batch_loss(net, xb, yb, cfg), h=1e-5)
    for name in ("energy_u", "head_w", "head_b"):
        fd.pop(name)
    ce_err = max_relative_error({k: tape.grads[k] for k in fd}, fd)

    _, _, _, tape2 = compute_batch_gradients(net, xb, yb, cfg, v_pts=v_pts)
    fd2 = finite_difference_grads(
        net, lambda: compute_batch_loss(net, xb, yb, cfg, v_pts=v_pts), h=1e-5
    )
    fd2.pop("head_w")
    fd2.pop("head_b")
    full_err = max_relative_error({k: tape2.grads[k] for k in fd2}, fd2)
    energy_grad_active = np.any(tape2.grads["energy_u"] != 0.0)

    ok = ce_err <= 1e-4 and full_err <= 1e-3 and energy_grad_active
    report(5, "analytic gradients vs central differences (h=1e-5)", ok,
           f"cross-entropy max rel err {ce_err:.2e} (<=1e-4), composite {full_err:.2e} "
           f"(<=1e-3), energy-weight path exercised={energy_grad_active}")


# ---------------------------------------------------------------------------
# 6. end-to-end separation
# ---------------------------------------------------------------------------

def test_criterion_6_end_to_end(bench):
    full = mean_metric(bench, "full", "auroc")
    base = mean_metric(bench, "baseline", "auroc", beta=0.0)
    budget_ok = all(s < SECONDS_PER_SEED_BUDGET for s in bench["train_seconds"])
    ok = full >= 0.85 and full - base >= 0.05 and budget_ok
    report(6, "full pipeline beats classification-only baseline", ok,
           f"mean AUROC full={full:.3f} (>=0.85), baseline={base:.3f}, "
           f"gap={full - base:+.3f} (>=0.05), max train time "
           f"{max(bench['train_seconds']):.1f}s (<{SECONDS_PER_SEED_BUDGET:.0f}s/seed)",
           evidence=per_seed_evidence(bench, "auroc", True, {"baseline": {"beta": 0.0}}))


# ---------------------------------------------------------------------------
# 7. stage ablation ordering (soft beyond 1 point)
# ---------------------------------------------------------------------------

def test_criterion_7_stage_ablation(bench):
    full = mean_metric(bench, "full", "fpr95")
    stage_off = {
        "no-escape": {"escape": False},
        "no-expansion": {"expansion": False},
        "no-estimation": {"estimation": False},
    }
    masks = {k: mean_metric(bench, k, "fpr95", **kw) for k, kw in stage_off.items()}
    detail = f"full FPR95={full:.3f} vs " + ", ".join(f"{k}={v:.3f}" for k, v in masks.items())
    evidence = per_seed_evidence(bench, "fpr95", False, stage_off)
    worst_violation = max(full - v for v in masks.values())
    if worst_violation <= 0:
        report(7, "removing any stage does not improve FPR95", True, detail, evidence=evidence)
    elif worst_violation <= 0.01:
        report(7, "removing any stage does not improve FPR95", False,
               detail + f" (violation {worst_violation:.3f} within 1 point: soft warning)",
               soft=True, evidence=evidence)
    else:
        report(7, "removing any stage does not improve FPR95", False,
               detail + f" (violation {worst_violation:.3f} exceeds 1 point)", evidence=evidence)


# ---------------------------------------------------------------------------
# 8. loss ablation ordering (soft beyond 1 point)
# ---------------------------------------------------------------------------

def test_criterion_8_loss_ablation(bench):
    jsd = mean_metric(bench, "full", "fpr95")
    ce = mean_metric(bench, "loss-ce", "fpr95", loss_kind="ce")
    nce = mean_metric(bench, "loss-nce", "fpr95", loss_kind="nce")
    detail = f"FPR95 jsd={jsd:.3f}, ce={ce:.3f}, nce={nce:.3f}"
    evidence = per_seed_evidence(
        bench, "fpr95", False, {"loss-ce": {"loss_kind": "ce"}, "loss-nce": {"loss_kind": "nce"}}
    )
    worst_violation = max(jsd - ce, jsd - nce)
    if worst_violation <= 0:
        report(8, "divergence loss beats ce/nce ablations on FPR95", True, detail, evidence=evidence)
    elif worst_violation <= 0.01:
        report(8, "divergence loss beats ce/nce ablations on FPR95", False,
               detail + f" (violation {worst_violation:.3f} within 1 point: soft warning)",
               soft=True, evidence=evidence)
    else:
        report(8, "divergence loss beats ce/nce ablations on FPR95", False,
               detail + f" (violation {worst_violation:.3f} exceeds 1 point)", evidence=evidence)


# ---------------------------------------------------------------------------
# 9. determinism of artifacts
# ---------------------------------------------------------------------------

def test_criterion_9_determinism(tmp_path):
    cfg = tmp_path / "det.ini"
    cfg.write_text(
        "[data]\nn_train = 150\nn_test = 60\nn_ood = 60\n\n"
        "[train]\ntotal_epochs = 8\npretrain_epochs = 3\nbatch_size = 30\n"
        "beta_warmup_epochs = 2\nseed = 21\n"
    )
    data_dir = tmp_path / "data"
    assert cli_main(["gen", "--config", str(cfg), "--out", str(data_dir)]) == 0

    pairs = {}
    for tag in ("a", "b"):
        tdir = tmp_path / f"train_{tag}"
        edir = tmp_path / f"eval_{tag}"
        assert cli_main(["train", "--config", str(cfg), "--data", str(data_dir), "--out", str(tdir)]) == 0
        assert cli_main([
            "eval", "--config", str(cfg), "--checkpoint", str(tdir / "checkpoint.json"),
            "--data", str(data_dir), "--out", str(edir),
        ]) == 0
        pairs[tag] = {
            "train_log.csv": (tdir / "train_log.csv").read_bytes(),
            "checkpoint.json": (tdir / "checkpoint.json").read_bytes(),
            "report.json": (edir / "report.json").read_bytes(),
            "report.csv": (edir / "report.csv").read_bytes(),
        }
    mism = [k for k in pairs["a"] if pairs["a"][k] != pairs["b"][k]]
    ok = not mism
    report(9, "rerun with same config+seed is byte-identical", ok,
           "train log, checkpoint, and reports match" if ok else f"mismatch in {mism}")


# ---------------------------------------------------------------------------
# 10. epoch-budget robustness (soft)
# ---------------------------------------------------------------------------

def test_criterion_10_epoch_budgets(bench):
    seeds = BENCH_SEEDS[:3]
    short = mean_metric(bench, "full", "auroc", seeds=seeds)
    long = mean_metric(
        bench, "epochs-200", "auroc", seeds=seeds, total_epochs=200, pretrain_epochs=80
    )
    diff = abs(short - long)
    detail = f"mean AUROC 100-epoch={short:.3f}, 200-epoch={long:.3f}, |diff|={diff:.3f}"
    report(10, "100- vs 200-epoch budgets agree within 5 points", diff <= 0.05, detail,
           soft=True)
