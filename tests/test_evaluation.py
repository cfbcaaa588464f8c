import contextlib
import dataclasses
import inspect
import os
import pickle
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ares.evaluation as eval_mod
import ares.training as training_mod
from ares.datagen import DataBundle, LabeledDataset, make_bundle
from ares.escape import EscapeConfig
from ares.evaluation import (
    ABLATION_SUBSETS,
    _failed_report,
    _train_and_evaluate,
    ablation_variants,
    auroc,
    choose_gamma,
    evaluate,
    fpr95,
    run_ablation_suite,
    run_variants,
    score_bundle,
    write_reports_csv,
)
from ares.network import BLOCK_ROWS, PAD_ROWS, MlpNetwork, energy_score_batch
from ares.rng import Rng
from ares.training import STAGES, TrainConfig, _warmup_key


# ---- oracles -----------------------------------------------------------------

def auroc_pair_count(id_scores, ood_scores):
    """O(n*m) pair counting with half credit for ties, 256 inliers at a time."""
    e = np.asarray(id_scores, float)[:, None]
    f = np.asarray(ood_scores, float)[None, :]
    wins = ties = 0
    for lo in range(0, len(e), 256):
        wins += np.count_nonzero(e[lo : lo + 256] > f)
        ties += np.count_nonzero(e[lo : lo + 256] == f)
    return (wins + 0.5 * ties) / (e.size * f.size)


def fpr95_threshold_scan(id_scores, ood_scores):
    """Exhaustive scan over candidate thresholds."""
    id_scores = np.asarray(id_scores, float)
    ood_scores = np.asarray(ood_scores, float)
    best_gamma = None
    for gamma in np.unique(id_scores)[::-1]:
        if (id_scores >= gamma).mean() >= 0.95:
            best_gamma = gamma
            break
    if best_gamma is None:
        best_gamma = id_scores.min()
    return (ood_scores >= best_gamma).mean()


def gamma_unique_scan(id_scores):
    """The original gate: rescan every unique score, largest first."""
    s = np.asarray(id_scores, dtype=float)
    n = s.size
    for gamma in np.unique(s)[::-1]:
        if np.count_nonzero(s >= gamma) >= 0.95 * n:
            return float(gamma)
    return float(s.min())


def average_ranks_loop(values):
    """The original tie-group walk, one sorted score at a time."""
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(values.size, dtype=float)
    sorted_vals = values[order]
    i = 0
    while i < values.size:
        j = i
        while j + 1 < values.size and sorted_vals[j + 1] == sorted_vals[i]:
            j += 1
        ranks[order[i : j + 1]] = 0.5 * (i + j) + 1.0
        i = j + 1
    return ranks


def auroc_loop_ranks(id_scores, ood_scores):
    """The original AUROC: rank sums over the loop's average ranks."""
    e = np.asarray(id_scores, dtype=float)
    f = np.asarray(ood_scores, dtype=float)
    ranks = average_ranks_loop(np.concatenate([e, f]))
    u = ranks[: e.size].sum() - e.size * (e.size + 1) / 2.0
    return float(u / (e.size * f.size))


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


# ---- gamma -------------------------------------------------------------------

def test_gamma_one_to_hundred():
    scores = np.arange(1.0, 101.0)
    gamma = choose_gamma(scores)
    assert gamma == 6.0
    assert (scores >= gamma).mean() >= 0.95
    larger = np.unique(scores[scores > gamma])
    assert all((scores >= g).mean() < 0.95 for g in larger[:1])


def test_gamma_all_equal():
    assert choose_gamma(np.full(30, 2.5)) == 2.5


def test_gamma_two_levels():
    scores = np.array([0.0] * 10 + [1.0] * 10)
    assert choose_gamma(scores) == 0.0  # TPR 1.0 is the only level >= .95


def test_gamma_needs_twenty_scores():
    with pytest.raises(ValueError):
        choose_gamma(np.arange(19))


def test_gamma_brute_force_agreement():
    rng = Rng(0)
    for _ in range(50):
        scores = rng.standard_normal(100)
        gamma = choose_gamma(scores)
        # gamma is attainable and the largest attainable
        assert (scores >= gamma).mean() >= 0.95
        above = np.unique(scores)[np.unique(scores) > gamma]
        assert all((scores >= g).mean() < 0.95 for g in above)


# ---- the gate ------------------------------------------------------------------------

def test_gate_inclusive_boundary():
    # 20 inlier scores 0..19 put gamma at 1.0: a score equal to gamma passes
    # the gate (counts as an inlier), one just below does not
    id_scores = np.arange(20.0)
    assert choose_gamma(id_scores) == 1.0
    assert fpr95(id_scores, [1.0]) == 1.0
    assert fpr95(id_scores, [1.0 - 1e-9]) == 0.0
    assert fpr95(id_scores, [5.0]) == 1.0


# ---- fpr95 -------------------------------------------------------------------------

def test_fpr95_separated():
    assert fpr95(np.arange(100, 200.0), np.arange(0, 50.0)) == 0.0


def test_fpr95_identical_distributions():
    s = Rng(1).standard_normal(500)
    assert fpr95(s, s) >= 0.95


def test_fpr95_matches_exhaustive_scan():
    rng = Rng(2)
    for _ in range(30):
        a = rng.standard_normal(500)
        b = rng.standard_normal(500) - rng.uniform(0, 2)
        assert fpr95(a, b) == fpr95_threshold_scan(a, b)


def test_fpr95_empty_rejected():
    with pytest.raises(ValueError):
        fpr95([], [1.0])


# ---- auroc -------------------------------------------------------------------------

def test_auroc_hand_case():
    assert auroc([2.0, 1.0], [1.5, 0.0]) == 0.75


def test_auroc_perfect():
    assert auroc([4, 3, 2, 1], [0, -1]) == 1.0


def test_auroc_identical_lists():
    s = [0.5, 1.5, 2.5]
    assert auroc(s, s) == 0.5


def test_auroc_matches_pair_count():
    rng = Rng(3)
    for _ in range(20):
        n = int(rng.integers(5, 400))
        m = int(rng.integers(5, 400))
        a = np.round(rng.standard_normal(n), 2)  # rounding forces ties
        b = np.round(rng.standard_normal(m), 2)
        assert auroc(a, b) == pytest.approx(auroc_pair_count(a, b), abs=1e-12)


def test_auroc_sign_flip_antisymmetry():
    rng = Rng(4)
    a, b = rng.standard_normal(50), rng.standard_normal(60)
    assert auroc(-a, -b) == pytest.approx(1.0 - auroc(a, b), abs=1e-12)


@given(
    shift=st.floats(-5, 5),
    scale=st.floats(0.1, 10),
)
@settings(max_examples=50, deadline=None)
def test_auroc_monotone_transform_invariant(shift, scale):
    rng = Rng(5)
    a, b = rng.standard_normal(40), rng.standard_normal(40)
    base = auroc(a, b)
    assert auroc(scale * a + shift, scale * b + shift) == pytest.approx(base, abs=1e-12)


# ---- bitwise agreement with the original loops ---------------------------------------

def score_cases():
    """Tie-heavy, tiny and large score vectors, with an outlier partner each."""
    rng = Rng(21)
    for n in (20, 21, 22, 23, 39, 40, 41, 101):
        yield rng.standard_normal(n), rng.standard_normal(n + 3) - 0.5
        yield np.round(rng.standard_normal(n), 1), np.round(rng.standard_normal(n), 1)
        yield rng.integers(0, 4, n).astype(float), rng.integers(-1, 3, 2 * n).astype(float)
    yield np.full(25, -0.5), np.full(7, -0.5)
    yield rng.standard_normal(20_000), rng.standard_normal(20_000) - 1.0
    yield np.round(rng.standard_normal(20_000), 2), np.round(rng.standard_normal(20_000) - 1.0, 2)
    yield rng.integers(0, 7, 20_000).astype(float), rng.integers(0, 9, 20_000).astype(float)


def test_gamma_equals_unique_scan_bitwise():
    for id_scores, _ood in score_cases():
        assert bits(choose_gamma(id_scores)) == bits(gamma_unique_scan(id_scores))


def test_auroc_equals_pair_count_bitwise():
    for id_scores, ood_scores in score_cases():
        assert bits(auroc(id_scores, ood_scores)) == bits(auroc_pair_count(id_scores, ood_scores))
    # tie-heavy lists with +0.0 and -0.0 in one tie group, in shuffled order
    rng = Rng(23)
    signed_zeros = np.array([0.0, -0.0, 0.0, -0.0, 1.0, -1.0, -0.0])
    values = np.r_[signed_zeros, 0.5, -0.5, 2.0]
    for n in (64, 1000, 20_000):
        id_scores, ood_scores = rng.choice(values, n), rng.choice(values, n + 3)
        for s in (id_scores, ood_scores):
            assert np.signbit(s[s == 0.0]).any() and not np.signbit(s[s == 0.0]).all()
        assert bits(auroc(id_scores, ood_scores)) == bits(auroc_pair_count(id_scores, ood_scores))
    assert bits(auroc(signed_zeros, -signed_zeros)) == bits(auroc_pair_count(signed_zeros, -signed_zeros))


def test_auroc_and_fpr95_equal_loops_bitwise():
    for id_scores, ood_scores in score_cases():
        assert bits(auroc(id_scores, ood_scores)) == bits(auroc_loop_ranks(id_scores, ood_scores))
        assert bits(fpr95(id_scores, ood_scores)) == bits(fpr95_threshold_scan(id_scores, ood_scores))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_scores_rejected(bad):
    s = Rng(22).standard_normal(50)
    s[[3, 17]] = bad
    for call in (
        lambda: choose_gamma(s),
        lambda: fpr95(np.arange(50.0), s),
        lambda: auroc(s, np.arange(5.0)),
        lambda: auroc(np.arange(5.0), s),
    ):
        with pytest.raises(ValueError, match=f"2 non-finite score.*{bad}"):
            call()


# ---- score_bundle ----------------------------------------------------------------------

def _points_bundle(id_x, ood_x):
    """A bundle holding only what score_bundle reads."""
    ids = LabeledDataset(id_x, np.zeros(len(id_x), dtype=int))
    return DataBundle(id_train=ids, id_test=ids, aux=id_x, ood_eval={"ring": ood_x})


def _default_net(seed):
    cfg = TrainConfig()
    return MlpNetwork(2, cfg.hidden_dims, cfg.feature_dim, 3, Rng(seed))


@contextlib.contextmanager
def blas_threads(n):
    before = training_mod._set_blas_threads(n)
    try:
        yield
    finally:
        if before is not None:
            training_mod._set_blas_threads(before)


def padded_energies(net, x):
    """Energy of each row of ``x`` from one forward of the whole array,
    zero-padded to a multiple of ``PAD_ROWS`` (8) rows."""
    xs = np.zeros((-(-len(x) // PAD_ROWS) * PAD_ROWS, x.shape[1]))
    xs[: len(x)] = x
    return energy_score_batch(net, net.forward(xs).logits)[: len(x)]


@pytest.mark.parametrize("threads", [1, 2])
def test_score_bundle_blocks_equal_whole_array_bitwise(threads):
    # B + 1 and 2B + 1 leave a one-row block, whose matmul would run down
    # another BLAS path; padded to 8 rows, it scores as inside the whole array
    b = BLOCK_ROWS
    net = _default_net(31)
    net.energy_u[...] = Rng(32).standard_normal(3)
    rng = Rng(33)
    with blas_threads(threads):
        for n in (0, 1, 2, b - 1, b, b + 1, 2 * b + 1, 20_000):
            id_x, ood_x = 4.0 * rng.standard_normal((n, 2)), 9.0 * rng.standard_normal((n, 2))
            id_scores, ood_scores = score_bundle(net, _points_bundle(id_x, ood_x))
            for x, got in ((id_x, id_scores), (ood_x, ood_scores["ring"])):
                want = padded_energies(net, x)
                assert got.shape == (n,) and bits(got) == bits(want), n


@pytest.mark.parametrize("threads", [1, 2])
def test_score_of_a_row_does_not_depend_on_its_block(threads):
    # unpadded, the last n mod 4 rows of an n-row GEMM take a row-tail path
    # and can round differently than inside a longer block
    net = _default_net(37)
    net.energy_u[...] = Rng(38).standard_normal(3)
    rng = Rng(39)
    x = 4.0 * rng.standard_normal((4096, 2))
    with blas_threads(threads):
        whole = score_bundle(net, _points_bundle(x, x))[0]
        for _ in range(400):
            rows = rng.choice(4096, size=1 + int(rng.integers(599)), replace=False)
            got = score_bundle(net, _points_bundle(x[rows], x[rows]))[0]
            assert bits(got) == bits(whole[rows]), len(rows)


def test_score_bundle_rejects_other_width():
    net = _default_net(40)
    with pytest.raises(ValueError, match=r"expected \(n, 2\) points, got \(5, 1\)"):
        score_bundle(net, _points_bundle(np.zeros((5, 2)), np.zeros((5, 1))))


def test_score_bundle_memory_bounded_by_block():
    # a whole-set forward of 20000 rows caches two 20000x64 activations
    # (10.2 MB each); scored in blocks, the peak is the workspace of one
    # 1024-row block (1.2 MB) and the two 20000-score outputs (0.3 MB)
    net = _default_net(34)
    bundle = _points_bundle(Rng(35).standard_normal((20_000, 2)), Rng(36).standard_normal((20_000, 2)))
    tracemalloc.start()
    try:
        score_bundle(net, bundle)
        _current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2e6, peak


# ---- evaluate ------------------------------------------------------------------------

@pytest.fixture(scope="module")
def small_world():
    bundle = make_bundle(
        {"n_train": 120, "n_test": 60, "k": 3, "d": 2, "n_ood": 60, "ood_sets": "ring,uniform"},
        seed=7,
    )
    net = MlpNetwork(2, (8,), 4, 3, Rng(7))
    return bundle, net

def test_evaluate_single_set_average(small_world):
    bundle, net = small_world
    only_ring = make_bundle(
        {"n_train": 120, "n_test": 60, "k": 3, "d": 2, "n_ood": 60, "ood_sets": "ring"}, seed=7
    )
    rep = evaluate(net, only_ring)
    assert set(rep.per_set) == {"ring"}
    for key in ("fpr95", "auroc"):
        assert rep.average[key] == rep.per_set["ring"][key]


def test_evaluate_macro_average(small_world):
    bundle, net = small_world
    rep = evaluate(net, bundle)
    for key in ("fpr95", "auroc", "auroc_oriented"):
        mean = np.mean([m[key] for m in rep.per_set.values()])
        assert abs(rep.average[key] - mean) < 1e-12


def test_evaluate_chooses_gamma_once(small_world, monkeypatch):
    bundle, net = small_world
    real, gammas = eval_mod.choose_gamma, []

    def counting(id_scores):
        gammas.append(real(id_scores))
        return gammas[-1]

    monkeypatch.setattr(eval_mod, "choose_gamma", counting)
    rep = evaluate(net, bundle)
    assert len(bundle.ood_eval) == 2 and gammas == [rep.gamma]
    id_scores, ood_scores = eval_mod.score_bundle(net, bundle)
    for name, scores in ood_scores.items():
        assert rep.per_set[name]["fpr95"] == fpr95(id_scores, scores)


def test_report_keeps_scores_outside_its_value(small_world):
    bundle, net = small_world
    rep = evaluate(net, bundle)
    id_scores, ood_scores = eval_mod.score_bundle(net, bundle)
    assert rep.scores[0].tobytes() == id_scores.tobytes()
    assert {k: v.tobytes() for k, v in rep.scores[1].items()} == {
        k: v.tobytes() for k, v in ood_scores.items()
    }
    assert "scores" not in rep.to_json_dict() and "scores" not in repr(rep)
    other = dataclasses.replace(rep, scores=(id_scores + 1.0, {}))
    assert other == rep and dataclasses.replace(rep, scores=None) == rep


def test_evaluate_metrics_in_range(small_world):
    bundle, net = small_world
    rep = evaluate(net, bundle)
    for m in rep.per_set.values():
        assert 0.0 <= m["fpr95"] <= 1.0
        assert 0.0 <= m["auroc"] <= 1.0
        assert m["auroc_oriented"] >= 0.5


def test_shifted_blobs_zero_offset_is_undetectable():
    # with offset 0 the "outlier" set is drawn from the inlier law, so any
    # detector sits at chance
    aurocs = []
    for seed in range(5):
        bundle = make_bundle(
            {"n_train": 150, "n_test": 600, "k": 3, "d": 2, "n_ood": 600,
             "ood_sets": "shifted-blobs", "shift_offset": 0.0},
            seed=seed,
        )
        net = MlpNetwork(2, (16,), 8, 3, Rng(50 + seed))
        aurocs.append(evaluate(net, bundle).average["auroc"])
    assert abs(np.mean(aurocs) - 0.5) <= 0.05


def test_untrained_net_near_chance():
    aurocs = []
    for seed in range(10):
        bundle = make_bundle(
            {"n_train": 120, "n_test": 200, "k": 3, "d": 2, "n_ood": 200, "ood_sets": "ring",
             "ring_inner": 5.0, "ring_outer": 7.0},
            seed=seed,
        )
        net = MlpNetwork(2, (64, 64), 16, 3, Rng(1000 + seed))
        aurocs.append(evaluate(net, bundle).average["auroc"])
    assert 0.3 <= np.mean(aurocs) <= 0.7


# ---- ablation suite --------------------------------------------------------------------

def micro_cfg():
    return TrainConfig(
        total_epochs=4,
        pretrain_epochs=2,
        batch_size=30,
        lr_start=0.05,
        lr_end=1e-4,
        seed=3,
        beta_warmup_epochs=1,
    )


MICRO_DATA = {"n_train": 120, "n_test": 60, "k": 3, "d": 2, "n_ood": 60, "ood_sets": "ring"}


@pytest.fixture(scope="module")
def micro_bundle():
    return make_bundle(MICRO_DATA, seed=3)


def micro_matrix(only=None):
    """The rows of ``ablation_variants(micro_cfg())`` that ``only`` selects,
    by the suite's own naming rule."""
    return [(name, cfg) for name, cfg in ablation_variants(micro_cfg())
            if only is None or name.startswith(ABLATION_SUBSETS[only])]


def test_suite_default_matrix_size(micro_bundle):
    reports = run_ablation_suite(micro_cfg(), micro_bundle)
    assert len(reports) == 9
    names = [r.variant for r in reports]
    assert names == [
        "full", "no-escape", "no-expansion", "no-estimation",
        "loss-ce", "loss-nce", "loss-jsd", "epochs-4", "epochs-8",
    ]
    assert all(r.seed == 3 for r in reports)


def test_suite_shares_full_run(micro_bundle):
    reports = run_ablation_suite(micro_cfg(), micro_bundle)
    by_name = {r.variant: r for r in reports}
    assert by_name["loss-jsd"].average == by_name["full"].average
    assert by_name["epochs-4"].average == by_name["full"].average
    assert by_name["loss-jsd"].extra.get("shared_with") == "full"


def test_suite_loss_jsd_trains_jsd_on_a_ce_base(micro_bundle):
    # on a CE base config, the loss-jsd row is its own JSD run, not a copy of loss-ce
    reports = run_ablation_suite(micro_cfg().replace(loss_kind="ce"), micro_bundle, only="losses")
    by_name = {r.variant: r for r in reports}
    assert [r.error for r in reports] == [None] * 3
    assert by_name["loss-jsd"].extra == {}
    assert by_name["loss-jsd"].average != by_name["loss-ce"].average


def test_suite_subsets(micro_bundle):
    assert len(run_ablation_suite(micro_cfg(), micro_bundle, only="losses")) == 3
    assert len(run_ablation_suite(micro_cfg(), micro_bundle, only="stages")) == 4
    assert len(run_ablation_suite(micro_cfg(), micro_bundle, only="epochs")) == 2
    with pytest.raises(ValueError):
        run_ablation_suite(micro_cfg(), micro_bundle, only="optimizers")


def test_suite_isolates_variant_failures(micro_bundle, monkeypatch):
    real = eval_mod.train

    def failing(cfg, bundle, **kw):
        if cfg.loss_kind == "nce":
            raise RuntimeError("injected failure")
        return real(cfg, bundle, **kw)

    monkeypatch.setattr(eval_mod, "train", failing)
    reports = run_ablation_suite(micro_cfg(), micro_bundle)
    by_name = {r.variant: r for r in reports}
    assert by_name["loss-nce"].error is not None
    assert "injected failure" in by_name["loss-nce"].error
    assert by_name["full"].error is None


def test_suite_survives_a_dead_worker(micro_bundle, monkeypatch):
    real = eval_mod.train

    def dying(cfg, bundle, **kw):
        if cfg.loss_kind == "nce":
            os._exit(3)
        return real(cfg, bundle, **kw)

    monkeypatch.setattr(eval_mod, "train", dying)
    reports = run_ablation_suite(micro_cfg(), micro_bundle)
    assert [r.variant for r in reports] == [name for name, _cfg in ablation_variants(micro_cfg())]
    by_name = {r.variant: r for r in reports}
    assert "BrokenProcessPool" in by_name["loss-nce"].error
    # the variants the dead worker took down with it are rerun and train fine
    assert [r.variant for r in reports if r.error is not None] == ["loss-nce"]


@pytest.mark.parametrize("only", ["stages", None])
def test_suite_equals_in_process_runs(micro_bundle, only):
    matrix = micro_matrix(only)
    reports = run_ablation_suite(micro_cfg(), micro_bundle, only=only)
    assert [r.variant for r in reports] == [name for name, _cfg in matrix]
    for report, (name, cfg) in zip(reports, matrix):
        want = _train_and_evaluate(name, cfg, micro_bundle)
        assert report.error is None and want.error is None
        assert report.gamma == want.gamma
        assert report.per_set == want.per_set
        assert report.average == want.average


def test_suite_workers_run_no_accuracy_pass(micro_bundle, monkeypatch):
    # no report reads a training accuracy, so a worker runs no accuracy pass;
    # the check fails the variant of any worker that would
    parent, real = os.getpid(), training_mod._run_epochs

    def run_epochs(*args):
        run = inspect.signature(real).bind(*args).arguments
        if os.getpid() != parent and run["accuracy"]:
            raise AssertionError("an accuracy pass would run in a pool worker")
        return real(*args)

    monkeypatch.setattr(training_mod, "_run_epochs", run_epochs)
    reports = run_ablation_suite(micro_cfg(), micro_bundle, only="stages")
    assert [r.error for r in reports] == [None] * 4


def test_warmup_key_shares_only_joint_settings():
    base = micro_cfg()
    variants = dict(ablation_variants(base))
    joint_only = ["full", "no-expansion", "no-estimation", "loss-ce", "loss-nce"]
    assert {_warmup_key(variants[name]) for name in joint_only} == {_warmup_key(base)}
    assert _warmup_key(base.replace(beta=0.0, alpha2=3.0, ridge_scale=1e-3)) == _warmup_key(base)
    own = [
        variants["no-escape"],
        variants["epochs-8"],
        base.replace(seed=4),
        base.replace(lr_start=0.06),
        base.replace(batch_size=31),
        base.replace(escape_cfg=EscapeConfig(alpha1=2.0)),
    ]
    keys = [_warmup_key(cfg) for cfg in own] + [_warmup_key(base)]
    assert len(set(keys)) == len(keys)


def _count_escapes(monkeypatch, path, error=None):
    """Append a line to ``path`` per escape stage run, which raises ``error``
    when given; forked workers inherit the patch."""
    real = training_mod.escape_dataset
    path.write_text("")

    def counting(*args, **kwargs):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write("escape\n")
        if error is not None:
            raise error
        return real(*args, **kwargs)

    monkeypatch.setattr(training_mod, "escape_dataset", counting)


@pytest.mark.parametrize("only, escapes", [("stages", 1), (None, 2)])
def test_suite_escapes_once_per_warmup_key(micro_bundle, monkeypatch, tmp_path, only, escapes):
    # stages: one prefix for full, no-expansion and no-estimation, and
    # no-escape's prefix runs none; the full matrix adds epochs-8's own prefix
    path = tmp_path / "escapes.txt"
    _count_escapes(monkeypatch, path)
    reports = run_ablation_suite(micro_cfg(), micro_bundle, only=only)
    assert [r.error for r in reports] == [None] * len(reports)
    assert path.read_text().count("escape") == escapes


def _count_runs(monkeypatch, path):
    """Append a line to ``path`` per warmup prefix the suite trains
    ("prefix") and per run it trains, resumed from a prefix ("tail") or
    not ("whole"); forked workers inherit the patches."""
    real_warmup, real_train = eval_mod._warmup, eval_mod.train
    path.write_text("")

    def note(line):
        with open(path, "a", encoding="utf-8") as fh:
            fh.write(line + "\n")

    def warmup(cfg, bundle):
        note("prefix")
        return real_warmup(cfg, bundle)

    def train(cfg, bundle, resume=None, **kw):
        note("whole" if resume is None else "tail")
        return real_train(cfg, bundle, resume=resume, **kw)

    monkeypatch.setattr(eval_mod, "_warmup", warmup)
    monkeypatch.setattr(eval_mod, "train", train)


@pytest.mark.parametrize("only, runs, prefixes", [(None, 7, 3), ("stages", 4, 2), ("losses", 3, 1),
                                                  ("epochs", 2, 2)])
def test_suite_trains_each_config_once_from_its_prefix(micro_bundle, monkeypatch, tmp_path, only, runs,
                                                        prefixes):
    # equal configs share one run, and every run resumes from the prefix of
    # its warmup key, a prefix that serves one run too: in the full matrix
    # loss-jsd and epochs-4 are full's config, and in a subset without full
    # the base row trains itself
    path = tmp_path / "runs.txt"
    _count_runs(monkeypatch, path)
    reports = run_ablation_suite(micro_cfg(), micro_bundle, only=only)
    assert [r.error for r in reports] == [None] * len(reports)
    lines = path.read_text().split()
    assert (lines.count("prefix"), lines.count("tail"), lines.count("whole")) == (prefixes, runs, 0)
    shared = {r.variant: r.extra for r in reports if r.extra}
    want = {"loss-jsd": {"shared_with": "full"}, "epochs-4": {"shared_with": "full"}}
    assert shared == (want if only is None else {})


class _Unpicklable(Exception):
    """Two required arguments and no ``__reduce__``: pickle rebuilds an
    exception from its ``args``, here the one message, and so fails."""

    def __init__(self, what, where):
        super().__init__(f"{what} [{where}]")


def test_suite_prefix_failure_reports_each_variant(micro_bundle, monkeypatch, tmp_path):
    # an exception that does not survive pickling, raised in the shared prefix:
    # it reaches each variant as text, and no worker breaks (no reruns)
    error = _Unpicklable("prefix failed", "injected")
    with pytest.raises(TypeError):
        pickle.loads(pickle.dumps(error))
    path = tmp_path / "escapes.txt"
    _count_escapes(monkeypatch, path, error)
    matrix = ablation_variants(micro_cfg())
    reports = run_ablation_suite(micro_cfg(), micro_bundle)
    assert path.read_text().count("escape") == 2
    for report, (name, cfg) in zip(reports, matrix):
        assert report.error == _train_and_evaluate(name, cfg, micro_bundle).error
        assert (report.error is None) == (name == "no-escape"), name
    assert "[injected]" in reports[0].error


def test_suite_reruns_the_variants_of_a_dead_prefix(micro_bundle, monkeypatch):
    # the prefix's worker dies: each variant that waited on it trains alone, from scratch
    monkeypatch.setattr(eval_mod, "_warmup", lambda cfg, bundle: os._exit(3))
    matrix = micro_matrix("stages")
    reports = run_ablation_suite(micro_cfg(), micro_bundle, only="stages")
    for report, (name, cfg) in zip(reports, matrix):
        assert report.error is None
        assert report.average == _train_and_evaluate(name, cfg, micro_bundle).average


def _values(report):
    """A report without its wall-clock stage times."""
    return dataclasses.replace(report, stage_times=None)


def test_variants_over_two_seeds_equal_per_seed_suites(micro_bundle):
    # one call over two seeds' bundles returns, in row order, each seed's suite
    other_cfg, other_bundle = micro_cfg().replace(seed=4), make_bundle(MICRO_DATA, seed=4)
    rows = [(name, cfg, micro_bundle) for name, cfg in micro_matrix()]
    rows += [(name, cfg.replace(seed=4), other_bundle) for name, cfg in micro_matrix()]
    want = run_ablation_suite(micro_cfg(), micro_bundle) + run_ablation_suite(other_cfg, other_bundle)
    reports = run_variants(rows)
    assert [(r.variant, r.seed) for r in reports] == [(name, cfg.seed) for name, cfg, _b in rows]
    assert [r.error for r in reports] == [None] * len(rows)
    assert list(map(_values, reports)) == list(map(_values, want))
    assert reports[0].average != reports[len(rows) // 2].average


def test_variants_share_no_run_across_bundles(micro_bundle, monkeypatch, tmp_path):
    # equal configs on two bundle objects are two runs from two prefixes, even
    # when the bundles hold the same points
    twin, other = make_bundle(MICRO_DATA, seed=3), make_bundle(MICRO_DATA, seed=4)
    rows = [("a", micro_cfg(), micro_bundle), ("b", micro_cfg(), twin), ("c", micro_cfg(), other)]
    path = tmp_path / "runs.txt"
    _count_runs(monkeypatch, path)
    reports = run_variants(rows)
    lines = path.read_text().split()
    assert (lines.count("prefix"), lines.count("tail")) == (3, 3)
    assert [r.extra for r in reports] == [{}] * 3
    for report, (name, cfg, bundle) in zip(reports, rows):
        assert _values(report) == _values(_train_and_evaluate(name, cfg, bundle))
    assert reports[0].average == reports[1].average != reports[2].average


def test_variants_rerun_a_dead_prefix_on_their_own_bundles(micro_bundle, monkeypatch):
    # each row that waited on a dead prefix trains alone, from scratch, on its own bundle
    monkeypatch.setattr(eval_mod, "_warmup", lambda cfg, bundle: os._exit(3))
    other = make_bundle(MICRO_DATA, seed=4)
    rows = [("here", micro_cfg(), micro_bundle), ("there", micro_cfg(), other)]
    reports = run_variants(rows)
    for report, (name, cfg, bundle) in zip(reports, rows):
        assert report.error is None
        assert _values(report) == _values(_train_and_evaluate(name, cfg, bundle))
    assert reports[0].average != reports[1].average


def test_reports_csv_layout(tmp_path, micro_bundle):
    reports = run_ablation_suite(micro_cfg(), micro_bundle, only="stages")
    path = tmp_path / "ablation.csv"
    write_reports_csv(path, reports)
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    assert header[0] == "variant"
    assert "ring_fpr95" in header and "ring_auroc" in header
    assert "average_fpr95" in header and "average_auroc" in header
    stage_cols = ["escape_s", "expansion_s", "estimation_s", "divergence_s", "step_s", "accuracy_s"]
    assert header[-7:] == stage_cols + ["error"]
    assert all(float(x) >= 0.0 for line in lines[1:] for x in line.split(",")[-7:-1])
    assert len(lines) == 5


def test_reports_csv_stage_columns_only_with_stage_times(tmp_path, micro_bundle):
    # the six stage-time columns come with the first report that has stage
    # times; a bare evaluate() report, or a table of failed runs, has none
    plain = evaluate(MlpNetwork(2, (8,), 4, 3, Rng(0)), micro_bundle)
    timed = dataclasses.replace(plain, stage_times=dict.fromkeys(STAGES, 0.5))
    failed = _failed_report("full", micro_cfg(), "RuntimeError: injected")
    stage_cols = [f"{stage}_s" for stage in STAGES]
    metric_cols = ["average_fpr95", "average_auroc", "average_auroc_oriented"]

    def header_and_rows(reports):
        path = tmp_path / "report.csv"
        write_reports_csv(path, reports)
        lines = [line.split(",") for line in path.read_text().strip().split("\n")]
        assert all(len(row) == len(lines[0]) for row in lines)
        return lines[0], lines[1:]

    header, _ = header_and_rows([plain])
    assert header[-4:] == metric_cols + ["error"]
    header, rows = header_and_rows([failed, failed])
    assert header == ["variant", "seed", "gamma"] + metric_cols + ["error"]
    assert rows[0] == ["full", "3", "nan", "", "", "", "RuntimeError: injected"]
    header, rows = header_and_rows([failed, timed])
    assert header[-7:] == stage_cols + ["error"]
    assert rows[0][-7:] == [""] * 6 + ["RuntimeError: injected"]
    assert rows[1][-7:] == ["0.5"] * 6 + [""]
