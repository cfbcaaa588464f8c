import itertools
import os
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

from ares import datagen
from ares.datagen import (
    DataConfig,
    geometric_transform,
    ifs_chaos_points,
    load_points_csv,
    make_aux_dataset,
    make_bundle,
    make_id_dataset,
    make_ood_eval,
    random_ifs,
    save_points_csv,
)
from ares.errors import ConfigError
from ares.rng import Rng


def correlation_dimension(pts: np.ndarray, n_pairs: int = 200_000, seed: int = 0) -> float:
    """Grassberger-Procaccia slope estimate over sampled point pairs."""
    rng = np.random.default_rng(seed)
    n = len(pts)
    i = rng.integers(0, n, n_pairs)
    j = rng.integers(0, n, n_pairs)
    keep = i != j
    d = np.linalg.norm(pts[i[keep]] - pts[j[keep]], axis=1)
    d = d[d > 0]
    scale = np.median(d)
    radii = scale * np.logspace(-1.2, -0.2, 8)
    counts = np.array([(d < r).mean() for r in radii])
    mask = counts > 0
    slope, _ = np.polyfit(np.log(radii[mask]), np.log(counts[mask]), 1)
    return float(slope)


# ---- inlier generators -------------------------------------------------------

def test_blobs_balance_exact():
    data = make_id_dataset(DataConfig(), 300, Rng(0))
    counts = np.bincount(data.y, minlength=3)
    assert np.array_equal(counts, [100, 100, 100])


def test_balance_within_one_when_uneven():
    data = make_id_dataset(DataConfig(), 301, Rng(0))
    counts = np.bincount(data.y, minlength=3)
    assert counts.max() - counts.min() <= 1


def test_blobs_zero_spread_hits_centers():
    data = make_id_dataset(DataConfig(spread=0.0, center_radius=2.0), 30, Rng(1))
    centers = np.array(
        [[2.0, 0.0], [2.0 * np.cos(2 * np.pi / 3), 2.0 * np.sin(2 * np.pi / 3)],
         [2.0 * np.cos(4 * np.pi / 3), 2.0 * np.sin(4 * np.pi / 3)]]
    )
    assert np.allclose(data.x, centers[data.y], atol=1e-12)


def test_moons_class_means_separate():
    data = make_id_dataset(DataConfig(generator="moons2d", k=2), 10_000, Rng(2))
    m0 = data.x[data.y == 0].mean(axis=0)
    m1 = data.x[data.y == 1].mean(axis=0)
    assert np.all(np.abs(m0 - m1) > 0.5)


def test_rings_radii_ordered():
    data = make_id_dataset(DataConfig(generator="rings"), 600, Rng(3))
    radii = [np.linalg.norm(data.x[data.y == c], axis=1).mean() for c in range(3)]
    assert radii[0] < radii[1] < radii[2]


def test_unknown_generator_is_config_error():
    with pytest.raises(ConfigError):
        DataConfig(generator="spiral")
    with pytest.raises(ConfigError):
        DataConfig(ood_sets="donut")


def test_generators_deterministic():
    a = make_id_dataset(DataConfig(k=2, d=3), 100, Rng(9))
    b = make_id_dataset(DataConfig(k=2, d=3), 100, Rng(9))
    assert np.array_equal(a.x, b.x) and np.array_equal(a.y, b.y)


def test_all_finite():
    bundle = make_bundle({}, seed=5)
    assert np.all(np.isfinite(bundle.id_train.x))
    assert np.all(np.isfinite(bundle.aux))
    for pts in bundle.ood_eval.values():
        assert np.all(np.isfinite(pts))


# ---- outlier eval sets ----------------------------------------------------------

def test_ring_separated_from_inliers():
    cfg = DataConfig(spread=0.3, n_ood=300)
    data = make_id_dataset(cfg, 300, Rng(4))
    max_norm = np.linalg.norm(data.x, axis=1).max()
    cfg = replace(cfg, ring_inner=max_norm + 1.0, ring_outer=max_norm + 3.0)
    ood = make_ood_eval("ring", cfg, Rng(5))
    from scipy.spatial.distance import cdist

    assert cdist(ood, data.x).min() > 0.5


def test_uniform_overlaps_inlier_support():
    cfg = DataConfig(n_ood=2000, box_low=-4.0, box_high=4.0)
    data = make_id_dataset(cfg, 300, Rng(6))
    ood = make_ood_eval("uniform", cfg, Rng(7))
    from scipy.spatial.distance import cdist

    assert cdist(ood, data.x).min() < 0.2  # some draws land inside the blobs


def test_shifted_blobs_zero_offset_matches_id_distribution():
    centers = np.array([[3.0, 0.0], [-1.5, 2.598076211353316], [-1.5, -2.598076211353316]])
    cfg = DataConfig(n_ood=4000, shift_offset=0.0)
    id_data = make_id_dataset(cfg, 4000, Rng(8))
    ood = make_ood_eval("shifted-blobs", cfg, Rng(9), centers)
    # same (class-collapsed) first and second moments
    assert np.all(np.abs(id_data.x.mean(axis=0) - ood.mean(axis=0)) < 0.15)
    assert np.all(np.abs(id_data.x.std(axis=0) - ood.std(axis=0)) < 0.15)


# ---- auxiliary set ---------------------------------------------------------------

def test_aux_inside_box():
    lo = np.array([-2.0, 1.0])
    hi = np.array([3.0, 4.0])
    pts = make_aux_dataset(500, 2, Rng(10), ifs_maps=3, box=(lo, hi))
    assert np.all(pts >= lo - 1e-12) and np.all(pts <= hi + 1e-12)


def test_ifs_common_fixed_point_collapse():
    half = 0.5 * np.eye(2)
    maps = [(half, np.zeros(2)), (half, np.zeros(2))]
    pts = ifs_chaos_points(maps, 100, Rng(11))
    assert np.all(np.linalg.norm(pts, axis=1) < 1e-5)


def test_aux_has_lower_dimensional_structure():
    rng = Rng(12)
    maps = random_ifs(2, 3, rng)
    pts = ifs_chaos_points(maps, 10_000, rng)
    dim = correlation_dimension(pts)
    assert dim < 2.0


def test_aux_requires_positive_count():
    with pytest.raises(ValueError):
        make_aux_dataset(0, 2, Rng(0), ifs_maps=3, box=(np.zeros(2), np.ones(2)))
    with pytest.raises(ValueError):
        random_ifs(2, 1, Rng(0))


# ---- geometric transforms ----------------------------------------------------------

class _ZeroAngle(Rng):
    """Draws every uniform value at its low end: a rotation by 0."""

    def uniform(self, low=0.0, high=1.0, size=None):
        return low


def test_rotate_zero_angle_is_identity():
    x = np.array([1.0, 2.0, 3.0])
    for seed in range(5):  # whichever pair is drawn
        assert np.array_equal(geometric_transform(x, "rotate2d", _ZeroAngle(seed)), x)


def test_rotate_preserves_distance_to_center():
    rng = Rng(13)
    center = np.array([0.5, -1.0, 2.0])
    x = rng.standard_normal(3)
    out = geometric_transform(x, "rotate2d", rng, center=center)
    assert abs(np.linalg.norm(out - center) - np.linalg.norm(x - center)) < 1e-12


def test_flip_is_involution():
    # dyadic values, so that 2c - (2c - x) == x exactly
    x = np.array([1.0, -2.0, 0.5])
    center = np.array([0.25, 0.75, -1.5])
    for seed in range(5):  # the same seed flips the same coordinate
        once = geometric_transform(x, "flip", Rng(seed), center=center)
        twice = geometric_transform(once, "flip", Rng(seed), center=center)
        assert np.count_nonzero(once != x) == 1
        assert np.array_equal(twice, x)


def test_permute_swaps():
    x = np.array([1.0, 2.0, 3.0])
    for seed in range(5):
        out = geometric_transform(x, "permute", Rng(seed))
        assert np.array_equal(np.sort(out), x)  # a permutation of the input
        assert np.count_nonzero(out != x) == 2  # that swaps two coordinates


def test_transform_rejects_1d():
    with pytest.raises(ValueError):
        geometric_transform(np.array([1.0]), "flip", Rng(0))


# ---- CSV round trip ----------------------------------------------------------------

def _no_parse(*args, **kwargs):
    raise AssertionError("np.loadtxt ran although the binary copy is current")


# the two ways a file save_points_csv wrote loads back
LOAD_PATHS = ("with-copy", "copy-deleted")


def load_saved(path, how, monkeypatch):
    """``load_points_csv`` of a file ``save_points_csv`` wrote: through its
    binary copy (``np.loadtxt`` must not run), or with the copy deleted,
    through the text parse."""
    if how == "copy-deleted":
        os.remove(f"{path}.bin")
        return load_points_csv(path)
    with monkeypatch.context() as m:
        m.setattr(np, "loadtxt", _no_parse)
        return load_points_csv(path)


@pytest.fixture
def parses(monkeypatch):
    """Counts the ``np.loadtxt`` calls ``load_points_csv`` makes."""
    calls = []
    real = np.loadtxt

    def counting(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(np, "loadtxt", counting)
    return calls


def test_csv_round_trip_exact(tmp_path, monkeypatch):
    rng = Rng(14)
    x = rng.standard_normal((50, 3)) * np.array([1e-8, 1.0, 1e8])
    y = rng.integers(0, 4, 50)
    path = tmp_path / "pts.csv"
    for how in LOAD_PATHS:
        save_points_csv(path, x, y, role="id", k=4)
        x2, y2, meta = load_saved(path, how, monkeypatch)
        assert np.array_equal(x, x2), how
        assert np.array_equal(y, y2), how
        assert meta["role"] == "id" and meta["dim"] == "3" and meta["classes"] == "4"


def test_csv_unlabeled_round_trip(tmp_path, monkeypatch):
    x = Rng(15).standard_normal((10, 2))
    path = tmp_path / "aux.csv"
    for how in LOAD_PATHS:
        save_points_csv(path, x, None, role="aux")
        x2, y2, meta = load_saved(path, how, monkeypatch)
        assert np.array_equal(x, x2), how
        assert y2 is None
        assert meta["role"] == "aux"


def test_csv_saved_empty_set(tmp_path, monkeypatch):
    path = tmp_path / "empty.csv"
    for how in LOAD_PATHS:
        save_points_csv(path, np.empty((0, 3)), None, role="aux")
        x, y, meta = load_saved(path, how, monkeypatch)
        assert x.shape == (0, 3) and y is None and meta["dim"] == "3", how


@pytest.mark.parametrize(
    "row, what",
    [("0,1.5\n", "number of columns"), ("0,1.5,abc\n", "abc"), ("0.5,1.5,2.5\n", "integers"),
     ("-1,1.5,2.5\n", "label -1: .* on every row"), ("-2,1.5,2.5\n", "label -2: .* on every row"),
     ("2,1.5,2.5\n", "label 2 is not below the header's classes=2")],
    ids=["ragged", "non-numeric", "non-integer-label", "unlabeled-row-among-labeled",
         "label-below-unlabeled", "label-not-below-classes"],
)
def test_csv_bad_row_names_file(tmp_path, row, what):
    path = tmp_path / "bad.csv"
    path.write_text("dim=2,classes=2,role=id\n1,0.25,0.5\n" + row)
    with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*" + what):
        load_points_csv(path)


@pytest.mark.parametrize(
    "header, what",
    [("dim=²,classes=2,role=id", "malformed point-file header"),
     ("classes=2,role=id", "malformed point-file header"),
     ("dim=2,classes=two,role=id", "header classes='two' is not an integer"),
     ("dim=2,classes=,role=id", "header classes='' is not an integer")],
    ids=["dim-not-decimal", "no-dim", "classes-not-integer", "classes-empty"],
)
def test_csv_bad_header_names_file(tmp_path, header, what):
    path = tmp_path / "bad.csv"
    path.write_text(header + "\n1,0.25,0.5\n")
    with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*" + re.escape(what)):
        load_points_csv(path)


def test_csv_header_classes_checked_on_labels_only(tmp_path):
    # -1 on every row is an unlabeled set: classes= bounds class labels only
    path = tmp_path / "aux.csv"
    path.write_text("dim=2,classes=0,role=aux\n-1,0.25,0.5\n")
    x, y, _meta = load_points_csv(path)
    assert y is None and np.array_equal(x, [[0.25, 0.5]])
    path.write_text("dim=2,role=id\n0,0.25,0.5\n7,1.5,2.5\n")
    _x, y, _meta = load_points_csv(path)  # no classes= in the header: nothing to check against
    assert np.array_equal(y, [0, 7])


@pytest.mark.parametrize("k, what", [(3, "label 7 is not below the header's classes=3"),
                                     ("3.5", "header classes='3.5' is not an integer")],
                         ids=["label-not-below-classes", "classes-not-integer"])
def test_csv_saved_labels_checked_against_classes(tmp_path, monkeypatch, k, what):
    x, y = Rng(19).standard_normal((5, 2)), np.array([0, 1, 2, 7, 1])
    path = tmp_path / "id_train.csv"
    for how in LOAD_PATHS:
        save_points_csv(path, x, y, role="id", k=k)
        with pytest.raises(ConfigError, match=re.escape(str(path)) + ".*" + re.escape(what)):
            load_saved(path, how, monkeypatch)


def test_csv_copy_ignored_unless_current(tmp_path, parses):
    # a copy is read only when it was written with the CSV's bytes as they
    # are now; otherwise the text is parsed, as if there were no copy
    rng = Rng(20)
    x, other = rng.standard_normal((30, 2)), rng.standard_normal((30, 2))
    path, foreign = tmp_path / "pts.csv", tmp_path / "other.csv"
    save_points_csv(path, x, None, role="ood")
    save_points_csv(foreign, other, None, role="ood")
    copy_path = tmp_path / "pts.csv.bin"
    copy = path.read_bytes(), copy_path.read_bytes()

    def restore():
        path.write_bytes(copy[0])
        copy_path.write_bytes(copy[1])

    assert np.array_equal(load_points_csv(path)[0], x) and not parses
    cases = {
        # the CSV edited after saving: its first value changed, its copy kept
        "stale": lambda: path.write_text(path.read_text().replace(",%.17g," % x[0, 0], ",0.5,", 1)),
        "foreign": lambda: copy_path.write_bytes((tmp_path / "other.csv.bin").read_bytes()),
        "truncated-by-a-value": lambda: copy_path.write_bytes(copy[1][:-8]),
        "truncated-by-a-row": lambda: copy_path.write_bytes(copy[1][:-24]),
        "digest-only": lambda: copy_path.write_bytes(copy[1][:32]),
        "longer": lambda: copy_path.write_bytes(copy[1] + copy[1][-24:]),
        "csv-row-added": lambda: path.write_bytes(copy[0] + b"-1,0.25,0.5\n"),
        "unreadable": lambda: (copy_path.unlink(), copy_path.mkdir()),
    }
    for name, spoil in cases.items():
        spoil()
        want = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)[:, 1:]
        assert (want[0, 0] == 0.5) == (name == "stale"), name
        parses.clear()
        x2, y2, _meta = load_points_csv(path)
        assert len(parses) == 1, name
        assert x2.tobytes() == want.tobytes() and y2 is None, name
        if name == "unreadable":
            copy_path.rmdir()
        restore()
    assert np.array_equal(load_points_csv(path)[0], x)
    assert np.array_equal(load_points_csv(foreign)[0], other)


def test_csv_header_only_is_empty_set(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("dim=3,classes=0,role=aux\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, y, meta = load_points_csv(path)
    assert x.shape == (0, 3) and y is None and meta["dim"] == "3"


def test_csv_blank_lines_skipped(tmp_path):
    path = tmp_path / "gaps.csv"
    path.write_text("dim=2,classes=2,role=id\n\n0,1.5,2.5\n\n  \n1,-3,4e-3\n\n")
    x, y, _meta = load_points_csv(path)
    assert np.array_equal(x, [[1.5, 2.5], [-3.0, 4e-3]])
    assert np.array_equal(y, [0, 1])


def test_csv_round_trip_20k_bitwise(tmp_path, monkeypatch):
    rng = Rng(17)
    x = rng.standard_normal((20_000, 2)) * np.exp(rng.uniform(-30, 30, (20_000, 2)))
    y = rng.integers(0, 3, 20_000)
    path = tmp_path / "big.csv"
    for how in LOAD_PATHS:
        save_points_csv(path, x, y, role="id", k=3)
        x2, y2, _meta = load_saved(path, how, monkeypatch)
        assert x2.dtype == x.dtype and x2.tobytes() == x.tobytes(), how
        assert y2.dtype == y.dtype and np.array_equal(y2, y), how


def save_points_csv_per_value(path, x, y, role, k=0):
    """The original writer: one ``"%.17g"`` call per value."""
    x = np.asarray(x, dtype=float)
    labels = np.full(len(x), -1, dtype=int) if y is None else np.asarray(y, dtype=int)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(f"dim={x.shape[1]},classes={k},role={role}\n")
        for lab, row in zip(labels, x):
            fh.write("%d,%s\n" % (lab, ",".join("%.17g" % v for v in row)))


@pytest.mark.parametrize("d", [1, 2, 3])
def test_csv_bytes_equal_per_value_writer(tmp_path, d, monkeypatch):
    b = datagen._CSV_BLOCK
    special = [0.0, -0.0, 5e-324, -5e-324, 2.5e-310, -1.7976931348623157e308,
               1.7976931348623157e308, 0.1, -0.1, 1.0, 1e16, 123456789.123456789,
               np.inf, -np.inf, np.nan, -np.nan]
    rng = Rng(18)
    for n in (0, 1, b - 1, b, b + 1):
        x = rng.standard_normal((n, d)) * np.exp(rng.uniform(-30, 30, (n, d)))
        flat = x.reshape(-1)
        flat[: len(special)] = special[: flat.size]
        y = rng.integers(0, 3, n)
        y[::7] = -1
        for labels, how in itertools.product((y, None), LOAD_PATHS):
            got, want = tmp_path / "got.csv", tmp_path / "want.csv"
            save_points_csv(got, x, labels, role="id", k=3)
            save_points_csv_per_value(want, x, labels, role="id", k=3)
            assert got.read_bytes() == want.read_bytes(), (n, labels is None)
            if labels is not None and not np.all(labels == -1):
                # -1 among class labels is refused on either load path
                with pytest.raises(ConfigError, match="label -1: .* on every row"):
                    load_saved(got, how, monkeypatch)
                continue
            x2, y2, _meta = load_saved(got, how, monkeypatch)
            # the text writes every NaN as "nan", which reads back as np.nan
            assert x2.tobytes() == np.where(np.isnan(x), np.nan, x).tobytes(), (n, how)
            assert y2 is None


def test_bundle_rejects_unknown_keys():
    # a typo, and keys of the inlier generators that are not data config keys
    for key in ("ring_innr", "noise", "base_radius", "gap", "width"):
        with pytest.raises(ConfigError, match=key):
            make_bundle({key: 1.0}, seed=0)
    with pytest.raises(ConfigError, match="n_train"):
        make_bundle({"n_train": "90"}, seed=0)
    with pytest.raises(ConfigError, match="n_test"):
        make_bundle({"n_test": 19}, seed=0)


def test_bundle_class_sets_identical():
    bundle = make_bundle({"n_train": 90, "n_test": 30}, seed=16)
    assert set(bundle.id_train.y) == set(bundle.id_test.y)
    assert len(bundle.aux) == 90  # |aux| defaults to |train|
