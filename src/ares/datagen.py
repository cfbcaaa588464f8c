"""Synthetic data worlds: labeled inlier sets, structurally-complex auxiliary
point sets, and disjoint outlier evaluation sets.

All generators are pure functions of ``(DataConfig, Rng)``; a dataset
persisted to CSV round-trips exactly (values are written with 17
significant digits), and the binary copy saved beside each CSV loads the
same bits without parsing the text.
"""

from __future__ import annotations

import hashlib
import math
import os
import warnings
from collections.abc import Mapping
from dataclasses import dataclass, fields
from itertools import chain
from numbers import Integral, Real

import numpy as np

from .errors import ConfigError
from .rng import Rng

__all__ = [
    "AUX_BURN_IN",
    "MIN_DIM",
    "MIN_GATE_SCORES",
    "DataBundle",
    "DataConfig",
    "LabeledDataset",
    "geometric_transform",
    "ifs_chaos_points",
    "load_points_csv",
    "make_aux_dataset",
    "make_bundle",
    "make_id_dataset",
    "make_ood_eval",
    "random_ifs",
    "save_points_csv",
]

AUX_BURN_IN = 20
# fewest held-out inlier scores the 95%-TPR gate (evaluation.choose_gamma)
# is defined on: below it, 5% of the scores is less than one score
MIN_GATE_SCORES = 20
# fewest coordinates a point has: geometric_transform acts on a coordinate pair
MIN_DIM = 2
# rows per formatted block in save_points_csv
_CSV_BLOCK = 4096
# bytes of the CSV digest that opens each binary point-file copy (sha256)
_DIGEST_SIZE = 32
TRANSFORM_KINDS = ("rotate2d", "flip", "permute")
ID_GENERATORS = ("blobs", "moons2d", "rings")
OOD_GENERATORS = ("ring", "uniform", "shifted-blobs")
_KINDS = {"str": str, "int": Integral, "float": Real}  # DataConfig annotation -> accepted values


@dataclass(frozen=True)
class DataConfig:
    """The data world (the ``[data]`` config section): inlier generator and
    sizes, auxiliary IFS set (``aux_size = 0`` means ``n_train``) and outlier
    sets (``ood_sets``, a comma list). A bad field, such as a non-finite
    float, is a ConfigError."""

    generator: str = "blobs"
    n_train: int = 1200
    n_test: int = 600
    k: int = 3
    d: int = 2
    spread: float = 0.5
    center_radius: float = 3.0
    aux_size: int = 0
    ifs_maps: int = 3
    ood_sets: str = "ring,uniform,shifted-blobs"
    n_ood: int = 600
    ring_inner: float = 8.0
    ring_outer: float = 10.0
    box_low: float = -6.0
    box_high: float = 6.0
    shift_offset: float = 2.5

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not isinstance(value, _KINDS[f.type]):
                raise ConfigError(f"{f.name}: expected {f.type}, got {value!r}")
            if f.type == "float" and not math.isfinite(value):
                raise ConfigError(f"{f.name} must be finite, got {value!r}")
        if self.generator not in ID_GENERATORS:
            raise ConfigError(f"generator: unknown inlier generator {self.generator!r}")
        if self.generator == "moons2d" and (self.k, self.d) != (2, 2):
            raise ConfigError(f"generator: moons2d requires k=2 and d=2, got k={self.k} d={self.d}")
        if self.generator == "rings" and self.d != 2:
            raise ConfigError(f"generator: rings requires d=2, got d={self.d}")
        lows = (("k", 2), ("d", MIN_DIM), ("n_train", self.k), ("n_test", max(self.k, MIN_GATE_SCORES)),
                ("n_ood", 1), ("aux_size", 0), ("ifs_maps", 2))
        for name, low in lows:
            if getattr(self, name) < low:
                raise ConfigError(f"{name} must be >= {low}, got {getattr(self, name)}")
        if not self.ood_names or not set(self.ood_names) <= set(OOD_GENERATORS):
            raise ConfigError(f"ood_sets: need names from {OOD_GENERATORS}, got {self.ood_sets!r}")

    @property
    def ood_names(self) -> list[str]:
        return [s.strip() for s in self.ood_sets.split(",") if s.strip()]


@dataclass
class LabeledDataset:
    """Points ``x`` of shape (n, d) with integer class labels ``y`` in [0, k)."""

    x: np.ndarray
    y: np.ndarray

    def __len__(self) -> int:
        return self.x.shape[0]

    @property
    def dim(self) -> int:
        return self.x.shape[1]

    @property
    def n_classes(self) -> int:
        return int(self.y.max()) + 1 if len(self.y) else 0


@dataclass
class DataBundle:
    """Everything one run consumes: train/test inliers, auxiliary points,
    and named outlier evaluation sets."""

    id_train: LabeledDataset
    id_test: LabeledDataset
    aux: np.ndarray
    ood_eval: dict[str, np.ndarray]


def _balanced_labels(n: int, k: int) -> np.ndarray:
    """Class labels with per-class counts differing by at most one."""
    counts = [n // k + (1 if c < n % k else 0) for c in range(k)]
    return np.repeat(np.arange(k), counts)


def _circle_centers(k: int, d: int, radius: float) -> np.ndarray:
    """k centers equally spaced on a circle in the first two coordinates."""
    ang = 2.0 * np.pi * np.arange(k) / k
    centers = np.zeros((k, d))
    centers[:, 0] = radius * np.cos(ang)
    centers[:, 1] = radius * np.sin(ang)
    return centers


def make_id_dataset(cfg: DataConfig, n: int, rng: Rng) -> LabeledDataset:
    """Generate ``n`` labeled inlier points of the world ``cfg``.

    Generators: ``blobs`` (k Gaussian clusters of std ``spread`` on a
    circle of radius ``center_radius``), ``moons2d`` (two interleaved half
    circles, k=2, d=2), ``rings`` (k concentric annuli of radius 1, 2, ...,
    d=2). Classes are balanced within +-1.
    """
    k, d = cfg.k, cfg.d
    y = _balanced_labels(n, k)
    if cfg.generator == "blobs":
        centers = _circle_centers(k, d, cfg.center_radius)
        return LabeledDataset(x=centers[y] + cfg.spread * rng.standard_normal((n, d)), y=y)
    if cfg.generator == "moons2d":
        t = rng.uniform(0.0, np.pi, n)
        x = np.where(
            (y == 0)[:, None],
            np.column_stack([np.cos(t), np.sin(t)]),
            np.column_stack([1.0 - np.cos(t), 0.5 - np.sin(t)]),
        )
        return LabeledDataset(x=x + 0.1 * rng.standard_normal((n, 2)), y=y)
    # rings
    r = 1.0 + y + 0.1 * rng.standard_normal(n)
    theta = rng.uniform(0.0, 2.0 * np.pi, n)
    return LabeledDataset(x=np.column_stack([r * np.cos(theta), r * np.sin(theta)]), y=y)


def make_ood_eval(
    name: str, cfg: DataConfig, rng: Rng, centers: np.ndarray | None = None
) -> np.ndarray:
    """Generate the outlier evaluation set ``name`` (one of
    ``cfg.ood_names``) of ``cfg.n_ood`` points.

    Generators: ``ring`` (spherical shell with radius in [``ring_inner``,
    ``ring_outer``]), ``uniform`` (the box [``box_low``, ``box_high``]^d),
    ``shifted-blobs`` (the inlier cluster ``centers`` displaced radially
    outward by ``shift_offset``, with the inliers' ``spread``).
    """
    n, d = cfg.n_ood, cfg.d
    if name == "ring":
        direction = rng.standard_normal((n, d))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        return direction * rng.uniform(cfg.ring_inner, cfg.ring_outer, n)[:, None]
    if name == "uniform":
        return rng.uniform(cfg.box_low, cfg.box_high, (n, d))
    # shifted-blobs
    norms = np.linalg.norm(centers, axis=1, keepdims=True)
    norms[norms == 0.0] = 1.0
    shifted = centers + cfg.shift_offset * centers / norms
    y = _balanced_labels(n, len(shifted))
    return shifted[y] + cfg.spread * rng.standard_normal((n, d))


def random_ifs(d: int, n_maps: int, rng: Rng) -> list[tuple[np.ndarray, np.ndarray]]:
    """Random contractive iterated-function system: ``n_maps`` affine maps
    ``x -> c * Q x + b`` with contraction factor c in [0.3, 0.8] and Q a
    random rotation."""
    if n_maps < 2:
        raise ValueError(f"random_ifs: need at least 2 maps, got {n_maps}")
    maps = []
    for _ in range(n_maps):
        q, _r = np.linalg.qr(rng.standard_normal((d, d)))
        c = rng.uniform(0.3, 0.8)
        b = rng.uniform(-1.0, 1.0, d)
        maps.append((c * q, b))
    return maps


def ifs_chaos_points(maps: list[tuple[np.ndarray, np.ndarray]], n: int, rng: Rng) -> np.ndarray:
    """Run the chaos game: each output point starts uniform in [-1, 1]^d and
    applies ``AUX_BURN_IN`` randomly chosen maps; only the final iterate is
    kept."""
    d = maps[0][0].shape[0]
    mats = np.stack([m for m, _ in maps])
    offs = np.stack([b for _, b in maps])
    x = rng.uniform(-1.0, 1.0, (n, d))
    for _ in range(AUX_BURN_IN):
        idx = rng.integers(0, len(maps), n)
        x = np.einsum("nij,nj->ni", mats[idx], x) + offs[idx]
    return x


def _rescale_to_box(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Affinely map the point cloud's bounding box onto [lo, hi] per coordinate."""
    pmin = pts.min(axis=0)
    pmax = pts.max(axis=0)
    span = pmax - pmin
    out = np.empty_like(pts)
    for j in range(pts.shape[1]):
        if span[j] == 0.0:
            out[:, j] = 0.5 * (lo[j] + hi[j])
        else:
            out[:, j] = lo[j] + (pts[:, j] - pmin[j]) * (hi[j] - lo[j]) / span[j]
    return out


def make_aux_dataset(n: int, d: int, rng: Rng, ifs_maps: int, box: tuple) -> np.ndarray:
    """Auxiliary structurally-complex point set from a random IFS attractor
    of ``ifs_maps`` maps, rescaled into ``box = (lo, hi)`` (the inlier
    bounding box)."""
    if n < 1:
        raise ValueError(f"make_aux_dataset: n must be >= 1, got {n}")
    maps = random_ifs(d, ifs_maps, rng)
    lo, hi = np.asarray(box, dtype=float)
    return _rescale_to_box(ifs_chaos_points(maps, n, rng), lo, hi)


def geometric_transform(x: np.ndarray, kind: str, rng: Rng, center: np.ndarray) -> np.ndarray:
    """Apply a bijective vector-space transform.

    ``rotate2d`` rotates a random coordinate pair about ``center`` (an
    isometry of the distance to ``center``); ``flip`` reflects one random
    coordinate about ``center``; ``permute`` swaps two random coordinates.
    """
    x = np.asarray(x, dtype=float)
    d = x.shape[0]
    if d < MIN_DIM:
        raise ValueError(f"geometric_transform: need dimension >= {MIN_DIM}, got {d}")
    center = np.asarray(center, dtype=float)
    out = x.copy()
    if kind == "rotate2d":
        i, j = sorted(rng.choice(d, size=2, replace=False).tolist())
        theta = rng.uniform(0.0, 2.0 * np.pi)
        ci, cj = np.cos(theta), np.sin(theta)
        ui, uj = x[i] - center[i], x[j] - center[j]
        out[i] = center[i] + ci * ui - cj * uj
        out[j] = center[j] + cj * ui + ci * uj
    elif kind == "flip":
        i = int(rng.integers(0, d))
        out[i] = 2.0 * center[i] - x[i]
    elif kind == "permute":
        i, j = rng.choice(d, size=2, replace=False).tolist()
        out[i], out[j] = x[j], x[i]
    else:
        raise ValueError(f"unknown transform kind: {kind!r}")
    return out


# --------------------------------------------------------------------------
# Bundle assembly and CSV persistence
# --------------------------------------------------------------------------

def make_bundle(cfg: DataConfig | Mapping, seed: int) -> DataBundle:
    """Assemble the full data world from a :class:`DataConfig`, or from a
    mapping of its field names (absent fields keep their defaults; an
    unknown name is a :class:`ConfigError`)."""
    if not isinstance(cfg, DataConfig):
        unknown = sorted(set(cfg) - {f.name for f in fields(DataConfig)})
        if unknown:
            raise ConfigError(f"make_bundle: unknown data key(s): {', '.join(unknown)}")
        cfg = DataConfig(**cfg)
    rng = Rng(seed).child("data")
    id_train = make_id_dataset(cfg, cfg.n_train, rng.child("id-train"))
    id_test = make_id_dataset(cfg, cfg.n_test, rng.child("id-test"))
    box = (id_train.x.min(axis=0), id_train.x.max(axis=0))
    aux = make_aux_dataset(cfg.aux_size or cfg.n_train, cfg.d, rng.child("aux"), cfg.ifs_maps, box)
    centers = (
        _circle_centers(cfg.k, cfg.d, cfg.center_radius)
        if cfg.generator == "blobs"
        else id_train.x.mean(axis=0, keepdims=True).repeat(cfg.k, axis=0)
    )
    ood_eval = {
        name: make_ood_eval(name, cfg, rng.child("ood", name), centers) for name in cfg.ood_names
    }
    return DataBundle(id_train=id_train, id_test=id_test, aux=aux, ood_eval=ood_eval)


def _csv_text(x: np.ndarray, labels: np.ndarray, role: str, k: int):
    """The point file's text: the header, then ``_CSV_BLOCK`` rows at a time,
    each block with one ``%`` on a repeated row template."""
    yield f"dim={x.shape[1]},classes={k},role={role}\n"
    row = "%d" + ",%.17g" * x.shape[1] + "\n"
    for lo in range(0, len(x), _CSV_BLOCK):
        block = x[lo : lo + _CSV_BLOCK]
        values = chain.from_iterable(zip(labels[lo : lo + _CSV_BLOCK].tolist(), *block.T.tolist()))
        yield row * len(block) % tuple(values)


def save_points_csv(path, x: np.ndarray, y: np.ndarray | None, role: str, k: int = 0) -> None:
    """Write points to the documented CSV format, and next to it, at
    ``<path>.bin``, a binary copy of the table the CSV parses to.

    Header ``dim=<d>,classes=<k>,role=<role>``; one row per point,
    ``y,x0,x1,...`` with y = -1 for unlabeled points. Values carry 17
    significant digits so a round-trip is exact. The text in memory is
    bounded by ``_CSV_BLOCK`` rows. The copy is the sha256 of the CSV's
    bytes, then the ``(n, d + 1)`` table (label column first) as row-major
    little-endian float64; ``load_points_csv`` reads it only while that
    digest matches the CSV on disk.
    """
    x = np.asarray(x, dtype=float)
    labels = np.full(len(x), -1, dtype=int) if y is None else np.asarray(y, dtype=int)
    digest = hashlib.sha256()
    with open(path, "wb") as fh:
        for text in _csv_text(x, labels, role, k):
            data = text.encode("utf-8")
            digest.update(data)
            fh.write(data)
    table = np.column_stack((labels, x)).astype("<f8")
    table[np.isnan(table)] = np.nan  # the text holds every NaN as "nan", which parses to this one
    with open(_copy_path(path), "wb") as fh:
        fh.write(digest.digest())
        fh.write(table.tobytes())


def _copy_path(path) -> str:
    return os.fspath(path) + ".bin"


def _read_copy(path, d: int) -> np.ndarray | None:
    """The ``(n, d + 1)`` table of the binary copy next to ``path``, or None
    when the copy is missing or unreadable, or was not written with the
    CSV's current bytes and row count."""
    try:
        with open(_copy_path(path), "rb") as fh:
            blob = fh.read()
        with open(path, "rb") as fh:
            raw = fh.read()
    except OSError:
        return None
    n = raw.count(b"\n") - 1  # save_points_csv ends the header and each row with one newline
    if len(blob) != _DIGEST_SIZE + 8 * (d + 1) * n:
        return None
    if blob[:_DIGEST_SIZE] != hashlib.sha256(raw).digest():
        return None
    return np.frombuffer(blob, dtype="<f8", offset=_DIGEST_SIZE).reshape(n, d + 1).astype(float)


def load_points_csv(path) -> tuple[np.ndarray, np.ndarray | None, dict]:
    """Read the CSV point format back; returns (x, y-or-None, header meta).
    When the binary copy ``save_points_csv`` wrote belongs to the CSV's
    bytes, its table stands in for parsing the text (the same bits);
    otherwise the text is parsed. Blank lines are skipped. A malformed
    header or row, a label below -1 or -1 on some rows only, or a label
    not below the header's ``classes=`` is a ConfigError."""
    with open(path, "r", encoding="utf-8") as fh:
        header = fh.readline().strip()
        meta = {}
        for part in header.split(","):
            key, _, val = part.partition("=")
            meta[key] = val
        if "dim" not in meta or "role" not in meta or not meta["dim"].isdecimal():
            raise ConfigError(f"{path}: malformed point-file header: {header!r}")
        d = int(meta["dim"])
        table = _read_copy(path, d)
        if table is None:
            try:
                with warnings.catch_warnings():  # a header-only file is an empty set
                    warnings.simplefilter("ignore", UserWarning)
                    table = np.loadtxt(filter(str.strip, fh), delimiter=",", ndmin=2, comments=None)
            except ValueError as err:
                raise ConfigError(f"{path}: {err}") from None
    if table.size == 0:
        table = np.empty((0, d + 1))
    if table.shape[1] != d + 1:
        raise ConfigError(f"{path}: row has {table.shape[1] - 1} coords, expected {d}")
    labels = table[:, 0]
    if not np.all((np.abs(labels) < 2**31) & (labels == np.trunc(labels))):
        raise ConfigError(f"{path}: class labels must be integers")
    x = np.ascontiguousarray(table[:, 1:])
    y = labels.astype(int)
    if np.all(y == -1):
        return x, None, meta
    if y.min() < 0:  # -1 means unlabeled, and only when every row has it
        raise ConfigError(f"{path}: label {y.min()}: class labels must be >= 0, "
                          "or -1 (unlabeled) on every row")
    classes = meta.get("classes")
    if classes is not None:
        if not classes.isdecimal():
            raise ConfigError(f"{path}: header classes={classes!r} is not an integer")
        if y.max() >= int(classes):
            raise ConfigError(f"{path}: label {y.max()} is not below the header's classes={classes}")
    return x, y, meta
