"""A small multilayer perceptron: feature extractor + classifier head +
learnable energy weights, with explicit forward caching and hand-derived
reverse-mode gradients.

One forward pass serves training, the accuracy pass, the joint-start
features and scoring. It computes each layer in place in one array per
layer, fresh or taken from a reusable workspace, and caches the post-ReLU
activations, which are all the backward pass needs: each layer's input,
and its ReLU mask (``act > 0`` exactly where the pre-activation is ``> 0``).
A whole point set goes through :meth:`MlpNetwork.forward_blocks`, in
padded row blocks whose outputs do not depend on the size of the set.

Parameters are named, reshaped views of one contiguous float64 vector,
``MlpNetwork.flat``, addressed by name through ``MlpNetwork.params()``; a
:class:`GradientTape` accumulates the gradients in views of a vector laid
out the same way, so one SGD update and one zeroing cover every tensor. No
general autodiff — the loss graph is fixed and its backward pass is written
out by hand (and checked against finite differences in the test suite).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ConfigError
from .rng import Rng

__all__ = [
    "ForwardCache",
    "GradientTape",
    "MlpNetwork",
    "RunState",
    "cross_entropy_batch",
    "energy_score_batch",
    "load_checkpoint",
    "save_checkpoint",
]

# Rows per forward of MlpNetwork.forward_blocks: a block's workspace for the
# 2-d, 3-class default network (149 doubles a row) is 1.2 MB, within a 2 MiB
# per-core L2, and every GEMM stays below the 20,834 rows at which OpenBLAS
# moves its logits matmul to another kernel, changing ~30 % of the rows' bits.
# Each block is zero-padded to a multiple of PAD_ROWS rows: the last n mod 4
# rows of an n-row GEMM take OpenBLAS's row-tail path, and a one-row matmul
# another path, so unpadded a row could round differently in a short block.
# Padded, a row's outputs do not depend on its block (tested on the SkylakeX
# and Haswell kernels).
BLOCK_ROWS = 1024
PAD_ROWS = 8


class MlpNetwork:
    """ReLUMLP ``input -> hidden... -> feature(p) -> K logits``.

    The energy weights are stored as free parameters ``energy_u`` and
    exposed as ``energy_w = exp(energy_u)`` so they stay strictly positive.
    ``head_w``/``head_b`` are the scalar logistic-head parameters used only
    by the ce/nce discrimination losses.
    """

    def __init__(self, input_dim: int, hidden_dims, feature_dim: int, n_classes: int, rng: Rng):
        self.input_dim = int(input_dim)
        self.hidden_dims = tuple(int(h) for h in hidden_dims)
        self.feature_dim = int(feature_dim)
        self.n_classes = int(n_classes)
        self.version = 0

        dims = [self.input_dim, *self.hidden_dims, self.feature_dim]
        shapes = []
        for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
            shapes += [(f"ext_w{i}", (fan_in, fan_out)), (f"ext_b{i}", (fan_out,))]
        shapes += [("cls_w", (self.feature_dim, self.n_classes)), ("cls_b", (self.n_classes,)),
                   ("energy_u", (self.n_classes,)), ("head_w", ()), ("head_b", ())]
        self._shapes = shapes
        self.flat = np.zeros(sum(math.prod(shape) for _name, shape in shapes))
        p = self._params = self.views(self.flat)
        self.ext_w = [p[f"ext_w{i}"] for i in range(len(dims) - 1)]
        self.ext_b = [p[f"ext_b{i}"] for i in range(len(dims) - 1)]
        for w in self.ext_w:
            w[...] = np.sqrt(2.0 / w.shape[0]) * rng.standard_normal(w.shape)
        self.cls_w, self.cls_b = p["cls_w"], p["cls_b"]
        self.cls_w[...] = np.sqrt(2.0 / self.feature_dim) * rng.standard_normal(self.cls_w.shape)
        self.energy_u, self.head_w, self.head_b = p["energy_u"], p["head_w"], p["head_b"]
        self.head_w[...] = 1.0

    @property
    def energy_w(self) -> np.ndarray:
        return np.exp(self.energy_u)

    def views(self, flat: np.ndarray) -> dict[str, np.ndarray]:
        """Named views of a vector laid out like ``flat``, in parameter order."""
        out, lo = {}, 0
        for name, shape in self._shapes:
            size = math.prod(shape)
            out[name] = flat[lo : lo + size].reshape(shape)
            lo += size
        return out

    def params(self) -> dict[str, np.ndarray]:
        """Live views of every learnable array, keyed by name."""
        return dict(self._params)

    # ---- forward ----------------------------------------------------------

    def forward(self, x: np.ndarray, out: list | None = None) -> "ForwardCache":
        """Full forward pass over an (n, d) batch, caching the post-ReLU
        activations. ``x`` is never written to. With ``out``, a
        :meth:`workspace` of at least n rows, each layer writes its output
        into the first n rows of its array, and the cache holds views of
        them; without it, each layer writes a fresh array."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:
            raise ValueError(f"forward: expected (n, {self.input_dim}) input, got {x.shape}")
        bufs = [None] * (len(self.ext_w) + 1) if out is None else [buf[: len(x)] for buf in out]
        a = x
        acts = []
        for w, b, buf in zip(self.ext_w, self.ext_b, bufs):
            a = np.matmul(a, w, out=buf)  # the bias and the ReLU then work in place
            a += b
            np.maximum(a, 0.0, out=a)
            acts.append(a)
        logits = np.matmul(a, self.cls_w, out=bufs[-1])
        logits += self.cls_b
        return ForwardCache(x=x, acts=acts, logits=logits, version=self.version)

    def workspace(self, rows: int) -> list[np.ndarray]:
        """One ``(rows, width)`` array per layer, each extractor layer and
        then the logits: the ``out`` of :meth:`forward`, reusable across
        calls of up to ``rows`` rows."""
        return [np.empty((rows, width)) for width in (*self.hidden_dims, self.feature_dim, self.n_classes)]

    def block_workspace(self, n: int) -> list[np.ndarray]:
        """The ``ws`` of :meth:`forward_blocks` for arrays of up to ``n``
        rows: input rows and a :meth:`workspace`, at most one block each."""
        rows = min(BLOCK_ROWS, n + -n % PAD_ROWS)  # n rounded up to a multiple of PAD_ROWS
        return [np.empty((rows, self.input_dim)), *self.workspace(rows)]

    def forward_blocks(self, x: np.ndarray, ws: list):
        """Forward an (n, d) array ``BLOCK_ROWS`` rows at a time through
        ``ws``, a :meth:`block_workspace` for n rows, each block copied into
        its input rows and zero-padded to a multiple of ``PAD_ROWS`` rows;
        yield each block's slice of ``x`` and its cache, trimmed to the
        block's own rows, which the next block overwrites."""
        x = np.asarray(x, dtype=float)
        if x.ndim != 2 or x.shape[1] != self.input_dim:  # the copy below would broadcast a 1-wide x
            raise ValueError(f"forward_blocks: expected (n, {self.input_dim}) points, got {x.shape}")
        for lo in range(0, len(x), BLOCK_ROWS):
            m = min(BLOCK_ROWS, len(x) - lo)
            xs = ws[0][: m + -m % PAD_ROWS]
            xs[:m], xs[m:] = x[lo : lo + m], 0.0
            cache = self.forward(xs, out=ws[1:])
            acts = [a[:m] for a in cache.acts]
            yield slice(lo, lo + m), ForwardCache(xs[:m], acts, cache.logits[:m], cache.version)

    # ---- backward ---------------------------------------------------------

    def backward(self, cache: "ForwardCache", tape: "GradientTape", dlogits: np.ndarray) -> None:
        """Accumulate parameter gradients for a scalar loss given its
        gradient w.r.t. the cached logits."""
        if cache.version != self.version:
            raise RuntimeError("backward: forward cache is stale (parameters were updated)")
        # accumulate with ``+=``, never write with ``out=``: the tape's
        # 0.0 + (-0.0) is +0.0, where a direct write would keep the -0.0
        grads = tape.grads
        grads["cls_w"] += cache.feats.T @ dlogits
        grads["cls_b"] += dlogits.sum(axis=0)
        dact = dlogits @ self.cls_w.T
        for i in range(len(self.ext_w) - 1, -1, -1):
            np.multiply(dact, cache.acts[i] > 0.0, out=dact)  # the ReLU mask, in place
            inputs = cache.x if i == 0 else cache.acts[i - 1]
            grads[f"ext_w{i}"] += inputs.T @ dact
            grads[f"ext_b{i}"] += dact.sum(axis=0)
            if i:  # nothing uses the gradient w.r.t. the input
                dact = dact @ self.ext_w[i].T


@dataclass
class ForwardCache:
    """What one forward pass leaves for the backward pass: the input, the
    post-ReLU activation of every extractor layer (the last one is the
    feature vector), the logits, and the parameter version they came from."""

    x: np.ndarray
    acts: list
    logits: np.ndarray
    version: int

    @property
    def feats(self) -> np.ndarray:
        return self.acts[-1]


class GradientTape:
    """Named gradient accumulators matching a network's parameter shapes:
    views of one vector ``flat`` laid out like the network's."""

    def __init__(self, net: MlpNetwork):
        self.flat = np.zeros_like(net.flat)
        self.grads = net.views(self.flat)

    def zero(self) -> None:
        self.flat.fill(0.0)


# ---- energy and cross entropy ---------------------------------------------

def _energy_terms(energy_w: np.ndarray, logits: np.ndarray):
    """The one energy computation: per-row energies
    ``-log sum_k w_k exp(z_k)``, max-shifted, and the fresh array
    ``s = w * exp(z - m)`` with its row sums, for the gradient."""
    m = logits.max(axis=1)
    s = logits - m[:, None]
    np.exp(s, out=s)
    s *= energy_w
    tot = s.sum(axis=1)
    return -(m + np.log(tot)), s, tot


def energy_score_batch(net: MlpNetwork, logits: np.ndarray) -> np.ndarray:
    """Energy of each logit row: -log sum_k w_k exp(z_k), max-shifted."""
    logits = np.asarray(logits, dtype=float)
    if logits.shape[-1] != net.n_classes:
        raise ValueError(f"energy_score: expected {net.n_classes} logits, got {logits.shape[-1]}")
    return _energy_terms(net.energy_w, logits)[0]


def energy_gradients(energy_w: np.ndarray, logits: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-row energies and d(energy)/d(logit) under energy weights
    ``energy_w`` (a network's ``energy_w``). ``logits`` is never written to.

    The gradient w.r.t. the free energy parameter u_k equals the gradient
    w.r.t. z_k row-wise (both are -w_k exp(z_k) / sum_j w_j exp(z_j)), so
    the single returned matrix serves both chain rules.
    """
    energies, s, tot = _energy_terms(energy_w, np.asarray(logits, dtype=float))
    np.negative(s, out=s)
    s /= tot[:, None]
    return energies, s


def cross_entropy_batch(logits: np.ndarray, ys: np.ndarray) -> tuple[float, np.ndarray]:
    """Mean cross entropy over a batch and its gradient w.r.t. the logits."""
    logits = np.asarray(logits, dtype=float)
    n, k = logits.shape
    ys = np.asarray(ys, dtype=int)
    if ys.min() < 0 or ys.max() >= k:
        raise ValueError("cross_entropy_batch: label out of range")
    logp = logits - logits.max(axis=1, keepdims=True)
    tot = np.exp(logp).sum(axis=1)
    logp -= np.log(tot)[:, None]
    rows = np.arange(n)
    loss = float(-(logp[rows, ys].sum() / n))  # numpy's mean() is this sum over n
    dlogits = np.exp(logp, out=logp)
    dlogits[rows, ys] -= 1.0
    dlogits /= n
    return loss, dlogits


# ---- run state and checkpointing ----------------------------------------------

@dataclass(frozen=True)
class RunState:
    """The one snapshot of a run: the architecture, a copy of the parameters
    after ``epoch`` epochs, the parameters the joint phase started from (a
    resumed run recomputes its synthesis features from them) and the first
    virtual-outlier batch of the last joint epoch (``ares eval`` scores it),
    both ``None`` before the joint phase. Training keeps the latest one as
    its restart point, and a checkpoint file stores one."""

    arch: dict
    params: dict
    epoch: int
    joint_start: dict | None = None
    virtual: np.ndarray | None = None

    @classmethod
    def of(cls, net: MlpNetwork, epoch: int, joint_start: dict | None = None,
           virtual: np.ndarray | None = None) -> "RunState":
        arch = {"input_dim": net.input_dim, "hidden_dims": list(net.hidden_dims),
                "feature_dim": net.feature_dim, "n_classes": net.n_classes}
        params = {name: np.array(p, dtype=float) for name, p in net.params().items()}
        virtual = None if virtual is None else np.array(virtual, dtype=float)
        return cls(arch, params, int(epoch), joint_start, virtual)

    def network(self, params: dict | None = None) -> MlpNetwork:
        """A fresh network holding ``params`` (default: this state's)."""
        net = MlpNetwork(**self.arch, rng=Rng(0))
        for name, p in net.params().items():
            p[...] = (self.params if params is None else params)[name]
        return net


CHECKPOINT_FORMAT = "ares-checkpoint"
CHECKPOINT_VERSION = 3


def _tensor(p) -> dict:
    return {"shape": list(np.shape(p)), "data": np.asarray(p).reshape(-1).tolist()}


def _param_block(params: dict) -> dict:
    return {name: _tensor(p) for name, p in params.items()}


def _read_tensor(t: dict, name: str, shape: tuple) -> np.ndarray:
    if tuple(t["shape"]) != shape:
        raise ValueError(f"{name} has shape {tuple(t['shape'])}, expected {shape}")
    a = np.asarray(t["data"], dtype=float).reshape(shape)
    if not np.isfinite(a).all():
        raise ValueError(f"{name} holds a non-finite value")
    return a


def _read_param_block(block: dict, like: dict, what: str) -> dict[str, np.ndarray]:
    return {name: _read_tensor(block[name], f"{what} {name}", p.shape) for name, p in like.items()}


def save_checkpoint(state: RunState, path) -> None:
    """Canonical JSON checkpoint of a run state: the named current and
    joint-start parameter tensors and the virtual-outlier batch, each stored
    as an explicit shape header plus flat values. Floats round-trip exactly."""
    doc = {
        "format": CHECKPOINT_FORMAT,
        "version": CHECKPOINT_VERSION,
        "epoch": int(state.epoch),
        "arch": state.arch,
        "params": _param_block(state.params),
        "joint_start": None if state.joint_start is None else _param_block(state.joint_start),
        "virtual": None if state.virtual is None else _tensor(state.virtual),
    }
    text = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"  # the C encoder, in one write
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def _check_arch(arch: dict) -> None:
    """ValueError unless every width is a positive integer and there are at
    least two classes."""
    widths = {"input_dim": arch["input_dim"], "feature_dim": arch["feature_dim"],
              "n_classes": arch["n_classes"]}
    widths.update((f"hidden_dims[{i}]", h) for i, h in enumerate(arch["hidden_dims"]))
    for key, width in widths.items():
        if type(width) is not int or width < 1:
            raise ValueError(f"arch {key} = {width!r} is not a positive integer")
    if arch["n_classes"] < 2:
        raise ValueError(f"arch n_classes = {arch['n_classes']}, need at least 2")


def load_checkpoint(path) -> RunState:
    """The run state stored at ``path``. A missing file, a file that is not
    a checkpoint, another format version, an architecture that is not one
    (a width that is not a positive integer, fewer than two classes), an
    epoch that is not a non-negative integer, or a malformed tensor block
    (a wrong shape, a non-finite entry) is a :class:`ConfigError` naming
    the file."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"missing checkpoint: {path}") from None
    except (OSError, UnicodeDecodeError, json.JSONDecodeError) as err:
        raise ConfigError(f"{path}: not a checkpoint file ({err})") from None
    if not isinstance(doc, dict) or doc.get("format") != CHECKPOINT_FORMAT:
        raise ConfigError(f"{path}: not a checkpoint file")
    if doc.get("version") != CHECKPOINT_VERSION:
        raise ConfigError(
            f"{path}: checkpoint version {doc.get('version')} is not supported; this "
            f"version reads version {CHECKPOINT_VERSION} only (retrain to write one)"
        )
    try:
        arch = {key: doc["arch"][key] for key in ("input_dim", "hidden_dims", "feature_dim", "n_classes")}
        _check_arch(arch)
        like = MlpNetwork(**arch, rng=Rng(0)).params()
        joint, virtual, epoch = doc["joint_start"], doc["virtual"], doc["epoch"]
        if type(epoch) is not int or epoch < 0:
            raise ValueError(f"epoch = {epoch!r} is not a non-negative integer")
        if virtual is not None:  # (n, feature_dim), n read off the data
            width = arch["feature_dim"]
            virtual = _read_tensor(virtual, "virtual", (len(virtual["data"]) // width, width))
        return RunState(
            arch=arch,
            params=_read_param_block(doc["params"], like, "parameter"),
            epoch=epoch,
            joint_start=None if joint is None else _read_param_block(joint, like, "joint_start parameter"),
            virtual=virtual,
        )
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"{path}: malformed checkpoint ({err})") from None
