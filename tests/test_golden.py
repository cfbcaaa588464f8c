"""Golden digests: the sha256 of the artifacts of fixed runs, recorded per
OpenBLAS kernel. A run is a pure function of ``(config, seed)`` on one
kernel, so any change that moves a bit of these files fails here. Other
kernels round some matmuls differently; on a kernel with no recorded
digests the module skips and names the kernel it ran on.

The runs are the acceptance world's desk trainings (seeds 0-4) and
``ares gen/train/eval --preset desk`` on the CLI default world.
"""

import ctypes
import hashlib

import pytest

from ares.cli import main as cli_main
from ares.datagen import make_bundle
from ares.network import save_checkpoint
from ares.training import TrainConfig, train
from test_acceptance import BENCH_DATA, BENCH_SEEDS, DESK

# kernel -> run -> file -> sha256
GOLDEN = {
    "SkylakeX": {
        "desk-seed0": {
            "checkpoint.json": "739724b63037dd781bf189f1fc2998ea2e7e6fe8a0be17567acc6236db98db2c",
            "train_log.csv": "735d88a68bb3912cb6c7c4a7e39a38b52462df6481d0470287cfb4847055bf88",
        },
        "desk-seed1": {
            "checkpoint.json": "1711eee610403cbee53b291f63d00aa55232dfaaba8df0c29c42b98fde88b3e2",
            "train_log.csv": "5823c9565b2801cafca74e94f9a61df3280be05c779e5bf376d1be154047ddf9",
        },
        "desk-seed2": {
            "checkpoint.json": "c92b366e7e1730e28114cf0f71d915e62fee55106e7af41798d2e15591fd4e15",
            "train_log.csv": "119475952dc2dcce48ab035deaa8a629bee7ee0498874a62ad17e3d6f4f40a04",
        },
        "desk-seed3": {
            "checkpoint.json": "d84b2c9ee477f9b13ac4e68fb393a55f8da411ef960dddea3c347f086dc8cf1d",
            "train_log.csv": "a86c1c14be837b900e01e32cc77ae4b45cd60ddbdaebc95584a12100d5c6bb5b",
        },
        "desk-seed4": {
            "checkpoint.json": "e9c4eff9f4573e0217c949ce7e1b1c97a43c95485a394eca3569580001fa18db",
            "train_log.csv": "9926911e151d19585e441aec5f98add991181f3330c6941485f75eafd23cf5b8",
        },
        "cli-desk": {
            "checkpoint.json": "739724b63037dd781bf189f1fc2998ea2e7e6fe8a0be17567acc6236db98db2c",
            "energy_hist.csv": "3e01403bff0dd34debdd8043888a1fb41196b21672f32080e0dc870a04356a05",
            "report.json": "0bc786a0b70aedd6d95ae815d17f298a70606bae9c1ef03e05fe281460ea7a90",
        },
    },
}


def openblas_corename() -> str | None:
    """The core name of the loaded OpenBLAS (``SkylakeX``, ``Haswell``, ...),
    or None where no OpenBLAS with a core-name getter is mapped."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            paths = dict.fromkeys(line.split()[-1] for line in fh if "openblas" in line.lower())
    except OSError:
        return None
    # numpy's own (ILP64) OpenBLAS first: it runs every matmul of a run
    for path in sorted(paths, key=lambda p: "64" not in p):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for symbol in ("scipy_openblas_get_corename64_", "openblas_get_corename64_",
                       "scipy_openblas_get_corename", "openblas_get_corename"):
            get = getattr(lib, symbol, None)
            if get is not None:
                get.argtypes, get.restype = [], ctypes.c_char_p
                return get().decode()
    return None


KERNEL = openblas_corename()


@pytest.fixture
def golden():
    if KERNEL not in GOLDEN:
        pytest.skip(f"no golden digests recorded for OpenBLAS kernel {KERNEL!r}")
    return GOLDEN[KERNEL]


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def desk_digests(seed: int, out) -> dict:
    """Train the acceptance world's desk run of ``seed``; the sha256 of its
    ``train_log.csv`` and ``checkpoint.json``."""
    _, log = train(TrainConfig(seed=seed, **DESK), make_bundle(BENCH_DATA, seed=seed))
    log.write_csv(out / "train_log.csv")
    save_checkpoint(log.state, out / "checkpoint.json")
    return {name: sha256(out / name) for name in ("train_log.csv", "checkpoint.json")}


def cli_digests(out) -> dict:
    """``ares gen``, ``train`` and ``eval`` with ``--preset desk`` on the
    default world; the sha256 of the checkpoint, report and histogram."""
    data, run, ev = out / "data", out / "run", out / "eval"
    assert cli_main(["gen", "--preset", "desk", "--out", str(data)]) == 0
    assert cli_main(["train", "--preset", "desk", "--data", str(data), "--out", str(run)]) == 0
    assert cli_main(["eval", "--preset", "desk", "--data", str(data),
                     "--checkpoint", str(run / "checkpoint.json"), "--out", str(ev)]) == 0
    files = (run / "checkpoint.json", ev / "report.json", ev / "energy_hist.csv")
    return {path.name: sha256(path) for path in files}


@pytest.mark.parametrize("seed", BENCH_SEEDS)
def test_desk_run_bytes(golden, tmp_path, seed):
    assert desk_digests(seed, tmp_path) == golden[f"desk-seed{seed}"]


def test_cli_desk_bytes(golden, tmp_path):
    assert cli_digests(tmp_path) == golden["cli-desk"]
