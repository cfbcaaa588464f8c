"""Benchmark of the ares pipeline: desk training, a large ``ares eval`` and
the stage ablation.

Run from the repository root:

    python3 bench/run.py --workload desk_train --seed 0 --seconds 30 --trace 0

With ``--trace 0`` it prints the end-to-end metrics of BENCHMARK.json;
with ``--trace 1`` it alternates untraced and traced operations, and prints
the per-layer metrics. The last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``. A fuller record
(machine, per-operation times, digests, quality) is written to
``.bench_run/``, and with ``--trace 1`` the spans too.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
import traceback

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(ROOT, ".bench_run")
DIGESTS = os.path.join(WORK, "digests.json")

SETUP_REPEATS = 3


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


# ---- machine record ---------------------------------------------------------

def _blas_threads():
    """Thread cap of the loaded OpenBLAS, or None when it cannot be read."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            path = next((line.split()[-1] for line in fh if "openblas" in line.lower()), None)
    except OSError:
        return None
    if path is None:
        return None
    try:
        lib = ctypes.CDLL(path)
    except OSError:
        return None
    for sym in ("openblas_get_num_threads", "openblas_get_num_threads64_",
                "scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
        fn = getattr(lib, sym, None)
        if fn is not None:
            fn.restype = ctypes.c_int
            return int(fn())
    return None


def _git_commit():
    """HEAD of the checkout, read from .git without running git."""
    head = os.path.join(ROOT, ".git", "HEAD")
    if not os.path.isfile(head):
        return None
    with open(head, encoding="utf-8") as fh:
        ref = fh.read().strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[len("ref: "):]
    loose = os.path.join(ROOT, ".git", ref)
    if os.path.isfile(loose):
        with open(loose, encoding="utf-8") as fh:
            return fh.read().strip()
    packed = os.path.join(ROOT, ".git", "packed-refs")
    if os.path.isfile(packed):
        with open(packed, encoding="utf-8") as fh:
            for line in fh:
                parts = line.split()
                if len(parts) == 2 and parts[1] == ref:
                    return parts[0]
    return None


def _source_fingerprint() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "ares")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(hashlib.sha256(fh.read()).digest())
    return h.hexdigest()


def machine_record() -> dict:
    import numpy as np

    blas = getattr(np.__config__, "CONFIG", {}).get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_vendor": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": _blas_threads(),
        "ares_threads_env": os.environ.get("ARES_THREADS"),
        "git_commit": _git_commit(),
        "source_sha256": _source_fingerprint(),
    }


# ---- measurement ------------------------------------------------------------

def run_ops(wl, capture, seconds, tracer=None):
    """Start operations until ``seconds`` have passed and at least
    ``wl.min_ops`` ran. With a tracer, operations alternate untraced /
    traced, so a drift in machine speed hits both alike, and half the
    minimum of each kind is enough. Returns (op entries, untraced walls,
    traced walls)."""
    ops, walls = [], {False: [], True: []}
    need = wl.min_ops if tracer is None else -(-wl.min_ops // 2)
    t_start = time.perf_counter()
    while True:
        i = len(ops)
        traced = tracer is not None and i % 2 == 1
        if traced:
            _layer(capture, tracer.install)
            tracer.scope = "op"
        wl.prepare(i)
        capture.take()
        t0, c0, m0 = time.perf_counter(), time.process_time(), time.thread_time()
        try:
            out, error = wl.op(i), None
        except Exception:
            out, error = None, traceback.format_exc(limit=4)
        wall = time.perf_counter() - t0
        cpu, main_cpu = time.process_time() - c0, time.thread_time() - m0
        if traced:
            tracer.scope = "check"
        if error is None:
            try:
                outcome = wl.check(i, out, capture.take())
            except Exception:
                outcome, error = None, traceback.format_exc(limit=4)
        if traced:
            _layer(capture, tracer.uninstall)
        entry = {"index": i, "traced": traced, "wall_s": wall, "cpu_s": cpu,
                 "main_thread_cpu_s": main_cpu}
        if error is not None:
            entry.update(key=None, digest=None, problems=[error], quality={})
        else:
            entry.update(key=outcome.key, digest=outcome.digest, problems=outcome.problems,
                         quality={k: {"auroc": r.average["auroc"], "fpr95": r.average["fpr95"]}
                                  for k, r in outcome.reports.items() if not r.error})
        ops.append(entry)
        walls[traced].append(wall)
        enough = len(walls[False]) >= need and (tracer is None or len(walls[True]) >= need)
        if enough and time.perf_counter() - t_start >= seconds:
            return ops, walls[False], walls[True]


def _layer(capture, change) -> None:
    """Apply a tracer install/uninstall beneath the capture hooks."""
    capture.uninstall()
    change()
    capture.install()


def check_determinism(ops, fingerprint: str) -> None:
    """Equal keys must give equal digests, within this run and across runs
    of the same source (recorded in .bench_run/digests.json). A mismatch
    fails the later operation."""
    store = {}
    if os.path.exists(DIGESTS):
        with open(DIGESTS, encoding="utf-8") as fh:
            store = json.load(fh)
    known = store.setdefault(fingerprint, {})
    for op in ops:
        if op["problems"]:  # already failed; its digest is not a reference
            continue
        seen = known.setdefault(op["key"], op["digest"])
        if seen != op["digest"]:
            op["problems"].append(f"determinism: digest of {op['key']} differs from an earlier run")
    tmp = DIGESTS + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=1, sort_keys=True)
    os.replace(tmp, DIGESTS)


def quality(ops) -> dict:
    """Mean AUROC / FPR95 over the distinct reports of the run (0 when no
    operation produced one, which keeps the JSON line valid)."""
    seen = {}
    for op in ops:
        for key, q in op["quality"].items():
            seen.setdefault(key, q)
    if not seen:
        return {"auroc_mean": 0.0, "fpr95_mean": 0.0, "reports": 0}
    return {
        "auroc_mean": statistics.fmean(q["auroc"] for q in seen.values()),
        "fpr95_mean": statistics.fmean(q["fpr95"] for q in seen.values()),
        "reports": len(seen),
    }


def layer_metrics(tracer, setup_times, traced_walls, untraced_walls, q, fail_ratio):
    """Every per-layer metric the traced run can give, per operation unless
    named ``setup.*`` (per set-up repetition)."""
    n_ops = len(traced_walls)
    st = tracer.self_times("op")
    c = tracer.counters["op"]
    setup_st = tracer.self_times("setup")

    def calls(span):
        return c[span + ".calls"]

    def ratio(num, den):
        return num / den if den else 0.0

    out = {
        "numerics.ridge_escalations": c["numerics.ridge_escalations"] / n_ops,
        "synthesis.ranks_per_fit": ratio(
            calls("synthesis.sample_virtual_outliers") + calls("synthesis.select_epsilon"),
            calls("numerics.fit_gaussian")),
        "synthesis.kept_per_ranked": ratio(c["synthesis.kept"], c["synthesis.ranked"]),
        "synthesis.underflow": c["synthesis.underflow"] / n_ops,
        "training.diverged": c["training.diverged"] / n_ops,
        "network.forward.rows_per_call": ratio(c["network.forward.rows"], calls("network.forward")),
        "datagen.load_points_csv.rows": c["datagen.load_points_csv.rows"] / n_ops,
        "evaluation.variant_errors": c["evaluation.variant_errors"] / n_ops,
        "evaluation.choose_gamma.calls_per_evaluate": ratio(
            calls("evaluation.choose_gamma"), calls("evaluation.evaluate")),
        "evaluation.auroc_mean": q["auroc_mean"],
        "evaluation.fpr95_mean": q["fpr95_mean"],
        "fail_ratio": fail_ratio,
        "trace.coverage": sum(st.values()) / sum(traced_walls),
        "trace.overhead": statistics.median(traced_walls) / statistics.median(untraced_walls) - 1.0,
        "setup.trace.coverage": sum(setup_st.values()) / sum(setup_times),
    }
    for span, total in st.items():
        out[f"{span}.self_s"] = total / n_ops
    for key, total in c.items():
        if key.endswith(".calls"):
            out[key] = total / n_ops
    for span, total in setup_st.items():
        out[f"setup.{span}.self_s"] = total / len(setup_times)
    return out


def emit(spec, available: dict) -> dict:
    """The metrics named in BENCHMARK.json, in its order, with its units.
    A layer with no span in this workload did no work in it: 0."""
    metrics = {}
    for m in spec:
        name = m["name"]
        if name in available:
            value = available[name]
        elif name.endswith((".self_s", ".calls")):
            value = 0.0
        else:
            raise KeyError(f"benchmark computes no metric named {name!r}")
        metrics[name] = {"value": float(value), "unit": m["unit"]}
    return metrics


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "ares", "__init__.py")):
        print(f"error: no ares package under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)

    sys.path.insert(0, SRC)
    t0 = time.perf_counter()
    import numpy  # noqa: F401  (part of what a user's import pays)
    import ares
    import ares.cli  # noqa: F401  (ares/__init__ does not import the CLI)
    import_s = time.perf_counter() - t0
    if os.path.dirname(os.path.abspath(ares.__file__)) != os.path.join(SRC, "ares"):
        print(f"error: imported ares from {ares.__file__}, not {SRC}", file=sys.stderr)
        return 2

    from tracer import Tracer
    from workloads import WORKLOADS, Capture

    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    os.makedirs(WORK, exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    workdir = os.path.join(WORK, f"{args.workload}-seed{args.seed}")
    wl = WORKLOADS[args.workload](args.seed, workdir)
    machine = machine_record()

    tracer = Tracer() if args.trace else None
    if tracer:
        tracer.install()
    setup_times, setup_digests = [], []
    for rep in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        setup_digests.append(wl.setup(rep))
        setup_times.append(time.perf_counter() - t0)
    if tracer:
        tracer.uninstall()
    if len(set(setup_digests)) != 1:
        print(f"error: set-up is not deterministic: {setup_digests}", file=sys.stderr)
        return 1

    capture = Capture()
    capture.install()
    ops, untraced, traced = run_ops(wl, capture, args.seconds, tracer)
    capture.uninstall()

    check_determinism(ops, hashlib.sha256(json.dumps(
        [machine["source_sha256"], machine["numpy"], machine["blas_vendor"],
         machine["blas_threads"]]).encode()).hexdigest())
    failed = sum(bool(op["problems"]) for op in ops)
    q = quality(ops)

    if tracer:
        available = layer_metrics(tracer, setup_times, traced, untraced, q, failed / len(ops))
        metrics = emit(spec["per_layer"], available)
        tracer.write(os.path.join(WORK, f"spans-{tag}.jsonl.gz"))
    else:
        available = {
            "op_s_p50": statistics.median(untraced),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,  # KiB
        }
        metrics = emit(spec["end_to_end"], available)

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "machine": machine, "import_s": import_s,
        "setup_s": setup_times, "setup_digest": setup_digests[0], "ops": ops,
        "quality": q, "metrics": metrics,
    }
    with open(os.path.join(WORK, f"result-{tag}.json"), "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)

    if not failed:
        shutil.rmtree(workdir, ignore_errors=True)  # generated inputs, kept only for a failure
    for op in ops:
        for problem in op["problems"]:
            print(f"FAILED op {op['index']} ({op['key']}): {problem}")
    print(f"machine: {json.dumps(machine, sort_keys=True)}")
    print(f"workload {args.workload} seed {args.seed}: {len(ops)} ops, {failed} failed; "
          f"quality over {q['reports']} reports: AUROC {q['auroc_mean']:.4f}, "
          f"FPR95 {q['fpr95_mean']:.4f}")
    for name, m in metrics.items():
        print(f"  {name} = {m['value']:.6g} {m['unit']}")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
