"""Outside-in span tracer for the ``ares`` package.

The tracer wraps the public callables of every ``ares`` module at the
places their callers look them up (``ares.training.fit_gaussian``,
``ares.cli.evaluate``, ...), so the program itself is not edited. Each
wrapped call becomes a span with a start, an end and a parent; a span's
self time is its duration minus the time its child spans cover. Spans are
kept in memory and written out once, at the end of a run. A wrapper never
changes the arguments or the result of the call it wraps.
"""

from __future__ import annotations

import copy
import functools
import gzip
import inspect
import itertools
import json
import sys
import threading
import time
import types
from collections import defaultdict

# Public methods traced besides the module-level functions, as
# (module, class, method, span name). Methods are not discovered
# automatically: per-batch helpers such as ``GradientTape.add`` would cost
# more to trace than they take.
METHODS = (
    ("ares.network", "MlpNetwork", "forward", "network.forward"),
    ("ares.network", "MlpNetwork", "backward", "network.backward"),
    ("ares.network", "MlpNetwork", "predict", "network.predict"),
    ("ares.rng", "Rng", "child", "rng.Rng.child"),
)

# The per-epoch ``copy.deepcopy(net)`` in ``train()`` is reported under this
# name; the loop looks it up as ``copy.deepcopy`` in ``ares.training``.
SNAPSHOT = "training.snapshot"


class Span:
    __slots__ = ("id", "parent", "name", "scope", "thread", "start", "end", "child_s")

    def __init__(self, sid, parent, name, scope, thread):
        self.id = sid
        self.parent = parent
        self.name = name
        self.scope = scope
        self.thread = thread
        self.start = self.end = 0.0
        self.child_s = 0.0

    @property
    def self_s(self) -> float:
        return (self.end - self.start) - self.child_s


def ares_modules() -> list[types.ModuleType]:
    return [m for name, m in sorted(sys.modules.items())
            if (name == "ares" or name.startswith("ares.")) and m is not None]


def rebind(modules, original, replacement) -> list[tuple[object, str, object]]:
    """Point every module attribute bound to ``original`` at
    ``replacement``. Returns the undo list for :func:`restore`."""
    undo = []
    for mod in modules:
        for attr, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, attr, replacement)
                undo.append((mod, attr, original))
    return undo


def restore(undo) -> None:
    for owner, attr, val in reversed(undo):
        setattr(owner, attr, val)


def _bound_arguments(fn, args, kwargs) -> dict:
    bound = inspect.signature(fn).bind(*args, **kwargs)
    bound.apply_defaults()
    return bound.arguments


# ---- counters derived from arguments and results ---------------------------

def _observe_fit(counters, fn, args, kwargs, model) -> None:
    # fit_gaussian starts at ridge_scale * trace / p (or ridge_scale when that
    # is not positive) and multiplies by 10 per failed factorization.
    import numpy as np

    ridge_scale = _bound_arguments(fn, args, kwargs)["ridge_scale"]
    p = model.sigma.shape[0]
    base = ridge_scale * float(np.trace(model.sigma)) / p
    if base <= 0.0:
        base = ridge_scale
    counters["numerics.ridge_escalations"] += round(float(np.log10(model.ridge / base)))


def _observe_rank(counters, fn, args, kwargs, batch) -> None:
    xs = args[0] if args else kwargs["xs"]
    counters["synthesis.ranked"] += len(getattr(xs, "points", xs))
    counters["synthesis.kept"] += len(batch)


def _observe_forward(counters, fn, args, kwargs, cache) -> None:
    counters["network.forward.rows"] += cache.x.shape[0]


def _observe_load_points(counters, fn, args, kwargs, result) -> None:
    counters["datagen.load_points_csv.rows"] += result[0].shape[0]


def _observe_ablation(counters, fn, args, kwargs, reports) -> None:
    counters["evaluation.variant_errors"] += sum(r.error is not None for r in reports)


OBSERVERS = {
    "numerics.fit_gaussian": _observe_fit,
    "synthesis.sample_virtual_outliers": _observe_rank,
    "network.forward": _observe_forward,
    "datagen.load_points_csv": _observe_load_points,
    "evaluation.run_ablation_suite": _observe_ablation,
}

# Exceptions counted once each, however many spans they pass through.
ERROR_COUNTERS = {
    "TrainingDiverged": "training.diverged",
    "SynthesisUnderflowError": "synthesis.underflow",
}


class Tracer:
    """Records spans for every traced call made while installed.

    ``scope`` labels the spans that start under it: "setup", "op" for a
    measured operation, or "check" for output checks. Scopes report apart.
    """

    def __init__(self):
        self.spans: list[Span] = []
        self.counters: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
        self.scope = "setup"
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._undo: list = []
        self._seen_errors: list[Exception] = []
        self._lock = threading.Lock()  # counters, when ARES_THREADS runs variants in threads

    # ---- installation -----------------------------------------------------

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = ares_modules()
        for mod in modules:
            if mod.__name__ == "ares":
                continue
            short = mod.__name__[len("ares."):]
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                self._undo += rebind(modules, fn, self.wrap(f"{short}.{attr}", fn))
        # A method or the ``copy`` import that the program no longer has is
        # skipped: its metrics then read 0.
        for mod_name, cls_name, meth, span_name in METHODS:
            cls = getattr(sys.modules[mod_name], cls_name, None)
            fn = vars(cls).get(meth) if cls is not None else None
            if inspect.isfunction(fn):
                setattr(cls, meth, self.wrap(span_name, fn))
                self._undo.append((cls, meth, fn))
        training = sys.modules["ares.training"]
        if getattr(training, "copy", None) is copy:
            self._undo.append((training, "copy", copy))
            training.copy = types.SimpleNamespace(deepcopy=self.wrap(SNAPSHOT, copy.deepcopy))

    def uninstall(self) -> None:
        restore(self._undo)
        self._undo = []

    # ---- recording --------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        observe = OBSERVERS.get(name)
        tracer = self
        perf = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack()
            parent = stack[-1] if stack else None
            span = Span(next(tracer._ids), parent.id if parent else 0, name,
                        tracer.scope, threading.get_ident())
            stack.append(span)
            span.start = perf()
            try:
                result = fn(*args, **kwargs)
            except Exception as err:
                tracer._note_error(span.scope, err)
                raise
            finally:
                span.end = perf()
                stack.pop()
                if parent is not None:
                    parent.child_s += span.end - span.start
                tracer.spans.append(span)
                with tracer._lock:
                    tracer.counters[span.scope][name + ".calls"] += 1
            if observe is not None:
                with tracer._lock:
                    observe(tracer.counters[span.scope], fn, args, kwargs, result)
            return result

        return traced

    def _note_error(self, scope: str, err: Exception) -> None:
        with self._lock:
            if any(seen is err for seen in self._seen_errors):
                return
            self._seen_errors.append(err)
            key = ERROR_COUNTERS.get(type(err).__name__)
            if key is not None:
                self.counters[scope][key] += 1

    # ---- summaries --------------------------------------------------------

    def self_times(self, scope: str) -> dict[str, float]:
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            if s.scope == scope:
                out[s.name] += s.self_s
        return out

    def write(self, path) -> None:
        """One JSON object per span, in completion order, gzip-compressed."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({
                    "id": s.id, "parent": s.parent, "name": s.name, "scope": s.scope,
                    "thread": s.thread, "start": s.start, "end": s.end,
                    "self_s": s.self_s,
                }) + "\n")
