"""Independent reference computations the benchmark checks outputs against.

The metric references use different algorithms from ``ares.evaluation``:
AUROC is a Mann-Whitney count through ``searchsorted`` on the sorted
outlier scores (no rank averaging), and the 95%-TPR gate is read directly
off the descending-sorted inlier scores. Both are exact, so a report must
equal them bit for bit.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

TPR_TARGET = 0.95


def auroc(id_scores, ood_scores) -> float:
    """P(inlier > outlier) + 0.5 P(tie), counted pairwise via binary search."""
    e = np.asarray(id_scores, dtype=float)
    f = np.sort(np.asarray(ood_scores, dtype=float))
    below = np.searchsorted(f, e, side="left")
    upto = np.searchsorted(f, e, side="right")
    u = float(below.sum()) + 0.5 * float((upto - below).sum())
    return float(u / (e.size * f.size))


def gate(id_scores) -> float:
    """Largest gamma with at least 95% of inlier scores >= gamma: the
    ceil(0.95 n)-th largest score."""
    s = np.sort(np.asarray(id_scores, dtype=float))[::-1]
    return float(s[math.ceil(TPR_TARGET * s.size) - 1])


def fpr95(id_scores, ood_scores) -> float:
    f = np.asarray(ood_scores, dtype=float)
    return float(np.count_nonzero(f >= gate(id_scores)) / f.size)


def report_mismatches(report, id_scores, ood_scores: dict) -> list[str]:
    """Every way ``report`` differs from the references on these scores."""
    bad = []
    if not np.all(np.isfinite(id_scores)) or not all(
        np.all(np.isfinite(s)) for s in ood_scores.values()
    ):
        bad.append("non-finite scores")
    if sorted(report.per_set) != sorted(ood_scores):
        return bad + [f"sets {sorted(report.per_set)} != {sorted(ood_scores)}"]
    if report.gamma != gate(id_scores):
        bad.append(f"gamma {report.gamma!r} != {gate(id_scores)!r}")
    expect = {}
    for name in sorted(ood_scores):
        a = auroc(id_scores, ood_scores[name])
        expect[name] = {"fpr95": fpr95(id_scores, ood_scores[name]), "auroc": a,
                        "auroc_oriented": max(a, 1.0 - a)}
        for key, val in expect[name].items():
            if report.per_set[name][key] != val:
                bad.append(f"{name} {key} {report.per_set[name][key]!r} != {val!r}")
    for key in ("fpr95", "auroc", "auroc_oriented"):
        val = float(np.mean([m[key] for m in expect.values()]))
        if report.average[key] != val:
            bad.append(f"average {key} {report.average[key]!r} != {val!r}")
    return bad


def log_is_finite(log) -> bool:
    return all(
        math.isfinite(getattr(r, col)) for r in log.records for col in log.DETERMINISTIC_COLUMNS
    )


def run_digest(net, log) -> str:
    """SHA-256 over the deterministic train-log columns and the final
    parameters: equal digests mean equal runs."""
    h = hashlib.sha256()
    for r in log.records:
        h.update(np.array([getattr(r, c) for c in log.DETERMINISTIC_COLUMNS], dtype=float).tobytes())
    for name, p in sorted(net.params().items()):
        h.update(name.encode())
        h.update(np.ascontiguousarray(p, dtype=float).tobytes())
    return h.hexdigest()


def bytes_digest(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()
