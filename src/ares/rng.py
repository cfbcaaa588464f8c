"""Deterministic, splittable random number generation.

Every random draw in the pipeline flows through an :class:`Rng`. An ``Rng``
is seeded by a single integer and can derive named child streams; a child's
stream depends only on ``(seed, path-of-labels)``, never on how many draws
were taken from the parent or from sibling streams. This is what makes
"same config + seed => bitwise identical run" hold even when sub-tasks are
reordered or parallelised.
"""

from __future__ import annotations

import hashlib

import numpy as np

__all__ = ["Rng"]


def _label_word(label) -> int:
    """Map a child label to a stable non-negative integer."""
    if isinstance(label, (int, np.integer)):
        if label < 0:
            raise ValueError(f"child labels must be non-negative, got {label}")
        return int(label)
    if isinstance(label, str):
        digest = hashlib.sha256(label.encode("utf-8")).digest()
        return int.from_bytes(digest[:8], "little")
    raise TypeError(f"child labels must be int or str, got {type(label).__name__}")


class Rng:
    """A seedable generator with named, order-independent child streams.

    Wraps ``numpy.random.Generator`` (PCG64). The underlying bit stream is a
    pure function of ``(seed, key)`` where ``key`` is the tuple of label
    words accumulated through :meth:`child` calls.
    """

    def __init__(self, seed: int, _key: tuple[int, ...] = ()):
        self.seed = int(seed)
        self._key = _key
        seq = np.random.SeedSequence(self.seed, spawn_key=_key)
        self.generator = np.random.Generator(np.random.PCG64(seq))

    def child(self, *labels) -> "Rng":
        """Derive an independent stream keyed by ``labels``.

        Children with distinct label paths are statistically independent,
        and a child's stream does not depend on draws made elsewhere.
        """
        if not labels:
            raise ValueError("child() requires at least one label")
        key = self._key + tuple(_label_word(lab) for lab in labels)
        return Rng(self.seed, _key=key)

    # Thin passthroughs for the draws the pipeline uses. Keeping them on the
    # wrapper (rather than exposing .generator everywhere) makes the draw
    # surface auditable.
    def uniform(self, low=0.0, high=1.0, size=None):
        return self.generator.uniform(low, high, size)

    def standard_normal(self, size=None):
        return self.generator.standard_normal(size)

    def beta(self, a, b, size=None):
        return self.generator.beta(a, b, size)

    def integers(self, low, high=None, size=None):
        return self.generator.integers(low, high, size)

    def choice(self, a, size=None, replace=True, p=None):
        return self.generator.choice(a, size=size, replace=replace, p=p)

    def permutation(self, x):
        return self.generator.permutation(x)

    def __repr__(self) -> str:
        return f"Rng(seed={self.seed}, key={self._key})"
