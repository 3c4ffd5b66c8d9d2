"""Deterministic random streams.

Every source of randomness in the package goes through :class:`Rng`, a thin
wrapper over numpy's Philox bit generator.  Philox is counter-based, so a
``(seed, stream)`` pair fully determines the sequence on any platform.  Code
that needs several independent streams derives them by stream id instead of
sharing one stateful generator; that keeps sampling reproducible and makes
checkpoint resume trivial (the stream for step ``t`` is a pure function of
``(seed, t)``).
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng:
    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream]))

    def normal(self, shape, std: float = 1.0, mean: float = 0.0) -> np.ndarray:
        return self._gen.normal(mean, std, size=shape)

    def truncated_normal(self, shape, std: float = 0.02) -> np.ndarray:
        """Normal draws with values beyond two standard deviations redrawn."""
        out = self._gen.normal(0.0, std, size=shape)
        bound = 2.0 * std
        bad = np.abs(out) > bound
        while bad.any():
            out[bad] = self._gen.normal(0.0, std, size=int(bad.sum()))
            bad = np.abs(out) > bound
        return out

    def uniform(self, shape=None, low: float = 0.0, high: float = 1.0) -> np.ndarray:
        return self._gen.uniform(low, high, size=shape)

    def integers(self, low: int, high: int, shape=None) -> np.ndarray:
        return self._gen.integers(low, high, size=shape)

    def choice(self, n: int, size: int, p=None) -> np.ndarray:
        return self._gen.choice(n, size=size, p=p)

    def permutation(self, n: int) -> np.ndarray:
        return self._gen.permutation(n)
