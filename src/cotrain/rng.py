"""Deterministic random streams.

Every source of randomness in the package goes through :class:`Rng`, a thin
wrapper over numpy's Philox bit generator.  Philox is counter-based, so a
``(seed, stream)`` pair fully determines the sequence on any platform.  Code
that needs several independent streams derives them by stream id instead of
sharing one stateful generator; that keeps sampling reproducible and makes
checkpoint resume trivial (the stream for step ``t`` is a pure function of
``(seed, t)``).

Building a generator costs about 11 us on a 2-core Xeon VM (numpy 2.4.6), so
a loop over many short streams re-keys one generator instead
(:meth:`Rng.rekey`, about 0.7 us): it resets Philox's counter, its buffered
words and its buffered 32-bit half, which is all the state the generator
carries, so the draws that follow are those of a fresh ``Rng(seed, stream)``.
"""
from __future__ import annotations

import numpy as np

_MASK64 = (1 << 64) - 1


class Rng:
    def __init__(self, seed: int, stream: int = 0):
        self.seed = int(seed) & _MASK64
        self.stream = int(stream) & _MASK64
        # The key words go in as uint64: from a list, numpy rounds a word of
        # 2^63 or more through float64, so neighbouring streams collided.
        self._bits = np.random.Philox(key=np.array([self.seed, self.stream], dtype=np.uint64))
        self._gen = np.random.Generator(self._bits)
        # A fresh generator's state (counter 0, no buffered words), with the
        # stream word left to fill in; see ``rekey``.
        self._fresh = {
            "bit_generator": "Philox",
            "state": {"counter": [0, 0, 0, 0], "key": [self.seed, self.stream]},
            "buffer": [0, 0, 0, 0],
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def rekey(self, stream: int) -> "Rng":
        """Restart as ``Rng(self.seed, stream)`` would start, whatever was drawn before; return self."""
        self.stream = int(stream) & _MASK64
        self._fresh["state"]["key"][1] = self.stream
        self._bits.state = self._fresh
        return self

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
