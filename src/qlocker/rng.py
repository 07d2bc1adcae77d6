"""Deterministic, splittable random streams.

Every sampled quantity in this package draws from a RandomStream.  A stream
is fully determined by its 64-bit seed plus a path of sub-stream indices, so
any shot, trajectory, or experiment can be replayed bit-for-bit, and derived
sub-streams may be consumed in any order (or in parallel) without changing
results.

A batch of shots keeps that contract by drawing each shot's uniforms up
front: :meth:`RandomStream.shot_uniforms` gives shot ``i`` the first ``k``
draws of sub-stream ``(seed, i)``, the same doubles ``k`` calls of
:meth:`RandomStream.random` on that sub-stream return.
"""

from __future__ import annotations

import numpy as np


class RandomStream:
    """A Philox counter-based generator keyed by (seed, sub-stream path)."""

    __slots__ = ("seed", "path", "_gen")

    def __init__(self, seed: int, path: tuple[int, ...] = ()):
        self.seed = int(seed)
        self.path = tuple(int(p) for p in path)
        seq = np.random.SeedSequence(self.seed, spawn_key=self.path)
        self._gen = np.random.Generator(np.random.Philox(seq))

    def substream(self, index: int) -> RandomStream:
        """Child stream at ``index``; independent of the parent and siblings."""
        return RandomStream(self.seed, self.path + (int(index),))

    def shot_uniforms(self, shots: range, k: int) -> np.ndarray:
        """Row ``j``: the first ``k`` uniforms of sub-stream ``shots[j]``.

        Builds fresh sub-streams, so this stream itself does not advance.
        """
        return np.stack([self.substream(i).randoms(k) for i in shots])

    def random(self) -> float:
        """Next uniform double in [0, 1)."""
        return float(self._gen.random())

    def randoms(self, size: int) -> np.ndarray:
        """Array of ``size`` uniform doubles in [0, 1)."""
        return self._gen.random(size)

    def uniform(self, low: float, high: float, size: int | None = None):
        return self._gen.uniform(low, high, size)

    def spawn_seed(self) -> int:
        """Draw a fresh 63-bit integer, for seeding an independent run."""
        return int(self._gen.integers(0, 1 << 63))

    def __repr__(self) -> str:
        return f"RandomStream(seed={self.seed}, path={self.path})"
