"""Batched scalar sampling over a shared ``numpy.random.Generator``.

Every hot loop of the simulator used to draw scalars straight from the
Generator (``rng.random()``, ``rng.lognormal()``, …).  A scalar draw from a
NumPy Generator costs a few microseconds of call overhead; drawn millions of
times per run it dominates the profile.  :class:`RngPool` amortises that by
drawing blocks of uniforms/normals at once and handing out plain Python
floats from the block.

Derived distributions (lognormal, bounded integers) are computed by
inverse transform / closed form from the pooled uniforms and normals, so the
emitted streams follow exactly the same distributions as the direct Generator
calls — only the order in which the underlying bit stream is consumed
changes.  Results therefore remain deterministic for a fixed seed, but are
not bit-identical to the pre-pool implementation.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["RngPool"]


class RngPool:
    """Pooled scalar sampling façade over a ``numpy.random.Generator``."""

    __slots__ = ("_rng", "_block", "_uniform", "_ui", "_normal", "_ni")

    def __init__(self, rng: np.random.Generator, block: int = 4096):
        if block <= 0:
            raise ValueError("block must be positive")
        self._rng = rng
        self._block = block
        self._uniform: list[float] = []
        self._ui = 0
        self._normal: list[float] = []
        self._ni = 0

    @property
    def generator(self) -> np.random.Generator:
        """The underlying Generator (for vectorised draws)."""
        return self._rng

    # ------------------------------------------------------------- uniforms
    def random(self) -> float:
        """One uniform sample in ``[0, 1)``."""
        i = self._ui
        if i >= len(self._uniform):
            self._uniform = self._rng.random(self._block).tolist()
            i = 0
        self._ui = i + 1
        return self._uniform[i]

    def uniform(self, low: float, high: float) -> float:
        """One uniform sample in ``[low, high)``."""
        return low + (high - low) * self.random()

    def integers(self, n: int) -> int:
        """One integer uniform on ``[0, n)`` (like ``rng.integers(n)``)."""
        value = int(self.random() * n)
        return value if value < n else n - 1

    # -------------------------------------------------------------- normals
    def normal(self) -> float:
        """One standard-normal sample."""
        i = self._ni
        if i >= len(self._normal):
            self._normal = self._rng.standard_normal(self._block).tolist()
            i = 0
        self._ni = i + 1
        return self._normal[i]

    def lognormal(self, mean: float, sigma: float) -> float:
        """One lognormal sample (same parameterisation as ``rng.lognormal``)."""
        return math.exp(mean + sigma * self.normal())

    # ------------------------------------------------------ derived streams
    def spawn(self, key: int) -> "RngPool":
        """A child pool with an independent stream derived from ``key``.

        The child's bit stream is a pure function of this pool's root seed
        and ``key`` (via the NumPy ``SeedSequence`` spawn-key mechanism), so
        children are reproducible, mutually independent, and — crucially for
        the sharded replay engine — do not depend on how many draws the
        parent or any sibling has made.  Spawning the same key twice yields
        identical streams.
        """
        root = self._rng.bit_generator.seed_seq
        child_seq = np.random.SeedSequence(
            entropy=root.entropy, spawn_key=tuple(root.spawn_key) + (key,))
        return RngPool(np.random.default_rng(child_seq), block=self._block)
