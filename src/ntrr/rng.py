"""Deterministic, addressable random streams.

Every stochastic choice in the package (init, shuffling, permutation
sampling, dropout masks) draws from a Philox counter-based generator
keyed by (seed, stream id). Stream ids are folded from tags such as
("dropout", step, branch, site), so any mask can be regenerated on its
own, which is what makes the duplicated-batch and two-forward R-Drop
paths agree mask for mask. Philox is integer arithmetic end to end, so
identical keys give bit-identical sequences across platforms.
"""

from __future__ import annotations

import numpy as np

from .errors import ContractError

_MASK64 = (1 << 64) - 1


def _mix(x: int) -> int:
    # splitmix64 finalizer; good avalanche for cheap key folding
    x &= _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def fold_stream_id(*tags) -> int:
    """Fold str/int tags into one 64-bit stream id."""
    h = 0x9E3779B97F4A7C15
    for tag in tags:
        if isinstance(tag, str):
            h = _mix(h ^ len(tag))
            for b in tag.encode("utf-8"):
                h = _mix(h ^ b)
        elif isinstance(tag, (int, np.integer)):
            h = _mix(h ^ (int(tag) & _MASK64))
        else:
            raise ContractError(f"stream tag must be str or int, got {type(tag).__name__}")
    return h


class Rng:
    """One named random stream: (seed, stream_id) -> reproducible draws."""

    def __init__(self, seed: int, stream_id: int = 0):
        if not 0 <= int(seed) <= _MASK64:
            raise ContractError(f"seed must fit in 64 bits, got {seed}")
        self.seed = int(seed)
        self.stream_id = int(stream_id) & _MASK64
        self._gen = np.random.Generator(np.random.Philox(key=[self.seed, self.stream_id]))

    @classmethod
    def for_stream(cls, seed: int, *tags) -> "Rng":
        return cls(seed, fold_stream_id(*tags))

    def derive(self, *tags) -> "Rng":
        """A fresh stream addressed relative to this one."""
        return Rng(self.seed, fold_stream_id(self.stream_id, *tags))

    def uniform(self, shape=()) -> np.ndarray:
        return self._gen.random(shape, dtype=np.float64)

    def normal(self, shape=(), std: float = 1.0) -> np.ndarray:
        return self._gen.standard_normal(shape, dtype=np.float64) * std

    def randbelow(self, n: int) -> int:
        """Unbiased integer in [0, n) via rejection on raw 64-bit words."""
        if n <= 0:
            raise ContractError(f"randbelow needs n >= 1, got {n}")
        limit = (1 << 64) - ((1 << 64) % n)
        while True:
            word = int(self._gen.integers(0, 1 << 64, dtype=np.uint64))
            if word < limit:
                return word % n

    def permutation(self, n: int) -> np.ndarray:
        """Uniform permutation of range(n) by Fisher-Yates."""
        if n < 1:
            raise ContractError(f"permutation needs n >= 1, got {n}")
        order = np.arange(n, dtype=np.int64)
        for i in range(n - 1, 0, -1):
            j = self.randbelow(i + 1)
            order[i], order[j] = order[j], order[i]
        return order


class DropoutStreams:
    """Dropout mask source for one forward pass of one branch.

    Each call site inside the forward gets its own stream keyed by
    (seed, "dropout", step, branch, site); the site counter advances in
    code order, so a rebuilt DropoutStreams regenerates the same masks.
    """

    def __init__(self, seed: int, step: int, branch: int):
        self.seed = seed
        self.step = step
        self.branch = branch
        self._site = 0

    def mask(self, shape, drop_prob: float) -> np.ndarray:
        site = self._site
        self._site += 1
        rng = Rng.for_stream(self.seed, "dropout", self.step, self.branch, site)
        return rng.uniform(shape) >= drop_prob


class DualDropoutStreams:
    """Masks for a duplicated batch: rows [0, B) use branch 1 streams,
    rows [B, 2B) use branch 2, at the same site index. Guarantees the
    single duplicated forward sees exactly the masks two separate
    branch forwards would see."""

    def __init__(self, seed: int, step: int):
        self.seed = seed
        self.step = step
        self._site = 0

    def mask(self, shape, drop_prob: float) -> np.ndarray:
        if shape[0] % 2 != 0:
            raise ContractError(f"duplicated batch axis must be even, got {shape[0]}")
        half = (shape[0] // 2,) + tuple(shape[1:])
        site = self._site
        self._site += 1
        parts = []
        for branch in (1, 2):
            rng = Rng.for_stream(self.seed, "dropout", self.step, branch, site)
            parts.append(rng.uniform(half) >= drop_prob)
        return np.concatenate(parts, axis=0)
