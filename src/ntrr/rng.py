"""Deterministic, addressable random streams.

Every stochastic choice in the package (init, shuffling, permutation
sampling, dropout masks) draws from a Philox counter-based generator
keyed by (seed, stream id). Stream ids are folded from tags such as
("dropout", step, branch, site), so any mask can be regenerated on its
own, which is what makes the duplicated-batch and two-forward R-Drop
paths agree mask for mask: both draw through the one `mask` of
_BranchStreams, over one branch (DropoutStreams) or two stacked ones
(DualDropoutStreams). Philox is integer arithmetic end to end, so
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


class _BranchStreams:
    """Dropout masks for one forward over len(branches) stacked branches.

    Axis 0 of every mask splits into equal parts, one per branch; part b
    comes from the stream (seed, "dropout", step, branches[b], site). The
    public `site` counter advances once per call in code order, so a
    rebuilt or rewound object regenerates the same masks."""

    def __init__(self, seed: int, step: int, branches: tuple[int, ...]):
        self.seed = seed
        self.step = step
        self.branches = branches
        self.site = 0  # the next call site's index

    def mask(self, shape, drop_prob: float) -> np.ndarray:
        n = len(self.branches)
        if shape[0] % n != 0:
            raise ContractError(f"batch axis {shape[0]} does not split into {n} branches")
        part = (shape[0] // n,) + tuple(shape[1:])
        site = self.site
        self.site += 1
        parts = [Rng.for_stream(self.seed, "dropout", self.step, branch, site).uniform(part)
                 >= drop_prob for branch in self.branches]
        return parts[0] if n == 1 else np.concatenate(parts, axis=0)


# Siblings, not parent and child: perfbench's tracer wraps `mask` on each
# class by name, and an inherited wrapper would count every mask twice.
class DropoutStreams(_BranchStreams):
    """Masks for one forward of a single R-Drop branch."""

    def __init__(self, seed: int, step: int, branch: int):
        super().__init__(seed, step, (branch,))


class DualDropoutStreams(_BranchStreams):
    """Masks for a duplicated batch: rows [0, B) use branch 1 streams,
    rows [B, 2B) branch 2, at the same site, so the one duplicated forward
    sees exactly the masks of two separate branch forwards."""

    def __init__(self, seed: int, step: int):
        super().__init__(seed, step, (1, 2))
