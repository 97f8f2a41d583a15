"""Counter-based random streams and discrete sampling.

All randomness in the package flows through Philox substreams keyed by
(seed, purpose, path...).  Philox is counter-based, so a substream's output
depends only on its key, never on how many other substreams exist or in
which order they are consumed.  That is what makes Monte Carlo runs
bit-reproducible for any chunk size.

A stream's key is (seed, mix of path) and its counter the draw offset / 4
(four 64-bit outputs per counter value), so substream_blocks reads many
streams through one re-keyed Philox.
"""

from __future__ import annotations

import numpy as np
from numpy.random import Generator, Philox

# Purpose tags keep unrelated consumers on disjoint key spaces.
STREAM_WALK = 1
STREAM_GAUGE = 2
STREAM_BOOTSTRAP = 3
STREAM_SCAN = 4

_MASK64 = (1 << 64) - 1


def _splitmix64(x: int) -> int:
    # Standard splitmix64 finalizer; good avalanche, cheap, portable.
    x = (x + 0x9E3779B97F4A7C15) & _MASK64
    x = ((x ^ (x >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    x = ((x ^ (x >> 27)) * 0x94D049BB133111EB) & _MASK64
    return x ^ (x >> 31)


def _mix_path(parts: tuple[int, ...]) -> int:
    h = 0x243F6A8885A308D3
    for p in parts:
        h = _splitmix64(h ^ (int(p) & _MASK64))
    return h


def _key(seed: int, path) -> tuple[int, int]:
    return int(seed) & _MASK64, _mix_path(tuple(path))


def substream(seed: int, *path: int) -> Generator:
    """Independent generator for (seed, *path).

    Same arguments always give the same stream; distinct paths give
    streams that never collide (128-bit Philox key).
    """
    return Generator(Philox(key=np.array(_key(seed, path), dtype=np.uint64)))


def substream_blocks(seed: int, paths, steps: int, block: int):
    """Yield (s, u) for s = 0, block, 2 block, ... below steps, where u[i] is
    substream(seed, *paths[i]).random((steps, 2))[s:s + block], bit for bit.

    Every u is a view of one buffer, which the next block overwrites; copy
    u to keep it.  A fresh array per block let free heap space split
    around the walk's smaller arrays, so a walk's peak memory depended on
    where earlier allocations happened to sit.

    Per path and block, one Philox is re-keyed with an empty buffer at
    counter 2 s // 4 and skips 2 s % 4 outputs.
    """
    keys = [_key(seed, p) for p in paths]
    bitgen = Philox(0)  # re-keyed below; a fixed seed gathers no OS entropy
    gen = Generator(bitgen)
    state = bitgen.state
    buf = np.empty((len(keys), min(block, steps), 2))
    for start in range(0, steps, block):
        out = buf[:, :min(block, steps - start)]
        state["state"]["counter"] = (2 * start // 4, 0, 0, 0)
        for row, key in zip(out, keys):
            state["state"]["key"] = key
            bitgen.state = state
            if 2 * start % 4:
                bitgen.random_raw(2 * start % 4)
            gen.random(out=row)
        yield start, out


class AliasSampler:
    """Walker/Vose alias table for a finite distribution.

    Sampling consumes exactly two uniforms per draw, so the draw count per
    step is fixed no matter what the probabilities are.  probs is a checked
    law (StepDistribution refuses negative entries or a sum off 1).
    """

    def __init__(self, probs):
        p = np.asarray(probs, dtype=float)
        k = p.size
        scaled = p * k / p.sum()
        self.n = k
        self.prob = np.ones(k)
        self.alias = np.arange(k)
        small = [i for i in range(k) if scaled[i] < 1.0]
        large = [i for i in range(k) if scaled[i] >= 1.0]
        scaled = scaled.copy()
        while small and large:
            s = small.pop()
            l = large.pop()
            self.prob[s] = scaled[s]
            self.alias[s] = l
            scaled[l] = scaled[l] - (1.0 - scaled[s])
            (small if scaled[l] < 1.0 else large).append(l)
        # leftovers are 1 up to rounding
        for i in small + large:
            self.prob[i] = 1.0

    def sample(self, u: np.ndarray) -> np.ndarray:
        """Map uniforms u of shape (..., 2) to atom indices."""
        u = np.asarray(u)
        idx = np.minimum((u[..., 0] * self.n).astype(np.int64), self.n - 1)
        take = u[..., 1] < self.prob[idx]
        return np.where(take, idx, self.alias[idx])
