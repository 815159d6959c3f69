"""Reference random streams for the tests: the one-key draw code the batched
streams in ``escore.rng`` replaced.

Every draw here works on one stream at a time, in plain Python ints where
numpy would warn on uint64 overflow. ``escore.rng.Stream`` and
``escore.rng.Streams`` must give the same bits, one key at a time and
batched.
"""
from __future__ import annotations

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)

_MASK = (1 << 64) - 1
_U53_INV = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, vectorized over uint64 counters
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _mix_int(z: int) -> int:
    # same finalizer in plain ints (no numpy overflow warnings)
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK
    return z ^ (z >> 31)


def _fnv1a(label: str) -> int:
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


class Stream:
    """One named random stream; deterministic in (key, counter)."""

    __slots__ = ("key", "counter")

    def __init__(self, key: np.uint64, counter: int = 0):
        self.key = np.uint64(key)
        self.counter = counter

    @classmethod
    def from_seed(cls, seed: int, label: str = "root") -> "Stream":
        key = _mix_int((((seed % (1 << 64)) * 0x9E3779B97F4A7C15) + 1) & _MASK)
        return cls(np.uint64(key)).child(label)

    def child(self, label: str) -> "Stream":
        # independent stream; does not advance this stream's counter
        base = _mix_int((int(self.key) + 0x9E3779B97F4A7C15) & _MASK)
        return Stream(np.uint64(_mix_int(base ^ _fnv1a(label))))

    def _raw(self, n: int) -> np.ndarray:
        ctr = np.arange(self.counter, self.counter + n, dtype=np.uint64)
        self.counter += n
        return _mix64(self.key + (ctr + np.uint64(1)) * _GOLDEN)

    def uniform(self, shape: tuple[int, ...] | int = ()) -> np.ndarray:
        """i.i.d. Uniform[0,1) with 53-bit resolution."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        u = (self._raw(n) >> np.uint64(11)).astype(np.float64) * _U53_INV
        return u.reshape(shape) if shape else float(u[0])

    def normal(self, shape: tuple[int, ...] | int = ()) -> np.ndarray:
        """i.i.d. standard normal via Box-Muller."""
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        n = int(np.prod(shape, dtype=np.int64)) if shape else 1
        m = (n + 1) // 2
        raw = self._raw(2 * m)
        # (0,1] for the log argument, [0,1) for the angle
        u1 = ((raw[:m] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _U53_INV
        u2 = (raw[m:] >> np.uint64(11)).astype(np.float64) * _U53_INV
        r = np.sqrt(-2.0 * np.log(u1))
        theta = (2.0 * np.pi) * u2
        z = np.concatenate([r * np.cos(theta), r * np.sin(theta)])[:n]
        return z.reshape(shape) if shape else float(z[0])

    def integers(self, upper: int, shape: tuple[int, ...] | int = ()) -> np.ndarray:
        """i.i.d. integers in [0, upper); upper must be far below 2**53."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        u = self.uniform(shape if shape != () else (1,))
        out = np.minimum((np.asarray(u) * upper).astype(np.int64), upper - 1)
        return out.reshape(shape) if isinstance(shape, tuple) and shape else (
            out if isinstance(shape, int) else int(out[0]))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        perm = np.arange(n, dtype=np.int64)
        if n < 2:
            return perm
        picks = self.uniform((n - 1,))
        for i in range(n - 1, 0, -1):
            j = min(int(picks[n - 1 - i] * (i + 1)), i)
            perm[i], perm[j] = perm[j], perm[i]
        return perm

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), uniform over subsets, sorted."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        return np.sort(self.permutation(n)[:k])
