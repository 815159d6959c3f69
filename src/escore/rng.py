"""Counter-based pseudo-random streams.

Every stream is a pure function of (master seed, label path, draw counter),
so results never depend on the order in which unrelated streams are
consumed. Normal variates come from Box-Muller over splitmix64 output.

Because a draw depends only on (key, counter), many streams can be drawn in
one vectorised call (Salmon et al. 2011, "Parallel Random Numbers: As Easy
as 1, 2, 3"). So a ``Stream`` holds a uint64 key array of any shape: 0-d for
one stream, as ``from_seed`` returns, or one key per element. Element i of
every draw holds what the one-key stream with key i gives, bit for bit.
"""
from __future__ import annotations

import functools
import math

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
# the finalizer's shifts, built once: a one-key child spends most of its time here
_S30, _S27, _S31 = np.uint64(30), np.uint64(27), np.uint64(31)

_MASK = (1 << 64) - 1
_U53_INV = 1.0 / float(1 << 53)


def _mix64(z: np.ndarray) -> np.ndarray:
    # splitmix64 finalizer, vectorized over uint64 arrays (which wrap silently)
    z = (z ^ (z >> _S30)) * _MIX1
    z = (z ^ (z >> _S27)) * _MIX2
    return z ^ (z >> _S31)


@functools.lru_cache(maxsize=1 << 14)
def _fnv1a(label: str) -> int:
    h = 0xCBF29CE484222325
    for byte in label.encode("utf-8"):
        h = ((h ^ byte) * 0x100000001B3) & _MASK
    return h


def _hashes(labels) -> np.ndarray:
    """FNV-1a hashes of an array of str, in its shape."""
    labels = np.asarray(labels, dtype=object)   # a numpy str array drops trailing NULs
    flat = [_fnv1a(label) for label in labels.ravel().tolist()]
    return np.array(flat, dtype=np.uint64).reshape(labels.shape)


def _child_keys(keys: np.ndarray, hashes: np.ndarray) -> np.ndarray:
    """Keys of the child streams, elementwise over uint64 arrays."""
    return _mix64(_mix64(keys + _GOLDEN) ^ hashes)


def _raw(keys: np.ndarray, counter: int, n: int) -> np.ndarray:
    """(K, n) splitmix64 output at counters [counter, counter + n) of K keys."""
    ctr = np.arange(counter + 1, counter + n + 1, dtype=np.uint64)
    return _mix64(keys[:, None] + ctr * _GOLDEN)


# Each draw below takes K keys at one counter and returns (K, n) values plus
# the counter after the draw.

def _uniform(keys: np.ndarray, counter: int, n: int) -> tuple[np.ndarray, int]:
    u = (_raw(keys, counter, n) >> np.uint64(11)).astype(np.float64) * _U53_INV
    return u, counter + n


def _normal(keys: np.ndarray, counter: int, n: int) -> tuple[np.ndarray, int]:
    """Box-Muller over 2 * ceil(n / 2) counters."""
    m = (n + 1) // 2
    raw = _raw(keys, counter, 2 * m)
    # (0,1] for the log argument, [0,1) for the angle
    u1 = ((raw[:, :m] >> np.uint64(11)) + np.uint64(1)).astype(np.float64) * _U53_INV
    u2 = (raw[:, m:] >> np.uint64(11)).astype(np.float64) * _U53_INV
    r = np.sqrt(-2.0 * np.log(u1))
    theta = (2.0 * np.pi) * u2
    z = np.concatenate([r * np.cos(theta), r * np.sin(theta)], axis=1)[:, :n]
    return z, counter + 2 * m


def _permutation(keys: np.ndarray, counter: int, n: int) -> tuple[np.ndarray, int]:
    """Fisher-Yates permutations of range(n) over n - 1 counters."""
    perm = np.tile(np.arange(n, dtype=np.int64), (len(keys), 1))
    if n < 2:
        return perm, counter
    # step t swaps position i = n - 1 - t with a uniform pick j in [0, i]
    u, counter = _uniform(keys, counter, n - 1)
    span = np.arange(n, 1, -1)
    picks = np.minimum((u * span).astype(np.int64), span - 1)
    rows = np.arange(len(keys))
    for t, i in enumerate(range(n - 1, 0, -1)):
        j = picks[:, t]
        perm[rows, i], perm[rows, j] = perm[rows, j], perm[rows, i]
    return perm, counter


def _scalar(out: np.ndarray) -> np.ndarray | float | int:
    """A 0-d draw as a Python float or int; any other draw as it is."""
    return out.item() if out.ndim == 0 else out


class Stream:
    """Random streams, one per element of the uint64 array ``key``, drawn in
    lockstep; deterministic in (key, counter).

    Every draw returns ``key.shape + shape``. A 0-d stream's scalar draw is a
    Python float (an int from ``integers``).
    """

    __slots__ = ("key", "counter")

    def __init__(self, key):
        self.key = np.asarray(key, dtype=np.uint64)
        self.counter = 0

    @classmethod
    def from_seed(cls, seed: int, label: str = "root") -> "Stream":
        word = np.array([seed % (1 << 64)], dtype=np.uint64)
        return cls(_mix64(word * _GOLDEN + np.uint64(1)).reshape(())).child(label)

    def child(self, label) -> "Stream":
        """Independent child streams; does not advance this stream's counter.

        ``label`` is one str for every key, or an array of str that
        broadcasts against ``key`` (a (J, 1) key array with L labels gives
        J x L children)."""
        if isinstance(label, str):
            keys, hashes = self.key, np.uint64(_fnv1a(label))
        else:
            keys, hashes = np.broadcast_arrays(self.key, _hashes(label))
            hashes = hashes.reshape(-1)
        # 1-d keys: uint64 arrays wrap silently where numpy scalars warn
        return Stream(_child_keys(keys.reshape(-1), hashes).reshape(keys.shape))

    def _draw(self, draw, shape: tuple[int, ...] | int) -> np.ndarray:
        shape = (shape,) if isinstance(shape, int) else tuple(shape)
        flat, self.counter = draw(self.key.reshape(-1), self.counter, math.prod(shape))
        return flat.reshape(self.key.shape + shape)

    def uniform(self, shape: tuple[int, ...] | int = ()) -> np.ndarray | float:
        """i.i.d. Uniform[0,1) with 53-bit resolution."""
        return _scalar(self._draw(_uniform, shape))

    def normal(self, shape: tuple[int, ...] | int = ()) -> np.ndarray | float:
        """i.i.d. standard normal via Box-Muller."""
        return _scalar(self._draw(_normal, shape))

    def integers(self, upper: int, shape: tuple[int, ...] | int = ()) -> np.ndarray | int:
        """i.i.d. integers in [0, upper); upper must be far below 2**53."""
        if upper <= 0:
            raise ValueError("upper must be positive")
        u = self._draw(_uniform, shape)
        return _scalar(np.minimum((u * upper).astype(np.int64), upper - 1))

    def permutation(self, n: int) -> np.ndarray:
        """Fisher-Yates permutation of range(n)."""
        return self._draw(_permutation, n)

    def sample_without_replacement(self, n: int, k: int) -> np.ndarray:
        """k distinct indices from range(n), uniform over subsets, sorted."""
        if not 0 <= k <= n:
            raise ValueError(f"cannot draw {k} from {n}")
        return np.sort(self.permutation(n)[..., :k], axis=-1)
