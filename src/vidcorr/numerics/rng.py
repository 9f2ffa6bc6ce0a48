"""Deterministic randomness built on the counter-based Philox generator.

A single seed, an integer in [0, 2**64), fans out into independent
named substreams (``rng.substream("init")``, ``rng.substream("step3/clip0")``, ...), so
data sampling, masking, jitter, and parameter init never share a stream
and inserting draws in one place cannot shift any other. Substream keys
are derived by hashing the path with 64-bit FNV-1a; identical seed and
path give identical draws on every platform numpy supports.
"""

import operator

import numpy as np

_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3
_MASK64 = 0xFFFFFFFFFFFFFFFF


def _seed(value):
    """value, an integer or its decimal text, as a seed: the one rule of
    every seed is an integer in [0, 2**64), the Philox key's first word."""
    try:
        seed = int(value) if isinstance(value, str) else operator.index(value)
        if 0 <= seed <= _MASK64:
            return seed
    except (TypeError, ValueError):
        pass
    raise ValueError(f"seed must be an integer in [0, 2**64), got {value!r}")


def _fnv1a(data, state=_FNV_OFFSET):
    for byte in data:
        state = ((state ^ byte) * _FNV_PRIME) & _MASK64
    return state


class Rng:
    """Seeded generator; draws advance an internal Philox counter.

    The generator is built on the first draw, so a stream that only
    spawns substreams costs no Philox construction. A substream's key
    continues the FNV-1a state of its parent's path, which gives the
    hash of the full path because FNV-1a consumes bytes in order."""

    __slots__ = ("seed", "path", "_key", "_gen")

    def __init__(self, seed, _path="", _key=None):
        self.seed = _seed(seed)
        self.path = _path
        self._key = _fnv1a(_path.encode("utf-8")) if _key is None else _key
        self._gen = None

    def substream(self, name):
        """Fresh independent stream for ``name``, nested under this one."""
        suffix = f"/{name}" if self.path else name
        return Rng(self.seed, _path=f"{self.path}{suffix}",
                   _key=_fnv1a(suffix.encode("utf-8"), self._key))

    def _build(self):
        key = np.array([self.seed, self._key], dtype=np.uint64)
        self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen

    def uniform(self, low=0.0, high=1.0, size=None):
        return (self._gen or self._build()).uniform(low, high, size)

    def integers(self, low, high, size=None):
        """Uniform integers in [low, high)."""
        return (self._gen or self._build()).integers(low, high, size=size)

    def normal(self, loc=0.0, scale=1.0, size=None):
        return (self._gen or self._build()).normal(loc, scale, size)

    def permutation(self, n):
        return (self._gen or self._build()).permutation(n)

    def __repr__(self):
        return f"Rng(seed={self.seed}, path={self.path!r})"
