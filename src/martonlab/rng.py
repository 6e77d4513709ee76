"""Counter-based splittable random streams.

A stream is identified by the 128-bit Philox key ``(master_seed,
stream_id)``.  Distinct keys yield statistically independent streams that
can be replayed individually, so per-trial and per-row substreams are
derived arithmetically instead of by splitting mutable generator state.
Draws from one stream never depend on how many values another stream has
produced, which keeps large experiments reproducible under any access
order and across platforms.

Streams do not own a bit generator.  Each thread keeps one scratch Philox
generator; a draw loads the stream's saved Philox state into it, draws,
and saves the advanced state back on the stream.  The draws are those of
``Generator(Philox(key=np.array([master_seed, stream_id], dtype=np.uint64)))``,
without building a Philox per stream, which costs several times more
than the few draws most streams make.  The key must be a uint64 array: a
tuple or list key goes through float64, which rounds entries of 2^63
and up.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ValidationError

__all__ = ["mix64", "SeededRng"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15

# one scratch generator per thread, so concurrent draws from distinct
# streams never share a Philox state; every draw loads its stream's state
# first, so nothing carries over from one stream to the next
_scratch = threading.local()


def _scratch_generator() -> np.random.Generator:
    gen = getattr(_scratch, "generator", None)
    if gen is None:
        gen = _scratch.generator = np.random.Generator(np.random.Philox(key=0))
    return gen


def mix64(a: int, b: int = 0) -> int:
    """Mix two nonnegative ints into one well-spread 64-bit value.

    Splitmix64 finalizer applied to ``a`` xor a Weyl multiple of ``b``.
    Used to derive child stream keys; collisions between distinct (a, b)
    pairs are as unlikely as 64-bit hash collisions.
    """
    z = (int(a) ^ ((int(b) + 1) * _GOLDEN)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


class SeededRng:
    """Replayable random stream keyed by ``(master_seed, stream_id)``.

    Parameters
    ----------
    master_seed : int
        Top-level seed, any value in ``[0, 2**64)``.
    stream_id : int, optional
        Substream index in ``[0, 2**64)``.  Streams with different ids are
        independent.

    Notes
    -----
    The stream is numpy's Philox with the pair as its key.  The instance
    holds no generator, only the stream's Philox state: a draw loads that
    state into the calling thread's scratch generator and saves the
    advanced state back.  The instance is stateful (draws advance the
    saved state) but the stream's origin is fully determined by the key,
    so two instances built with the same pair produce identical
    sequences.  One instance must not draw from two threads at once.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        for name, value in (("master_seed", master_seed), ("stream_id", stream_id)):
            if not isinstance(value, (int, np.integer)):
                raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
            if not 0 <= int(value) < 2**64:
                raise ValidationError(f"{name} must lie in [0, 2**64), got {value}")
        self.master_seed = int(master_seed)
        self.stream_id = int(stream_id)
        # Philox state at counter 0 with the stream's key; the state setter
        # copies each entry into the generator, so plain ints will do
        self._state = {
            "bit_generator": "Philox",
            "state": {"counter": (0, 0, 0, 0), "key": (self.master_seed, self.stream_id)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }

    def _random(self, size):
        gen = _scratch_generator()
        bitgen = gen.bit_generator
        bitgen.state = self._state
        try:
            u = gen.random(size)
        except (ValueError, MemoryError) as e:
            # a size numpy refuses, or one memory cannot hold
            raise ValidationError(f"cannot draw {size} uniforms: {e}") from e
        self._state = bitgen.state
        return u

    def random(self, size=None):
        """Uniform doubles in [0, 1)."""
        return self._random(size)

    def choice_index(self, cdf: np.ndarray, size=None):
        """Sample indices with cumulative weights ``cdf`` (last entry 1)."""
        return np.searchsorted(cdf, self._random(size), side="right")

    def derive(self, key: int) -> "SeededRng":
        """Independent child stream; deterministic in (self key, ``key``)."""
        return SeededRng(mix64(self.master_seed, self.stream_id), key)

    def __repr__(self) -> str:
        return f"SeededRng(master_seed={self.master_seed}, stream_id={self.stream_id})"
