"""Counter-based splittable random streams.

A stream is identified by the 128-bit Philox key ``(master_seed,
stream_id)``.  Distinct keys yield statistically independent streams that
can be replayed individually, so per-trial and per-row substreams are
derived arithmetically instead of by splitting mutable generator state.
Draws from one stream never depend on how many values another stream has
produced, which keeps large experiments reproducible under any access
order and across platforms.

Streams do not own a bit generator, nor a saved Philox state.  A stream
holds its key and the number of 64-bit outputs drawn from it so far.
Each thread keeps one scratch Philox generator; a draw sets its counter
to drawn // 4 with an empty buffer, discards drawn % 4 outputs, draws,
and adds the number of outputs drawn.  A double takes one output r and
is (r >> 11) * 2^-53, so ``random`` and ``raw`` advance a stream alike,
and ``raw`` hands out the outputs themselves, for callers that compare
them with integer cut points instead of building doubles.  ``skip``
moves the next draw past outputs nobody reads.  The draws are those of
``Generator(Philox(key=np.array([master_seed, stream_id], dtype=np.uint64)))``,
without building a Philox per stream, which costs several times more
than the few draws most streams make, and without reading the advanced
state back.  The key must be a uint64 array: a tuple or list key goes
through float64, which rounds entries of 2^63 and up.

Opening a stream costs one type-and-range check for the in-range Python
ints that ``mix64`` and the harness produce, and a draw reaches its
thread's scratch generator with one attribute lookup, so what a short
stream costs is mostly numpy's state setter and the draw itself.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ValidationError

__all__ = ["mix64", "SeededRng"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15


class _Scratch(threading.local):
    """One scratch generator per thread, so concurrent draws from distinct
    streams never share a Philox state; every draw sets its stream's key and
    counter first, so nothing carries over from one stream to the next.
    A thread's first access builds its generator."""

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(key=0))


_scratch = _Scratch()


def mix64(a, b=0):
    """Mix two nonnegative ints into one well-spread 64-bit value.

    Splitmix64 finalizer applied to ``a`` xor a Weyl multiple of ``b``.
    Used to derive child stream keys; collisions between distinct (a, b)
    pairs are as unlikely as 64-bit hash collisions.

    Either argument may be a uint64 array of one or more dimensions (the
    other then broadcasts against it as a uint64).  The same arithmetic
    then runs elementwise, since uint64 wraps modulo 2^64 exactly as the
    masks do, and a uint64 array comes back; its ``tolist()`` gives the
    Python ints that ``SeededRng`` opens fastest.
    """
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        # broadcast first: numpy scalars would warn where arrays wrap silently
        a, b = np.broadcast_arrays(np.asarray(a, dtype=np.uint64),
                                   np.asarray(b, dtype=np.uint64))
    else:
        a, b = int(a), int(b)
    z = (a ^ ((b + 1) * _GOLDEN)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def _checked_key(name: str, value) -> int:
    if not isinstance(value, (int, np.integer)):
        raise ValidationError(f"{name} must be an int, got {type(value).__name__}")
    if not 0 <= int(value) < 2**64:
        raise ValidationError(f"{name} must lie in [0, 2**64), got {value}")
    return int(value)


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
    holds no generator and no Philox state, only the key and the number of
    64-bit outputs drawn so far: a draw rebuilds the position from that
    count in the calling thread's scratch generator.  The instance is
    stateful (draws advance the count) but the stream's origin is fully
    determined by the key, so two instances built with the same pair
    produce identical sequences.  One instance must not draw from two
    threads at once.

    Keys that are Python ints in range pass one fast check.  Any other key
    goes through the full validation: numpy integers and bools are taken
    as their int value, and anything else, or a value outside
    ``[0, 2**64)``, raises ValidationError naming the argument.
    """

    def __init__(self, master_seed: int, stream_id: int = 0):
        if (type(master_seed) is int and type(stream_id) is int
                and 0 <= master_seed <= _MASK64 and 0 <= stream_id <= _MASK64):
            self.master_seed, self.stream_id = master_seed, stream_id
        else:
            self.master_seed = _checked_key("master_seed", master_seed)
            self.stream_id = _checked_key("stream_id", stream_id)
        self._drawn = 0

    def _seek(self):
        """The calling thread's scratch generator, at this stream's next output."""
        gen = _scratch.generator
        bitgen = gen.bit_generator
        # the state setter copies each entry into the generator, so plain
        # ints will do; Philox steps its counter before filling the buffer,
        # so counter drawn // 4 and an empty buffer resume at output
        # 4 * (drawn // 4), and the discarded outputs bring it to drawn
        bitgen.state = {
            "bit_generator": "Philox",
            "state": {"counter": (self._drawn >> 2, 0, 0, 0),
                      "key": (self.master_seed, self.stream_id)},
            "buffer": (0, 0, 0, 0),
            "buffer_pos": 4,
            "has_uint32": 0,
            "uinteger": 0,
        }
        if self._drawn & 3:
            bitgen.random_raw(self._drawn & 3)
        return gen

    def _random(self, size):
        gen = self._seek()
        try:
            u = gen.random(size)
        except (ValueError, MemoryError) as e:
            # a size numpy refuses, or one memory cannot hold
            raise ValidationError(f"cannot draw {size} uniforms: {e}") from e
        self._drawn += 1 if size is None else u.size
        return u

    def raw(self, size) -> np.ndarray:
        """The stream's next ``size`` (a count or a shape) 64-bit outputs, as uint64.

        ``random`` maps output r to the double (r >> 11) * 2^-53, so the
        outputs are the uniforms ``random(size)`` would give, before the map.
        """
        bitgen = self._seek().bit_generator
        try:
            r = bitgen.random_raw(size)
        except (ValueError, MemoryError) as e:
            raise ValidationError(f"cannot draw {size} outputs: {e}") from e
        self._drawn += r.size
        return r

    def skip(self, count: int) -> "SeededRng":
        """Advance the stream past its next ``count`` outputs without drawing them."""
        self._drawn += count
        return self

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
