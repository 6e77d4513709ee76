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
them with integer cut points instead of building doubles.  The draws
are those of ``Generator(Philox(key=np.array([master_seed, stream_id], dtype=np.uint64)))``,
without building a Philox per stream, which costs several times more
than the few draws most streams make, and without reading the advanced
state back.  The key must be a uint64 array: a tuple or list key goes
through float64, which rounds entries of 2^63 and up.

Opening a stream costs one type-and-range check for the in-range Python
ints that ``mix64`` and the harness produce.  Placing the scratch
generator at a stream costs about 1 us in numpy's state setter, and a
``SeededRng`` draw adds its own Python work and a new array.
``stream_uniforms`` draws many short streams, row by row into one array,
in one loop that places the scratch generator at each, through a
placement routine bound once per call, and opens no stream: from 200
streams, 1.5 us a stream of two uniforms, 1.9 us one of 64 and 2.3 us one
of 128, against 2.2, 2.6 and 3.1 us through ``SeededRng`` (medians of 15
alternated timeit batches, 2-vCPU VM, numpy 2.4).

``first_uniforms`` gives the first uniforms of many streams at once.
From ``_ARRAY_PASS_STREAMS`` streams of fewer than ``_ARRAY_PASS_COUNT``
uniforms up it skips the scratch generator: Philox4x64-10 is a function
of (key, counter), so ``_philox_blocks`` computes the outputs of all the
streams in one pass of uint64 array arithmetic, bit for bit the outputs
``SeededRng`` draws.  Below that, and for longer streams,
``stream_uniforms`` is faster.
"""

from __future__ import annotations

import threading

import numpy as np

from .errors import ValidationError

__all__ = ["mix64", "SeededRng", "stream_uniforms", "first_uniforms"]

_MASK64 = (1 << 64) - 1
_GOLDEN = 0x9E3779B97F4A7C15
_MIX1, _MIX2 = 0xBF58476D1CE4E5B9, 0x94D049BB133111EB
_U1, _U11, _U27, _U30, _U31 = (np.uint64(v) for v in (1, 11, 27, 30, 31))
_U_GOLDEN, _U_MIX1, _U_MIX2 = (np.uint64(v) for v in (_GOLDEN, _MIX1, _MIX2))


def _placer(generator: np.random.Generator):
    """The placement routine of a scratch generator: ``place(key, stream_id,
    drawn)`` puts ``generator`` at output ``drawn`` of stream
    (key, stream_id) and returns it.

    The routine owns the state dict it hands to the state setter and binds
    it and the bit generator once, so a placement costs one call and the
    setter.
    """
    # Philox steps its counter before filling the buffer, so counter
    # drawn // 4 and an empty buffer resume at output 4 * (drawn // 4), and
    # the discarded outputs bring it to drawn.  The state setter copies each
    # entry into the generator, so plain ints and one reused dict will do.
    # random_raw's output=False path sums its size through numpy and takes
    # about three times as long as returning a small array
    inner = {"counter": (0, 0, 0, 0), "key": (0, 0)}
    state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    bitgen = generator.bit_generator

    def place(key: int, stream_id: int, drawn: int) -> np.random.Generator:
        inner["counter"] = (drawn >> 2, 0, 0, 0)
        inner["key"] = (key, stream_id)
        bitgen.state = state
        if drawn & 3:
            bitgen.random_raw(drawn & 3)
        return generator

    return place


class _Scratch(threading.local):
    """One scratch generator per thread, so concurrent draws from distinct
    streams never share a Philox state; every draw sets its stream's key and
    counter first, so nothing carries over from one stream to the next.
    ``place`` is the thread's own ``_placer`` routine, whose state dict no
    other thread writes.  A thread's first access builds its generator and
    its routine."""

    def __init__(self):
        self.generator = np.random.Generator(np.random.Philox(key=0))
        self.place = _placer(self.generator)


_scratch = _Scratch()

# Philox4x64-10: the multipliers of counter words 0 and 2, and the Weyl
# increments of key words 0 and 1, as (2, 1) columns over both lanes
_PHILOX_MUL = np.array([[0xD2E7470EE14C6C93], [0xCA5A826395121157]], dtype=np.uint64)
_PHILOX_BUMP = np.array([[0x9E3779B97F4A7C15], [0xBB67AE8584CAA73B]], dtype=np.uint64)
_PHILOX_ROUNDS = 10
_LO32, _U32 = np.uint64(0xFFFFFFFF), np.uint64(32)
_PHILOX_MUL_LO, _PHILOX_MUL_HI = _PHILOX_MUL & _LO32, _PHILOX_MUL >> _U32
# streams at and above which first_uniforms computes its draws in one array
# pass.  The pass has a fixed cost of about 0.2 ms, and stream_uniforms
# costs about 1.7 us a short stream: two uniforms from each of 16 streams
# take 183 us in the pass against 30 us in the loop, from 96 streams 215
# against 166 us, from 128 streams 212 against 223 us, and from 600 streams
# 331 against 1,022 us (medians of 7 alternated timeit batches, 2-vCPU VM,
# numpy 2.4)
_ARRAY_PASS_STREAMS = 128
# draws a stream from which first_uniforms uses the loop instead: the pass
# costs about 40 ns an output, the loop a few.  From 128 streams, 24 draws a
# stream take 339 us in the pass against 243 us in the loop, 64 draws 807
# against 518 us; from 256 streams 32 draws take 544 against 487 us; from
# 512 streams the two are about even at 32 and at 64 draws
_ARRAY_PASS_COUNT = 32


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
        # uint64 constants, since numpy converts a Python int on every use.
        # b + 1 is a numpy scalar where b is 0-d, and a scalar's * warns where
        # the ufunc wraps silently; after a ^ every operand is an array
        a, b = np.asarray(a, dtype=np.uint64), np.asarray(b, dtype=np.uint64)
        z = (a ^ np.multiply(b + _U1, _U_GOLDEN)) + _U_GOLDEN
        z = (z ^ (z >> _U30)) * _U_MIX1
        z = (z ^ (z >> _U27)) * _U_MIX2
        return z ^ (z >> _U31)
    a, b = int(a), int(b)
    z = (a ^ ((b + 1) * _GOLDEN)) & _MASK64
    z = (z + _GOLDEN) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX1) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX2) & _MASK64
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
        return _scratch.place(self.master_seed, self.stream_id, self._drawn)

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


def stream_uniforms(out: np.ndarray, keys, stream_ids, firsts) -> np.ndarray:
    """Fill row i of ``out`` with uniforms of stream (keys[i], stream_ids[i])
    from output firsts[i] on, and return ``out``.

    ``out`` is a C-ordered float64 array shaped (streams, count); row i is
    ``SeededRng(keys[i], stream_ids[i]).random(firsts[i] + count)[firsts[i]:]``,
    bit for bit.  Keys, stream ids and firsts are ints, keys and ids in [0, 2^64).
    The calling thread's scratch generator is placed at each stream in turn
    by its ``_placer`` routine, bound once per call, and draws straight into
    its row, so no stream object and no temporary array is built.
    """
    place = _scratch.place
    for row, key, stream_id, first in zip(out, keys, stream_ids, firsts):
        place(key, stream_id, first).random(out=row)
    return out


def _philox_blocks(key0, key1, count: int) -> np.ndarray:
    """The first ``count`` output blocks of many streams.

    Row i holds the outputs ``SeededRng(key0[i], key1[i]).raw(4 * count)``
    draws.  Block j is Philox4x64-10 at counter (j + 1, 0, 0, 0), since
    numpy steps the counter before it fills its buffer.  Every stream's
    rounds run at once on uint64 arrays, which wrap modulo 2^64, with the
    high words of the 64 x 64 -> 128-bit products built from 32-bit halves.
    No generator and no shared state is involved.
    """
    # lane 0 holds counter word 0 and key word 0, lane 1 counter word 2 and
    # key word 1; column i * count + j is block j of stream i
    key = np.repeat(np.array([key0, key1], dtype=np.uint64), count, axis=1)
    round_keys = key + np.arange(_PHILOX_ROUNDS, dtype=np.uint64)[:, None, None] * _PHILOX_BUMP
    mul = np.zeros_like(key)
    mul[0] = np.tile(np.arange(1, count + 1, dtype=np.uint64), len(key0))
    xor = np.zeros_like(key)  # counter words 1 and 3
    for keys in round_keys:
        mul_lo, hi = mul & _LO32, mul >> _U32
        # the high word of mul * _PHILOX_MUL, from its four 32-bit partial products
        mid = mul_lo * _PHILOX_MUL_HI
        mid += (mul_lo * _PHILOX_MUL_LO) >> _U32
        carry = hi * _PHILOX_MUL_LO
        carry += mid & _LO32
        carry >>= _U32
        mid >>= _U32
        hi *= _PHILOX_MUL_HI
        hi += mid
        hi += carry
        # each lane's high word meets the other lane's words
        hi = hi[::-1]
        hi ^= xor
        hi ^= keys
        mul, xor = hi, (mul * _PHILOX_MUL)[::-1]
    return np.stack([mul[0], xor[0], mul[1], xor[1]], axis=-1).reshape(len(key0), 4 * count)


def first_uniforms(keys, stream_ids, count: int) -> np.ndarray:
    """The first ``count`` uniforms of stream (key, id) for each key and stream id.

    Shaped (keys, stream ids, count): entry [j, s] is
    ``SeededRng(keys[j], stream_ids[s]).random(count)``, bit for bit.  With
    ``_ARRAY_PASS_STREAMS`` streams or more and fewer than
    ``_ARRAY_PASS_COUNT`` draws a stream, one ``_philox_blocks`` pass
    computes them all; otherwise ``stream_uniforms`` draws them.
    Keys and ids must lie in [0, 2^64).
    """
    if len(keys) * len(stream_ids) < _ARRAY_PASS_STREAMS or count >= _ARRAY_PASS_COUNT:
        out = np.empty((len(keys), len(stream_ids), count))
        streams = out.shape[0] * out.shape[1]
        stream_uniforms(out.reshape(streams, count), [key for key in keys for _ in stream_ids],
                        list(stream_ids) * len(keys), [0] * streams)
        return out
    raw = _philox_blocks(np.repeat(np.asarray(keys, dtype=np.uint64), len(stream_ids)),
                         np.tile(np.asarray(stream_ids, dtype=np.uint64), len(keys)),
                         -(-count // 4))[:, :count]
    # numpy's double of output r: (r >> 11) * 2^-53
    return ((raw >> _U11) * 2.0**-53).reshape(len(keys), len(stream_ids), count)
