"""Joint pmfs, mutual information, and seeded streams."""

import json
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from martonlab import (
    JointPmf,
    NormalizationError,
    PositivityError,
    SeededRng,
    ValidationError,
    mix64,
    mutual_information,
)
from martonlab.rng import _ARRAY_PASS_COUNT, _ARRAY_PASS_STREAMS, _philox_blocks, first_uniforms

# Frozen first draws of the (42, 0) and (42, 1) streams.  These pin the
# counter-based generator choice: any change to the bit generator or the
# key layout shows up here before it silently invalidates experiments.
GOLDEN_42_0 = [
    0.8201981478608876, 0.18924562408645496, 0.8676608148821462,
    0.3945814702827203, 0.36812845090913937, 0.4344462539595917,
    0.1946354913878905, 0.06224821089808552, 0.8767979674463799,
    0.7670379910197939,
]
GOLDEN_42_1 = [0.443746921343274, 0.8163920951010332, 0.5090261862073765, 0.3876186430208992]


class TestPmf:
    """Mass checks of the library's one pmf type, ``JointPmf``, and
    sampling from a plain cdf array."""

    def test_validates_mass(self):
        with pytest.raises(NormalizationError):
            JointPmf(("a", "b"), ("x",), [[0.5], [0.6]])
        with pytest.raises(PositivityError):
            JointPmf(("a", "b"), ("x",), [[1.2], [-0.2]])
        with pytest.raises(ValidationError):
            JointPmf(("a", "a"), ("x",), [[0.5], [0.5]])
        with pytest.raises(ValidationError):
            JointPmf(("a",), ("x", "x"), [[0.5, 0.5]])

    def test_tolerance_is_configurable(self):
        probs = [[0.5 + 1e-9, 0.5]]
        with pytest.raises(NormalizationError):
            JointPmf(("a",), ("x", "y"), probs)
        ok = JointPmf(("a",), ("x", "y"), probs, atol=1e-8)
        assert ok.probs[0, 0] > 0.5

    def test_point_mass_sampling(self):
        cdf = np.cumsum([1.0, 0.0])
        assert np.array_equal(SeededRng(7).choice_index(cdf, 5), np.zeros(5))

    def test_uniform_frequencies_within_3_sigma(self):
        n = 100_000
        idx = SeededRng(123).choice_index(np.cumsum(np.full(4, 0.25)), n)
        counts = np.bincount(idx, minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) < 3 * sigma)


def philox_oracle(master_seed: int, stream_id: int) -> np.random.Generator:
    """The stream as its own Philox generator, as SeededRng once held it."""
    return np.random.Generator(np.random.Philox(key=np.array([master_seed, stream_id], dtype=np.uint64)))


def random_sizes(np_rng, count: int) -> list:
    pick = [None, int(np_rng.integers(0, 9)), (int(np_rng.integers(1, 4)), int(np_rng.integers(0, 5)))]
    return [pick[int(np_rng.integers(3))] for _ in range(count)]


class TestSeededRng:
    def test_matches_philox_oracle_under_interleaving(self, np_rng):
        cdf = np.array([0.1, 0.35, 0.35, 0.8, 1.0])
        edge = [(0, 0), (2**64 - 1, 2**64 - 1), (42, 0)]
        for _ in range(100):
            keys = edge + [(int(np_rng.integers(2**64, dtype=np.uint64)),
                            int(np_rng.integers(2**64, dtype=np.uint64))) for _ in range(3)]
            streams = [SeededRng(*k) for k in keys]
            oracles = [philox_oracle(*k) for k in keys]
            for size in random_sizes(np_rng, 12):
                i = int(np_rng.integers(len(keys)))
                if np_rng.random() < 0.5:
                    got, want = streams[i].random(size), oracles[i].random(size)
                else:
                    got = streams[i].choice_index(cdf, size)
                    want = np.searchsorted(cdf, oracles[i].random(size), side="right")
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)

    def test_resumes_at_every_draw_count_mod_4(self):
        # Philox yields four outputs per counter step; these sizes start draws
        # at each residue of the outputs already drawn, on two interleaved
        # streams whose keys reach 2^63 and up
        keys = [(2**63, 2**64 - 1), (2**64 - 2, 2**63 + 5)]
        streams = [SeededRng(*k) for k in keys]
        oracles = [philox_oracle(*k) for k in keys]
        residues, drawn = set(), 0
        for size in [None, 0, 3, (2, 3), 1, 5, None, (3, 1), 0, 7, 2, None]:
            for stream, oracle in zip(streams, oracles):
                got, want = stream.random(size), oracle.random(size)
                assert np.shape(got) == np.shape(want)
                assert np.array_equal(got, want)
            residues.add(drawn % 4)
            drawn += 1 if size is None else int(np.prod(size))
        assert residues == {0, 1, 2, 3}

    def test_threads_on_distinct_streams_match_sequential_draws(self, np_rng):
        # more threads than cores and a short switch interval, so draws
        # interleave; a scratch generator shared across threads would mix states
        keys = [(7, t) for t in range(6)]
        plans = [random_sizes(np_rng, 300) for _ in keys]
        oracles = [philox_oracle(*k) for k in keys]
        want = [[o.random(size) for size in plan] for o, plan in zip(oracles, plans)]
        got = [[] for _ in keys]

        def work(t):
            rng = SeededRng(*keys[t])
            got[t].extend(rng.random(size) for size in plans[t])

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work, args=(t,)) for t in range(len(keys))]
            for th in threads:
                th.start()
            for th in threads:
                th.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(th.is_alive() for th in threads)
        for g, w in zip(got, want):
            assert len(g) == len(w)
            assert all(np.array_equal(a, b) for a, b in zip(g, w))

    def test_raw_outputs_map_to_random(self):
        # the codebook sampler reads symbols off raw outputs: it relies on
        # numpy's random() being (raw >> 11) * 2^-53 bit for bit, at every
        # draw count mod 4 and at keys of 2^63 and up
        keys = [(0, 0), (42, 1), (2**63, 2**64 - 1), (2**64 - 2, 2**63 + 5)]
        for key in keys:
            raws, floats, oracle = SeededRng(*key), SeededRng(*key), philox_oracle(*key)
            for size in [1, 3, 2, 5, 1000, 7, 4, 1 << 15]:
                raw = raws.raw(size)
                assert raw.dtype == np.uint64
                assert np.array_equal(raw, oracle.bit_generator.random_raw(size))
                got = (raw >> 11) * 2**-53
                want = floats.random(size)
                assert got.dtype == want.dtype == np.float64
                assert np.array_equal(got, want)

    def test_skip_starts_the_next_draw_past_the_skipped_outputs(self):
        for skipped in range(9):
            full = SeededRng(2**63 + 1, 9).random(skipped + 10)
            rng = SeededRng(2**63 + 1, 9).skip(skipped)
            assert np.array_equal(rng.random(4), full[skipped:skipped + 4])
            assert np.array_equal(rng.raw(6) >> 11, (full[skipped + 4:] * 2**53).astype(np.uint64))

    def test_choice_index_draws_without_calling_random(self, monkeypatch):
        # instrumentation wrapping random() must not count choice_index's draws twice
        def no_random(self, size=None):
            raise AssertionError("choice_index drew through random()")

        monkeypatch.setattr(SeededRng, "random", no_random)
        assert SeededRng(3, 4).choice_index(np.array([0.5, 1.0]), 6).shape == (6,)

    def test_golden_sequences(self):
        assert_allclose(SeededRng(42, 0).random(10), GOLDEN_42_0, rtol=0, atol=0)
        assert_allclose(SeededRng(42, 1).random(4), GOLDEN_42_1, rtol=0, atol=0)

    def test_same_key_same_sequence(self):
        a = SeededRng(999, 3).random(100)
        b = SeededRng(999, 3).random(100)
        assert_allclose(a, b, rtol=0, atol=0)

    def test_streams_differ(self):
        a = SeededRng(999, 0).random(8)
        b = SeededRng(999, 1).random(8)
        assert not np.allclose(a, b)

    def test_derive_is_deterministic(self):
        a = SeededRng(5, 7).derive(11)
        b = SeededRng(5, 7).derive(11)
        assert (a.master_seed, a.stream_id) == (b.master_seed, b.stream_id)
        assert_allclose(a.random(5), b.random(5), rtol=0, atol=0)

    def test_rejects_bad_seed(self):
        with pytest.raises(ValidationError):
            SeededRng(-1)
        with pytest.raises(ValidationError):
            SeededRng(2**64)

    # in-range Python ints take the constructor's fast check; everything else
    # goes through the full validation, which accepts numpy integers and bools
    @pytest.mark.parametrize("value, want", [
        (0, 0), (2**64 - 1, 2**64 - 1), (np.uint64(2**64 - 1), 2**64 - 1),
        (np.int64(5), 5), (True, 1)])
    @pytest.mark.parametrize("position", [0, 1])
    def test_accepted_keys(self, value, want, position):
        args, key = [7, 7], [7, 7]
        args[position], key[position] = value, want
        rng = SeededRng(*args)
        assert (rng.master_seed, rng.stream_id) == tuple(key)
        assert type(rng.master_seed) is int and type(rng.stream_id) is int
        assert np.array_equal(rng.random(6), philox_oracle(*key).random(6))

    @pytest.mark.parametrize("value, message", [
        (-1, "must lie in [0, 2**64), got -1"),
        (2**64, "must lie in [0, 2**64), got 18446744073709551616"),
        (1.0, "must be an int, got float"),
        ("1", "must be an int, got str")])
    def test_rejected_keys(self, value, message):
        for name, args in (("master_seed", (value, 7)), ("stream_id", (7, value)),
                           ("master_seed", (value, value))):
            with pytest.raises(ValidationError) as err:
                SeededRng(*args)
            assert str(err.value) == f"{name} {message}"


class TestPhiloxArrayPass:
    KEYS = [0, 2**63, 2**63 + 5, 2**64 - 1]
    IDS = [0, 101, 2**64 - 1]

    @pytest.mark.parametrize("first_block", [0, 1, 2, 3, 5])
    @pytest.mark.parametrize("count", [1, 2, 7, 32])
    def test_blocks_are_the_outputs_seeded_rng_draws(self, first_block, count, np_rng):
        # every key against every stream id, so each lane meets edge values
        extra = [int(v) for v in np_rng.integers(2**64, size=4, dtype=np.uint64)]
        pairs = [(k, s) for k in self.KEYS + extra for s in self.IDS]
        key0 = np.array([k for k, _ in pairs], dtype=np.uint64)
        key1 = np.array([s for _, s in pairs], dtype=np.uint64)
        got = _philox_blocks(key0, key1, first_block, count)
        assert got.dtype == np.uint64 and got.shape == (len(pairs), 4 * count)
        for row, (k, s) in zip(got, pairs):
            assert np.array_equal(row, SeededRng(k, s).skip(4 * first_block).raw(4 * count))

    @pytest.mark.parametrize("streams", [_ARRAY_PASS_STREAMS - 1, _ARRAY_PASS_STREAMS])
    @pytest.mark.parametrize("count", [1, 2, 5])
    def test_first_uniforms_on_both_sides_of_the_cut_over(self, streams, count, monkeypatch):
        # two stream ids per key where the streams divide evenly, else one
        ids = (101, 2**64 - 1) if streams % 2 == 0 else (103,)
        keys = (self.KEYS + mix64(9, np.arange(streams, dtype=np.uint64)).tolist())[
            :streams // len(ids)]
        opened = []
        init = SeededRng.__init__
        monkeypatch.setattr(SeededRng, "__init__",
                            lambda self, *key: opened.append(key) or init(self, *key))
        got = first_uniforms(keys, ids, count)
        # one stream per key and id below the cut-over, none in the array pass
        assert len(opened) == (streams if streams < _ARRAY_PASS_STREAMS else 0)
        monkeypatch.undo()
        assert got.shape == (len(keys), len(ids), count)
        for j, k in enumerate(keys):
            for s, sid in enumerate(ids):
                assert np.array_equal(got[j, s], SeededRng(k, sid).random(count))

    @pytest.mark.parametrize("count", [_ARRAY_PASS_COUNT - 1, _ARRAY_PASS_COUNT])
    def test_long_draws_open_their_streams(self, count, monkeypatch):
        keys = mix64(5, np.arange(_ARRAY_PASS_STREAMS, dtype=np.uint64)).tolist()
        opened = []
        init = SeededRng.__init__
        monkeypatch.setattr(SeededRng, "__init__",
                            lambda self, *key: opened.append(key) or init(self, *key))
        got = first_uniforms(keys, (102,), count)
        assert len(opened) == (0 if count < _ARRAY_PASS_COUNT else len(keys))
        monkeypatch.undo()
        for j in (0, len(keys) - 1):
            assert np.array_equal(got[j, 0], SeededRng(keys[j], 102).random(count))


class TestMix64:
    EDGE = [0, 1, 3, 2**32, 2**63 - 1, 2**63, 2**63 + 5, 2**64 - 2, 2**64 - 1]

    def test_arrays_mix_as_the_scalars_do(self, np_rng):
        values = self.EDGE + [int(v) for v in np_rng.integers(2**64, size=24, dtype=np.uint64)]
        arr = np.array(values, dtype=np.uint64)
        for b in self.EDGE + values[-3:]:
            got = mix64(arr, b)
            assert got.dtype == np.uint64
            assert got.tolist() == [mix64(a, b) for a in values]
            assert mix64(b, arr).tolist() == [mix64(b, a) for a in values]
        assert mix64(arr, arr[::-1]).tolist() == [mix64(a, b) for a, b in zip(values, values[::-1])]
        grid = mix64(arr[:, None], arr[None, :3])
        assert grid.shape == (len(values), 3)
        assert grid.tolist() == [[mix64(a, b) for b in values[:3]] for a in values]
        # tolist() hands SeededRng the Python ints its fast path takes
        assert all(type(key) is int for key in mix64(7, arr).tolist())


class TestJointPmf:
    def test_marginals_sum_rows_and_cols(self):
        j = JointPmf(("0", "1"), ("a", "b", "c"), [[0.1, 0.2, 0.1], [0.3, 0.2, 0.1]])
        pu, pv = j.marginals()
        assert_allclose(pu, [0.4, 0.6])
        assert_allclose(pv, [0.4, 0.4, 0.2])
        # built once and shared: both arrays are immutable
        assert j.marginals() is j.marginals()
        assert not pu.flags.writeable and not pv.flags.writeable
        # each cell lies within atol, but a row marginal sums two of them
        dip = JointPmf(("a", "b"), ("x", "y"), [[-0.6e-12, -0.6e-12], [0.5, 0.5 + 1.2e-12]])
        with pytest.raises(PositivityError, match="JointPmf rows marginal: negative"):
            dip.marginals()

    def test_sampling_matches_cell_masses(self):
        # a cell index is drawn from the flattened joint's cdf
        j = JointPmf(("0", "1"), ("0", "1"), [[0.4, 0.1], [0.1, 0.4]])
        cells = SeededRng(31).choice_index(np.cumsum(j.probs.ravel()), 200_000)
        freq = np.bincount(cells, minlength=4) / 200_000
        assert_allclose(freq, [0.4, 0.1, 0.1, 0.4], atol=0.005)

    def test_json_round_trip(self):
        j = JointPmf(("0", "1"), ("0", "1"), [[0.45, 0.05], [0.05, 0.45]])
        q = JointPmf.from_json(json.loads(json.dumps(j.to_json())))
        assert_allclose(q.probs, j.probs)
        assert q.row_labels == j.row_labels


class TestMutualInformation:
    def test_independent_is_zero(self):
        j = JointPmf(("0", "1"), ("0", "1"), np.outer([0.3, 0.7], [0.6, 0.4]))
        assert abs(mutual_information(j)) < 1e-12

    def test_perfectly_correlated_bits(self):
        j = JointPmf(("0", "1"), ("0", "1"), [[0.5, 0.0], [0.0, 0.5]])
        assert_allclose(mutual_information(j), 1.0, atol=1e-12)

    def test_doubly_symmetric_binary_source(self):
        # diag 0.45, off 0.05: MI equals 1 - h2(0.1)
        j = JointPmf(("0", "1"), ("0", "1"), [[0.45, 0.05], [0.05, 0.45]])
        h2 = -0.1 * math.log2(0.1) - 0.9 * math.log2(0.9)
        assert_allclose(mutual_information(j), 1.0 - h2, atol=1e-12)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4),
           st.lists(st.floats(0.01, 1.0), min_size=9, max_size=9))
    def test_nonnegative_and_zero_iff_product(self, w2, w9):
        m = np.array(w2).reshape(2, 2)
        j = JointPmf(("0", "1"), ("0", "1"), m / m.sum())
        assert mutual_information(j) >= -1e-12
        m = np.array(w9).reshape(3, 3)
        pu = m.sum(axis=1) / m.sum()
        pv = m.sum(axis=0) / m.sum()
        prod = JointPmf(("0", "1", "2"), ("0", "1", "2"), np.outer(pu, pv))
        assert abs(mutual_information(prod)) < 1e-9
