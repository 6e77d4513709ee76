"""Pmfs, joint pmfs, mutual information, and seeded streams."""

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
    Pmf,
    PositivityError,
    SeededRng,
    ValidationError,
    mutual_information,
)

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
    def test_validates_mass(self):
        with pytest.raises(NormalizationError):
            Pmf(("a", "b"), [0.5, 0.6])
        with pytest.raises(PositivityError):
            Pmf(("a", "b"), [1.2, -0.2])
        with pytest.raises(ValidationError):
            Pmf(("a", "a"), [0.5, 0.5])

    def test_tolerance_is_configurable(self):
        probs = [0.5 + 1e-9, 0.5]
        with pytest.raises(NormalizationError):
            Pmf(("a", "b"), probs)
        ok = Pmf(("a", "b"), probs, atol=1e-8)
        assert ok.probs[0] > 0.5

    def test_point_mass_sampling(self):
        p = Pmf(("only", "never"), [1.0, 0.0])
        assert np.array_equal(SeededRng(7).choice_index(p.cdf(), 5), np.zeros(5))

    def test_uniform_frequencies_within_3_sigma(self):
        n = 100_000
        p = Pmf(("a", "b", "c", "d"), np.full(4, 0.25))
        idx = SeededRng(123).choice_index(p.cdf(), n)
        counts = np.bincount(idx, minlength=4)
        sigma = math.sqrt(n * 0.25 * 0.75)
        assert np.all(np.abs(counts - n * 0.25) < 3 * sigma)

    def test_json_round_trip(self):
        p = Pmf(("a", "b", "c"), [0.2, 0.3, 0.5])
        blob = json.dumps(p.to_json())
        q = Pmf.from_json(json.loads(blob))
        assert q.labels == p.labels
        assert_allclose(q.probs, p.probs)
        with pytest.raises(ValidationError):
            Pmf.from_json({"labels": ["a"]})


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


class TestJointPmf:
    def test_marginals_sum_rows_and_cols(self):
        j = JointPmf(("0", "1"), ("a", "b", "c"), [[0.1, 0.2, 0.1], [0.3, 0.2, 0.1]])
        pu, pv = j.marginals()
        assert_allclose(pu.probs, [0.4, 0.6])
        assert_allclose(pv.probs, [0.4, 0.4, 0.2])
        # built once and shared: both pmfs are immutable
        assert j.marginals() is j.marginals()
        assert not pu.probs.flags.writeable

    def test_sampling_matches_cell_masses(self):
        # a cell index is drawn from the flattened joint's cdf
        j = JointPmf(("0", "1"), ("0", "1"), [[0.4, 0.1], [0.1, 0.4]])
        flat = Pmf(("00", "01", "10", "11"), j.probs.ravel())
        cells = SeededRng(31).choice_index(flat.cdf(), 200_000)
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
