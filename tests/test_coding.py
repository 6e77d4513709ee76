"""Band-exponent selection, codebook sampling, encoding, and decoding."""

import functools
import hashlib
import itertools
import math
import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from martonlab import coding
from martonlab.channels import (
    ClassicalBroadcastChannel,
    InputDesign,
    ProductClassicalChannel,
    build_classical_joints,
)
from martonlab.coding import (
    DECODE_TOL,
    ClassicalSetEvaluator,
    ClassicalThresholdEvaluator,
    Codebook,
    QuantumPairEvaluator,
    RateParams,
    ThresholdMembership,
    _raw_cuts,
    _raw_symbols,
    _side_words,
    _uniform_cuts,
    codebook_block,
    decode_cols,
    decode_pgm,
    decode_rows,
    encode,
    generate_codebook,
    pgm_outcome_probabilities,
    select_band_exponents,
)
from conftest import (
    encode_per_trial,
    gemv_threshold_matches,
    pgm_one_trial,
    rand_joint,
    set_membership,
    uncached_pgm_probabilities,
)
from martonlab.divergences import classical_i_infty, iid_llr_spectrum, llr_table, spectrum_i0
from martonlab.errors import InfeasibleRates, SupportOverflowError, ValidationError
from martonlab.prob import JointPmf
from martonlab.quantum import DensityOperator
from martonlab.rng import SeededRng, mix64

DSBS_45 = np.array([[0.45, 0.05], [0.05, 0.45]])
DSBS_40 = np.array([[0.40, 0.10], [0.10, 0.40]])


def dsbs_joint(probs):
    return JointPmf(("0", "1"), ("0", "1"), probs)


def set_evaluator(channel, design, bob, charlie):
    """The ClassicalSetEvaluator of the explicit sets the masks ``bob`` and
    ``charlie`` flag, each as its threshold receiver."""
    return ClassicalSetEvaluator(channel, design, (set_membership(bob), set_membership(charlie)))


def pair_design(probs):
    joint = dsbs_joint(probs)
    f = {(u, v): u + v for u in "01" for v in "01"}
    return InputDesign(joint, f)


def bsc_pair_channel(p: float, q: float) -> ClassicalBroadcastChannel:
    """X = two bits; Bob sees bit one through BSC(p), Charlie bit two through BSC(q)."""
    xs = ("00", "01", "10", "11")
    probs = np.zeros((4, 2, 2))
    for i, x in enumerate(xs):
        for y in range(2):
            for z in range(2):
                py = (1 - p) if y == int(x[0]) else p
                pz = (1 - q) if z == int(x[1]) else q
                probs[i, y, z] = py * pz
    return ClassicalBroadcastChannel(xs, ("0", "1"), ("0", "1"), probs)


def copy_pair_channel() -> ClassicalBroadcastChannel:
    return bsc_pair_channel(0.0, 0.0)


def ternary_channel(rng: np.random.Generator) -> ClassicalBroadcastChannel:
    """X = two bits; Y and Z ternary, each p(y | x) and p(z | x) with a zero."""
    sides = []
    for _ in range(2):
        m = rng.random((4, 3)) + 0.05
        m[np.arange(4), rng.integers(3, size=4)] = 0.0
        sides.append(m / m.sum(axis=1, keepdims=True))
    py, pz = sides
    return ClassicalBroadcastChannel(("00", "01", "10", "11"), ("0", "1", "2"),
                                     ("0", "1", "2"), py[:, :, None] * pz[:, None, :])


# ---------------------------------------------------------------------------
# former kernels, kept as oracles for the faster ones in coding.py


def searchsorted_words(pmf_probs, count, n, rng):
    """Word sampling by binary search over the cdf."""
    cdf = np.cumsum(pmf_probs)
    cdf[-1] = 1.0
    u = rng.random((count, n))
    return np.searchsorted(cdf, u, side="right").astype(np.int64)


def positionwise_tail_mass(word, x, llr, trans, tau, merge_tol=1e-12, atom_cap=100_000):
    """Tail mass by one convolution step per position, in position order."""
    values = np.zeros(1)
    probs = np.ones(1)
    for t in range(word.size):
        step_v = llr[word[t]]
        step_p = trans[x[t]]
        keep = step_p > 0.0
        values = (values[:, None] + step_v[None, keep]).ravel()
        probs = (probs[:, None] * step_p[None, keep]).ravel()
        order = np.argsort(values, kind="stable")
        values, probs = values[order], probs[order]
        group = np.ones(values.size, dtype=bool)
        group[1:] = np.diff(values) > merge_tol
        starts = np.flatnonzero(group)
        probs_m = np.add.reduceat(probs, starts)
        values_m = np.add.reduceat(values * probs, starts) / probs_m
        values, probs = values_m, probs_m
        if values.size > atom_cap:
            raise SupportOverflowError(f"llr support exceeded {atom_cap} atoms")
    return float(probs[values >= tau - DECODE_TOL].sum())


def gather_sum_matches(llr, tau, words, received):
    """Threshold membership by gathering and summing each row's llr values."""
    return llr[words, received[None, :]].sum(axis=1) >= tau - DECODE_TOL


# ---------------------------------------------------------------------------
# band-exponent selection


class TestSelectBandExponents:
    def test_reference_instance(self):
        # R1 = R2 = 5, budgets 30 each, correlation cost 2 bits, eps_tilde = 1/16
        assert select_band_exponents(5, 5, 30.0, 30.0, 2.0, 1 / 16) == (8, 6)

    def test_bsc_desk_instance(self):
        # unit rates against a 41.16-bit budget at eps_tilde = 0.01
        assert select_band_exponents(1, 1, 41.16, 41.16, 0.0, 0.01) == (12, 8)

    def test_row_side_fills_first(self):
        # surplus goes to r1 until its cap binds, then spills to r2
        ell = 4.0
        assert select_band_exponents(0, 0, 40.0, 21.0, 6.0, 1 / 16) == (14, 4)
        assert select_band_exponents(0, 0, 21.0, 40.0, 6.0, 1 / 16) == (4, 14)

    def test_eps_tilde_range(self):
        with pytest.raises(InfeasibleRates, match="eps_tilde"):
            select_band_exponents(1, 1, 40.0, 40.0, 0.0, 0.2)
        with pytest.raises(InfeasibleRates, match="eps_tilde"):
            select_band_exponents(1, 1, 40.0, 40.0, 0.0, 0.0)
        # 1/8 itself is allowed
        select_band_exponents(1, 1, 40.0, 40.0, 0.0, 0.125)

    def test_row_budget_infeasible(self):
        with pytest.raises(InfeasibleRates, match="row budget"):
            select_band_exponents(5, 5, 12.0, 30.0, 2.0, 1 / 16)

    def test_column_budget_infeasible(self):
        with pytest.raises(InfeasibleRates, match="column budget"):
            select_band_exponents(5, 5, 30.0, 12.0, 2.0, 1 / 16)

    def test_band_sum_unreachable(self):
        # both caps sit at the floor, so a large correlation cost cannot be met
        with pytest.raises(InfeasibleRates, match="band sum"):
            select_band_exponents(0, 0, 21.0, 21.0, 20.0, 1 / 16)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            select_band_exponents(-1, 0, 30.0, 30.0, 0.0, 1 / 16)

    @given(
        ell=st.floats(3.0, 8.0),
        i_infty=st.floats(0.0, 10.0),
        R1=st.integers(0, 5),
        R2=st.integers(0, 5),
        extra1=st.floats(1.5, 15.0),
        extra2=st.floats(1.5, 15.0),
    )
    @settings(max_examples=120, deadline=None)
    def test_selection_satisfies_constraints(self, ell, i_infty, R1, R2, extra1, extra2):
        eps_tilde = 2.0 ** (-ell)
        i0b = R1 + 4 * ell + 1 + ell + extra1
        i0c = R2 + 4 * ell + 1 + ell + extra2
        try:
            r1, r2 = select_band_exponents(R1, R2, i0b, i0c, i_infty, eps_tilde)
        except InfeasibleRates:
            assume(False)
        params = RateParams(R1=R1, R2=R2, r1=r1, r2=r2, eps_tilde=eps_tilde,
                            eps0=0.01, eps_infty=0.25, i0b=i0b, i0c=i0c, i_infty=i_infty)
        params.validate()
        assert r1 >= math.ceil(ell - 1e-9)
        assert r2 >= math.ceil(ell - 1e-9)
        assert R1 + r1 <= i0b - 4 * ell - 1 + 1e-6
        assert R2 + r2 <= i0c - 4 * ell - 1 + 1e-6


class TestRateParams:
    def valid(self, **over):
        base = dict(R1=5, R2=5, r1=8, r2=6, eps_tilde=1 / 16, eps0=0.01,
                    eps_infty=0.25, i0b=30.0, i0c=30.0, i_infty=2.0)
        base.update(over)
        return RateParams(**base)

    def test_valid_instance_passes(self):
        self.valid().validate()

    def test_counts(self):
        p = self.valid()
        assert p.n_rows == 1 << 13
        assert p.n_cols == 1 << 11

    def test_non_integer_band_rejected(self):
        with pytest.raises(ValidationError, match="integer"):
            self.valid(r1=8.0)

    def test_negative_rate_rejected(self):
        with pytest.raises(ValidationError):
            self.valid(R1=-1)

    def test_zero_band_rejected(self):
        with pytest.raises(ValidationError):
            self.valid(r1=0)

    def test_eps_bounds(self):
        with pytest.raises(ValidationError):
            self.valid(eps_tilde=0.0)
        with pytest.raises(ValidationError):
            self.valid(eps0=1.0)
        with pytest.raises(ValidationError):
            self.valid(eps_infty=1.0)

    def test_thinning_budget_named(self):
        with pytest.raises(InfeasibleRates, match="thinning budget"):
            self.valid(eps_infty=0.3).validate()

    def test_row_budget_named(self):
        with pytest.raises(InfeasibleRates, match="row budget"):
            self.valid(i0b=29.0).validate()

    def test_column_budget_named(self):
        with pytest.raises(InfeasibleRates, match="column budget"):
            self.valid(i0c=27.0).validate()

    def test_row_band_floor_named(self):
        with pytest.raises(InfeasibleRates, match="row band floor"):
            self.valid(r1=3, r2=11, i0b=40.0, i0c=40.0).validate()

    def test_column_band_floor_named(self):
        with pytest.raises(InfeasibleRates, match="column band floor"):
            self.valid(r1=11, r2=3, i0b=40.0, i0c=40.0).validate()

    def test_band_sum_named(self):
        with pytest.raises(InfeasibleRates, match="band sum"):
            self.valid(r1=7, r2=6).validate()


# ---------------------------------------------------------------------------
# codebook sampling


def small_params(**over):
    base = dict(R1=1, R2=1, r1=3, r2=3, eps_tilde=0.05, eps0=0.01,
                eps_infty=0.25, i0b=20.0, i0c=20.0, i_infty=math.log2(1.6))
    base.update(over)
    return RateParams(**base)


class TestCodebook:
    def test_generation_deterministic(self):
        design = pair_design(DSBS_45)
        a = generate_codebook(design, small_params(), seed=7)
        b = generate_codebook(design, small_params(), seed=7)
        assert np.array_equal(a.rows, b.rows)
        assert np.array_equal(a.cols, b.cols)
        assert a.content_digest() == b.content_digest()

    def test_generation_digest_frozen(self):
        cb = generate_codebook(pair_design(DSBS_45), small_params(), seed=7)
        assert cb.content_digest() == (
            "8d573faebc40243442df140b30144faa8c8f475e94d8f1e4d4514e0d5f48b329")

    def test_seed_changes_content(self):
        design = pair_design(DSBS_45)
        a = generate_codebook(design, small_params(), seed=7)
        b = generate_codebook(design, small_params(), seed=8)
        assert a.content_digest() != b.content_digest()

    @pytest.mark.parametrize("n", [1, 3, 7])
    def test_digest_is_the_one_piece_sha256(self, n):
        # the rows' then the columns' letters as int64, whatever the word type
        params = small_params(r1=11, r2=11)
        words = np.random.default_rng(n).integers(0, 2, size=(2, params.n_rows, n), dtype=np.uint8)
        cb = Codebook(words[0], words[1], params, pair_design(DSBS_45), 7, n)
        one_piece = hashlib.sha256(words[0].astype(np.int64).tobytes()
                                   + words[1].astype(np.int64).tobytes())
        assert cb.content_digest() == one_piece.hexdigest()

    @pytest.mark.parametrize("layout", ["uint8", "int64", "uint16 fortran", "broadcast",
                                        "strided"])
    @pytest.mark.parametrize("n", [1, 7, 56])
    def test_digest_in_pieces_is_the_one_shot_int64_digest(self, layout, n, monkeypatch):
        # sides of 4,096 and 8 words, widened a few hundred letters at a time
        monkeypatch.setattr(coding, "_DIGEST_LETTERS", 300)
        params = small_params(r1=11, r2=2)
        rng = np.random.default_rng(n)
        make = {"uint8": lambda a: a.astype(np.uint8), "int64": lambda a: a.astype(np.int64),
                "uint16 fortran": lambda a: np.asfortranarray(a, dtype=np.uint16),
                "broadcast": lambda a: np.broadcast_to(a[:1], a.shape),
                "strided": lambda a: np.repeat(a, 2, axis=0)[::2]}[layout]
        sides = [make(rng.integers(0, 3, size=(count, n)))
                 for count in (params.n_rows, params.n_cols)]
        cb = Codebook(sides[0], sides[1], params, pair_design(DSBS_45), 7, n)
        one_shot = hashlib.sha256()
        for side in sides:
            one_shot.update(np.ascontiguousarray(side, dtype=np.int64))
        assert cb.content_digest() == one_shot.hexdigest()

    @pytest.mark.parametrize("pmf", [
        [0.5, 0.5], [1.0], [0.3, 0.0, 0.7], [0.0, 0.2, 0.8], [0.2, 0.3, 0.5],
        [0.1, 0.2, 0.3, 0.4], [0.25, 0.0, 0.0, 0.75], [0.4, 0.3, 0.3, 0.0], [0.1] * 10,
    ])
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1])
    def test_sampler_matches_searchsorted_oracle(self, pmf, seed):
        pmf = np.asarray(pmf)
        # 2,100 outputs map raw, 700 as uniforms
        for count in (300, 100):
            (got,) = _side_words(pmf, count, 7, [seed], 1)
            want = searchsorted_words(pmf, count, 7, SeededRng(seed, 1))
            assert want.dtype == np.int64 and got.dtype == np.uint8
            assert np.array_equal(got, want)

    @pytest.mark.parametrize("count, n", [(4681, 7), (4096, 8), (10923, 3), (8192, 56)])
    @pytest.mark.parametrize("stream_id", [0, 1, 2, 3])
    def test_raw_sampler_matches_searchsorted_across_chunks(self, count, n, stream_id):
        # count * n is 2^15 - 1, 2^15 and 2^15 + 1 outputs, then a criterion-1
        # row side, all drawn raw from stream stream_id of three keys; a side
        # fills one chunk, or splits into several
        keys = [0, 2**63 + 3, 2**64 - 1]
        for pmf in (np.array([0.5, 0.5]), np.array([0.2, 0.0, 0.3, 0.5])):
            got = _side_words(pmf, count, n, keys, stream_id)
            assert got.shape == (3, count, n) and got.dtype == np.uint8
            for words, key in zip(got, keys):
                want_rng = SeededRng(key, stream_id)
                assert np.array_equal(words, searchsorted_words(pmf, count, n, want_rng))

    @pytest.mark.parametrize("count, n", [(1, 1), (3, 1), (341, 3), (128, 8)])
    def test_uniform_sides_match_searchsorted_across_pieces(self, count, n):
        # sides of 1, 3, 1,023 and 1,024 outputs, up to _UNIFORM_SIDE, from 40
        # streams, so 1,024-output sides fill one piece and spill into a
        # second
        assert count * n <= coding._UNIFORM_SIDE
        keys = [2**64 - 1 - s for s in range(40)]
        for pmf in (np.array([0.5, 0.5]), np.array([0.2, 0.0, 0.3, 0.5])):
            got = _side_words(pmf, count, n, keys, 2)
            assert got.shape == (40, count, n) and got.dtype == np.uint8
            for words, key in zip(got, keys):
                want_rng = SeededRng(key, 2)
                assert np.array_equal(words, searchsorted_words(pmf, count, n, want_rng))

    @pytest.mark.parametrize("pmf", [
        [0.5, 0.5], [0.25, 0.25, 0.5], [0.0, 0.0, 0.25, 0.75], [0.0, 0.5, 0.0, 0.5],
        [0.3, 0.7], [0.1, 0.2, 0.7], [0.7, 0.3, 1e-17], [0.5, 0.5 + 2**-52, 1e-17],
    ])
    def test_raw_symbols_on_and_next_to_cut_points(self, pmf):
        # uniforms on each cdf entry that is a multiple of 2^-53, on both
        # sides of each that is not (0.3 and 0.1 lie halfway between two),
        # one step of 2^-53 either side, and the ends of [0, 1); each with
        # the lowest and highest of the 11 output bits that random() drops
        pmf = np.asarray(pmf)
        cdf = np.cumsum(pmf)
        on = np.rint(cdf[:-1] * 2**53)
        m = np.concatenate([on - 1, on, on + 1, [0, 2**53 - 1]])
        m = m[(m >= 0) & (m < 2**53)].astype(np.uint64)
        raw = ((m << 11)[:, None] | np.array([0, 2047], dtype=np.uint64)).ravel()
        got = _raw_symbols(_raw_cuts(pmf), raw, np.empty(raw.size, dtype=np.uint8))
        cdf[-1] = 1.0
        want = np.searchsorted(cdf, (raw >> 11) * 2**-53, side="right")
        assert np.array_equal(got, want)
        # the same symbols from the uniforms, as small sides draw them
        got = _raw_symbols(_uniform_cuts(pmf), (raw >> 11) * 2**-53,
                           np.empty(raw.size, dtype=np.uint8))
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("pmf", [[0.7, 0.3, 1e-17], [0.5, 0.5 + 2**-52, 1e-17]])
    def test_raw_cuts_past_one_are_dropped(self, pmf):
        # the cdf reaches 1 (or passes it) before its last entry, so no
        # uniform in [0, 1) reaches the last letter
        pmf = np.asarray(pmf)
        assert np.cumsum(pmf)[-2] >= 1.0
        assert _raw_cuts(pmf).size == 1
        (words,) = _side_words(pmf, 4096, 8, [11], 1)
        assert words.max() == 1
        assert np.array_equal(words, searchsorted_words(pmf, 4096, 8, SeededRng(11, 1)))

    def test_block_entries_straddling_a_chunk_match_generate_codebook(self):
        # 2^10 rows of 40 letters are 40,960 outputs, past one 2^15 chunk
        probs = np.array([[0.56, 0.14], [0.24, 0.06]])
        design = InputDesign(dsbs_joint(probs), {(u, v): u + v for u in "01" for v in "01"})
        params = small_params(R1=2, r1=8)
        n, seeds = 40, [3, 2**64 - 1, 17]
        assert params.n_rows * n > coding._RAW_CHUNK
        rows, cols = codebook_block(design, params, seeds, n)
        assert rows.shape == (3, params.n_rows, n) and cols.shape == (3, params.n_cols, n)
        assert rows.dtype == cols.dtype == np.uint8
        pu, pv = design.joint.marginals()
        for j, seed in enumerate(seeds):
            cb = generate_codebook(design, params, seed, n)
            assert np.array_equal(rows[j], cb.rows) and np.array_equal(cols[j], cb.cols)
            base = SeededRng(seed, 0)
            assert np.array_equal(rows[j], searchsorted_words(pu, params.n_rows, n,
                                                              base.derive(1)))
            assert np.array_equal(cols[j], searchsorted_words(pv, params.n_cols, n,
                                                              base.derive(2)))

    def test_word_marginals(self):
        probs = np.array([[0.56, 0.14], [0.24, 0.06]])  # pu = (0.7, 0.3), pv = (0.8, 0.2)
        design = InputDesign(dsbs_joint(probs), {(u, v): u + v for u in "01" for v in "01"})
        params = small_params(R1=9, R2=9)
        cb = generate_codebook(design, params, seed=123)
        k = cb.rows.shape[0]
        assert abs(np.mean(cb.rows == 0) - 0.7) < 3 * math.sqrt(0.21 / k)
        assert abs(np.mean(cb.cols == 0) - 0.8) < 3 * math.sqrt(0.16 / k)

    def test_independent_design_indicator_all_one(self):
        probs = np.full((2, 2), 0.25)
        design = InputDesign(dsbs_joint(probs), {(u, v): u + v for u in "01" for v in "01"})
        cb = generate_codebook(design, small_params(i_infty=0.0), seed=5)
        for k in range(cb.n_rows):
            assert cb.indicator(k, 0, cb.n_cols).all()

    def test_eta_positional_stability(self):
        key = mix64(np.uint64([7]), 3)

        def eta(l0, l1):
            return coding._eta_rows(key, np.array([3]), np.array([l0]), l1 - l0)[0]

        full = eta(0, 16)
        assert np.array_equal(eta(5, 16), full[5:])
        assert np.array_equal(eta(2, 9), full[2:9])
        # replay is stateless: a second call returns the same values
        assert np.array_equal(eta(0, 16), full)

    def test_acceptance_matches_scalar_formula(self):
        cb = generate_codebook(pair_design(DSBS_45), small_params(), seed=9)
        table = llr_table(dsbs_joint(DSBS_45))
        for k in range(cb.n_rows):
            got = coding._acceptance(cb.log_ratio, cb.rows[k][None, :], cb.cols,
                                     cb.params.i_infty)
            for l in range(cb.n_cols):
                s = table[cb.rows[k, 0], cb.cols[l, 0]]
                want = 2.0 ** min(s - cb.params.i_infty, 0.0)
                assert got[l] == pytest.approx(want, rel=1e-12)

    def test_indicator_mean_matches_thinned_mass(self):
        # acceptance min(1, ratio / 2^i) averages to exactly 2^-i here
        joint = dsbs_joint(DSBS_40)
        i_inf = classical_i_infty(joint, 0.25).value
        assert i_inf == pytest.approx(math.log2(1.6), abs=1e-12)
        design = pair_design(DSBS_40)
        params = small_params(r1=6, r2=6, R1=0, R2=0, i_infty=i_inf)
        cb = generate_codebook(design, params, seed=31)
        hits = sum(cb.indicator(k, 0, cb.n_cols).sum() for k in range(cb.n_rows))
        total = cb.n_rows * cb.n_cols
        mean = hits / total
        assert abs(mean - 0.625) < 5 * math.sqrt(0.625 * 0.375 / total)

    def test_band_layout(self):
        # message m1 owns rows [m1 * 2^r1, (m1 + 1) * 2^r1), m2 the columns
        # [m2 * 2^r2, (m2 + 1) * 2^r2): the encoder picks its cell there
        params = small_params(i_infty=0.0)
        cb = generate_codebook(pair_design(DSBS_45), params, seed=7)
        ev = set_evaluator(copy_pair_channel(), cb.design, np.ones((2, 2), dtype=bool),
                           np.ones((2, 2), dtype=bool))
        for m1 in range(1 << params.R1):
            for m2 in range(1 << params.R2):
                row, col, _ = encode(cb, m1, m2, ev)
                assert (row >> params.r1, col >> params.r2) == (m1, m2)

    def test_message_range_checked(self):
        cb = generate_codebook(pair_design(DSBS_45), small_params(), seed=7)
        ev = set_evaluator(copy_pair_channel(), cb.design, np.eye(2, dtype=bool),
                           np.eye(2, dtype=bool))
        for m1, m2, name in ((2, 0, "m1 = 2"), (0, -1, "m2 = -1")):
            with pytest.raises(ValidationError, match=f"message {name} outside"):
                encode(cb, m1, m2, ev)

    def test_shape_mismatch_rejected(self):
        design = pair_design(DSBS_45)
        params = small_params()
        cb = generate_codebook(design, params, seed=7)
        with pytest.raises(ValidationError):
            Codebook(cb.rows[:8], cb.cols, params, design, 7)
        with pytest.raises(ValidationError):
            Codebook(cb.rows[:, 0], cb.cols, params, design, 7)

    def test_size_cap(self):
        design = pair_design(DSBS_45)
        params = small_params(R1=26)
        with pytest.raises(ValidationError, match="exceeds"):
            generate_codebook(design, params, seed=7)

    @given(seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=20, deadline=None)
    def test_kept_mass_floor(self, seed):
        # mean indicator stays above 2^(-i_infty - 2) whenever eps_infty <= 1/4
        rng = np.random.default_rng(seed)
        probs = rng.uniform(0.01, 1.0, size=(3, 3))
        probs /= probs.sum()
        labels = tuple("abc")
        joint = JointPmf(labels, labels, probs)
        i_inf = classical_i_infty(joint, 0.25).value
        table = llr_table(joint)
        pu, pv = joint.marginals()
        accept = np.exp2(np.minimum(table - i_inf, 0.0))
        mean = float(pu @ accept @ pv)
        assert mean >= 2.0 ** (-i_inf - 2.0) - 1e-12


# ---------------------------------------------------------------------------
# encoding


class TestEncode:
    """The cell-by-cell scan of ``conftest``, and ``encode`` against it."""

    @staticmethod
    def assert_encode_agrees(cb, m1, m2, ev, out):
        row, col, x = encode(cb, m1, m2, ev)
        assert (row, col) == ((-1, -1) if out.fallback else (out.row, out.col))
        assert np.array_equal(x, out.x_word)

    def correlated_setup(self):
        probs = np.array([[0.5, 0.0], [0.0, 0.5]])
        joint = dsbs_joint(probs)
        design = InputDesign(joint, {("0", "0"): "00", ("1", "1"): "11"})
        params = small_params(r1=2, r2=2, i0b=5.0, i0c=5.0, i_infty=1.0)
        ch = copy_pair_channel()
        ev = set_evaluator(ch, design, np.eye(2, dtype=bool), np.eye(2, dtype=bool))
        return design, params, ch, ev

    def test_noiseless_success(self):
        design, params, ch, ev = self.correlated_setup()
        cb = generate_codebook(design, params, seed=11)
        out = encode_per_trial(cb, 1, 0, ev, 0.01)
        self.assert_encode_agrees(cb, 1, 0, ev, out)
        assert not out.fallback
        assert (out.row >> params.r1, out.col >> params.r2) == (1, 0)
        assert out.alpha == 1.0 and out.beta == 1.0
        # the chosen pair is on the diagonal and maps to the paired symbol
        u, v = cb.rows[out.row, 0], cb.cols[out.col, 0]
        assert u == v
        assert out.x_word[0] == ch.x_index("00" if u == 0 else "11")

    def test_dead_band_falls_back(self):
        design, params, ch, ev = self.correlated_setup()
        dead = small_params(r1=2, r2=2, i0b=5.0, i0c=5.0, i_infty=60.0)
        cb = generate_codebook(design, dead, seed=11)
        out = encode_per_trial(cb, 0, 1, ev, 0.01)
        self.assert_encode_agrees(cb, 0, 1, ev, out)
        assert out.fallback
        assert out.row is None and out.col is None
        assert out.scanned == 16
        assert np.array_equal(out.x_word, np.zeros(1, dtype=np.int64))
        assert out.alpha == 0.0 and out.beta == 0.0

    def test_acceptance_threshold_blocks_cells(self):
        design, params, ch, _ = self.correlated_setup()
        cb = generate_codebook(design, params, seed=11)
        low = set_evaluator(ch, design, np.zeros((2, 2), bool), np.eye(2, dtype=bool))
        out = encode_per_trial(cb, 1, 0, low, 0.01)
        self.assert_encode_agrees(cb, 1, 0, low, out)
        assert out.fallback

    def test_matches_scalar_rescan(self):
        ch = bsc_pair_channel(0.1, 0.15)
        design = pair_design(DSBS_45)
        joint = dsbs_joint(DSBS_45)
        i_inf = classical_i_infty(joint, 0.25).value
        params = small_params(r1=2, r2=2, i_infty=i_inf, eps0=0.05)
        ev = set_evaluator(ch, design, np.eye(2, dtype=bool), np.eye(2, dtype=bool))
        table = llr_table(joint)
        for seed in (0, 1, 2):
            cb = generate_codebook(design, params, seed=seed)
            for m1 in (0, 1):
                for m2 in (0, 1):
                    got = encode_per_trial(cb, m1, m2, ev, 0.05)
                    want = self.rescan(cb, m1, m2, ev, 0.05, table)
                    assert (got.row, got.col, got.fallback) == want
                    self.assert_encode_agrees(cb, m1, m2, ev, got)

    @staticmethod
    def rescan(cb, m1, m2, ev, eps0, table):
        thr = 1 - 4 * eps0
        w1, w2 = 1 << cb.params.r1, 1 << cb.params.r2
        for k in range(m1 * w1, (m1 + 1) * w1):
            for l in range(m2 * w2, (m2 + 1) * w2):
                eta = coding._eta_rows(mix64(np.uint64([cb.seed]), 3), np.array([k]),
                                       np.array([l]), 1)[0, 0]
                s = sum(table[cb.rows[k, t], cb.cols[l, t]] for t in range(cb.n))
                if eta <= 2.0 ** min(s - cb.params.i_infty, 0.0):
                    a, b = ev.alpha_beta(cb.rows[k], cb.cols[l])
                    if a > thr and b > thr:
                        return k, l, False
        return None, None, True


class TestThresholdEvaluator:
    def test_tail_mass_matches_enumeration(self):
        ch = bsc_pair_channel(0.1, 0.2)
        design = pair_design(DSBS_45)
        uy, vz = build_classical_joints(ch, design)
        llr1, llr2 = llr_table(uy), llr_table(vz)
        tau = 0.8
        ev = ClassicalThresholdEvaluator(
            ch, design, (ThresholdMembership(llr1, tau), ThresholdMembership(llr2, tau)))
        u = np.array([0, 1, 0])
        v = np.array([1, 1, 0])
        x = ev.x_of_pair(u, v)
        py, _ = ch.marginals()
        alpha_brute = 0.0
        for y0 in range(2):
            for y1 in range(2):
                for y2 in range(2):
                    ys = (y0, y1, y2)
                    score = sum(llr1[u[t], ys[t]] for t in range(3))
                    if score >= tau - DECODE_TOL:
                        alpha_brute += math.prod(py[x[t], ys[t]] for t in range(3))
        alpha, _ = ev.alpha_beta(u, v)
        assert alpha == pytest.approx(alpha_brute, abs=1e-12)

    @staticmethod
    def ternary_evaluator(rng, real_llr: bool):
        ch = ternary_channel(rng)
        design = pair_design(DSBS_45)
        if real_llr:
            uy, vz = build_classical_joints(ch, design)
            llr1, llr2 = llr_table(uy), llr_table(vz)
        else:
            llr1, llr2 = rng.normal(size=(2, 3)), rng.normal(size=(2, 3))
        tau1, tau2 = rng.uniform(-2.0, 2.0, size=2)
        receivers = (ThresholdMembership(llr1, tau1), ThresholdMembership(llr2, tau2))
        return ch, receivers, ClassicalThresholdEvaluator(ch, design, receivers)

    def test_tail_mass_matches_positionwise_oracle(self, np_rng):
        for case in range(24):
            ch, (bob, charlie), ev = self.ternary_evaluator(np_rng, real_llr=case % 2 == 0)
            py, pz = ch.marginals()
            for _ in range(6):
                n = int(np_rng.integers(1, 25))
                u, v = np_rng.integers(2, size=n), np_rng.integers(2, size=n)
                x = ev.x_of_pair(u, v)
                alpha, beta = ev.alpha_beta(u, v)
                want_a = positionwise_tail_mass(u, x, bob.llr, py, bob.tau)
                want_b = positionwise_tail_mass(v, x, charlie.llr, pz, charlie.tau)
                assert abs(alpha - want_a) <= 1e-12
                assert abs(beta - want_b) <= 1e-12

    def test_position_order_does_not_matter(self, np_rng):
        ch, receivers, ev = self.ternary_evaluator(np_rng, real_llr=False)
        for _ in range(10):
            u, v = np_rng.integers(2, size=30), np_rng.integers(2, size=30)
            perm = np_rng.permutation(30)
            got = ev.alpha_beta(u, v)
            assert ev.alpha_beta(u[perm], v[perm]) == got
            # the cached k-fold tables give what a fresh evaluator computes
            fresh = ClassicalThresholdEvaluator(ch, pair_design(DSBS_45), receivers)
            assert fresh.alpha_beta(u[perm], v[perm]) == got

    def test_memoized_tail_masses_match_positionwise_oracle(self, np_rng):
        # each cell comes back, permuted and as it was, so most calls after
        # its first find its joint type in the memo
        ch, receivers, ev = self.ternary_evaluator(np_rng, real_llr=False)
        (bob, charlie), (py, pz) = receivers, ch.marginals()
        cells = []
        for _ in range(8):
            u, v = np_rng.integers(2, size=12), np_rng.integers(2, size=12)
            perm = np_rng.permutation(12)
            cells += [(u, v), (u[perm], v[perm]), (u, v)]
        for u, v in cells:
            x = ev.x_of_pair(u, v)
            alpha, beta = ev.alpha_beta(u, v)
            assert abs(alpha - positionwise_tail_mass(u, x, bob.llr, py, bob.tau)) <= 1e-12
            assert abs(beta - positionwise_tail_mass(v, x, charlie.llr, pz, charlie.tau)) <= 1e-12
        assert len(ev._tails) <= 2 * 8
        # a hit returns the float a fresh evaluator computes
        fresh = ClassicalThresholdEvaluator(ch, pair_design(DSBS_45), receivers)
        for u, v in cells:
            assert ev.alpha_beta(u, v) == fresh.alpha_beta(u, v)

    def test_sides_do_not_share_memoized_masses(self):
        # equal row and column words have equal pair counts on both sides,
        # but the sides score them with different llr tables
        ch = bsc_pair_channel(0.1, 0.2)
        design = pair_design(DSBS_45)
        uy, vz = build_classical_joints(ch, design)
        llr1, llr2 = llr_table(uy), llr_table(vz)
        py, pz = ch.marginals()
        ev = ClassicalThresholdEvaluator(ch, design, (ThresholdMembership(llr1, 1.5),
                                                      ThresholdMembership(llr2, 1.5)))
        for word in (np.array([0, 1, 1, 0, 1]), np.array([1, 1, 1, 0, 0, 0])):
            x = ev.x_of_pair(word, word)
            want_a = positionwise_tail_mass(word, x, llr1, py, 1.5)
            want_b = positionwise_tail_mass(word, x, llr2, pz, 1.5)
            assert abs(want_a - want_b) > 1e-3
            alpha, beta = ev.alpha_beta(word, word)
            assert abs(alpha - want_a) <= 1e-12 and abs(beta - want_b) <= 1e-12

    def test_atom_cap_raises(self, np_rng, monkeypatch):
        monkeypatch.setattr(coding, "THRESHOLD_ATOM_CAP", 20)
        ch, (bob, _), ev = self.ternary_evaluator(np_rng, real_llr=False)
        # each of the four (u, x) pairs occurs three times
        u, v = np.arange(12) % 2, np.arange(12) // 2 % 2
        x = ev.x_of_pair(u, v)
        with pytest.raises(SupportOverflowError):
            positionwise_tail_mass(u, x, bob.llr, ch.marginals()[0], bob.tau, atom_cap=20)
        with pytest.raises(SupportOverflowError):
            ev.alpha_beta(u, v)

    def test_certain_set_gives_unit_mass(self):
        ch = copy_pair_channel()
        design = pair_design(np.array([[0.5, 0.0], [0.0, 0.5]]))
        certain = ThresholdMembership(np.zeros((2, 2)), 0.0)
        ev = ClassicalThresholdEvaluator(ch, design, (certain, certain))
        alpha, beta = ev.alpha_beta(np.array([0, 1]), np.array([0, 1]))
        assert alpha == pytest.approx(1.0)
        assert beta == pytest.approx(1.0)

    def test_minus_inf_cells_on_the_support_clear_nothing(self):
        # Bob's steps at the pairs (0, 00), (0, 01) and (1, 10) are
        # (0: 1, -inf: 1e-200), (1: 1, -inf: 1e-200) and (0: 0.5, 2: 0.5).
        # Two -inf atoms of mass 1e-200 meet at mass 0, where 0 * -inf is
        # NaN: a NaN atom that merged with the atom at 3 would drop its 0.5
        py = np.array([[1.0, 0.0, 1e-200], [0.0, 1.0, 1e-200], [0.5, 0.5, 0.0], [1.0, 0.0, 0.0]])
        ch = ClassicalBroadcastChannel(("00", "01", "10", "11"), ("0", "1", "2"), ("0", "1"),
                                       py[:, :, None] * np.full((4, 1, 2), 0.5))
        llr = np.array([[0.0, 1.0, -np.inf], [0.0, 2.0, -np.inf]])
        tau = 1.0
        ev = ClassicalThresholdEvaluator(ch, pair_design(DSBS_45), (
            ThresholdMembership(llr, tau), ThresholdMembership(np.zeros((2, 2)), 0.0)))
        py = ch.marginals()[0]
        for u, v in (([0, 0, 1], [0, 1, 0]), ([1, 0, 0, 1], [0, 0, 1, 1])):
            u, v = np.array(u), np.array(v)
            x = ev.x_of_pair(u, v)
            want = 0.0
            for ys in itertools.product(range(3), repeat=u.size):
                if sum(llr[u[t], ys[t]] for t in range(u.size)) >= tau - DECODE_TOL:
                    want += math.prod(py[x[t], ys[t]] for t in range(u.size))
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                alpha, beta = ev.alpha_beta(u, v)
            assert alpha == pytest.approx(want, abs=1e-12) and beta == 1.0
        assert want > 0.4


class TestReceivers:
    @pytest.mark.parametrize("case", ["desk", "undefined pairs"])
    def test_set_tables_are_threshold_tail_masses_at_n_1(self, case):
        # an explicit set is the threshold receiver at tau = 0 on a 0 / -inf
        # table: on the same receivers, the set evaluator's tables hold the
        # threshold evaluator's single-letter tail masses
        if case == "desk":
            ch, design = bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45)
        else:
            ch = bsc_pair_channel(0.1, 0.15)
            design = InputDesign(dsbs_joint(np.diag([0.5, 0.5])),
                                 {("0", "0"): "00", ("1", "1"): "11"})
        masks = [np.array(bits, bool).reshape(2, 2) for bits in itertools.product((0, 1), repeat=4)]
        for bob, charlie in zip(masks, masks[::-1]):
            receivers = (set_membership(bob), set_membership(charlie))
            sets = ClassicalSetEvaluator(ch, design, receivers)
            thresholds = ClassicalThresholdEvaluator(ch, design, receivers)
            defined = sets.fx >= 0
            assert defined.all() == (case == "desk")
            for u, v in zip(*np.nonzero(defined)):
                alpha, beta = sets.alpha_beta(np.array([u]), np.array([v]))
                want_a, want_b = thresholds.alpha_beta(np.array([u]), np.array([v]))
                assert abs(alpha[0] - want_a) <= 1e-15 and abs(beta[0] - want_b) <= 1e-15
            for u, v in zip(*np.nonzero(~defined)):
                for ev in (sets, thresholds):
                    with pytest.raises(ValidationError, match="undefined"):
                        ev.alpha_beta(np.array([u]), np.array([v]))

    @pytest.mark.parametrize("cls", [ClassicalSetEvaluator, ClassicalThresholdEvaluator])
    def test_receiver_of_wrong_shape_raises(self, cls):
        ch, design = bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45)
        right = set_membership(np.eye(2, dtype=bool))
        wrong = set_membership(np.ones((2, 3), bool))
        for receivers in ((wrong, right), (right, wrong), (right,)):
            with pytest.raises(ValidationError, match=r"\(\|U\|, \|Y\|\) and \(\|V\|, \|Z\|\)"):
                cls(ch, design, receivers)


# ---------------------------------------------------------------------------
# decoding


def handmade_codebook(row_words, col_words, r1=2, r2=2, n=1):
    rows = np.asarray(row_words, dtype=np.int64).reshape(-1, n)
    cols = np.asarray(col_words, dtype=np.int64).reshape(-1, n)
    R1 = int(math.log2(rows.shape[0])) - r1
    R2 = int(math.log2(cols.shape[0])) - r2
    params = small_params(R1=R1, R2=R2, r1=r1, r2=r2)
    design = pair_design(DSBS_45)
    return Codebook(rows, cols, params, design, seed=0, n=n)


class TestClassicalDecoders:
    """The decoders return every matching word; how a run reads a band and
    an index from them is checked in ``test_experiments``'s
    ``TestEventClassification``."""

    def test_unique_match(self):
        cb = handmade_codebook([0, 0, 0, 0, 0, 0, 1, 0], [0] * 8)
        res = decode_rows(cb, np.array([[1]]), set_membership(np.eye(2, dtype=bool)))
        assert res.matched.tolist() == [6]

    def test_no_match_defaults_to_zero(self):
        # no word matches: the run reads message 0 from the empty match
        cb = handmade_codebook([0] * 8, [0] * 8)
        res = decode_rows(cb, np.array([[1]]), set_membership(np.eye(2, dtype=bool)))
        assert res.matched.size == 0

    def test_smallest_band_wins_and_ambiguity_flagged(self):
        # matches in two bands come in ascending order, the smallest band first
        cb = handmade_codebook([0, 1, 0, 0, 0, 0, 1, 0], [0] * 8)
        res = decode_rows(cb, np.array([[1]]), set_membership(np.eye(2, dtype=bool)))
        assert res.matched.tolist() == [1, 6]

    def test_same_band_multiple_matches_not_ambiguous(self):
        cb = handmade_codebook([1, 1, 0, 0, 0, 0, 0, 0], [0] * 8)
        res = decode_rows(cb, np.array([[1]]), set_membership(np.eye(2, dtype=bool)))
        assert res.matched.tolist() == [0, 1]

    def test_column_decoder_uses_col_bands(self):
        cb = handmade_codebook([0] * 8, [0, 0, 0, 0, 0, 1, 0, 0])
        res = decode_cols(cb, np.array([[1]]), set_membership(np.eye(2, dtype=bool)))
        assert res.matched.tolist() == [5]
        assert decode_rows(cb, np.array([[1]]), set_membership(np.eye(2, dtype=bool))).matched.size == 0

    def test_threshold_membership_scores(self):
        joint = dsbs_joint(DSBS_45)
        table = llr_table(joint)
        words = np.array([[0, 0], [0, 1], [1, 1]])
        received = np.array([[0, 0]])
        hit = table[0, 0] * 2
        mem = ThresholdMembership(table, hit)
        assert mem.matches(words, received).tolist() == [[True, False, False]]
        # slack: a threshold within DECODE_TOL above the score still matches
        assert ThresholdMembership(table, hit + 1e-7).matches(words, received)[0, 0]
        assert not ThresholdMembership(table, hit + 1e-4).matches(words, received)[0, 0]

    @pytest.mark.parametrize("probs", [
        [[0.5, 0.0], [0.0, 0.5]],                 # noiseless: -inf off the diagonal
        [[0.4, 0.0, 0.1], [0.0, 0.4, 0.1]],       # erasure column finite, others not
        [[0.3, 0.1, 0.1], [0.05, 0.25, 0.2]],     # all finite
    ])
    def test_threshold_membership_matches_gather_sum(self, np_rng, probs):
        probs = np.asarray(probs)
        table = llr_table(JointPmf(("0", "1"), tuple("012"[:probs.shape[1]]), probs))
        words = np_rng.integers(2, size=(500, 12))
        for _ in range(20):
            received = np_rng.integers(probs.shape[1], size=12)
            received[received < 2] = words[17][received < 2]
            for tau in (np_rng.uniform(-6.0, 12.0), 12.0, -1e300):
                got = ThresholdMembership(table, tau).matches(words, received[None])[0]
                assert np.array_equal(got, gather_sum_matches(table, tau, words, received))
        if np.isneginf(table).any():
            # a row with a -inf position never matches, however low the threshold
            scores = table[words, received[None, :]].sum(axis=1)
            assert not ThresholdMembership(table, -1e300).matches(words, received[None])[
                0, np.isneginf(scores)].any()

    @pytest.mark.parametrize("nb", [2, 3, 4, 5])
    @pytest.mark.parametrize("na", [2, 3, 4, 5])
    def test_type_count_scores_match_gemv_oracle(self, na, nb):
        rng = np.random.default_rng(100 * na + nb)
        # fewer zero cells than letters leave every row and column some mass
        probs = rand_joint(rng, na, nb, zeros=min(na, nb) - 1)
        joint = JointPmf(tuple("01234"[:na]), tuple("01234"[:nb]), probs)
        table = llr_table(joint)
        assert np.isneginf(table).any()
        n = 3
        spectrum = iid_llr_spectrum(joint, n)
        taus = list(spectrum.values) + [
            spectrum_i0(spectrum, eps0, method="thresholded").witness["threshold"]
            for eps0 in (0.01, 0.05, 0.2)]
        for _ in range(3):
            received = rng.integers(nb, size=n)
            # rows drawn given the received letters score on the spectrum's
            # atoms; uniform rows also hit the -inf cells
            given = np.array([[rng.choice(na, p=probs[:, b] / probs[:, b].sum())
                               for b in received] for _ in range(24)])
            words = np.vstack([given, rng.integers(na, size=(24, n))]).astype(np.uint8)
            for tau in taus:
                got = ThresholdMembership(table, tau).matches(words, received[None])[0]
                assert np.array_equal(got, gemv_threshold_matches(table, tau, words, received))

    def test_threshold_membership_wide_table_and_long_words(self):
        # 300 word letters do not wrap against uint8 words
        table = np.zeros((300, 2))
        table[0, 0], table[44, 0] = 1.0, -5.0
        words = np.array([[0, 0], [44, 0], [1, 1]], dtype=np.uint8)
        got = ThresholdMembership(table, 1.5).matches(words, np.array([[0, 0]]))
        assert got.tolist() == [[True, False, False]]
        # float32 letter counts are exact only below 2^24 positions
        long_words = np.zeros((0, 1 << 24), dtype=np.uint8)
        with pytest.raises(ValidationError, match="exact below"):
            ThresholdMembership(table, 0.0).matches(long_words,
                                                    np.broadcast_to(0, (1, 1 << 24)))


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockDecoders:
    """``decode_rows`` / ``decode_cols`` of a (trials, n) block of received
    words give each word's own matches, trial by trial, and those are the
    oracles' matches.  Warnings are errors: a product that formed 0 * inf
    would warn."""

    @staticmethod
    def codebook(rows, cols, n):
        params = small_params(R1=int(math.log2(len(rows))) - 2,
                              R2=int(math.log2(len(cols))) - 2, r1=2, r2=2)
        return Codebook(rows, cols, params, pair_design(DSBS_45), seed=0, n=n)

    @staticmethod
    def assert_block_matches(cb, block, mem, *oracles):
        for decode, words in ((decode_rows, cb.rows), (decode_cols, cb.cols)):
            got = decode(cb, block, mem)
            per_word = [decode(cb, word[None], mem) for word in block]
            assert all(not res.trial.any() for res in per_word)
            per_word = [res.matched for res in per_word]
            assert np.array_equal(got.matched, np.concatenate(per_word))
            assert np.array_equal(got.trial, np.repeat(np.arange(len(block)),
                                                       [m.size for m in per_word]))
            for word, want in zip(block, per_word):
                for oracle in oracles:
                    assert np.array_equal(want, np.flatnonzero(oracle(words, word)))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("na, nb", [(2, 2), (2, 3), (3, 2), (4, 4)])
    def test_threshold_blocks_match_oracles(self, na, nb, dtype):
        rng = np.random.default_rng(10 * na + nb)
        probs = rand_joint(rng, na, nb, zeros=min(na, nb) - 1)
        joint = JointPmf(tuple("0123"[:na]), tuple("0123"[:nb]), probs)
        table = llr_table(joint)
        n = 3
        spectrum = iid_llr_spectrum(joint, n)
        taus = list(spectrum.values) + [
            spectrum_i0(spectrum, eps0, method="thresholded").witness["threshold"]
            for eps0 in (0.01, 0.2)] + [-1e300]
        rows = rng.integers(na, size=(64, n)).astype(dtype)
        cols = rng.integers(na, size=(32, n)).astype(dtype)
        cb = self.codebook(rows, cols, n)
        for trials in (1, 9):
            block = rng.integers(nb, size=(trials, n))
            for tau in taus:
                self.assert_block_matches(
                    cb, block, ThresholdMembership(table, tau),
                    lambda words, word: gemv_threshold_matches(table, tau, words, word),
                    lambda words, word: gather_sum_matches(table, tau, words, word))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    def test_wide_table_with_inf_column(self, dtype):
        # 300 word letters do not wrap against uint8 words, and received
        # letter 1 scores -inf for word letter 7, so it is looked up
        rng = np.random.default_rng(300)
        table = rng.normal(size=(300, 3))
        table[7, 1] = -np.inf
        letters = 256 if dtype == np.uint8 else 300
        rows = rng.integers(letters, size=(16, 2)).astype(dtype)
        rows[:4, 0] = 7
        cols = rng.integers(letters, size=(8, 2)).astype(dtype)
        cb = self.codebook(rows, cols, 2)
        block = rng.integers(3, size=(6, 2))
        block[0] = 1
        for tau in (-1.0, 0.0, 1.5, -1e300):
            self.assert_block_matches(
                cb, block, ThresholdMembership(table, tau),
                lambda words, word: gather_sum_matches(table, tau, words, word))

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("table", ["every column", "whole row"])
    def test_inf_cells_veto_their_words(self, table, dtype):
        # every received letter scores -inf for some word letter, so no
        # column is free of -inf; or word letter 1 scores -inf against every
        # received letter, so no word that holds it ever matches
        rng = np.random.default_rng(7)
        llr = rng.normal(size=(3, 4))
        if table == "every column":
            llr[[2, 0, 1, 2], np.arange(4)] = -np.inf
        else:
            llr[1] = -np.inf
        n = 3
        rows = rng.integers(3, size=(64, n)).astype(dtype)
        cols = rng.integers(3, size=(32, n)).astype(dtype)
        rows[:8] = 0
        cb = self.codebook(rows, cols, n)
        for trials in (1, 9):
            block = rng.integers(4, size=(trials, n))
            for tau in (-1.0, 0.0, 2.0, -1e300):
                self.assert_block_matches(
                    cb, block, ThresholdMembership(llr, tau),
                    lambda words, word: gather_sum_matches(llr, tau, words, word))

    def test_single_received_word_refused(self):
        # a bare word in place of a block, at n = 2 and for an explicit set at n = 1
        for n, mem in ((2, ThresholdMembership(np.zeros((2, 2)), 0.0)),
                       (1, set_membership(np.eye(2)))):
            cb = self.codebook(np.zeros((16, n), dtype=np.uint8),
                               np.zeros((8, n), dtype=np.uint8), n)
            with pytest.raises(ValidationError, match=r"\(trials, n\) block"):
                decode_rows(cb, np.array([0, 1][:n]), mem)

    @pytest.mark.parametrize("n, block", [
        (3, [[0, 0, 2]]), (3, [[1, 0, 1], [0, -1, 0]]), (1, [[-1]]), (1, [[0], [2]])])
    def test_received_letters_outside_the_alphabet_refused(self, n, block):
        # a letter past |B| would drop out of the type counts, and a negative
        # one would wrap to the last column of a one-letter lookup
        cb = self.codebook(np.zeros((16, n), dtype=np.uint8), np.zeros((8, n), dtype=np.uint8), n)
        for decode in (decode_rows, decode_cols):
            with pytest.raises(ValidationError, match=r"^received letters must lie in \[0, 2\)$"):
                decode(cb, np.array(block), ThresholdMembership(np.zeros((2, 2)), 0.0))

    @pytest.mark.parametrize("n, letters", [(3, 2), (3, 4), (1, 2), (2, 1)])
    def test_received_block_of_another_length_refused(self, n, letters):
        cb = self.codebook(np.zeros((16, n), dtype=np.uint8), np.zeros((8, n), dtype=np.uint8), n)
        for decode in (decode_rows, decode_cols):
            with pytest.raises(ValidationError, match=rf"\(trials, n\) block with n = {n}, "):
                decode(cb, np.zeros((5, letters), dtype=np.int64),
                       ThresholdMembership(np.zeros((2, 2)), 0.0))

    def test_set_blocks_match_mask_gather(self):
        rng = np.random.default_rng(4)
        cb = self.codebook(rng.integers(3, size=(16, 1)), rng.integers(3, size=(8, 1)), 1)
        for _ in range(10):
            mask = rng.random((3, 4)) < 0.5
            block = rng.integers(4, size=(7, 1))
            self.assert_block_matches(cb, block, set_membership(mask),
                                      lambda words, word: mask[words[:, 0], word[0]])

    @pytest.mark.parametrize("dtype", [np.uint8, np.int64])
    @pytest.mark.parametrize("inf_cells", [0, 4])
    @pytest.mark.parametrize("na, nb", [(3, 3), (3, 4)])
    def test_one_letter_lookup_matches_gather_sum(self, na, nb, inf_cells, dtype):
        # one-letter words score by a table lookup, which must match as the
        # gathered sum does: taus at each finite entry, above it by less and
        # by more than DECODE_TOL, below it, and one no finite score misses
        rng = np.random.default_rng(100 * na + 10 * nb + inf_cells)
        llr = rng.normal(size=(na, nb))
        llr.flat[rng.choice(llr.size, inf_cells, replace=False)] = -np.inf
        rows = np.resize(np.arange(na), (16, 1)).astype(dtype)
        cols = rng.integers(na, size=(8, 1)).astype(dtype)
        cb = self.codebook(rows, cols, 1)
        finite = llr[np.isfinite(llr)]
        taus = np.concatenate([finite, finite + DECODE_TOL / 2, finite + 2 * DECODE_TOL,
                               finite - DECODE_TOL, [-1e300]])
        for trials in (1, 9):
            block = rng.integers(nb, size=(trials, 1))
            for tau in taus:
                mem = ThresholdMembership(llr, tau)
                oracle = functools.partial(gather_sum_matches, llr, tau)
                assert np.array_equal(mem.matches(rows, block),
                                      np.stack([oracle(rows, word) for word in block]))
                self.assert_block_matches(cb, block, mem, oracle)


class TestCompactWords:
    """Sampled words come in uint8; every consumer gives what the same words
    give in int64, also where (u, x) pair keys (|U| - 1) * |X| >= 256
    overflow uint8."""

    def test_wide_alphabet_matches_int64_words(self):
        rng = np.random.default_rng(5)
        us = tuple(f"u{i}" for i in range(80))
        joint = JointPmf(us, ("0", "1"), rng.dirichlet(np.ones(160)).reshape(80, 2))
        design = InputDesign(joint, {(u, v): f"{i % 2}{v}"
                                     for i, u in enumerate(us) for v in "01"})
        ch = ternary_channel(rng)
        assert len(us) * len(ch.x_alphabet) == 320
        uy, vz = build_classical_joints(ch, design)
        llr1, llr2 = llr_table(uy), llr_table(vz)
        n, tau = 8, 1.0
        params = small_params(i_infty=0.0, eps0=0.1)
        cb = generate_codebook(design, params, seed=3, n=n)
        assert cb.rows.dtype == cb.cols.dtype == np.uint8 and cb.rows.max() >= 64
        wide = Codebook(cb.rows.astype(np.int64), cb.cols.astype(np.int64), params, design,
                        cb.seed, n)
        mem_b, mem_c = ThresholdMembership(llr1, tau), ThresholdMembership(llr2, tau)
        # separate evaluators, so that neither reads the other's cached tables
        ev, ev_wide = (ClassicalThresholdEvaluator(ch, design, (mem_b, mem_c)) for _ in range(2))
        for k in range(cb.n_rows):
            for l in range(cb.n_cols):
                assert ev.alpha_beta(cb.rows[k], cb.cols[l]) == ev_wide.alpha_beta(
                    wide.rows[k], wide.cols[l])
        sampler = ProductClassicalChannel(ch, n)
        for m1 in range(2):
            for m2 in range(2):
                row, col, x = encode(cb, m1, m2, ev)
                want = encode(wide, m1, m2, ev_wide)
                assert (row, col) == want[:2] and np.array_equal(x, want[2])
                rec_b, rec_c = sampler.sample_outputs(x[None], SeededRng(m1, m2).random((1, n)))
                assert np.array_equal(decode_rows(cb, rec_b, mem_b).matched,
                                      decode_rows(wide, rec_b, mem_b).matched)
                assert np.array_equal(decode_cols(cb, rec_c, mem_c).matched,
                                      decode_cols(wide, rec_c, mem_c).matched)


class TestPgmDecoder:
    def test_orthogonal_tests_identify_label(self):
        tests = [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])]
        words = np.array([[0], [1], [0], [1]])
        vec = pgm_one_trial(words, tests, np.diag([1.0, 0.0]))
        assert vec == pytest.approx([0.5, 0.0, 0.5, 0.0, 0.0])
        (got,) = decode_pgm(words.T, tests, [np.diag([1.0, 0.0])], [0], [SeededRng(3, 9).random()])
        assert got < len(words)
        assert words[got, 0] == 0

    def test_diagonal_oracle(self):
        rng = np.random.default_rng(77)
        labels = np.array([0, 1, 1, 0, 2, 2])
        tests = [np.diag(rng.uniform(0.05, 1.0, size=4)) for _ in range(3)]
        state_d = rng.uniform(0.0, 1.0, size=4)
        state_d /= state_d.sum()
        counts = np.bincount(labels, minlength=3)
        s_diag = sum(counts[u] * np.diag(tests[u]) for u in range(3))
        q = np.array([float(np.sum(np.diag(tests[u]) * state_d / s_diag)) for u in range(3)])
        want = np.concatenate([q[labels], [0.0]])
        got = pgm_one_trial(labels[:, None], tests, np.diag(state_d))
        assert got == pytest.approx(want, abs=1e-12)

    def test_matches_measurement_construction(self, np_rng):
        # same probabilities as building the per-word measurement explicitly
        from tests.conftest import pretty_good_measurement, rand_psd, rand_state

        labels = np.array([0, 2, 1, 1, 0, 2, 0, 1])
        tests = [rand_psd(np_rng, 3, rank=2) for _ in range(3)]
        tests = [t / (np.linalg.eigvalsh(t).max() + 0.1) for t in tests]
        state = rand_state(np_rng, 3)
        want = pretty_good_measurement([tests[u] for u in labels], state)
        got = pgm_one_trial(labels[:, None], tests, state)
        assert got == pytest.approx(want, abs=1e-9)

    def test_completion_outcome_fails(self):
        tests = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0])]
        words = np.array([[0], [1]])
        state = np.diag([0.0, 0.0, 1.0])
        vec = pgm_one_trial(words, tests, state)
        assert vec == pytest.approx([0.0, 0.0, 1.0])
        # the outcome past the last word is the completion: no message
        (got,) = decode_pgm(words.T, tests, [state], [0], [SeededRng(1, 1).random()])
        assert got == len(words)

    def test_deterministic_given_stream(self):
        tests = [np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]
        words = np.array([[0], [1], [1], [0]])
        state = np.diag([0.6, 0.4])
        a = decode_pgm(words.T, tests, [state], [0], [SeededRng(42, 5).random()])
        b = decode_pgm(words.T, tests, [state], [0], [SeededRng(42, 5).random()])
        assert np.array_equal(a, b)

    def test_blocklength_guard(self):
        # a block of one trial whose two words have three letters each
        with pytest.raises(ValidationError):
            pgm_outcome_probabilities(np.zeros((1, 2, 3), dtype=np.int64),
                                      [np.eye(2)], [np.diag([1.0, 0.0])], [0])

    @pytest.mark.parametrize("sent", [[-1], [2], [0, 1], [], [[0]], [0.0], [True]])
    def test_sent_must_index_the_states(self, sent):
        # one trial and two states: -1 would measure the last state, 2 would
        # read another row of the flat tables, and entries past the trials
        # would be dropped
        tests = [np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]
        states = [np.diag([0.6, 0.4]), np.diag([0.1, 0.9])]
        for call in (lambda: pgm_outcome_probabilities(np.array([[0, 1]]), tests, states, sent),
                     lambda: decode_pgm(np.array([[0, 1]]), tests, states, sent, [0.5])):
            with pytest.raises(ValidationError, match=r"^sent must be 1 integer state indices "
                                                      r"in \[0, 2\)"):
                call()

    @pytest.mark.parametrize("uniforms", [[0.1, 0.9], [], [[0.5]], 0.5])
    def test_uniforms_must_be_one_per_trial(self, uniforms):
        tests = [np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]
        with pytest.raises(ValidationError, match=r"^uniforms must have shape \(1,\)"):
            decode_pgm(np.array([[0, 1]]), tests, [np.diag([0.6, 0.4])], [0], uniforms)

    def test_cached_tables_match_uncached_oracle(self, np_rng):
        from tests.conftest import rand_psd, rand_state

        for _ in range(40):
            dim = int(np_rng.integers(2, 5))
            n_labels = int(np_rng.integers(2, 5))
            tests = [rand_psd(np_rng, dim, rank=int(np_rng.integers(1, dim + 1)))
                     for _ in range(n_labels)]
            tests = [t / (np.linalg.eigvalsh(t).max() + 0.1) for t in tests]
            # label 0 never occurs in the codebook
            words = np_rng.integers(1, n_labels, size=(int(np_rng.integers(1, 300)), 1))
            states = [rand_state(np_rng, dim), DensityOperator(rand_state(np_rng, dim, rank=1)).matrix]
            for state in states + states:  # the second pass reads cached tables
                got = pgm_one_trial(words, tests, state)
                assert np.array_equal(got, uncached_pgm_probabilities(words, tests, state))

    def test_cached_completion_outcome_matches_oracle(self, np_rng):
        # rank-one tests in dimension 3 leave S a kernel the state reaches
        from tests.conftest import rand_psd, rand_state

        tests = [rand_psd(np_rng, 3, rank=1) for _ in range(2)]
        tests = [t / (np.linalg.eigvalsh(t).max() + 0.1) for t in tests]
        words = np.array([[0], [1], [1], [0], [1]])
        state = rand_state(np_rng, 3)
        for _ in range(2):
            got = pgm_one_trial(words, tests, state)
            assert got[-1] > 0.01
            assert np.array_equal(got, uncached_pgm_probabilities(words, tests, state))

    @pytest.mark.parametrize("n_labels", [1, 2, 3])
    def test_blocks_sharing_label_counts_match_one_trial(self, n_labels, np_rng):
        # 90 trials over four label-count vectors and three sent inputs: many
        # trials share a (label counts, sent) row of one table, each with its
        # own word order
        from tests.conftest import rand_psd, rand_state

        tests = [rand_psd(np_rng, 3, rank=2) for _ in range(n_labels)]
        tests = [t / (np.linalg.eigvalsh(t).max() + 0.1) for t in tests]
        states = [rand_state(np_rng, 3) for _ in range(3)]
        bases = np_rng.integers(n_labels, size=(4, 12))
        labels = np.array([np_rng.permutation(bases[t % 4]) for t in range(90)])
        sent = np.arange(90) // 4 % 3
        got = pgm_outcome_probabilities(labels, tests, states, sent)
        assert len({(tuple(np.bincount(w, minlength=n_labels)), x)
                    for w, x in zip(labels, sent)}) < 90
        for j in range(90):
            words, state = labels[j][:, None], states[sent[j]]
            assert np.array_equal(got[j], pgm_one_trial(words, tests, state))
            assert np.array_equal(got[j], uncached_pgm_probabilities(words, tests, state))

    def test_table_cache_keys_on_content(self):
        # equal contents in new objects hit the cache; changed contents miss it
        tests = [np.diag([0.7, 0.2]), np.diag([0.3, 0.8])]
        words = np.array([[0], [1], [1], [0]])
        state = np.diag([0.6, 0.4])
        first = pgm_one_trial(words, tests, state)
        again = pgm_one_trial(words.copy(), [t.copy() for t in tests], state.copy())
        assert np.array_equal(first, again)
        fewer = pgm_one_trial(words[:3], tests, state)
        assert np.array_equal(fewer, uncached_pgm_probabilities(words[:3], tests, state))
        other = pgm_one_trial(words, tests, np.diag([0.1, 0.9]))
        assert np.array_equal(other, uncached_pgm_probabilities(words, tests, np.diag([0.1, 0.9])))
        assert not np.array_equal(first, other)
