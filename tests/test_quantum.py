"""Operators, partial traces, measurements, and the operator-inequality check.

The measurement tests run the library's pretty good measurement,
``coding.pgm_outcome_probabilities`` (one trial at a time through
``conftest.pgm_one_trial``) and ``coding.decode_pgm``.
"""

import numpy as np
import pytest
from numpy.testing import assert_allclose
from scipy.stats import chisquare

from martonlab import SeededRng, coding
from martonlab.coding import decode_pgm
from martonlab.errors import (
    HermiticityError,
    NormalizationError,
    PositivityError,
    ValidationError,
)
from martonlab.quantum import (
    DensityOperator,
    hayashi_nagaoka_check,
    matrix_from_json,
    matrix_to_json,
    partial_trace,
    pinv_sqrt,
    real_trace,
)

from conftest import (
    pgm_one_trial,
    pretty_good_measurement,
    rand_hermitian,
    rand_psd,
    rand_state,
    uncached_pgm_probabilities,
)

BELL = DensityOperator(np.outer([1, 0, 0, 1], [1, 0, 0, 1]) / 2.0)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


class TestWrappers:
    def test_hermitian_validation(self):
        # hermiticity is checked before positivity and trace
        assert DensityOperator((np.eye(2) + 0.5 * PAULI_X) / 2).dim == 2
        with pytest.raises(HermiticityError):
            DensityOperator([[0, 1], [0, 0]])
        with pytest.raises(ValidationError):
            DensityOperator(np.zeros((2, 3)))

    def test_density_validation(self):
        DensityOperator(np.eye(2) / 2)
        with pytest.raises(NormalizationError):
            DensityOperator(np.eye(2))
        with pytest.raises(PositivityError):
            DensityOperator(np.diag([1.5, -0.5]))

    def test_pure_state_normalizes(self):
        v = np.array([3.0, 4.0])
        with pytest.raises(NormalizationError):
            DensityOperator(np.outer(v, v))
        rho = DensityOperator(np.outer(v, v) / 25.0)
        assert_allclose(real_trace(rho.matrix), 1.0, atol=1e-14)
        assert_allclose(rho.matrix[0, 0], 9 / 25, atol=1e-14)


class TestTensorAndPartialTrace:
    def test_bell_marginals_are_maximally_mixed(self):
        for keep in ((0,), (1,)):
            red = partial_trace(BELL.matrix, (2, 2), keep)
            assert_allclose(red, np.eye(2) / 2, atol=1e-14)

    def test_product_state_recovers_factors(self, np_rng):
        a = rand_state(np_rng, 2)
        b = rand_state(np_rng, 3)
        ab = np.kron(a, b)
        assert_allclose(partial_trace(ab, (2, 3), (0,)), a, atol=1e-13)
        assert_allclose(partial_trace(ab, (2, 3), (1,)), b, atol=1e-13)

    def test_three_party_keep_two(self, np_rng):
        a, b, c = rand_state(np_rng, 2), rand_state(np_rng, 2), rand_state(np_rng, 3)
        abc = np.kron(np.kron(a, b), c)
        assert_allclose(partial_trace(abc, (2, 2, 3), (0, 2)), np.kron(a, c), atol=1e-13)

    def test_trace_preserved(self, np_rng):
        rho = rand_state(np_rng, 12)
        red = partial_trace(rho, (3, 4), (1,))
        assert_allclose(np.trace(red), 1.0, atol=1e-12)

    def test_shape_and_keep_validation(self):
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4), (2, 3), (0,))
        with pytest.raises(ValidationError):
            partial_trace(np.eye(4), (2, 2), (1, 0))


class TestEig:
    def test_reconstruction(self, np_rng):
        # the pseudo-inverse square root from the eigendecomposition of a
        # rank-deficient PSD matrix rebuilds the matrix and its support projector
        m = rand_psd(np_rng, 6, rank=4)
        inv_sqrt, supp = pinv_sqrt(m)
        assert_allclose(m @ inv_sqrt @ inv_sqrt @ m, m, atol=1e-10)
        assert_allclose(inv_sqrt @ m @ inv_sqrt, supp, atol=1e-10)
        assert_allclose(supp @ supp, supp, atol=1e-12)
        assert_allclose(np.sort(np.linalg.eigvalsh(supp)), [0, 0, 1, 1, 1, 1], atol=1e-10)



class TestPovmAndPgm:
    def test_pgm_orthogonal_projectors_unchanged(self):
        p0 = np.diag([1.0, 0.0])
        p1 = np.diag([0.0, 1.0])
        words = np.array([[0], [1]])
        assert_allclose(pgm_one_trial(words, [p0, p1], p0), [1, 0, 0], atol=1e-12)
        assert_allclose(pgm_one_trial(words, [p0, p1], p1), [0, 1, 0], atol=1e-12)

    def test_pgm_single_operator_gives_support_projector(self, np_rng):
        a = rand_psd(np_rng, 4, rank=2)
        vals, vecs = np.linalg.eigh(a)
        supp = vecs[:, 2:] @ vecs[:, 2:].conj().T
        rho = rand_state(np_rng, 4)
        inside = real_trace(supp, rho)
        got = pgm_one_trial(np.array([[0]]), [a], rho)
        assert_allclose(got, [inside, 1.0 - inside], atol=1e-10)

    def test_pgm_random_sets_are_valid_povms(self, np_rng):
        for _ in range(25):
            dim = int(np_rng.integers(2, 6))
            k = int(np_rng.integers(1, 5))
            ops = [rand_psd(np_rng, dim, rank=int(np_rng.integers(1, dim + 1))) for _ in range(k)]
            words = np_rng.integers(k, size=(int(np_rng.integers(1, 7)), 1))
            state = rand_state(np_rng, dim)
            # the oracle asserts that its per-word elements form a POVM
            want = pretty_good_measurement([ops[u] for u in words[:, 0]], state)
            got = pgm_one_trial(words, ops, state)
            assert got.shape == (words.shape[0] + 1,)
            assert_allclose(got, want, atol=1e-9)

    def test_pgm_rank_deficient_sum(self):
        # operators confined to a 2-dim subspace of a 3-dim space
        a = np.diag([0.3, 0.7, 0.0])
        b = np.diag([0.5, 0.1, 0.0])
        words = np.array([[0], [1]])
        assert_allclose(pgm_one_trial(words, [a, b], np.diag([0.0, 0.0, 1.0])),
                        [0.0, 0.0, 1.0], atol=1e-12)
        assert pgm_one_trial(words, [a, b], np.diag([0.5, 0.5, 0.0]))[2] < 1e-12

    def test_pgm_one_eigendecomposition_for_all_states(self, np_rng, monkeypatch):
        # S^{-1/2} depends on the tests and the label counts only, so the
        # four states of a two-qubit-input channel share one pinv_sqrt; the
        # probabilities equal the per-state formula bit for bit
        tests = [rand_psd(np_rng, 2, rank=1), rand_psd(np_rng, 2)]
        tests = [t / np.linalg.eigvalsh(t)[-1] for t in tests]
        words = np_rng.integers(2, size=(64, 1))
        states = [rand_state(np_rng, 2) for _ in range(4)]
        calls = []
        monkeypatch.setattr(coding, "pinv_sqrt", lambda m: calls.append(1) or pinv_sqrt(m))
        coding._pgm_elements.cache_clear()
        coding._pgm_table.cache_clear()
        for rho in states:
            assert np.array_equal(pgm_one_trial(words, tests, rho),
                                  uncached_pgm_probabilities(words, tests, rho))
        assert len(calls) == 1

    def test_pgm_rejects_negative_operator(self):
        with pytest.raises(AssertionError):
            pretty_good_measurement([np.diag([1.0, -0.2])], np.eye(2) / 2)


class TestMeasure:
    TESTS = [np.diag([1.0, 0.0, 0.0]), np.diag([0.0, 1.0, 0.0]), np.diag([0.0, 0.0, 1.0])]
    WORDS = np.array([[0], [1], [2]])

    def test_deterministic_outcome(self):
        rng = SeededRng(3)
        rho = np.diag([1.0, 0.0, 0.0])
        got = decode_pgm(np.tile(self.WORDS.T, (50, 1)), self.TESTS, [rho], np.zeros(50, int),
                         rng.random(50))
        assert np.array_equal(got, np.zeros(50))

    def test_frequencies_match_born_rule(self):
        rho = DensityOperator(np.diag([0.5, 0.3, 0.2]))
        n = 20_000
        rng = SeededRng(11)
        out = decode_pgm(np.tile(self.WORDS.T, (n, 1)), self.TESTS, [rho], np.zeros(n, int),
                         rng.random(n))
        counts = np.bincount(out, minlength=3)
        # chi-square goodness of fit at the 1e-3 level
        stat, pval = chisquare(counts, n * np.array([0.5, 0.3, 0.2]))
        assert pval > 1e-3

    def test_probability_sum_enforced(self):
        bad = np.diag([2.0, 0.0, 0.0])  # trace 2, not a state; bypass the wrapper on purpose
        with pytest.raises(ValidationError):
            pgm_one_trial(self.WORDS, self.TESTS, bad)


class TestHayashiNagaoka:
    def test_projector_extremes(self):
        assert abs(hayashi_nagaoka_check(np.eye(3), np.zeros((3, 3)))) < 1e-12
        assert hayashi_nagaoka_check(np.zeros((3, 3)), np.eye(3)) >= 0.0

    def test_zero_zero_is_slack_identity(self):
        assert_allclose(hayashi_nagaoka_check(np.zeros((2, 2)), np.zeros((2, 2))), 1.0, atol=1e-12)

    def test_validates_inputs(self):
        with pytest.raises(ValidationError):
            hayashi_nagaoka_check(np.eye(2) * 1.5, np.zeros((2, 2)))
        with pytest.raises(PositivityError):
            hayashi_nagaoka_check(np.eye(2) * 0.5, -np.eye(2))

    def test_random_pairs_never_negative(self, np_rng):
        # the acceptance suite sweeps 200 pairs per dimension; this is a fast spot check
        for _ in range(60):
            dim = int(np_rng.integers(2, 9))
            s = rand_psd(np_rng, dim, rank=int(np_rng.integers(1, dim + 1)))
            s = s / (np.linalg.eigvalsh(s)[-1] * (1.0 + float(np_rng.random())))
            t = rand_psd(np_rng, dim, rank=int(np_rng.integers(1, dim + 1))) * float(np_rng.random() * 2)
            assert hayashi_nagaoka_check(s, t) >= -1e-9

    def test_subspace_supported_pair(self):
        s = np.diag([0.8, 0.3, 0.0, 0.0])
        t = np.diag([0.1, 0.4, 0.0, 0.0])
        assert hayashi_nagaoka_check(s, t) >= -1e-9


class TestMatrixJson:
    def test_round_trip(self, np_rng):
        m = rand_hermitian(np_rng, 3)
        back = matrix_from_json(matrix_to_json(m))
        assert_allclose(back, m, atol=0)

    def test_rejects_ragged(self):
        with pytest.raises(ValidationError):
            matrix_from_json({"dim": 2, "entries": [[[1, 0]], [[0, 0], [1, 0]]]})
