"""Smooth divergences: set constructions, NP tests, and iid spectra."""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from martonlab import JointPmf, Pmf, mutual_information
from martonlab.divergences import (
    LlrSpectrum,
    classical_i0,
    classical_i0_iid,
    classical_i_infty,
    classical_i_infty_iid,
    iid_llr_spectrum,
    np_test_blocks,
    quantum_i0,
    quantum_i0_cq,
    spectrum_i0,
    spectrum_i_infty,
    verify_witness,
)
from martonlab.errors import ConvergenceError, SupportOverflowError, ValidationError

from conftest import rand_joint

DSBS_45 = JointPmf(("0", "1"), ("0", "1"), [[0.45, 0.05], [0.05, 0.45]])
DSBS_40 = JointPmf(("0", "1"), ("0", "1"), [[0.40, 0.10], [0.10, 0.40]])
CORRELATED = JointPmf(("0", "1"), ("0", "1"), [[0.5, 0.0], [0.0, 0.5]])
INDEPENDENT = JointPmf(("0", "1"), ("0", "1"), np.outer([0.5, 0.5], [0.5, 0.5]))


def joint_of(matrix) -> JointPmf:
    m = np.asarray(matrix, dtype=float)
    rows = tuple(str(i) for i in range(m.shape[0]))
    cols = tuple(str(j) for j in range(m.shape[1]))
    return JointPmf(rows, cols, m)


def brute_force_i_infty(joint: JointPmf, eps: float) -> float:
    """Minimize the max llr over all feasible cell subsets by enumeration."""
    p = joint.probs
    pu, pv = p.sum(axis=1), p.sum(axis=0)
    cells = [(i, j) for i in range(p.shape[0]) for j in range(p.shape[1]) if p[i, j] > 0]
    best = math.inf
    for r in range(1, len(cells) + 1):
        for sub in itertools.combinations(cells, r):
            mass = sum(p[i, j] for i, j in sub)
            if mass >= 1 - eps - 1e-12:
                worst = max(math.log2(p[i, j] / (pu[i] * pv[j])) for i, j in sub)
                best = min(best, worst)
    return best


def brute_force_i0(joint: JointPmf, eps: float) -> float:
    """Maximize -log2 product mass over all feasible cell subsets."""
    p = joint.probs
    pu, pv = p.sum(axis=1), p.sum(axis=0)
    cells = [(i, j) for i in range(p.shape[0]) for j in range(p.shape[1]) if p[i, j] > 0]
    best = math.inf
    for r in range(1, len(cells) + 1):
        for sub in itertools.combinations(cells, r):
            mass = sum(p[i, j] for i, j in sub)
            if mass >= 1 - eps - 1e-12:
                best = min(best, sum(pu[i] * pv[j] for i, j in sub))
    return -math.log2(best)


def product_joint(base: JointPmf, n: int) -> JointPmf:
    m = base.probs
    labels_r, labels_c = base.row_labels, base.col_labels
    out = m
    rl, cl = list(labels_r), list(labels_c)
    for _ in range(n - 1):
        out = np.kron(out, m)
        rl = [a + b for a in rl for b in labels_r]
        cl = [a + b for a in cl for b in labels_c]
    return JointPmf(tuple(rl), tuple(cl), out)


def diag_embedding(joint: JointPmf):
    """cq ensemble whose register is U and whose states are diagonal p(v|u)."""
    p = joint.probs
    pu = p.sum(axis=1)
    states = [np.diag(p[i] / pu[i]) if pu[i] > 0 else np.zeros((p.shape[1],) * 2) for i in range(p.shape[0])]
    return pu, states


class TestClassicalIInfty:
    def test_independent_is_zero(self):
        for eps in (0.0, 0.1, 0.5):
            assert abs(classical_i_infty(INDEPENDENT, eps).value) < 1e-12

    def test_dsbs_discards_off_diagonal(self):
        res = classical_i_infty(DSBS_40, 0.25)
        assert_allclose(res.value, math.log2(1.6), atol=1e-12)

    def test_correlated_plug_in(self):
        assert_allclose(classical_i_infty(CORRELATED, 0.0).value, 1.0, atol=1e-12)

    def test_matches_brute_force(self, np_rng):
        for _ in range(20):
            j = joint_of(rand_joint(np_rng, 3, 3, zeros=int(np_rng.integers(0, 3))))
            eps = float(np_rng.uniform(0.0, 0.4))
            assert_allclose(classical_i_infty(j, eps).value, brute_force_i_infty(j, eps), atol=1e-10)

    def test_monotone_in_eps(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 4))
        vals = [classical_i_infty(j, e).value for e in (0.0, 0.05, 0.1, 0.2, 0.3)]
        assert np.all(np.diff(vals) <= 1e-12)

    def test_above_minus_one_for_small_eps(self, np_rng):
        # discarding at most a quarter of the mass cannot push the value to -1
        for _ in range(40):
            j = joint_of(rand_joint(np_rng, int(np_rng.integers(2, 5)), int(np_rng.integers(2, 5))))
            assert classical_i_infty(j, float(np_rng.uniform(0, 0.25))).value > -1.0

    def test_eps_validation(self):
        with pytest.raises(ValidationError):
            classical_i_infty(DSBS_40, 1.0)
        with pytest.raises(ValidationError):
            classical_i_infty(DSBS_40, -0.1)

    def test_witness_closure(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 3))
        res = classical_i_infty(j, 0.2)
        assert_allclose(verify_witness(res, joint=j), res.value, atol=1e-9)


class TestClassicalI0:
    def test_full_support_plug_in_is_zero(self):
        assert abs(classical_i0(INDEPENDENT, 0.0, "greedy").value) < 1e-12
        assert abs(classical_i0(DSBS_45, 0.0, "exhaustive").value) < 1e-12

    def test_dsbs_diagonal_set(self):
        for method in ("greedy", "exhaustive"):
            assert_allclose(classical_i0(DSBS_45, 0.15, method).value, 1.0, atol=1e-12)

    def test_correlated_greedy(self):
        assert_allclose(classical_i0(CORRELATED, 0.1, "greedy").value, 1.0, atol=1e-12)

    def test_randomized_exact_boundary_weight(self):
        # full mass 0, boundary = both diagonal cells, w = 0.85 / 0.9
        res = classical_i0(DSBS_45, 0.15, "randomized")
        assert_allclose(res.value, -math.log2((0.85 / 0.9) * 0.5), atol=1e-12)
        res = classical_i0(CORRELATED, 0.1, "randomized")
        assert_allclose(res.value, -math.log2(0.9 * 0.5), atol=1e-12)

    def test_exhaustive_matches_brute_force(self, np_rng):
        for _ in range(20):
            j = joint_of(rand_joint(np_rng, 3, 3, zeros=int(np_rng.integers(0, 3))))
            eps = float(np_rng.uniform(0.0, 0.4))
            assert_allclose(classical_i0(j, eps, "exhaustive").value, brute_force_i0(j, eps), atol=1e-10)

    def test_method_ordering(self, np_rng):
        for _ in range(30):
            j = joint_of(rand_joint(np_rng, 4, int(np_rng.integers(2, 7)), zeros=int(np_rng.integers(0, 4))))
            eps = float(np_rng.uniform(0.01, 0.5))
            g = classical_i0(j, eps, "greedy").value
            e = classical_i0(j, eps, "exhaustive").value
            r = classical_i0(j, eps, "randomized").value
            assert g <= e + 1e-9
            assert e <= r + 1e-9

    def test_monotone_in_eps(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 4))
        for method in ("greedy", "exhaustive", "randomized"):
            vals = [classical_i0(j, e, method).value for e in (0.0, 0.05, 0.1, 0.2, 0.3)]
            assert np.all(np.diff(vals) >= -1e-12)

    def test_exhaustive_cell_cap(self, np_rng):
        j = joint_of(rand_joint(np_rng, 5, 5))
        with pytest.raises(ValidationError):
            classical_i0(j, 0.1, "exhaustive")

    def test_unknown_method(self):
        with pytest.raises(ValidationError):
            classical_i0(DSBS_45, 0.1, "annealed")

    def test_witness_closure_all_methods(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 3))
        for method in ("greedy", "exhaustive", "randomized"):
            res = classical_i0(j, 0.2, method)
            assert_allclose(verify_witness(res, joint=j), res.value, atol=1e-9)


class TestQuantumI0:
    def test_product_state_value(self):
        rho = np.diag([0.7, 0.3])
        for eps in (0.1, 0.25, 0.5):
            res = quantum_i0_cq([0.5, 0.5], [rho, rho], eps)
            assert_allclose(res.value, -math.log2(1 - eps), atol=1e-9)

    def test_correlated_embedding_plug_in(self):
        state = np.diag([0.5, 0.0, 0.0, 0.5])
        res = quantum_i0(state, (2, 2), 0.0)
        assert_allclose(res.value, 1.0, atol=1e-9)

    def test_diagonal_embeddings_match_classical_randomized(self, np_rng):
        for _ in range(15):
            j = joint_of(rand_joint(np_rng, int(np_rng.integers(2, 5)), int(np_rng.integers(2, 5))))
            eps = float(np_rng.uniform(0.02, 0.4))
            pu, states = diag_embedding(j)
            q = quantum_i0_cq(pu, states, eps)
            c = classical_i0(j, eps, "randomized")
            assert_allclose(q.value, c.value, atol=1e-9)

    def test_nonclassical_register_rejected(self):
        state = np.full((4, 4), 0.25)  # coherent across U
        with pytest.raises(ValidationError):
            quantum_i0(state, (2, 2), 0.1)

    def test_shape_validation(self):
        with pytest.raises(ValidationError):
            quantum_i0(np.eye(4) / 4, (2, 3), 0.1)

    def test_iteration_budget(self):
        pu, states = diag_embedding(DSBS_45)
        with pytest.raises(ConvergenceError):
            quantum_i0_cq(pu, states, 0.1, max_iter=2)

    def test_witness_closure(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 3))
        pu, states = diag_embedding(j)
        res = quantum_i0_cq(pu, states, 0.15)
        assert_allclose(verify_witness(res, ensemble=(pu, states)), res.value, atol=1e-9)

    def test_test_blocks_are_valid_operators(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 3))
        pu, states = diag_embedding(j)
        res = quantum_i0_cq(pu, states, 0.15)
        for g in np_test_blocks(pu, states, res.witness["lambda"], res.witness["boundary_weight"]):
            vals = np.linalg.eigvalsh(g)
            assert vals[0] >= -1e-10 and vals[-1] <= 1 + 1e-10


class TestSpectra:
    def test_single_copy_atoms(self):
        s = iid_llr_spectrum(DSBS_45, 1)
        assert_allclose(s.values, [math.log2(0.2), math.log2(1.8)], atol=1e-12)
        assert_allclose(s.probs, [0.1, 0.9], atol=1e-12)

    def test_independent_base_collapses_to_zero(self):
        s = iid_llr_spectrum(INDEPENDENT, 16)
        assert len(s) == 1
        assert_allclose(s.values, [0.0], atol=1e-9)

    def test_mean_is_n_times_mutual_information(self):
        for n in (1, 4, 9):
            s = iid_llr_spectrum(DSBS_40, n)
            assert_allclose(s.mean(), n * mutual_information(DSBS_40), atol=1e-9)

    def test_binary_symmetric_atom_count_is_linear(self):
        s = iid_llr_spectrum(DSBS_45, 32)
        assert len(s) == 33

    def test_atom_cap_enforced(self, np_rng):
        j = joint_of(rand_joint(np_rng, 3, 3))
        with pytest.raises(SupportOverflowError):
            iid_llr_spectrum(j, 40, merge_tol=0.0, atom_cap=2000)

    def test_n1_consistency_with_direct_methods(self, np_rng):
        for _ in range(10):
            j = joint_of(rand_joint(np_rng, 3, 3))
            eps = float(np_rng.uniform(0.05, 0.4))
            assert_allclose(classical_i0_iid(j, 1, eps).value,
                            classical_i0(j, eps, "randomized").value, atol=1e-9)
            assert_allclose(classical_i_infty_iid(j, 1, eps).value,
                            classical_i_infty(j, eps).value, atol=1e-9)

    def test_n2_matches_explicit_product(self, np_rng):
        for _ in range(6):
            j = joint_of(rand_joint(np_rng, 2, 3))
            big = product_joint(j, 2)
            eps = float(np_rng.uniform(0.05, 0.4))
            assert_allclose(classical_i0_iid(j, 2, eps).value,
                            classical_i0(big, eps, "randomized").value, atol=1e-9)
            assert_allclose(classical_i_infty_iid(j, 2, eps).value,
                            classical_i_infty(big, eps).value, atol=1e-9)

    def test_thresholded_below_randomized(self, np_rng):
        j = joint_of(rand_joint(np_rng, 2, 2))
        for n in (1, 3, 8):
            t = classical_i0_iid(j, n, 0.1, method="thresholded").value
            r = classical_i0_iid(j, n, 0.1, method="randomized").value
            assert t <= r + 1e-12

    def test_frozen_normalized_gaps(self):
        # regression pins for the diag-0.45 base at eps = 0.05, checked
        # against explicit product-alphabet enumeration when first derived
        target = mutual_information(DSBS_45)
        expected = {8: 0.17092, 16: 0.18084, 32: 0.15059}
        for n, gap in expected.items():
            val = classical_i0_iid(DSBS_45, n, 0.05).value
            assert_allclose(target - val / n, gap, atol=5e-5)

    def test_witness_closure(self):
        s = iid_llr_spectrum(DSBS_45, 8)
        for method in ("randomized", "thresholded"):
            res = spectrum_i0(s, 0.1, method)
            assert_allclose(verify_witness(res, spectrum=s), res.value, atol=1e-9)
        res = spectrum_i_infty(s, 0.1)
        assert_allclose(verify_witness(res, spectrum=s), res.value, atol=1e-9)

    def test_subnormal_masses_keep_atoms_ascending(self):
        # at n=256 the smallest masses are subnormal; their weighted-mean
        # values used to fall outside their merge groups, out of order
        erasure = JointPmf(("0", "1"), ("0", "e", "1"),
                           np.array([[0.425, 0.05, 0.025], [0.025, 0.05, 0.425]]))
        s = iid_llr_spectrum(erasure, 256)
        assert s.probs.min() < np.finfo(float).tiny
        assert np.all(np.diff(s.values) > 0)
        assert_allclose(s.mean(), 256 * mutual_information(erasure), rtol=1e-9)

    def test_spectrum_validation(self):
        with pytest.raises(ValidationError):
            LlrSpectrum(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            LlrSpectrum(np.array([0.5, 1.0]), np.array([0.5, 0.6]))


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=6, max_size=6), st.floats(0.0, 0.45))
def test_property_i0_never_exceeds_randomized(weights, eps):
    m = np.array(weights).reshape(2, 3)
    j = joint_of(m / m.sum())
    g = classical_i0(j, eps, "greedy").value
    e = classical_i0(j, eps, "exhaustive").value
    r = classical_i0(j, eps, "randomized").value
    assert g <= e + 1e-9 <= r + 2e-9


@settings(max_examples=60, deadline=None)
@given(st.lists(st.floats(0.01, 1.0), min_size=4, max_size=4), st.floats(0.0, 0.45))
def test_property_i_infty_bounded_by_plug_in(weights, eps):
    m = np.array(weights).reshape(2, 2)
    j = joint_of(m / m.sum())
    smooth = classical_i_infty(j, eps).value
    plug_in = classical_i_infty(j, 0.0).value
    assert smooth <= plug_in + 1e-12
