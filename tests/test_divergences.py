"""Smooth divergences: set constructions, NP tests, and iid spectra."""

import itertools
import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from martonlab import JointPmf, divergences, mutual_information
from martonlab.divergences import (
    DivergenceResult,
    LlrSpectrum,
    classical_i0,
    classical_i_infty,
    classical_i_infty_iid,
    iid_llr_spectra,
    iid_llr_spectrum,
    np_test_blocks,
    quantum_i0_cq,
    spectrum_i0,
    spectrum_i_infty,
)
from martonlab.errors import ConvergenceError, SupportOverflowError, ValidationError
from martonlab.quantum import real_trace

from conftest import rand_joint, spectrum_mean

DSBS_45 = JointPmf(("0", "1"), ("0", "1"), [[0.45, 0.05], [0.05, 0.45]])
DSBS_40 = JointPmf(("0", "1"), ("0", "1"), [[0.40, 0.10], [0.10, 0.40]])
CORRELATED = JointPmf(("0", "1"), ("0", "1"), [[0.5, 0.0], [0.0, 0.5]])
INDEPENDENT = JointPmf(("0", "1"), ("0", "1"), np.outer([0.5, 0.5], [0.5, 0.5]))
ERASURE = JointPmf(("0", "1"), ("0", "e", "1"), [[0.425, 0.05, 0.025], [0.025, 0.05, 0.425]])


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


def classical_i0_iid(base: JointPmf, n: int, eps: float, method: str = "randomized"):
    """Order-zero divergence of n iid copies of a base joint, via its spectrum."""
    return spectrum_i0(iid_llr_spectrum(base, n), eps, method)


def _set_masses(joint: JointPmf, cells):
    p = joint.probs
    pu = p.sum(axis=1)
    pv = p.sum(axis=0)
    mass = prod = 0.0
    worst = -np.inf
    for u, v in cells:
        i, j = joint.row_labels.index(u), joint.col_labels.index(v)
        mass += float(p[i, j])
        prod += float(pu[i] * pv[j])
        if p[i, j] > 0:
            worst = max(worst, float(np.log2(p[i, j] / (pu[i] * pv[j]))))
    return mass, prod, worst


def verify_witness(result: DivergenceResult, *, joint: JointPmf | None = None,
                   ensemble=None, spectrum: LlrSpectrum | None = None) -> float:
    """Recompute a result's objective from its witness alone.

    Returns the re-evaluated value; raises if the witness is infeasible
    for ``result.epsilon``.  Pass the object the result was computed
    from: ``joint`` for classical results, ``ensemble=(p_u, rho_u)``
    for cq results, ``spectrum`` for spectrum results.
    """
    wit = result.witness
    kind = wit.get("kind")
    slack = 1e-9
    if kind in ("max-div-set", "min-div-set"):
        mass, prod, worst = _set_masses(joint, wit["cells"])
        if mass < 1.0 - result.epsilon - slack:
            raise ValidationError(f"witness set keeps mass {mass}, needs {1.0 - result.epsilon}")
        return worst if kind == "max-div-set" else float(-np.log2(prod))
    if kind == "min-div-randomized":
        m_full, q_full, _ = _set_masses(joint, wit["full_cells"])
        m_bnd, q_bnd, _ = _set_masses(joint, wit["boundary_cells"])
        w = wit["boundary_weight"]
        if m_full + w * m_bnd < 1.0 - result.epsilon - slack:
            raise ValidationError("randomized witness infeasible")
        return float(-np.log2(q_full + w * q_bnd))
    if kind == "np-test":
        p_u, rho_u = ensemble
        gammas = np_test_blocks(p_u, rho_u, wit["lambda"], wit["boundary_weight"])
        rho_avg = sum(pu * np.asarray(r) for pu, r in zip(np.asarray(p_u, dtype=float), rho_u))
        alpha = sum(pu * real_trace(g, r) for pu, g, r in zip(p_u, gammas, rho_u))
        beta = sum(pu * real_trace(g, rho_avg) for pu, g in zip(p_u, gammas))
        if alpha < 1.0 - result.epsilon - 1e-6:
            raise ValidationError(f"test operator keeps mass {alpha}, needs {1.0 - result.epsilon}")
        return float(-np.log2(beta))
    if kind == "spectrum-threshold":
        tau = wit["threshold"]
        sel = spectrum.values >= tau - 1e-12
        mass = float(spectrum.probs[sel].sum())
        if wit["objective"] == "max":
            low = spectrum.values <= tau + 1e-12
            if float(spectrum.probs[low].sum()) < 1.0 - result.epsilon - slack:
                raise ValidationError("threshold witness infeasible")
            return float(tau)
        if mass < 1.0 - result.epsilon - slack:
            raise ValidationError("threshold witness infeasible")
        return float(-np.log2(np.sum(spectrum.probs[sel] * np.exp2(-spectrum.values[sel]))))
    if kind == "spectrum-randomized":
        tau, w = wit["threshold"], wit["boundary_weight"]
        above = spectrum.values > tau + 1e-12
        at = np.abs(spectrum.values - tau) <= 1e-12
        mass = float(spectrum.probs[above].sum() + w * spectrum.probs[at].sum())
        if mass < 1.0 - result.epsilon - slack:
            raise ValidationError("randomized spectrum witness infeasible")
        beta = float(np.sum(spectrum.probs[above] * np.exp2(-spectrum.values[above]))
                     + w * np.sum(spectrum.probs[at] * np.exp2(-spectrum.values[at])))
        return float(-np.log2(beta))
    raise ValidationError(f"unknown witness kind {kind!r}")


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
        res = quantum_i0_cq([0.5, 0.5], [np.diag([1.0, 0.0]), np.diag([0.0, 1.0])], 0.0)
        assert_allclose(res.value, 1.0, atol=1e-9)

    def test_diagonal_embeddings_match_classical_randomized(self, np_rng):
        for _ in range(15):
            j = joint_of(rand_joint(np_rng, int(np_rng.integers(2, 5)), int(np_rng.integers(2, 5))))
            eps = float(np_rng.uniform(0.02, 0.4))
            pu, states = diag_embedding(j)
            q = quantum_i0_cq(pu, states, eps)
            c = classical_i0(j, eps, "randomized")
            assert_allclose(q.value, c.value, atol=1e-9)

    def test_iteration_budget(self, monkeypatch):
        pu, states = diag_embedding(DSBS_45)
        monkeypatch.setattr(divergences, "_NP_MAX_ITER", 2)
        with pytest.raises(ConvergenceError):
            quantum_i0_cq(pu, states, 0.1)

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
            assert_allclose(spectrum_mean(s), n * mutual_information(DSBS_40), atol=1e-9)

    def test_binary_symmetric_atom_count_is_linear(self):
        s = iid_llr_spectrum(DSBS_45, 32)
        assert len(s) == 33

    def test_atom_cap_enforced(self, np_rng, monkeypatch):
        j = joint_of(rand_joint(np_rng, 3, 3))
        monkeypatch.setattr(divergences, "SPECTRUM_MERGE_TOL", 0.0)
        monkeypatch.setattr(divergences, "SPECTRUM_ATOM_CAP", 2000)
        with pytest.raises(SupportOverflowError):
            iid_llr_spectrum(j, 40)

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
        s = iid_llr_spectrum(ERASURE, 256)
        assert s.probs.min() < np.finfo(float).tiny
        assert np.all(np.diff(s.values) > 0)
        assert_allclose(spectrum_mean(s), 256 * mutual_information(ERASURE), rtol=1e-9)

    def test_subnormal_masses_stay_on_the_lattice(self):
        # a binary llr takes only the n + 1 values k a + (n - k) b; at
        # n=1024 the smallest masses are subnormal, and a weighted mean of
        # subnormal masses used to leave the lattice (3,099 atoms)
        n = 1024
        s = iid_llr_spectrum(DSBS_40, n)
        a, b = math.log2(0.4 / 0.25), math.log2(0.1 / 0.25)
        k = np.round((s.values - n * b) / (a - b))
        assert s.probs.min() < np.finfo(float).tiny
        assert len(s) <= n + 1
        assert np.abs(s.values - (k * a + (n - k) * b)).max() <= 1e-9

    def test_one_pass_spectra_match_single_spectra(self):
        ns = [128, 1, 56, 56]
        for base in (DSBS_40, ERASURE):
            spectra = iid_llr_spectra(base, ns)
            assert len(spectra) == len(ns)
            for n, s in zip(ns, spectra):
                one = iid_llr_spectrum(base, n)
                assert s.values.tobytes() == one.values.tobytes()
                assert s.probs.tobytes() == one.probs.tobytes()

    def test_spectra_reject_nonpositive_n(self):
        with pytest.raises(ValidationError):
            iid_llr_spectra(DSBS_40, [4, 0])

    def test_spectrum_validation(self):
        with pytest.raises(ValidationError):
            LlrSpectrum(np.array([1.0, 0.5]), np.array([0.5, 0.5]))
        with pytest.raises(ValidationError):
            LlrSpectrum(np.array([0.5, 1.0]), np.array([0.5, 0.6]))


def same_bits(a: LlrSpectrum, b: LlrSpectrum) -> bool:
    return (a.values.tobytes() == b.values.tobytes()
            and a.probs.tobytes() == b.probs.tobytes())


class TestSpectraMemo:
    """``iid_llr_spectra`` returns a repeat call's spectra from its memo."""

    CURVE_N = [1, 2, 4, 8, 16, 32, 64, 128]

    @pytest.mark.parametrize("base,ns", [(ERASURE, CURVE_N), (DSBS_40, [1024])],
                             ids=["erasure-128", "dsbs40-1024"])
    def test_memoized_spectra_equal_a_fresh_build(self, base, ns):
        first = iid_llr_spectra(base, ns)
        # the same set of n in another order is the same entry
        again = iid_llr_spectra(base, ns[::-1])[::-1]
        assert all(a is b for a, b in zip(first, again))
        divergences._spectra_memo.cache_clear()
        fresh = iid_llr_spectra(base, ns)
        assert all(a is not b and same_bits(a, b) for a, b in zip(first, fresh))

    def test_entries_are_keyed_by_probabilities_not_labels(self):
        relabelled = JointPmf(("a", "b"), ("x", "y"), DSBS_40.probs)
        assert iid_llr_spectrum(DSBS_40, 8) is iid_llr_spectrum(relabelled, 8)
        other = JointPmf(("a", "b"), ("x", "y"), [[0.40, 0.10], [0.10, 0.40 + 1e-15]])
        s = iid_llr_spectrum(other, 8)
        assert s is not iid_llr_spectrum(DSBS_40, 8)
        assert not same_bits(s, iid_llr_spectrum(DSBS_40, 8))

    def test_returned_arrays_are_read_only(self):
        s = iid_llr_spectra(ERASURE, [3, 5])[1]
        assert iid_llr_spectra(ERASURE, [3, 5])[1] is s
        for arr in (s.values, s.probs):
            assert not arr.flags.writeable
            with pytest.raises(ValueError):
                arr[0] = 0.0

    def test_memo_holds_at_most_the_atom_budget(self, monkeypatch):
        # DSBS_45 has n + 1 atoms at n: small results, a 20-atom budget
        monkeypatch.setattr(divergences, "SPECTRUM_ATOM_CAP", 20)
        small = iid_llr_spectra(DSBS_45, [1, 2, 3])  # 9 atoms
        assert iid_llr_spectra(DSBS_45, [1, 2, 3])[0] is small[0]
        big = iid_llr_spectra(DSBS_45, range(1, 9))  # 44 atoms, each n at most 9
        again = iid_llr_spectra(DSBS_45, range(1, 9))
        assert all(a is not b and same_bits(a, b) for a, b in zip(big, again))
        assert iid_llr_spectra(DSBS_45, [1, 2, 3])[0] is small[0]
        mid = iid_llr_spectra(DSBS_45, [4, 5])  # 11 atoms: 20 in all, both kept
        assert iid_llr_spectra(DSBS_45, [1, 2, 3])[0] is small[0]
        assert iid_llr_spectra(DSBS_45, [4, 5])[0] is mid[0]
        # 7 more atoms drop the least recently used entry, [1, 2, 3]
        iid_llr_spectrum(DSBS_45, 6)
        assert iid_llr_spectra(DSBS_45, [4, 5])[0] is mid[0]
        assert iid_llr_spectra(DSBS_45, [1, 2, 3])[0] is not small[0]

    def test_threads_building_distinct_bases_get_correct_spectra(self, monkeypatch):
        # more threads than cores, switching often, and a budget below the
        # bases' atoms, so the threads also evict each other's entries
        monkeypatch.setattr(divergences, "SPECTRUM_ATOM_CAP", 300)
        jobs = [(ERASURE, [[1, 2, 4, 8, 16], [3, 5, 7], [16]]),
                (DSBS_40, [[1, 2, 4, 8, 16, 32, 64], [9, 10], [64, 1]]),
                (DSBS_45, [[100], [1, 50], [7, 8, 9]]),
                (CORRELATED, [[1, 2, 3], [200]])]
        want = [[iid_llr_spectra(base, ns) for ns in sets] for base, sets in jobs]
        divergences._spectra_memo.cache_clear()
        start = threading.Barrier(len(jobs))
        wrong = []

        def work(base, sets, expected):
            start.wait(timeout=60)
            for _ in range(40):
                for ns, spectra in zip(sets, expected):
                    if not all(map(same_bits, iid_llr_spectra(base, ns), spectra)):
                        wrong.append(ns)

        threads = [threading.Thread(target=work, args=(base, sets, expected))
                   for (base, sets), expected in zip(jobs, want)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert not wrong
        # the atom count survived the concurrent updates
        memo = divergences._spectra_memo
        held = sum(atoms for _, atoms in memo._entries.values())
        assert memo._atoms == held <= 300


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
