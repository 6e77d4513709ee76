"""Smooth Renyi divergence quantities between a joint and its marginals.

Two families matter here.  The smooth order-zero quantity (min type)
asks how small the product-of-marginals mass of a test set can be while
the set keeps nearly all of the joint mass; it governs decodability.
The smooth max type asks how small the worst joint-to-product ratio can
be made by discarding a little joint mass; it governs how aggressively
a rejection sampler can thin a codebook.  Classical inputs admit exact
set constructions; classical-quantum inputs go through a bisected
Neyman-Pearson test with fractional weight on the boundary eigenspace.

All values are in bits.  Feasibility thresholds of the form
"mass at least 1 - eps" are treated as closed constraints, met within
``MASS_TOL``, so optima are attained.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, SupportOverflowError, ValidationError
from .prob import JointPmf

__all__ = [
    "DivergenceResult",
    "classical_i_infty",
    "classical_i0",
    "quantum_i0_cq",
    "np_test_blocks",
    "LlrSpectrum",
    "iid_llr_spectrum",
    "iid_llr_spectra",
    "classical_i_infty_iid",
    "spectrum_i0",
    "spectrum_i_infty",
    "llr_table",
    "I0_METHODS",
    "MASS_TOL",
    "EXHAUSTIVE_CELL_CAP",
    "SPECTRUM_ATOM_CAP",
]

# the order-zero constructions of classical_i0
I0_METHODS = ("greedy", "exhaustive", "randomized")
MASS_TOL = 1e-12
# meet-in-the-middle enumeration is exact but exponential; cap the cells
EXHAUSTIVE_CELL_CAP = 24
# llr spectra merge atoms closer than SPECTRUM_MERGE_TOL bits and stop
# past SPECTRUM_ATOM_CAP atoms
SPECTRUM_MERGE_TOL = 1e-9
SPECTRUM_ATOM_CAP = 1_000_000
_TINY = np.finfo(float).tiny
_NP_MAX_ITER = 200
_BOUNDARY_RTOL = 1e-9


@dataclass(frozen=True)
class DivergenceResult:
    """Value of a smooth divergence computation plus its witness.

    ``witness`` is a JSON-friendly dict whose ``kind`` key says how to
    re-evaluate the objective.
    """

    value: float
    epsilon: float
    method: str
    witness: dict

    def to_json(self) -> dict:
        return {
            "value": self.value,
            "epsilon": self.epsilon,
            "method": self.method,
            "witness": self.witness,
        }


def _check_eps(eps: float) -> float:
    eps = float(eps)
    if not 0.0 <= eps < 1.0:
        raise ValidationError(f"eps must lie in [0, 1), got {eps}")
    return eps


def _positive_cells(joint: JointPmf):
    """Flat arrays (p, q, ratio, row, col) over cells with positive joint mass."""
    p = joint.probs
    pu = p.sum(axis=1)
    pv = p.sum(axis=0)
    rows, cols = np.nonzero(p > 0.0)
    pj = p[rows, cols]
    q = pu[rows] * pv[cols]
    return pj, q, pj / q, rows, cols


def _cell_labels(joint: JointPmf, rows, cols) -> list:
    return [[joint.row_labels[i], joint.col_labels[j]] for i, j in zip(rows, cols)]


def llr_table(joint: JointPmf) -> np.ndarray:
    """log2 of p(u,v) / (p(u) p(v)) per cell, -inf where the joint is zero."""
    p = joint.probs
    pu = p.sum(axis=1, keepdims=True)
    pv = p.sum(axis=0, keepdims=True)
    out = np.full(p.shape, -np.inf)
    mask = p > 0.0
    np.log2(p, out=out, where=mask)
    out[mask] -= np.log2(pu * pv)[mask]
    return out


def classical_i_infty(joint: JointPmf, eps: float) -> DivergenceResult:
    """Smooth max divergence of a joint pmf against its marginal product.

    Minimizes the worst log2 ratio p(u,v) / (p(u) p(v)) over subsets
    keeping joint mass at least 1 - eps.  The optimum is the lower set
    of the likelihood ratio filled until the mass constraint holds.
    """
    eps = _check_eps(eps)
    pj, q, ratio, rows, cols = _positive_cells(joint)
    order = np.argsort(ratio, kind="stable")
    cum = np.cumsum(pj[order])
    k = int(np.searchsorted(cum, 1.0 - eps - MASS_TOL))
    if k >= order.size:
        k = order.size - 1
    chosen = order[: k + 1]
    value = float(np.log2(ratio[order[k]]))
    witness = {
        "kind": "max-div-set",
        "cells": _cell_labels(joint, rows[chosen], cols[chosen]),
        "mass": float(cum[k]),
    }
    return DivergenceResult(value, eps, "lower-set", witness)


def _greedy_i0(pj, q, ratio, target):
    order = np.argsort(-ratio, kind="stable")
    cum = np.cumsum(pj[order])
    k = int(np.searchsorted(cum, target - MASS_TOL))
    if k >= order.size:
        k = order.size - 1
    chosen = order[: k + 1]
    return chosen, float(q[chosen].sum()), float(cum[k])


def _subset_sums(w: np.ndarray) -> np.ndarray:
    # index doubles as the subset bitmask of w
    s = np.zeros(1)
    for x in w:
        s = np.concatenate([s, s + x])
    return s


def _exhaustive_i0(pj, q, target):
    m = pj.size
    half = m // 2
    pa, qa = _subset_sums(pj[:half]), _subset_sums(q[:half])
    pb, qb = _subset_sums(pj[half:]), _subset_sums(q[half:])
    order = np.argsort(pb, kind="stable")
    pb_s, qb_s = pb[order], qb[order]
    n = pb_s.size
    suffix_min = np.empty(n)
    suffix_arg = np.empty(n, dtype=np.int64)
    best, best_i = np.inf, -1
    for i in range(n - 1, -1, -1):
        if qb_s[i] <= best:
            best, best_i = qb_s[i], i
        suffix_min[i] = best
        suffix_arg[i] = best_i
    pos = np.searchsorted(pb_s, target - pa - MASS_TOL)
    valid = pos < n
    total = np.where(valid, qa + suffix_min[np.clip(pos, 0, n - 1)], np.inf)
    a_best = int(np.argmin(total))
    b_best = int(order[suffix_arg[pos[a_best]]])
    mask_a, mask_b = a_best, b_best
    chosen = [i for i in range(half) if mask_a >> i & 1]
    chosen += [half + i for i in range(m - half) if mask_b >> i & 1]
    chosen = np.array(chosen, dtype=np.int64)
    return chosen, float(total[a_best]), float(pj[chosen].sum())


def _randomized_threshold(pj, ratio, target):
    """Descending-ratio prefix plus fractional weight on the tied boundary."""
    order = np.argsort(-ratio, kind="stable")
    cum = np.cumsum(pj[order])
    k = int(np.searchsorted(cum, target - MASS_TOL))
    if k >= order.size:
        k = order.size - 1
    thr = ratio[order[k]]
    sorted_ratio = ratio[order]
    boundary = np.abs(sorted_ratio - thr) <= _BOUNDARY_RTOL * max(abs(thr), 1e-300)
    first_b = int(np.argmax(boundary))
    full = order[:first_b]
    bnd = order[boundary]
    p_full = float(pj[full].sum())
    p_bnd = float(pj[bnd].sum())
    w = 0.0 if p_bnd <= 0.0 else min(max((target - p_full) / p_bnd, 0.0), 1.0)
    return full, bnd, thr, w


def classical_i0(joint: JointPmf, eps: float, method: str = "greedy") -> DivergenceResult:
    """Smooth order-zero divergence of a joint pmf against its marginal product.

    Maximizes -log2 of the product-of-marginals mass of a test set that
    keeps joint mass at least 1 - eps.

    Methods
    -------
    greedy
        Descending likelihood-ratio prefix.  Feasible, not optimal.
    exhaustive
        Exact optimum over deterministic sets by meet-in-the-middle
        enumeration; limited to ``EXHAUSTIVE_CELL_CAP`` support cells.
    randomized
        Neyman-Pearson test with fractional weight on the tied boundary
        cells; an upper bound on every deterministic set's value.
    """
    eps = _check_eps(eps)
    pj, q, ratio, rows, cols = _positive_cells(joint)
    target = 1.0 - eps
    if method == "greedy":
        chosen, beta, mass = _greedy_i0(pj, q, ratio, target)
        witness = {"kind": "min-div-set", "cells": _cell_labels(joint, rows[chosen], cols[chosen]), "mass": mass}
    elif method == "exhaustive":
        if pj.size > EXHAUSTIVE_CELL_CAP:
            raise ValidationError(
                f"exhaustive method supports at most {EXHAUSTIVE_CELL_CAP} cells, got {pj.size}"
            )
        chosen, beta, mass = _exhaustive_i0(pj, q, target)
        witness = {"kind": "min-div-set", "cells": _cell_labels(joint, rows[chosen], cols[chosen]), "mass": mass}
    elif method == "randomized":
        full, bnd, thr, w = _randomized_threshold(pj, ratio, target)
        beta = float(q[full].sum() + w * q[bnd].sum())
        witness = {
            "kind": "min-div-randomized",
            "full_cells": _cell_labels(joint, rows[full], cols[full]),
            "boundary_cells": _cell_labels(joint, rows[bnd], cols[bnd]),
            "boundary_weight": w,
            "threshold_log2": float(np.log2(thr)),
        }
    else:
        raise ValidationError(f"unknown method {method!r}")
    return DivergenceResult(float(-np.log2(beta)), eps, method, witness)


# ---------------------------------------------------------------------------
# classical-quantum order-zero divergence via a bisected Neyman-Pearson test


def _np_strict_alpha(p_u, rho_u, rho_avg, lam):
    total = 0.0
    for pu, r in zip(p_u, rho_u):
        if pu <= 0.0:
            continue
        vals, vecs = np.linalg.eigh(r - lam * rho_avg)
        pos = vals > 0.0
        if np.any(pos):
            v = vecs[:, pos]
            total += pu * float(np.einsum("ij,jk,ki->", v.conj().T, r, v).real)
    return total


def quantum_i0_cq(p_u, rho_u, eps: float) -> DivergenceResult:
    """Order-zero divergence of a cq state given as an ensemble.

    Parameters
    ----------
    p_u : array
        Classical register distribution.
    rho_u : sequence of arrays
        Conditional states, one per register value.
    eps : float
        Smoothing parameter.

    The Neyman-Pearson test maximizing retained state mass for a given
    marginal-product mass is block diagonal, so the bisection runs per
    conditional state against the average state.
    """
    eps = _check_eps(eps)
    p_u = np.asarray(p_u, dtype=float)
    rho_u = [np.asarray(r, dtype=complex) for r in rho_u]
    rho_avg = sum(pu * r for pu, r in zip(p_u, rho_u))
    target = 1.0 - eps

    lo, f_lo = 0.0, 1.0
    hi = 1.0
    iters = 0
    while _np_strict_alpha(p_u, rho_u, rho_avg, hi) >= target - MASS_TOL:
        lo = hi
        hi *= 2.0
        iters += 1
        if iters > _NP_MAX_ITER:
            raise ConvergenceError(f"test threshold still feasible after doubling to {hi}")
    while hi - lo > 1e-13 * max(1.0, hi):
        iters += 1
        if iters > _NP_MAX_ITER:
            raise ConvergenceError(
                f"bisection did not localize the threshold in {_NP_MAX_ITER} iterations")
        mid = 0.5 * (lo + hi)
        if _np_strict_alpha(p_u, rho_u, rho_avg, mid) >= target - MASS_TOL:
            lo = mid
        else:
            hi = mid

    lam = 0.5 * (lo + hi)
    a = b = beta_a = beta_b = 0.0
    avg_norm = float(np.linalg.norm(rho_avg, 2))
    for pu, r in zip(p_u, rho_u):
        if pu <= 0.0:
            continue
        vals, vecs = np.linalg.eigh(r - lam * rho_avg)
        btol = _BOUNDARY_RTOL * max(float(np.linalg.norm(r, 2)), lam * avg_norm, 1e-300)
        pos = vals > btol
        bnd = np.abs(vals) <= btol
        for mask, acc_r, acc_s in ((pos, "a", "beta_a"), (bnd, "b", "beta_b")):
            if not np.any(mask):
                continue
            v = vecs[:, mask]
            ra = pu * float(np.einsum("ij,jk,ki->", v.conj().T, r, v).real)
            sa = pu * float(np.einsum("ij,jk,ki->", v.conj().T, rho_avg, v).real)
            if acc_r == "a":
                a, beta_a = a + ra, beta_a + sa
            else:
                b, beta_b = b + ra, beta_b + sa
    if a > target + 1e-9 or a + b < target - 1e-9:
        raise ConvergenceError(
            f"boundary eigenspace does not bracket the mass constraint: "
            f"strict {a:.12f}, with boundary {a + b:.12f}, target {target:.12f}"
        )
    w = 0.0 if b <= 0.0 else min(max((target - a) / b, 0.0), 1.0)
    beta = beta_a + w * beta_b
    witness = {
        "kind": "np-test",
        "lambda": float(lam),
        "boundary_weight": float(w),
        "constraint_mass": float(a + w * b),
    }
    return DivergenceResult(float(-np.log2(beta)), eps, "neyman-pearson", witness)


def np_test_blocks(p_u, rho_u, lam: float, weight: float):
    """Per-block test operators for a Neyman-Pearson witness.

    Block u is the projector onto the strictly positive eigenspace of
    ``rho_u - lam * rho_avg`` plus ``weight`` times the projector onto
    its boundary eigenspace.  Blocks with zero register mass are zero.
    """
    p_u = np.asarray(p_u, dtype=float)
    rho_u = [np.asarray(r, dtype=complex) for r in rho_u]
    rho_avg = sum(pu * r for pu, r in zip(p_u, rho_u))
    avg_norm = float(np.linalg.norm(rho_avg, 2))
    out = []
    for pu, r in zip(p_u, rho_u):
        if pu <= 0.0:
            out.append(np.zeros_like(rho_avg))
            continue
        vals, vecs = np.linalg.eigh(r - lam * rho_avg)
        btol = _BOUNDARY_RTOL * max(float(np.linalg.norm(r, 2)), lam * avg_norm, 1e-300)
        coeff = np.where(vals > btol, 1.0, 0.0) + np.where(np.abs(vals) <= btol, weight, 0.0)
        out.append((vecs * coeff) @ vecs.conj().T)
    return out


# ---------------------------------------------------------------------------
# log likelihood ratio spectra of iid products


@dataclass(frozen=True)
class LlrSpectrum:
    """Distribution of the log2 joint-to-product ratio, atoms ascending."""

    values: np.ndarray
    probs: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        p = np.asarray(self.probs, dtype=float)
        if v.shape != p.shape or v.ndim != 1:
            raise ValidationError("values and probs must be matching 1-d arrays")
        if np.any(np.diff(v) < 0):
            raise ValidationError("values must be ascending")
        if float(p.min(initial=0.0)) < 0.0 or abs(float(p.sum()) - 1.0) > 1e-9:
            raise ValidationError("probs must be a distribution")
        v = v.copy(); v.setflags(write=False)
        p = p.copy(); p.setflags(write=False)
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "probs", p)

    def __len__(self) -> int:
        return self.values.size


def convolve_atoms(a: tuple, b: tuple, tol: float, atom_cap: int) -> tuple:
    """(values, probs) of the sum of independent atom distributions a and b.

    The one place where atoms merge: sorted neighbours within ``tol`` merge
    at their probability-weighted mean, or at their first value when the
    merged mass is subnormal and the mean has lost its precision.
    Zero-mass atoms are dropped.  Raises ``SupportOverflowError`` past
    ``atom_cap`` atoms.
    """
    v = (a[0][:, None] + b[0][None, :]).ravel()
    p = (a[1][:, None] * b[1][None, :]).ravel()
    order = np.argsort(v, kind="stable")
    v, p = v[order], p[order]
    new_group = np.ones(v.size, dtype=bool)
    new_group[1:] = np.diff(v) > tol
    starts = np.flatnonzero(new_group)
    pm = np.add.reduceat(p, starts)
    normal = pm >= _TINY
    vm = np.where(normal, np.add.reduceat(p * v, starts) / np.where(normal, pm, 1.0), v[starts])
    keep = pm > 0.0
    vm, pm = vm[keep], pm[keep]
    if vm.size > atom_cap:
        raise SupportOverflowError(f"llr support exceeded {atom_cap} atoms")
    return vm, pm


class _SpectraMemo:
    """Results of ``iid_llr_spectra`` by key, least recently used first,
    holding at most ``SPECTRUM_ATOM_CAP`` atoms in all.  A lock guards the
    entries, so threads may share the memo; callers build spectra outside it.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._entries = OrderedDict()  # key -> (spectra by n, atoms)
        self._atoms = 0

    def get(self, key):
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                return None
            self._entries.move_to_end(key)
            return entry[0]

    def put(self, key, spectra: dict) -> None:
        atoms = sum(len(s) for s in spectra.values())
        budget = SPECTRUM_ATOM_CAP
        if atoms > budget:
            return
        with self._lock:
            if key in self._entries:
                return
            while self._atoms + atoms > budget:
                _, (_, dropped) = self._entries.popitem(last=False)
                self._atoms -= dropped
            self._entries[key] = (spectra, atoms)
            self._atoms += atoms

    def cache_clear(self) -> None:
        with self._lock:
            self._entries.clear()
            self._atoms = 0


_spectra_memo = _SpectraMemo()


def iid_llr_spectra(base: JointPmf, ns) -> list:
    """Spectra of the summed log likelihood ratio over n iid copies, per n in ``ns``.

    One ascending pass of convolutions, atoms merged at ``SPECTRUM_MERGE_TOL``
    bits, builds every n; the spectra follow the order of ``ns``.  Raises
    ``SupportOverflowError`` if the support grows past ``SPECTRUM_ATOM_CAP``.
    The spectra are pure in the joint's probabilities and the set of n, so
    a private memo keyed by the probability array's shape and bytes and by
    the sorted set of n returns the same read-only spectra to a repeat call,
    whatever the joint's labels.  It keeps the most recently used results
    up to ``SPECTRUM_ATOM_CAP`` atoms in all, and never a larger one.
    """
    merge_tol, atom_cap = SPECTRUM_MERGE_TOL, SPECTRUM_ATOM_CAP
    ns = [int(n) for n in ns]
    if min(ns, default=1) < 1:
        raise ValidationError(f"n must be a positive integer, got {min(ns)}")
    probs = base.probs
    key = (probs.shape, probs.tobytes(), tuple(sorted(set(ns))))
    built = _spectra_memo.get(key)
    if built is None:
        pj, _, ratio, _, _ = _positive_cells(base)
        # adding a point mass at 0 sorts and merges the single-letter atoms
        step = convolve_atoms((np.log2(ratio), pj), (np.zeros(1), np.ones(1)), merge_tol,
                              atom_cap)
        atoms, done, built = step, 1, {}
        for n in key[2]:
            for _ in range(n - done):
                atoms = convolve_atoms(atoms, step, merge_tol, atom_cap)
            done = n
            built[n] = LlrSpectrum(atoms[0], atoms[1] / atoms[1].sum())
        _spectra_memo.put(key, built)
    return [built[n] for n in ns]


def iid_llr_spectrum(base: JointPmf, n: int) -> LlrSpectrum:
    """Spectrum of the summed log likelihood ratio over n iid copies."""
    return iid_llr_spectra(base, [n])[0]


def spectrum_i_infty(spectrum: LlrSpectrum, eps: float) -> DivergenceResult:
    """Smooth max divergence evaluated on an llr spectrum."""
    eps = _check_eps(eps)
    cum = np.cumsum(spectrum.probs)
    k = int(np.searchsorted(cum, 1.0 - eps - MASS_TOL))
    k = min(k, len(spectrum) - 1)
    witness = {"kind": "spectrum-threshold", "objective": "max", "threshold": float(spectrum.values[k]),
               "mass": float(cum[k])}
    return DivergenceResult(float(spectrum.values[k]), eps, "spectrum-lower-set", witness)


def spectrum_i0(spectrum: LlrSpectrum, eps: float, method: str = "randomized") -> DivergenceResult:
    """Smooth order-zero divergence evaluated on an llr spectrum.

    ``randomized`` places fractional weight on the boundary atom;
    ``thresholded`` keeps the whole boundary atom, which is what a code
    construction needing an actual test set uses.
    """
    eps = _check_eps(eps)
    target = 1.0 - eps
    v = spectrum.values[::-1]
    p = spectrum.probs[::-1]
    q = p * np.exp2(-v)
    cum = np.cumsum(p)
    k = int(np.searchsorted(cum, target - MASS_TOL))
    k = min(k, v.size - 1)
    if method == "randomized":
        p_full = float(cum[k - 1]) if k > 0 else 0.0
        w = 0.0 if p[k] <= 0.0 else min(max((target - p_full) / float(p[k]), 0.0), 1.0)
        beta = float(q[:k].sum() + w * q[k])
        witness = {"kind": "spectrum-randomized", "threshold": float(v[k]), "boundary_weight": float(w),
                   "mass": p_full + w * float(p[k])}
    elif method == "thresholded":
        beta = float(q[: k + 1].sum())
        witness = {"kind": "spectrum-threshold", "objective": "min", "threshold": float(v[k]),
                   "mass": float(cum[k])}
    else:
        raise ValidationError(f"unknown method {method!r}")
    return DivergenceResult(float(-np.log2(beta)), eps, f"spectrum-{method}", witness)


def classical_i_infty_iid(base: JointPmf, n: int, eps: float) -> DivergenceResult:
    """Smooth max divergence of n iid copies of a base joint, via its spectrum."""
    return spectrum_i_infty(iid_llr_spectrum(base, n), eps)
