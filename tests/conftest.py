"""Shared randomized-instance helpers and dense oracles.

The oracles build what the library only ever computes implicitly: the
pretty good measurement as explicit per-word elements, the Neyman-Pearson
test blocks rebuilt from a witness alone, the linear-programming dual of
the classical order-zero test, the slack of the Hayashi-Nagaoka
operator inequality behind the measurement's error analysis, and the
n-fold product channels and designs over materialized product alphabets.  The
per-trial classical and cq loops are the schedules ``Scheme.run`` replaced
with blocks of trials; they draw the same streams one trial at a time,
encode with the cell-by-cell scan ``encode_block`` replaced, and classify
each trial's events on their own.  The cq loop measures each trial with
the per-trial PGM decoder, which builds S^{-1/2} afresh.  The gemv row
scorer is the threshold decoder that type-count scoring replaced.
"""

import functools
import itertools
import sys
from dataclasses import dataclass

import numpy as np
import pytest

from martonlab.channels import ClassicalBroadcastChannel, CqBroadcastChannel, InputDesign
from martonlab.coding import (
    DECODE_TOL,
    ThresholdMembership,
    decode_cols,
    decode_rows,
    generate_codebook,
    pgm_outcome_probabilities,
)
from martonlab.divergences import _BOUNDARY_RTOL
from martonlab.errors import PositivityError, ValidationError
from martonlab.prob import JointPmf
from martonlab.quantum import DensityOperator, _square_complex, pinv_sqrt, real_trace
from martonlab.rng import SeededRng, mix64

NFOLD_CELL_CAP = 1_000_000
NFOLD_DIM_CAP = 1024
POVM_TOL = 1e-9


def rand_hermitian(rng: np.random.Generator, dim: int) -> np.ndarray:
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return (g + g.conj().T) / 2.0


def rand_psd(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    rank = dim if rank is None else rank
    g = rng.standard_normal((dim, rank)) + 1j * rng.standard_normal((dim, rank))
    return g @ g.conj().T


def rand_state(rng: np.random.Generator, dim: int, rank: int | None = None) -> np.ndarray:
    m = rand_psd(rng, dim, rank)
    return m / np.trace(m).real


def rand_joint(rng: np.random.Generator, rows: int, cols: int, zeros: int = 0) -> np.ndarray:
    m = rng.random((rows, cols)) + 0.01
    if zeros:
        flat = rng.choice(rows * cols, size=min(zeros, rows * cols - 1), replace=False)
        m.ravel()[flat] = 0.0
    return m / m.sum()


def pretty_good_measurement(operators, state) -> np.ndarray:
    """Outcome probabilities of the pretty good measurement built from ``operators``.

    Element k is ``S^{-1/2} A_k S^{-1/2}`` with ``S`` the sum of all
    operators and the inverse square root taken on the support of ``S``;
    the completion ``I - P_supp(S)`` is the last outcome.  Asserts that the
    operators are PSD and that the elements form a measurement.
    """
    mats = [np.asarray(a, dtype=complex) for a in operators]
    assert mats, "the measurement needs at least one operator"
    mats = [(a + a.conj().T) / 2.0 for a in mats]
    for a in mats:
        assert np.linalg.eigvalsh(a)[0] >= -POVM_TOL, "operator is not PSD"
    s = np.sum(mats, axis=0)
    inv_sqrt, supp = pinv_sqrt(s)
    elements = [inv_sqrt @ a @ inv_sqrt for a in mats] + [np.eye(s.shape[0]) - supp]
    for e in elements:
        assert np.linalg.eigvalsh((e + e.conj().T) / 2.0)[0] >= -POVM_TOL, "element is not PSD"
    assert np.abs(np.sum(elements, axis=0) - np.eye(s.shape[0])).max() <= POVM_TOL, \
        "elements do not sum to the identity"
    rho = state.matrix if hasattr(state, "matrix") else np.asarray(state, dtype=complex)
    probs = np.array([real_trace(e, rho) for e in elements])
    assert probs.min() >= -1e-9 and abs(probs.sum() - 1.0) <= 1e-6, "state is not normalized"
    probs = np.clip(probs, 0.0, None)
    return probs / probs.sum()


def np_test_blocks(p_u, rho_u, lam: float, weight: float):
    """Per-block test operators for a Neyman-Pearson witness.

    Block u is the projector onto the strictly positive eigenspace of
    ``rho_u - lam * rho_avg`` plus ``weight`` times the projector onto
    its boundary eigenspace.  Blocks with zero register mass are zero.
    Rebuilt from the witness alone, they are what ``quantum_i0_cq``
    returns as its operators, bit for bit.
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


def lp_dual_beta(p, q, eps: float) -> float:
    """The dual of the linear program behind the order-zero divergence.

    The primal is the least q-mass of a test 0 <= T <= 1 that keeps p-mass
    1 - eps, over cells or spectrum atoms.  For every mu >= 0, weak duality
    bounds it below by mu (1 - eps) - sum (mu p - q)_+; that concave,
    piecewise-linear function of mu peaks at a breakpoint mu = q/p, and its
    peak equals the primal optimum.  Atoms with p = 0 add nothing.
    """
    p, q = np.asarray(p, dtype=float), np.asarray(q, dtype=float)
    keep = p > 0.0
    p, q = p[keep], q[keep]
    order = np.argsort(q / p, kind="stable")
    p, q = p[order], q[order]
    mu = q / p
    # (mu p_i - q_i)_+ is positive only for the atoms whose q/p lies below mu
    below_p = np.concatenate(([0.0], np.cumsum(p)[:-1]))
    below_q = np.concatenate(([0.0], np.cumsum(q)[:-1]))
    return float(np.max(mu * (1.0 - eps) - (mu * below_p - below_q)))


def hayashi_nagaoka_check(s, t) -> float:
    """Smallest eigenvalue of the operator-inequality slack.

    For ``0 <= S <= I`` and ``T >= 0`` the inequality
    ``I - (S+T)^{-1/2} S (S+T)^{-1/2} <= 2(I-S) + 4T`` holds, with the
    inverse square root taken on the support of ``S+T``.  Returns the
    minimum eigenvalue of ``2(I-S) + 4T - (I - (S+T)^{-1/2} S (S+T)^{-1/2})``,
    which should only be negative at the level of rounding error.
    """
    s_arr = _square_complex(s)
    t_arr = _square_complex(t)
    if s_arr.shape != t_arr.shape:
        raise ValidationError("S and T must have the same shape")
    s_arr = (s_arr + s_arr.conj().T) / 2.0
    t_arr = (t_arr + t_arr.conj().T) / 2.0
    eye = np.eye(s_arr.shape[0])
    s_eigs = np.linalg.eigvalsh(s_arr)
    if float(s_eigs[0]) < -POVM_TOL or float(s_eigs[-1]) > 1.0 + POVM_TOL:
        raise ValidationError(f"S must satisfy 0 <= S <= I, eigenvalues span [{s_eigs[0]:.3e}, {s_eigs[-1]:.3e}]")
    if float(np.linalg.eigvalsh(t_arr)[0]) < -POVM_TOL:
        raise PositivityError("T must be positive semidefinite")
    inv_sqrt, _ = pinv_sqrt(s_arr + t_arr)
    pinched = inv_sqrt @ s_arr @ inv_sqrt
    slack = 2.0 * (eye - s_arr) + 4.0 * t_arr - (eye - pinched)
    return float(np.linalg.eigvalsh(slack)[0])


def _product_labels(labels, n: int) -> tuple:
    """Labels of the n-letter words, in ``itertools.product`` order: letters
    joined directly when all are one character, else by commas."""
    sep = "" if all(len(x) == 1 for x in labels) else ","
    return tuple(sep.join(word) for word in itertools.product(labels, repeat=n))


def nfold(channel, n: int, cell_cap: int = NFOLD_CELL_CAP, dim_cap: int = NFOLD_DIM_CAP):
    """Dense n-fold product of a channel over the product alphabets, within caps."""
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    if isinstance(channel, ClassicalBroadcastChannel):
        cells = (len(channel.x_alphabet) * len(channel.y_alphabet) * len(channel.z_alphabet)) ** n
        if cells > cell_cap:
            raise ValidationError(f"n-fold transition would hold {cells} cells, cap {cell_cap}")
        probs = channel.probs
        out = probs
        for _ in range(n - 1):
            out = np.einsum("xyz,abc->xaybzc", out, probs).reshape(
                out.shape[0] * probs.shape[0], out.shape[1] * probs.shape[1],
                out.shape[2] * probs.shape[2])
        return ClassicalBroadcastChannel(
            _product_labels(channel.x_alphabet, n),
            _product_labels(channel.y_alphabet, n),
            _product_labels(channel.z_alphabet, n),
            out)
    if isinstance(channel, CqBroadcastChannel):
        dim = (channel.dim_b * channel.dim_c) ** n
        if dim > dim_cap:
            raise ValidationError(f"n-fold state dimension {dim} exceeds cap {dim_cap}")
        # B and C registers must stay contiguous: reorder (b1 c1 b2 c2) to (b1 b2 c1 c2)
        db, dc = channel.dim_b ** n, channel.dim_c ** n
        perm_dims = [channel.dim_b, channel.dim_c] * n
        order = list(range(0, 2 * n, 2)) + list(range(1, 2 * n, 2))
        states = []
        for word in itertools.product(channel.x_alphabet, repeat=n):
            mat = functools.reduce(np.kron, (channel.states[channel.x_index(x)].matrix for x in word))
            tens = mat.reshape(perm_dims + perm_dims)
            tens = np.transpose(tens, order + [2 * n + o for o in order])
            states.append(DensityOperator(tens.reshape(db * dc, db * dc)))
        return CqBroadcastChannel(_product_labels(channel.x_alphabet, n), db, dc, tuple(states))
    raise ValidationError(f"unsupported channel type {type(channel).__name__}")


def product_design(design: InputDesign, n: int, cell_cap: int = NFOLD_CELL_CAP) -> InputDesign:
    """Dense n-fold product of a design: iid joint, symbol-wise map."""
    if n < 1:
        raise ValidationError(f"n must be positive, got {n}")
    joint = design.joint
    cells = (joint.shape[0] * joint.shape[1]) ** n
    if cells > cell_cap:
        raise ValidationError(f"n-fold joint would hold {cells} cells, cap {cell_cap}")
    out = joint.probs
    for _ in range(n - 1):
        out = np.kron(out, joint.probs)
    rows = _product_labels(joint.row_labels, n)
    cols = _product_labels(joint.col_labels, n)
    xsep = "," if any(len(x) > 1 for x in design.f.values()) else ""
    big = JointPmf(rows, cols, out, atol=1e-9)
    fmap = {}
    for i, us in enumerate(itertools.product(joint.row_labels, repeat=n)):
        for j, vs in enumerate(itertools.product(joint.col_labels, repeat=n)):
            if big.probs[i, j] > 0.0:
                fmap[(rows[i], cols[j])] = xsep.join(design.f[(a, b)] for a, b in zip(us, vs))
    return InputDesign(big, fmap)



def pgm_one_trial(words, tests, state) -> np.ndarray:
    """``coding.pgm_outcome_probabilities`` of one trial: the (count, 1)
    words of one codebook side measured in ``state``."""
    return pgm_outcome_probabilities(np.asarray(words)[:, 0][None], tests, [state], [0])[0]


def uncached_pgm_probabilities(words, tests, state):
    """PGM outcome probabilities with S^{-1/2} built afresh on every call."""
    labels = words[:, 0]
    dim = np.asarray(tests[0]).shape[0]
    counts = np.bincount(labels, minlength=len(tests))
    total = np.zeros((dim, dim), dtype=complex)
    for u, c in enumerate(counts):
        if c:
            total += c * np.asarray(tests[u])
    inv_sqrt, supp = pinv_sqrt(total)
    rho = state.matrix if hasattr(state, "matrix") else np.asarray(state)
    q = np.empty(len(tests))
    for u in range(len(tests)):
        q[u] = real_trace(inv_sqrt @ np.asarray(tests[u]) @ inv_sqrt, rho)
    probs = np.clip(q[labels], 0.0, None)
    p_fail = max(real_trace(np.eye(dim) - supp, rho), 0.0)
    vec = np.concatenate([probs, [p_fail]])
    return vec / float(vec.sum())


def decode_pgm_per_trial(words, tests, state, u: float) -> int:
    """The pretty good measurement of one trial: the index of the decoded
    word, or ``len(words)`` for the completion outcome.

    The decoder ``coding.decode_pgm`` replaced with one pass per block:
    probabilities from ``uncached_pgm_probabilities``, and a binary search
    for the uniform ``u`` in their cumulative sums, the last set to 1.
    """
    cdf = np.cumsum(uncached_pgm_probabilities(words, tests, state))
    cdf[-1] = 1.0
    return int(np.searchsorted(cdf, u, side="right"))


@dataclass(frozen=True)
class EncodeOutcome:
    """Chosen cell, channel input word, and scan statistics."""

    row: int | None
    col: int | None
    x_word: np.ndarray
    fallback: bool
    scanned: int
    alpha: float
    beta: float


def encode_per_trial(codebook, m1: int, m2: int, evaluator, eps0: float) -> EncodeOutcome:
    """Pick the first surviving cell of the band pair that clears 1 - 4 eps0.

    The encoder ``coding.encode_block`` replaced: cells are scanned one by
    one in lexicographic (row, column) order, with the rejection indicator
    of ``Codebook.indicator`` and one ``alpha_beta`` call per surviving
    cell up to the first pass.  If no cell both survives rejection and has
    alpha, beta above the threshold, the outcome falls back to the
    all-first-symbol input word.
    """
    thr = 1.0 - 4.0 * float(eps0)
    w1, w2 = 1 << codebook.params.r1, 1 << codebook.params.r2
    l0, l1 = m2 * w2, (m2 + 1) * w2
    scanned = 0
    for k in range(m1 * w1, (m1 + 1) * w1):
        alive = np.flatnonzero(codebook.indicator(k, l0, l1))
        scanned += l1 - l0
        for off in alive:
            l = l0 + int(off)
            # a table evaluator gives one-cell arrays, the threshold one floats
            alpha, beta = (np.asarray(v).item() for v in
                           evaluator.alpha_beta(codebook.rows[k], codebook.cols[l]))
            if alpha > thr and beta > thr:
                x = evaluator.x_of_pair(codebook.rows[k], codebook.cols[l])
                return EncodeOutcome(k, l, x, False, scanned, alpha, beta)
    x = np.zeros(codebook.n, dtype=np.int64)
    return EncodeOutcome(None, None, x, True, scanned, 0.0, 0.0)


def draw_trial(scheme, params, t: int, seed: int, fixed_cb) -> tuple:
    """Trial t's key, codebook, messages and encoding, drawn on their own."""
    trial_key = mix64(seed, t)
    cb = fixed_cb if fixed_cb is not None else generate_codebook(
        scheme.design, params, trial_key, scheme.n)
    n_m1, n_m2 = 1 << params.R1, 1 << params.R2
    u = SeededRng(trial_key, 101).random(2)
    m1 = min(int(u[0] * n_m1), n_m1 - 1)
    m2 = min(int(u[1] * n_m2), n_m2 - 1)
    return trial_key, cb, m1, m2, encode_per_trial(cb, m1, m2, scheme.evaluator, params.eps0)


def classical_counts_per_trial(scheme, params, trials: int, seed: int, fixed_cb) -> dict:
    """Event counts of a classical run, one trial after another.

    A drop-in for ``Scheme._counts`` of a classical Scheme: trial t draws
    its codebook with ``generate_codebook`` (seed mix64(seed, t)), its
    messages from stream 101, encodes with ``encode_per_trial``, sends the
    input word through the channel on stream 102 and decodes each side
    with ``decode_rows`` / ``decode_cols``, a block of one received word.
    A side decodes to the band of its first match, or to message 0 when
    nothing matches, and to an index only when exactly one word matches.
    Each codebook's rejection indicator reads the codebook's own
    ``log_ratio``, a table equal to ``scheme.log_ratio``.
    """
    counts = dict.fromkeys(("e1", "e2b", "e2c", "e3b", "e3c", "message_error",
                            "index_error"), 0)
    for t in range(trials):
        trial_key, cb, m1, m2, out = draw_trial(scheme, params, t, seed, fixed_cb)
        rec_b, rec_c = scheme.sampler.sample_outputs(
            out.x_word[None], SeededRng(trial_key, 102).random((1, scheme.n)))
        match_b = decode_rows(cb, rec_b, scheme.mem_b).matched
        match_c = decode_cols(cb, rec_c, scheme.mem_c).matched
        if out.fallback:
            counts["e1"] += 1
        else:
            counts["e2b"] += 0 if out.row in match_b.tolist() else 1
            counts["e2c"] += 0 if out.col in match_c.tolist() else 1
            counts["e3b"] += 1 if any(k != out.row for k in match_b.tolist()) else 0
            counts["e3c"] += 1 if any(l != out.col for l in match_c.tolist()) else 0
        message_b = int(match_b[0]) >> params.r1 if match_b.size else 0
        message_c = int(match_c[0]) >> params.r2 if match_c.size else 0
        unique_b = int(match_b[0]) if match_b.size == 1 else None
        unique_c = int(match_c[0]) if match_c.size == 1 else None
        msg_wrong = message_b != m1 or message_c != m2
        idx_wrong = unique_b != out.row or unique_c != out.col
        counts["message_error"] += 1 if (out.fallback or msg_wrong) else 0
        counts["index_error"] += 1 if (out.fallback or idx_wrong) else 0
    return counts


def cq_counts_per_trial(scheme, params, trials: int, seed: int, fixed_cb) -> dict:
    """Event counts of a cq run, one trial after another.

    A drop-in for ``Scheme._counts`` of a cq Scheme: trial t draws its
    codebook with ``generate_codebook`` (seed mix64(seed, t)), its messages
    from stream 101, encodes with ``encode_per_trial`` and measures each
    side with ``decode_pgm_per_trial`` on streams 103 and 104.  A side
    whose completion outcome fires decodes to no message and matches no
    word.  Rejection reads each codebook's ``log_ratio``, as in
    ``classical_counts_per_trial``.
    """
    counts = dict.fromkeys(("e1", "e2", "e3", "message_error", "index_error"), 0)
    for t in range(trials):
        trial_key, cb, m1, m2, out = draw_trial(scheme, params, t, seed, fixed_cb)
        label = scheme.channel.x_alphabet[int(out.x_word[0])]
        got_b = decode_pgm_per_trial(cb.rows, scheme.bob_tests, scheme.channel.rho_b(label),
                                     SeededRng(trial_key, 103).random())
        got_c = decode_pgm_per_trial(cb.cols, scheme.charlie_tests, scheme.channel.rho_c(label),
                                     SeededRng(trial_key, 104).random())
        match_b = None if got_b == cb.n_rows else got_b
        match_c = None if got_c == cb.n_cols else got_c
        if out.fallback:
            counts["e1"] += 1
        else:
            counts["e2"] += 0 if match_b == out.row else 1
            counts["e3"] += 0 if match_c == out.col else 1
        msg_wrong = (match_b is None or match_b >> params.r1 != m1
                     or match_c is None or match_c >> params.r2 != m2)
        idx_wrong = match_b != out.row or match_c != out.col
        counts["message_error"] += 1 if (out.fallback or msg_wrong) else 0
        counts["index_error"] += 1 if (out.fallback or idx_wrong) else 0
    return counts


def set_membership(mask) -> ThresholdMembership:
    """The decoder test of the explicit set ``mask`` flags, as a run builds it:
    the threshold test at tau = 0 on a table of 0 inside the set and -inf
    outside."""
    return ThresholdMembership(np.where(mask, 0.0, -np.inf), 0.0)


def gemv_threshold_matches(llr, tau: float, words, received):
    """Threshold membership by one matrix-vector product per word letter.

    The row scorer ``ThresholdMembership.matches`` replaced: a row's score
    is the sum over letters a of one-hot(words == a) @ llr[a, received],
    summed in BLAS order; positions where some letter scores non-finite
    are summed by lookup, since 0 * inf is nan in a product.
    """
    col = llr[:, received]
    bad = ~np.isfinite(col).all(axis=0)
    finite = np.where(bad, 0.0, col)
    scores = (words == 0) @ finite[0]
    for a in range(1, finite.shape[0]):
        scores += (words == a) @ finite[a]
    if bad.any():
        scores += llr[words[:, bad], received[bad]].sum(axis=1)
    return scores >= tau - DECODE_TOL


def event_of(report, name: str):
    """The report's ``EventStats`` of event ``name``; KeyError if it has none."""
    return {e.name: e for e in report.events}[name]


def event_counts(report) -> dict:
    """Hits per event name of a report."""
    return {e.name: e.hits for e in report.events}


def spectrum_mean(spectrum) -> float:
    """Mean of an ``LlrSpectrum``."""
    return float(spectrum.values @ spectrum.probs)


@pytest.fixture
def no_draws(monkeypatch):
    """Every draw from a ``SeededRng`` fails: a test that passes allocated nothing."""
    def refuse(*args, **kwargs):
        raise AssertionError("drew from a stream")
    for name in ("random", "choice_index", "raw"):
        monkeypatch.setattr(SeededRng, name, refuse)


def clear_library_memos() -> None:
    """Empty every memo of the library: each ``cache_clear`` found on the
    attributes of the loaded ``martonlab`` modules, which covers the
    ``lru_cache`` functions and the llr-spectra memo."""
    for name, module in list(sys.modules.items()):
        if name == "martonlab" or name.startswith("martonlab."):
            for value in list(vars(module).values()):
                clear = getattr(value, "cache_clear", None)
                if callable(clear) and not isinstance(value, type):
                    clear()


@pytest.fixture(autouse=True)
def fresh_memos():
    """Each test starts with empty library memos (shared Schemes, PGM tables,
    llr spectra, confidence limits, the CLI parser), so what it counts does
    not depend on which tests ran before it."""
    clear_library_memos()


@pytest.fixture
def np_rng() -> np.random.Generator:
    return np.random.default_rng(20260819)


# Acceptance tests record their verdict lines here; the summary hook
# replays them at the end of the run so they stay visible without
# turning on captured-output reporting for the whole suite.
ACCEPTANCE_LINES: list = []


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE_LINES:
        return
    terminalreporter.section("acceptance criteria")
    for line in ACCEPTANCE_LINES:
        terminalreporter.write_line(line)
