"""Rejection-sampled codebooks, encoders, and decoders.

The codebook holds 2^(R1+r1) row words and 2^(R2+r2) column words drawn
iid from the design marginals.  A per-cell rejection indicator thins the
grid toward the design's joint: cell (k, l) survives with probability
min(1, ratio / 2^i_infty) where ratio is the joint-to-product likelihood
ratio of the cell's words.  Messages own contiguous bands of rows and
columns; the encoder scans its band pair for the first surviving cell
whose acceptance probabilities clear 1 - 4 eps0, and decoders report the
band of the best-matching row (or column).

Everything is deterministic given the codebook seed: words and rejection
uniforms come from counter-based streams, so any cell can be recomputed
lazily without storing the grid.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import InputDesign
from .errors import InfeasibleRates, ValidationError
from .prob import JointPmf
from .divergences import convolve_atoms, llr_table
from .quantum import pinv_sqrt, real_trace
from .rng import SeededRng, mix64

__all__ = [
    "RateParams",
    "select_band_exponents",
    "band_sum_target",
    "Codebook",
    "generate_codebook",
    "EncodeOutcome",
    "encode",
    "DecodeResult",
    "SetMembership",
    "ThresholdMembership",
    "decode_rows",
    "decode_cols",
    "pgm_outcome_probabilities",
    "decode_pgm",
    "ClassicalSetEvaluator",
    "ClassicalThresholdEvaluator",
    "QuantumPairEvaluator",
    "DECODE_TOL",
    "ROW_CAP",
]

# slack used when comparing llr sums against a threshold, so that the
# decoder's float row sums and the exact convolution agree on membership
DECODE_TOL = 1e-6
ROW_CAP = 1 << 26
_FEAS_TOL = 1e-9


def _ceil_guarded(x: float) -> int:
    return int(math.ceil(x - _FEAS_TOL))


def band_sum_target(i_infty: float, eps_tilde: float) -> int:
    """The required r1 + r2: ceil(i_infty + 3 log2(1/eps_tilde)), float noise ignored."""
    return _ceil_guarded(i_infty + 3 * math.log2(1.0 / eps_tilde))


@dataclass(frozen=True)
class RateParams:
    """Message rates, band exponents, budgets, and divergence values.

    ``validate`` enforces the constraints the closed-form error bounds
    need: both message-plus-band exponents leave 4 log2(1/eps_tilde) + 1
    bits of slack inside the corresponding order-zero divergence, each
    band exponent is at least log2(1/eps_tilde), and the two together
    equal ceil(i_infty + 3 log2(1/eps_tilde)).
    """

    R1: int
    R2: int
    r1: int
    r2: int
    eps_tilde: float
    eps0: float
    eps_infty: float
    i0b: float
    i0c: float
    i_infty: float

    def __post_init__(self):
        for name in ("R1", "R2", "r1", "r2"):
            v = getattr(self, name)
            if not isinstance(v, (int, np.integer)) or isinstance(v, bool):
                raise ValidationError(f"{name} must be an integer, got {v!r}")
            object.__setattr__(self, name, int(v))
        if self.R1 < 0 or self.R2 < 0:
            raise ValidationError("message rates must be nonnegative")
        if self.r1 < 1 or self.r2 < 1:
            raise ValidationError("band exponents must be at least 1")
        for name in ("eps_tilde", "eps0"):
            v = float(getattr(self, name))
            if not 0.0 < v < 1.0:
                raise ValidationError(f"{name} must lie in (0, 1), got {v}")
        if not 0.0 <= float(self.eps_infty) < 1.0:
            raise ValidationError(f"eps_infty must lie in [0, 1), got {self.eps_infty}")

    @property
    def log_inv_eps(self) -> float:
        return math.log2(1.0 / self.eps_tilde)

    @property
    def n_rows(self) -> int:
        return 1 << (self.R1 + self.r1)

    @property
    def n_cols(self) -> int:
        return 1 << (self.R2 + self.r2)

    def validate(self) -> None:
        """Raise InfeasibleRates naming the first violated constraint."""
        ell = self.log_inv_eps
        if self.eps_infty > 0.25 + _FEAS_TOL:
            raise InfeasibleRates(
                f"thinning budget: eps_infty = {self.eps_infty} exceeds 1/4")
        if self.R1 + self.r1 > self.i0b - 4 * ell - 1 + _FEAS_TOL:
            raise InfeasibleRates(
                f"row budget: R1 + r1 = {self.R1 + self.r1} exceeds "
                f"i0b - 4 log2(1/eps_tilde) - 1 = {self.i0b - 4 * ell - 1:.6f}")
        if self.R2 + self.r2 > self.i0c - 4 * ell - 1 + _FEAS_TOL:
            raise InfeasibleRates(
                f"column budget: R2 + r2 = {self.R2 + self.r2} exceeds "
                f"i0c - 4 log2(1/eps_tilde) - 1 = {self.i0c - 4 * ell - 1:.6f}")
        if self.r1 < ell - _FEAS_TOL:
            raise InfeasibleRates(f"row band floor: r1 = {self.r1} is below log2(1/eps_tilde) = {ell:.6f}")
        if self.r2 < ell - _FEAS_TOL:
            raise InfeasibleRates(f"column band floor: r2 = {self.r2} is below log2(1/eps_tilde) = {ell:.6f}")
        target = band_sum_target(self.i_infty, self.eps_tilde)
        if self.r1 + self.r2 != target:
            raise InfeasibleRates(
                f"band sum: r1 + r2 = {self.r1 + self.r2} must equal "
                f"ceil(i_infty + 3 log2(1/eps_tilde)) = {target}")


def select_band_exponents(R1: int, R2: int, i0b: float, i0c: float, i_infty: float,
                          eps_tilde: float) -> tuple:
    """Choose band exponents (r1, r2) for the given rates and budgets.

    Both start at ceil(log2(1/eps_tilde)); r1 grows toward its budget
    cap first, then r2, until the pair sums to
    ceil(i_infty + 3 log2(1/eps_tilde)).  Raises InfeasibleRates naming
    the binding cap if the sum target is out of reach.
    """
    if not 0.0 < float(eps_tilde) <= 0.125 + _FEAS_TOL:
        raise InfeasibleRates(
            f"eps_tilde = {eps_tilde} outside (0, 1/8]: band floors need log2(1/eps_tilde) >= 3")
    if R1 < 0 or R2 < 0:
        raise ValidationError("message rates must be nonnegative")
    ell = math.log2(1.0 / eps_tilde)
    if not all(math.isfinite(v) for v in (i0b, i0c, i_infty, ell)):
        raise ValidationError("i0b, i0c, i_infty and log2(1/eps_tilde) must be finite")
    floor_r = _ceil_guarded(ell)
    target = band_sum_target(i_infty, eps_tilde)
    cap1 = int(math.floor(i0b - R1 - 4 * ell - 1 + _FEAS_TOL))
    cap2 = int(math.floor(i0c - R2 - 4 * ell - 1 + _FEAS_TOL))
    if cap1 < floor_r:
        raise InfeasibleRates(
            f"row budget: cap floor(i0b - R1 - 4 log2(1/eps_tilde) - 1) = {cap1} "
            f"is below the band floor {floor_r}")
    if cap2 < floor_r:
        raise InfeasibleRates(
            f"column budget: cap floor(i0c - R2 - 4 log2(1/eps_tilde) - 1) = {cap2} "
            f"is below the band floor {floor_r}")
    r1, r2 = floor_r, floor_r
    r1 = min(cap1, r1 + max(0, target - r1 - r2))
    r2 = min(cap2, r2 + max(0, target - r1 - r2))
    if r1 + r2 != target:
        raise InfeasibleRates(
            f"band sum: caps ({cap1}, {cap2}) cannot reach "
            f"ceil(i_infty + 3 log2(1/eps_tilde)) = {target} from floor {floor_r}")
    return r1, r2


@dataclass(frozen=True)
class Codebook:
    """Sampled words plus the lazily evaluated rejection indicator.

    ``rows[k]`` and ``cols[l]`` are per-symbol index words of length n
    into the design's row and column alphabets.  Message m1 owns the row
    band [m1 * 2^r1, (m1+1) * 2^r1); columns likewise with r2.
    """

    rows: np.ndarray
    cols: np.ndarray
    params: RateParams
    design: InputDesign
    seed: int
    n: int = 1
    log_ratio: np.ndarray = field(default=None, repr=False)

    def __post_init__(self):
        if self.log_ratio is None:
            object.__setattr__(self, "log_ratio", llr_table(self.design.joint))
        rows = np.asarray(self.rows)
        cols = np.asarray(self.cols)
        if rows.ndim != 2 or cols.ndim != 2 or rows.shape[1] != self.n or cols.shape[1] != self.n:
            raise ValidationError("rows and cols must have shape (count, n)")
        if rows.shape[0] != self.params.n_rows or cols.shape[0] != self.params.n_cols:
            raise ValidationError(
                f"codebook shape ({rows.shape[0]}, {cols.shape[0]}) does not match "
                f"params ({self.params.n_rows}, {self.params.n_cols})")
        object.__setattr__(self, "rows", rows)
        object.__setattr__(self, "cols", cols)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cols.shape[0]

    def row_band(self, m1: int) -> range:
        width = 1 << self.params.r1
        if not 0 <= m1 < (1 << self.params.R1):
            raise ValidationError(f"message m1 = {m1} outside [0, 2^{self.params.R1})")
        return range(m1 * width, (m1 + 1) * width)

    def col_band(self, m2: int) -> range:
        width = 1 << self.params.r2
        if not 0 <= m2 < (1 << self.params.R2):
            raise ValidationError(f"message m2 = {m2} outside [0, 2^{self.params.R2})")
        return range(m2 * width, (m2 + 1) * width)

    def row_band_of(self, k: int) -> int:
        return k >> self.params.r1

    def col_band_of(self, l: int) -> int:
        return l >> self.params.r2

    def eta(self, k: int, l0: int, l1: int) -> np.ndarray:
        """Rejection uniforms of row k, columns [l0, l1), replayable."""
        stream = SeededRng(mix64(self.seed, 3), k)
        return stream.random(l1)[l0:]

    def acceptance(self, k: int, l0: int, l1: int) -> np.ndarray:
        """Acceptance probabilities min(1, ratio / 2^i_infty) for a row slice."""
        s = self.log_ratio[self.rows[k][None, :], self.cols[l0:l1]].sum(axis=1)
        return np.exp2(np.minimum(s - self.params.i_infty, 0.0))

    def indicator(self, k: int, l0: int, l1: int) -> np.ndarray:
        """Rejection indicator of row k over columns [l0, l1)."""
        return self.eta(k, l0, l1) <= self.acceptance(k, l0, l1)

    def content_digest(self) -> str:
        import hashlib

        h = hashlib.sha256()
        h.update(np.ascontiguousarray(self.rows, dtype=np.int64).tobytes())
        h.update(np.ascontiguousarray(self.cols, dtype=np.int64).tobytes())
        return h.hexdigest()


def _sample_words(pmf_probs: np.ndarray, count: int, n: int, rng: SeededRng) -> np.ndarray:
    # A symbol index is the number of cdf cut points at or below its
    # uniform: searchsorted(cdf, u, side="right") with the last cut point
    # taken as 1 > u, counted without a binary search.
    cdf = np.cumsum(pmf_probs)
    u = rng.random((count, n))
    words = np.zeros((count, n), dtype=np.int64)
    for c in cdf[:-1]:
        words += u >= c
    return words


def generate_codebook(design: InputDesign, params: RateParams, seed: int, n: int = 1,
                      *, log_ratio: np.ndarray | None = None) -> Codebook:
    """Sample a codebook: rows iid from p(u)^n, columns iid from p(v)^n.

    ``log_ratio`` is ``llr_table(design.joint)`` when the caller already
    has it, as a run drawing one codebook per trial does.
    """
    if params.n_rows > ROW_CAP or params.n_cols > ROW_CAP:
        raise ValidationError(f"codebook side exceeds {ROW_CAP} words")
    pu, pv = design.joint.marginals()
    base = SeededRng(seed, 0)
    rows = _sample_words(pu.probs, params.n_rows, n, base.derive(1))
    cols = _sample_words(pv.probs, params.n_cols, n, base.derive(2))
    return Codebook(rows, cols, params, design, seed, n, log_ratio)


# ---------------------------------------------------------------------------
# acceptance-probability evaluators


class _PairEvaluator:
    """The input map x = f(u, v) the evaluators apply symbol by symbol."""

    def __init__(self, channel, design: InputDesign):
        self.fx = design.x_indices(channel)

    def x_of_pair(self, row_word: np.ndarray, col_word: np.ndarray) -> np.ndarray:
        x = self.fx[row_word, col_word]
        if np.any(x < 0):
            raise ValidationError("input map undefined for a sampled pair")
        return x


class ClassicalSetEvaluator(_PairEvaluator):
    """Desk-scale acceptance tables from explicit decoding sets.

    ``a1_mask[u, y]`` flags membership of (u, y) in Bob's set; alpha of a
    cell is the chance the channel lands the pair inside it.  Blocklength
    is fixed to 1: explicit product-alphabet sets are never materialized.
    """

    def __init__(self, channel, design: InputDesign, a1_mask, a2_mask):
        super().__init__(channel, design)
        joint = design.joint
        a1 = np.asarray(a1_mask, dtype=bool)
        a2 = np.asarray(a2_mask, dtype=bool)
        py = channel.marginal_y()
        pz = channel.marginal_z()
        if a1.shape != (joint.shape[0], py.shape[1]) or a2.shape != (joint.shape[1], pz.shape[1]):
            raise ValidationError("set masks must be (|U|, |Y|) and (|V|, |Z|)")
        # alpha_table[u, x] = sum over y in the u-section of A1 of p(y | x)
        self.alpha_table = a1.astype(float) @ py.T
        self.beta_table = a2.astype(float) @ pz.T

    def alpha_beta(self, row_word: np.ndarray, col_word: np.ndarray) -> tuple:
        x = self.x_of_pair(row_word, col_word)
        return float(self.alpha_table[row_word[0], x[0]]), float(self.beta_table[col_word[0], x[0]])


class ClassicalThresholdEvaluator(_PairEvaluator):
    """Blocklength-n acceptance probabilities for llr threshold sets.

    alpha is the exact probability, via convolution, that the summed
    Bob-side llr of (u, Y) clears tau1 - DECODE_TOL when Y flows through
    the channel driven by x = f(u, v) symbol-wise.

    Both the llr and the channel act symbol by symbol, so alpha depends on
    (u, x) only through its joint type: position t contributes the step
    distribution of llr1[u_t, Y] with Y ~ p(y | x_t).  A pair (u, x)
    occurring k times contributes that step's k-fold convolution, cached
    per pair as a prefix table; the present pairs are convolved in
    ascending pair order.  Every convolution is
    :func:`~martonlab.divergences.convolve_atoms` at a 1e-12 bit merge
    tolerance, raising SupportOverflowError past ``atom_cap`` atoms.
    """

    def __init__(self, channel, design: InputDesign, llr1: np.ndarray, llr2: np.ndarray,
                 tau1: float, tau2: float, atom_cap: int = 100_000):
        super().__init__(channel, design)
        self.py = channel.marginal_y()
        self.pz = channel.marginal_z()
        self.llr1 = np.asarray(llr1, dtype=float)
        self.llr2 = np.asarray(llr2, dtype=float)
        self.tau1 = float(tau1)
        self.tau2 = float(tau2)
        self._sum = functools.partial(convolve_atoms, tol=1e-12, atom_cap=atom_cap)
        self._sides = ((self.llr1, self.py, self.tau1), (self.llr2, self.pz, self.tau2))
        # (side, u, x) -> [k-fold step distribution for k = 0, 1, ...]
        self._powers = {}

    def _power(self, side: int, u: int, x: int, k: int) -> tuple:
        """k-fold convolution of the step distribution of the pair (u, x)."""
        table = self._powers.setdefault((side, u, x), [(np.zeros(1), np.ones(1))])
        if len(table) <= k:
            llr, trans, _ = self._sides[side]
            keep = trans[x] > 0.0
            step = (llr[u][keep], trans[x][keep])
            while len(table) <= k:
                table.append(self._sum(table[-1], step))
        return table[k]

    def _tail_mass(self, side: int, word: np.ndarray, x: np.ndarray) -> float:
        llr, trans, tau = self._sides[side]
        nx = trans.shape[0]
        counts = np.bincount(word * nx + x, minlength=llr.shape[0] * nx)
        parts = [self._power(side, *divmod(int(pair), nx), int(counts[pair]))
                 for pair in np.flatnonzero(counts)]
        values, probs = functools.reduce(self._sum, parts)
        return float(probs[values >= tau - DECODE_TOL].sum())

    def alpha_beta(self, row_word: np.ndarray, col_word: np.ndarray) -> tuple:
        x = self.x_of_pair(row_word, col_word)
        return self._tail_mass(0, row_word, x), self._tail_mass(1, col_word, x)


class QuantumPairEvaluator(_PairEvaluator):
    """Desk-scale acceptance tables Tr[test_u rho_b(x)] and Tr[test_v rho_c(x)].

    The per-label test operators come from the order-zero divergence
    witnesses on the Bob and Charlie sides.
    """

    def __init__(self, channel, design: InputDesign, bob_tests, charlie_tests):
        super().__init__(channel, design)
        joint = design.joint
        nx = len(channel.x_alphabet)
        rho_b = [channel.rho_b(x) for x in channel.x_alphabet]
        rho_c = [channel.rho_c(x) for x in channel.x_alphabet]
        self.alpha_table = np.zeros((joint.shape[0], nx))
        self.beta_table = np.zeros((joint.shape[1], nx))
        for u, test in enumerate(bob_tests):
            for x in range(nx):
                self.alpha_table[u, x] = real_trace(test, rho_b[x])
        for v, test in enumerate(charlie_tests):
            for x in range(nx):
                self.beta_table[v, x] = real_trace(test, rho_c[x])

    def alpha_beta(self, row_word: np.ndarray, col_word: np.ndarray) -> tuple:
        x = self.x_of_pair(row_word, col_word)
        return float(self.alpha_table[row_word[0], x[0]]), float(self.beta_table[col_word[0], x[0]])


# ---------------------------------------------------------------------------
# encoding


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


def encode(codebook: Codebook, m1: int, m2: int, evaluator, eps0: float) -> EncodeOutcome:
    """Pick the first surviving cell of the band pair that clears 1 - 4 eps0.

    Cells are scanned in lexicographic (row, column) order.  If no cell
    both survives rejection and has alpha, beta above the threshold, the
    outcome falls back to the all-first-symbol input word.
    """
    thr = 1.0 - 4.0 * float(eps0)
    band1 = codebook.row_band(m1)
    band2 = codebook.col_band(m2)
    l0, l1 = band2.start, band2.stop
    scanned = 0
    for k in band1:
        alive = np.flatnonzero(codebook.indicator(k, l0, l1))
        scanned += l1 - l0
        for off in alive:
            l = l0 + int(off)
            alpha, beta = evaluator.alpha_beta(codebook.rows[k], codebook.cols[l])
            if alpha > thr and beta > thr:
                x = evaluator.x_of_pair(codebook.rows[k], codebook.cols[l])
                return EncodeOutcome(k, l, x, False, scanned, alpha, beta)
    x = np.zeros(codebook.n, dtype=np.int64)
    return EncodeOutcome(None, None, x, True, scanned, 0.0, 0.0)


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True)
class DecodeResult:
    """Band answer plus everything needed to classify error events.

    ``message`` is None only when a measurement's failure outcome fired.
    ``matched`` holds every matching word index (classical decoders);
    ``ambiguous`` flags matches in more than one band.
    """

    message: int | None
    matched: np.ndarray
    unique_match: int | None
    no_match: bool
    ambiguous: bool
    failed: bool = False


class SetMembership:
    """Explicit-set decoder test: word u matches output y iff (u, y) is flagged."""

    def __init__(self, mask):
        self.mask = np.asarray(mask, dtype=bool)

    def matches(self, words: np.ndarray, received: np.ndarray) -> np.ndarray:
        if words.shape[1] != 1:
            raise ValidationError("explicit-set membership is defined for blocklength 1")
        return self.mask[words[:, 0], received[0]]


class ThresholdMembership:
    """Summed-llr decoder test: word matches iff its score clears tau."""

    def __init__(self, llr: np.ndarray, tau: float):
        self.llr = np.asarray(llr, dtype=float)
        self.tau = float(tau)

    def matches(self, words: np.ndarray, received: np.ndarray) -> np.ndarray:
        # score = sum over letters a of one-hot(words == a) @ llr[a, received];
        # 0 * inf is nan in a product, so positions where some letter scores
        # non-finite are summed by lookup instead
        col = self.llr[:, received]
        bad = ~np.isfinite(col).all(axis=0)
        finite = np.where(bad, 0.0, col)
        scores = (words == 0) @ finite[0]
        for a in range(1, finite.shape[0]):
            scores += (words == a) @ finite[a]
        if bad.any():
            scores += self.llr[words[:, bad], received[bad]].sum(axis=1)
        return scores >= self.tau - DECODE_TOL


def _classify(matched: np.ndarray, band_of) -> DecodeResult:
    if matched.size == 0:
        return DecodeResult(0, matched, None, True, False)
    bands = {band_of(int(k)) for k in matched}
    return DecodeResult(
        band_of(int(matched[0])),
        matched,
        int(matched[0]) if matched.size == 1 else None,
        False,
        len(bands) > 1,
    )


def decode_rows(codebook: Codebook, received: np.ndarray, membership) -> DecodeResult:
    """Bob's band decoder: smallest band holding a matching row (default 0)."""
    matched = np.flatnonzero(membership.matches(codebook.rows, np.asarray(received)))
    return _classify(matched, codebook.row_band_of)


def decode_cols(codebook: Codebook, received: np.ndarray, membership) -> DecodeResult:
    """Charlie's band decoder: smallest band holding a matching column."""
    matched = np.flatnonzero(membership.matches(codebook.cols, np.asarray(received)))
    return _classify(matched, codebook.col_band_of)


def _frozen(arr) -> tuple:
    """Hashable content of an array: dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _thawed(key: tuple) -> np.ndarray:
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


@functools.lru_cache(maxsize=256)
def _pgm_table(tests_key: tuple, counts_key: tuple, rho_key: tuple) -> tuple:
    """Per-label element probabilities q and the completion probability.

    Keyed by content, not identity: the table depends only on the test
    operators, the label-count vector and the state.  A run sees few
    distinct count vectors (a qubit run of 200 trials on 2^6-2^8 words
    per side needs 100-160 tables), so 256 entries hold a run's tables.
    """
    tests, counts, rho = _thawed(tests_key), _thawed(counts_key), _thawed(rho_key)
    dim = tests.shape[1]
    total = np.zeros((dim, dim), dtype=complex)
    for u, c in enumerate(counts):
        if c:
            total += c * tests[u]
    inv_sqrt, supp = pinv_sqrt(total)
    q = np.empty(len(tests))
    for u in range(len(tests)):
        q[u] = real_trace(inv_sqrt @ tests[u] @ inv_sqrt, rho)
    q.setflags(write=False)
    return q, max(real_trace(np.eye(dim) - supp, rho), 0.0)


def pgm_outcome_probabilities(words: np.ndarray, tests, state) -> np.ndarray:
    """Outcome probabilities of the pretty good measurement over one side.

    Word k's element is S^{-1/2} T_{word k} S^{-1/2} with S the sum over
    all words; the last entry is the completion outcome off the support
    of S.  Identical words share an element, so the computation runs per
    alphabet label, and the per-label table is cached by content.
    """
    if words.shape[1] != 1:
        raise ValidationError("measurement decoding is defined for blocklength 1")
    labels = words[:, 0]
    counts = np.bincount(labels, minlength=len(tests))
    rho = state.matrix if hasattr(state, "matrix") else np.asarray(state)
    q, p_fail = _pgm_table(_frozen(np.asarray(tests)), _frozen(counts), _frozen(rho))
    probs = np.clip(q[labels], 0.0, None)
    vec = np.concatenate([probs, [p_fail]])
    total_mass = float(vec.sum())
    if abs(total_mass - 1.0) > 1e-6:
        raise ValidationError(f"measurement probabilities sum to {total_mass!r}")
    return vec / total_mass


def decode_pgm(words: np.ndarray, tests, state, band_of, rng: SeededRng) -> DecodeResult:
    """Pretty-good-measurement decoder over one codebook side.

    ``words`` is the (count, 1) word array of that side; ``tests`` maps
    each alphabet label to its test operator.  The measurement's
    completion outcome decodes to no message at all (``failed``).
    """
    vec = pgm_outcome_probabilities(words, tests, state)
    cdf = np.cumsum(vec)
    cdf[-1] = 1.0
    outcome = int(rng.choice_index(cdf))
    if outcome == words.shape[0]:
        return DecodeResult(None, np.empty(0, dtype=np.int64), None, True, False, failed=True)
    return DecodeResult(band_of(outcome), np.array([outcome]), outcome, False, False)
