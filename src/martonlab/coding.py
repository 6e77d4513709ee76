"""Rejection-sampled codebooks, encoders, and decoders.

The codebook holds 2^(R1+r1) row words and 2^(R2+r2) column words drawn
iid from the design marginals.  A per-cell rejection indicator thins the
grid toward the design's joint: cell (k, l) survives with probability
min(1, ratio / 2^i_infty) where ratio is the joint-to-product likelihood
ratio of the cell's words.  Messages own contiguous bands of rows and
columns; the encoder scans its band pair for the first surviving cell
whose acceptance probabilities clear 1 - 4 eps0, and decoders report the
matching rows (or columns), or the pretty good measurement's outcome.

Everything is deterministic given the codebook seed: words and rejection
uniforms come from counter-based streams, so any cell can be recomputed
lazily without storing the grid.
"""

from __future__ import annotations

import functools
import hashlib
import math
from dataclasses import dataclass, field

import numpy as np

from .channels import InputDesign
from .errors import InfeasibleRates, ValidationError
from .prob import JointPmf
from .divergences import convolve_atoms, llr_table
from .quantum import pinv_sqrt, real_trace
from .rng import SeededRng, mix64, stream_uniforms

__all__ = [
    "RateParams",
    "select_band_exponents",
    "BandConstraint",
    "band_constraints",
    "Codebook",
    "generate_codebook",
    "codebook_block",
    "encode",
    "encode_block",
    "DecodeResult",
    "ThresholdMembership",
    "decode_rows",
    "decode_cols",
    "decode_pgm",
    "ClassicalSetEvaluator",
    "ClassicalThresholdEvaluator",
    "QuantumPairEvaluator",
    "CODEBOOK_BYTE_BUDGET",
]

# slack used when comparing llr sums against a threshold, so that the
# decoder's float row sums and the exact convolution agree on membership
DECODE_TOL = 1e-6
# bytes the 64-bit outputs of one codebook may take
CODEBOOK_BYTE_BUDGET = 1 << 26
# letter counts up to 2^24 are exact in float32, the type of the threshold
# decoder's one-hot product and type counts; a codebook within budget has n < 2^22
_EXACT_COUNT_LIMIT = 1 << 24
# atom cap of the threshold evaluator's tail-mass convolutions
THRESHOLD_ATOM_CAP = 100_000
# joint types whose tail masses one threshold evaluator keeps, about 215
# bytes each; criterion 1's inputs at n = 56 meet about 3,900 in 6,400 trials
_TAIL_MEMO_CAP = 1 << 15
_FEAS_TOL = 1e-9


def _ceil_guarded(x: float) -> int:
    return int(math.ceil(x - _FEAS_TOL))


def band_sum_target(i_infty: float, eps_tilde: float) -> int:
    """The required r1 + r2: ceil(i_infty + 3 log2(1/eps_tilde)), float noise ignored."""
    target = i_infty + 3 * math.log2(1.0 / eps_tilde)
    if not math.isfinite(target):
        # a subnormal eps_tilde overflows 1/eps_tilde
        raise InfeasibleRates(f"band sum: i_infty + 3 log2(1/eps_tilde) = {target} "
                              f"is not finite (eps_tilde = {eps_tilde})")
    return _ceil_guarded(target)


_VERBS = {"<=": "exceeds", ">=": "is below", "==": "must equal"}


@dataclass(frozen=True)
class BandConstraint:
    """One constraint ``lhs relation rhs`` on the rates and band exponents."""

    name: str
    lhs_text: str
    relation: str
    rhs_text: str
    lhs: int
    rhs: float

    @property
    def slack(self):
        return self.lhs - self.rhs if self.relation == ">=" else self.rhs - self.lhs

    @property
    def violated(self) -> bool:
        if self.relation == "<=":
            return self.lhs > self.rhs + _FEAS_TOL
        if self.relation == ">=":
            return self.lhs < self.rhs - _FEAS_TOL
        return self.lhs != self.rhs

    def message(self) -> str:
        rhs = self.rhs if self.relation == "==" else f"{self.rhs:.6f}"
        return (f"{self.name}: {self.lhs_text} = {self.lhs} {_VERBS[self.relation]} "
                f"{self.rhs_text} = {rhs}")

    def to_json(self) -> dict:
        return {"name": self.name, "lhs": self.lhs, "rhs": self.rhs, "slack": self.slack}


def band_constraints(R1: int, R2: int, r1: int, r2: int, i0b: float, i0c: float,
                     i_infty: float, eps_tilde: float) -> tuple[BandConstraint, ...]:
    """The five constraints the closed-form bounds place on rates and bands."""
    ell = math.log2(1.0 / eps_tilde)
    budget = "4 log2(1/eps_tilde) - 1"
    return (
        BandConstraint("row budget", "R1 + r1", "<=", f"i0b - {budget}",
                       R1 + r1, i0b - 4 * ell - 1),
        BandConstraint("column budget", "R2 + r2", "<=", f"i0c - {budget}",
                       R2 + r2, i0c - 4 * ell - 1),
        BandConstraint("row band floor", "r1", ">=", "log2(1/eps_tilde)", r1, ell),
        BandConstraint("column band floor", "r2", ">=", "log2(1/eps_tilde)", r2, ell),
        BandConstraint("band sum", "r1 + r2", "==", "ceil(i_infty + 3 log2(1/eps_tilde))",
                       r1 + r2, band_sum_target(i_infty, eps_tilde)),
    )


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
    def n_rows(self) -> int:
        return 1 << (self.R1 + self.r1)

    @property
    def n_cols(self) -> int:
        return 1 << (self.R2 + self.r2)

    def validate(self) -> None:
        """Raise InfeasibleRates naming the first violated constraint."""
        if self.eps_infty > 0.25 + _FEAS_TOL:
            raise InfeasibleRates(
                f"thinning budget: eps_infty = {self.eps_infty} exceeds 1/4")
        _require(self.R1, self.R2, self.r1, self.r2, self.i0b, self.i0c, self.i_infty,
                 self.eps_tilde)


def select_band_exponents(R1: int, R2: int, i0b: float, i0c: float, i_infty: float,
                          eps_tilde: float) -> tuple:
    """Choose band exponents (r1, r2) for the given rates and budgets.

    Both start at ceil(log2(1/eps_tilde)); r1 grows toward its budget
    cap first, then r2, until the pair sums to
    ceil(i_infty + 3 log2(1/eps_tilde)).  Raises InfeasibleRates naming
    the first ``band_constraints`` entry the pair violates.
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
    r1 = max(floor_r, min(cap1, target - floor_r))
    r2 = max(floor_r, min(cap2, target - r1))
    _require(R1, R2, r1, r2, i0b, i0c, i_infty, eps_tilde)
    return r1, r2


def _require(*args) -> None:
    """Raise InfeasibleRates naming the first violated ``band_constraints(*args)``."""
    for c in band_constraints(*args):
        if c.violated:
            raise InfeasibleRates(c.message())


# letters Codebook.content_digest widens to int64 at a time
_DIGEST_LETTERS = 1 << 14


@dataclass(frozen=True, eq=False)
class Codebook:
    """Sampled words plus the lazily evaluated rejection indicator.

    ``rows[k]`` and ``cols[l]`` are per-symbol index words of length n
    into the design's row and column alphabets; sampled words come in the
    smallest unsigned type that holds the alphabet, and any integer type
    works.  Message m1 owns the row band [m1 * 2^r1, (m1+1) * 2^r1);
    columns likewise with r2.
    """

    rows: np.ndarray
    cols: np.ndarray
    params: RateParams
    design: InputDesign
    seed: int
    n: int = 1
    # (side, letter count) -> letter_indicators of that side's words
    _indicators: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
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

    @functools.cached_property
    def log_ratio(self) -> np.ndarray:
        """``llr_table`` of the design's joint, computed on first use."""
        return llr_table(self.design.joint)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def n_cols(self) -> int:
        return self.cols.shape[0]

    def indicator(self, k: int, l0: int, l1: int) -> np.ndarray:
        """Rejection indicator of row k over columns [l0, l1)."""
        eta = _eta_rows(mix64(np.uint64([self.seed]), 3), np.array([k]), np.array([l0]), l1 - l0)
        return eta[0] <= _acceptance(self.log_ratio, self.rows[k], self.cols[l0:l1],
                                     self.params.i_infty)

    def letter_indicators(self, side: str, letters: int) -> np.ndarray:
        """``letter_indicators`` of the words of ``side`` ("rows" or "cols"),
        built on first use and kept as long as the codebook."""
        key = (side, letters)
        got = self._indicators.get(key)
        if got is None:
            got = self._indicators[key] = letter_indicators(getattr(self, side), letters)
        return got

    def content_digest(self) -> str:
        """sha256 of the rows, then the columns, as C-ordered int64 letters.

        Each side is widened to int64 ``_DIGEST_LETTERS`` letters at a time
        through one reused buffer, so no int64 copy of a whole side is made.
        """
        h = hashlib.sha256()
        step = max(1, _DIGEST_LETTERS // max(1, self.n))
        buffer = np.empty((min(step, max(self.n_rows, self.n_cols)), self.n), dtype=np.int64)
        for words in (self.rows, self.cols):
            for start in range(0, len(words), step):
                piece = buffer[:min(step, len(words) - start)]
                np.copyto(piece, words[start:start + step], casting="unsafe")
                h.update(piece)
        return h.hexdigest()


def accept_probability(s, i_infty: float):
    """The rejection rule: a cell of llr sum s survives with probability min(1, 2^(s - i_infty))."""
    return np.exp2(np.minimum(s - i_infty, 0.0))


def _acceptance(log_ratio: np.ndarray, row_words: np.ndarray, col_words: np.ndarray,
                i_infty: float) -> np.ndarray:
    """``accept_probability`` of word pairs; the words broadcast against each
    other over all but their last (letter) axis.  Pairs index the table in
    intp: u * |V| would wrap in a compact word type."""
    code = row_words.astype(np.intp) * log_ratio.shape[1] + col_words
    return accept_probability(log_ratio.take(code).sum(axis=-1), i_infty)


# Philox outputs that codebook_block maps to symbols at a time
_RAW_CHUNK = 1 << 15
# outputs up to which a codebook side is drawn as uniforms, many streams to a
# stream_uniforms call, rather than as raw outputs of a stream of its own.
# The two cost the same at about 1,024 outputs a side: from 16 streams a
# side of 256 outputs takes 7.0 against 11.4 us, one of 1,024 10.4 against
# 12.9 us, and one of 28,672 (criterion 1's columns at n = 56) 226 against
# 163 us (medians of 9 alternated timeit batches, 2-vCPU VM, numpy 2.4)
_UNIFORM_SIDE = 1 << 10


def _raw_cuts(pmf_probs: np.ndarray) -> np.ndarray:
    """Cut points of the symbol map on raw Philox outputs.

    ``SeededRng.random`` maps output r to u = (r >> 11) * 2^-53, and a
    symbol is the number of cdf entries c before the last with u >= c,
    as searchsorted(cdf, u, side="right") counts them.  u >= c holds
    exactly when r >= ceil(c * 2^53) << 11.  A cut with
    ceil(c * 2^53) >= 2^53 lies above every u < 1 and is dropped.
    """
    scaled = np.ceil(np.cumsum(pmf_probs)[:-1] * 2.0**53)
    return scaled[scaled < 2.0**53].astype(np.uint64) << np.uint64(11)


def _uniform_cuts(pmf_probs: np.ndarray) -> np.ndarray:
    """``_raw_cuts`` as uniforms: cut c becomes (c >> 11) * 2^-53, which the
    uniform of output r reaches exactly when r reaches c."""
    return (_raw_cuts(pmf_probs) >> np.uint64(11)) * 2.0**-53


def _raw_symbols(cuts: np.ndarray, raw: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Write into ``out`` the number of ``cuts`` at or below each entry of
    ``raw``: raw outputs against ``_raw_cuts``, or uniforms against
    ``_uniform_cuts``."""
    out.fill(0)
    for c in cuts:
        out += raw >= c
    return out


def _word_type(pmf_probs: np.ndarray) -> np.dtype:
    # the smallest unsigned type that holds the alphabet (uint8 up to 256
    # letters), an eighth of the bytes of int64 words
    return np.min_scalar_type(len(pmf_probs) - 1)


def _side_words(pmf_probs: np.ndarray, count: int, n: int, keys, stream_id: int) -> np.ndarray:
    """``count`` words of n letters iid from the pmf per key, shaped
    (keys, count, n), from the first count * n outputs of stream
    (keys[i], stream_id).

    A side of at most _UNIFORM_SIDE outputs is drawn as uniforms by
    ``stream_uniforms``, the sides of several streams in one piece of at
    most _RAW_CHUNK, which meet ``_uniform_cuts``; no stream is opened.  A
    larger side opens its stream and maps its raw outputs, which cost about
    a fifth less to draw than uniforms, through ``_raw_cuts`` at most
    _RAW_CHUNK at a time.  Either way the symbols are those of searchsorted
    on the cdf, and they go straight into the compact word array.
    """
    size = count * n
    words = np.empty((len(keys), size), dtype=_word_type(pmf_probs))
    if size <= _UNIFORM_SIDE:
        cuts = _uniform_cuts(pmf_probs)
        per = _RAW_CHUNK // size
        u = np.empty((min(per, len(keys)), size))
        ids, firsts = [stream_id] * len(u), [0] * len(u)
        for j in range(0, len(keys), per):
            group = stream_uniforms(u[:len(keys) - j], keys[j:j + per], ids, firsts)
            _raw_symbols(cuts, group, words[j:j + len(group)])
    else:
        cuts = _raw_cuts(pmf_probs)
        for word, key in zip(words, keys):
            stream = SeededRng(key, stream_id)
            for start in range(0, size, _RAW_CHUNK):
                piece = word[start:start + _RAW_CHUNK]
                _raw_symbols(cuts, stream.raw(piece.size), piece)
    return words.reshape(len(keys), count, n)


def codebook_bytes(params: RateParams, n: int) -> int:
    """Bytes of the 64-bit outputs one codebook draws; ValidationError over
    ``CODEBOOK_BYTE_BUDGET``.  Absurd exponents are refused before the
    word counts 2^(R+r) are formed."""
    if max(params.R1 + params.r1, params.R2 + params.r2) + (8 * n).bit_length() > 62:
        need = "at least 2^62"
    else:
        size = (params.n_rows + params.n_cols) * n * 8
        if size <= CODEBOOK_BYTE_BUDGET:
            return size
        need = str(size)
    raise ValidationError(f"codebook uniforms take {need} bytes, which exceeds the "
                          f"budget of {CODEBOOK_BYTE_BUDGET} bytes")


def codebook_block(design: InputDesign, params: RateParams, seeds, n: int = 1) -> tuple:
    """Row and column words of one codebook per seed, shaped (seeds, count, n).

    Entry j holds rows iid from p(u)^n and columns iid from p(v)^n, from
    the raw 64-bit outputs of the streams SeededRng(seeds[j], 0).derive(1)
    and .derive(2), one per letter.  The symbols are those of the uniforms
    ``random`` would give, and no codebook of floats is built.
    ValidationError over the byte budget of ``codebook_bytes``.
    """
    codebook_bytes(params, n)
    pu, pv = design.joint.marginals()
    keys = mix64(np.asarray(seeds, dtype=np.uint64), 0).tolist()
    return tuple(_side_words(probs, count, n, keys, stream)
                 for probs, count, stream in ((pu, params.n_rows, 1), (pv, params.n_cols, 2)))


def generate_codebook(design: InputDesign, params: RateParams, seed: int, n: int = 1) -> Codebook:
    """The codebook of one seed: ``codebook_block`` of that seed alone."""
    rows, cols = codebook_block(design, params, [seed], n)
    return Codebook(rows[0], cols[0], params, design, seed, n)


# ---------------------------------------------------------------------------
# acceptance-probability evaluators


class _PairEvaluator:
    """The input map x = f(u, v) the evaluators apply symbol by symbol."""

    def __init__(self, channel, design: InputDesign):
        self.fx = design.x_indices(channel)

    def x_of_pair(self, row_word: np.ndarray, col_word: np.ndarray) -> np.ndarray:
        x = self.fx[row_word, col_word]
        if (x < 0).any():
            raise ValidationError("input map undefined for a sampled pair")
        return x


def _table_alpha_beta(self, row_word: np.ndarray, col_word: np.ndarray) -> tuple:
    """alpha = tables[0][u, f(u, v)] and beta = tables[1][v, f(u, v)] of
    single-letter cells.

    ``row_word`` and ``col_word`` are 1-D arrays of letters, one per cell.
    ``encode_block`` asks once per call, for every letter pair with an
    input.  Each table evaluator binds this as its own ``alpha_beta``,
    since perfbench's tracer patches each class's.
    """
    x = self.x_of_pair(row_word, col_word)
    return self.tables[0][row_word, x], self.tables[1][col_word, x]


def _receiver_sides(channel, design: InputDesign, receivers) -> tuple:
    """(llr table, p(. | x), tau) of Bob's and Charlie's ``ThresholdMembership``."""
    trans = channel.marginals()
    shapes = tuple((count, t.shape[1]) for count, t in zip(design.joint.shape, trans))
    if tuple(r.llr.shape for r in receivers) != shapes:
        raise ValidationError(f"receiver tables must be (|U|, |Y|) and (|V|, |Z|) = {shapes}")
    return tuple((r.llr, t, r.tau) for r, t in zip(receivers, trans))


class ClassicalSetEvaluator(_PairEvaluator):
    """Desk-scale acceptance tables of explicit decoding sets.

    ``receivers`` holds Bob's and Charlie's ``ThresholdMembership``, an
    explicit set being the test at tau = 0 on a 0 / -inf table.
    ``tables[0][u, x]`` is the chance that x lands Bob's output in the
    u-section of Bob's set, ``tables[1][v, x]`` Charlie's likewise.
    Blocklength is fixed to 1: product-alphabet sets are never built.
    """

    def __init__(self, channel, design: InputDesign, receivers):
        super().__init__(channel, design)
        self.tables = tuple((llr >= tau - DECODE_TOL) @ trans.T
                            for llr, trans, tau in _receiver_sides(channel, design, receivers))

    alpha_beta = _table_alpha_beta


class ClassicalThresholdEvaluator(_PairEvaluator):
    """Blocklength-n acceptance probabilities of llr threshold receivers.

    ``receivers`` holds Bob's and Charlie's ``ThresholdMembership``.  alpha
    is the exact probability, via convolution, that Bob's summed llr of
    (u, Y) clears Bob's tau - DECODE_TOL when Y flows through the channel
    driven by x = f(u, v) symbol-wise; beta is Charlie's likewise.

    Both the llr and the channel act symbol by symbol, so alpha depends on
    (u, x) only through its joint type: position t contributes the step
    distribution of llr[u_t, Y] with Y ~ p(y | x_t).  A pair (u, x)
    occurring k times contributes that step's k-fold convolution, cached
    per pair as a prefix table; the present pairs are convolved in
    ascending pair order.  Every convolution is
    :func:`~martonlab.divergences.convolve_atoms` at a 1e-12 bit merge
    tolerance, raising SupportOverflowError past ``THRESHOLD_ATOM_CAP`` atoms.
    """

    def __init__(self, channel, design: InputDesign, receivers):
        super().__init__(channel, design)
        self._sum = functools.partial(convolve_atoms, tol=1e-12, atom_cap=THRESHOLD_ATOM_CAP)
        # per side: (llr table, p(. | x), tau)
        self._sides = _receiver_sides(channel, design, receivers)
        # (side, u, x) -> (k-fold step distribution for k = 0, 1, ...)
        self._powers = {}
        # (side, pair-count bytes) -> tail mass
        self._tails = {}

    def _power(self, side: int, u: int, x: int, k: int) -> tuple:
        """k-fold convolution of the step distribution of the pair (u, x).

        A longer table is built aside and published with one assignment, so
        threads sharing the evaluator only ever read complete tables.
        """
        table = self._powers.get((side, u, x), ((np.zeros(1), np.ones(1)),))
        if len(table) <= k:
            llr, trans, _ = self._sides[side]
            # an atom at -inf clears no threshold and merges with no finite one
            keep = (trans[x] > 0.0) & (llr[u] > -np.inf)
            step = (llr[u][keep], trans[x][keep])
            grown = list(table)
            while len(grown) <= k:
                grown.append(self._sum(grown[-1], step))
            table = self._powers[(side, u, x)] = tuple(grown)
        return table[k]

    def _tail_mass(self, side: int, word: np.ndarray, x: np.ndarray) -> float:
        """Tail mass of one side of a cell, memoized by the cell's joint type.

        The mass depends only on the side and the pair counts, so a memo hit
        returns the float a fresh evaluation would.  Like the powers, each
        mass is published with one assignment, and the memo stops growing at
        ``_TAIL_MEMO_CAP`` joint types.
        """
        llr, trans, tau = self._sides[side]
        nx = trans.shape[0]
        # raveled in intp: word * nx would wrap in a compact word type
        pairs = np.ravel_multi_index((word, x), (llr.shape[0], nx))
        counts = np.bincount(pairs, minlength=llr.shape[0] * nx)
        key = (side, counts.tobytes())
        mass = self._tails.get(key)
        if mass is None:
            parts = [self._power(side, *divmod(int(pair), nx), int(counts[pair]))
                     for pair in np.flatnonzero(counts)]
            values, probs = functools.reduce(self._sum, parts)
            mass = float(probs[values >= tau - DECODE_TOL].sum())
            if len(self._tails) < _TAIL_MEMO_CAP:
                self._tails[key] = mass
        return mass

    def alpha_beta(self, row_word: np.ndarray, col_word: np.ndarray) -> tuple:
        x = self.x_of_pair(row_word, col_word)
        return self._tail_mass(0, row_word, x), self._tail_mass(1, col_word, x)


class QuantumPairEvaluator(_PairEvaluator):
    """Desk-scale acceptance tables Tr[T_u rho_b(x)] and Tr[T_v rho_c(x)].

    ``tests`` holds Bob's and Charlie's stacks of per-label test operators,
    the order-zero divergence witnesses of each side.  ``states`` stacks
    each side's reduced states by input symbol, read-only, for the
    decoders too, and ``tables[s][label, x]`` is side s's acceptance.
    """

    def __init__(self, channel, design: InputDesign, tests):
        super().__init__(channel, design)
        self.states = tuple(np.stack([state(x) for x in channel.x_alphabet])
                            for state in (channel.rho_b, channel.rho_c))
        for states in self.states:
            states.setflags(write=False)
        self.tables = tuple(np.array([[real_trace(test, rho) for rho in states] for test in side])
                            for side, states in zip(tests, self.states))

    alpha_beta = _table_alpha_beta


# ---------------------------------------------------------------------------
# encoding


def encode(codebook: Codebook, m1: int, m2: int, evaluator) -> tuple:
    """``encode_block`` of one trial: (row, col, x) of (m1, m2) in
    ``codebook``, with row and col -1 where it falls back."""
    for name, m, R in (("m1", m1, codebook.params.R1), ("m2", m2, codebook.params.R2)):
        if not 0 <= m < (1 << R):
            raise ValidationError(f"message {name} = {m} outside [0, 2^{R})")
    row, col, x = encode_block(codebook.rows[None], codebook.cols[None], [codebook.seed],
                               np.array([m1]), np.array([m2]), codebook.params,
                               codebook.log_ratio, evaluator)
    return int(row[0]), int(col[0]), x[0]


def encode_block(rows: np.ndarray, cols: np.ndarray, seeds, m1: np.ndarray, m2: np.ndarray,
                 params: RateParams, log_ratio: np.ndarray, evaluator) -> tuple:
    """Encode a block of trials by a rejection scan of their band pairs.

    Trial j encodes (m1[j], m2[j]) into the codebook with words ``rows[j]``,
    ``cols[j]`` (shaped (trials, count, n)) and seed ``seeds[j]``: it picks
    the first cell of its band pair, in (row, column) order, that survives
    rejection and whose alpha and beta clear 1 - 4 eps0, and falls back to
    the all-first-symbol input word when there is none.  Each trial's row
    and column bands are gathered once.  A single-letter table evaluator
    (explicit sets, cq tests) is scanned in windows of rows by
    ``_scan_by_table``; the llr-threshold evaluator, whose tail masses cost
    far more than a lookup, one row offset at a time by ``_scan_by_cell``.
    A cell of acceptance 1 survives whatever its uniform, as every uniform
    is below 1, so a row draws its rejection uniforms only when one can
    change its outcome.  The drawing rows take theirs from their own
    streams at their own positions, by ``stream_uniforms``, which opens no
    stream.  Returns (row, col, x): the chosen indices, -1 where the trial
    falls back, and the input words, all first symbols there.
    """
    trials, w1, w2 = len(seeds), 1 << params.r1, 1 << params.r2
    k0, l0 = m1 * w1, m2 * w2
    # each trial's row and column band, (trials, band, n)
    every = np.arange(trials)
    row_band = rows.reshape(trials, -1, w1, rows.shape[2])[every, m1]
    col_band = cols.reshape(trials, -1, w2, cols.shape[2])[every, m2]
    eta_keys = mix64(np.asarray(seeds, dtype=np.uint64), 3)
    row = np.full(trials, -1, dtype=np.int64)
    col = np.full(trials, -1, dtype=np.int64)
    x = np.zeros((trials, rows.shape[2]), dtype=np.int64)
    scan = _scan_by_cell if isinstance(evaluator, ClassicalThresholdEvaluator) else _scan_by_table
    for j, i, off in scan(row_band, col_band, eta_keys, k0, l0, params, log_ratio, evaluator):
        row[j], col[j] = k0[j] + i, l0[j] + off
        # a passing cell went through alpha_beta, so its input is defined
        x[j] = evaluator.fx[row_band[j, i], col_band[j, off]]
    return row, col, x


def _eta_rows(eta_keys, k, first, w2: int) -> np.ndarray:
    """Rejection uniforms of codebook rows k, columns first to first + w2,
    one row per entry of the uint64 keys ``eta_keys`` = mix64(codebook seed,
    3) and the int arrays ``k`` and ``first``: column l's is output l of
    stream (key, row)."""
    return stream_uniforms(np.empty((len(k), w2)), eta_keys.tolist(), k.tolist(),
                           first.tolist())


# cells a window of the table scan looks up after its first row: a window
# holds about this many over (searching trials x band width) rows, and at
# least one.  On the qubit sweep's sparse points the scan takes the same
# time from 2^17 to 2^20 and about an eighth longer at 2^14
_WINDOW_CELLS = 1 << 18


def _scan_by_table(row_band, col_band, eta_keys, k0, l0, params, log_ratio, evaluator):
    """Yield (trials, row offsets, column offsets) of the trials that find
    their cell, under a single-letter table evaluator.

    The evaluator is asked once, in one ``alpha_beta`` call over the letter
    pairs with an input, so per (u, v) the acceptance and the threshold's
    outcome are tables.  The scan works through windows of row offsets:
    the first row alone, where every trial finds its cell when acceptance is
    dense, then rows of about ``_WINDOW_CELLS`` cells over (searching trials
    x band width).  A row's cells are its letter u against its trial's
    column band, so a window summarises each of its rows, or each (u, trial)
    where there are fewer letters than rows, once: its first sure pass
    (acceptance 1 and passing), whether it needs uniforms (a cell of
    acceptance below 1 comes before its first sure pass), and whether a
    pair with no input comes before that.  Each trial then stops at its
    first row that finds a sure pass with no draw, unless a row before it
    that needs uniforms finds its cell first; those rows are stepped through
    in order, each drawn only while its trial is still searching, so the
    rows drawn are those of a one-row scan.  A surviving cell whose pair has
    no input raises when it comes before its trial's first pass, at the row
    where a one-row scan would.
    """
    thr = 1.0 - 4.0 * float(params.eps0)
    trials, w1 = row_band.shape[:2]
    w2 = col_band.shape[1]
    letters, n_cols = log_ratio.shape
    accept = accept_probability(log_ratio, params.i_infty)
    defined = evaluator.fx >= 0
    gate = np.zeros_like(defined)
    alpha, beta = evaluator.alpha_beta(*np.nonzero(defined))
    gate[defined] = (alpha > thr) & (beta > thr)
    # per (u, v): 0 below acceptance 1, 1 at acceptance 1 and failing, 2 a
    # sure pass; and the acceptance where the pair passes, else -1, which a
    # uniform reaches exactly when the cell survives and passes
    kinds = ((accept >= 1.0) * (1 + gate)).astype(np.int8)
    gated = np.where(gate, accept, -1.0)
    undefined = ~defined if not defined.all() else None
    searching, i = np.arange(trials), 0
    while searching.size and i < w1:
        s = searching.size
        h = 1 if i == 0 else min(w1 - i, max(1, _WINDOW_CELLS // (s * w2)))
        words, band = row_band[searching, i:i + h, 0].astype(np.intp), col_band[searching, :, 0]
        # summary row at[j, r] holds row i + r of trial searching[j]: one
        # summary per window row, or per letter where that is fewer
        if h <= letters:
            code = (words[:, :, None] * n_cols + band[:, None, :]).reshape(-1, w2)
            at = np.arange(s * h).reshape(s, h)
        else:
            code = (np.arange(letters)[:, None, None] * n_cols + band).reshape(-1, w2)
            at = words * s + np.arange(s)[:, None]
        kind = kinds.take(code)
        # the first sure pass and the first cell below acceptance 1, w2 if none
        sure, below = kind == 2, kind == 0
        first_sure = np.where(sure.any(axis=1), sure.argmax(axis=1), w2)
        need = below.any(axis=1) & (below.argmax(axis=1) < first_sure)
        # a trial stops at its first row with a sure pass and no draw, unless
        # a drawing row before it finds its cell
        free = ((first_sure < w2) & ~need).take(at)
        stop = np.where(free.any(axis=1), free.argmax(axis=1), h)
        off = first_sure.take(at[np.arange(s), np.minimum(stop, h - 1)])
        steps = np.arange(h)
        draws = need.take(at) & (steps < stop[:, None])
        visit = draws.any(axis=0)
        if undefined is not None:
            # a row with no draw has acceptance 1 before its first sure pass
            bad = undefined.take(code)
            bad = (bad.any(axis=1) & (bad.argmax(axis=1) < first_sure) & ~need).take(at)
            bad &= steps <= stop[:, None]
            visit |= bad.any(axis=0)
        visit = visit.nonzero()[0]
        passing = gated.take(code) if visit.size else None
        for r in visit:
            d = (draws[:, r] & (stop > r)).nonzero()[0]
            if d.size:
                cells, j = at[d, r], searching[d]
                eta = _eta_rows(eta_keys[j], k0[j] + (i + r), l0[j], w2)
                ok = eta <= passing[cells]
                first = ok.argmax(axis=1)
                hit = ok[np.arange(d.size), first]
                if undefined is not None and (
                        (eta <= accept.take(code[cells])) & undefined.take(code[cells])
                        & ~np.logical_or.accumulate(ok, axis=1)).any():
                    raise ValidationError("input map undefined for a sampled pair")
                stop[d[hit]], off[d[hit]] = r, first[hit]
            if undefined is not None and (bad[:, r] & (stop >= r)).any():
                raise ValidationError("input map undefined for a sampled pair")
        found = stop < h
        yield searching[found], i + stop[found], off[found]
        searching, i = searching[~found], i + h


def _scan_by_cell(row_band, col_band, eta_keys, k0, l0, params, log_ratio, evaluator):
    """Yield (trials, row offset, column offsets) of the trials that find
    their cell, one row offset at a time, under the llr-threshold evaluator:
    its surviving cells are tested in column order up to each trial's first
    pass, so a row draws its uniforms when any of its cells has acceptance
    below 1."""
    thr = 1.0 - 4.0 * float(params.eps0)
    searching, w2 = np.arange(len(row_band)), col_band.shape[1]
    for i in range(row_band.shape[1]):
        if searching.size == 0:
            break
        row_words, col_words = row_band[searching, i], col_band[searching]
        acc = _acceptance(log_ratio, row_words[:, None, :], col_words, params.i_infty)
        alive = acc >= 1.0
        drawn = np.flatnonzero(~alive.all(axis=1))
        if drawn.size:
            j = searching[drawn]
            alive[drawn] = _eta_rows(eta_keys[j], k0[j] + i, l0[j], w2) <= acc[drawn]
        found, off = _first_pass_by_cell(evaluator, row_words, col_words, alive, thr)
        yield searching[found], i, off
        searching = np.delete(searching, found)


def _first_pass_by_cell(evaluator, row_words, col_words, alive, thr) -> tuple:
    """The searching trials (positions in the step's arrays) whose row has a
    surviving cell that clears ``thr``, and the first such column offset;
    surviving cells are tested in column order, each with its own
    ``alpha_beta`` call, up to the first pass."""
    found, offs = [], []
    for s in np.flatnonzero(alive.any(axis=1)):
        for off in np.flatnonzero(alive[s]):
            alpha, beta = evaluator.alpha_beta(row_words[s], col_words[s, off])
            if alpha > thr and beta > thr:
                found.append(s)
                offs.append(off)
                break
    return np.array(found, dtype=np.intp), np.array(offs, dtype=np.intp)


# ---------------------------------------------------------------------------
# decoding


@dataclass(frozen=True, eq=False)
class DecodeResult:
    """The words that match each received word of a (trials, n) block:
    ``matched`` runs trial by trial, ascending within each trial, and
    ``trial`` holds the trial of each of its entries."""

    matched: np.ndarray
    trial: np.ndarray


def letter_indicators(words: np.ndarray, letters: int) -> np.ndarray:
    """Float32 flags of word letters 1..letters-1, shaped (count * (letters - 1), n).

    Row k * (letters - 1) + a - 1 flags the positions where word k holds
    letter a.  The letters take a type that holds them and the words, so
    that neither wraps.
    """
    values = np.arange(1, letters, dtype=np.promote_types(words.dtype,
                                                          np.min_scalar_type(letters - 1)))
    return (words[:, None, :] == values[:, None]).astype(np.float32).reshape(
        -1, words.shape[1])


class ThresholdMembership:
    """Summed-llr decoder test: word matches iff its score clears tau.

    An explicit decoding set is this test at n = 1 on a table of 0 inside
    the set and -inf outside, with tau = 0.  A one-letter word scores its
    table entry at the received letter, looked up: the float the type
    counts below give, one count of 1 times the entry.

    A longer word's score depends on the word only through its type against
    the received word: the counts N[a, b] of positions holding word letter
    a where letter b was received.  The counts of letters 1..|A|-1 come from
    one float32 product of the words' ``letter_indicators`` with the
    one-hot received letters of a whole block of received words; they are
    exact integers, so no BLAS summation order changes them, and letter
    0's counts are the rest of each received letter's positions.  A word
    scores the sum of N[a, b] * llr[a, b] over the finite cells, in float64
    and a fixed (a, b) order, so each score is the same float for any
    block and any BLAS.  A word that meets a non-finite cell (-inf in an
    ``llr_table``) scores -inf.
    """

    def __init__(self, llr: np.ndarray, tau: float):
        self.llr = np.asarray(llr, dtype=float)
        self.tau = float(tau)

    def matches(self, words: np.ndarray, received: np.ndarray,
                indicators: np.ndarray | None = None) -> np.ndarray:
        """Membership of each word against each received word of a (trials, n)
        block, shaped (trials, count).  ``indicators`` are the words'
        ``letter_indicators`` at this table's letter count, built here when
        not given; one-letter words need none."""
        (count, n), (na, nb) = words.shape, self.llr.shape
        if n == 1:
            return self.llr[words[:, 0], received[:, 0, None]] >= self.tau - DECODE_TOL
        if n >= _EXACT_COUNT_LIMIT:
            raise ValidationError(f"threshold decoding counts letters in float32, "
                                  f"exact below {_EXACT_COUNT_LIMIT} positions, got {n}")
        if indicators is None:
            indicators = letter_indicators(words, na)
        trials = received.shape[0]
        # onehot[i, t, b] flags received letter b at position i of trial t
        onehot = (received.T[:, :, None] == np.arange(nb)).astype(np.float32).reshape(n, -1)
        # types[a, b, t] holds N[a, b] of every word against trial t,
        # contiguous, and letter 0's counts are exact integer differences
        types = np.empty((na, nb, trials, count), dtype=np.float32)
        types[1:] = (indicators @ onehot).reshape(count, na - 1, trials, nb).transpose(
            1, 3, 2, 0)
        types[0] = onehot.sum(axis=0).reshape(trials, nb).T[:, :, None]
        for a in range(1, na):
            types[0] -= types[a]
        scores = np.zeros((trials, count))
        for (a, b), value in np.ndenumerate(self.llr):
            if math.isfinite(value):
                scores += np.multiply(types[a, b], value, dtype=float)
            else:
                # a -inf score stays -inf through the finite cells after it
                scores[types[a, b] > 0] = -np.inf
        return scores >= self.tau - DECODE_TOL


def _decode(codebook: Codebook, side: str, received, membership) -> DecodeResult:
    received = np.asarray(received)
    if received.ndim != 2 or received.shape[1] != codebook.n:
        raise ValidationError(f"received words must form a (trials, n) block with "
                              f"n = {codebook.n}, got shape {received.shape}")
    letters = membership.llr.shape[1]
    if received.size and not 0 <= received.min() <= received.max() < letters:
        raise ValidationError(f"received letters must lie in [0, {letters})")
    indicators = (codebook.letter_indicators(side, membership.llr.shape[0])
                  if codebook.n > 1 else None)
    trial, matched = np.nonzero(membership.matches(getattr(codebook, side), received, indicators))
    return DecodeResult(matched, trial)


def decode_rows(codebook: Codebook, received: np.ndarray, membership) -> DecodeResult:
    """Bob's decoder: the rows of ``codebook`` that match each word of a
    (trials, n) block of received words."""
    return _decode(codebook, "rows", received, membership)


def decode_cols(codebook: Codebook, received: np.ndarray, membership) -> DecodeResult:
    """Charlie's decoder: the columns of ``codebook`` that match each word of
    a (trials, n) block of received words."""
    return _decode(codebook, "cols", received, membership)


def _frozen(arr) -> tuple:
    """Hashable content of an array: dtype, shape and bytes."""
    arr = np.ascontiguousarray(arr)
    return arr.dtype.str, arr.shape, arr.tobytes()


def _thawed(key: tuple) -> np.ndarray:
    dtype, shape, data = key
    return np.frombuffer(data, dtype=dtype).reshape(shape)


@functools.lru_cache(maxsize=4096)
def _pgm_table(tests_key: tuple, states_key: tuple, counts: tuple) -> np.ndarray:
    """The outcome probabilities of every state, clipped at 0: row x holds
    q[x, u] of each label u's element, then p_fail[x] of the completion.

    The element of label u is S^{-1/2} T_u S^{-1/2}, and the completion
    I - P_supp(S), with S the sum of the words' test operators: one
    eigendecomposition of S serves every state.  Keyed by content, not
    identity: the table depends only on the test operators, the stacked
    states and the tuple of label counts.  The cache is sized for a sweep
    that comes back to its points, not for one run: the ten criterion-2
    qubit points of the benchmark's ``qubit-sweep``, 200 trials a run, need
    514 tables in one pass over the points, 680 over 100 runs and 789 over
    600 (seed 1).  4096 entries hold them all.
    """
    tests, states = _thawed(tests_key), _thawed(states_key)
    dim = tests.shape[1]
    total = np.zeros((dim, dim), dtype=complex)
    for u, c in enumerate(counts):
        if c:
            total += c * tests[u]
    inv_sqrt, supp = pinv_sqrt(total)
    ops = [inv_sqrt @ t @ inv_sqrt for t in tests] + [np.eye(dim) - supp]
    table = np.clip([[real_trace(op, rho) for op in ops] for rho in states], 0.0, None)
    table.setflags(write=False)
    return table


def pgm_outcome_probabilities(labels: np.ndarray, tests, states, sent) -> np.ndarray:
    """Outcome probabilities of the pretty good measurement, one row per trial.

    Row j measures ``states[sent[j]]`` against one codebook side whose
    words carry the alphabet labels ``labels[j]`` (a (trials, words)
    array).  Word k's element is S^{-1/2} T_{labels[j, k]} S^{-1/2} with S
    the sum of the row's test operators; the last entry is the completion
    outcome off the support of S.  Identical words share an element, so
    the tables run per state and alphabet label, one per distinct label
    counts of the block, found by a dict in order of first use and cached
    by content.  ``tests`` must stack (labels, d, d) operators and
    ``states`` (states, d, d) ones, and ``sent`` must be an integer array
    of one state index per trial.  Each row is divided by its total,
    which must lie within 1e-6 of 1.
    """
    labels, tests = np.asarray(labels), np.asarray(tests)
    if labels.ndim != 2:
        raise ValidationError("measurement decoding is defined for blocklength 1: "
                              f"labels must be a (trials, words) array, got shape {labels.shape}")
    if tests.ndim != 3 or tests.shape[1] != tests.shape[2]:
        raise ValidationError(f"tests must be a (labels, d, d) array, got shape {tests.shape}")
    d = tests.shape[1]
    try:
        states = np.asarray(states)
    except ValueError:  # a ragged list
        raise ValidationError(f"states must be a (states, {d}, {d}) array, "
                              "got matrices of several shapes") from None
    if states.shape[1:] != (d, d):
        raise ValidationError(
            f"states must be a (states, {d}, {d}) array, got shape {states.shape}")
    trials, words = labels.shape
    n_labels, n_states = len(tests), len(states)
    if labels.size and not 0 <= labels.min() <= labels.max() < n_labels:
        raise ValidationError(f"labels must lie in [0, {n_labels})")
    sent = np.asarray(sent)
    if sent.shape != (trials,) or sent.dtype.kind not in "iu" or (
            trials and not 0 <= sent.min() <= sent.max() < n_states):
        raise ValidationError(f"sent must be {trials} integer state indices in [0, {n_states}), "
                              f"got shape {sent.shape} and dtype {sent.dtype}")
    counts = np.empty((trials, n_labels), dtype=np.int64)
    for a in range(n_labels):
        counts[:, a] = np.count_nonzero(labels == a, axis=1)
    # the distinct label counts, in order of first use
    index = {}
    inverse = np.array([index.setdefault(c, len(index)) for c in map(tuple, counts.tolist())],
                       dtype=np.intp)
    tests_key, states_key = _frozen(tests), _frozen(states)
    tables = np.empty((len(index), n_states, n_labels + 1))
    for i, key in enumerate(index):
        tables[i] = _pgm_table(tests_key, states_key, key)
    # the start of each trial's row, (label counts, sent state), in the flat tables
    at = (inverse * n_states + sent.astype(np.intp)) * (n_labels + 1)
    vec = np.empty((trials, words + 1))
    vec[:, :-1] = tables.take(at[:, None] + labels)
    vec[:, -1] = tables.take(at + n_labels)
    total = vec.sum(axis=1)
    bad = np.abs(total - 1.0) > 1e-6
    if bad.any():
        raise ValidationError(
            f"measurement probabilities sum to {float(total[np.argmax(bad)])!r}")
    vec /= total[:, None]
    return vec


def decode_pgm(labels: np.ndarray, tests, states, sent, uniforms) -> np.ndarray:
    """Pretty-good-measurement decoder over one codebook side, a block of trials.

    Trial j measures ``states[sent[j]]`` with the measurement that
    ``pgm_outcome_probabilities`` builds from ``labels[j]`` and ``tests``
    (the test operator of each alphabet label), and ``uniforms[j]`` picks
    the outcome from the row's cumulative probabilities.  Returns the
    outcome of each trial: the index of the decoded word, or the word
    count ``labels.shape[1]`` where the completion outcome fired, which
    decodes to no message.
    """
    cdf = pgm_outcome_probabilities(labels, tests, states, sent)
    uniforms = np.asarray(uniforms)
    if uniforms.shape != cdf.shape[:1]:
        raise ValidationError(f"uniforms must have shape {cdf.shape[:1]}, got {uniforms.shape}")
    np.cumsum(cdf, axis=1, out=cdf)
    cdf[:, -1] = 1.0
    # the number of cut points at or below u: searchsorted(cdf, u, "right")
    # on a row whose cut points before the last ascend and whose last is 1 > u
    return (cdf <= uniforms[:, None]).sum(axis=1)
