"""Closed-form error bounds, the covering lemma, rate regions, and iid curves.

Everything here is deterministic arithmetic on parameters, plus two small
Monte Carlo harnesses (synthetic and design-driven covering experiments)
whose estimates come with Clopper-Pearson confidence limits.
"""

from __future__ import annotations

import functools
import math
import struct
from dataclasses import dataclass, field
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np

from . import coding
from .coding import RateParams
from .divergences import iid_llr_spectra, llr_table, spectrum_i0, spectrum_i_infty
from .errors import ValidationError
from .prob import JointPmf, mutual_information
from .rng import SeededRng

__all__ = [
    "CoveringParams",
    "CoveringBound",
    "CoveringEstimate",
    "covering_bound",
    "synthetic_covering",
    "empirical_covering",
    "clopper_pearson_upper",
    "clopper_pearson_lower",
    "theorem_bounds",
    "ClassicalEventBounds",
    "QuantumEventBounds",
    "event_bounds",
    "RateRegion",
    "marton_region",
    "verdu_region",
    "region_contains",
    "CurvePoint",
    "ConvergenceCurve",
    "iid_convergence_curve",
]


# ---------------------------------------------------------------------------
# confidence limits


# Working precision of the decimal tail sums.  Their rounding error stays
# below (trials + 2) * 10**(10 - _TAIL_DIGITS), a wide margin over the
# ~10 * trials roundings they make, and far below what half an ulp of a
# double moves the tail; exact arithmetic settles anything closer.
_TAIL_DIGITS = 60


def _tail_terms(trials: int, k: int) -> tuple[bool, range]:
    """Side of Pr{Binomial(trials, p) >= k} with fewer terms: below k or not."""
    below = k < trials - k + 1
    return below, (range(0, k) if below else range(k, trials + 1))


def _tail_sign_exact(trials: int, k: int, p: Fraction, level: float) -> int:
    """Sign of Pr{Binomial(trials, p) >= k} - level in exact integer arithmetic."""
    below, js = _tail_terms(trials, k)
    num, den = p.numerator, p.denominator
    scale = den**trials  # every term times scale is an integer
    side = sum(math.comb(trials, j) * num**j * (den - num) ** (trials - j) for j in js)
    level_num, level_den = level.as_integer_ratio()
    diff = (scale - side if below else side) * level_den - level_num * scale
    return (diff > 0) - (diff < 0)


def _tail_sign(trials: int, k: int, p: Fraction, level: float) -> int:
    """Sign of Pr{Binomial(trials, p) >= k} - level, for 1 <= k <= trials.

    The tail is summed in decimal over the side with fewer terms; a result
    inside the rounding-error bound is redone exactly.
    """
    below, js = _tail_terms(trials, k)
    with localcontext() as ctx:
        ctx.prec = _TAIL_DIGITS
        pd = Decimal(p.numerator) / p.denominator
        qd = Decimal(p.denominator - p.numerator) / p.denominator
        ratio = pd / qd
        term = math.comb(trials, js.start) * pd**js.start * qd ** (trials - js.start)
        total = term
        for j in js[:-1]:
            term = term * ratio * (trials - j) / (j + 1)
            total += term
        diff = (1 - total if below else total) - Decimal(level)
        if abs(diff) > Decimal(trials + 2).scaleb(10 - _TAIL_DIGITS):
            return 1 if diff > 0 else -1
    return _tail_sign_exact(trials, k, p, level)


def _bits(x: float) -> int:
    return struct.unpack("<q", struct.pack("<d", x))[0]


def _double(i: int) -> float:
    return struct.unpack("<d", struct.pack("<q", i))[0]


_ONE_BITS = _bits(1.0)


def _rounded_root(trials: int, k: int, level: float, start: float) -> float:
    """The double nearest the p with Pr{Binomial(trials, p) >= k} = level.

    Doubles in [0, 1] are ordered like their bit patterns, so the search
    runs over those integers: it gallops out from ``start`` (any guess,
    even nan) and then bisects.  Index i is "high" when the root lies
    below the midpoint between doubles i and i + 1 (ties to even); the
    answer is the lowest high index.
    """
    def high(i: int) -> bool:
        if i >= _ONE_BITS:
            return True
        mid = (Fraction(_double(i)) + Fraction(_double(i + 1))) / 2
        sign = _tail_sign(trials, k, mid, level)
        return sign > 0 or (sign == 0 and i % 2 == 0)

    lo, hi = -1, _ONE_BITS  # lo is never high, hi always is
    i = min(max(_bits(start), 0), _ONE_BITS)
    step = 1
    if high(i):
        hi, j = i, i - 1
        while j > lo and high(j):
            hi, step = j, 2 * step
            j = hi - step
        lo = max(lo, j)
    else:
        lo, j = i, i + 1
        while j < hi and not high(j):
            lo, step = j, 2 * step
            j = lo + step
        hi = min(hi, j)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if high(mid):
            hi = mid
        else:
            lo = mid
    return _double(hi)


_LN2 = math.log(2.0)


def _scaled_pow(x: float, m: int) -> tuple[float, int]:
    """x**m for 0 < x < 1 as (f, e) with x**m = f * 2**e, free of underflow."""
    f, e = math.frexp(x)
    acc, acc_e = 1.0, e * m
    while m > 0:
        step = min(m, 1000)  # f >= 1/2, so f**step stays a normal double
        acc, de = math.frexp(acc * f**step)
        acc_e += de
        m -= step
    return acc, acc_e


def _log_tail_ratio(trials: int, k: int, upper: bool, p: float, comb: tuple,
                    target: tuple) -> tuple:
    """(log(T / target), T over its boundary term) in floats, where T is
    Pr{Binomial(trials, p) >= k} if ``upper``, else Pr{... <= k - 1}.

    ``comb`` is (f, e) with C(trials, boundary) = f * 2**e, and ``target``
    is (f, e) likewise.  Scaled powers keep the binary exponents exact, so
    the log ratio is accurate to a few ulps of T, even where T and the
    target lie far below the smallest double.
    """
    q = 1.0 - p
    q_lo = (1.0 - q) - p  # q + q_lo == 1 - p exactly
    b = k if upper else k - 1
    pf, pe = _scaled_pow(p, b)
    qf, qe = _scaled_pow(q, trials - b)
    # (q + q_lo)**m == q**m * (1 + q_lo / q)**m
    head = comb[0] * pf * qf * math.exp((trials - b) * math.log1p(q_lo / q))
    ratio = p / q if upper else q / p
    if ((trials - b) / (b + 1) if upper else b / (trials - b + 1)) * ratio >= 1.0:
        # the terms rise away from the boundary, so the side holds a mode of
        # the binomial and hence a median (the two lie within 1 of each
        # other): T >= 1/2 >= target
        return math.inf, math.inf
    # the terms over the boundary term fall from 1, summed while they count
    total = term = 1.0
    if upper:
        for j in range(b, trials):
            term *= (trials - j) / (j + 1) * ratio
            total += term
            if term < 1e-17 * total:
                break
    else:
        for j in range(b, 0, -1):
            term *= j / (trials - j + 1) * ratio
            total += term
            if term < 1e-17 * total:
                break
    return (math.log(head * total / target[0])
            + (comb[1] + pe + qe - target[1]) * _LN2, total)


def _start(trials: int, k: int, level: float) -> float:
    """A double within about an ulp of the p with Pr{Binomial(trials, p) >= k}
    = level, for ``_rounded_root`` to start from, in floats.

    k = 1 and k = trials have closed forms.  Otherwise Halley's method runs
    on log(T / target), where T is the tail whose target is exact: ``level``
    itself when below 1/2, else 1 - level.  It starts from the Beta quantile
    approximation of Abramowitz & Stegun 26.5.22 and keeps a bracket; after
    eight steps, or at a point outside the bracket, it bisects the
    bracket's bit patterns instead, so it ends for any input.  The rounding
    error of the last step tells on which side of the returned double the
    estimate lies: the double returned is the one just below it, so that
    the root most likely lies between it and the next double up, where the
    search needs two tail sums.
    """
    if level == 1.0:
        return 1.0
    if k == 1:
        return -math.expm1(math.log1p(-level) / trials)
    if k == trials:
        return math.exp(math.log(level) / trials)
    # sum the smaller tail, or at level 1/2 the one with fewer terms
    upper = level < 0.5 or (level == 0.5 and trials - k + 1 < k)
    target = level if upper else 1.0 - level
    c = math.comb(trials, k if upper else k - 1)
    comb = (c / (1 << c.bit_length()), c.bit_length())
    a, b = k, trials - k + 1  # the limit is the level quantile of Beta(a, b)
    t = math.sqrt(-2.0 * math.log(target))
    z = t - (2.30753 + 0.27061 * t) / (1.0 + t * (0.99229 + 0.04481 * t))
    z = z if upper else -z  # the normal deviate of level
    al = (z * z - 3.0) / 6.0
    h = 2.0 / (1.0 / (2 * a - 1) + 1.0 / (2 * b - 1))
    w = (z * math.sqrt(al + h) / h
         - (1.0 / (2 * b - 1) - 1.0 / (2 * a - 1)) * (al + 5.0 / 6.0 - 2.0 / (3.0 * h)))
    p = a / (a + b * math.exp(min(max(2.0 * w, -700.0), 700.0)))
    target = math.frexp(target)
    lo, hi = 0.0, 1.0  # brackets the root
    steps = 0
    while True:
        if not lo < p < hi:
            p = _double((_bits(lo) + _bits(hi)) // 2)
            if not lo < p < hi:  # lo and hi are adjacent doubles
                return p
        g, total = _log_tail_ratio(trials, k, upper, p, comb, target)
        if (g < 0) == upper:  # the upper tail rises with p, the lower one falls
            lo = p
        else:
            hi = p
        q = 1.0 - p
        g1 = k / (p * total) if upper else -(trials - k + 1) / (q * total)
        g2 = g1 * ((k - 1) / p - (trials - k) / q) - g1 * g1
        denom = 2.0 * g1 * g1 - g * g2
        step = 2.0 * g * g1 / denom if denom else math.nan
        new = p - step
        if new == p or abs(step) <= 1e-9 * min(p, q):
            # converged: the next step would be rounding noise
            return new if (p - new) - step >= 0.0 else math.nextafter(new, 0.0)
        steps += 1
        p = new if steps <= 8 else math.nan


def _check_binomial(hits: int, trials: int, confidence: float) -> None:
    if not 0 <= hits <= trials or trials <= 0:
        raise ValidationError(f"need 0 <= hits <= trials, got {hits}/{trials}")
    if not 0.0 < confidence < 1.0:
        raise ValidationError(f"confidence must lie in (0, 1), got {confidence}")


@functools.lru_cache(maxsize=4096, typed=True)
def _limit(trials: int, k: int, level: float) -> float:
    """``_rounded_root`` from ``_start``, memoized: trial counts repeat from
    run to run, and the limit depends on nothing else."""
    return _rounded_root(trials, k, level, _start(trials, k, level))


def clopper_pearson_upper(hits: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided upper confidence limit for a binomial proportion.

    The limit is the p at which Pr{Binomial(trials, p) >= hits + 1} equals
    ``confidence`` (the double as given), i.e. the ``confidence`` quantile
    of Beta(hits + 1, trials - hits).  It is returned correctly rounded to
    the nearest double, in pure Python, so it is the same on every platform.
    The arguments are checked on every call; the search is memoized by
    (trials, hits + 1, confidence) in a private 4096-entry LRU cache.
    """
    _check_binomial(hits, trials, confidence)
    if hits == trials:
        return 1.0
    return _limit(trials, hits + 1, confidence)


def clopper_pearson_lower(hits: int, trials: int, confidence: float = 0.95) -> float:
    """One-sided lower confidence limit for a binomial proportion.

    The limit is the p at which Pr{Binomial(trials, p) >= hits} equals
    ``1.0 - confidence`` (computed as a double), i.e. that quantile of
    Beta(hits, trials - hits + 1).  It is returned correctly rounded to the
    nearest double, in pure Python, so it is the same on every platform.
    The arguments are checked on every call; the search is memoized by
    (trials, hits, 1.0 - confidence) in the private LRU cache that the
    upper limit uses.
    """
    _check_binomial(hits, trials, confidence)
    if hits == 0:
        return 0.0
    return _limit(trials, hits, 1.0 - confidence)


# ---------------------------------------------------------------------------
# mutual covering


@dataclass(frozen=True)
class CoveringParams:
    """Band dimensions and moment constants for the covering inequality."""

    r: int
    s: int
    q: float
    alpha: float

    def __post_init__(self):
        if not (isinstance(self.r, int) and isinstance(self.s, int)):
            raise ValidationError("band dimensions r, s must be integers")
        if self.r < 1 or self.s < 1:
            raise ValidationError("band dimensions r, s must be positive")
        if not 0.0 < self.q <= 1.0:
            raise ValidationError(f"q must lie in (0, 1], got {self.q}")
        if not 0.0 < self.alpha <= 1.0:
            raise ValidationError(f"alpha must lie in (0, 1], got {self.alpha}")


@dataclass(frozen=True)
class CoveringBound:
    """Chebyshev bound on the no-accepted-pair probability.

    ``raw`` is the formula value, which can exceed 1 (vacuous regime);
    ``value`` is the raw value clamped into [0, 1] for reporting.
    """

    raw: float
    value: float


def covering_bound(p: CoveringParams) -> CoveringBound:
    """1/(alpha r s q) + (r+s)/(alpha^2 r s), clamped copy included."""
    try:
        raw = 1.0 / (p.alpha * p.r * p.s * p.q) + (p.r + p.s) / (p.alpha**2 * p.r * p.s)
    except ZeroDivisionError:
        # a denominator underflowed to zero: the bound is vacuous
        raw = math.inf
    return CoveringBound(raw, min(1.0, raw))


@dataclass(frozen=True)
class CoveringEstimate:
    """Monte Carlo estimate of Pr{no accepted pair} against the bound."""

    params: CoveringParams
    trials: int
    hits: int
    estimate: float
    upper95: float
    lower95: float
    bound: CoveringBound
    violation: bool

    def to_json(self) -> dict:
        return {
            "r": self.params.r,
            "s": self.params.s,
            "q": self.params.q,
            "alpha": self.params.alpha,
            "trials": self.trials,
            "hits": self.hits,
            "estimate": self.estimate,
            "upper95": self.upper95,
            "lower95": self.lower95,
            "bound_raw": self.bound.raw,
            "bound": self.bound.value,
            "violation": self.violation,
        }


def _estimate(params: CoveringParams, hits: int, trials: int) -> CoveringEstimate:
    bound = covering_bound(params)
    est = hits / trials
    lower = clopper_pearson_lower(hits, trials)
    upper = clopper_pearson_upper(hits, trials)
    return CoveringEstimate(params, trials, hits, est, upper, lower, bound,
                            violation=lower > bound.value)


def _check_uniforms(what: str, count: int) -> None:
    """ValidationError when ``count`` uniforms, 8 bytes each, exceed
    ``coding.CODEBOOK_BYTE_BUDGET``."""
    if 8 * count > coding.CODEBOOK_BYTE_BUDGET:
        raise ValidationError(f"{what} take {8 * count} bytes, which exceeds the budget "
                              f"of {coding.CODEBOOK_BYTE_BUDGET} bytes")


_HALF_RAW = np.uint64(1 << 63)


def synthetic_covering(p: CoveringParams, trials: int, seed: int,
                       family: str = "paired") -> CoveringEstimate:
    """Simulate Pr{Z=0} for indicator arrays with the assumed moments.

    family "independent": every cell is an independent Bernoulli with
    mean alpha*q.  family "paired": rows and columns carry fair bits and
    a cell can only fire when its bits agree, with conditional rate
    2*alpha*q; the mean is again alpha*q and same-row/column second
    moments stay below q^2.  Either way the trial outcome Z=0 is drawn
    from its exact conditional probability given the row and column
    variables, so huge bands never materialize a full cell array.  The
    paired family reads its row and column bits off raw 64-bit stream
    outputs (below 2^63 exactly when the uniform ``random`` would make of
    the output is below 1/2), in trial chunks of at most
    ``coding.CODEBOOK_BYTE_BUDGET`` bytes; ValidationError if one trial's
    bits exceed it.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    rng = SeededRng(seed, 0)
    cell = p.alpha * p.q
    if family == "independent":
        p_zero = (1.0 - cell) ** (p.r * p.s)
        hits = int(np.count_nonzero(rng.random(trials) < p_zero))
    elif family == "paired":
        if 2.0 * cell > 1.0:
            raise ValidationError("paired family needs alpha * q <= 1/2")
        _check_uniforms("the row and column uniforms of one trial", p.r + p.s)
        row_rng, col_rng = rng.derive(1), rng.derive(2)
        z_draws = rng.derive(3).random(trials)
        # trial chunks within the byte budget; each stream continues where
        # the previous chunk stopped, so the bits are those of one big draw
        chunk = coding.CODEBOOK_BYTE_BUDGET // (8 * (p.r + p.s))
        hits = 0
        for start in range(0, trials, chunk):
            size = min(chunk, trials - start)
            ones_u = (row_rng.raw((size, p.r)) < _HALF_RAW).sum(axis=1)
            ones_v = (col_rng.raw((size, p.s)) < _HALF_RAW).sum(axis=1)
            matches = ones_u * ones_v + (p.r - ones_u) * (p.s - ones_v)
            p_zero = (1.0 - 2.0 * cell) ** matches
            hits += int(np.count_nonzero(z_draws[start:start + size] < p_zero))
    else:
        raise ValidationError(f"unknown synthetic family {family!r}")
    return _estimate(p, hits, trials)


def empirical_covering(design, i_inf: float, p: CoveringParams, trials: int,
                       seed: int) -> CoveringEstimate:
    """Estimate Pr{Z=0} for the real rejection indicator over an r x s band.

    Rows and columns are drawn iid from the design marginals and a cell
    is accepted when its uniform clears min(1, ratio / 2^i_inf).  The
    bound is evaluated at the supplied CoveringParams.  ValidationError,
    before any draw, if one trial's r x s uniforms exceed
    ``coding.CODEBOOK_BYTE_BUDGET`` bytes.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    _check_uniforms("the rejection uniforms of one r x s band", p.r * p.s)
    joint = design.joint
    accept = np.exp2(np.minimum(llr_table(joint) - i_inf, 0.0))
    pu, pv = joint.marginals()
    rng = SeededRng(seed, 0)
    row_rng, col_rng, eta_rng = rng.derive(1), rng.derive(2), rng.derive(3)
    cdf_u, cdf_v = np.cumsum(pu), np.cumsum(pv)
    cdf_u[-1] = cdf_v[-1] = 1.0
    hits = 0
    for _ in range(trials):
        rows = row_rng.choice_index(cdf_u, p.r)
        cols = col_rng.choice_index(cdf_v, p.s)
        cell = accept[np.ix_(rows, cols)]
        fired = eta_rng.random((p.r, p.s)) <= cell
        hits += 0 if fired.any() else 1
    return _estimate(p, hits, trials)


# ---------------------------------------------------------------------------
# closed-form event and theorem bounds


def theorem_bounds(eps_tilde: float, eps0: float, setting: str) -> float:
    """Total error budget guaranteed by the achievability statement."""
    if not (0.0 <= eps_tilde < 1.0 and 0.0 <= eps0 < 1.0):
        raise ValidationError("smoothing parameters must lie in [0, 1)")
    if setting == "classical":
        return 37.0 * eps_tilde + 8.0 * eps0
    if setting == "quantum":
        return 40.0 * eps_tilde + 16.0 * eps0
    raise ValidationError(f"unknown setting {setting!r}")


def _e1_terms(r1: int, r2: int, i_infty: float) -> float:
    return 2.0 ** (-r1 - r2 + i_infty + 2) + 2.0 ** (-r1 + 4) + 2.0 ** (-r2 + 4)


@dataclass(frozen=True)
class QuantumEventBounds:
    """Per-event bounds for the measurement-decoder scheme.

    The chain values hold for any parameters.  The theorem forms assume
    band exponents meeting the constraints with real-valued equality;
    rounding the band sum up to an integer can push a chain as high as
    twice its theorem form, so violation checks compare against chains.
    ``e1_claim_literal`` evaluates the doubled first band exponent
    exactly as displayed in the one claim that differs from the
    derivation; it is exposed for comparison, never used in checks.
    """

    e1_formula: float
    e1_claim_literal: float
    e1_theorem: float
    e2_chain: float
    e2_theorem: float
    e3_chain: float
    e3_theorem: float
    total_theorem: float

    def to_json(self) -> dict:
        return dict(self.__dict__)


@dataclass(frozen=True)
class ClassicalEventBounds:
    """Per-event bounds for the explicit-set decoder scheme.

    e2 bounds are parameter-free.  For the confusion events the claimed
    constant is eps_tilde/2 while the displayed derivation supports
    eps_tilde with integer band sums; both are reported and checks use
    the derived (weaker) one.
    """

    e1_formula: float
    e1_claim_literal: float
    e1_theorem: float
    e2b: float
    e2c: float
    e3b_chain: float
    e3c_chain: float
    e3_derived: float
    e3_claimed: float
    total_theorem: float

    def to_json(self) -> dict:
        return dict(self.__dict__)


def event_bounds(params: RateParams, setting: str):
    """Evaluate every per-event bound for the given parameters."""
    r1, r2 = params.r1, params.r2
    e1 = _e1_terms(r1, r2, params.i_infty)
    e1_lit = 2.0 ** (-r1 - r1 + params.i_infty + 2) + 2.0 ** (-r1 + 4) + 2.0 ** (-r2 + 4)
    e1_thm = 36.0 * params.eps_tilde
    if setting == "quantum":
        e2 = 8.0 * params.eps0 + 2.0 ** (params.R1 + 2 * r1 + r2 + 2 - params.i_infty - params.i0b)
        e3 = 8.0 * params.eps0 + 2.0 ** (params.R2 + 2 * r2 + r1 + 2 - params.i_infty - params.i0c)
        e_thm = 8.0 * params.eps0 + 2.0 * params.eps_tilde
        return QuantumEventBounds(
            e1_formula=e1,
            e1_claim_literal=e1_lit,
            e1_theorem=e1_thm,
            e2_chain=e2,
            e2_theorem=e_thm,
            e3_chain=e3,
            e3_theorem=e_thm,
            total_theorem=theorem_bounds(params.eps_tilde, params.eps0, "quantum"),
        )
    if setting == "classical":
        e3b = 2.0 ** (2 * r1 + r2 + params.R1 - params.i_infty - params.i0b)
        e3c = 2.0 ** (r1 + 2 * r2 + params.R2 - params.i_infty - params.i0c)
        return ClassicalEventBounds(
            e1_formula=e1,
            e1_claim_literal=e1_lit,
            e1_theorem=e1_thm,
            e2b=4.0 * params.eps0,
            e2c=4.0 * params.eps0,
            e3b_chain=e3b,
            e3c_chain=e3c,
            e3_derived=params.eps_tilde,
            e3_claimed=params.eps_tilde / 2.0,
            total_theorem=theorem_bounds(params.eps_tilde, params.eps0, "classical"),
        )
    raise ValidationError(f"unknown setting {setting!r}")


# ---------------------------------------------------------------------------
# rate regions


@dataclass(frozen=True)
class RateRegion:
    """Convex rate region {R1, R2 >= 0} cut by per-user and sum caps."""

    name: str
    r1_max: float
    r2_max: float
    sum_max: float | None
    error_budget: float
    empty: bool = field(init=False)
    vertices: tuple = field(init=False)

    def __post_init__(self):
        caps = [self.r1_max, self.r2_max]
        if self.sum_max is not None:
            caps.append(self.sum_max)
        empty = any(c < 0.0 for c in caps)
        object.__setattr__(self, "empty", empty)
        object.__setattr__(self, "vertices", () if empty else tuple(self._corners()))

    def _corners(self):
        a, b = self.r1_max, self.r2_max
        c = self.sum_max if self.sum_max is not None else a + b
        pts = [(0.0, 0.0), (min(a, c), 0.0)]
        if a + b > c:
            # the sum cap bites: two corners where it meets the box
            if a < c:
                pts.append((a, c - a))
            if b < c:
                pts.append((c - b, b))
        else:
            pts.append((a, b))
        pts.append((0.0, min(b, c)))
        seen, out = set(), []
        for p in pts:
            if p not in seen:
                seen.add(p)
                out.append(p)
        return out

    def contains_point(self, R1: float, R2: float, tol: float = 1e-9) -> bool:
        if self.empty:
            return False
        if R1 < -tol or R2 < -tol:
            return False
        if R1 > self.r1_max + tol or R2 > self.r2_max + tol:
            return False
        return self.sum_max is None or R1 + R2 <= self.sum_max + tol

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "r1_max": self.r1_max,
            "r2_max": self.r2_max,
            "sum_max": self.sum_max,
            "error_budget": self.error_budget,
            "empty": self.empty,
            "vertices": [list(p) for p in self.vertices],
        }


def marton_region(i0b: float, i0c: float, i_infty: float, eps_tilde: float,
                  eps0: float, setting: str = "classical",
                  penalties: bool = True) -> RateRegion:
    """Achievable rectangle-with-sum-cut from the one-shot inner bound.

    With ``penalties=False`` the eps-budget terms are stripped, leaving
    the structural region {R1 <= i0b, R2 <= i0c, sum <= i0b+i0c-i_infty}
    used for shape comparisons against the comparator region.
    """
    if not 0.0 < eps_tilde < 1.0:
        raise ValidationError("eps_tilde must lie in (0, 1)")
    ell = math.log2(1.0 / eps_tilde) if penalties else 0.0
    flat = 1.0 if penalties else 0.0
    return RateRegion(
        name="marton",
        r1_max=i0b - 5.0 * ell - 2.0 * flat,
        r2_max=i0c - 5.0 * ell - 2.0 * flat,
        sum_max=i0b + i0c - i_infty - 11.0 * ell - 5.0 * flat,
        error_budget=theorem_bounds(eps_tilde, eps0, setting),
    )


def verdu_region(i0b: float, i0c: float, i_infty: float, eps0: float,
                 eps_infty: float, gamma: float, penalties: bool = True) -> RateRegion:
    """Comparator inner bound; the correlation penalty sits inside R2's cap.

    The penalty terms are natural-log reciprocals exactly as printed in
    the source inequalities, so gamma near 1 is the lenient regime.
    ``penalties=False`` strips them for shape comparisons but keeps the
    correlation charge on R2, which is structural.
    """
    if not 0.0 < gamma < 1.0:
        raise ValidationError("gamma must lie in (0, 1)")
    pen = math.log(1.0 / gamma) if penalties else 0.0
    return RateRegion(
        name="verdu",
        r1_max=i0b - pen,
        r2_max=i0c - i_infty - 2.0 * pen,
        sum_max=None,
        error_budget=2.0 * eps0 + eps_infty + 2.0 * gamma + math.exp(-1.0 / gamma),
    )


def region_contains(outer: RateRegion, inner: RateRegion, tol: float = 1e-9) -> bool:
    """True when every vertex of the inner region lies in the outer one."""
    if inner.empty:
        return True
    if outer.empty:
        return False
    return all(outer.contains_point(x, y, tol) for x, y in inner.vertices)


# ---------------------------------------------------------------------------
# iid convergence curves


@dataclass(frozen=True)
class CurvePoint:
    n: int
    i0_rate: float
    i_infty_rate: float


@dataclass(frozen=True)
class ConvergenceCurve:
    """Normalized divergence rates per blocklength with their Shannon targets."""

    points: tuple
    target_i0: float
    target_i_infty: float

    def to_json(self) -> dict:
        return {
            "points": [
                {"n": p.n, "i0_rate": p.i0_rate, "i_infty_rate": p.i_infty_rate}
                for p in self.points
            ],
            "target_i0": self.target_i0,
            "target_i_infty": self.target_i_infty,
        }

    def to_csv_rows(self) -> list:
        rows = [("n", "i0_rate", "i_infty_rate", "target_i0", "target_i_infty")]
        for p in self.points:
            rows.append((p.n, p.i0_rate, p.i_infty_rate, self.target_i0, self.target_i_infty))
        return rows


def iid_convergence_curve(base_uy: JointPmf, base_uv: JointPmf, eps: float,
                          n_list, method: str = "randomized") -> ConvergenceCurve:
    """Sweep (1/n) I0 and (1/n) I_infty over block sizes.

    The first joint drives the order-zero rate toward its mutual
    information; the second drives the order-infinity rate toward its
    own.  Both use the per-symbol llr spectrum, built for all block
    sizes in one pass per joint, so n in the hundreds stays cheap.  Points
    keep the order of ``n_list``.
    """
    if not 0.0 <= eps < 1.0:  # before the spectra, which can take seconds
        raise ValidationError(f"eps must lie in [0, 1), got {eps}")
    n_list = list(n_list)
    spectra_uy = iid_llr_spectra(base_uy, n_list)
    spectra_uv = iid_llr_spectra(base_uv, n_list)
    pts = tuple(CurvePoint(int(n), spectrum_i0(s0, eps, method).value / n,
                           spectrum_i_infty(s1, eps).value / n)
                for n, s0, s1 in zip(n_list, spectra_uy, spectra_uv))
    return ConvergenceCurve(pts, mutual_information(base_uy), mutual_information(base_uv))
