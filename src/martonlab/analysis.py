"""Closed-form error bounds, the covering lemma, rate regions, and iid curves.

Everything here is deterministic arithmetic on parameters, plus two small
Monte Carlo harnesses (synthetic and design-driven covering experiments)
whose estimates come with Clopper-Pearson confidence limits.
"""

from __future__ import annotations

import functools
import math
import operator
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
    "CoveringEstimate",
    "covering_bound",
    "synthetic_covering",
    "empirical_covering",
    "clopper_pearson_upper",
    "clopper_pearson_lower",
    "theorem_bounds",
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


# the level of every limit: the report's lower95/upper95 and exit code 1's
# "violated at 95% confidence"
_CONFIDENCE = 0.95

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


def _check_binomial(hits: int, trials: int) -> tuple[int, int]:
    """The counts as Python ints, so that the search and the memo see one
    type whatever integer type (numpy's too) the caller counts in."""
    try:
        hits, trials = operator.index(hits), operator.index(trials)
    except TypeError:
        raise ValidationError(f"counts must be integers, got {hits!r}/{trials!r}") from None
    if not 0 <= hits <= trials or trials <= 0:
        raise ValidationError(f"need 0 <= hits <= trials, got {hits}/{trials}")
    return hits, trials


@functools.lru_cache(maxsize=4096)
def _limit(trials: int, k: int, level: float) -> float:
    """``_rounded_root`` from ``_start``, memoized: trial counts repeat from
    run to run, and the limit depends on nothing else."""
    return _rounded_root(trials, k, level, _start(trials, k, level))


def clopper_pearson_upper(hits: int, trials: int) -> float:
    """One-sided 95% upper confidence limit for a binomial proportion.

    The limit is the p at which Pr{Binomial(trials, p) >= hits + 1} equals
    0.95, i.e. the 0.95 quantile of Beta(hits + 1, trials - hits).  It is
    returned correctly rounded to the nearest double, in pure Python, so it
    is the same on every platform.  The arguments are checked on every
    call; the search is memoized by (trials, hits + 1, 0.95) in a private
    4096-entry LRU cache.
    """
    hits, trials = _check_binomial(hits, trials)
    if hits == trials:
        return 1.0
    return _limit(trials, hits + 1, _CONFIDENCE)


def clopper_pearson_lower(hits: int, trials: int) -> float:
    """One-sided 95% lower confidence limit for a binomial proportion.

    The limit is the p at which Pr{Binomial(trials, p) >= hits} equals
    ``1.0 - 0.95`` (computed as a double), i.e. that quantile of
    Beta(hits, trials - hits + 1).  It is returned correctly rounded to the
    nearest double, in pure Python, so it is the same on every platform.
    The arguments are checked on every call; the search is memoized by
    (trials, hits, 1.0 - 0.95) in the private LRU cache that the upper
    limit uses.
    """
    hits, trials = _check_binomial(hits, trials)
    if hits == 0:
        return 0.0
    return _limit(trials, hits, 1.0 - _CONFIDENCE)


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


def covering_bound(p: CoveringParams) -> float:
    """1/(alpha r s q) + (r+s)/(alpha^2 r s), unclamped: above 1 the bound is
    vacuous, and inf when a denominator underflows."""
    try:
        return 1.0 / (p.alpha * p.r * p.s * p.q) + (p.r + p.s) / (p.alpha**2 * p.r * p.s)
    except ZeroDivisionError:
        # a denominator underflowed to zero: the bound is vacuous
        return math.inf


@dataclass(frozen=True)
class CoveringEstimate:
    """Monte Carlo estimate of Pr{no accepted pair} against the bound.

    ``bound_raw`` is ``covering_bound`` of the params, which can exceed 1;
    ``bound`` clamps it into [0, 1] for reporting.
    """

    params: CoveringParams
    trials: int
    hits: int
    estimate: float
    upper95: float
    lower95: float
    bound_raw: float
    violation: bool

    @property
    def bound(self) -> float:
        return min(1.0, self.bound_raw)

    def to_json(self) -> dict:
        doc = {**vars(self.params), **vars(self), "bound": self.bound}
        del doc["params"]
        return doc


def _estimate(params: CoveringParams, hits: int, trials: int) -> CoveringEstimate:
    bound = covering_bound(params)
    est = hits / trials
    lower = clopper_pearson_lower(hits, trials)
    upper = clopper_pearson_upper(hits, trials)
    return CoveringEstimate(params, trials, hits, est, upper, lower, bound,
                            violation=lower > min(1.0, bound))


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
    the output is below 1/2).  Every draw goes in trial chunks of at most
    ``coding.CODEBOOK_BYTE_BUDGET`` bytes, each stream continuing where the
    previous chunk stopped, so the outcomes are those of one draw per
    stream; ValidationError if one trial's paired bits exceed the budget,
    or, before any draw, if numpy could not hold the trials' uniforms in
    one array.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    if trials > np.iinfo(np.intp).max // 8:
        raise ValidationError(f"cannot draw {trials} uniforms: no numpy array holds them")
    rng = SeededRng(seed, 0)
    cell = p.alpha * p.q
    if family == "independent":
        p_zero = (1.0 - cell) ** (p.r * p.s)
        chunk = coding.CODEBOOK_BYTE_BUDGET // 8
        hits = sum(int(np.count_nonzero(rng.random(min(chunk, trials - start)) < p_zero))
                   for start in range(0, trials, chunk))
    elif family == "paired":
        if 2.0 * cell > 1.0:
            raise ValidationError("paired family needs alpha * q <= 1/2")
        _check_uniforms("the row and column uniforms of one trial", p.r + p.s)
        row_rng, col_rng, z_rng = rng.derive(1), rng.derive(2), rng.derive(3)
        chunk = coding.CODEBOOK_BYTE_BUDGET // (8 * (p.r + p.s))
        hits = 0
        for start in range(0, trials, chunk):
            size = min(chunk, trials - start)
            ones_u = np.count_nonzero(row_rng.raw((size, p.r)) < _HALF_RAW, axis=1)
            ones_v = np.count_nonzero(col_rng.raw((size, p.s)) < _HALF_RAW, axis=1)
            matches = ones_u * ones_v + (p.r - ones_u) * (p.s - ones_v)
            p_zero = (1.0 - 2.0 * cell) ** matches
            hits += int(np.count_nonzero(z_rng.random(size) < p_zero))
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
    accept = coding.accept_probability(llr_table(joint), i_inf)
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


def event_bounds(params: RateParams, setting: str) -> dict:
    """Every per-event bound for the given parameters: the report's ``bounds``.

    Chain values hold for any parameters.  Theorem forms assume band
    exponents meeting the constraints with real-valued equality; rounding
    the band sum up to an integer can push a chain as high as twice its
    theorem form, so violation checks compare against chains.
    ``e1_claim_literal`` evaluates the doubled first band exponent exactly
    as displayed in the one claim that differs from the derivation; it is
    reported for comparison, never used in checks.  The classical e2 bounds
    are parameter-free.  For its confusion events the claimed constant
    ``e3_claimed`` is eps_tilde/2, while the displayed derivation supports
    ``e3_derived`` = eps_tilde with integer band sums; checks use the
    derived (weaker) one.
    """
    p, r1, r2 = params, params.r1, params.r2
    total = theorem_bounds(p.eps_tilde, p.eps0, setting)  # rejects an unknown setting
    out = dict(
        e1_formula=2.0 ** (-r1 - r2 + p.i_infty + 2) + 2.0 ** (-r1 + 4) + 2.0 ** (-r2 + 4),
        e1_claim_literal=2.0 ** (-r1 - r1 + p.i_infty + 2) + 2.0 ** (-r1 + 4) + 2.0 ** (-r2 + 4),
        e1_theorem=36.0 * p.eps_tilde,
    )
    if setting == "quantum":
        e_thm = 8.0 * p.eps0 + 2.0 * p.eps_tilde
        out.update(e2_chain=8.0 * p.eps0 + 2.0 ** (p.R1 + 2 * r1 + r2 + 2 - p.i_infty - p.i0b),
                   e2_theorem=e_thm,
                   e3_chain=8.0 * p.eps0 + 2.0 ** (p.R2 + 2 * r2 + r1 + 2 - p.i_infty - p.i0c),
                   e3_theorem=e_thm)
    else:
        out.update(e2b=4.0 * p.eps0, e2c=4.0 * p.eps0,
                   e3b_chain=2.0 ** (2 * r1 + r2 + p.R1 - p.i_infty - p.i0b),
                   e3c_chain=2.0 ** (r1 + 2 * r2 + p.R2 - p.i_infty - p.i0c),
                   e3_derived=p.eps_tilde, e3_claimed=p.eps_tilde / 2.0)
    out["total_theorem"] = total
    return out


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

    def contains_point(self, R1: float, R2: float) -> bool:
        # slack on every cap, so that a vertex of one region computed along
        # another path still counts as inside it
        tol = 1e-9
        if self.empty:
            return False
        if R1 < -tol or R2 < -tol:
            return False
        if R1 > self.r1_max + tol or R2 > self.r2_max + tol:
            return False
        return self.sum_max is None or R1 + R2 <= self.sum_max + tol

    def to_json(self) -> dict:
        return dict(vars(self))


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


def region_contains(outer: RateRegion, inner: RateRegion) -> bool:
    """True when every vertex of the inner region lies in the outer one."""
    if inner.empty:
        return True
    if outer.empty:
        return False
    return all(outer.contains_point(x, y) for x, y in inner.vertices)


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
        return {**vars(self), "points": [dict(vars(p)) for p in self.points]}

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
