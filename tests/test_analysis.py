"""Bound formulas, covering-lemma simulations, rate regions, and iid curves."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from martonlab import analysis, coding
from martonlab.analysis import (
    ConvergenceCurve,
    CoveringParams,
    clopper_pearson_lower,
    clopper_pearson_upper,
    covering_bound,
    empirical_covering,
    event_bounds,
    iid_convergence_curve,
    marton_region,
    region_contains,
    synthetic_covering,
    theorem_bounds,
    verdu_region,
)
from martonlab.channels import InputDesign
from martonlab.coding import RateParams, select_band_exponents
from martonlab.divergences import classical_i0, classical_i_infty
from martonlab.errors import ValidationError
from martonlab.prob import JointPmf
from martonlab.rng import SeededRng

DSBS_45 = np.array([[0.45, 0.05], [0.05, 0.45]])


def dsbs_joint(probs=DSBS_45):
    return JointPmf(("0", "1"), ("0", "1"), np.asarray(probs))


class TestClopperPearson:
    def test_zero_hits_closed_form(self):
        # exact: upper limit solves (1-p)^n = 0.05
        assert clopper_pearson_upper(0, 100) == pytest.approx(1 - 0.05 ** (1 / 100), abs=1e-12)
        assert clopper_pearson_lower(0, 100) == 0.0

    def test_all_hits_closed_form(self):
        assert clopper_pearson_upper(50, 50) == 1.0
        assert clopper_pearson_lower(50, 50) == pytest.approx(0.05 ** (1 / 50), abs=1e-12)

    def test_interval_brackets_rate(self):
        lo = clopper_pearson_lower(30, 200)
        hi = clopper_pearson_upper(30, 200)
        assert lo < 30 / 200 < hi

    def test_monotone_in_hits(self):
        uppers = [clopper_pearson_upper(h, 100) for h in range(0, 101, 10)]
        assert all(a < b for a, b in zip(uppers, uppers[1:]))

    def test_validation(self):
        with pytest.raises(ValidationError):
            clopper_pearson_upper(-1, 10)
        with pytest.raises(ValidationError):
            clopper_pearson_lower(11, 10)

    def test_confidence_validation(self):
        with pytest.raises(ValidationError):
            clopper_pearson_upper(3, 10, confidence=1.5)
        with pytest.raises(ValidationError):
            clopper_pearson_lower(3, 10, confidence=0.0)

    # (hits, trials): every count in the golden report, hits near trials,
    # and a spread of interior and one-trial cases
    EXACT_CASES = [(0, 50), (4, 50), (5, 50), (35, 50), (50, 50), (48, 50), (49, 50),
                   (58, 60), (59, 60), (30, 60), (1, 7), (0, 1), (1, 1)]

    @pytest.mark.parametrize("hits,trials", EXACT_CASES)
    def test_limits_are_correctly_rounded(self, hits, trials):
        # upper: Pr{Bin >= hits+1} = 0.95;  lower: Pr{Bin >= hits} = 1 - 0.95
        upper = 1.0 if hits == trials else _exact_limit(trials, hits + 1, 0.95)
        lower = 0.0 if hits == 0 else _exact_limit(trials, hits, 1.0 - 0.95)
        assert clopper_pearson_upper(hits, trials) == upper
        assert clopper_pearson_lower(hits, trials) == lower

    def test_golden_report_limits(self):
        assert clopper_pearson_upper(0, 50) == 0.05815507911697225
        assert clopper_pearson_lower(4, 50) == 0.02778766839293056
        assert clopper_pearson_lower(5, 50) == 0.04023659040211459
        assert clopper_pearson_lower(35, 50) == 0.5762670333919176

    def test_exact_fallback_gives_same_limits(self, monkeypatch):
        # too few decimal digits to decide the sign: every tail goes exact
        analysis._limit.cache_clear()
        calls = []
        exact = analysis._tail_sign_exact
        monkeypatch.setattr(analysis, "_TAIL_DIGITS", 16)
        monkeypatch.setattr(analysis, "_tail_sign_exact",
                            lambda *args: calls.append(args) or exact(*args))
        assert clopper_pearson_upper(0, 50) == 0.05815507911697225
        assert clopper_pearson_lower(4, 50) == 0.02778766839293056
        assert calls

    def test_any_start_point_reaches_the_same_limit(self):
        want = clopper_pearson_lower(4, 50)
        for start in (0.0, 1e-300, 0.5, 1.0, math.nan):
            assert analysis._rounded_root(50, 4, 1.0 - 0.95, start) == want

    def test_grid_limits_match_the_search_started_by_scipy(self, limit_grid):
        special = pytest.importorskip("scipy.special")
        for trials, hits, confidence, upper, limit, _ in limit_grid:
            k, level = (hits + 1, confidence) if upper else (hits, 1.0 - confidence)
            start = special.betaincinv(k, trials - k + 1, level)
            assert limit == analysis._rounded_root(trials, k, level, start), \
                (trials, hits, confidence, upper)

    def test_grid_limits_stay_within_their_tail_sum_budget(self, limit_grid):
        # two sums are the least any search needs: the signs at the
        # midpoints on either side of the answer
        sums = [s for *_, s in limit_grid]
        assert min(sums) == 2
        assert sum(sums) / len(sums) <= 2.25
        assert max(sums) <= 8

    @pytest.mark.parametrize("trials", [16, 20, 50, 200])
    def test_limits_at_every_hit_count_take_about_two_tail_sums(self, monkeypatch, trials):
        # every limit at the trial counts the Monte Carlo runs use
        analysis._limit.cache_clear()
        sums = _count_tail_sums(monkeypatch)
        limits = 0
        for hits in range(trials + 1):
            limits += (hits < trials) + (hits > 0)
            clopper_pearson_upper(hits, trials)
            clopper_pearson_lower(hits, trials)
        assert len(sums) / limits <= 2.1

    def test_memoized_limits_equal_the_search(self):
        def search(trials, k, level):
            return analysis._rounded_root(trials, k, level, analysis._start(trials, k, level))

        for _ in range(2):  # the second pass reads the memo
            for trials in range(1, 25):
                for hits in range(trials + 1):
                    for c in (0.5, 0.95, 0.999):
                        if hits < trials:
                            assert clopper_pearson_upper(hits, trials, c) == search(
                                trials, hits + 1, c)
                        if hits > 0:
                            assert clopper_pearson_lower(hits, trials, c) == search(
                                trials, hits, 1.0 - c)
        assert analysis._limit.cache_info().hits > 0

    def test_bad_arguments_raise_after_a_good_call(self):
        assert clopper_pearson_upper(3, 10) == clopper_pearson_upper(3, 10)
        assert clopper_pearson_lower(3, 10) == clopper_pearson_lower(3, 10)
        for hits, trials, confidence in ((-1, 10, 0.95), (11, 10, 0.95), (3, 0, 0.95),
                                         (3, 10, 1.5), (3, 10, 0.0)):
            for limit in (clopper_pearson_upper, clopper_pearson_lower):
                with pytest.raises(ValidationError):
                    limit(hits, trials, confidence)

    @pytest.mark.parametrize("trials", [2, 3, 10, 200, 5000])
    def test_start_is_a_probability_at_extreme_levels(self, trials):
        levels = (5e-324, 1e-300, 2.0**-53, 1e-6, 0.5, 1.0 - 2.0**-53, 1.0)
        for k in sorted({1, 2, trials // 2, trials - 1, trials}):
            for level in levels:
                assert 0.0 <= analysis._start(trials, k, level) <= 1.0, (k, level)

    @pytest.mark.parametrize("hits,trials", [(2, 10), (50, 100), (998, 1000), (1, 300)])
    def test_extreme_confidences_reach_the_limit_in_few_tail_sums(self, monkeypatch,
                                                                  hits, trials):
        for confidence in (5e-324, 1e-300, 1e-6, 1.0 - 2.0**-53):
            for k, level in ((hits + 1, confidence), (hits, 1.0 - confidence)):
                want = analysis._rounded_root(trials, k, level, 0.5)
                with monkeypatch.context() as m:
                    sums = _count_tail_sums(m)
                    got = analysis._rounded_root(trials, k, level,
                                                 analysis._start(trials, k, level))
                assert got == want, (k, level)
                assert len(sums) <= 4, (k, level)


# trial counts 1-1000 and every 16th up to 5000, hits 0, 1, trials - 1 and
# trials, three confidences, upper and lower limits
GRID_TRIALS = [*range(1, 1001), *range(1016, 5001, 16)]
GRID_CONFIDENCES = (0.5, 0.95, 0.999999)


def _count_tail_sums(monkeypatch) -> list:
    """Patch ``analysis._tail_sign`` to log its calls; return the log."""
    calls = []
    tail_sign = analysis._tail_sign
    monkeypatch.setattr(analysis, "_tail_sign",
                        lambda *args: calls.append(args) or tail_sign(*args))
    return calls


@pytest.fixture(scope="module")
def limit_grid():
    """(trials, hits, confidence, upper, limit, tail sums) of every grid limit
    that takes a search (all but the upper at hits = trials and the lower
    at hits = 0)."""
    out = []
    with pytest.MonkeyPatch.context() as m:
        sums = _count_tail_sums(m)
        for trials in GRID_TRIALS:
            for hits in sorted({0, 1, trials - 1, trials}):
                for confidence in GRID_CONFIDENCES:
                    for upper in (True, False):
                        if hits == (trials if upper else 0):
                            continue
                        # at confidence 1/2 the upper limit at hits and the
                        # lower one at hits + 1 are one search: count each
                        analysis._limit.cache_clear()
                        before = len(sums)
                        limit = (clopper_pearson_upper if upper else clopper_pearson_lower)(
                            hits, trials, confidence)
                        out.append((trials, hits, confidence, upper, limit, len(sums) - before))
    return out


def _exact_limit(trials, k, level):
    """Double nearest the p with Pr{Binomial(trials, p) >= k} = level.

    Bisection in exact Fraction arithmetic until both ends of the bracket
    round (correctly, as Fraction.__float__ does) to the same double.
    """
    level = Fraction(level)

    def tail(p):
        return sum(math.comb(trials, j) * p**j * (1 - p) ** (trials - j)
                   for j in range(k, trials + 1))

    lo, hi = Fraction(0), Fraction(1)
    while float(lo) != float(hi):
        mid = (lo + hi) / 2
        if tail(mid) < level:
            lo = mid
        else:
            hi = mid
    return float(lo)


class TestCoveringBound:
    def test_reference_point(self):
        b = covering_bound(CoveringParams(1024, 1024, 2.0**-10, 0.25))
        assert b.raw == pytest.approx(1 / 256 + 1 / 32, abs=1e-15)
        assert b.value == b.raw

    def test_vacuous_point_keeps_raw(self):
        b = covering_bound(CoveringParams(2, 2, 1.0, 1.0))
        assert b.raw == pytest.approx(1.25)
        assert b.value == 1.0

    def test_doubling_r_shrinks_bound(self):
        p1 = covering_bound(CoveringParams(16, 64, 0.01, 0.25)).raw
        p2 = covering_bound(CoveringParams(32, 64, 0.01, 0.25)).raw
        assert p2 < p1

    def test_param_validation(self):
        with pytest.raises(ValidationError):
            CoveringParams(0, 4, 0.5, 0.5)
        with pytest.raises(ValidationError):
            CoveringParams(4, 4, 0.0, 0.5)
        with pytest.raises(ValidationError):
            CoveringParams(4, 4, 1.5, 0.5)
        with pytest.raises(ValidationError):
            CoveringParams(4, 4, 0.5, 0.0)


class TestSyntheticCovering:
    def test_independent_matches_analytic(self):
        p = CoveringParams(16, 16, 1 / 256, 0.25)
        analytic = (1 - 0.25 / 256) ** 256
        est = synthetic_covering(p, 8000, seed=7, family="independent")
        sigma = math.sqrt(analytic * (1 - analytic) / 8000)
        assert abs(est.estimate - analytic) < 4 * sigma
        assert not est.violation

    def test_paired_respects_bound(self):
        p = CoveringParams(1024, 1024, 2.0**-10, 0.25)
        est = synthetic_covering(p, 5000, seed=11, family="paired")
        assert est.estimate <= est.bound.value
        assert not est.violation

    def test_deterministic(self):
        p = CoveringParams(64, 64, 0.01, 0.25)
        a = synthetic_covering(p, 2000, seed=3, family="paired")
        b = synthetic_covering(p, 2000, seed=3, family="paired")
        assert a.hits == b.hits

    def test_json_round(self):
        p = CoveringParams(8, 8, 0.125, 0.5)
        est = synthetic_covering(p, 500, seed=9)
        d = est.to_json()
        assert d["r"] == 8 and d["trials"] == 500
        assert d["bound_raw"] >= d["bound"]

    def test_rejects_bad_inputs(self):
        p = CoveringParams(8, 8, 0.9, 0.9)
        with pytest.raises(ValidationError):
            synthetic_covering(p, 100, seed=0, family="paired")
        with pytest.raises(ValidationError):
            synthetic_covering(CoveringParams(8, 8, 0.1, 0.5), 0, seed=0)
        with pytest.raises(ValidationError):
            synthetic_covering(CoveringParams(8, 8, 0.1, 0.5), 100, seed=0, family="nope")

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1])
    def test_seed_outside_64_bits_rejected(self, seed):
        with pytest.raises(ValidationError, match="seed"):
            synthetic_covering(CoveringParams(8, 8, 0.1, 0.5), 100, seed=seed)


def float_paired_hits(p: CoveringParams, trials: int, seed: int) -> int:
    """Hits of ``synthetic_covering``'s paired family with its bits taken as
    ``random() < 0.5``, in one draw per stream."""
    rng = SeededRng(seed, 0)
    ones_u = (rng.derive(1).random((trials, p.r)) < 0.5).sum(axis=1)
    ones_v = (rng.derive(2).random((trials, p.s)) < 0.5).sum(axis=1)
    matches = ones_u * ones_v + (p.r - ones_u) * (p.s - ones_v)
    p_zero = (1.0 - 2.0 * p.alpha * p.q) ** matches
    return int(np.count_nonzero(rng.derive(3).random(trials) < p_zero))


class TestPairedBits:
    """The paired family's bits from raw outputs are those of the uniforms."""

    # Pr{Z=0 | bits} lies near 1/2 and moves with the match count, so the
    # hits follow the bits
    PARAMS = CoveringParams(24, 40, 2.0**-10, 0.75)

    @pytest.mark.parametrize("seed", [0, 1, 7, 2**63, 2**64 - 1])
    def test_raw_bits_give_the_hits_of_the_uniforms(self, seed):
        hits = synthetic_covering(self.PARAMS, 400, seed=seed).hits
        assert 0 < hits < 400
        assert hits == float_paired_hits(self.PARAMS, 400, seed)

    @pytest.mark.parametrize("seed", [3, 11])
    def test_across_trial_chunks(self, monkeypatch, seed):
        p = self.PARAMS
        # seven trials' bits per chunk: 400 trials end mid-chunk
        monkeypatch.setattr(coding, "CODEBOOK_BYTE_BUDGET", 7 * 8 * (p.r + p.s))
        assert synthetic_covering(p, 400, seed=seed).hits == float_paired_hits(p, 400, seed)


class TestCoveringBudget:
    """Covering runs draw within ``coding.CODEBOOK_BYTE_BUDGET`` bytes of uniforms."""

    @pytest.mark.parametrize("trials", [1, 3, 50])
    def test_paired_chunks_give_the_same_hits(self, monkeypatch, trials):
        # Pr{Z=0 | bits} = 2^-matches, so the hits follow the bits closely
        p = CoveringParams(2, 2, 0.5, 0.5)
        whole = synthetic_covering(p, trials, seed=4, family="paired")
        sizes = []

        def spy(draw):
            def sized(self, size=None):
                sizes.append(size)
                return draw(self, size)
            return sized

        # the bits come from raw outputs, the outcomes from uniforms
        for name in ("random", "raw"):
            monkeypatch.setattr(SeededRng, name, spy(getattr(SeededRng, name)))
        # three trials' row and column uniforms
        monkeypatch.setattr(coding, "CODEBOOK_BYTE_BUDGET", 3 * 8 * (2 + 2))
        assert synthetic_covering(p, trials, seed=4, family="paired") == whole
        assert max(math.prod(s) for s in sizes if isinstance(s, tuple)) <= 3 * 2

    def test_paired_trial_over_budget(self, no_draws):
        p = CoveringParams(coding.CODEBOOK_BYTE_BUDGET // 8, 1, 2.0**-30, 0.5)
        with pytest.raises(ValidationError, match="exceeds the budget"):
            synthetic_covering(p, 10, seed=0, family="paired")

    def test_empirical_band_over_budget(self, no_draws):
        design = InputDesign(dsbs_joint(), {(u, v): u + v for u in "01" for v in "01"})
        p = CoveringParams(4096, 4096, 0.5, 0.25)
        with pytest.raises(ValidationError, match="exceeds the budget"):
            empirical_covering(design, 1.0, p, trials=1, seed=0)
        # the grid of one trial at the budget itself is drawn
        budget = coding.CODEBOOK_BYTE_BUDGET // 8
        with pytest.raises(AssertionError, match="drew"):
            empirical_covering(design, 1.0, CoveringParams(budget // 8, 8, 0.5, 0.25),
                               trials=1, seed=0)


class TestEmpiricalCovering:
    def test_all_cells_accepted_never_zero(self):
        # independent design with zero correlation cost accepts every cell
        joint = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
        design = InputDesign(joint, {(u, v): u + v for u in "01" for v in "01"})
        p = CoveringParams(4, 4, 1.0, 0.25)
        est = empirical_covering(design, 0.0, p, trials=200, seed=5)
        assert est.hits == 0

    def test_correlated_band_respects_bound(self):
        design = InputDesign(dsbs_joint(), {(u, v): u + v for u in "01" for v in "01"})
        i_inf = classical_i_infty(dsbs_joint(), 0.25).value
        p = CoveringParams(64, 64, 2.0 ** (-i_inf), 0.25)
        est = empirical_covering(design, i_inf, p, trials=300, seed=17)
        assert not est.violation
        assert est.estimate <= est.bound.value

    def test_deterministic(self):
        design = InputDesign(dsbs_joint(), {(u, v): u + v for u in "01" for v in "01"})
        i_inf = classical_i_infty(dsbs_joint(), 0.25).value
        p = CoveringParams(8, 8, 2.0 ** (-i_inf), 0.25)
        a = empirical_covering(design, i_inf, p, trials=200, seed=23)
        b = empirical_covering(design, i_inf, p, trials=200, seed=23)
        assert a.hits == b.hits


class TestTheoremBounds:
    def test_classical_constants(self):
        assert theorem_bounds(0.01, 0.01, "classical") == pytest.approx(0.45)

    def test_quantum_constants(self):
        assert theorem_bounds(0.01, 0.01, "quantum") == pytest.approx(0.56)

    def test_zero_budget(self):
        assert theorem_bounds(0.0, 0.0, "classical") == 0.0

    def test_validation(self):
        with pytest.raises(ValidationError):
            theorem_bounds(1.0, 0.01, "classical")
        with pytest.raises(ValidationError):
            theorem_bounds(0.01, 0.01, "semi")


def reference_params(**over):
    base = dict(R1=5, R2=5, r1=8, r2=6, eps_tilde=1 / 16, eps0=0.01,
                eps_infty=0.25, i0b=30.0, i0c=30.0, i_infty=2.0)
    base.update(over)
    return RateParams(**base)


class TestEventBounds:
    def test_e1_formula_example(self):
        params = reference_params(r1=8, r2=8, i_infty=0.0, i0b=60.0, i0c=60.0)
        eb = event_bounds(params, "classical")
        assert eb.e1_formula == pytest.approx(2**-14 + 2**-4 + 2**-4, abs=1e-15)
        assert eb.e1_formula == pytest.approx(0.12506103515625, abs=1e-12)

    def test_e1_theorem_value(self):
        eb = event_bounds(reference_params(), "classical")
        assert eb.e1_theorem == pytest.approx(36 / 16)

    def test_claim_literal_differs_only_for_unequal_bands(self):
        sym = event_bounds(reference_params(r1=7, r2=7), "classical")
        assert sym.e1_claim_literal == pytest.approx(sym.e1_formula, abs=1e-15)
        asym = event_bounds(reference_params(), "classical")
        assert asym.e1_claim_literal != pytest.approx(asym.e1_formula)

    def test_quantum_chain_formula(self):
        params = reference_params()
        eb = event_bounds(params, "quantum")
        want = 8 * 0.01 + 2.0 ** (5 + 16 + 6 + 2 - 2.0 - 30.0)
        assert eb.e2_chain == pytest.approx(want, abs=1e-15)
        want3 = 8 * 0.01 + 2.0 ** (5 + 12 + 8 + 2 - 2.0 - 30.0)
        assert eb.e3_chain == pytest.approx(want3, abs=1e-15)

    def test_quantum_chain_vanishes_with_budget(self):
        eb = event_bounds(reference_params(i0b=10000.0), "quantum")
        assert eb.e2_chain == pytest.approx(8 * 0.01, abs=1e-12)

    def test_classical_side_bounds(self):
        eb = event_bounds(reference_params(), "classical")
        assert eb.e2b == eb.e2c == pytest.approx(0.04)
        assert eb.e3b_chain == pytest.approx(2.0 ** (16 + 6 + 5 - 2.0 - 30.0), abs=1e-15)
        assert eb.e3_derived == pytest.approx(1 / 16)
        assert eb.e3_claimed == pytest.approx(1 / 32)
        assert eb.total_theorem == pytest.approx(37 / 16 + 0.08)

    def test_unknown_setting(self):
        with pytest.raises(ValidationError):
            event_bounds(reference_params(), "analog")

    @given(
        ell=st.floats(3.0, 7.0),
        i_infty=st.floats(0.0, 8.0),
        R1=st.integers(0, 4),
        R2=st.integers(0, 4),
        extra1=st.floats(1.5, 12.0),
        extra2=st.floats(1.5, 12.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_chains_below_theorem_forms_when_feasible(self, ell, i_infty, R1, R2,
                                                      extra1, extra2):
        eps_tilde = 2.0 ** (-ell)
        i0b = R1 + 4 * ell + 1 + ell + extra1
        i0c = R2 + 4 * ell + 1 + ell + extra2
        try:
            r1, r2 = select_band_exponents(R1, R2, i0b, i0c, i_infty, eps_tilde)
        except Exception:
            assume(False)
        params = RateParams(R1=R1, R2=R2, r1=r1, r2=r2, eps_tilde=eps_tilde,
                            eps0=0.01, eps_infty=0.25, i0b=i0b, i0c=i0c, i_infty=i_infty)
        params.validate()
        qb = event_bounds(params, "quantum")
        assert qb.e1_formula <= qb.e1_theorem + 1e-9
        # integer band sums can cost the measurement chains one doubling
        # over the real-valued form, so the safe cap is 4 eps_tilde
        assert qb.e2_chain <= 8 * 0.01 + 4 * eps_tilde + 1e-9
        assert qb.e3_chain <= 8 * 0.01 + 4 * eps_tilde + 1e-9
        cb = event_bounds(params, "classical")
        assert cb.e3b_chain <= cb.e3_derived + 1e-9
        assert cb.e3c_chain <= cb.e3_derived + 1e-9


class TestRateRegions:
    def test_marton_caps(self):
        m = marton_region(30.0, 30.0, 0.0, 1 / 16, 0.01)
        assert m.r1_max == pytest.approx(30 - 5 * 4 - 2)
        assert m.sum_max == pytest.approx(30 + 30 - 0 - 11 * 4 - 5)
        assert not m.empty

    def test_marton_pentagon_vertices(self):
        # caps 10 and 8 with sum cap 12: the (10, 8) corner is cut away
        m = marton_region(32.0, 30.0, 1.0, 1 / 16, 0.01)
        assert m.sum_max == pytest.approx(12.0)
        for pt in [(0.0, 0.0), (10.0, 0.0), (10.0, 2.0), (4.0, 8.0), (0.0, 8.0)]:
            assert pt in m.vertices
        assert (10.0, 8.0) not in m.vertices

    def test_marton_triangle_when_sum_cap_dominates(self):
        m = marton_region(30.0, 30.0, 5.0, 1 / 16, 0.01)
        assert m.sum_max == pytest.approx(6.0)
        assert set(m.vertices) == {(0.0, 0.0), (6.0, 0.0), (0.0, 6.0)}

    def test_empty_region(self):
        m = marton_region(5.0, 30.0, 0.0, 1 / 16, 0.01)
        assert m.empty
        assert m.vertices == ()
        assert not m.contains_point(0.0, 0.0)

    def test_verdu_natural_log_penalty(self):
        v = verdu_region(30.0, 25.0, 2.0, 0.01, 0.25, 0.05)
        assert v.r1_max == pytest.approx(30 - math.log(20))
        assert v.r2_max == pytest.approx(25 - 2 - 2 * math.log(20))
        assert v.sum_max is None
        assert v.error_budget == pytest.approx(
            0.02 + 0.25 + 0.1 + math.exp(-20), abs=1e-12)

    def test_gamma_validation(self):
        with pytest.raises(ValidationError):
            verdu_region(30.0, 25.0, 2.0, 0.01, 0.25, 1.0)

    def test_structural_containment(self):
        # with penalties stripped, the sum-cut region swallows the rectangle
        m = marton_region(30.0, 25.0, 2.0, 1 / 16, 0.01, penalties=False)
        v = verdu_region(30.0, 25.0, 2.0, 0.01, 0.25, 0.05, penalties=False)
        assert region_contains(m, v)
        assert not region_contains(v, m)

    @given(
        i0b=st.floats(1.0, 40.0),
        i0c=st.floats(1.0, 40.0),
        i_infty=st.floats(0.0, 10.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_containment_generic(self, i0b, i0c, i_infty):
        assume(i0c - i_infty >= 0.0)
        m = marton_region(i0b, i0c, i_infty, 1 / 16, 0.01, penalties=False)
        v = verdu_region(i0b, i0c, i_infty, 0.01, 0.25, 0.5, penalties=False)
        assert region_contains(m, v)

    def test_contains_point_boundary(self):
        m = marton_region(32.0, 30.0, 1.0, 1 / 16, 0.01)
        assert m.contains_point(10.0, 2.0)
        assert not m.contains_point(10.0, 2.0 + 1e-6)
        assert not m.contains_point(-0.1, 0.0)

    def test_json(self):
        m = marton_region(30.0, 30.0, 0.0, 1 / 16, 0.01)
        d = m.to_json()
        assert d["name"] == "marton" and len(d["vertices"]) >= 3


class TestConvergenceCurve:
    def test_n1_matches_direct(self):
        joint = dsbs_joint()
        curve = iid_convergence_curve(joint, joint, 0.05, [1])
        direct = classical_i0(joint, 0.05, method="randomized").value
        assert curve.points[0].i0_rate == pytest.approx(direct, abs=1e-9)

    def test_independent_pair_has_zero_rate(self):
        indep = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
        curve = iid_convergence_curve(dsbs_joint(), indep, 0.05, [1, 2, 4, 8])
        assert all(p.i_infty_rate == pytest.approx(0.0, abs=1e-12) for p in curve.points)

    def test_frozen_gap_values(self):
        joint = dsbs_joint()
        curve = iid_convergence_curve(joint, joint, 0.05, [8, 16, 32])
        target = curve.target_i0
        gaps = [target - p.i0_rate for p in curve.points]
        assert gaps[0] == pytest.approx(0.17092, abs=5e-5)
        assert gaps[1] == pytest.approx(0.18084, abs=5e-5)
        assert gaps[2] == pytest.approx(0.15059, abs=5e-5)

    def test_targets_are_mutual_informations(self):
        joint = dsbs_joint()
        curve = iid_convergence_curve(joint, joint, 0.05, [1])
        assert curve.target_i0 == pytest.approx(1 - _h2(0.1), abs=1e-12)

    def test_csv_rows(self):
        joint = dsbs_joint()
        curve = iid_convergence_curve(joint, joint, 0.05, [1, 2])
        rows = curve.to_csv_rows()
        assert rows[0][0] == "n" and len(rows) == 3

    def test_bad_n(self):
        joint = dsbs_joint()
        with pytest.raises(ValidationError):
            iid_convergence_curve(joint, joint, 0.05, [0])

    def test_bad_eps_is_rejected_before_any_spectrum(self, monkeypatch):
        monkeypatch.setattr(analysis, "iid_llr_spectra",
                            lambda *args: pytest.fail("spectra built for a bad eps"))
        with pytest.raises(ValidationError):
            iid_convergence_curve(dsbs_joint(), dsbs_joint(), 1.5, [1, 400])

    def test_points_keep_the_order_of_n(self):
        # unsorted and repeated block sizes; one shared joint or two equal
        # ones give the same points, each as its own single-n curve gives
        joint = dsbs_joint()
        twin = JointPmf(joint.row_labels, joint.col_labels, joint.probs)
        ns = [16, 2, 8, 2, 1]
        shared = iid_convergence_curve(joint, joint, 0.05, ns)
        separate = iid_convergence_curve(joint, twin, 0.05, ns)
        assert [p.n for p in shared.points] == ns
        assert shared.to_json() == separate.to_json()
        for n, p in zip(ns, shared.points):
            assert p == iid_convergence_curve(joint, joint, 0.05, [n]).points[0]


def _h2(p):
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)
