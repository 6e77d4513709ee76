"""Monte Carlo trial harness comparing empirical event rates to the bounds.

A run derives the decoding machinery (explicit sets, llr thresholds, or
measurement test operators) from the channel and design at the smoothing
parameters carried by RateParams, executes seeded trials, and aggregates
per-event counts with Clopper-Pearson limits next to every applicable
closed-form bound.
"""

from __future__ import annotations

import datetime
import hashlib
import json
import time
from dataclasses import dataclass

import numpy as np

from .analysis import (
    clopper_pearson_lower,
    clopper_pearson_upper,
    event_bounds,
    theorem_bounds,
)
from .channels import (
    ClassicalBroadcastChannel,
    CqBroadcastChannel,
    InputDesign,
    ProductClassicalChannel,
    bob_ensemble,
    build_classical_joints,
    charlie_ensemble,
)
from .coding import (
    ClassicalSetEvaluator,
    ClassicalThresholdEvaluator,
    Codebook,
    QuantumPairEvaluator,
    RateParams,
    SetMembership,
    ThresholdMembership,
    decode_cols,
    decode_pgm,
    decode_rows,
    encode,
    generate_codebook,
)
from .divergences import (
    classical_i0,
    classical_i_infty,
    classical_i_infty_iid,
    iid_llr_spectrum,
    llr_table,
    np_test_blocks,
    quantum_i0_cq,
    spectrum_i0,
)
from .errors import InfeasibleRates, ValidationError
from .rng import SeededRng, mix64

__all__ = [
    "EventStats",
    "ExperimentReport",
    "achieved_divergences",
    "run_experiment",
    "json_digest",
]

_ACHIEVED_SLACK = 1e-6


def json_digest(payload) -> str:
    """Canonical sha256 of a JSON-serializable object."""
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@dataclass(frozen=True)
class EventStats:
    """Empirical rate of one error event next to its applicable bound."""

    name: str
    hits: int
    trials: int
    rate: float
    lower95: float
    upper95: float
    bound: float | None
    bound_name: str | None
    violation: bool

    def to_json(self) -> dict:
        return dict(self.__dict__)


def _stats(name: str, hits: int, trials: int, bound, bound_name) -> EventStats:
    rate = hits / trials
    lo = clopper_pearson_lower(hits, trials)
    hi = clopper_pearson_upper(hits, trials)
    violation = bound is not None and lo > bound
    return EventStats(name, hits, trials, rate, lo, hi, bound, bound_name, violation)


@dataclass(frozen=True)
class ExperimentReport:
    """Aggregated run results; everything needed for replay is embedded."""

    setting: str
    n: int
    trials: int
    seed: int
    resample_codebook: bool
    i0_method: str
    params: dict
    achieved: dict
    scheme: dict
    channel_digest: str
    design_digest: str
    codebook_digest: str | None
    theorem_valid: bool
    bounds: dict
    events: tuple
    started_at: str
    wall_clock_s: float

    @property
    def any_violation(self) -> bool:
        return any(e.violation for e in self.events)

    def event(self, name: str) -> EventStats:
        for e in self.events:
            if e.name == name:
                return e
        raise KeyError(name)

    def counts(self) -> dict:
        return {e.name: e.hits for e in self.events}

    def to_json(self) -> dict:
        return {
            "setting": self.setting,
            "n": self.n,
            "trials": self.trials,
            "seed": self.seed,
            "resample_codebook": self.resample_codebook,
            "i0_method": self.i0_method,
            "params": self.params,
            "achieved": self.achieved,
            "scheme": self.scheme,
            "channel_digest": self.channel_digest,
            "design_digest": self.design_digest,
            "codebook_digest": self.codebook_digest,
            "theorem_valid": self.theorem_valid,
            "bounds": self.bounds,
            "events": [e.to_json() for e in self.events],
            "any_violation": self.any_violation,
            "started_at": self.started_at,
            "wall_clock_s": self.wall_clock_s,
        }

    def to_csv_rows(self) -> list:
        rows = [("event", "hits", "trials", "rate", "lower95", "upper95",
                 "bound", "bound_name", "violation")]
        for e in self.events:
            rows.append((e.name, e.hits, e.trials, e.rate, e.lower95, e.upper95,
                         "" if e.bound is None else e.bound,
                         "" if e.bound_name is None else e.bound_name,
                         e.violation))
        return rows


def _params_json(params: RateParams) -> dict:
    names = ("R1", "R2", "r1", "r2", "eps_tilde", "eps0", "eps_infty",
             "i0b", "i0c", "i_infty")
    return {k: getattr(params, k) for k in names}


def _mask_from_cells(joint, cells) -> np.ndarray:
    mask = np.zeros(joint.shape, dtype=bool)
    for u, v in cells:
        mask[joint.row_labels.index(u), joint.col_labels.index(v)] = True
    return mask


def _check_achieved(params: RateParams, i0b: float, i0c: float, i_infty: float) -> dict:
    if params.i0b > i0b + _ACHIEVED_SLACK:
        raise ValidationError(
            f"params.i0b = {params.i0b} exceeds the achieved order-zero value {i0b:.6f}")
    if params.i0c > i0c + _ACHIEVED_SLACK:
        raise ValidationError(
            f"params.i0c = {params.i0c} exceeds the achieved order-zero value {i0c:.6f}")
    if params.i_infty < i_infty - _ACHIEVED_SLACK:
        raise ValidationError(
            f"params.i_infty = {params.i_infty} is below the achieved max-divergence "
            f"value {i_infty:.6f}; the rejection indicator would overshoot")
    return {"i0b": i0b, "i0c": i0c, "i_infty": i_infty}


def achieved_divergences(channel, design: InputDesign, eps0: float, eps_infty: float,
                         *, n: int = 1, i0_method: str = "greedy"):
    """(i0b, i0c, i_infty) the decoding schemes achieve for these inputs.

    Uses the same divergence routines the scheme constructors run, so
    RateParams built from these values always pass the consistency gate.
    """
    if isinstance(channel, CqBroadcastChannel):
        if n != 1:
            raise ValidationError("cq runs are single-letter; blocked states are out of reach")
        p_u, rho_bu = bob_ensemble(channel, design)
        p_v, rho_cv = charlie_ensemble(channel, design)
        i0b = quantum_i0_cq(p_u, rho_bu, eps0).value
        i0c = quantum_i0_cq(p_v, rho_cv, eps0).value
        i_inf = classical_i_infty(design.joint, eps_infty).value
    elif isinstance(channel, ClassicalBroadcastChannel):
        uy, vz = build_classical_joints(channel, design)
        if n == 1:
            i0b = classical_i0(uy, eps0, method=i0_method).value
            i0c = classical_i0(vz, eps0, method=i0_method).value
            i_inf = classical_i_infty(design.joint, eps_infty).value
        else:
            i0b = spectrum_i0(iid_llr_spectrum(uy, n), eps0, method="thresholded").value
            i0c = spectrum_i0(iid_llr_spectrum(vz, n), eps0, method="thresholded").value
            i_inf = classical_i_infty_iid(design.joint, n, eps_infty).value
    else:
        raise ValidationError(f"unsupported channel type {type(channel).__name__}")
    return i0b, i0c, i_inf


class _ClassicalDeskScheme:
    """Explicit-set machinery for single-letter classical runs."""

    def __init__(self, channel, design, params, i0_method):
        uy, vz = build_classical_joints(channel, design)
        res_b = classical_i0(uy, params.eps0, method=i0_method)
        res_c = classical_i0(vz, params.eps0, method=i0_method)
        if "cells" not in res_b.witness:
            raise ValidationError(
                f"i0 method {i0_method!r} does not produce a deterministic test set")
        res_inf = classical_i_infty(design.joint, params.eps_infty)
        self.achieved = _check_achieved(params, res_b.value, res_c.value, res_inf.value)
        a1 = _mask_from_cells(uy, res_b.witness["cells"])
        a2 = _mask_from_cells(vz, res_c.witness["cells"])
        self.evaluator = ClassicalSetEvaluator(channel, design, a1, a2)
        self.mem_b = SetMembership(a1)
        self.mem_c = SetMembership(a2)
        self.sampler = ProductClassicalChannel(channel, 1)
        self.describe = {
            "kind": "classical-set",
            "a1_mass": res_b.witness["mass"],
            "a2_mass": res_c.witness["mass"],
            "i0_method": i0_method,
        }

    def transmit(self, x_word, rng):
        return self.sampler.sample_outputs(x_word, rng)

    def decode(self, codebook, y_word, z_word, rng_b, rng_c):
        return (decode_rows(codebook, y_word, self.mem_b),
                decode_cols(codebook, z_word, self.mem_c))


class _ClassicalBlockScheme:
    """Threshold-set machinery for blocklength-n product runs."""

    def __init__(self, channel, design, params, n):
        uy, vz = build_classical_joints(channel, design)
        spec_b = iid_llr_spectrum(uy, n)
        spec_c = iid_llr_spectrum(vz, n)
        res_b = spectrum_i0(spec_b, params.eps0, method="thresholded")
        res_c = spectrum_i0(spec_c, params.eps0, method="thresholded")
        res_inf = classical_i_infty_iid(design.joint, n, params.eps_infty)
        self.achieved = _check_achieved(params, res_b.value, res_c.value, res_inf.value)
        tau1 = res_b.witness["threshold"]
        tau2 = res_c.witness["threshold"]
        llr1, llr2 = llr_table(uy), llr_table(vz)
        self.evaluator = ClassicalThresholdEvaluator(channel, design, llr1, llr2, tau1, tau2)
        self.mem_b = ThresholdMembership(llr1, tau1)
        self.mem_c = ThresholdMembership(llr2, tau2)
        self.sampler = ProductClassicalChannel(channel, n)
        self.describe = {
            "kind": "classical-threshold",
            "tau1": tau1,
            "tau2": tau2,
            "a1_mass": res_b.witness["mass"],
            "a2_mass": res_c.witness["mass"],
        }

    def transmit(self, x_word, rng):
        return self.sampler.sample_outputs(x_word, rng)

    def decode(self, codebook, y_word, z_word, rng_b, rng_c):
        return (decode_rows(codebook, y_word, self.mem_b),
                decode_cols(codebook, z_word, self.mem_c))


class _QuantumDeskScheme:
    """Measurement machinery for single-letter cq runs."""

    def __init__(self, channel, design, params):
        p_u, rho_bu = bob_ensemble(channel, design)
        p_v, rho_cv = charlie_ensemble(channel, design)
        res_b = quantum_i0_cq(p_u, rho_bu, params.eps0)
        res_c = quantum_i0_cq(p_v, rho_cv, params.eps0)
        res_inf = classical_i_infty(design.joint, params.eps_infty)
        self.achieved = _check_achieved(params, res_b.value, res_c.value, res_inf.value)
        self.bob_tests = np_test_blocks(
            p_u, rho_bu, res_b.witness["lambda"], res_b.witness["boundary_weight"])
        self.charlie_tests = np_test_blocks(
            p_v, rho_cv, res_c.witness["lambda"], res_c.witness["boundary_weight"])
        self.evaluator = QuantumPairEvaluator(channel, design, self.bob_tests, self.charlie_tests)
        self.channel = channel
        self.describe = {
            "kind": "quantum-pgm",
            "lambda_b": res_b.witness["lambda"],
            "lambda_c": res_c.witness["lambda"],
            "constraint_mass_b": res_b.witness["constraint_mass"],
            "constraint_mass_c": res_c.witness["constraint_mass"],
        }

    def transmit(self, x_word, rng):
        label = self.channel.x_alphabet[int(x_word[0])]
        return self.channel.rho_b(label), self.channel.rho_c(label)

    def decode(self, codebook, state_b, state_c, rng_b, rng_c):
        res_b = decode_pgm(codebook.rows, self.bob_tests, state_b,
                           codebook.row_band_of, rng_b)
        res_c = decode_pgm(codebook.cols, self.charlie_tests, state_c,
                           codebook.col_band_of, rng_c)
        return res_b, res_c


def _classical_event_rows(counts, trials, eb, params, theorem_valid):
    thm = theorem_bounds(params.eps_tilde, params.eps0, "classical")
    e1_bound = min(eb.e1_formula, eb.e1_theorem) if theorem_valid else eb.e1_formula
    e1_name = "min(e1 formula, 36*eps_tilde)" if theorem_valid else "e1 formula"
    rows = [
        _stats("e1", counts["e1"], trials, min(1.0, e1_bound), e1_name),
        _stats("e2b", counts["e2b"], trials, min(1.0, eb.e2b), "4*eps0"),
        _stats("e2c", counts["e2c"], trials, min(1.0, eb.e2c), "4*eps0"),
        _stats("e3b", counts["e3b"], trials,
               min(1.0, min(eb.e3b_chain, eb.e3_derived) if theorem_valid else eb.e3b_chain),
               "min(e3 chain, eps_tilde)" if theorem_valid else "e3 chain"),
        _stats("e3c", counts["e3c"], trials,
               min(1.0, min(eb.e3c_chain, eb.e3_derived) if theorem_valid else eb.e3c_chain),
               "min(e3 chain, eps_tilde)" if theorem_valid else "e3 chain"),
        _stats("message_error", counts["message_error"], trials,
               min(1.0, thm) if theorem_valid else None,
               "37*eps_tilde + 8*eps0" if theorem_valid else None),
        _stats("index_error", counts["index_error"], trials,
               min(1.0, thm) if theorem_valid else None,
               "37*eps_tilde + 8*eps0" if theorem_valid else None),
    ]
    return rows


def _quantum_event_rows(counts, trials, eb, params, theorem_valid):
    thm = theorem_bounds(params.eps_tilde, params.eps0, "quantum")
    e1_bound = min(eb.e1_formula, eb.e1_theorem) if theorem_valid else eb.e1_formula
    e1_name = "min(e1 formula, 36*eps_tilde)" if theorem_valid else "e1 formula"
    rows = [
        _stats("e1", counts["e1"], trials, min(1.0, e1_bound), e1_name),
        _stats("e2", counts["e2"], trials,
               min(1.0, min(eb.e2_chain, eb.e2_theorem) if theorem_valid else eb.e2_chain),
               "min(e2 chain, 8*eps0 + 2*eps_tilde)" if theorem_valid else "e2 chain"),
        _stats("e3", counts["e3"], trials,
               min(1.0, min(eb.e3_chain, eb.e3_theorem) if theorem_valid else eb.e3_chain),
               "min(e3 chain, 8*eps0 + 2*eps_tilde)" if theorem_valid else "e3 chain"),
        _stats("message_error", counts["message_error"], trials,
               min(1.0, thm) if theorem_valid else None,
               "40*eps_tilde + 16*eps0" if theorem_valid else None),
        _stats("index_error", counts["index_error"], trials,
               min(1.0, thm) if theorem_valid else None,
               "40*eps_tilde + 16*eps0" if theorem_valid else None),
    ]
    return rows


def run_experiment(channel, design: InputDesign, params: RateParams, trials: int,
                   seed: int, *, n: int = 1, resample_codebook: bool = True,
                   i0_method: str = "greedy") -> ExperimentReport:
    """Run seeded coding trials and compare event rates against the bounds.

    The default resamples a fresh codebook every trial, matching the
    averaged-codebook analysis; ``resample_codebook=False`` reuses one
    fixed codebook for the whole run (the derandomized reading).  For
    classical channels ``n > 1`` runs the blocklength-n product scheme
    with threshold decoding; cq channels are single-letter only.
    """
    if trials < 1:
        raise ValidationError("trials must be positive")
    if n < 1:
        raise ValidationError("blocklength must be positive")
    # mix64 reduces keys modulo 2^64, so a larger seed would replay another run
    if not 0 <= seed < 2**64:
        raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
    started = datetime.datetime.now(datetime.timezone.utc).isoformat()
    t0 = time.monotonic()

    if isinstance(channel, CqBroadcastChannel):
        if n != 1:
            raise ValidationError("cq runs are single-letter; blocked states are out of reach")
        setting = "quantum"
        scheme = _QuantumDeskScheme(channel, design, params)
    elif isinstance(channel, ClassicalBroadcastChannel):
        setting = "classical"
        if n == 1:
            scheme = _ClassicalDeskScheme(channel, design, params, i0_method)
        else:
            scheme = _ClassicalBlockScheme(channel, design, params, n)
    else:
        raise ValidationError(f"unsupported channel type {type(channel).__name__}")

    try:
        params.validate()
        theorem_valid = True
    except InfeasibleRates:
        theorem_valid = False

    log_ratio = llr_table(design.joint)
    fixed_cb: Codebook | None = None
    if not resample_codebook:
        fixed_cb = generate_codebook(design, params, mix64(seed, 0xC0DEB00C), n,
                                     log_ratio=log_ratio)

    if setting == "classical":
        names = ("e1", "e2b", "e2c", "e3b", "e3c", "message_error", "index_error")
    else:
        names = ("e1", "e2", "e3", "message_error", "index_error")
    counts = {name: 0 for name in names}

    n_m1 = 1 << params.R1
    n_m2 = 1 << params.R2
    for t in range(trials):
        trial_key = mix64(seed, t)
        cb = fixed_cb if fixed_cb is not None else generate_codebook(
            design, params, trial_key, n, log_ratio=log_ratio)
        msg_rng = SeededRng(trial_key, 101)
        u = msg_rng.random(2)
        m1 = min(int(u[0] * n_m1), n_m1 - 1)
        m2 = min(int(u[1] * n_m2), n_m2 - 1)
        out = encode(cb, m1, m2, scheme.evaluator, params.eps0)
        rec_b, rec_c = scheme.transmit(out.x_word, SeededRng(trial_key, 102))
        res_b, res_c = scheme.decode(cb, rec_b, rec_c,
                                     SeededRng(trial_key, 103), SeededRng(trial_key, 104))
        if out.fallback:
            counts["e1"] += 1
        else:
            if setting == "classical":
                in_b = bool(np.isin(out.row, res_b.matched))
                in_c = bool(np.isin(out.col, res_c.matched))
                counts["e2b"] += 0 if in_b else 1
                counts["e2c"] += 0 if in_c else 1
                counts["e3b"] += 1 if np.any(res_b.matched != out.row) else 0
                counts["e3c"] += 1 if np.any(res_c.matched != out.col) else 0
            else:
                counts["e2"] += 0 if res_b.unique_match == out.row else 1
                counts["e3"] += 0 if res_c.unique_match == out.col else 1
        msg_wrong = res_b.message != m1 or res_c.message != m2
        idx_wrong = res_b.unique_match != out.row or res_c.unique_match != out.col
        counts["message_error"] += 1 if (out.fallback or msg_wrong) else 0
        counts["index_error"] += 1 if (out.fallback or idx_wrong) else 0

    eb = event_bounds(params, setting)
    if setting == "classical":
        events = _classical_event_rows(counts, trials, eb, params, theorem_valid)
    else:
        events = _quantum_event_rows(counts, trials, eb, params, theorem_valid)

    return ExperimentReport(
        setting=setting,
        n=n,
        trials=trials,
        seed=seed,
        resample_codebook=resample_codebook,
        i0_method=i0_method,
        params=_params_json(params),
        achieved=scheme.achieved,
        scheme=scheme.describe,
        channel_digest=json_digest(channel.to_json()),
        design_digest=json_digest(design.to_json()),
        codebook_digest=None if fixed_cb is None else fixed_cb.content_digest(),
        theorem_valid=theorem_valid,
        bounds=eb.to_json(),
        events=tuple(events),
        started_at=started,
        wall_clock_s=time.monotonic() - t0,
    )
