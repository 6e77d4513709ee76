"""Monte Carlo trial harness comparing empirical event rates to the bounds.

A Scheme derives the decoding machinery (explicit sets, llr thresholds, or
measurement test operators) once from the channel and design at a pair of
smoothing parameters; its run executes seeded trials and aggregates
per-event counts with Clopper-Pearson limits next to every applicable
closed-form bound.  Trials of both settings run in blocks, with codebooks,
messages and the encoder's rejection scan held as arrays over the block;
only decoding depends on the setting.  Every draw comes from a stream
keyed by its trial, so the counts of a seed do not depend on the block
size.  ``Scheme.shared`` keeps the last 32 Schemes built, keyed by
content, so a sweep that returns to a channel, design and smoothing pair
reuses its machinery.
"""

from __future__ import annotations

import datetime
import functools
import time
from dataclasses import dataclass, fields

import numpy as np

from .analysis import (
    clopper_pearson_lower,
    clopper_pearson_upper,
    event_bounds,
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
    ThresholdMembership,
    codebook_block,
    decode_cols,
    decode_pgm,
    decode_rows,
    encode_block,
    generate_codebook,
)
from .divergences import (
    I0_METHODS,
    classical_i0,
    classical_i_infty,
    iid_llr_spectrum,
    llr_table,
    quantum_i0_cq,
    spectrum_i0,
    spectrum_i_infty,
)
from .errors import InfeasibleRates, ValidationError
from .rng import first_uniforms, mix64

__all__ = [
    "EventStats",
    "ExperimentReport",
    "Scheme",
    "achieved_divergences",
    "run_experiment",
]

_ACHIEVED_SLACK = 1e-6
# codebook letters one block of fresh-codebook trials holds, a byte each in
# uint8 words.  Criterion 1's codebooks at n = 56 hold 487,424 letters, so a
# block there is two trials.  Forty of its 16-trial runs peak at 42.8 MB of
# RSS in blocks of two, 44.7 MB in blocks of four and 49.1 MB in blocks of
# 16, against 42.2 MB one trial at a time.  Encoding the 16 trials takes
# 5.4, 4.1, 3.4 and 2.9 ms in blocks of 1, 2, 4 and 16, of a run's 60 to
# 100 ms.  A fixed codebook's trials share its words, so its blocks are
# sized by the decoder's scratch instead, a few float64s per word and trial:
# _BLOCK_LETTERS / 16 words of the larger side over the block's trials.
# The demo n = 56 config (8,192 + 512 words, 20 trials) then runs blocks of
# 8.  Over 12 alternated rounds of 10 CLI calls, a round's median call
# takes (median) 24.8, 19.2, 17.9 and 21.0 ms in blocks of 2, 4, 8 and 16;
# 200 calls in one process peak at 45.7 MB of RSS in blocks of 4 and
# 47.6 MB in blocks of 8 (2-vCPU VM, Python 3.11, numpy 2.4).
_BLOCK_LETTERS = 1 << 20


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
    events: tuple[EventStats, ...]
    started_at: str
    wall_clock_s: float

    @property
    def any_violation(self) -> bool:
        return any(e.violation for e in self.events)

    def to_json(self) -> dict:
        return {**vars(self), "events": [e.to_json() for e in self.events],
                "any_violation": self.any_violation}

    def to_csv_rows(self) -> list:
        header = ("event", *(f.name for f in fields(EventStats)[1:]))
        return [header] + [tuple("" if v is None else v for v in vars(e).values())
                           for e in self.events]


def _check_channel(channel) -> None:
    """Schemes exist for the classical and the cq broadcast channel only."""
    if not isinstance(channel, (ClassicalBroadcastChannel, CqBroadcastChannel)):
        raise ValidationError(f"unsupported channel type {type(channel).__name__}")


def _mask_from_cells(joint, cells) -> np.ndarray:
    mask = np.zeros(joint.shape, dtype=bool)
    for u, v in cells:
        mask[joint.row_labels.index(u), joint.col_labels.index(v)] = True
    return mask


def _check_achieved(params: RateParams, achieved: dict) -> None:
    for name in ("i0b", "i0c"):
        if getattr(params, name) > achieved[name] + _ACHIEVED_SLACK:
            raise ValidationError(f"params.{name} = {getattr(params, name)} exceeds the "
                                  f"achieved order-zero value {achieved[name]:.6f}")
    if params.i_infty < achieved["i_infty"] - _ACHIEVED_SLACK:
        raise ValidationError(
            f"params.i_infty = {params.i_infty} is below the achieved max-divergence "
            f"value {achieved['i_infty']:.6f}; the rejection indicator would overshoot")


def _event_rows(setting, counts, trials, bounds, theorem_valid):
    """Each event's stats next to its bound, capped by the theorem's where that applies."""

    def row(name, bound, bound_name, thm=None, thm_name=None):
        if theorem_valid and thm is not None:
            bound, bound_name = min(bound, thm), f"min({bound_name}, {thm_name})"
        return _stats(name, counts[name], trials, min(1.0, bound), bound_name)

    b = bounds
    rows = [row("e1", b["e1_formula"], "e1 formula", b["e1_theorem"], "36*eps_tilde")]
    if setting == "classical":
        thm_name = "37*eps_tilde + 8*eps0"
        rows += [row("e2b", b["e2b"], "4*eps0"), row("e2c", b["e2c"], "4*eps0"),
                 row("e3b", b["e3b_chain"], "e3 chain", b["e3_derived"], "eps_tilde"),
                 row("e3c", b["e3c_chain"], "e3 chain", b["e3_derived"], "eps_tilde")]
    else:
        thm_name = "40*eps_tilde + 16*eps0"
        rows += [row("e2", b["e2_chain"], "e2 chain", b["e2_theorem"], "8*eps0 + 2*eps_tilde"),
                 row("e3", b["e3_chain"], "e3 chain", b["e3_theorem"], "8*eps0 + 2*eps_tilde")]
    thm = b["total_theorem"]
    for name in ("message_error", "index_error"):
        rows.append(_stats(name, counts[name], trials, min(1.0, thm) if theorem_valid else None,
                           thm_name if theorem_valid else None))
    return rows


class Scheme:
    """The decoding machinery of one channel, design and smoothing pair, built once.

    The smooth order-zero and max divergences and their witnesses fix the
    decoders: explicit sets for single-letter classical runs, tested as
    llr thresholds on a 0 / -inf table, llr thresholds for blocklength-n
    classical runs, Neyman-Pearson test operators measured by the pretty
    good measurement for single-letter cq runs.  ``achieved`` holds the
    divergence values they reach, so RateParams built from them pass the
    consistency gate of ``run``; ``describe`` is the report's ``scheme``
    entry, and ``log_ratio`` the ``llr_table`` of the design's joint, which
    the encoder reads.

    ``run`` plays trials in blocks.  Under fresh codebooks a block holds as
    many trials as fit ``_BLOCK_LETTERS`` codebook letters: the block's
    codebooks and messages are drawn as arrays, and ``encode_block`` scans
    all its trials at once; a single-letter table evaluator is asked once
    per ``encode_block`` call, for (u, v) tables from which the scan
    summarises a window of rows at a time, and the llr-threshold evaluator
    is scanned one row offset at a time.  A fixed codebook's trials share its
    words, and each trial's encoding depends on its message pair alone, so
    a block encodes each of its distinct pairs once and gathers every
    trial's input word from those; its blocks hold ``_BLOCK_LETTERS`` / 16
    words of the larger side over their trials, which bounds the decoders'
    scratch.  A classical block then sends every trial's input word through
    the channel at once and decodes each side by threshold membership: a
    fixed codebook decodes the whole block in one call per side, and fresh
    codebooks one trial at a time.
    ``decode_pgm`` measures each side of a whole cq block in one pass,
    against the side's states, stacked once per Scheme, with one PGM table
    of every state per distinct label counts of the block, picking each
    trial's outcome with one uniform from that trial's own stream.  The
    events of the block are then counted from the decoded
    words of each side.  The streams of a block, each trial's messages,
    its channel uniforms for classical runs and its two outcome uniforms
    for cq, are drawn once for the block by ``first_uniforms``, which
    computes short ones in one Philox array pass for large blocks.  The
    codebook words of small sides and the encoder's rejection rows are
    drawn many streams to a ``stream_uniforms`` call.  Both give the draws
    of ``SeededRng``, bit for bit.

    A Scheme holds no state between runs except the threshold evaluator's
    convolution powers and the tail masses it memoizes by joint type, which
    depend only on the Scheme, so one Scheme may serve many runs, also in
    several threads at once: every draw goes through the calling thread's
    own scratch generator and placement routine.
    """

    def __init__(self, channel, design: InputDesign, eps0: float, eps_infty: float,
                 *, n: int = 1, i0_method: str = "greedy"):
        if n < 1:
            raise ValidationError("blocklength must be positive")
        if i0_method not in I0_METHODS:
            raise ValidationError(
                f"i0 method must be one of {', '.join(I0_METHODS)}, got {i0_method!r}")
        _check_channel(channel)
        self.channel, self.design, self.n, self.i0_method = channel, design, n, i0_method
        self.eps0, self.eps_infty = eps0, eps_infty
        if isinstance(channel, CqBroadcastChannel):
            if n != 1:
                raise ValidationError("cq runs are single-letter; blocked states are out of reach")
            self.setting = "quantum"
            p_u, rho_bu = bob_ensemble(channel, design)
            p_v, rho_cv = charlie_ensemble(channel, design)
            res_b = quantum_i0_cq(p_u, rho_bu, eps0)
            res_c = quantum_i0_cq(p_v, rho_cv, eps0)
            # tests and states stacked once, read-only, so that each decode
            # keys its PGM tables without a copy
            self.bob_tests, self.charlie_tests = res_b.operators, res_c.operators
            self.evaluator = QuantumPairEvaluator(channel, design, self.bob_tests,
                                                  self.charlie_tests)
            self.bob_states, self.charlie_states = self.evaluator.rho_b, self.evaluator.rho_c
            self.describe = {
                "kind": "quantum-pgm",
                "lambda_b": res_b.witness["lambda"],
                "lambda_c": res_c.witness["lambda"],
                "constraint_mass_b": res_b.witness["constraint_mass"],
                "constraint_mass_c": res_c.witness["constraint_mass"],
            }
        elif isinstance(channel, ClassicalBroadcastChannel):
            self.setting = "classical"
            uy, vz = build_classical_joints(channel, design)
            if n == 1:
                res_b = classical_i0(uy, eps0, method=i0_method)
                res_c = classical_i0(vz, eps0, method=i0_method)
                if "cells" not in res_b.witness:
                    raise ValidationError(
                        f"i0 method {i0_method!r} does not produce a deterministic test set")
                a1 = _mask_from_cells(uy, res_b.witness["cells"])
                a2 = _mask_from_cells(vz, res_c.witness["cells"])
                self.evaluator = ClassicalSetEvaluator(channel, design, a1, a2)
                tests = [(np.where(a, 0.0, -np.inf), 0.0) for a in (a1, a2)]
                self.describe = {"kind": "classical-set", "i0_method": i0_method}
            else:
                res_b = spectrum_i0(iid_llr_spectrum(uy, n), eps0, method="thresholded")
                res_c = spectrum_i0(iid_llr_spectrum(vz, n), eps0, method="thresholded")
                tau1, tau2 = res_b.witness["threshold"], res_c.witness["threshold"]
                llr1, llr2 = llr_table(uy), llr_table(vz)
                self.evaluator = ClassicalThresholdEvaluator(channel, design, llr1, llr2,
                                                             tau1, tau2)
                tests = [(llr1, tau1), (llr2, tau2)]
                self.describe = {"kind": "classical-threshold", "tau1": tau1, "tau2": tau2}
            self.mem_b, self.mem_c = (ThresholdMembership(llr, tau) for llr, tau in tests)
            self.describe.update(a1_mass=res_b.witness["mass"], a2_mass=res_c.witness["mass"])
            self.sampler = ProductClassicalChannel(channel, n)
        res_inf = (classical_i_infty(design.joint, eps_infty) if n == 1
                   else spectrum_i_infty(iid_llr_spectrum(design.joint, n), eps_infty))
        self.achieved = {"i0b": res_b.value, "i0c": res_c.value, "i_infty": res_inf.value}
        self.log_ratio = llr_table(design.joint)

    @classmethod
    def shared(cls, channel, design: InputDesign, eps0: float, eps_infty: float,
               *, n: int = 1, i0_method: str = "greedy") -> "Scheme":
        """The Scheme of these inputs, reused while it is among the last 32 used.

        Inputs match by content: channel and design by the digests of their
        JSON, then eps0, eps_infty, n and the i0 method.  A build that raises
        is not kept.  Every draw of ``run`` comes from its seed, so a reused
        Scheme reports what a fresh one would.
        """
        _check_channel(channel)
        return _shared_scheme(channel, design, eps0, eps_infty, n, i0_method)

    def _counts(self, params: RateParams, trials, seed, fixed_cb) -> dict:
        classical = self.setting == "classical"
        n_m1, n_m2 = 1 << params.R1, 1 << params.R2
        if fixed_cb is None:
            block = max(1, _BLOCK_LETTERS // ((params.n_rows + params.n_cols) * self.n))
        else:
            block = max(1, (_BLOCK_LETTERS >> 4) // max(params.n_rows, params.n_cols))
        names = ("e1", "e2b", "e2c", "e3b", "e3c") if classical else ("e1", "e2", "e3")
        hits = np.zeros(len(names) + 2, dtype=np.int64)
        for start in range(0, trials, block):
            keys = mix64(seed, np.arange(start, min(trials, start + block),
                                         dtype=np.uint64)).tolist()
            if fixed_cb is None:
                rows, cols = codebook_block(self.design, params, keys, self.n)
            else:
                rows = np.broadcast_to(fixed_cb.rows, (len(keys),) + fixed_cb.rows.shape)
                cols = np.broadcast_to(fixed_cb.cols, (len(keys),) + fixed_cb.cols.shape)
            # messages from stream 101; a cq trial's PGM outcomes from 103 and 104
            u = first_uniforms(keys, (101,) if classical else (101, 103, 104), 2)
            m1 = np.minimum((u[:, 0, 0] * n_m1).astype(np.int64), n_m1 - 1)
            m2 = np.minimum((u[:, 0, 1] * n_m2).astype(np.int64), n_m2 - 1)
            if fixed_cb is None:
                row, col, x = encode_block(rows, cols, keys, m1, m2, params, self.log_ratio,
                                           self.evaluator)
            else:
                # every trial scans the codebook's words with the same rejection
                # streams, (mix64(codebook seed, 3), row), so an encoding depends
                # on the message pair alone: the block's distinct pairs, ascending
                # (np.unique's values, without the masked-array check through
                # which np.unique imports numpy.ma), are encoded once each
                codes = m1 * n_m2 + m2
                pairs = np.sort(codes)
                pairs = pairs[np.diff(pairs, prepend=-1) != 0]
                encoded = encode_block(rows[:pairs.size], cols[:pairs.size],
                                       [fixed_cb.seed] * pairs.size, pairs // n_m2,
                                       pairs % n_m2, params, self.log_ratio, self.evaluator)
                at = np.searchsorted(pairs, codes)
                row, col, x = (part[at] for part in encoded)
            sent = np.stack([row, col])
            if classical:
                first, count, hit = self._decode_classical(params, rows, cols, keys, fixed_cb,
                                                           x, sent)
            else:
                first, count, hit = self._decode_cq(params, rows, cols, x, sent, u[:, 1:, 0])
            hits += _event_hits(classical, params, m1, m2, sent, first, count, hit)
            # freed before the next block's words are drawn, which then reuse
            # this memory instead of heap pages returned to the system
            del rows, cols
        return dict(zip(names + ("message_error", "index_error"), hits.tolist()))

    def _decode_classical(self, params, rows, cols, keys, fixed_cb, x, sent):
        """The block's outputs through the channel, decoded by membership.

        Trial j's outputs come from the first n uniforms of its stream 102,
        drawn for the whole block by ``first_uniforms`` and mapped through
        the channel once per input letter over the block.  Each side is
        decoded by ``decode_rows`` / ``decode_cols`` over (codebook, trials)
        entries: a fixed codebook is one entry over the whole block, with
        letter indicators it builds once for the run, and the threshold
        decoder's type counts and scores grow as trials times words, which
        is what a fixed codebook's block size bounds.  Fresh codebooks are
        one entry per trial, built as the loop reaches them, so each
        trial's indicators go with it.

        Returns (first, count, hit), shaped (side, trial): the first
        matching word, or word 0 where none matches, so that no match
        decodes to message 0; the number of matches; and whether the sent
        word is among them.
        """
        trials = len(keys)
        received = self.sampler.sample_outputs(x, first_uniforms(keys, (102,), self.n)[:, 0])
        entries = ([(fixed_cb, 0, trials)] if fixed_cb is not None else
                   ((Codebook(rows[j], cols[j], params, self.design, key, self.n), j, j + 1)
                    for j, key in enumerate(keys)))
        found = ([], [])
        for cb, start, stop in entries:
            for parts, decode, mem, words in zip(found, (decode_rows, decode_cols),
                                                 (self.mem_b, self.mem_c), received):
                res = decode(cb, words[start:stop], mem)
                parts.append((res.trial + start, res.matched))
        first = np.zeros(sent.shape, dtype=np.int64)
        count = np.zeros(sent.shape, dtype=np.int64)
        hit = np.zeros(sent.shape, dtype=bool)
        for side, parts in enumerate(found):
            trial, matched = (np.concatenate(arrays) for arrays in zip(*parts))
            # matches run trial by trial, so a trial's first sits after the
            # matches of the trials before it
            count[side] = np.bincount(trial, minlength=trials)
            some = count[side] > 0
            first[side, some] = matched[(np.cumsum(count[side]) - count[side])[some]]
            hit[side] = np.bincount(trial[matched == sent[side, trial]], minlength=trials) > 0
        return first, count, hit

    def _decode_cq(self, params: RateParams, rows, cols, x, sent, uniforms):
        """Both sides of the block measured, as ``_decode_classical`` returns them.

        ``uniforms`` holds each trial's first uniform of streams 103 (Bob)
        and 104 (Charlie), drawn once for the block by ``_counts``, and
        picks the trial's outcome on each side.  The measurement picks one
        word, or the completion outcome: the word count, which lies in no
        message's band and matches no word.
        """
        first = np.stack([
            decode_pgm(words[:, :, 0], tests, states, x[:, 0], side_uniforms)
            for words, tests, states, side_uniforms in (
                (rows, self.bob_tests, self.bob_states, uniforms[:, 0]),
                (cols, self.charlie_tests, self.charlie_states, uniforms[:, 1]))])
        count = (first < np.array([[params.n_rows], [params.n_cols]])).astype(np.int64)
        return first, count, first == sent

    def run(self, params: RateParams, trials: int, seed: int, *,
            resample_codebook: bool = True) -> ExperimentReport:
        """Run seeded coding trials and compare event rates against the bounds.

        ``params`` must carry the scheme's eps0 and eps_infty, and divergence
        values within its ``achieved``.  The default resamples a fresh codebook
        every trial, matching the averaged-codebook analysis;
        ``resample_codebook=False`` reuses one fixed codebook for the whole
        run (the derandomized reading).
        """
        if trials < 1:
            raise ValidationError("trials must be positive")
        # mix64 reduces keys modulo 2^64, so a larger seed would replay another run
        if not 0 <= seed < 2**64:
            raise ValidationError(f"seed must lie in [0, 2**64), got {seed}")
        if params.eps0 != self.eps0 or params.eps_infty != self.eps_infty:
            raise ValidationError(
                f"params carry (eps0, eps_infty) = ({params.eps0}, {params.eps_infty}), "
                f"the scheme was built for ({self.eps0}, {self.eps_infty})")
        _check_achieved(params, self.achieved)
        started = datetime.datetime.now(datetime.timezone.utc).isoformat()
        t0 = time.monotonic()
        setting = self.setting

        try:
            params.validate()
            theorem_valid = True
        except InfeasibleRates:
            theorem_valid = False

        fixed_cb: Codebook | None = None
        codebook_digest = None
        if not resample_codebook:
            fixed_cb = generate_codebook(self.design, params, mix64(seed, 0xC0DEB00C), self.n)
            codebook_digest = fixed_cb.content_digest()
        counts = self._counts(params, trials, seed, fixed_cb)

        bounds = event_bounds(params, setting)
        events = _event_rows(setting, counts, trials, bounds, theorem_valid)

        return ExperimentReport(
            setting=setting,
            n=self.n,
            trials=trials,
            seed=seed,
            resample_codebook=resample_codebook,
            i0_method=self.i0_method,
            params=dict(vars(params)),
            achieved=dict(self.achieved),
            scheme=dict(self.describe),
            channel_digest=self.channel.digest,
            design_digest=self.design.digest,
            codebook_digest=codebook_digest,
            theorem_valid=theorem_valid,
            bounds=bounds,
            events=tuple(events),
            started_at=started,
            wall_clock_s=time.monotonic() - t0,
        )


def _event_hits(classical, params, m1, m2, sent, first, count, hit) -> list:
    """Hits of each event in a block: e1, then e2b, e2c, e3b, e3c
    (classical) or e2, e3 (cq), then message and index errors.

    ``sent`` holds each trial's encoded row and column, -1 where it fell
    back.  A side misses when the sent word is not among its matches, and a
    classical side confuses when another word is.  A side decodes to the
    band of ``first``, and to the index ``first`` where it is the only match.
    """
    fallback = sent[0] < 0
    missed = ~hit & ~fallback
    msg_wrong = (first[0] >> params.r1 != m1) | (first[1] >> params.r2 != m2)
    idx_wrong = ((count != 1) | (first != sent)).any(axis=0)
    events = [fallback, missed[0], missed[1]]
    if classical:
        events += list((count > hit) & ~fallback)
    events += [fallback | msg_wrong, fallback | idx_wrong]
    return [int(e.sum()) for e in events]


@functools.lru_cache(maxsize=32)
def _shared_scheme(channel, design: InputDesign, eps0, eps_infty, n, i0_method):
    return Scheme(channel, design, eps0, eps_infty, n=n, i0_method=i0_method)


def achieved_divergences(channel, design: InputDesign, eps0: float, eps_infty: float,
                         *, n: int = 1, i0_method: str = "greedy"):
    """(i0b, i0c, i_infty) the decoding scheme achieves for these inputs.

    The values of ``Scheme.shared(...).achieved``, so RateParams built from
    them always pass the consistency gate, and a run of the same inputs
    reuses that Scheme.
    """
    achieved = Scheme.shared(channel, design, eps0, eps_infty, n=n,
                             i0_method=i0_method).achieved
    return achieved["i0b"], achieved["i0c"], achieved["i_infty"]


def run_experiment(channel, design: InputDesign, params: RateParams, trials: int,
                   seed: int, *, n: int = 1, resample_codebook: bool = True,
                   i0_method: str = "greedy") -> ExperimentReport:
    """Run seeded coding trials and compare event rates against the bounds.

    Runs the ``Scheme.shared`` of these inputs at the smoothing parameters
    of ``params``: the Scheme an earlier call with equal content built, or a
    new one.  For classical channels ``n > 1`` runs the blocklength-n
    product scheme with threshold decoding; cq channels are single-letter
    only.
    """
    scheme = Scheme.shared(channel, design, params.eps0, params.eps_infty, n=n,
                           i0_method=i0_method)
    return scheme.run(params, trials, seed, resample_codebook=resample_codebook)
