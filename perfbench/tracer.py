"""Span tracer for the traced run: wraps martonlab's public calls from outside.

``Tracer.install`` replaces each traced function or method with a wrapper
that records a span (name, start, end, parent span) and the counters of that
boundary.  Module-level functions are replaced under every name any martonlab
module binds them to, so calls through ``from .coding import encode`` in
``experiments`` are seen too.  Spans live in flat arrays in memory and are
reduced to per-layer metrics once, at the end.

Repeat counters (``*_repeat_frac``, ``divergences.repeat_calls``) are scoped
to one operation, that is one ``run_experiment`` or ``cli.main`` call: they
give the hit rate a cache living inside one run of the library would get.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import inspect
import sys
import time
from array import array

import numpy as np

from martonlab import analysis, channels, coding, divergences, quantum
from martonlab import cli, experiments
from martonlab.rng import SeededRng, mix64

# counters recorded at the traced boundaries
_COUNTERS = (
    "coding.codebooks", "coding.codebook_words", "coding.cells_scanned",
    "coding.cells_alive", "coding.encode_fallbacks", "coding.alpha_beta_calls",
    "coding.alpha_beta_repeats", "coding.decode_calls", "coding.decode_words_scored",
    "coding.decode_matched", "coding.pgm_calls", "coding.pgm_repeats",
    "rng.streams", "rng.draws", "quantum.pinv_sqrt_calls", "quantum.partial_trace_calls",
    "divergences.calls", "divergences.repeat_calls", "divergences.spectrum_atoms_max",
    "analysis.calls", "experiments.setup_s",
)


def _functions(module) -> list:
    return [name for name in module.__all__ if inspect.isfunction(getattr(module, name))]


def _fingerprint(obj, h) -> None:
    """Feed a value's content (arrays, dataclasses, containers) into a hash."""
    if isinstance(obj, np.ndarray):
        h.update(f"{obj.dtype.str}{obj.shape}".encode())
        h.update(np.ascontiguousarray(obj).tobytes())
    elif isinstance(obj, (list, tuple)):
        h.update(f"[{len(obj)}".encode())
        for item in obj:
            _fingerprint(item, h)
    elif isinstance(obj, dict):
        h.update(f"{{{len(obj)}".encode())
        for key in sorted(obj, key=repr):
            _fingerprint(key, h)
            _fingerprint(obj[key], h)
    elif dataclasses.is_dataclass(obj) and not isinstance(obj, type):
        h.update(type(obj).__name__.encode())
        for f in dataclasses.fields(obj):
            _fingerprint(getattr(obj, f.name), h)
    else:
        h.update(repr(obj).encode())


def _call_key(name: str, args, kwargs) -> bytes:
    h = hashlib.blake2b(name.encode(), digest_size=16)
    _fingerprint(args, h)
    _fingerprint(kwargs, h)
    return h.digest()


class Tracer:
    def __init__(self):
        self.group_names = []      # group id -> metric prefix
        self.span_group = array("i")
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_outer = array("b")   # 1 if no ancestor span is in the same group
        self.span_start = array("d")
        self.span_end = array("d")
        self.name_ids = {}
        self.names = []
        self.stack = [-1]
        self.depth = []            # open spans per group
        self.counters = dict.fromkeys(_COUNTERS, 0)
        self._patches = []
        self.begin_op()

    # -- recording --------------------------------------------------------

    def begin_op(self) -> None:
        """Start the scope of the repeat counters: one library call."""
        self.seen_alpha_beta = set()
        self.seen_pgm = set()
        self.seen_divergence = set()
        self.run_entry = None
        self.trial0_key = None

    def _ids(self, group: str, name: str) -> tuple:
        if group not in self.group_names:
            self.group_names.append(group)
            self.depth.append(0)
        if name not in self.name_ids:
            self.name_ids[name] = len(self.names)
            self.names.append(name)
        return self.group_names.index(group), self.name_ids[name]

    def _wrap(self, group: str, name: str, fn, after=None, before=None):
        gid, nid = self._ids(group, name)
        tr = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if before is not None:
                before(args, kwargs)
            idx = len(tr.span_start)
            tr.span_group.append(gid)
            tr.span_name.append(nid)
            tr.span_parent.append(tr.stack[-1])
            tr.span_outer.append(tr.depth[gid] == 0)
            tr.span_end.append(0.0)
            tr.depth[gid] += 1
            tr.stack.append(idx)
            tr.span_start.append(time.perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                tr.span_end[idx] = time.perf_counter()
                tr.stack.pop()
                tr.depth[gid] -= 1
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _count_only(self, fn, after):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            after(args, kwargs, result)
            return result

        return wrapper

    # -- patching ---------------------------------------------------------

    def _patch_function(self, module, name: str, wrapper_of) -> None:
        original = getattr(module, name)
        wrapper = wrapper_of(original)
        for mod in [m for k, m in sys.modules.items()
                    if k == "martonlab" or k.startswith("martonlab.")]:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)

    def _patch_method(self, cls, name: str, wrapper_of) -> None:
        original = cls.__dict__[name]
        self._patches.append((cls, name, original))
        setattr(cls, name, wrapper_of(original))

    def install(self) -> None:
        c = self.counters
        span = self._wrap

        def codebook_done(args, kwargs, cb):
            c["coding.codebooks"] += 1
            c["coding.codebook_words"] += cb.n_rows + cb.n_cols

        def encode_done(args, kwargs, out):
            c["coding.cells_scanned"] += out.scanned
            c["coding.encode_fallbacks"] += int(out.fallback)

        def indicator_done(args, kwargs, alive):
            c["coding.cells_alive"] += int(np.count_nonzero(alive))

        def alpha_beta_done(args, kwargs, result):
            ev, row_word, col_word = args[:3]
            x = ev.fx[row_word, col_word]
            nx = int(ev.fx.max()) + 1
            key = (id(ev),
                   np.bincount(row_word * nx + x, minlength=ev.fx.shape[0] * nx).tobytes(),
                   np.bincount(col_word * nx + x, minlength=ev.fx.shape[1] * nx).tobytes())
            c["coding.alpha_beta_calls"] += 1
            if key in self.seen_alpha_beta:
                c["coding.alpha_beta_repeats"] += 1
            self.seen_alpha_beta.add(key)

        def decode_done(side):
            def done(args, kwargs, result):
                codebook = args[0]
                c["coding.decode_calls"] += 1
                c["coding.decode_words_scored"] += getattr(codebook, side).shape[0]
                c["coding.decode_matched"] += int(result.matched.size)
            return done

        def pgm_done(args, kwargs, result):
            words, tests = args[:2]
            key = (id(tests), np.bincount(words[:, 0], minlength=len(tests)).tobytes())
            c["coding.pgm_calls"] += 1
            if key in self.seen_pgm:
                c["coding.pgm_repeats"] += 1
            self.seen_pgm.add(key)

        def stream_done(args, kwargs, _):
            c["rng.streams"] += 1
            rng = args[0]
            if self.trial0_key is not None and rng.master_seed == self.trial0_key:
                # the first stream keyed by trial 0 opens the first trial
                c["experiments.setup_s"] += time.perf_counter() - self.run_entry
                self.trial0_key = None

        def draws_done(args, kwargs, result):
            c["rng.draws"] += int(np.size(result))

        def counted(key):
            def done(args, kwargs, result):
                c[key] += 1
            return done

        def divergence_done(name):
            def done(args, kwargs, result):
                c["divergences.calls"] += 1
                key = _call_key(name, args, kwargs)
                if key in self.seen_divergence:
                    c["divergences.repeat_calls"] += 1
                self.seen_divergence.add(key)
                if name == "iid_llr_spectrum":
                    c["divergences.spectrum_atoms_max"] = max(
                        c["divergences.spectrum_atoms_max"], len(result))
            return done

        run_signature = inspect.signature(experiments.run_experiment)

        def run_entered(args, kwargs):
            self.run_entry = time.perf_counter()
            seed = run_signature.bind(*args, **kwargs).arguments["seed"]
            self.trial0_key = mix64(seed, 0)

        fn = self._patch_function
        fn(coding, "generate_codebook", lambda f: span(
            "coding.codebook", "generate_codebook", f, codebook_done))
        fn(coding, "encode", lambda f: span("coding.encode", "encode", f, encode_done))
        self._patch_method(coding.Codebook, "indicator",
                           lambda f: self._count_only(f, indicator_done))
        for cls in (coding.ClassicalSetEvaluator, coding.ClassicalThresholdEvaluator,
                    coding.QuantumPairEvaluator):
            self._patch_method(cls, "alpha_beta", lambda f, cls=cls: span(
                "coding.alpha_beta", f"{cls.__name__}.alpha_beta", f, alpha_beta_done))
        fn(coding, "decode_rows", lambda f: span(
            "coding.decode", "decode_rows", f, decode_done("rows")))
        fn(coding, "decode_cols", lambda f: span(
            "coding.decode", "decode_cols", f, decode_done("cols")))
        fn(coding, "decode_pgm", lambda f: span("coding.pgm", "decode_pgm", f, pgm_done))

        self._patch_method(SeededRng, "__init__", lambda f: self._count_only(f, stream_done))
        for meth in ("random", "choice_index"):
            self._patch_method(SeededRng, meth, lambda f, meth=meth: span(
                "rng.draw", f"SeededRng.{meth}", f, draws_done))

        fn(quantum, "pinv_sqrt", lambda f: span(
            "quantum.pinv_sqrt", "pinv_sqrt", f, counted("quantum.pinv_sqrt_calls")))
        fn(quantum, "partial_trace", lambda f: span(
            "quantum.partial_trace", "partial_trace", f, counted("quantum.partial_trace_calls")))

        self._patch_method(channels.ProductClassicalChannel, "sample_outputs", lambda f: span(
            "channels.transmit", "ProductClassicalChannel.sample_outputs", f))
        for meth in ("rho_b", "rho_c"):
            self._patch_method(channels.CqBroadcastChannel, meth, lambda f, meth=meth: span(
                "channels.transmit", f"CqBroadcastChannel.{meth}", f))
        for name in ("build_classical_joints", "bob_ensemble", "charlie_ensemble"):
            fn(channels, name, lambda f, name=name: span("channels.ensemble", name, f))

        for name in _functions(divergences):
            fn(divergences, name, lambda f, name=name: span(
                "divergences", name, f, divergence_done(name)))
        for name in _functions(analysis):
            fn(analysis, name, lambda f, name=name: span(
                "analysis", name, f, counted("analysis.calls")))

        fn(experiments, "run_experiment", lambda f: span(
            "experiments", "run_experiment", f, before=run_entered))
        fn(cli, "main", lambda f: span("cli", "main", f))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- reduction --------------------------------------------------------

    def metrics(self) -> dict:
        """Per-layer metrics: inclusive and self times of spans, and counters."""
        group = np.frombuffer(self.span_group, dtype=np.int32)
        name = np.frombuffer(self.span_name, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        outer = np.frombuffer(self.span_outer, dtype=np.int8).astype(bool)
        dur = np.frombuffer(self.span_end) - np.frombuffer(self.span_start)
        has_parent = parent >= 0
        child = np.bincount(parent[has_parent], weights=dur[has_parent],
                            minlength=dur.size)[:dur.size]
        self_time = dur - child

        def inclusive(g: str) -> float:
            if g not in self.group_names:
                return 0.0
            return float(dur[outer & (group == self.group_names.index(g))].sum())

        def self_of(n: str) -> float:
            if n not in self.name_ids:
                return 0.0
            return float(self_time[name == self.name_ids[n]].sum())

        c = self.counters
        ratio = lambda a, b: a / b if b else 0.0  # noqa: E731
        return {
            "coding.codebook_s": (inclusive("coding.codebook"), "s"),
            "coding.codebooks": (c["coding.codebooks"], "count"),
            "coding.codebook_words": (c["coding.codebook_words"], "count"),
            "coding.encode_self_s": (self_of("encode"), "s"),
            "coding.cells_scanned": (c["coding.cells_scanned"], "count"),
            "coding.cells_alive": (c["coding.cells_alive"], "count"),
            "coding.encode_fallbacks": (c["coding.encode_fallbacks"], "count"),
            "coding.alpha_beta_s": (inclusive("coding.alpha_beta"), "s"),
            "coding.alpha_beta_calls": (c["coding.alpha_beta_calls"], "count"),
            "coding.alpha_beta_repeat_frac": (
                ratio(c["coding.alpha_beta_repeats"], c["coding.alpha_beta_calls"]), "ratio"),
            "coding.decode_s": (inclusive("coding.decode"), "s"),
            "coding.decode_words_scored": (c["coding.decode_words_scored"], "count"),
            "coding.decode_matched_mean": (
                ratio(c["coding.decode_matched"], c["coding.decode_calls"]), "words"),
            "coding.pgm_s": (inclusive("coding.pgm"), "s"),
            "coding.pgm_calls": (c["coding.pgm_calls"], "count"),
            "coding.pgm_repeat_frac": (
                ratio(c["coding.pgm_repeats"], c["coding.pgm_calls"]), "ratio"),
            "rng.streams": (c["rng.streams"], "count"),
            "rng.draws": (c["rng.draws"], "count"),
            "rng.draw_s": (inclusive("rng.draw"), "s"),
            "quantum.pinv_sqrt_s": (inclusive("quantum.pinv_sqrt"), "s"),
            "quantum.pinv_sqrt_calls": (c["quantum.pinv_sqrt_calls"], "count"),
            "quantum.partial_trace_s": (inclusive("quantum.partial_trace"), "s"),
            "quantum.partial_trace_calls": (c["quantum.partial_trace_calls"], "count"),
            "channels.transmit_s": (inclusive("channels.transmit"), "s"),
            "channels.ensemble_s": (inclusive("channels.ensemble"), "s"),
            "divergences.s": (inclusive("divergences"), "s"),
            "divergences.calls": (c["divergences.calls"], "count"),
            "divergences.repeat_calls": (c["divergences.repeat_calls"], "count"),
            "divergences.spectrum_atoms_max": (c["divergences.spectrum_atoms_max"], "atoms"),
            "analysis.s": (inclusive("analysis"), "s"),
            "analysis.calls": (c["analysis.calls"], "count"),
            "experiments.self_s": (self_of("run_experiment"), "s"),
            "experiments.setup_s": (c["experiments.setup_s"], "s"),
            "cli.self_s": (self_of("main"), "s"),
        }
