"""Trial harness: determinism, event accounting, and bound attachment."""

import dataclasses
import itertools
from collections import Counter
import json
import math
import sys
import threading

import numpy as np
import pytest

from conftest import (
    classical_counts_per_trial,
    cq_counts_per_trial,
    decode_pgm_per_trial,
    draw_trial,
    encode_per_trial,
    event_counts,
    event_of,
    set_membership,
    uncached_pgm_probabilities,
)
from test_acceptance import QUBIT_POINTS, _pair_design, _qubit_cq
from martonlab import cli, coding, experiments
from martonlab.channels import (
    ClassicalBroadcastChannel,
    CqBroadcastChannel,
    InputDesign,
    ProductClassicalChannel,
    build_classical_joints,
    channel_from_json,
)
from martonlab.coding import (
    ClassicalSetEvaluator,
    QuantumPairEvaluator,
    RateParams,
    decode_cols,
    decode_rows,
    generate_codebook,
)
from martonlab.analysis import event_bounds
from martonlab.divergences import classical_i0, llr_table, quantum_i0_cq
from martonlab.errors import ValidationError
from martonlab.experiments import (
    EventStats,
    Scheme,
    achieved_divergences,
    run_experiment,
)
from martonlab.prob import JointPmf, json_digest
from martonlab.rng import _ARRAY_PASS_STREAMS, SeededRng, mix64

DSBS_45 = np.array([[0.45, 0.05], [0.05, 0.45]])


def pair_design(probs):
    joint = JointPmf(("0", "1"), ("0", "1"), np.asarray(probs))
    return InputDesign(joint, {(u, v): u + v for u in "01" for v in "01"})


def independent_design():
    return pair_design(np.full((2, 2), 0.25))


def bsc_pair_channel(p: float, q: float) -> ClassicalBroadcastChannel:
    xs = ("00", "01", "10", "11")
    probs = np.zeros((4, 2, 2))
    for i, x in enumerate(xs):
        for y in range(2):
            for z in range(2):
                py = (1 - p) if y == int(x[0]) else p
                pz = (1 - q) if z == int(x[1]) else q
                probs[i, y, z] = py * pz
    return ClassicalBroadcastChannel(xs, ("0", "1"), ("0", "1"), probs)


def erasure_bsc_channel(e: float, q: float) -> ClassicalBroadcastChannel:
    """X = two bits; Bob sees bit one erased with probability e, Charlie bit
    two through BSC(q).  Bob's llr table is -inf where the received bit
    contradicts the word letter."""
    xs = ("00", "01", "10", "11")
    probs = np.zeros((4, 3, 2))
    for i, x in enumerate(xs):
        for z in range(2):
            pz = (1 - q) if z == int(x[1]) else q
            probs[i, 2 * int(x[0]), z] = (1 - e) * pz
            probs[i, 1, z] = e * pz
    return ClassicalBroadcastChannel(xs, ("0", "e", "1"), ("0", "1"), probs)


def qubit_cq_channel(theta: float = 0.35) -> CqBroadcastChannel:
    c, s = math.cos(theta), math.sin(theta)
    kb = {
        "0": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        "1": np.array([[c * c, c * s], [c * s, s * s]], dtype=complex),
    }
    kc = {
        "0": np.diag([0.85, 0.15]).astype(complex),
        "1": np.diag([0.30, 0.70]).astype(complex),
    }
    xs = ("00", "01", "10", "11")
    states = [np.kron(kb[x[0]], kc[x[1]]) for x in xs]
    return CqBroadcastChannel(xs, 2, 2, states)


def desk_params(**over):
    # matches the bsc_pair(0.1, 0.1) channel under the DSBS_45 design:
    # greedy order-zero value 1.0 on both sides, max divergence log2(1.8)
    base = dict(R1=1, R2=1, r1=2, r2=2, eps_tilde=1 / 8, eps0=0.1,
                eps_infty=0.25, i0b=1.0, i0c=1.0, i_infty=0.85)
    base.update(over)
    return RateParams(**base)


def block_params(**over):
    # matches the noiseless pair channel at n = 25 under independent inputs
    base = dict(R1=1, R2=1, r1=6, r2=3, eps_tilde=1 / 8, eps0=0.01,
                eps_infty=0.25, i0b=25.0, i0c=25.0, i_infty=0.0)
    base.update(over)
    return RateParams(**base)


def _case(case):
    """New channel and design objects of a set, threshold or PGM scheme case,
    its blocklength and rate parameters at the achieved divergences."""
    channel, design, eps0, n = {
        "desk": (bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45), 0.1, 1),
        "n=4": (bsc_pair_channel(0.05, 0.05), independent_design(), 0.05, 4),
        "n=4 -inf": (erasure_bsc_channel(0.1, 0.05), independent_design(), 0.05, 4),
        "qubit": (qubit_cq_channel(), independent_design(), 0.05, 1),
    }[case]
    achieved = Scheme(channel, design, eps0, 0.25, n=n).achieved
    params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=1 / 8, eps0=eps0, eps_infty=0.25,
                        **achieved)
    return channel, design, n, params


class TestScheme:
    @pytest.mark.parametrize("resample", [True, False])
    @pytest.mark.parametrize("case", ["desk", "n=4", "qubit"])
    def test_runs_read_what_the_scheme_built(self, case, resample, monkeypatch):
        # the design's llr table and a cq channel's reduced states are built
        # with the Scheme, once: its runs read them and build neither again
        channel, design, n, params = _case(case)
        scheme = Scheme(channel, design, params.eps0, 0.25, n=n)
        assert np.array_equal(scheme.log_ratio, llr_table(design.joint))
        if case == "qubit":
            for states, state in ((scheme.bob_states, channel.rho_b),
                                  (scheme.charlie_states, channel.rho_c)):
                assert not states.flags.writeable
                assert np.array_equal(states, [state(x) for x in channel.x_alphabet])
        want = scheme.run(params, 20, 4, resample_codebook=resample)

        def refused(*args):
            raise AssertionError("built during a run")

        monkeypatch.setattr(experiments, "llr_table", refused)
        for name in ("rho_b", "rho_c"):
            monkeypatch.setattr(type(channel), name, refused, raising=False)
        got = scheme.run(params, 20, 4, resample_codebook=resample)
        assert _scrubbed_digest(got) == _scrubbed_digest(want)

    @pytest.mark.parametrize("case", ["desk", "n=4", "qubit"])
    def test_achieved_divergences_is_scheme_achieved(self, case):
        channel, design, n, params = _case(case)
        scheme = Scheme(channel, design, params.eps0, 0.25, n=n)
        triple = achieved_divergences(channel, design, params.eps0, 0.25, n=n)
        assert triple == (scheme.achieved["i0b"], scheme.achieved["i0c"],
                          scheme.achieved["i_infty"])

    @pytest.mark.parametrize("over", [{"eps0": 0.05}, {"eps_infty": 0.2}])
    def test_run_rejects_other_smoothing(self, over):
        scheme = Scheme(bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45), 0.1, 0.25)
        with pytest.raises(ValidationError, match="eps0, eps_infty"):
            scheme.run(desk_params(**over), 10, seed=0)

    def test_randomized_i0_has_no_test_set(self):
        with pytest.raises(ValidationError, match="deterministic test set"):
            achieved_divergences(bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45), 0.1, 0.25,
                                 i0_method="randomized")


class TestSharedScheme:
    """``Scheme.shared``: reuse by content, bounded, never of a failed build."""

    @pytest.mark.parametrize("resample", [True, False])
    @pytest.mark.parametrize("case", ["desk", "n=4", "qubit"])
    def test_warm_run_equals_fresh_scheme(self, case, resample):
        channel, design, n, params = _case(case)
        run_experiment(channel, design, params, 20, seed=1, n=n, resample_codebook=resample)
        # distinct objects of equal content reuse the Scheme of the first run
        channel, design, _, _ = _case(case)
        warm = run_experiment(channel, design, params, 20, seed=2, n=n,
                              resample_codebook=resample)
        assert experiments._shared_scheme.cache_info()[:2] == (1, 1)  # (hits, misses)
        fresh = Scheme(channel, design, params.eps0, params.eps_infty, n=n).run(
            params, 20, seed=2, resample_codebook=resample)
        assert _scrubbed_digest(warm) == _scrubbed_digest(fresh)

    def test_each_key_part_builds_a_new_scheme(self):
        base = dict(channel=bsc_pair_channel(0.1, 0.1), design=pair_design(DSBS_45),
                    eps0=0.1, eps_infty=0.25, n=1, i0_method="greedy")
        swapped = InputDesign(pair_design(DSBS_45).joint,
                              {(u, v): v + u for u in "01" for v in "01"})
        changes = [{"eps0": 0.05}, {"eps_infty": 0.2}, {"n": 2}, {"i0_method": "exhaustive"},
                   {"channel": bsc_pair_channel(0.1, 0.12)}, {"design": swapped}]

        def shared(**change):
            args = {**base, **change}
            return Scheme.shared(args.pop("channel"), args.pop("design"), args.pop("eps0"),
                                 args.pop("eps_infty"), **args)

        first = shared()
        schemes = [first] + [shared(**change) for change in changes]
        assert len(set(map(id, schemes))) == 1 + len(changes)
        assert shared(channel=bsc_pair_channel(0.1, 0.1), design=pair_design(DSBS_45)) is first

    def test_failed_build_is_not_kept(self, monkeypatch):
        calls = []
        original = experiments.classical_i0
        monkeypatch.setattr(experiments, "classical_i0",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        for _ in range(2):
            with pytest.raises(ValidationError, match="deterministic test set"):
                achieved_divergences(bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45), 0.1,
                                     0.25, i0_method="randomized")
        assert len(calls) == 4  # both attempts built both sides
        assert experiments._shared_scheme.cache_info().currsize == 0

    def test_content_digests_are_computed_once(self, monkeypatch):
        calls = []
        for cls in (CqBroadcastChannel, InputDesign):
            monkeypatch.setattr(cls, "to_json", lambda self, f=cls.to_json: calls.append(
                type(self)) or f(self))
        channel, design = qubit_cq_channel(), independent_design()
        for _ in range(3):
            Scheme.shared(channel, design, 0.05, 0.25)
        assert experiments._shared_scheme.cache_info()[:2] == (2, 1)  # (hits, misses)
        assert calls == [CqBroadcastChannel, InputDesign]

    @pytest.mark.parametrize("case", ["desk", "qubit"])
    def test_copies_read_back_from_json_files_hit(self, case, tmp_path):
        # the lookup keys on the objects, which compare by their JSON content
        channel, design, _, _ = _case(case)
        for name, value in (("channel", channel), ("design", design)):
            (tmp_path / f"{name}.json").write_text(json.dumps(value.to_json()))

        def read(name):
            return json.loads((tmp_path / f"{name}.json").read_text())

        first = Scheme.shared(channel, design, 0.05, 0.25)
        read_back = channel_from_json(read("channel")), InputDesign.from_json(read("design"))
        assert read_back[0] is not channel and read_back[1] is not design
        assert Scheme.shared(*read_back, 0.05, 0.25) is first
        assert experiments._shared_scheme.cache_info()[:2] == (1, 1)  # (hits, misses)

    def test_cache_is_bounded(self):
        channel, design = bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45)
        info = experiments._shared_scheme.cache_info
        oldest = Scheme.shared(channel, design, 0.1, 0.25)
        for k in range(1, 40):
            Scheme.shared(channel, design, 0.1 + k / 1000, 0.25)
            assert info().currsize == min(k + 1, info().maxsize)
        assert info().maxsize == 32
        assert Scheme.shared(channel, design, 0.1, 0.25) is not oldest

    def test_second_simulate_computes_no_divergence(self, tmp_path, capsys, monkeypatch):
        calls = []
        original = experiments.quantum_i0_cq
        monkeypatch.setattr(experiments, "quantum_i0_cq",
                            lambda *a, **k: calls.append(1) or original(*a, **k))
        (tmp_path / "cq.json").write_text(json.dumps(qubit_cq_channel().to_json()))
        (tmp_path / "design.json").write_text(json.dumps(independent_design().to_json()))
        config = tmp_path / "sim.json"
        config.write_text(json.dumps({
            "channel": "cq.json", "design": "design.json", "eps": 0.9, "eps0": 0.05,
            "eps_tilde": 0.125, "eps_infty": 0.25, "rates": [1, 1], "bands": [2, 2],
            "trials": 5, "seed": 9, "mode": "free"}))
        reports, counted = [], []
        for run in ("first", "second"):
            assert cli.main(["simulate", "--config", str(config), "--out",
                             str(tmp_path / run)]) == 0
            counted.append(len(calls))
            doc = json.loads((tmp_path / run / "simulate_report.json").read_text())
            doc["report"].pop("started_at")
            doc["report"].pop("wall_clock_s")
            reports.append(doc)
        capsys.readouterr()
        assert counted == [2, 2]
        assert reports[0] == reports[1]

    def test_two_threads_share_a_threshold_scheme(self):
        channel, design, n, params = _case("n=4")
        fresh = Scheme(channel, design, params.eps0, params.eps_infty, n=n)
        want = _scrubbed_digest(fresh.run(params, 10, seed=5))
        words = np.array(list(itertools.product((0, 1), repeat=n)), dtype=np.uint8)
        pairs = [(row, col) for row in words for col in words]
        want_ab = [fresh.evaluator.alpha_beta(row, col) for row, col in pairs]

        def run_pair() -> list:
            got, start = [None, None], threading.Barrier(2, timeout=60)

            def work(i):
                start.wait()
                got[i] = run_experiment(channel, design, params, 10, seed=5, n=n)

            threads = [threading.Thread(target=work, args=(i,)) for i in range(2)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
            return got

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            # the convolution powers and tail masses fill in a run's first
            # trials, so each round starts both threads on a new Scheme with none
            for _ in range(10):
                experiments._shared_scheme.cache_clear()
                shared = Scheme.shared(channel, design, params.eps0, params.eps_infty, n=n)
                assert [_scrubbed_digest(r) for r in run_pair()] == [want] * 2
                assert [shared.evaluator.alpha_beta(row, col) for row, col in pairs] == want_ab
        finally:
            sys.setswitchinterval(interval)

    def test_sweep_pgm_tables_stay_cached(self):
        # the tables are keyed by content, so clearing them changes no result
        tables = coding._pgm_table
        tables.cache_clear()

        def sweep():
            for point in range(10):
                scheme, r1, r2, achieved, seed = _qubit_point(point)
                params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=0.125, eps0=0.05,
                                    eps_infty=0.25, **achieved)
                scheme.run(params, 40, seed)
            return tables.cache_info().misses

        first = sweep()
        # more tables than a 256-entry cache holds
        assert first > 256
        assert sweep() == first


class TestDeskClassical:
    def test_replay_identical(self):
        ch = bsc_pair_channel(0.1, 0.1)
        a = run_experiment(ch, pair_design(DSBS_45), desk_params(), 300, seed=42)
        b = run_experiment(ch, pair_design(DSBS_45), desk_params(), 300, seed=42)
        assert event_counts(a) == event_counts(b)
        assert a.channel_digest == b.channel_digest
        assert a.design_digest == b.design_digest

    def test_event_accounting_matches_manual_replay(self):
        ch = bsc_pair_channel(0.1, 0.1)
        design = pair_design(DSBS_45)
        params = desk_params()
        trials, seed = 60, 99
        report = run_experiment(ch, design, params, trials, seed)

        uy, vz = build_classical_joints(ch, design)
        res_b = classical_i0(uy, params.eps0, method="greedy")
        res_c = classical_i0(vz, params.eps0, method="greedy")
        a1 = np.zeros(uy.shape, dtype=bool)
        for u, y in res_b.witness["cells"]:
            a1[uy.row_labels.index(u), uy.col_labels.index(y)] = True
        a2 = np.zeros(vz.shape, dtype=bool)
        for v, z in res_c.witness["cells"]:
            a2[vz.row_labels.index(v), vz.col_labels.index(z)] = True
        evaluator = ClassicalSetEvaluator(ch, design, a1, a2)
        mem_b, mem_c = set_membership(a1), set_membership(a2)
        sampler = ProductClassicalChannel(ch, 1)

        counts = {k: 0 for k in event_counts(report)}
        for t in range(trials):
            key = mix64(seed, t)
            cb = generate_codebook(design, params, key, 1)
            u = SeededRng(key, 101).random(2)
            m1 = min(int(u[0] * 2), 1)
            m2 = min(int(u[1] * 2), 1)
            out = encode_per_trial(cb, m1, m2, evaluator, params.eps0)
            y, z = sampler.sample_outputs(out.x_word[None], SeededRng(key, 102).random((1, 1)))
            rb = decode_rows(cb, y, mem_b).matched
            rc = decode_cols(cb, z, mem_c).matched
            if out.fallback:
                counts["e1"] += 1
            else:
                counts["e2b"] += 0 if np.isin(out.row, rb) else 1
                counts["e2c"] += 0 if np.isin(out.col, rc) else 1
                counts["e3b"] += 1 if np.any(rb != out.row) else 0
                counts["e3c"] += 1 if np.any(rc != out.col) else 0
            # a side decodes to the band of its first match, or to message 0
            # without one, and to an index only where one word matches
            msg_b = rb[0] >> params.r1 if rb.size else 0
            msg_c = rc[0] >> params.r2 if rc.size else 0
            msg_wrong = msg_b != m1 or msg_c != m2
            idx_wrong = rb.tolist() != [out.row] or rc.tolist() != [out.col]
            counts["message_error"] += 1 if (out.fallback or msg_wrong) else 0
            counts["index_error"] += 1 if (out.fallback or idx_wrong) else 0
        assert counts == event_counts(report)

    def test_no_violations_and_bounds_attached(self):
        ch = bsc_pair_channel(0.1, 0.1)
        report = run_experiment(ch, pair_design(DSBS_45), desk_params(), 300, seed=42)
        assert not report.any_violation
        # tiny divergence budgets cannot carry the band constraints
        assert not report.theorem_valid
        assert event_of(report, "e1").bound_name == "e1 formula"
        assert event_of(report, "e2b").bound == pytest.approx(0.4)
        assert event_of(report, "message_error").bound is None
        assert event_of(report, "index_error").bound_name is None

    def test_achieved_recorded(self):
        ch = bsc_pair_channel(0.1, 0.1)
        report = run_experiment(ch, pair_design(DSBS_45), desk_params(), 20, seed=1)
        assert report.achieved["i0b"] == pytest.approx(1.0)
        assert report.achieved["i_infty"] == pytest.approx(math.log2(1.8))
        assert report.scheme["kind"] == "classical-set"
        assert report.scheme["a1_mass"] == pytest.approx(0.9)

    def test_fixed_codebook_mode(self):
        ch = bsc_pair_channel(0.1, 0.1)
        a = run_experiment(ch, pair_design(DSBS_45), desk_params(), 100, seed=7,
                           resample_codebook=False)
        b = run_experiment(ch, pair_design(DSBS_45), desk_params(), 100, seed=7,
                           resample_codebook=False)
        assert a.codebook_digest is not None
        assert a.codebook_digest == b.codebook_digest
        assert event_counts(a) == event_counts(b)
        c = run_experiment(ch, pair_design(DSBS_45), desk_params(), 100, seed=7)
        assert c.codebook_digest is None

    def test_i0b_above_achieved_rejected(self):
        ch = bsc_pair_channel(0.1, 0.1)
        with pytest.raises(ValidationError, match="exceeds the achieved"):
            run_experiment(ch, pair_design(DSBS_45), desk_params(i0b=1.5), 10, seed=0)

    def test_i_infty_below_achieved_rejected(self):
        ch = bsc_pair_channel(0.1, 0.1)
        with pytest.raises(ValidationError, match="below the achieved"):
            run_experiment(ch, pair_design(DSBS_45), desk_params(i_infty=0.5), 10, seed=0)


class TestBlockClassical:
    def test_noiseless_run_is_errorless(self):
        ch = bsc_pair_channel(0.0, 0.0)
        report = run_experiment(ch, independent_design(), block_params(),
                                150, seed=5, n=25)
        assert report.theorem_valid
        assert all(hits == 0 for hits in event_counts(report).values())
        assert not report.any_violation
        assert report.scheme["kind"] == "classical-threshold"
        assert report.scheme["tau1"] == pytest.approx(25.0)

    def test_theorem_bound_names(self):
        ch = bsc_pair_channel(0.0, 0.0)
        report = run_experiment(ch, independent_design(), block_params(),
                                30, seed=5, n=25)
        assert event_of(report, "e1").bound_name == "min(e1 formula, 36*eps_tilde)"
        assert event_of(report, "e3b").bound_name == "min(e3 chain, eps_tilde)"
        # 37 eps_tilde + 8 eps0 exceeds 1, so the reported bound clamps
        assert event_of(report, "message_error").bound == 1.0

    def test_replay_identical(self):
        ch = bsc_pair_channel(0.05, 0.05)
        params = block_params(i0b=13.5, i0c=13.5, r1=5, r2=4,
                              eps0=0.05, eps_tilde=1 / 8)
        a = run_experiment(ch, independent_design(), params, 40, seed=13, n=25)
        b = run_experiment(ch, independent_design(), params, 40, seed=13, n=25)
        assert event_counts(a) == event_counts(b)


class TestQuantumDesk:
    def test_replay_identical(self):
        ch = qubit_cq_channel()
        design = independent_design()
        i0b = quantum_i0_cq((0.5, 0.5), [ch.rho_b("00"), ch.rho_b("10")], 0.05).value
        i0c = quantum_i0_cq((0.5, 0.5), [ch.rho_c("00"), ch.rho_c("01")], 0.05).value
        params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=1 / 8, eps0=0.05,
                            eps_infty=0.25, i0b=i0b, i0c=i0c, i_infty=0.0)
        a = run_experiment(ch, design, params, 200, seed=31)
        b = run_experiment(ch, design, params, 200, seed=31)
        assert event_counts(a) == event_counts(b)
        assert a.setting == "quantum"
        assert set(event_counts(a)) == {"e1", "e2", "e3", "message_error", "index_error"}
        assert a.scheme["kind"] == "quantum-pgm"
        assert not a.any_violation

    def test_dead_indicator_forces_fallback(self):
        ch = qubit_cq_channel()
        params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=1 / 8, eps0=0.05,
                            eps_infty=0.25, i0b=0.2, i0c=0.2, i_infty=50.0)
        report = run_experiment(ch, independent_design(), params, 100, seed=3)
        assert event_of(report, "e1").rate == 1.0
        assert event_of(report, "e2").hits == 0
        assert event_of(report, "e3").hits == 0
        assert event_of(report, "message_error").rate == 1.0

    def test_multiletter_rejected(self):
        ch = qubit_cq_channel()
        params = desk_params(i0b=0.2, i0c=0.2, i_infty=0.0)
        with pytest.raises(ValidationError, match="single-letter"):
            run_experiment(ch, independent_design(), params, 10, seed=0, n=2)


def _scrubbed_digest(report) -> str:
    doc = report.to_json()
    doc.pop("started_at")
    doc.pop("wall_clock_s")
    return json_digest(doc)


def _qubit_point(index):
    theta, tops, rho, r1, r2, override, seed = QUBIT_POINTS[index]
    channel = _qubit_cq(theta, tops)
    design = _pair_design([[0.25 + rho, 0.25 - rho], [0.25 - rho, 0.25 + rho]])
    scheme = Scheme(channel, design, 0.05, 0.25)
    achieved = dict(scheme.achieved)
    if override is not None:
        achieved["i_infty"] = override
    return scheme, r1, r2, achieved, seed


def _recording_decoder(calls: list):
    """``coding.decode_pgm`` that keeps each call's arguments and outcomes."""
    def decode(labels, tests, states, sent, uniforms):
        out = coding.decode_pgm(labels, tests, states, sent, uniforms)
        calls.append((np.array(labels), tests, states, np.array(sent), np.array(uniforms), out))
        return out
    return decode


def _assert_decodes_match_oracle(calls: list) -> None:
    """Each recorded block against the per-trial PGM of ``conftest``: the
    probability rows are equal bit for bit and every outcome is the same."""
    for labels, tests, states, sent, uniforms, out in calls:
        rows = coding.pgm_outcome_probabilities(labels, tests, states, sent)
        assert rows.shape == (len(labels), labels.shape[1] + 1)
        for j, state in enumerate(states[x] for x in sent):
            words = labels[j][:, None]
            assert np.array_equal(rows[j], uncached_pgm_probabilities(words, tests, state))
            assert out[j] == decode_pgm_per_trial(words, tests, state, uniforms[j])


def _fixed_block(params) -> int:
    """Trials per block of a fixed-codebook run: ``_BLOCK_LETTERS`` / 16
    decoded words of the codebook's larger side."""
    return max(1, (experiments._BLOCK_LETTERS >> 4) // max(params.n_rows, params.n_cols))


def _messages(params, trials: int, seed: int) -> list:
    """Each trial's (m1, m2), from its stream 101 as ``draw_trial`` draws them."""
    n_m1, n_m2 = 1 << params.R1, 1 << params.R2
    pairs = []
    for t in range(trials):
        u = SeededRng(mix64(seed, t), 101).random(2)
        pairs.append((min(int(u[0] * n_m1), n_m1 - 1), min(int(u[1] * n_m2), n_m2 - 1)))
    return pairs


def _recording_encoder(calls: list, monkeypatch) -> None:
    """Keep the (m1, m2) pairs of each ``encode_block`` call of a run."""
    def encode(*args):
        calls.append(list(zip(args[3].tolist(), args[4].tolist())))
        return coding.encode_block(*args)
    monkeypatch.setattr(experiments, "encode_block", encode)


def _assert_block_pairs_once(calls: list, pairs: list, block: int) -> None:
    """A fixed-codebook run makes one ``encode_block`` call per block, which
    holds exactly that block's distinct pairs, each once."""
    assert [set(call) for call in calls] == [set(pairs[start:start + block])
                                             for start in range(0, len(pairs), block)]
    assert all(len(call) == len(set(call)) for call in calls)


class TestCqBlocks:
    """Blocked cq trials against the per-trial loop of ``conftest``."""

    @pytest.mark.parametrize("point", range(10))
    def test_blocks_match_per_trial_loop(self, point, monkeypatch):
        scheme, r1, r2, achieved, seed = _qubit_point(point)
        calls = []
        monkeypatch.setattr(experiments, "decode_pgm", _recording_decoder(calls))
        for resample in (True, False):
            for run_seed in (seed, 7):
                for R1, R2 in ((0, 0), (0, 2), (2, 0)):
                    params = RateParams(R1=R1, R2=R2, r1=r1, r2=r2, eps_tilde=0.125,
                                        eps0=0.05, eps_infty=0.25, **achieved)
                    for trials in (1, 37):
                        calls.clear()
                        got = scheme.run(params, trials, run_seed,
                                         resample_codebook=resample)
                        _assert_decodes_match_oracle(calls)
                        with monkeypatch.context() as m:
                            m.setattr(Scheme, "_counts", cq_counts_per_trial)
                            want = scheme.run(params, trials, run_seed,
                                              resample_codebook=resample)
                        case = (resample, run_seed, R1, R2, trials)
                        assert event_counts(got) == event_counts(want), case
                        assert _scrubbed_digest(got) == _scrubbed_digest(want), case

    @pytest.mark.parametrize("resample", [True, False])
    def test_run_over_several_blocks(self, resample, monkeypatch):
        # the point with override i_infty = 8 scans many rows per trial
        scheme, r1, r2, achieved, seed = _qubit_point(8)
        params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **achieved)
        calls = []
        monkeypatch.setattr(experiments, "_BLOCK_LETTERS", 7 * (params.n_rows + params.n_cols))
        _recording_encoder(calls, monkeypatch)
        got = scheme.run(params, 37, seed, resample_codebook=resample)
        if resample:
            assert [len(call) for call in calls] == [7] * 5 + [2]
        else:
            assert 37 // _fixed_block(params) > 1
            _assert_block_pairs_once(calls, _messages(params, 37, seed), _fixed_block(params))
        monkeypatch.setattr(Scheme, "_counts", cq_counts_per_trial)
        want = scheme.run(params, 37, seed, resample_codebook=resample)
        assert event_counts(got) == event_counts(want)
        assert _scrubbed_digest(got) == _scrubbed_digest(want)

    # a cq trial has three short streams (101, 103, 104); the last case is the
    # smallest block at first_uniforms' cut-over, then a one-trial block below it
    @pytest.mark.parametrize("block, trials", [
        (1, 13), (7, 37), (200, 437),
        (-(-_ARRAY_PASS_STREAMS // 3), -(-_ARRAY_PASS_STREAMS // 3) + 1)])
    def test_decoder_blocks_match_per_trial_decoder(self, block, trials, monkeypatch):
        scheme, r1, r2, achieved, seed = _qubit_point(3)
        params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **achieved)
        monkeypatch.setattr(experiments, "_BLOCK_LETTERS",
                            block * (params.n_rows + params.n_cols))
        calls = []
        monkeypatch.setattr(experiments, "decode_pgm", _recording_decoder(calls))
        got = scheme.run(params, trials, seed)
        sizes = [min(block, trials - start) for start in range(0, trials, block)]
        # one call per side and block, Bob's first
        assert [len(call[0]) for call in calls] == [size for size in sizes for _ in "bc"]
        _assert_decodes_match_oracle(calls)
        monkeypatch.setattr(Scheme, "_counts", cq_counts_per_trial)
        want = scheme.run(params, trials, seed)
        assert event_counts(got) == event_counts(want)
        assert _scrubbed_digest(got) == _scrubbed_digest(want)

    def test_completion_outcome_is_a_message_error(self, monkeypatch):
        # Bob's tests all on |0>: S has no support on |1>, so a state with
        # weight there sometimes ends in the completion outcome
        scheme, r1, r2, achieved, seed = _qubit_point(2)
        params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **achieved)
        calls = []
        monkeypatch.setattr(experiments, "decode_pgm", _recording_decoder(calls))
        on_zero = np.array([np.diag([1.0, 0.0])] * len(scheme.bob_tests), dtype=complex)
        monkeypatch.setattr(scheme, "bob_tests", on_zero)
        got = scheme.run(params, 200, seed)
        _assert_decodes_match_oracle(calls)
        fired = calls[0][5] == params.n_rows
        assert 0 < fired.sum() < 200
        with monkeypatch.context() as m:
            m.setattr(Scheme, "_counts", cq_counts_per_trial)
            assert event_counts(scheme.run(params, 200, seed)) == event_counts(got)
        # with no support at all the completion fires in every trial, and
        # every trial errs in its message and in its index
        monkeypatch.setattr(scheme, "bob_tests", np.zeros_like(on_zero))
        calls.clear()
        counts = event_counts(scheme.run(params, 200, seed))
        assert np.all(calls[0][5] == params.n_rows)
        assert counts["message_error"] == counts["index_error"] == 200
        assert counts["e2"] == 200 - counts["e1"]

    @pytest.mark.parametrize("joint", [np.full((2, 2), 0.25), DSBS_45])
    def test_encode_block_matches_encode_at_n_6(self, joint):
        # word arrays of any blocklength, with the llr-threshold evaluator
        design, n = pair_design(joint), 6
        scheme = Scheme(bsc_pair_channel(0.05, 0.05), design, 0.05, 0.25, n=n)
        params = RateParams(R1=1, R2=1, r1=4, r2=3, eps_tilde=1 / 8, eps0=0.05,
                            eps_infty=0.25, **scheme.achieved)
        keys = [mix64(3, t) for t in range(40)]
        m1, m2 = np.arange(40) % 2, np.arange(40) // 2 % 2
        rows, cols = coding.codebook_block(design, params, keys, n)
        row, col, x = coding.encode_block(rows, cols, keys, m1, m2, params,
                                          llr_table(design.joint), scheme.evaluator)
        for j, key in enumerate(keys):
            cb = generate_codebook(design, params, key, n)
            assert np.array_equal(cb.rows, rows[j]) and np.array_equal(cb.cols, cols[j])
            out = encode_per_trial(cb, int(m1[j]), int(m2[j]), scheme.evaluator, 0.05)
            assert (row[j], col[j]) == ((-1, -1) if out.fallback else (out.row, out.col))
            assert np.array_equal(x[j], out.x_word)


class TestClassicalBlocks:
    """Blocked classical trials against the per-trial loop of ``conftest``."""

    @pytest.mark.parametrize("case", ["desk", "n=4", "n=4 -inf"])
    @pytest.mark.parametrize("resample", [True, False])
    @pytest.mark.parametrize("block", [1, 7, 37])
    def test_blocks_match_per_trial_loop(self, case, resample, block, monkeypatch):
        # desk: explicit sets at n = 1; n=4: llr thresholds, with -inf cells
        # in Bob's table for "n=4 -inf"
        channel, design, n, params = _case(case)
        scheme = Scheme(channel, design, params.eps0, params.eps_infty, n=n)
        monkeypatch.setattr(experiments, "_BLOCK_LETTERS",
                            block * (params.n_rows + params.n_cols) * n)
        calls = []
        _recording_encoder(calls, monkeypatch)
        got = scheme.run(params, 37, 11, resample_codebook=resample)
        if resample:
            assert [len(call) for call in calls] == [min(block, 37 - start)
                                                     for start in range(0, 37, block)]
        else:
            # a fixed codebook's blocks follow its own rule: 1, 3 and 18
            # trials (n = 4), 1, 1 and 4 (desk)
            _assert_block_pairs_once(calls, _messages(params, 37, 11), _fixed_block(params))
        assert sum(event_counts(got).values()) > 0
        monkeypatch.setattr(Scheme, "_counts", classical_counts_per_trial)
        want = scheme.run(params, 37, 11, resample_codebook=resample)
        assert event_counts(got) == event_counts(want)
        assert _scrubbed_digest(got) == _scrubbed_digest(want)

    @pytest.mark.parametrize("resample", [True, False])
    def test_letter_indicators_built_once_per_codebook(self, resample, monkeypatch):
        # a fixed codebook builds each side's indicators once for the run,
        # a fresh one once for its own trial
        channel, design, n, params = _case("n=4")
        scheme = Scheme(channel, design, params.eps0, params.eps_infty, n=n)
        monkeypatch.setattr(experiments, "_BLOCK_LETTERS", 7 * (params.n_rows + params.n_cols) * n)
        built = []
        original = coding.letter_indicators
        monkeypatch.setattr(coding, "letter_indicators",
                            lambda words, letters: built.append(len(words)) or
                            original(words, letters))
        scheme.run(params, 37, 11, resample_codebook=resample)
        assert built == [params.n_rows, params.n_cols] * (37 if resample else 1)

    @pytest.mark.parametrize("r1, letters", [(2, "patched"), (12, "default")])
    def test_fixed_codebook_decode_blocks_within_the_cap(self, r1, letters, monkeypatch):
        # n = 4 threshold decoding; patched to three trials' worth of words,
        # and at the default, where 2^13 rows give blocks of 8 trials
        channel, design, n, params = _case("n=4")
        params = dataclasses.replace(params, r1=r1)
        scheme = Scheme(channel, design, params.eps0, params.eps_infty, n=n)
        if letters == "patched":
            monkeypatch.setattr(experiments, "_BLOCK_LETTERS",
                                16 * 3 * max(params.n_rows, params.n_cols))
        cap = _fixed_block(params)
        assert cap == {"patched": 3, "default": 8}[letters]
        sizes = {"rows": [], "cols": []}
        for side, decode in (("rows", decode_rows), ("cols", decode_cols)):
            monkeypatch.setattr(experiments, f"decode_{side}",
                                lambda cb, received, mem, side=side, decode=decode:
                                sizes[side].append(len(received)) or decode(cb, received, mem))
        got = scheme.run(params, 37, 11, resample_codebook=False)
        for side_sizes in sizes.values():
            assert len(side_sizes) > 1 and max(side_sizes) <= cap and sum(side_sizes) == 37
        monkeypatch.setattr(Scheme, "_counts", classical_counts_per_trial)
        want = scheme.run(params, 37, 11, resample_codebook=False)
        assert event_counts(got) == event_counts(want)
        assert _scrubbed_digest(got) == _scrubbed_digest(want)

    def test_no_match_decodes_to_message_0(self, monkeypatch):
        # Bob's set is empty, so no row ever matches and Bob decodes message 0
        channel, design, n, params = _case("desk")
        scheme = Scheme(channel, design, params.eps0, params.eps_infty, n=n)
        monkeypatch.setattr(scheme, "mem_b", set_membership(np.zeros(scheme.mem_b.llr.shape, bool)))
        got = event_counts(scheme.run(params, 200, 5))
        assert got["e2b"] == 200 - got["e1"] and got["index_error"] == 200
        # right where m1 = 0 and all else goes well
        assert 0 < got["message_error"] < 200
        monkeypatch.setattr(Scheme, "_counts", classical_counts_per_trial)
        assert event_counts(scheme.run(params, 200, 5)) == got

    def test_threshold_scan_stops_at_first_pass(self, monkeypatch):
        # under independent inputs every cell survives rejection, so a scan
        # that went past a trial's first passing cell would ask for more
        channel, design, n, params = _case("n=4")
        scheme = Scheme(channel, design, params.eps0, params.eps_infty, n=n)
        asked = []
        original = coding.ClassicalThresholdEvaluator.alpha_beta

        def counting(ev, row_word, col_word):
            asked.append((row_word.tobytes(), col_word.tobytes()))
            return original(ev, row_word, col_word)

        monkeypatch.setattr(coding.ClassicalThresholdEvaluator, "alpha_beta", counting)
        scheme.run(params, 40, 3)
        got, asked[:] = sorted(asked), []
        classical_counts_per_trial(scheme, params, 40, 3, None)
        assert got == sorted(asked)
        scanned = sum(draw_trial(scheme, params, t, 3, None)[4].scanned
                      for t in range(40))
        assert len(got) < scanned


class TestEventClassification:
    """Each setting's decoded words read as that setting's decoder means them.

    Two trials per case, with 2^3 words per side in two bands of four: the
    first sends messages (0, 0) as cell (1, 2), the second (1, 0) as (5, 2).
    """

    params = desk_params(r1=2, r2=2)
    m1, m2 = np.array([0, 1]), np.array([0, 0])
    sent = np.array([[1, 5], [2, 2]])

    def hits(self, classical, first, count):
        first, count = np.array(first), np.array(count)
        hit = np.array([[self.sent[s, j] in range(first[s, j], first[s, j] + count[s, j])
                         for j in range(2)] for s in range(2)])
        return experiments._event_hits(classical, self.params, self.m1, self.m2, self.sent,
                                       first, count, hit)

    def test_classical_no_match_decodes_to_message_0(self):
        # no row matches in either trial: message 0 is right in the first only
        assert self.hits(True, [[0, 0], [2, 2]], [[0, 0], [1, 1]]) == [0, 2, 0, 0, 0, 1, 2]

    def test_cq_completion_decodes_to_no_message(self):
        # the completion outcome 8 lies in no message's band
        assert self.hits(False, [[8, 8], [2, 2]], [[0, 0], [1, 1]]) == [0, 2, 0, 2, 2]

    def test_first_match_gives_band_and_only_match_gives_index(self):
        # rows 1 and 2 match in the first trial: its message is right, its
        # index is not, and row 2 is a confusion; the second decodes rows 4-6
        assert self.hits(True, [[1, 4], [2, 2]], [[2, 3], [1, 1]]) == [0, 0, 0, 2, 0, 0, 2]
        assert self.hits(False, [[1, 5], [2, 3]], [[1, 1], [1, 1]]) == [0, 0, 1, 0, 1]

    def test_fallback_counts_e1_and_both_errors(self):
        sent = self.sent.copy()
        sent[:, 1] = -1
        hits = experiments._event_hits(True, self.params, self.m1, self.m2, sent,
                                       np.array([[1, 0], [2, 0]]), np.ones((2, 2), dtype=int),
                                       np.array([[True, False], [True, False]]))
        assert hits == [1, 0, 0, 0, 0, 1, 1]


class TestEventRows:
    """Quantum event rows with and without the theorem's caps.  No qubit run
    reaches ``theorem_valid``, since a qubit's i0b lies far below the band
    budget, so the capped rows are pinned here; the expected values were
    recorded before the bounds became a dict."""

    # chains: e1 2^-13 + 2^-2 + 2^-6, e2 8*eps0 + 2^(25 - 1 - 40), e3 8*eps0 + 2^(29 - 1 - 30)
    params = RateParams(R1=1, R2=1, r1=6, r2=10, eps_tilde=2.0**-8, eps0=0.01,
                        eps_infty=0.25, i0b=40.0, i0c=30.0, i_infty=1.0)
    counts = {"e1": 1, "e2": 2, "e3": 20, "message_error": 40, "index_error": 5}

    def rows(self, theorem_valid):
        bounds = event_bounds(self.params, "quantum")
        rows = experiments._event_rows("quantum", self.counts, 50, bounds, theorem_valid)
        return [(r.name, r.bound, r.bound_name, r.violation) for r in rows]

    def test_theorem_forms_cap_the_chains(self):
        assert self.rows(True) == [
            ("e1", 0.140625, "min(e1 formula, 36*eps_tilde)", False),
            ("e2", 0.0800152587890625, "min(e2 chain, 8*eps0 + 2*eps_tilde)", False),
            ("e3", 0.0878125, "min(e3 chain, 8*eps0 + 2*eps_tilde)", True),
            ("message_error", 0.31625000000000003, "40*eps_tilde + 16*eps0", True),
            ("index_error", 0.31625000000000003, "40*eps_tilde + 16*eps0", False)]

    def test_chains_alone_without_the_theorem(self):
        assert self.rows(False) == [
            ("e1", 0.2657470703125, "e1 formula", False),
            ("e2", 0.0800152587890625, "e2 chain", False),
            ("e3", 0.33, "e3 chain", False),
            ("message_error", None, None, False),
            ("index_error", None, None, False)]


def _partial_design():
    """A design whose map is undefined on its zero-mass pair (0, 1)."""
    joint = JointPmf(("0", "1"), ("0", "1"), np.array([[0.5, 0.0], [0.25, 0.25]]))
    return InputDesign(joint, {("0", "0"): "00", ("1", "0"): "10", ("1", "1"): "11"})


def _encode_per_trial(codebooks, m1, m2, evaluator, eps0):
    """``encode_per_trial`` on each trial's codebook, as ``encode_block``
    returns it: (row, col, x), with -1 where a trial falls back."""
    outs = [encode_per_trial(cb, int(a), int(b), evaluator, eps0)
            for cb, a, b in zip(codebooks, m1, m2)]
    row = [-1 if out.fallback else out.row for out in outs]
    col = [-1 if out.fallback else out.col for out in outs]
    return np.array(row), np.array(col), np.array([out.x_word for out in outs])


class StreamSpy:
    """Records the rejection rows ``encode_block`` draws, one (key, row,
    first output) triple per row, at ``coding.stream_uniforms``, as
    ``DrawSpy`` of test_prob records ``first_uniforms``."""

    def __init__(self, monkeypatch):
        self.rows = []
        draw = coding.stream_uniforms

        def recorded(out, keys, stream_ids, firsts):
            self.rows += zip(keys, stream_ids, firsts)
            return draw(out, keys, stream_ids, firsts)

        monkeypatch.setattr(coding, "stream_uniforms", recorded)


def _searched_rows(args, row) -> dict:
    """The rows an ``encode_block`` call with arguments ``args`` and chosen
    rows ``row`` searched, keyed by (key, row, first output), each with the
    cell acceptances and pass flags of its band: every row offset up to the
    chosen row, or the whole band where the trial fell back.  Acceptances
    and passes are looked up one cell at a time."""
    rows, cols, seeds, m1, m2, params, log_ratio, ev = args
    w1, w2, thr = 1 << params.r1, 1 << params.r2, 1.0 - 4.0 * params.eps0
    searched = {}
    for j, seed in enumerate(seeds):
        key, l0 = mix64(seed, 3), int(m2[j]) * w2
        last = int(row[j]) if row[j] >= 0 else (int(m1[j]) + 1) * w1 - 1
        for k in range(int(m1[j]) * w1, last + 1):
            accept, passes = [], []
            for l in range(l0, l0 + w2):
                s = sum(log_ratio[a, b] for a, b in zip(rows[j, k], cols[j, l]))
                accept.append(2.0 ** min(s - params.i_infty, 0.0))
                if isinstance(ev, coding.ClassicalThresholdEvaluator):
                    passes.append(None)
                else:
                    alpha, beta = ev.alpha_beta(rows[j, k], cols[j, l])
                    passes.append(bool(alpha[0] > thr and beta[0] > thr))
            searched.setdefault((key, k, l0), []).append((accept, passes))
    return searched


def _rule_rows(searched) -> tuple:
    """All searched rows, which a scan that draws every row draws, and the
    rows the draw rule keeps, as multisets of (key, row, first output): a
    row draws when a cell of acceptance below 1 comes before its first cell
    of acceptance 1 that passes, on the llr-threshold path anywhere in it."""
    parent, rule = Counter(), Counter()
    for triple, bands in searched.items():
        for accept, passes in bands:
            parent[triple] += 1
            sure = [a == 1.0 and p is True for a, p in zip(accept, passes)]
            first = sure.index(True) if True in sure else len(sure)
            rule[triple] += any(a < 1.0 for a in accept[:first])
    return parent, +rule


class TestEncodeBlockTables:
    """The table evaluators' one-lookup-per-offset scan against per-trial ``encode``."""

    # qubit points by acceptance pattern: every pair at 1 (points 0-4,
    # "quantum"), the diagonal at 1 and the rest below (5-7), every pair
    # below 1 under an i_infty override (8-9); every pair passes the threshold
    QUBIT_KINDS = {"quantum": 3, "quantum mixed": 6, "quantum below 1": 8}

    @classmethod
    def _case(cls, kind):
        if kind == "set":
            # the desk config: explicit sets at n = 1
            scheme = Scheme(bsc_pair_channel(0.1, 0.1), pair_design(DSBS_45), 0.1, 0.25)
            return scheme, desk_params()
        scheme, r1, r2, achieved, _ = _qubit_point(cls.QUBIT_KINDS[kind])
        return scheme, RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=0.125, eps0=0.05,
                                  eps_infty=0.25, **achieved)

    @staticmethod
    def _block(design, params, keys, resample, n=1):
        """Word arrays, seeds and per-trial codebooks of a block."""
        if resample:
            rows, cols = coding.codebook_block(design, params, keys, n)
            codebooks = [generate_codebook(design, params, key, n) for key in keys]
            return rows, cols, keys, codebooks
        cb = generate_codebook(design, params, mix64(keys[0], 0xC0DEB00C), n)
        rows = np.broadcast_to(cb.rows, (len(keys),) + cb.rows.shape)
        cols = np.broadcast_to(cb.cols, (len(keys),) + cb.cols.shape)
        return rows, cols, [cb.seed] * len(keys), [cb] * len(keys)

    def _args(self, kind, resample, block):
        """encode_block's arguments for ``block`` trials of ``kind``, and the
        trials' codebooks."""
        scheme, params = self._case(kind)
        keys = [mix64(block, t) for t in range(block)]
        picks = np.random.default_rng(block)
        m1 = picks.integers(1 << params.R1, size=block)
        m2 = picks.integers(1 << params.R2, size=block)
        rows, cols, seeds, codebooks = self._block(scheme.design, params, keys, resample)
        return (rows, cols, seeds, m1, m2, params, llr_table(scheme.design.joint),
                scheme.evaluator), codebooks

    @pytest.mark.parametrize("kind", ["set", "quantum", "quantum mixed", "quantum below 1"])
    @pytest.mark.parametrize("resample", [True, False])
    @pytest.mark.parametrize("block", [1, 7, 200])
    def test_matches_encode(self, kind, resample, block):
        # encode_per_trial draws every row through Codebook.indicator
        args, codebooks = self._args(kind, resample, block)
        got = coding.encode_block(*args)
        want = _encode_per_trial(codebooks, *args[3:5], args[7], args[5].eps0)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)
            assert g.dtype == np.int64

    @pytest.mark.parametrize("kind", ["quantum", "quantum mixed", "quantum below 1"])
    @pytest.mark.parametrize("resample", [True, False])
    def test_rows_draw_by_the_rule(self, kind, resample, monkeypatch):
        args, _ = self._args(kind, resample, 200)
        params, log_ratio = args[5], args[6]
        accept = np.exp2(np.minimum(log_ratio - params.i_infty, 0.0))
        ones = {"quantum": 4, "quantum mixed": 2, "quantum below 1": 0}[kind]
        assert np.count_nonzero(accept == 1.0) == ones
        spy = StreamSpy(monkeypatch)
        row = coding.encode_block(*args)[0]
        parent, rule = _rule_rows(_searched_rows(args, row))
        assert Counter(spy.rows) == rule
        if kind == "quantum":
            assert not rule
        elif kind == "quantum below 1":
            assert rule == parent
        else:
            assert rule and rule != parent

    def test_band_view_of_a_fixed_codebook_shares_its_memory(self):
        # the view encode_block reads the column bands through
        scheme, params = self._case("quantum")
        rows, cols, _, _ = self._block(scheme.design, params, [1] * 200, False)
        bands = cols.reshape(200, -1, 1 << params.r2, cols.shape[2])
        assert bands.strides[0] == 0 and np.shares_memory(bands, cols)
        assert np.array_equal(bands[199, 1], cols[0, 1 << params.r2:2 << params.r2])

    @staticmethod
    def _gated_evaluator(kind):
        """A table evaluator under the DSBS_45 design whose alpha clears
        1 - 4 * 0.01 on the row letter 1 only (it is 0.9 on the letter 0),
        so about half the surviving cells fail the threshold."""
        design = pair_design(DSBS_45)
        if kind == "set":
            # Bob's set keeps both outputs of u = 1 but only y = 0 of u = 0
            return ClassicalSetEvaluator(bsc_pair_channel(0.1, 0.1), design,
                                         np.array([[1, 0], [1, 1]], bool), np.ones((2, 2), bool))
        return QuantumPairEvaluator(qubit_cq_channel(), design,
                                    [0.9 * np.eye(2), np.eye(2)], [np.eye(2)] * 2)

    def _gated_block(self, ev, resample, seed=9):
        """encode_block's arguments for 200 trials under the gated evaluator
        ``ev``, and the trials' codebooks."""
        design = pair_design(DSBS_45)
        # i_infty 0.85 accepts the diagonal pairs with probability 0.9986 and
        # the others with 0.11
        params = desk_params(eps0=0.01)
        keys = [mix64(seed, t) for t in range(200)]
        picks = np.random.default_rng(seed)
        m1 = picks.integers(1 << params.R1, size=200)
        m2 = picks.integers(1 << params.R2, size=200)
        rows, cols, seeds, codebooks = self._block(design, params, keys, resample)
        return (rows, cols, seeds, m1, m2, params, llr_table(design.joint), ev), codebooks

    @pytest.mark.parametrize("kind", ["set", "quantum"])
    @pytest.mark.parametrize("resample", [True, False])
    def test_cells_failing_the_threshold_are_skipped(self, kind, resample):
        # a fixed codebook encodes four message pairs, so it takes several
        found_cells = skipped = 0
        for seed in range(1 if resample else 8):
            args, codebooks = self._gated_block(self._gated_evaluator(kind), resample, seed)
            rows, _, _, m1, m2, params, _, ev = args
            got = coding.encode_block(*args)
            for g, w in zip(got, _encode_per_trial(codebooks, m1, m2, ev, params.eps0)):
                assert np.array_equal(g, w)
            # every chosen cell has row letter 1; count the cells before it
            # that survived rejection but failed the threshold
            row, col = got[0], got[1]
            found = np.flatnonzero(row >= 0)
            assert (rows[found, row[found], 0] == 1).all()
            found_cells += found.size
            for j in found:
                cb, k, l = codebooks[j], int(row[j]), int(col[j])
                l0 = int(m2[j]) << params.r2
                for kk in range(int(m1[j]) << params.r1, k + 1):
                    alive = cb.indicator(kk, l0, l0 + (1 << params.r2))
                    skipped += int(alive[:l - l0 if kk == k else None].sum())
        assert found_cells and skipped

    @pytest.mark.parametrize("kind", ["set", "quantum"])
    def test_one_alpha_beta_call_per_block(self, kind, monkeypatch):
        ev = self._gated_evaluator(kind)
        args, _ = self._gated_block(ev, True)
        calls = []
        original = type(ev).alpha_beta

        def counting(self, row_word, col_word):
            calls.append(len(row_word))
            return original(self, row_word, col_word)

        monkeypatch.setattr(type(ev), "alpha_beta", counting)
        row = coding.encode_block(*args)[0]
        # the trials stop at several row offsets, yet the evaluator is asked
        # once, for every pair with an input
        assert len(set((row[row >= 0] % 4).tolist())) > 1
        assert calls == [int((ev.fx >= 0).sum())]

    @pytest.mark.parametrize("resample", [True, False])
    def test_undefined_pair_run_matches_per_trial_loop(self, resample, monkeypatch):
        scheme = Scheme(qubit_cq_channel(), _partial_design(), 0.05, 0.25)
        assert (scheme.evaluator.fx < 0).any()
        params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **scheme.achieved)
        got = scheme.run(params, 200, 4, resample_codebook=resample)
        monkeypatch.setattr(Scheme, "_counts", cq_counts_per_trial)
        want = scheme.run(params, 200, 4, resample_codebook=resample)
        assert event_counts(got) == event_counts(want)
        assert _scrubbed_digest(got) == _scrubbed_digest(want)

    def test_undefined_pair_raises_where_encode_does(self, monkeypatch):
        # with every llr at 0 and i_infty 0 every cell survives, so cells of
        # the undefined pair are reached: encode raises when one comes
        # before the first passing cell of its trial, and only then
        design = _partial_design()
        scheme = Scheme(qubit_cq_channel(), design, 0.05, 0.25)
        params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **dict(scheme.achieved, i_infty=0.0))
        zero = np.zeros((2, 2))
        # the table each per-trial codebook computes on first use
        monkeypatch.setattr(coding, "llr_table", lambda joint: zero)
        keys = [mix64(5, t) for t in range(40)]
        m1, m2 = np.arange(40) % 2, np.arange(40) // 2 % 2
        rows, cols, seeds, codebooks = self._block(design, params, keys, True)
        message = "input map undefined for a sampled pair"
        fx, outcomes = scheme.evaluator.fx, []
        for j in range(40):
            one = slice(j, j + 1)
            args = (rows[one], cols[one], seeds[one], m1[one], m2[one], params, zero,
                    scheme.evaluator)
            try:
                want = _encode_per_trial(codebooks[one], m1[one], m2[one], scheme.evaluator, 0.05)
            except ValidationError as e:
                assert str(e) == message
                with pytest.raises(ValidationError, match=f"^{message}$"):
                    coding.encode_block(*args)
                outcomes.append("raised")
                continue
            got = coding.encode_block(*args)
            for g, w in zip(got, want):
                assert np.array_equal(g, w)
            # the block also looks up the cells after a trial's first pass,
            # and one of them may have an undefined pair
            k, l = int(got[0][0]), int(got[1][0])
            if k < 0:
                outcomes.append("fell back")
                continue
            rest = cols[j, l + 1:(int(m2[j]) + 1) << params.r2, 0]
            outcomes.append("undefined after" if (fx[rows[j, k, 0], rest] < 0).any() else "found")
        assert {"raised", "undefined after"} <= set(outcomes)
        # the whole block raises as soon as one trial would
        with pytest.raises(ValidationError, match="undefined"):
            coding.encode_block(rows, cols, seeds, m1, m2, params, zero, scheme.evaluator)


    def test_undefined_pair_of_acceptance_one_raises_undrawn(self, monkeypatch):
        # the set-up above: every cell, the undefined pair's too, has
        # acceptance 1, so no row draws; a trial whose undefined pair comes
        # before its first pass still raises
        design = _partial_design()
        scheme = Scheme(qubit_cq_channel(), design, 0.05, 0.25)
        params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **dict(scheme.achieved, i_infty=0.0))
        keys = [mix64(5, t) for t in range(40)]
        rows, cols = coding.codebook_block(design, params, keys)
        spy = StreamSpy(monkeypatch)
        with pytest.raises(ValidationError, match="^input map undefined for a sampled pair$"):
            coding.encode_block(rows, cols, keys, np.arange(40) % 2, np.arange(40) // 2 % 2,
                                params, np.zeros((2, 2)), scheme.evaluator)
        assert spy.rows == []

    def test_fixed_codebook_runs_raise_and_fall_back_by_pair(self, monkeypatch):
        # whole runs in the set-up above: every llr at 0, so the cells of the
        # undefined pair survive rejection as often as any other.  A run keeps
        # i_infty at its achieved value, whose rejections, with two words per
        # band, leave some band pairs without a passing cell
        design = _partial_design()
        scheme = Scheme(qubit_cq_channel(), design, 0.05, 0.25)
        params = RateParams(R1=1, R2=1, r1=1, r2=1, eps_tilde=0.125, eps0=0.05,
                            eps_infty=0.25, **scheme.achieved)
        zero = np.zeros((2, 2))
        monkeypatch.setattr(coding, "llr_table", lambda joint: zero)
        monkeypatch.setattr(scheme, "log_ratio", zero)
        message = "input map undefined for a sampled pair"
        outcomes = set()
        for seed in (0, 1, 51):
            cb = generate_codebook(design, params, mix64(seed, 0xC0DEB00C))
            drawn = _messages(params, 40, seed)
            # each drawn pair's fallback flag in the run's codebook, None where it raises
            fallback = {}
            for pair in set(drawn):
                try:
                    fallback[pair] = encode_per_trial(cb, *pair, scheme.evaluator, 0.05).fallback
                except ValidationError as e:
                    assert str(e) == message
                    fallback[pair] = None
            if None in fallback.values():
                for counts in (None, cq_counts_per_trial):
                    with monkeypatch.context() as m:
                        if counts is not None:
                            m.setattr(Scheme, "_counts", counts)
                        with pytest.raises(ValidationError, match=f"^{message}$"):
                            scheme.run(params, 40, seed, resample_codebook=False)
                outcomes.add("raised")
                continue
            got = scheme.run(params, 40, seed, resample_codebook=False)
            with monkeypatch.context() as m:
                m.setattr(Scheme, "_counts", cq_counts_per_trial)
                want = scheme.run(params, 40, seed, resample_codebook=False)
            assert event_counts(got) == event_counts(want)
            assert _scrubbed_digest(got) == _scrubbed_digest(want)
            # e1 counts every trial that draws a pair which falls back
            assert event_counts(got)["e1"] == sum(fallback[pair] for pair in drawn)
            outcomes.add("fell back" if any(fallback.values()) else "found")
        assert outcomes == {"raised", "fell back", "found"}


class TestEncodeBlockThreshold:
    """The llr-threshold path's draw rule against per-trial ``encode``: pass
    or fail is known only after ``alpha_beta``, so a row draws when any of
    its cells has acceptance below 1."""

    # (joint, i_infty override) at n = 4: independent inputs put every cell
    # at acceptance 1, DSBS_45 at its achieved i_infty mixes 1 and below 1,
    # and at i_infty 40 every cell lies below 1
    PATTERNS = {"all 1": (np.full((2, 2), 0.25), None), "mixed": (DSBS_45, None),
                "all below 1": (DSBS_45, 40.0)}

    def _pattern_block(self, pattern, resample, block):
        joint, i_infty = self.PATTERNS[pattern]
        design = pair_design(joint)
        scheme = Scheme(bsc_pair_channel(0.05, 0.05), design, 0.05, 0.25, n=4)
        achieved = dict(scheme.achieved)
        if i_infty is not None:
            achieved["i_infty"] = i_infty
        params = RateParams(R1=1, R2=1, r1=2, r2=2, eps_tilde=1 / 8, eps0=0.05,
                            eps_infty=0.25, **achieved)
        keys = [mix64(88 + block, t) for t in range(block)]
        picks = np.random.default_rng(block)
        m1, m2 = picks.integers(2, size=(2, block))
        rows, cols, seeds, codebooks = TestEncodeBlockTables._block(design, params, keys,
                                                                    resample, n=4)
        return (rows, cols, seeds, m1, m2, params, llr_table(design.joint),
                scheme.evaluator), codebooks

    @pytest.mark.parametrize("pattern", ["all 1", "mixed", "all below 1"])
    @pytest.mark.parametrize("resample", [True, False])
    @pytest.mark.parametrize("block", [1, 7, 40])
    def test_draw_rule_matches_encode(self, pattern, resample, block):
        args, codebooks = self._pattern_block(pattern, resample, block)
        got = coding.encode_block(*args)
        for g, w in zip(got, _encode_per_trial(codebooks, *args[3:5], args[7], args[5].eps0)):
            assert np.array_equal(g, w)

    @pytest.mark.parametrize("pattern", ["all 1", "mixed", "all below 1"])
    @pytest.mark.parametrize("resample", [True, False])
    def test_rows_draw_by_the_rule(self, pattern, resample, monkeypatch):
        args, _ = self._pattern_block(pattern, resample, 40)
        spy = StreamSpy(monkeypatch)
        row = coding.encode_block(*args)[0]
        searched = _searched_rows(args, row)
        parent, rule = _rule_rows(searched)
        assert Counter(spy.rows) == rule
        accepts = [a for bands in searched.values() for accept, _ in bands for a in accept]
        ones = sum(a == 1.0 for a in accepts)
        assert {"all 1": ones == len(accepts), "mixed": 0 < ones < len(accepts),
                "all below 1": ones == 0}[pattern]
        assert rule == (Counter() if pattern == "all 1" else parent)


class TestCodebookBudget:
    """A codebook over the byte budget stops the run before anything is drawn."""

    @pytest.mark.parametrize("r1", [22, 70])
    @pytest.mark.parametrize("resample", [True, False])
    def test_cq_run_over_budget(self, no_draws, r1, resample):
        ch = qubit_cq_channel()
        scheme = Scheme(ch, independent_design(), 0.05, 0.25)
        params = RateParams(R1=1, R2=1, r1=r1, r2=2, eps_tilde=1 / 8, eps0=0.05,
                            eps_infty=0.25, **scheme.achieved)
        with pytest.raises(ValidationError, match="exceeds the budget"):
            scheme.run(params, 10, seed=1, resample_codebook=resample)

    @pytest.mark.parametrize("resample", [True, False])
    def test_classical_run_over_budget(self, no_draws, resample):
        ch = bsc_pair_channel(0.05, 0.05)
        params = block_params(i0b=13.5, i0c=13.5, r1=20, r2=4, eps0=0.05)
        with pytest.raises(ValidationError, match="exceeds the budget"):
            run_experiment(ch, independent_design(), params, 10, seed=1, n=25,
                           resample_codebook=resample)

    def test_budget_edge(self):
        # 2^23 row words and 2^3 column words of one letter: just over 2^26 bytes
        params = RateParams(R1=1, R2=1, r1=22, r2=2, eps_tilde=1 / 8, eps0=0.05,
                            eps_infty=0.25, i0b=1.0, i0c=1.0, i_infty=0.0)
        assert coding.CODEBOOK_BYTE_BUDGET == 1 << 26
        with pytest.raises(ValidationError, match="67108928 bytes"):
            coding.codebook_bytes(params, 1)
        assert coding.codebook_bytes(dataclasses.replace(params, r1=21), 1) == (
            2**22 + 2**3) * 8


class TestHarnessValidation:
    @pytest.mark.parametrize("n", [1, 2])
    def test_unknown_i0_method_rejected(self, n):
        channels = [bsc_pair_channel(0.1, 0.1)] + ([qubit_cq_channel()] if n == 1 else [])
        for ch in channels:
            with pytest.raises(ValidationError, match="i0 method"):
                Scheme(ch, independent_design(), 0.05, 0.25, n=n, i0_method="bogus")

    def test_unknown_channel_rejected(self):
        with pytest.raises(ValidationError, match="unsupported channel"):
            run_experiment(object(), independent_design(), desk_params(), 10, seed=0)

    def test_bad_trials(self):
        ch = bsc_pair_channel(0.1, 0.1)
        with pytest.raises(ValidationError):
            run_experiment(ch, pair_design(DSBS_45), desk_params(), 0, seed=0)

    def test_bad_blocklength(self):
        ch = bsc_pair_channel(0.1, 0.1)
        with pytest.raises(ValidationError):
            run_experiment(ch, pair_design(DSBS_45), desk_params(), 10, seed=0, n=0)

    @pytest.mark.parametrize("seed", [2**64 + 5, 2**64, -1])
    def test_seed_outside_64_bits_rejected(self, seed):
        # 2^64 + 5 would otherwise replay seed 5 while reporting the larger seed
        ch = bsc_pair_channel(0.1, 0.1)
        with pytest.raises(ValidationError, match="seed"):
            run_experiment(ch, pair_design(DSBS_45), desk_params(), 10, seed=seed)

    def test_largest_seed_runs(self):
        ch = bsc_pair_channel(0.1, 0.1)
        report = run_experiment(ch, pair_design(DSBS_45), desk_params(), 5, seed=2**64 - 1)
        assert report.seed == 2**64 - 1


class TestReportShape:
    def test_json_and_csv(self):
        ch = bsc_pair_channel(0.1, 0.1)
        report = run_experiment(ch, pair_design(DSBS_45), desk_params(), 25, seed=11)
        d = report.to_json()
        for key in ("setting", "params", "achieved", "scheme", "bounds",
                    "events", "theorem_valid", "any_violation", "started_at"):
            assert key in d
        assert len(d["events"]) == 7
        rows = report.to_csv_rows()
        assert len(rows) == 8
        assert rows[0][0] == "event"
        assert event_of(report, "e1").name == "e1"
        with pytest.raises(KeyError):
            event_of(report, "nope")

    def test_event_stats_json(self):
        st = EventStats("e1", 3, 10, 0.3, 0.1, 0.6, 0.5, "cap", False)
        d = st.to_json()
        assert d["name"] == "e1" and d["hits"] == 3 and d["violation"] is False

    def test_json_digest_canonical(self):
        assert json_digest({"b": 1, "a": 2}) == json_digest({"a": 2, "b": 1})
        assert json_digest({"a": 2}) != json_digest({"a": 3})
