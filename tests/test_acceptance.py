"""Top-level acceptance checks for the whole package.

Each test measures one headline capability end to end and prints a
single ``CRITERION n [PASS|FAIL]`` line with the numbers it saw, so a
full run doubles as a scoreboard.  The sixth criterion is split in
two: the convergence half passes, the strict-monotonicity half states
a property the computed sequence does not have, and the test reports
that honestly instead of loosening the assertion.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

from conftest import ACCEPTANCE_LINES, rand_joint, rand_psd, rand_hermitian
from martonlab import cli
from martonlab.analysis import (
    CoveringParams,
    covering_bound,
    event_bounds,
    iid_convergence_curve,
    synthetic_covering,
)
from martonlab.channels import (
    ClassicalBroadcastChannel,
    CqBroadcastChannel,
    InputDesign,
)
from martonlab.coding import (
    RateParams,
    encode,
    generate_codebook,
    pgm_outcome_probabilities,
    select_band_exponents,
)
from martonlab.divergences import classical_i0, classical_i_infty, quantum_i0_cq
from martonlab.experiments import Scheme, achieved_divergences, json_digest, run_experiment
from martonlab.prob import JointPmf
from martonlab.quantum import hayashi_nagaoka_check
from martonlab.rng import SeededRng, mix64

DATA = Path(__file__).parent / "data"


def _verdict(num: int, ok: bool, detail: str) -> None:
    line = f"CRITERION {num} [{'PASS' if ok else 'FAIL'}]: {detail}"
    ACCEPTANCE_LINES.append(line)
    print(line)


def _bsc_pair(p: float, q: float) -> ClassicalBroadcastChannel:
    xs = ("00", "01", "10", "11")
    probs = np.zeros((4, 2, 2))
    for i, x in enumerate(xs):
        for y in (0, 1):
            for z in (0, 1):
                probs[i, y, z] = ((1 - p) if y == int(x[0]) else p) * (
                    (1 - q) if z == int(x[1]) else q)
    return ClassicalBroadcastChannel(xs, ("0", "1"), ("0", "1"), probs)


def _pair_design(probs) -> InputDesign:
    joint = JointPmf(("0", "1"), ("0", "1"), np.asarray(probs, dtype=float))
    f = {(u, v): u + v for u in "01" for v in "01"}
    return InputDesign(joint, f)


def _qubit_cq(theta: float, kc_tops) -> CqBroadcastChannel:
    c, s = math.cos(theta), math.sin(theta)
    kb = {
        "0": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        "1": np.array([[c * c, c * s], [c * s, s * s]], dtype=complex),
    }
    a, b = kc_tops
    kc = {"0": np.diag([a, 1 - a]).astype(complex), "1": np.diag([b, 1 - b]).astype(complex)}
    xs = ("00", "01", "10", "11")
    states = [np.kron(kb[x[0]], kc[x[1]]) for x in xs]
    return CqBroadcastChannel(xs, 2, 2, states)


def _binom_sigma(bound: float, trials: int) -> float:
    return math.sqrt(max(bound * (1.0 - bound), 0.0) / trials)


def test_criterion_1_classical_end_to_end():
    # Symmetric binary branches, independent uniform inputs, blocklength
    # inside [48, 64]; rates (1, 1) must clear every feasibility cap.
    t0 = time.monotonic()
    channel = _bsc_pair(0.01, 0.01)
    design = _pair_design([[0.25, 0.25], [0.25, 0.25]])
    n = 56
    eps_tilde = eps0 = 0.01
    budget = 37 * eps_tilde + 8 * eps0
    i0b, i0c, i_inf = achieved_divergences(channel, design, eps0, 0.25, n=n)
    r1, r2 = select_band_exponents(1, 1, i0b, i0c, i_inf, eps_tilde)
    params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=eps_tilde, eps0=eps0,
                        eps_infty=0.25, i0b=i0b, i0c=i0c, i_infty=i_inf)
    params.validate()
    report = run_experiment(channel, design, params, 2000, 20260819, n=n)
    ev = report.event("message_error")
    elapsed = time.monotonic() - t0
    ok = (48 <= n <= 64 and i_inf == 0.0 and report.theorem_valid
          and ev.upper95 <= budget and not report.any_violation and elapsed <= 600.0)
    _verdict(1, ok, f"n={n} rates=(1,1) bands=({r1},{r2}) trials=2000 "
                    f"message error {ev.rate:.4f} (95% upper {ev.upper95:.4f}) "
                    f"<= {budget:.2f}, wall {elapsed:.1f}s")
    assert ok


# (theta, kc top weights, design correlation, r1, r2, i_infty override, seed)
QUBIT_POINTS = [
    (0.30, (0.85, 0.30), 0.00, 6, 6, None, 1000),
    (0.50, (0.85, 0.30), 0.00, 7, 5, None, 1001),
    (0.70, (0.85, 0.30), 0.00, 7, 6, None, 1002),
    (0.30, (0.90, 0.20), 0.00, 6, 7, None, 1003),
    (0.50, (0.90, 0.20), 0.00, 5, 7, None, 1004),
    (0.70, (0.90, 0.20), 0.15, 6, 6, None, 1005),
    (0.30, (0.85, 0.30), 0.15, 7, 7, None, 1006),
    (0.50, (0.90, 0.20), 0.20, 7, 6, None, 1007),
    (0.70, (0.85, 0.30), 0.00, 6, 6, 8.0, 1008),
    (0.50, (0.85, 0.30), 0.20, 7, 7, 10.0, 1009),
]


def test_criterion_2_quantum_event_bounds():
    # Qubit-output pairs at small band exponents: every measured event
    # rate must sit within 3 binomial sigmas of its closed-form bound.
    trials = 5000
    eps0, eps_infty, eps_tilde = 0.05, 0.25, 0.125
    worst = {"e1": -1.0, "e2": -1.0, "e3": -1.0}
    for theta, tops, rho, r1, r2, override, seed in QUBIT_POINTS:
        channel = _qubit_cq(theta, tops)
        design = _pair_design([[0.25 + rho, 0.25 - rho], [0.25 - rho, 0.25 + rho]])
        i0b, i0c, i_inf = achieved_divergences(channel, design, eps0, eps_infty)
        i_used = i_inf if override is None else override
        params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=eps_tilde,
                            eps0=eps0, eps_infty=eps_infty,
                            i0b=i0b, i0c=i0c, i_infty=i_used)
        report = run_experiment(channel, design, params, trials, seed)
        eb = event_bounds(params, "quantum")
        for name, chain in (("e1", eb.e1_formula), ("e2", eb.e2_chain), ("e3", eb.e3_chain)):
            bound = min(1.0, chain)
            rate = report.event(name).rate
            excess = rate - bound - 3.0 * _binom_sigma(bound, trials)
            worst[name] = max(worst[name], excess)
    ok = all(v <= 1e-12 for v in worst.values())
    _verdict(2, ok, f"{len(QUBIT_POINTS)} qubit points x {trials} trials, "
                    f"worst (rate - bound - 3sigma): e1 {worst['e1']:+.4f} "
                    f"e2 {worst['e2']:+.4f} e3 {worst['e3']:+.4f}")
    assert ok


def test_qubit_e2_e3_counts_match_measurement_probabilities():
    # Criterion 2's e2/e3 chain bounds exceed 1 at every point, so those
    # comparisons cannot fail.  Here the counts meet their exact mean: given
    # the encoded cell, a side misses the sent word with probability
    # 1 - P(sent word) under the pretty good measurement.  600 trials, so
    # that a decoder which never finds the sent word lies beyond 3 sigma.
    theta, tops, rho, r1, r2, _, seed = QUBIT_POINTS[4]
    trials, eps0 = 600, 0.05
    channel = _qubit_cq(theta, tops)
    design = _pair_design([[0.25 + rho, 0.25 - rho], [0.25 - rho, 0.25 + rho]])
    scheme = Scheme(channel, design, eps0, 0.25)
    params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=0.125, eps0=eps0,
                        eps_infty=0.25, **scheme.achieved)
    report = scheme.run(params, trials, seed)
    mean, var = {"e2": 0.0, "e3": 0.0}, {"e2": 0.0, "e3": 0.0}
    for t in range(trials):
        key = mix64(seed, t)
        cb = generate_codebook(design, params, key)
        u = SeededRng(key, 101).random(2)
        out = encode(cb, min(int(u[0] * 2), 1), min(int(u[1] * 2), 1), scheme.evaluator, eps0)
        if out.fallback:
            continue
        label = channel.x_alphabet[int(out.x_word[0])]
        for name, words, tests, state, sent in (
                ("e2", cb.rows, scheme.bob_tests, channel.rho_b(label), out.row),
                ("e3", cb.cols, scheme.charlie_tests, channel.rho_c(label), out.col)):
            p = pgm_outcome_probabilities(words, tests, state)[sent]
            mean[name] += 1.0 - p
            var[name] += p * (1.0 - p)
    for name in ("e2", "e3"):
        assert abs(report.event(name).hits - mean[name]) <= 3.0 * math.sqrt(var[name]), name


def test_qubit_runs_replay_golden_counts_and_report():
    # cq runs pinned bit for bit: one resampling a codebook per trial, one
    # with a fixed codebook, each compared by event counts and report digest
    golden = json.loads((DATA / "golden_qubit_replay.json").read_text())
    eps0, eps_infty, eps_tilde = 0.05, 0.25, 0.125
    for run in golden["runs"]:
        theta, tops, rho, r1, r2, override, seed = QUBIT_POINTS[run["point"]]
        channel = _qubit_cq(theta, tops)
        design = _pair_design([[0.25 + rho, 0.25 - rho], [0.25 - rho, 0.25 + rho]])
        i0b, i0c, i_inf = achieved_divergences(channel, design, eps0, eps_infty)
        params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=eps_tilde,
                            eps0=eps0, eps_infty=eps_infty, i0b=i0b, i0c=i0c,
                            i_infty=i_inf if override is None else override)
        report = run_experiment(channel, design, params, run["trials"], seed,
                                resample_codebook=run["resample_codebook"])
        doc = report.to_json()
        doc.pop("started_at")
        doc.pop("wall_clock_s")
        assert report.counts() == run["counts"]
        assert json_digest(doc) == run["sha256"]


def test_classical_runs_replay_golden_counts_and_report():
    # threshold-decoder runs at n=56 and two llr convergence curves, pinned
    # bit for bit: their acceptance probabilities and rates all come from
    # convolved llr spectra
    golden = json.loads((DATA / "golden_classical_replay.json").read_text())
    channel = _bsc_pair(0.01, 0.01)
    design = _pair_design([[0.25, 0.25], [0.25, 0.25]])
    n, eps0, eps_tilde, eps_infty = (golden[k] for k in ("n", "eps0", "eps_tilde", "eps_infty"))
    i0b, i0c, i_inf = achieved_divergences(channel, design, eps0, eps_infty, n=n)
    r1, r2 = select_band_exponents(1, 1, i0b, i0c, i_inf, eps_tilde)
    params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=eps_tilde, eps0=eps0,
                        eps_infty=eps_infty, i0b=i0b, i0c=i0c, i_infty=i_inf)
    for run in golden["runs"]:
        report = run_experiment(channel, design, params, run["trials"], run["seed"], n=n,
                                resample_codebook=run["resample_codebook"])
        doc = report.to_json()
        doc.pop("started_at")
        doc.pop("wall_clock_s")
        assert report.counts() == run["counts"]
        assert json_digest(doc) == run["sha256"]
    for curve in golden["curves"]:
        base = JointPmf.from_json(curve["joint"])
        doc = iid_convergence_curve(base, base, golden["curve_eps"], golden["curve_n"]).to_json()
        assert json_digest(doc) == curve["sha256"], curve["base"]


COVERING_GRID = [
    (1024, 1024, 2.0 ** -10, 0.25, "paired", 20000),
    (1024, 1024, 2.0 ** -10, 0.25, "independent", 4000),
    (512, 512, 2.0 ** -9, 0.25, "paired", 4000),
    (512, 1024, 2.0 ** -9, 0.125, "paired", 4000),
    (1024, 512, 2.0 ** -9, 0.125, "paired", 4000),
    (256, 256, 2.0 ** -8, 0.5, "paired", 4000),
    (256, 256, 2.0 ** -7, 0.25, "independent", 4000),
    (128, 128, 2.0 ** -6, 0.25, "paired", 4000),
    (128, 256, 2.0 ** -7, 0.5, "paired", 4000),
    (2048, 1024, 2.0 ** -11, 0.25, "paired", 4000),
    (1024, 2048, 2.0 ** -11, 0.25, "paired", 4000),
    (512, 512, 2.0 ** -10, 0.5, "independent", 4000),
    (64, 64, 2.0 ** -5, 0.25, "paired", 4000),
]


def test_criterion_3_covering_grid():
    reference_seen = False
    worst = -1.0
    for idx, (r, s, q, alpha, family, trials) in enumerate(COVERING_GRID):
        p = CoveringParams(r=r, s=s, q=q, alpha=alpha)
        cb = covering_bound(p)
        if (r, s, q, alpha) == (1024, 1024, 2.0 ** -10, 0.25):
            assert cb.raw == 0.03515625
            reference_seen = True
        est = synthetic_covering(p, trials, seed=mix64(30, idx), family=family)
        worst = max(worst, est.estimate - cb.value - 3.0 * _binom_sigma(cb.value, trials))
    ok = reference_seen and worst <= 1e-12 and len(COVERING_GRID) >= 12
    _verdict(3, ok, f"{len(COVERING_GRID)} (r,s,q,alpha) combinations, "
                    f"worst (miss rate - bound - 3sigma) {worst:+.5f}; "
                    f"reference bound 0.03515625 hit exactly")
    assert ok


def test_criterion_4_divergence_oracles():
    rng = np.random.default_rng(404)
    shapes = [(2, 3), (3, 4), (4, 6), (2, 12), (3, 8), (4, 4), (2, 2), (6, 4)]
    eps_cycle = (0.1, 0.25, 0.5)
    max_ge = max_er = -1.0
    for i in range(100):
        rows, cols = shapes[i % len(shapes)]
        zeros = i % 3  # a few hard-zero cells exercise support handling
        m = rand_joint(rng, rows, cols, zeros=zeros)
        joint = JointPmf(tuple(map(str, range(rows))), tuple(map(str, range(cols))), m)
        eps = eps_cycle[i % 3]
        g = classical_i0(joint, eps, "greedy").value
        e = classical_i0(joint, eps, "exhaustive").value
        r = classical_i0(joint, eps, "randomized").value
        max_ge = max(max_ge, g - e)
        max_er = max(max_er, e - r)
    ordering_ok = max_ge <= 1e-9 and max_er <= 1e-9

    # commuting embeddings: diagonal states must reproduce the classical value
    max_diag = 0.0
    for i in range(50):
        m_syms = 2 + i % 3
        dim = 2 + (i // 3) % 3
        p_u = rng.random(m_syms) + 0.05
        p_u /= p_u.sum()
        cond = rng.random((m_syms, dim)) + 0.02
        cond /= cond.sum(axis=1, keepdims=True)
        eps = eps_cycle[i % 3]
        joint = JointPmf(tuple(map(str, range(m_syms))), tuple(map(str, range(dim))),
                         p_u[:, None] * cond)
        cv = classical_i0(joint, eps, "randomized").value
        qv = quantum_i0_cq(p_u, [np.diag(cond[u]).astype(complex) for u in range(m_syms)],
                           eps).value
        max_diag = max(max_diag, abs(qv - cv))
    diag_ok = max_diag <= 1e-9

    # independent input pairs: the smoothed value collapses to -log2(1-eps)
    max_prod = 0.0
    for eps in eps_cycle:
        pu = rng.random(4) + 0.1
        pu /= pu.sum()
        pv = rng.random(5) + 0.1
        pv /= pv.sum()
        joint = JointPmf(tuple("abcd"), tuple("vwxyz"), np.outer(pu, pv))
        target = -math.log2(1.0 - eps)
        max_prod = max(max_prod, abs(classical_i0(joint, eps, "randomized").value - target))
        pq = rng.random(3) + 0.1
        pq /= pq.sum()
        shared = rand_psd(rng, 3)
        shared = (shared / np.trace(shared)).astype(complex)
        max_prod = max(max_prod, abs(quantum_i0_cq(pq, [shared] * 3, eps).value - target))
    prod_ok = max_prod <= 1e-9

    ok = ordering_ok and diag_ok and prod_ok
    _verdict(4, ok, f"100 joints greedy<=exhaustive<=randomized "
                    f"(max gaps {max_ge:+.2e}, {max_er:+.2e}); "
                    f"50 diagonal embeddings max |quantum-classical| {max_diag:.2e}; "
                    f"product identity max err {max_prod:.2e}")
    assert ok


def test_criterion_5_indicator_moments():
    # Two input designs: one where no likelihood atom gets clipped (the
    # mean sits at the top of the admissible band) and one where the
    # heaviest atom is clipped (the mean drops strictly inside).
    books = 64
    eps_infty = 0.25
    summaries = []
    ok = True
    for label, probs in (("symmetric", [[0.45, 0.05], [0.05, 0.45]]),
                         ("clipped", [[0.55, 0.10], [0.10, 0.25]])):
        design = _pair_design(probs)
        i_inf = classical_i_infty(design.joint, eps_infty).value
        q = 2.0 ** -i_inf
        params = RateParams(R1=0, R2=0, r1=6, r2=5, eps_tilde=0.125, eps0=0.01,
                            eps_infty=eps_infty, i0b=99.0, i0c=99.0, i_infty=i_inf)
        means, row2, col2, corrs = [], [], [], []
        for b in range(books):
            cb = generate_codebook(design, params, seed=mix64(50600 + books, b))
            ind = np.stack([cb.indicator(k, 0, 32) for k in range(64)]).astype(float)
            means.append(ind.mean())
            row2.append((ind[:, 0::2] * ind[:, 1::2]).mean())
            col2.append((ind[0::2, :] * ind[1::2, :]).mean())
            x = ind[0::2, 0::2].ravel()
            y = ind[1::2, 1::2].ravel()
            if x.std() > 0 and y.std() > 0:
                corrs.append(np.corrcoef(x, y)[0, 1])
        cells = books * 64 * 32
        assert cells >= 10 ** 5
        m1, s1 = np.mean(means), np.std(means, ddof=1) / math.sqrt(books)
        in_band = (1 - eps_infty) * q - 3 * s1 <= m1 <= q + 3 * s1
        m_row, s_row = np.mean(row2), np.std(row2, ddof=1) / math.sqrt(books)
        m_col, s_col = np.mean(col2), np.std(col2, ddof=1) / math.sqrt(books)
        second_ok = m_row <= q * q + 3 * s_row and m_col <= q * q + 3 * s_col
        corrs = np.asarray(corrs)
        z = corrs.mean() * math.sqrt(len(corrs)) / corrs.std(ddof=1)
        indep_ok = abs(z) <= 3.29  # two-sided 1e-3
        ok = ok and in_band and second_ok and indep_ok
        summaries.append(f"{label}: mean {m1:.4f} in [{(1 - eps_infty) * q:.4f}, {q:.4f}], "
                         f"pair moments <= {q * q:.4f}, z={z:+.2f}")
    _verdict(5, ok, f"{2 * 64 * 64 * 32} cells; " + "; ".join(summaries))
    assert ok


def _dsbs_curve():
    base = JointPmf(("0", "1"), ("0", "1"), np.array([[0.45, 0.05], [0.05, 0.45]]))
    ns = (1, 2, 4, 8, 16, 32, 64, 128)
    return iid_convergence_curve(base, base, 0.05, ns)


def test_criterion_6_iid_convergence():
    curve = _dsbs_curve()
    pts = curve.points
    gaps = [abs(p.i0_rate - curve.target_i0) for p in pts]
    inf_rates = [p.i_infty_rate for p in pts]
    inf_gaps = [abs(p.i_infty_rate - curve.target_i_infty) for p in pts]
    nonincreasing = all(a >= b - 1e-12 for a, b in zip(inf_rates, inf_rates[1:]))
    ok = (len(pts) == 8 and gaps[-1] < 0.1
          and abs(curve.target_i0 - 0.531004) < 5e-4
          and nonincreasing and inf_gaps[-1] < inf_gaps[0] and inf_gaps[-1] < 0.15)
    _verdict(6, ok, f"order-zero rate gap at n=128: {gaps[-1]:.5f} (< 0.1); "
                    f"max-divergence rate nonincreasing, final gap {inf_gaps[-1]:.5f}")
    assert ok


def test_criterion_6_gap_monotone_from_8():
    # The computed gap sequence rises between n=8 and n=16 before
    # falling again, so strict shrinkage from n=8 on does not hold.
    # Stated as measured; see the iid convergence test for what the
    # sequence does deliver.
    curve = _dsbs_curve()
    tail = [abs(p.i0_rate - curve.target_i0) for p in curve.points if p.n >= 8]
    drops = [a - b for a, b in zip(tail, tail[1:])]
    ok = all(d >= -1e-12 for d in drops)
    _verdict(6, ok, "gap from n=8 on: " + " -> ".join(f"{g:.5f}" for g in tail)
             + ("" if ok else " (rises 8 -> 16, not monotone)"))
    assert ok


def test_criterion_7_measurement_inequality_slack():
    rng = np.random.default_rng(77)
    worst = math.inf
    checks = 0
    for dim in (2, 3, 4, 8):
        for i in range(200):
            a = rand_psd(rng, dim)
            lam = float(np.linalg.eigvalsh(a)[-1])
            mode = i % 3
            if mode == 0:
                s = a / lam  # top eigenvalue pinned to 1
            elif mode == 1:
                s = a * (rng.uniform(0.05, 0.95) / lam)
            else:
                h = rand_hermitian(rng, dim)
                vecs = np.linalg.eigh(h)[1]
                k = int(rng.integers(1, dim))
                s = vecs[:, :k] @ vecs[:, :k].conj().T  # projector
            t = rand_psd(rng, dim) * (10.0 ** rng.uniform(-3, 1))
            worst = min(worst, hayashi_nagaoka_check(s, t))
            checks += 1
    ok = checks == 800 and worst >= -1e-9
    _verdict(7, ok, f"{checks} random (S, T) pairs over dims 2,3,4,8; "
                    f"minimum slack eigenvalue {worst:+.3e} >= -1e-9")
    assert ok


def test_criterion_8_simulate_replay_matches_golden(tmp_path, monkeypatch, capsys):
    golden = json.loads((DATA / "golden_simulate.json").read_text())
    docs = []
    for run in ("first", "second"):
        out = tmp_path / run
        out.mkdir()
        monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(out))
        rc = cli.main(["simulate", "--config", str(DATA / "config_desk.json")])
        assert rc == 0
        doc = json.loads((out / "simulate_report.json").read_text())
        doc["report"].pop("started_at")
        doc["report"].pop("wall_clock_s")
        docs.append(doc)
    capsys.readouterr()  # drop the CLI's own report echo
    counts = {e["name"]: e["hits"] for e in docs[0]["report"]["events"]}
    golden_counts = {e["name"]: e["hits"] for e in golden["report"]["events"]}
    byte_identical = (json.dumps(docs[0], indent=2, sort_keys=True)
                      == json.dumps(golden, indent=2, sort_keys=True)
                      == json.dumps(docs[1], indent=2, sort_keys=True))
    ok = byte_identical and counts == golden_counts
    _verdict(8, ok, f"replayed seed reproduces event counts {counts} "
                    f"and byte-identical report (timestamps excluded)")
    assert ok
