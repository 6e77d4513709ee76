"""The benchmark's three workloads and the checks on their outputs.

Each workload is an endless, deterministic sequence of operations.  An
operation is one ``experiments.run_experiment`` call (``classical-n56``,
``qubit-sweep``) or one ``cli.main`` call (``cli-sweep``).  Operation ``i``
depends only on the workload seed and ``i mod period``, so the reference
outputs recorded for the default seed cover every operation a run reaches,
also on a commit several times faster than the one that recorded them.

The library is always called through its module attributes
(``experiments.run_experiment``, ``cli.main``), never through names bound
here, so that the tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from pathlib import Path

import numpy as np

from martonlab import cli, experiments
from martonlab.channels import ClassicalBroadcastChannel, CqBroadcastChannel, InputDesign
from martonlab.coding import RateParams
from martonlab.prob import JointPmf

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

DEFAULT_SEED = 1
# Float outputs (divergences, bounds, curve points) may differ in the last
# bits across numpy/scipy builds; counts, exit codes and digests compare exactly.
REL_TOL = 1e-9
ABS_TOL = 1e-12


def op_seed(workload_seed: int, workload: str, index: int) -> int:
    """32-bit seed of one operation, derived by the benchmark alone."""
    digest = hashlib.sha256(f"{workload}/{workload_seed}/{index}".encode()).digest()
    return int.from_bytes(digest[:4], "little")


def _bsc_pair(p: float, q: float) -> ClassicalBroadcastChannel:
    xs = ("00", "01", "10", "11")
    probs = np.zeros((4, 2, 2))
    for i, x in enumerate(xs):
        for y in (0, 1):
            for z in (0, 1):
                probs[i, y, z] = ((1 - p) if y == int(x[0]) else p) * (
                    (1 - q) if z == int(x[1]) else q)
    return ClassicalBroadcastChannel(xs, ("0", "1"), ("0", "1"), probs)


def _pair_design(rho: float) -> InputDesign:
    probs = np.array([[0.25 + rho, 0.25 - rho], [0.25 - rho, 0.25 + rho]])
    joint = JointPmf(("0", "1"), ("0", "1"), probs)
    return InputDesign(joint, {(u, v): u + v for u in "01" for v in "01"})


def _qubit_cq(theta: float, kc_tops) -> CqBroadcastChannel:
    c, s = math.cos(theta), math.sin(theta)
    kb = {
        "0": np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        "1": np.array([[c * c, c * s], [c * s, s * s]], dtype=complex),
    }
    a, b = kc_tops
    kc = {"0": np.diag([a, 1 - a]).astype(complex), "1": np.diag([b, 1 - b]).astype(complex)}
    xs = ("00", "01", "10", "11")
    return CqBroadcastChannel(xs, 2, 2, [np.kron(kb[x[0]], kc[x[1]]) for x in xs])


def _write_json(path: Path, doc) -> Path:
    path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return path


# ---------------------------------------------------------------------------
# outcomes: the part of an operation's output that is checked


def report_outcome(rep: dict) -> dict:
    """Split a run_experiment report into seed-dependent counts and fixed values.

    Clopper-Pearson limits, rates and timestamps are left out: the limits
    follow from the counts, and their last bits vary with the scipy build.
    """
    counts = {"events": {e["name"]: e["hits"] for e in rep["events"]}}
    if rep["codebook_digest"] is not None:
        counts["codebook_digest"] = rep["codebook_digest"]
    fixed = {key: rep[key] for key in ("setting", "n", "trials", "params", "achieved",
                                        "scheme", "bounds", "theorem_valid")}
    fixed["event_bounds"] = {e["name"]: e["bound"] for e in rep["events"]}
    return {"counts": counts, "fixed": fixed}


def invariant_errors(outcome: dict) -> list:
    """Checks that hold for every seed: counts in range and nested events."""
    events = outcome["counts"].get("events")
    if events is None:
        return []
    trials = outcome["fixed"]["trials"]
    errors = [f"{k}={v} outside [0, {trials}]" for k, v in events.items()
              if not 0 <= v <= trials]
    # a fallback is a message error, and a wrong message implies a wrong index
    if not events["e1"] <= events["message_error"] <= events["index_error"]:
        errors.append(f"expected e1 <= message_error <= index_error, got {events}")
    return errors


def mismatches(got, want, path: str = "") -> list:
    """Differences between two outcomes: exact, except floats within REL_TOL."""
    if isinstance(want, dict) and isinstance(got, dict):
        if set(got) != set(want):
            return [f"{path}: keys {sorted(got)} != {sorted(want)}"]
        out = []
        for key in sorted(want):
            out.extend(mismatches(got[key], want[key], f"{path}/{key}"))
        return out
    if isinstance(want, list) and isinstance(got, list):
        if len(got) != len(want):
            return [f"{path}: length {len(got)} != {len(want)}"]
        out = []
        for i, (g, w) in enumerate(zip(got, want)):
            out.extend(mismatches(g, w, f"{path}/{i}"))
        return out
    numbers = [x for x in (got, want) if isinstance(x, (int, float)) and not isinstance(x, bool)]
    if len(numbers) == 2 and (isinstance(got, float) or isinstance(want, float)):
        if math.isclose(got, want, rel_tol=REL_TOL, abs_tol=ABS_TOL):
            return []
        return [f"{path}: {got!r} != {want!r}"]
    if type(got) is not type(want) or got != want:
        return [f"{path}: {got!r} != {want!r}"]
    return []


def _json_clean(doc):
    """Round-trip through JSON so outcomes compare like stored references."""
    return json.loads(json.dumps(doc))


# ---------------------------------------------------------------------------
# workloads


class Workload:
    """One benchmark workload: set-up, operations, and the simulate config
    whose fresh-interpreter run the set-up metric times."""

    name = ""
    why = ""
    period = 1
    cycle = 1
    canary_ops = 1

    def setup(self, workdir: Path) -> None:
        raise NotImplementedError

    def run(self, index: int, seed: int):
        """Run operation ``index``; return (raw output, trials completed)."""
        raise NotImplementedError

    def outcome(self, index: int, raw) -> dict:
        """The checked part of an operation's output (here a run_experiment report)."""
        return _json_clean(report_outcome(raw.to_json()))

    def fixed_key(self, index: int) -> str:
        return "all"

    def report_bytes(self, index: int, raw) -> int:
        return 0

    def canary_indices(self, reference: dict) -> list:
        """Operations of the default seed replayed after a run with another seed."""
        return list(range(self.canary_ops))


class ClassicalN56(Workload):
    name = "classical-n56"
    why = ("criterion-1 classical run at n=56: coding (codebook sampling, encoder "
           "tail mass, threshold row scoring) does ~95% of the work; quantum is idle")
    trials_per_op = 16
    period = 400
    canary_ops = 3
    n = 56

    def setup(self, workdir: Path) -> None:
        self.channel = _bsc_pair(0.01, 0.01)
        self.design = _pair_design(0.0)
        eps0 = eps_tilde = 0.01
        eps_infty = 0.25
        i0b, i0c, i_inf = experiments.achieved_divergences(
            self.channel, self.design, eps0, eps_infty, n=self.n)
        self.params = RateParams(R1=1, R2=1, r1=12, r2=8, eps_tilde=eps_tilde, eps0=eps0,
                                 eps_infty=eps_infty, i0b=i0b, i0c=i0c, i_infty=i_inf)
        self.setup_config = _write_json(workdir / "setup_config.json", {
            "channel": str(_write_json(workdir / "channel.json", self.channel.to_json())),
            "design": str(_write_json(workdir / "design.json", self.design.to_json())),
            "eps": 37 * eps_tilde + 8 * eps0, "eps0": eps0, "eps_tilde": eps_tilde,
            "eps_infty": eps_infty, "rates": [1, 1], "bands": [12, 8], "trials": 1,
            "seed": DEFAULT_SEED, "n": self.n, "mode": "theorem",
        })

    def run(self, index: int, seed: int):
        report = experiments.run_experiment(
            self.channel, self.design, self.params, self.trials_per_op,
            op_seed(seed, self.name, index % self.period), n=self.n)
        return report, self.trials_per_op

    def canary_indices(self, reference: dict) -> list:
        # most operations count no event at all, and would not show a change
        hits = [i for i, c in enumerate(reference["counts"]) if any(c["events"].values())]
        return hits[:self.canary_ops]


# (theta, Charlie's diagonal tops, design correlation, r1, r2, i_infty override)
QUBIT_POINTS = [
    (0.30, (0.85, 0.30), 0.00, 6, 6, None),
    (0.50, (0.85, 0.30), 0.00, 7, 5, None),
    (0.70, (0.85, 0.30), 0.00, 7, 6, None),
    (0.30, (0.90, 0.20), 0.00, 6, 7, None),
    (0.50, (0.90, 0.20), 0.00, 5, 7, None),
    (0.70, (0.90, 0.20), 0.15, 6, 6, None),
    (0.30, (0.85, 0.30), 0.15, 7, 7, None),
    (0.50, (0.90, 0.20), 0.20, 7, 6, None),
    (0.70, (0.85, 0.30), 0.00, 6, 6, 8.0),
    (0.50, (0.85, 0.30), 0.20, 7, 7, 10.0),
]


class QubitSweep(Workload):
    name = "qubit-sweep"
    why = ("the ten criterion-2 qubit points with PGM decoding at n=1: per-trial "
           "Python overhead, Philox streams and S^-1/2 dominate; codebooks are tiny")
    # 200 trials per point, not the 1000 that would match criterion 2 more
    # closely: a run then holds enough operations for a steady run_ms_p95
    trials_per_op = 200
    cycle = len(QUBIT_POINTS)
    period = 100 * cycle
    canary_ops = cycle

    def setup(self, workdir: Path) -> None:
        eps0, eps_infty, eps_tilde = 0.05, 0.25, 0.125
        self.points = []
        for theta, tops, rho, r1, r2, override in QUBIT_POINTS:
            channel = _qubit_cq(theta, tops)
            design = _pair_design(rho)
            i0b, i0c, i_inf = experiments.achieved_divergences(channel, design, eps0, eps_infty)
            params = RateParams(R1=1, R2=1, r1=r1, r2=r2, eps_tilde=eps_tilde, eps0=eps0,
                                eps_infty=eps_infty, i0b=i0b, i0c=i0c,
                                i_infty=i_inf if override is None else override)
            self.points.append((channel, design, params))
        channel, design, params = self.points[0]
        # the first point through the CLI; its i_infty is the achieved one
        self.setup_config = _write_json(workdir / "setup_config.json", {
            "channel": str(_write_json(workdir / "channel.json", channel.to_json())),
            "design": str(_write_json(workdir / "design.json", design.to_json())),
            "eps": 1.0, "eps0": eps0, "eps_tilde": eps_tilde, "eps_infty": eps_infty,
            "rates": [1, 1], "bands": [params.r1, params.r2], "trials": 1,
            "seed": DEFAULT_SEED, "n": 1, "mode": "free",
        })

    def run(self, index: int, seed: int):
        channel, design, params = self.points[index % len(self.points)]
        report = experiments.run_experiment(
            channel, design, params, self.trials_per_op,
            op_seed(seed, self.name, index % self.period))
        return report, self.trials_per_op

    def fixed_key(self, index: int) -> str:
        return f"point-{index % len(self.points)}"


ERASURE_BASE = {
    "row_labels": ["0", "1"],
    "col_labels": ["0", "e", "1"],
    "probs": [[0.425, 0.05, 0.025], [0.025, 0.05, 0.425]],
}
CURVE_N = "1,2,4,8,16,32,64,128"


class CliSweep(Workload):
    name = "cli-sweep"
    why = ("short CLI calls in a cycle, as in a parameter sweep: per-run setup "
           "(parsing, divergences, scipy statistics, JSON) dominates; codebooks are "
           "fixed per call")
    cycles = 300
    canary_ops = 9

    def setup(self, workdir: Path) -> None:
        demos, tests = ROOT / "demos" / "data", ROOT / "tests" / "data"

        def simulate_config(src: Path, name: str, **overrides) -> str:
            cfg = json.loads(src.read_text(encoding="utf-8"))
            cfg["channel"] = str(src.parent / cfg["channel"])
            cfg["design"] = str(src.parent / cfg["design"])
            cfg.update(resample_codebook=False, **overrides)
            return str(_write_json(workdir / name, cfg))

        desk = simulate_config(tests / "config_desk.json", "desk.json")
        self.setup_config = Path(simulate_config(tests / "config_desk.json",
                                                 "setup_config.json", trials=1))
        qubit_cfg = str(_write_json(workdir / "qubit.json", {
            "channel": str(demos / "qubit_channel.json"),
            "design": str(demos / "independent_design.json"),
            "eps": 1.0, "eps0": 0.05, "eps_tilde": 0.125, "eps_infty": 0.25,
            "rates": [1, 1], "bands": [6, 6], "trials": 200, "seed": DEFAULT_SEED,
            "n": 1, "mode": "free", "resample_codebook": False}))
        n56 = simulate_config(demos / "simulate_config.json", "n56.json", trials=20)
        erasure = str(_write_json(workdir / "erasure_joint.json", ERASURE_BASE))
        dsbs = str(demos / "dsbs40_joint.json")
        # (label, argv without --out/--seed, takes --seed, writes files, simulate trials)
        self.commands = [
            ("simulate-desk", ["simulate", "--config", desk], True, True, 50),
            ("simulate-qubit", ["simulate", "--config", qubit_cfg], True, True, 200),
            ("simulate-n56", ["simulate", "--config", n56], True, True, 20),
            ("iid-curve-dsbs40", ["iid-curve", "--base", dsbs, "--eps", "0.05",
                                  "--n", CURVE_N], False, True, 0),
            ("iid-curve-erasure", ["iid-curve", "--base", erasure, "--eps", "0.05",
                                   "--n", CURVE_N], False, True, 0),
            ("covering", ["covering", "--r", "1024", "--s", "1024", "--q", "2^-10",
                          "--alpha", "0.25", "--trials", "1000"], True, True, 0),
            ("region", ["region", "--i0b", "30", "--i0c", "28", "--i-infty", "2",
                        "--eps-tilde", "0.0625", "--eps0", "0.01", "--eps-infty", "0.25",
                        "--gamma", "0.05"], False, True, 0),
            ("bands", ["bands", "--R1", "1", "--R2", "1", "--i0b", "30", "--i0c", "30",
                       "--i-infty", "2", "--eps-tilde", "0.0625", "--explain"], False, False, 0),
            ("divergence", ["divergence", "--joint", dsbs, "--kind", "i0", "--eps", "0.25"],
             False, False, 0),
        ]
        self.cycle = len(self.commands)
        self.period = self.cycles * self.cycle
        self.out_dirs = []
        for label, *_ in self.commands:
            out = workdir / "cli" / label
            out.mkdir(parents=True, exist_ok=True)
            self.out_dirs.append(out)

    def argv(self, index: int, seed: int) -> list:
        k = index % len(self.commands)
        _, argv, seeded, writes, _ = self.commands[k]
        argv = list(argv)
        if seeded:
            argv += ["--seed", str(op_seed(seed, self.name, index % self.period))]
        if writes:
            argv += ["--out", str(self.out_dirs[k])]
        return argv

    def run(self, index: int, seed: int):
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(self.argv(index, seed))
        return (code, stdout.getvalue(), stderr.getvalue()), self.commands[
            index % len(self.commands)][4]

    def report_bytes(self, index: int, raw) -> int:
        """Bytes printed plus bytes of the report files this call wrote."""
        out = self.out_dirs[index % len(self.commands)]
        return len(raw[1].encode()) + sum(p.stat().st_size for p in out.iterdir())

    def outcome(self, index: int, raw) -> dict:
        code, stdout, stderr = raw
        label = self.commands[index % len(self.commands)][0]
        if code not in (0, 1):
            return {"counts": {"exit": code, "stderr": stderr.strip()[-400:]}, "fixed": {}}
        doc = json.loads(stdout)
        if label.startswith("simulate"):
            out = report_outcome(doc["report"])
            expected = 1 if doc["report"]["any_violation"] else 0
        elif label == "covering":
            out = {"counts": {"hits": doc["hits"]},
                   "fixed": {k: doc[k] for k in ("r", "s", "q", "alpha", "trials",
                                                 "bound", "bound_raw")}}
            expected = 1 if doc["violation"] else 0
        else:
            out = {"counts": {}, "fixed": doc}
            expected = 0
        out["counts"]["exit"] = code
        out["counts"]["expected_exit"] = expected
        return _json_clean(out)

    def fixed_key(self, index: int) -> str:
        return self.commands[index % len(self.commands)][0]


WORKLOADS = {w.name: w for w in (ClassicalN56, QubitSweep, CliSweep)}


def outcome_errors(outcome: dict) -> list:
    """Errors visible from one outcome alone, whatever the seed."""
    counts = outcome["counts"]
    if "exit" in counts and counts["exit"] != counts.get("expected_exit"):
        return [f"exit code {counts['exit']}, expected {counts.get('expected_exit')}"
                + (f": {counts['stderr']}" if "stderr" in counts else "")]
    return invariant_errors(outcome)


def load_reference(name: str) -> dict | None:
    path = REFERENCE_DIR / f"{name}.json"
    if not path.exists():
        return None
    return json.loads(path.read_text(encoding="utf-8"))


def reference_errors(workload: Workload, reference: dict, index: int, outcome: dict) -> list:
    """Differences between an operation of the default seed and its reference."""
    i = index % workload.period
    if i >= len(reference["counts"]):
        return [f"operation {i} has no reference"]
    errors = mismatches(outcome["counts"], reference["counts"][i], "counts")
    errors += mismatches(outcome["fixed"], reference["fixed"][workload.fixed_key(index)],
                         "fixed")
    return errors
