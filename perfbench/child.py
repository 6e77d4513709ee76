"""One workload in one fresh process: the timed phase or the traced run.

Started by ``run.py`` with martonlab's source tree on ``PYTHONPATH`` and BLAS
limited to one thread.  Writes one JSON result file and exits 0, also when
operations failed: the failures are in the file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
import scipy

import martonlab
import speed
import workloads

# traced runs execute a fixed number of operations per requested second,
# sized so that the traced and the untraced pass together take about that
# long at the baseline commit; the count depends only on --seconds, rounded
# to whole cycles of the workload, so counters compare across commits
TRACE_OPS_PER_S = {"classical-n56": 1.5, "qubit-sweep": 3.0, "cli-sweep": 9.0}


def _check(wl, index: int, seed: int, raw, reference) -> tuple:
    """(outcome, errors) of one finished operation."""
    try:
        outcome = wl.outcome(index, raw)
    except Exception:  # a malformed report is a failed operation
        return None, ["unreadable output: " + traceback.format_exc(limit=2)]
    errors = workloads.outcome_errors(outcome)
    if seed == workloads.DEFAULT_SEED:
        if reference is None:
            errors.append("no reference outputs recorded for this workload")
        else:
            errors += workloads.reference_errors(wl, reference, index, outcome)
    return outcome, errors


class Runner:
    """Runs operations, keeping outcomes, trials and failures."""

    def __init__(self, wl, reference):
        self.wl = wl
        self.reference = reference
        self.attempted = 0
        self.failures = []

    def run(self, index: int, seed: int) -> tuple:
        """Run one operation; return (seconds, trials, raw output or None)."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            raw, trials = self.wl.run(index, seed)
        except Exception:  # the benchmark keeps running past a failed operation
            elapsed = time.perf_counter() - t0
            self.failures.append({"seed": seed, "op": index,
                                  "errors": [traceback.format_exc(limit=4)]})
            return elapsed, 0, None
        return time.perf_counter() - t0, trials, raw

    def check(self, index: int, seed: int, raw) -> dict | None:
        """Check one operation's output; None if it failed or has none."""
        if raw is None:  # the exception is already recorded
            return None
        outcome, errors = _check(self.wl, index, seed, raw, self.reference)
        if errors:
            self.failures.append({"seed": seed, "op": index, "errors": errors})
        return outcome


def _cpu_now() -> float:
    """CPU seconds of this process and of the children it has waited for."""
    t = os.times()
    return time.process_time() + t.children_user + t.children_system


def timed_phase(runner: Runner, seed: int, seconds: float) -> dict:
    """Closed loop, one client: operations back to back for ``seconds``,
    then to the end of the workload's cycle.

    Between operations the speed kernel runs until it has taken its share of
    the phase; its time counts in no operation.  Each latency is also given
    at the reference host speed (``speed.Probe.scaled``).
    """
    runner.check(0, seed, runner.run(0, seed)[2])  # warm-up, not timed
    probe = speed.Probe()
    starts, latencies, trials, raws, cpu = [], [], 0, [], 0.0
    start = time.perf_counter()
    index = 1
    while True:
        cpu0 = _cpu_now()
        starts.append(time.perf_counter())
        elapsed, done, raw = runner.run(index, seed)
        cpu += _cpu_now() - cpu0
        latencies.append(elapsed)
        trials += done
        raws.append((index, raw))
        # whole cycles, so that every run weighs the cycle's operations alike
        if index % runner.wl.cycle == 0 and time.perf_counter() - start >= seconds:
            break
        index += 1
        probe.keep_share(time.perf_counter() - start)
    probe.keep_share(time.perf_counter() - start)  # passes after the last operation
    counts = []
    for i, raw in raws:
        outcome = runner.check(i, seed, raw)
        counts.append({"op": i, "counts": None if outcome is None else outcome["counts"]})
    return {
        "cpu_s": cpu,
        "latencies_s": latencies,
        "scaled_latencies_s": [probe.scaled(t, x) for t, x in zip(starts, latencies)],
        "trials": trials,
        "counts": counts,
        "speed_scale": probe.scale(),
        "kernel_s": probe.times,
    }


def traced_run(runner: Runner, seed: int, seconds: float) -> dict:
    """The same operations traced, then untraced; their outputs must agree."""
    import tracer

    wl = runner.wl
    ops = wl.cycle * max(1, round(seconds * TRACE_OPS_PER_S[wl.name] / wl.cycle))
    runner.check(0, seed, runner.run(0, seed)[2])  # warm-up, not timed
    # each operation runs traced, then untraced, so drift in machine speed
    # over the run does not show up as tracing overhead
    tr = tracer.Tracer()
    traced, untraced = [], []
    traced_wall = untraced_wall = 0.0
    report_bytes = 0
    for i in range(ops):
        tr.install()
        tr.begin_op()
        try:
            elapsed, _, raw = runner.run(i, seed)
        finally:
            tr.uninstall()
        traced_wall += elapsed
        traced.append(raw)
        if raw is not None:
            report_bytes += wl.report_bytes(i, raw)
        elapsed, _, raw = runner.run(i, seed)
        untraced_wall += elapsed
        untraced.append(raw)
    layers = tr.metrics()

    counts = []
    for i, (a, b) in enumerate(zip(traced, untraced)):
        out_a = runner.check(i, seed, a)
        out_b = None if b is None else _check(wl, i, seed, b, None)[0]
        if out_a is not None and out_b is not None and out_a != out_b:
            runner.failures.append({"seed": seed, "op": i, "errors": [
                "traced and untraced outputs differ: "
                + "; ".join(workloads.mismatches(out_a, out_b))]})
        counts.append({"op": i, "counts": None if out_a is None else out_a["counts"]})
    layers["cli.report_bytes"] = (report_bytes, "bytes")
    layers["trace.traced_wall_s"] = (traced_wall, "s")
    layers["trace.untraced_wall_s"] = (untraced_wall, "s")
    layers["trace.overhead_s"] = (traced_wall - untraced_wall, "s")
    return {"layers": layers, "ops": ops, "spans": len(tr.span_start), "counts": counts}


def canary(runner: Runner) -> None:
    """Replay the first operations of the default seed against the reference."""
    seed = workloads.DEFAULT_SEED
    if runner.reference is None:
        runner.failures.append({"seed": seed, "op": "canary",
                                "errors": ["no reference outputs recorded for this workload"]})
        return
    for i in runner.wl.canary_indices(runner.reference):
        runner.check(i, seed, runner.run(i, seed)[2])


def machine() -> dict:
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    threads = {k: os.environ.get(k) for k in (
        "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    return {
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "blas_threads": threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--workdir", required=True)
    ap.add_argument("--result", required=True)
    args = ap.parse_args()

    src = (workloads.ROOT / "src").resolve()
    if src not in Path(martonlab.__file__).resolve().parents:
        print(f"martonlab imported from {martonlab.__file__}, not from {src}", file=sys.stderr)
        return 2

    wl = workloads.WORKLOADS[args.workload]()
    wl.setup(Path(args.workdir))
    runner = Runner(wl, workloads.load_reference(wl.name))
    if args.trace:
        result = traced_run(runner, args.seed, args.seconds)
    else:
        result = timed_phase(runner, args.seed, args.seconds)
    if args.seed != workloads.DEFAULT_SEED:
        canary(runner)
    result.update(
        workload=wl.name,
        why=wl.why,
        seed=args.seed,
        setup_config=str(wl.setup_config),
        attempted=runner.attempted,
        failures=runner.failures,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        machine=machine(),
    )
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
