"""martonlab trial-throughput benchmark.

    python3 perfbench/run.py --workload classical-n56 --seed 3 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all

Run from the root of a source checkout.  Each workload runs in one fresh
child process (closed loop, one client, BLAS limited to one thread) against
the checkout's own ``src/``.  ``--trace 0`` prints the end-to-end metrics,
``--trace 1`` the per-layer metrics of a separate traced run.  Either way the
outputs are checked (see README.md) and the last line of standard output is
one JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The full
result, with the machine record and per-operation counts, goes to
``perfbench/out/``.  The exit code is 0 only if every operation was correct.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

BLAS_THREADS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
os.environ.update({key: "1" for key in BLAS_THREADS})  # before numpy is imported

import speed  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("classical-n56", "qubit-sweep", "cli-sweep")
SETUP_REPEATS = 5
# speed-kernel passes before each set-up run and after the last
SETUP_KERNELS = 10
IMPORTTIME_REPEATS = 3
CHILD_TIMEOUT_S = 150


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def percentile(sorted_values: list, p: float) -> float:
    """Nearest-rank percentile."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1]


def measure_setup(config: str, workdir: Path) -> tuple:
    """Wall times of fresh interpreters simulating one trial, each also at
    the reference host speed.

    The workload's child process has already compiled the sources.  Exit
    codes 0 and 1 (a bound violated in the single trial) are both complete
    runs; anything else is a failure.  The speed kernel runs before each
    run and after the last, so every run has kernel passes on both sides.
    """
    cmd = [sys.executable, "-m", "martonlab.cli", "simulate", "--config", config,
           "--out", str(workdir / "setup_out")]
    runs, failures = [], []
    probe = speed.Probe()
    for i in range(SETUP_REPEATS):
        for _ in range(SETUP_KERNELS):
            probe.once()
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True,
                              text=True, timeout=CHILD_TIMEOUT_S)
        elapsed = time.perf_counter() - t0
        if proc.returncode not in (0, 1):
            failures.append({"op": f"setup-{i}", "errors": [
                f"exit {proc.returncode}: {proc.stderr.strip()[-400:]}"]})
        else:
            runs.append((t0, elapsed))
    for _ in range(SETUP_KERNELS):
        probe.once()
    return ([x for _, x in runs], [probe.scaled(t, x) for t, x in runs], failures,
            probe.scale())


def measure_importtime() -> dict:
    """Median cumulative import times from ``python -X importtime``."""
    found = {"martonlab": [], "martonlab.analysis": []}
    for _ in range(IMPORTTIME_REPEATS):
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import martonlab"],
                              cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        for line in proc.stderr.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in found:
                found[parts[2].strip()].append(int(parts[1]) / 1e6)
    if not all(found.values()):
        raise RuntimeError(f"python -X importtime did not report {sorted(found)}")
    return {name: statistics.median(v) for name, v in found.items()}


def run_workload(name: str, seed: int, seconds: float, trace: int) -> dict:
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT))
    try:
        result_file = workdir / "child_result.json"
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace), "--workdir", str(workdir),
               "--result", str(result_file)]
        proc = subprocess.run(cmd, cwd=ROOT, env=child_env(), capture_output=True, text=True,
                              timeout=CHILD_TIMEOUT_S)
        if proc.returncode != 0 or not result_file.exists():
            raise RuntimeError(f"{name}: child exited {proc.returncode}\n{proc.stderr[-2000:]}")
        res = json.loads(result_file.read_text(encoding="utf-8"))
        if trace:
            imports = measure_importtime()
            res["layers"]["martonlab.import_s"] = (imports["martonlab"], "s")
            res["layers"]["analysis.import_s"] = (imports["martonlab.analysis"], "s")
            res["metrics"] = {k: {"value": v, "unit": u, "samples": 1}
                              for k, (v, u) in res.pop("layers").items()}
        else:
            setup_times, scaled_setup, setup_failures, setup_scale = measure_setup(
                res["setup_config"], workdir)
            if not setup_times:
                raise RuntimeError(f"{name}: every set-up run failed: {setup_failures}")
            res["failures"] += setup_failures
            res["attempted"] += SETUP_REPEATS
            res["setup_times_s"] = setup_times
            res["scaled_setup_times_s"] = scaled_setup
            res["setup_speed_scale"] = setup_scale
            res["metrics"] = end_to_end(res, res["scaled_latencies_s"], scaled_setup)
            res["unscaled_metrics"] = end_to_end(res, res["latencies_s"], setup_times)
        res["failed"] = len(res["failures"])
        return res
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def end_to_end(res: dict, latencies: list, setup_times: list) -> dict:
    """The end-to-end metrics from operation and set-up times (in seconds)."""
    lat_ms = sorted(1000.0 * x for x in latencies)
    ops = len(lat_ms)
    wall = sum(latencies)
    return {
        "trials_per_s": {"value": res["trials"] / wall, "unit": "trials/s", "samples": ops},
        "runs_per_s": {"value": ops / wall, "unit": "runs/s", "samples": ops},
        "run_ms_p50": {"value": percentile(lat_ms, 50), "unit": "ms", "samples": ops},
        "run_ms_p95": {"value": percentile(lat_ms, 95), "unit": "ms", "samples": ops},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s",
                    "samples": len(setup_times)},
        "cpu_s": {"value": res["cpu_s"], "unit": "s", "samples": 1},
        "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB", "samples": 1},
    }


def print_table(res: dict) -> None:
    print(f"# {res['workload']}: {res['why']}")
    m = res["machine"]
    print(f"# seed {res['seed']}, nproc {m['nproc']}, {m['cpu_model']}, python {m['python']}, "
          f"numpy {m['numpy']}, scipy {m['scipy']}, {m['blas']}, "
          f"BLAS threads {m['blas_threads']}")
    if "speed_scale" in res:
        print(f"# mean speed scale {res['speed_scale']:.4f} over the timed phase "
              f"({len(res['kernel_s'])} kernel runs), {res['setup_speed_scale']:.4f} over "
              f"set-up; unscaled: " + ", ".join(f"{k} {m['value']:.6g}"
                                        for k, m in res["unscaled_metrics"].items()
                                        if k in ("trials_per_s", "run_ms_p50", "setup_s")))
    for key, metric in res["metrics"].items():
        print(f"{res['workload']:<14} {key:<34} {metric['value']:>16.6g} "
              f"{metric['unit']:<9} n={metric['samples']}")
    frac = res["failed"] / res["attempted"]
    print(f"{res['workload']:<14} {'failed_frac':<34} {frac:>16.6g} {'ratio':<9} "
          f"n={res['attempted']}")
    for failure in res["failures"][:5]:
        print(f"# FAILED op {failure['op']} (seed {failure.get('seed')}): "
              + " | ".join(failure["errors"])[:1000])


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=25)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds < 1:
        ap.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "martonlab" / "__init__.py").is_file():
        print(f"error: no martonlab source tree at {ROOT / 'src'}; "
              "run from the root of a source checkout", file=sys.stderr)
        return 2

    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = []
    for name in names:
        try:
            res = run_workload(name, args.seed, args.seconds, args.trace)
        except (RuntimeError, subprocess.TimeoutExpired) as e:
            print(f"error: {e}", file=sys.stderr)
            return 1
        print_table(res)
        stem = f"{name}-seed{args.seed}-trace{args.trace}"
        (OUT / f"{stem}.json").write_text(json.dumps(res, indent=1) + "\n", encoding="utf-8")
        results.append(res)

    prefix = len(results) > 1
    summary = {
        "correct": all(r["failed"] == 0 for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}.{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }
    print(json.dumps(summary))
    return 0 if summary["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
