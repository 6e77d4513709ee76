"""Record the reference outputs of a workload for the default seed.

    python3 perfbench/make_reference.py --workload classical-n56

Runs every operation of one period of the workload at the default seed and
writes ``perfbench/reference/<workload>.json``: per operation the exact
counts (event hits, exit codes, codebook digests), and per configuration the
float outputs compared within the tolerance recorded in the file.  Record
references only at a commit whose results are known good; a change that is
meant to keep results must pass against the existing files.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    args = ap.parse_args()
    wl = workloads.WORKLOADS[args.workload]()
    seed = workloads.DEFAULT_SEED
    (HERE / "out").mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(dir=HERE / "out") as tmp:
        wl.setup(Path(tmp))
        counts, fixed = [], {}
        for i in range(wl.period):
            raw, _ = wl.run(i, seed)
            outcome = wl.outcome(i, raw)
            errors = workloads.outcome_errors(outcome)
            key = wl.fixed_key(i)
            if key in fixed:
                errors += workloads.mismatches(outcome["fixed"], fixed[key])
            if errors:
                print(f"operation {i}: {errors}", file=sys.stderr)
                return 1
            fixed[key] = outcome["fixed"]
            counts.append(outcome["counts"])
    doc = {"workload": wl.name, "seed": seed, "period": wl.period,
           "tolerance": {"rel": workloads.REL_TOL, "abs": workloads.ABS_TOL},
           "fixed": fixed, "counts": counts}
    workloads.REFERENCE_DIR.mkdir(exist_ok=True)
    path = workloads.REFERENCE_DIR / f"{wl.name}.json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n")
        head = {k: v for k, v in doc.items() if k != "counts"}
        for key, value in head.items():
            fh.write(f"{json.dumps(key)}: {json.dumps(value, sort_keys=True)},\n")
        fh.write('"counts": [\n')
        fh.write(",\n".join(json.dumps(c, sort_keys=True) for c in counts))
        fh.write("\n]}\n")
    print(f"wrote {path} ({len(counts)} operations)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
