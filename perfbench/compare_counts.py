"""Compare the per-operation counts of two benchmark result files.

    python3 perfbench/compare_counts.py perfbench/out/A.json perfbench/out/B.json

Both files must come from the same workload and seed, for example from two
commits.  Operations present in both are compared count for count; the exit
code is 1 if any differs.
"""

from __future__ import annotations

import json
import sys


def main(argv) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    a, b = (json.load(open(path, encoding="utf-8")) for path in argv)
    if (a["workload"], a["seed"]) != (b["workload"], b["seed"]):
        print(f"different runs: {a['workload']}/{a['seed']} vs {b['workload']}/{b['seed']}",
              file=sys.stderr)
        return 2
    ops_a = {entry["op"]: entry["counts"] for entry in a["counts"]}
    ops_b = {entry["op"]: entry["counts"] for entry in b["counts"]}
    common = sorted(set(ops_a) & set(ops_b))
    differ = [op for op in common if ops_a[op] != ops_b[op]]
    for op in differ[:10]:
        print(f"op {op}: {ops_a[op]} != {ops_b[op]}")
    print(f"{a['workload']} seed {a['seed']}: {len(common)} operations in both, "
          f"{len(differ)} differ")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
