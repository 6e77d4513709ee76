"""Smooth order-zero and order-infinity divergences on small joints.

Walks through the three classical order-zero methods on a doubly
symmetric binary source, shows the order-infinity value with mass
thinning, and checks two structural facts: diagonal quantum states
reproduce the classical value, and an independent pair collapses to
-log2(1 - eps).
"""

import json
import math
from pathlib import Path

import numpy as np

from martonlab import JointPmf, classical_i0, classical_i_infty, quantum_i0_cq

DATA = Path(__file__).parent / "data"


def main():
    doc = json.loads((DATA / "dsbs40_joint.json").read_text())
    joint = JointPmf.from_json(doc)

    inf = classical_i_infty(joint, 0.25)
    print(f"order-infinity divergence at eps=0.25: {inf.value:.6f} bits")
    print(f"  witness: {inf.witness['kind']}")

    print("\norder-zero divergence, three methods, eps=0.25:")
    for method in ("greedy", "exhaustive", "randomized"):
        res = classical_i0(joint, 0.25, method)
        print(f"  {method:<11} {res.value:.6f}")

    # same distribution, but the conditionals stored as diagonal matrices
    p_u = joint.marginals()[0]
    cond = joint.probs / p_u[:, None]
    states = [np.diag(cond[u]).astype(complex) for u in range(2)]
    qres = quantum_i0_cq(p_u, states, 0.25)
    cres = classical_i0(joint, 0.25, "randomized")
    print(f"\ndiagonal embedding: quantum {qres.value:.9f} vs "
          f"classical randomized {cres.value:.9f}")

    pu = np.array([0.6, 0.4])
    pv = np.array([0.3, 0.7])
    indep = JointPmf(("0", "1"), ("a", "b"), np.outer(pu, pv))
    for eps in (0.1, 0.25, 0.5):
        got = classical_i0(indep, eps, "randomized").value
        print(f"independent pair, eps={eps}: {got:.6f} "
              f"(-log2(1-eps) = {-math.log2(1 - eps):.6f})")


if __name__ == "__main__":
    main()
