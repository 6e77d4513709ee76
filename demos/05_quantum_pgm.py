"""Qubit-output broadcast channel decoded with a pretty good measurement.

Hilbert space dimension grows exponentially with blocklength, so
meaningful quantum rates are out of desk reach; what is checkable is
that each event rate stays under its closed-form value at small band
exponents. The first event bound is the interesting one here, the
other two clamp at 1 for parameters this small.
"""

import math

import numpy as np

from martonlab import (
    CqBroadcastChannel,
    InputDesign,
    JointPmf,
    RateParams,
    achieved_divergences,
    run_experiment,
)


def qubit_channel(theta=0.5):
    c, s = math.cos(theta), math.sin(theta)
    kb = {"0": np.array([[1, 0], [0, 0]], dtype=complex),
          "1": np.array([[c * c, c * s], [c * s, s * s]], dtype=complex)}
    kc = {"0": np.diag([0.85, 0.15]).astype(complex),
          "1": np.diag([0.30, 0.70]).astype(complex)}
    xs = ("00", "01", "10", "11")
    return CqBroadcastChannel(xs, 2, 2, [np.kron(kb[x[0]], kc[x[1]]) for x in xs])


def main():
    channel = qubit_channel()
    joint = JointPmf(("0", "1"), ("0", "1"), np.full((2, 2), 0.25))
    design = InputDesign(joint, {(u, v): u + v for u in "01" for v in "01"})

    eps0, eps_infty = 0.05, 0.25
    i0b, i0c, i_inf = achieved_divergences(channel, design, eps0, eps_infty)
    print(f"i0b={i0b:.4f} i0c={i0c:.4f} i_infty={i_inf:.4f}")

    params = RateParams(R1=1, R2=1, r1=6, r2=6, eps_tilde=0.125, eps0=eps0,
                        eps_infty=eps_infty, i0b=i0b, i0c=i0c, i_infty=i_inf)
    report = run_experiment(channel, design, params, trials=500, seed=42)
    print(f"\n{'event':<14} {'rate':>8} {'bound':>8}")
    for ev in report.events:
        bound = "-" if ev.bound is None else f"{ev.bound:.4f}"
        print(f"{ev.name:<14} {ev.rate:>8.4f} {bound:>8}")
    print(f"\nany bound violated: {report.any_violation}")


if __name__ == "__main__":
    main()
