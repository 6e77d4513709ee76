"""Mutual covering bound against a synthetic-moment simulation.

The bound 1/(alpha r s q) + (r+s)/(alpha^2 r s) caps the probability
that no (row, col) pair is jointly accepted. The synthetic model draws
per-cell indicators with exactly the first and second moments the
derivation uses, so the simulated miss rate has to respect the bound
at every grid point.
"""

from martonlab import CoveringParams, covering_bound, synthetic_covering

GRID = [
    (1024, 1024, 2.0 ** -10, 0.25),
    (512, 512, 2.0 ** -9, 0.25),
    (256, 256, 2.0 ** -8, 0.5),
    (128, 128, 2.0 ** -6, 0.25),
    (64, 64, 2.0 ** -5, 0.25),
]


def main():
    print(f"{'r':>5} {'s':>5} {'q':>10} {'alpha':>6} {'bound':>9} {'miss rate':>10}")
    for i, (r, s, q, alpha) in enumerate(GRID):
        p = CoveringParams(r=r, s=s, q=q, alpha=alpha)
        bound = min(1.0, covering_bound(p))
        est = synthetic_covering(p, trials=4000, seed=300 + i)
        print(f"{r:>5} {s:>5} {q:>10.6f} {alpha:>6.3f} "
              f"{bound:>9.5f} {est.estimate:>10.5f}")


if __name__ == "__main__":
    main()
