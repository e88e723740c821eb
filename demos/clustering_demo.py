"""Low-diameter partitions three ways: randomized baseline, the
constant-fraction construction, and the all-nodes construction.

Run:  python3 demos/clustering_demo.py
"""

import math

import numpy as np

from localround import (
    RoundLedger,
    cluster_all,
    cluster_constant,
    mpx_randomized,
    verify_partition,
)
from localround.clustering import cluster_degrees
from localround.generators import gnp


def show(title, g, part, alpha, bound=None):
    report = verify_partition(g, part, alpha, bound)
    print(f"\n{title}")
    print(f"  clusters:            {report['num_clusters']}")
    print(f"  max strong diameter: {report['max_diameter']}  (allowed {100 * alpha})")
    print(f"  max cluster degree:  {report['max_cluster_degree']}")
    if bound is not None:
        print(f"  certified bound:     {bound}")
    print(f"  all checks ok:       {report['ok']}")


def main():
    g = gnp(300, 0.02, seed=7)
    alpha = max(1, math.ceil(math.sqrt(math.log2(g.n))))
    print(f"graph: n={g.n}, m={g.m}, alpha={alpha}")

    # randomized baseline: geometric delays via repeated subsampling
    degrees = []
    for seed in range(20):
        part = mpx_randomized(g, alpha, seed=seed)
        degrees.append(int(cluster_degrees(g, part).max()))
    print(f"\nrandomized baseline over 20 seeds:")
    print(f"  max cluster degree: min={min(degrees)} max={max(degrees)}")
    show("one baseline run in full", g, mpx_randomized(g, alpha, seed=0), alpha)

    # deterministic, all nodes certified
    ledger = RoundLedger()
    part = cluster_all(g, alpha, ledger)
    show("deterministic all-nodes construction", g, part, alpha, part.meta["degree_bound"])
    print(f"  simulated rounds:    {ledger.total}")
    for row in ledger.report()["rows"]:
        print(f"    {row['label']:18s} radius<={row['radius_max']:4d} rounds={row['rounds']}")

    # deterministic, 0.9 weighted fraction certified
    weights = np.array([max(1.0 / g.n, min(1.0, g.degree(u) / g.n)) for u in g.nodes])
    part = cluster_constant(g, alpha, weights)
    bound = part.meta["degree_bound"]
    good = cluster_degrees(g, part) <= bound
    frac = weights[good].sum() / weights.sum()
    show("deterministic constant-fraction construction", g, part, alpha, bound)
    print(f"  weighted good mass:  {frac:.3f} (certified >= 0.9)")


if __name__ == "__main__":
    main()
