"""A fixed reference kernel that measures how fast the host runs right now.

On a shared VM the same solve can take twice as long in one minute as in
the next, because other tenants load the caches and cores.  The
benchmark therefore times this kernel next to every solve and reports
solve times scaled to the host's speed at that moment.  The kernel is
pure Python dict and tuple work with random access over a few megabytes,
like the package's graph code, so it slows down with the package when the
host is loaded, and it never changes with the package.
"""

from __future__ import annotations

import random
from time import perf_counter

# nodes, neighbours per node and nodes visited per pass; the median pass
# of a run took 48-128 ms on a loaded 2-vCPU Xeon VM
NODES, DEGREE, VISITS = 40000, 8, 10000
# the pass time that defines a reference second: a time t measured next to
# a pass of length r is reported as t * REF_PASS_S / r
REF_PASS_S = 0.04


class Reference:
    def __init__(self) -> None:
        rng = random.Random("perfbench-reference")
        self.adj = {v: tuple(rng.randrange(NODES) for _ in range(DEGREE)) for v in range(NODES)}
        self.weight = {v: rng.random() for v in range(NODES)}
        self.order = rng.sample(range(NODES), VISITS)

    def run(self) -> float:
        """Seconds for one pass."""
        adj, weight = self.adj, self.weight
        start = perf_counter()
        acc = 0.0
        last = {}
        for x in self.order:
            for y in adj[x]:
                acc += weight[y]
                last[y] = x
        return perf_counter() - start


def scale(before: float, after: float) -> float:
    """Factor from wall seconds to reference seconds, for work timed
    between two passes."""
    return 2 * REF_PASS_S / (before + after)
