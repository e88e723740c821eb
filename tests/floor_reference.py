"""Pure-Python references for the per-cluster floors.

These are the cluster-by-cluster loops that the attempt-major array pass
in `localround.mis.intra_round_mis` and
`localround.matching.intra_round_matching` replaced, kept so tests can
compare against them: the same values bit for bit, in the same order for
matching, the same claim counts, the same `stream` calls, and the same
cluster named when the retry budget runs out.  Each calls the `stream`
bound in this module, so a test can count its calls.
"""

from __future__ import annotations

import math
from typing import Mapping

from localround.clustering import Partition
from localround.errors import ClaimChecker, PreconditionError, RetryBudgetExceeded, geq, leq
from localround.graphs import Edge, Graph, Orientation
from localround.seeds import RETRIES, stream

from clustering_reference import cluster_degree, reference_partition
from graphs_reference import row_ids


def reference_intra_round_mis(
    h: Graph,
    partition: Partition,
    bound: float,
    seed: int,
    n_total: int | None,
    retries: int,
    checks: ClaimChecker,
    orientation: Orientation,
    witnesses: Mapping[int, tuple[int, ...]],
) -> dict[int, float]:
    if any(h.degree(u) == 0 for u in h.nodes):
        raise PreconditionError("isolated nodes belong in the output, not here")
    n = n_total if n_total is not None else h.n
    log_n = math.log2(max(2, n))
    deg_cutoff = 1000.0 * bound * log_n
    floor_value = 1.0 / (10000.0 * bound * log_n)
    ref = reference_partition(partition)
    max_cluster_deg = max((cluster_degree(h, ref, u) for u in h.nodes), default=0)
    if bound < max_cluster_deg:
        raise PreconditionError(
            f"bound {bound} below the measured cluster degree {max_cluster_deg}"
        )

    in_groups: dict[int, dict[int, list[int]]] = {}
    out_groups: dict[int, dict[int, list[int]]] = {}
    for v, members in witnesses.items():
        for u in members:
            in_groups.setdefault(ref.assignment[u], {}).setdefault(v, []).append(u)
    out_rows = {u: row_ids(h.nodes, orientation.out_csr(), u) for u in h.nodes}
    for u in h.nodes:
        for w in out_rows[u]:
            out_groups.setdefault(ref.assignment[w], {}).setdefault(u, []).append(w)

    slack = 1.0 / (100.0 * bound)
    out: dict[int, float] = {}
    for c in sorted(ref.clusters):
        members = sorted(ref.clusters[c])
        for attempt in range(retries):
            rng = stream(seed, "mis-intra", c, attempt)
            trial: dict[int, float] = {}
            for u in members:
                deg = h.degree(u)
                if deg <= deg_cutoff:
                    trial[u] = 1.0 / (10.0 * deg)
                else:
                    hit = rng.random() < 1000.0 * bound * log_n / deg
                    trial[u] = floor_value if hit else 0.0
            ok = True
            for v, group in in_groups.get(c, {}).items():
                inv = sum(1.0 / h.degree(u) for u in group)
                got = sum(trial[u] for u in group)
                if not (geq(got, inv / 20.0 - slack) and leq(got, inv / 5.0 + slack)):
                    ok = False
                    break
            if ok:
                for u, group in out_groups.get(c, {}).items():
                    inv = sum(1.0 / h.degree(w) for w in group)
                    got = sum(trial[w] for w in group)
                    if not leq(got, inv / 5.0 + slack):
                        ok = False
                        break
            if ok:
                checks.ok("intra-cluster-window", True)
                out.update(trial)
                break
        else:
            raise RetryBudgetExceeded(
                f"cluster {c} failed its windows {retries} times"
            )

    for v, members in witnesses.items():
        mass = sum(out[u] for u in members)
        checks.ok("witness-mass-window", geq(mass, 1.0 / 1000.0) and leq(mass, 1.0 / 3.0))
    for u in h.nodes:
        checks.ok("out-mass-cap", leq(sum(out[w] for w in out_rows[u]), 1.0 / 4.0))
    return out


def reference_intra_round_matching(
    g: Graph,
    partition: Partition,
    x_good: Mapping[Edge, float],
    bound: float,
    seed: int,
    n_total: int | None = None,
    retries: int = RETRIES,
    checks: ClaimChecker | None = None,
) -> dict[Edge, float]:
    checks = checks if checks is not None else ClaimChecker()
    n = n_total if n_total is not None else g.n
    log_n = math.log2(max(2, n))
    keep_threshold = 1.0 / (10000.0 * bound * log_n)
    floor_value = 1.0 / (50000.0 * bound * log_n)

    by_cluster: dict[int, list[Edge]] = {}
    assignment = reference_partition(partition).assignment
    for e in x_good:
        by_cluster.setdefault(assignment[max(e)], []).append(e)

    out: dict[Edge, float] = {}
    for c in sorted(by_cluster):
        cluster_edges = sorted(by_cluster[c])
        base: dict[int, float] = {}
        for a, b in cluster_edges:
            x = x_good[(a, b)]
            base[a] = base.get(a, 0.0) + x
            base[b] = base.get(b, 0.0) + x
        for attempt in range(retries):
            rng = stream(seed, "matching-intra", c, attempt)
            trial: dict[Edge, float] = {}
            for e in cluster_edges:
                x = x_good[e]
                if x >= keep_threshold:
                    trial[e] = x / 5.0
                else:
                    hit = rng.random() < x * 10000.0 * bound * log_n
                    trial[e] = floor_value if hit else 0.0
            sums: dict[int, float] = {}
            for (a, b), x in trial.items():
                sums[a] = sums.get(a, 0.0) + x
                sums[b] = sums.get(b, 0.0) + x
            slack = 1.0 / (1000.0 * bound)
            good = all(
                geq(sums[v], base[v] / 10.0 - slack)
                and leq(sums[v], base[v] / 2.0 + slack)
                for v in base
            )
            if good:
                checks.ok("intra-window", True)
                out.update(trial)
                break
        else:
            raise RetryBudgetExceeded(
                f"cluster {c} failed the per-node window {retries} times"
            )
    return out
