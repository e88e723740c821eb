"""Pure-Python references for the partition arrays.

These are the dict forms that the label arrays of
`localround.clustering.Partition` replaced: the partition as per-node
dicts of frozensets, `delays_to_partition` growing it by a heap of ids,
`restrict` rebuilding it, and `cluster_constant`'s per-node weight
check.  Tests compare the arrays against them: the same clusters,
assignment and delays, and the same errors.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

from localround.errors import PreconditionError, plain_sum
from localround.graphs import Graph


@dataclass
class ReferencePartition:
    """Disjoint clusters covering V, with per-cluster center and delays."""

    alpha: int
    clusters: dict[int, frozenset[int]]
    assignment: dict[int, int]
    delays: dict[int, int]
    meta: dict = field(default_factory=dict, repr=False, compare=False)

    def restrict(self, keep: Iterable[int]) -> "ReferencePartition":
        keep = set(keep)
        clusters = {}
        for c, members in self.clusters.items():
            inside = members & keep
            if inside:
                clusters[c] = frozenset(inside)
        return ReferencePartition(
            self.alpha,
            clusters,
            {u: c for u, c in self.assignment.items() if u in keep},
            {u: d for u, d in self.delays.items() if u in keep},
        )


def reference_delays_to_partition(
    g: Graph, delays: Mapping[int, int], alpha: int
) -> ReferencePartition:
    missing = [u for u in g.nodes if u not in delays]
    if missing:
        raise PreconditionError(f"delays missing for nodes {missing[:5]}")
    if len({int(delays[v]) for v in g.nodes}) <= 1:
        assignment = {u: u for u in g.nodes}
    else:
        assignment = {}
        heap = [(int(delays[v]), v, v) for v in g.nodes]
        heapify(heap)
        while heap:
            t, c, u = heappop(heap)
            if u in assignment:
                continue
            assignment[u] = c
            for w in g.neighbors(u):
                if w not in assignment:
                    heappush(heap, (t + 1, c, w))
    clusters: dict[int, set[int]] = {}
    for u, c in assignment.items():
        clusters.setdefault(c, set()).add(u)
    for c in clusters:
        if assignment[c] != c:
            raise AssertionError(f"center {c} assigned to {assignment[c]}")
    return ReferencePartition(
        alpha,
        {c: frozenset(members) for c, members in clusters.items()},
        assignment,
        {u: int(delays[u]) for u in g.nodes},
    )


def reference_cluster_ranks(g: Graph, partition) -> tuple[list[int], list[int]]:
    """The increasing labels of g's clusters and each node's index among
    them, from the assignment dict."""
    for u in g.nodes:
        if u not in partition.assignment:
            raise PreconditionError(f"partition does not cover node {u}")
    labels = sorted({partition.assignment[u] for u in g.nodes})
    index = {c: i for i, c in enumerate(labels)}
    return labels, [index[partition.assignment[u]] for u in g.nodes]


def reference_weight_check(g: Graph, weights: Mapping[int, float]) -> float:
    """`cluster_constant`'s weight check and total: node by node, a
    missing node raises `KeyError`, a weight outside [1/n, 1] a
    `PreconditionError`."""
    n = g.n
    for u in g.nodes:
        w = weights[u]
        if not (1.0 / n - 1e-12 <= w <= 1.0 + 1e-12):
            raise PreconditionError(f"weight {w} at node {u} outside [1/n, 1]")
    return plain_sum(weights[u] for u in g.nodes)
