"""Pure-Python references for the partition arrays.

These are the dict forms that the label arrays of
`localround.clustering.Partition` replaced: the partition as per-node
dicts of frozensets, `delays_to_partition` growing it by a heap of ids,
and `cluster_constant`'s per-node weight check.  Tests compare the
arrays against them: the same clusters, assignment and delays, and the
same errors.  `reference_partition` reads a `Partition`'s arrays as
that dict form, and `grow` runs `delays_to_partition` on delays written
as a node -> delay dict.  The functions below that take a partition
read its dicts, so they take a `ReferencePartition`.
`reference_max_diameter` is `verify_partition`'s per-cluster loop over
induced subgraphs.  `cluster_degree` is the per-node count behind
`cluster_degrees`, and `nearby_active` the per-node search behind
`_all_nearby_active`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from heapq import heapify, heappop, heappush
from typing import Iterable, Mapping

import numpy as np

from localround.clustering import Partition, delays_to_partition
from localround.errors import PreconditionError, plain_sum
from localround.graphs import Graph, bfs_distances, induced_subgraph

from graphs_reference import node_mask


@dataclass
class ReferencePartition:
    """Disjoint clusters covering V, with per-cluster center and delays."""

    alpha: int
    clusters: dict[int, frozenset[int]]
    assignment: dict[int, int]
    delays: dict[int, int]
    meta: dict = field(default_factory=dict, repr=False, compare=False)


def reference_partition(part: Partition) -> ReferencePartition:
    """The dict form of a partition's arrays: label -> members, node ->
    label and node -> delay, each in increasing key order."""
    ids, labels = part.ids.tolist(), part.label.tolist()
    clusters: dict[int, set[int]] = {c: set() for c in sorted(set(labels))}
    for u, c in zip(ids, labels):
        clusters[c].add(u)
    return ReferencePartition(
        part.alpha,
        {c: frozenset(members) for c, members in clusters.items()},
        dict(zip(ids, labels)),
        dict(zip(ids, part.delay.tolist())),
        part.meta,
    )


def grow(g: Graph, delays: Mapping[int, int], alpha: int) -> Partition:
    """`delays_to_partition` of the delays node -> delay, given to it as
    the int array by position in `g.nodes` it takes; a node without a
    delay is a `KeyError`."""
    return delays_to_partition(g, np.array([delays[u] for u in g.nodes], np.int64), alpha)


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


def reference_max_diameter(g: Graph, partition) -> float:
    """The largest strong diameter of a cluster, cluster by cluster in
    label order, a search from every member inside the cluster's induced
    subgraph; infinite once a cluster is disconnected."""
    max_diameter = 0.0
    for c in sorted(partition.clusters):
        members = partition.clusters[c]
        sub = induced_subgraph(g, node_mask(g, members))
        for u in members:
            dist = bfs_distances(sub, u)
            if len(dist) < len(members):
                return math.inf
            max_diameter = max(max_diameter, max(dist.values()))
    return max_diameter


def cluster_degree(g: Graph, partition, u: int) -> int:
    """Number of clusters at hop distance <= 1 from u, read from the
    `assignment` dict."""
    seen = {partition.assignment[u]}
    for v in g.neighbors(u):
        seen.add(partition.assignment[v])
    return len(seen)


def nearby_active(g: Graph, u: int, active: Iterable[int], alpha: int) -> frozenset[int]:
    """Active nodes within min(d(u, active) + 2, 100*alpha) hops of u."""
    active, reach = frozenset(active), bfs_distances(g, u)
    dist = min((reach[v] for v in active if v in reach), default=None)
    if dist is None:
        return frozenset()
    return frozenset(v for v in bfs_distances(g, u, limit=min(dist + 2, 100 * alpha)) if v in active)
