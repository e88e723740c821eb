"""Pure-Python references for the fractional stage of the matching
pipeline.

These are the dict loops that the edge arrays in
`localround.matching.fractional_matching`, `FractionalMatching`'s loads
and `good_edges` replaced, kept so tests can compare against them: the
same values bit for bit, in the same key order, and the same claim
counts.  `loads` reads a `FractionalMatching`'s loads back as that dict,
`values` its edge values as the edge -> value dict, `from_values` builds
one from such a dict, and `is_matching` checks that no two edges share an
endpoint.  `reference_greedy_maximal_matching` is the one-edge-at-a-time
scan that `greedy_maximal_matching` decides in rounds.
"""

from __future__ import annotations

import math
from itertools import chain
from typing import Mapping

import numpy as np

from localround.clustering import Partition
from localround.errors import ClaimChecker, PreconditionError
from localround.graphs import Edge, Graph, edge_ends
from localround.matching import FractionalMatching

from clustering_reference import cluster_degree, reference_partition
from graphs_reference import csr_contains, node_positions


def reference_loads(values: dict[Edge, float]) -> dict[int, float]:
    out: dict[int, float] = {}
    for (a, b), x in values.items():
        out[a] = out.get(a, 0.0) + x
        out[b] = out.get(b, 0.0) + x
    return out


def from_values(g: Graph, values: Mapping[Edge, float]) -> FractionalMatching:
    """An edge -> value mapping as arrays over g's nodes, the edges in
    the mapping's order.  A key that is not an edge (a, b) of g with
    a < b, or that holds an unknown node or an id of 2^63 or more, is a
    `PreconditionError`; the values are taken as given."""
    edges = list(values)
    ends = node_positions(g.nodes, chain.from_iterable(edges), 2 * len(edges))
    a, b = ends[0::2], ends[1::2]
    canonical = (a < b) & csr_contains(*g.csr(), a, b)
    if not canonical.all():
        bad = edges[canonical.argmin()]
        raise PreconditionError(f"{bad} is not an edge (a, b) of g with a < b")
    return FractionalMatching(g.nodes, a, b, np.fromiter(values.values(), float, len(edges)))


def values(frac: FractionalMatching) -> dict[Edge, float]:
    """The edge -> value dict of `frac`, in edge order."""
    node = frac.nodes.__getitem__
    keys = zip(map(node, frac.a.tolist()), map(node, frac.b.tolist()))
    return dict(zip(keys, frac.x.tolist()))


def loads(frac) -> dict[int, float]:
    """`frac.position_loads()` keyed by node id, in id order."""
    return dict(zip(frac.nodes, frac.position_loads().tolist()))


def reference_greedy_maximal_matching(g: Graph) -> frozenset[Edge]:
    """Maximal matching by scanning edges in sorted order, read as the
    endpoint positions of `edge_ends`."""
    a, b = edge_ends(g)
    used = bytearray(g.n)
    chosen: list[tuple[int, int]] = []
    for i, j in zip(a.tolist(), b.tolist()):
        if not used[i] and not used[j]:
            used[i] = used[j] = 1
            chosen.append((i, j))
    node = g.nodes.__getitem__
    return frozenset((node(i), node(j)) for i, j in chosen)


def is_matching(edges) -> bool:
    """Whether no two of `edges` share an endpoint and none is a loop."""
    seen: set[int] = set()
    for a, b in edges:
        if a in seen or b in seen or a == b:
            return False
        seen.add(a)
        seen.add(b)
    return True


def reference_fractional_matching(g: Graph, checks: ClaimChecker) -> dict[Edge, float]:
    if any(g.degree(u) == 0 for u in g.nodes):
        raise PreconditionError("strip isolated nodes before matching")
    if g.m == 0:
        return {}
    delta = g.max_degree()
    edges = list(g.edges())
    # value of edge e is 2**exponent[e] / delta
    exponent: dict[Edge, int] = {e: 0 for e in edges}
    iterations = math.ceil(math.log2(delta)) if delta > 1 else 0
    for _ in range(iterations):
        numer = {u: 0 for u in g.nodes}
        for (a, b), t in exponent.items():
            numer[a] += 1 << t
            numer[b] += 1 << t
        for e in edges:
            a, b = e
            if 2 * numer[a] <= delta and 2 * numer[b] <= delta:
                exponent[e] += 1
    numer = {u: 0 for u in g.nodes}
    for (a, b), t in exponent.items():
        numer[a] += 1 << t
        numer[b] += 1 << t
    checks.ok(
        "fractional-loads",
        all(x <= delta for x in numer.values()),
        "a node load exceeds 1",
    )
    checks.ok(
        "fractional-saturation",
        all(2 * numer[a] > delta or 2 * numer[b] > delta for a, b in edges),
        "an edge kept both endpoints at load <= 1/2 after all doublings",
    )
    return {e: (1 << t) / delta for e, t in exponent.items()}


def reference_good_edges(
    g: Graph, partition: Partition, bound: float
) -> tuple[frozenset[int], tuple[Edge, ...]]:
    ref = reference_partition(partition)
    good_nodes = frozenset(u for u in g.nodes if cluster_degree(g, ref, u) <= bound)
    edges = tuple(e for e in g.edges() if e[0] in good_nodes and e[1] in good_nodes)
    return good_nodes, edges
