"""Pure-Python references for the `Graph` constructor and `two_hop_sets`.

`ReferenceGraph` is the dict of sorted neighbour tuples that `Graph`
stored before its position arrays became its only form, built by the
same per-item loop, kept so tests can compare against it: the same ids,
neighbours, edge count and errors, and the position arrays that
adjacency gives.  `reference_two_hop_sets` is the nested loop over
neighbours of neighbours that `two_hop_sets` replaced with the square
graph.  `row_ids` reads one node's row of a position adjacency as ids,
the way tests read an `Orientation`'s out- and in-neighbours, and
`id_bits` gives a graph's identifier bit width.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Iterable

import numpy as np

from localround.graphs import MAX_ID_BITS


def _check_id(u: int) -> int:
    if u < 0 or u.bit_length() > MAX_ID_BITS:
        raise ValueError(f"node id {u} outside [0, 2^{MAX_ID_BITS})")
    return u


class ReferenceGraph:
    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[tuple[int, int]] = ()):
        adj: dict[int, set[int]] = {}
        for u in nodes:
            adj.setdefault(_check_id(int(u)), set())
        for u, v in edges:
            u, v = _check_id(int(u)), _check_id(int(v))
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self.nodes: tuple[int, ...] = tuple(sorted(adj))
        self.adj: dict[int, tuple[int, ...]] = {u: tuple(sorted(adj[u])) for u in self.nodes}
        self.m = sum(len(a) for a in self.adj.values()) // 2

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """The neighbour tuples with every id replaced by its position in
        `nodes`, laid out as `Graph.csr()`."""
        index = {u: i for i, u in enumerate(self.nodes)}
        indptr = np.zeros(len(self.nodes) + 1, np.intp)
        np.cumsum([len(self.adj[u]) for u in self.nodes], out=indptr[1:])
        indices = [index[v] for u in self.nodes for v in self.adj[u]]
        return indptr, np.array(indices, np.int32)

    def edges(self) -> list[tuple[int, int]]:
        return [(u, v) for u in self.nodes for v in self.adj[u] if u < v]


def same_csr(g, expected: tuple[np.ndarray, np.ndarray]) -> bool:
    """Whether g's position arrays hold exactly `expected`."""
    return all(np.array_equal(a, b) for a, b in zip(g.csr(), expected))


def reference_two_hop_sets(g) -> dict[int, frozenset[int]]:
    """For each node u of g, the nodes at hop distance <= 2 (u included)."""
    out: dict[int, frozenset[int]] = {}
    for u in g.nodes:
        acc = {u, *g.neighbors(u)}
        for v in g.neighbors(u):
            acc.update(g.neighbors(v))
        out[u] = frozenset(acc)
    return out


def id_bits(g) -> int:
    """Identifier bit width: ceil(log2(max id + 1)), at least 1."""
    return max((u.bit_length() for u in g.nodes), default=1) or 1


def row_ids(nodes: tuple[int, ...], csr: tuple[np.ndarray, np.ndarray], u: int) -> tuple[int, ...]:
    """The ids in node u's row of a position adjacency laid out as
    `Graph.csr()` over the increasing ids `nodes`: u's out-neighbours
    for an orientation's `out_csr()`, its in-neighbours for `in_csr()`."""
    i = bisect_left(nodes, u)
    if i == len(nodes) or nodes[i] != u:
        raise KeyError(u)
    indptr, indices = csr
    return tuple(nodes[j] for j in indices[indptr[i] : indptr[i + 1]].tolist())
