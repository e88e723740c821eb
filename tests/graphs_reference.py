"""Pure-Python reference for the `Graph` constructor.

`ReferenceGraph` is the dict of sorted neighbour tuples that `Graph`
stored before its position arrays became its only form, built by the
same per-item loop, kept so tests can compare against it: the same ids,
neighbours, edge count and errors, and the position arrays that
adjacency gives.
"""

from __future__ import annotations

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
