"""Immutable simple undirected graphs with integer node identifiers.

Adjacency is stored as sorted tuples keyed by node id, so every iteration
order downstream is deterministic.  Node ids are arbitrary non-negative
integers below 2**63; they need not be contiguous, which lets callers
exercise id-dependent tie-breaking.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from typing import Iterable, Iterator

from .errors import ParseError

MAX_ID_BITS = 63

Edge = tuple[int, int]


class Graph:
    """Undirected simple graph, immutable after construction."""

    __slots__ = ("_adj", "_nodes", "_m")

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[Edge] = ()):
        adj: dict[int, set[int]] = {}
        for u in nodes:
            adj.setdefault(self._check_id(int(u)), set())
        for u, v in edges:
            u, v = self._check_id(int(u)), self._check_id(int(v))
            if u == v:
                raise ValueError(f"self-loop at node {u}")
            adj.setdefault(u, set()).add(v)
            adj.setdefault(v, set()).add(u)
        self._nodes: tuple[int, ...] = tuple(sorted(adj))
        self._adj: dict[int, tuple[int, ...]] = {
            u: tuple(sorted(adj[u])) for u in self._nodes
        }
        self._m = sum(len(a) for a in self._adj.values()) // 2

    @staticmethod
    def _check_id(u: int) -> int:
        if u < 0 or u.bit_length() > MAX_ID_BITS:
            raise ValueError(f"node id {u} outside [0, 2^{MAX_ID_BITS})")
        return u

    @classmethod
    def _from_sorted_adj(cls, adj: dict[int, tuple[int, ...]]) -> "Graph":
        """Trusted constructor: adj must be symmetric, sorted, loop-free."""
        g = cls.__new__(cls)
        g._nodes = tuple(sorted(adj))
        g._adj = {u: adj[u] for u in g._nodes}
        g._m = sum(len(a) for a in adj.values()) // 2
        return g

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def m(self) -> int:
        return self._m

    @property
    def b(self) -> int:
        """Identifier bit width: ceil(log2(max id + 1)), at least 1."""
        return max((u.bit_length() for u in self._nodes), default=1) or 1

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    def __contains__(self, u: int) -> bool:
        return u in self._adj

    def neighbors(self, u: int) -> tuple[int, ...]:
        return self._adj[u]

    def degree(self, u: int) -> int:
        return len(self._adj[u])

    def max_degree(self) -> int:
        return max((len(a) for a in self._adj.values()), default=0)

    def has_edge(self, u: int, v: int) -> bool:
        a = self._adj.get(u)
        if a is None:
            return False
        i = bisect_left(a, v)
        return i < len(a) and a[i] == v

    def edges(self) -> Iterator[Edge]:
        """All edges in canonical form, sorted."""
        for u in self._nodes:
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def __eq__(self, other: object) -> bool:
        return isinstance(other, Graph) and self._adj == other._adj

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self._nodes, tuple(self._adj[u] for u in self._nodes)))

    def __repr__(self) -> str:
        return f"Graph(n={self.n}, m={self.m})"


def load_graph(text: str) -> Graph:
    """Parse an edge-list document: one "u v" pair per line, '#' comments.

    Raises ParseError (naming the line) on malformed lines, self-loops,
    negative ids, or ids needing more than 63 bits.
    """
    edges: list[Edge] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        if len(parts) != 2:
            raise ParseError(f"line {lineno}: expected two integers, got {raw!r}")
        try:
            u, v = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"line {lineno}: non-integer token in {raw!r}") from exc
        if u == v:
            raise ParseError(f"line {lineno}: self-loop at node {u}")
        if min(u, v) < 0 or max(u, v).bit_length() > MAX_ID_BITS:
            raise ParseError(f"line {lineno}: node id outside [0, 2^63)")
        edges.append((u, v))
    return Graph(edges=edges)


def dump_edge_list(g: Graph) -> str:
    """Serialize edges in canonical sorted order ('u v' per line).

    Isolated nodes are not representable in this format.
    """
    return "".join(f"{u} {v}\n" for u, v in g.edges())


def bfs_distances(
    g: Graph, sources: Iterable[int] | int, limit: int | None = None
) -> dict[int, int]:
    """Hop distances from the closest source, truncated at `limit`."""
    if isinstance(sources, int):
        sources = (sources,)
    dist: dict[int, int] = {}
    queue: deque[int] = deque()
    for s in sources:
        if s not in g:
            raise KeyError(f"unknown node {s}")
        if s not in dist:
            dist[s] = 0
            queue.append(s)
    while queue:
        u = queue.popleft()
        d = dist[u]
        if limit is not None and d >= limit:
            continue
        for v in g.neighbors(u):
            if v not in dist:
                dist[v] = d + 1
                queue.append(v)
    return dist


def ball(g: Graph, u: int, r: int) -> Graph:
    """Induced subgraph on the nodes at hop distance <= r from u."""
    if u not in g:
        raise KeyError(f"unknown node {u}")
    if r < 0:
        raise ValueError("radius must be >= 0")
    return induced_subgraph(g, bfs_distances(g, u, limit=r).keys())


def induced_subgraph(g: Graph, keep: Iterable[int]) -> Graph:
    """Subgraph on `keep` with all original edges among those nodes."""
    s = set(keep)
    for u in s:
        if u not in g:
            raise KeyError(f"unknown node {u}")
    adj = {
        u: tuple(v for v in g.neighbors(u) if v in s) for u in sorted(s)
    }
    return Graph._from_sorted_adj(adj)


def strip_isolated(g: Graph) -> Graph:
    return induced_subgraph(g, (u for u in g.nodes if g.degree(u) > 0))


def two_hop_sets(g: Graph) -> dict[int, frozenset[int]]:
    """For each node u, the nodes at hop distance <= 2 (including u)."""
    out: dict[int, frozenset[int]] = {}
    for u in g.nodes:
        acc = {u, *g.neighbors(u)}
        for v in g.neighbors(u):
            acc.update(g.neighbors(v))
        out[u] = frozenset(acc)
    return out


def square_graph(g: Graph) -> Graph:
    """Graph joining every pair of distinct nodes at distance <= 2 in g."""
    reach = two_hop_sets(g)
    adj = {u: tuple(sorted(reach[u] - {u})) for u in g.nodes}
    return Graph._from_sorted_adj(adj)


def connected_components(g: Graph) -> list[frozenset[int]]:
    seen: set[int] = set()
    comps: list[frozenset[int]] = []
    for u in g.nodes:
        if u in seen:
            continue
        comp = bfs_distances(g, u).keys()
        seen |= comp
        comps.append(frozenset(comp))
    return comps


class Orientation:
    """Acyclic edge orientation by increasing (degree, id).

    The edge {u, v} points u -> v exactly when (deg(u), id(u)) is
    lexicographically smaller than (deg(v), id(v)); ids are unique, so
    every edge is oriented exactly once and the orientation is acyclic.
    """

    __slots__ = ("_out", "_in")

    def __init__(self, g: Graph):
        key = {u: (g.degree(u), u) for u in g.nodes}
        self._out: dict[int, tuple[int, ...]] = {}
        self._in: dict[int, tuple[int, ...]] = {}
        for u in g.nodes:
            ku = key[u]
            self._out[u] = tuple(v for v in g.neighbors(u) if key[v] > ku)
            self._in[u] = tuple(v for v in g.neighbors(u) if key[v] < ku)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return self._in[u]


def orient(g: Graph) -> Orientation:
    return Orientation(g)
