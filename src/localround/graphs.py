"""Immutable simple undirected graphs with integer node identifiers.

Adjacency is stored as sorted tuples keyed by node id, so every iteration
order downstream is deterministic.  Node ids are arbitrary non-negative
integers below 2**63; they need not be contiguous, which lets callers
exercise id-dependent tie-breaking.  `Graph.csr()` gives the same
adjacency as numpy arrays over node positions, built once per graph.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import chain, compress
from typing import Collection, Iterable, Iterator

import numpy as np

from .errors import ParseError, PreconditionError

MAX_ID_BITS = 63

Edge = tuple[int, int]


def _positions(
    nodes: tuple[int, ...], rows: Collection[tuple[int, ...]]
) -> tuple[np.ndarray, np.ndarray]:
    """(indptr, indices) of one id tuple per node of the sorted `nodes`,
    each id replaced by its position in `nodes`."""
    n = len(nodes)
    indptr = np.zeros(n + 1, np.intp)
    np.cumsum(np.fromiter(map(len, rows), np.intp, n), out=indptr[1:])
    flat = np.fromiter(chain.from_iterable(rows), np.int64, indptr[-1])
    return indptr, np.searchsorted(np.fromiter(nodes, np.int64, n), flat).astype(np.int32)


class Graph:
    """Undirected simple graph, immutable after construction."""

    __slots__ = ("_adj", "_nodes", "_m", "_csr")

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
        self._csr: tuple[np.ndarray, np.ndarray] | None = None

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
        g._csr = None
        return g

    @classmethod
    def _from_csr(
        cls, nodes: tuple[int, ...], indptr: np.ndarray, indices: np.ndarray
    ) -> "Graph":
        """Trusted constructor from position arrays laid out as `csr()`
        over the sorted `nodes`: rows symmetric, sorted and loop-free.
        The tuples hold the given id objects, gathered from an object
        array, so no new ints are allocated; the arrays are kept as the
        graph's `csr()`."""
        ids = np.empty(len(nodes), object)
        ids[:] = nodes
        nbrs, ends = ids[indices].tolist(), indptr.tolist()
        g = cls._from_sorted_adj(
            {u: tuple(nbrs[ends[i] : ends[i + 1]]) for i, u in enumerate(nodes)}
        )
        g._csr = (indptr, indices)
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

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency by position in `nodes`: the neighbours of nodes[i] are
        nodes[j] for j in indices[indptr[i]:indptr[i + 1]], increasing.
        Built on first use and kept; the graph is immutable."""
        if self._csr is None:
            self._csr = _positions(self._nodes, self._adj.values())
        return self._csr

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


def distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, increasing; sorts `codes`
    in place, then masks repeats.  `np.unique` gives the same, but on the
    653k codes of `square_graph` on an n=8192 average-degree-8 graph it
    took 0.49-0.62 s under numpy 2.4.6, against 10 ms for sort plus
    mask."""
    codes.sort()
    fresh = np.empty(len(codes), bool)
    fresh[:1] = True
    np.not_equal(codes[1:], codes[:-1], out=fresh[1:])
    return codes[fresh]


def square_graph(g: Graph) -> Graph:
    """Graph joining every pair of distinct nodes at distance <= 2 in g.

    Built as arrays over node positions: every edge (a, v) and every path
    a - v - w becomes the int64 code a * n + w; the distinct codes with
    a != w, grouped by a and sorted by w, are the sorted adjacency the
    result needs, which it also keeps as its `csr()`.
    """
    n = g.n
    indptr, nbr = g.csr()
    deg = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int32), deg)
    # a path a - v - w for every directed edge (a, v) and every w in N(v)
    reach = deg[nbr]
    first = np.cumsum(reach) - reach
    far = nbr[np.repeat(indptr[nbr] - first, reach) + np.arange(reach.sum())]
    codes = np.concatenate((src, np.repeat(src, reach))).astype(np.int64) * n
    codes += np.concatenate((nbr, far))
    codes = distinct(codes)
    row = codes // n
    col = codes - row * n
    pair = row != col
    sq_indptr = np.searchsorted(row[pair], np.arange(n + 1))
    return Graph._from_csr(g.nodes, sq_indptr, col[pair].astype(np.int32))


def edge_subgraph(g: Graph, a: np.ndarray, b: np.ndarray) -> Graph:
    """The graph on the distinct edges {nodes[a[k]], nodes[b[k]]} of g,
    given by position, without isolated nodes: what `Graph(edges=...)`
    builds from their ids, but built as arrays the way `square_graph`
    builds its result."""
    n = g.n
    codes = np.concatenate((a, b)).astype(np.int64) * n + np.concatenate((b, a))
    codes.sort()
    row = codes // n
    deg = np.bincount(row, minlength=n)
    kept = deg > 0
    indptr = np.zeros(np.count_nonzero(kept) + 1, np.intp)
    np.cumsum(deg[kept], out=indptr[1:])
    position = (np.cumsum(kept) - 1).astype(np.int32)
    nodes = tuple(compress(g.nodes, kept.tolist()))
    return Graph._from_csr(nodes, indptr, position[codes - row * n])


def edge_ends(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The endpoint positions (a, b), a < b, of every edge of g in
    `g.edges()` order: the entries of `csr()` above the diagonal, row by
    row."""
    indptr, nbr = g.csr()
    row = np.repeat(np.arange(g.n, dtype=np.intp), np.diff(indptr))
    upper = nbr > row
    return row[upper], nbr[upper].astype(np.intp)


def node_positions(g: Graph, ids: Iterable[int], count: int) -> np.ndarray:
    """The position in `g.nodes` of each of the `count` ids; an id that is
    not a node of g is a `PreconditionError`."""
    try:
        want = np.fromiter(ids, np.int64, count)
    except OverflowError:
        raise PreconditionError(f"node id outside [0, 2^{MAX_ID_BITS})") from None
    nodes = np.fromiter(g.nodes, np.int64, g.n)
    at = np.searchsorted(nodes, want)
    known = at < g.n
    known[known] = nodes[at[known]] == want[known]
    if not known.all():
        raise PreconditionError(f"unknown node {want[np.argmin(known)]}")
    return at


def csr_contains(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, cols: np.ndarray
) -> np.ndarray:
    """Whether cols[k] is in row rows[k] of a position adjacency laid out
    as `Graph.csr()`, for every k: the codes row * n + column of sorted
    rows are sorted, so one binary search per pair decides it."""
    n = len(indptr) - 1
    codes = np.repeat(np.arange(n, dtype=np.int64) * n, np.diff(indptr)) + indices
    want = rows.astype(np.int64) * n + cols
    slot = np.searchsorted(codes, want)
    hit = slot < len(codes)
    hit[hit] = codes[slot[hit]] == want[hit]
    return hit


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

    __slots__ = ("_out", "_in", "_nodes", "_out_csr")

    def __init__(self, g: Graph):
        key = {u: (g.degree(u), u) for u in g.nodes}
        self._nodes = g.nodes
        self._out_csr: tuple[np.ndarray, np.ndarray] | None = None
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

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours by node position, laid out as `Graph.csr`.
        Built on first use and kept."""
        if self._out_csr is None:
            self._out_csr = _positions(self._nodes, self._out.values())
        return self._out_csr


def orient(g: Graph) -> Orientation:
    return Orientation(g)
