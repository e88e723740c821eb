"""Immutable simple undirected graphs with integer node identifiers.

Adjacency is stored as sorted tuples keyed by node id, so every iteration
order downstream is deterministic.  Node ids are arbitrary non-negative
integers below 2**63; they need not be contiguous, which lets callers
exercise id-dependent tie-breaking.  `Graph.csr()` gives the same
adjacency as numpy arrays over node positions, built once per graph;
the derived structures (`Orientation`, `induced_subgraph`,
`square_graph`) are built from those arrays, not node by node.
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


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a position adjacency laid out as
    `Graph.csr()`."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.intp), np.diff(indptr))


def _select(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a position adjacency where `keep` is set, each row
    keeping its order, laid out the same way over the same rows."""
    sub_ptr = np.zeros(len(indptr), np.intp)
    np.cumsum(np.bincount(rows[keep], minlength=len(indptr) - 1), out=sub_ptr[1:])
    return sub_ptr, indices[keep]


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


def induced_subgraph(g: Graph, keep: Iterable[int] | np.ndarray) -> Graph:
    """Subgraph on `keep` with all original edges among those nodes.

    `keep` is a collection of node ids, or a boolean mask over `g.nodes`.
    Built as arrays from `g.csr()`: the entries whose two ends are kept,
    renumbered to positions among the kept nodes.
    """
    if isinstance(keep, np.ndarray) and keep.dtype == bool:
        if keep.shape != (g.n,):
            raise ValueError(f"mask of shape {keep.shape} over {g.n} nodes")
        mask = keep
    else:
        s = set(keep)
        for u in s:
            if u not in g:
                raise KeyError(f"unknown node {u}")
        mask = np.fromiter(map(s.__contains__, g.nodes), bool, g.n)
    indptr, nbr = g.csr()
    rows = csr_rows(indptr)
    position = np.cumsum(mask) - 1
    kept = mask[rows] & mask[nbr]
    count = int(position[-1]) + 1 if g.n else 0
    sub_ptr = np.zeros(count + 1, np.intp)
    np.cumsum(np.bincount(position[rows[kept]], minlength=count), out=sub_ptr[1:])
    nodes = tuple(compress(g.nodes, mask.tolist()))
    return Graph._from_csr(nodes, sub_ptr, position[nbr[kept]].astype(np.int32))


def strip_isolated(g: Graph) -> Graph:
    return induced_subgraph(g, np.diff(g.csr()[0]) > 0)


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


def first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of `codes` in order of first occurrence, and the
    index of each element's value among them."""
    order = np.argsort(codes, kind="stable")
    ranked = codes[order]
    new = np.empty(len(codes), bool)
    new[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=new[1:])
    first = order[new]  # stable: the earliest element of each value
    rank = np.empty(len(first), np.intp)
    rank[np.argsort(first)] = np.arange(len(first))
    inverse = np.empty(len(codes), np.intp)
    inverse[order] = rank[np.cumsum(new) - 1]
    return codes[np.sort(first)], inverse


def square_graph(g: Graph) -> Graph:
    """Graph joining every pair of distinct nodes at distance <= 2 in g.

    Built as arrays over node positions: every edge (a, v) and every path
    a - v - w becomes the int64 code a * n + w; the distinct codes with
    a != w, grouped by a and sorted by w, are the sorted adjacency the
    result needs, which it also keeps as its `csr()`.
    """
    # each stage's arrays are freed with its helper's frame, before the
    # next stage's are built: alive together, they would be most of an
    # MIS solve's peak memory
    return Graph._from_csr(g.nodes, *_square_csr(g))


def _square_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The position adjacency of `square_graph(g)`, laid out as `csr()`."""
    row, col = np.divmod(distinct(_path_codes(g)), g.n)
    pair = row != col
    return np.searchsorted(row[pair], np.arange(g.n + 1)), col[pair].astype(np.int32)


def _path_codes(g: Graph) -> np.ndarray:
    """a * n + w for every directed edge (a, w) of g, then for every path
    a - v - w, each directed edge (a, v) followed by w in N(v)."""
    n = g.n
    indptr, nbr = g.csr()
    deg = np.diff(indptr)
    src = np.repeat(np.arange(n, dtype=np.int32), deg)
    reach = deg[nbr]
    hop = np.repeat(indptr[nbr] - (np.cumsum(reach) - reach), reach)
    hop += np.arange(len(hop))
    codes = np.concatenate((src, np.repeat(src, reach))).astype(np.int64)
    codes *= n
    codes += np.concatenate((nbr, nbr[hop]))
    return codes


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
    row = csr_rows(indptr)
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

    Held as two position adjacencies laid out as `Graph.csr()`, one of
    out-neighbours and one of in-neighbours, each row increasing: the
    entries of g's rows that the rule sends out of, or into, the node.
    """

    __slots__ = ("_nodes", "_out_csr", "_in_csr")

    def __init__(self, g: Graph):
        indptr, nbr = g.csr()
        deg = np.diff(indptr)
        row = csr_rows(indptr)
        # positions follow ids, so (degree, position) orders as (degree, id)
        out = (deg[nbr] > deg[row]) | ((deg[nbr] == deg[row]) & (nbr > row))
        self._nodes = g.nodes
        self._out_csr = _select(indptr, nbr, row, out)
        self._in_csr = _select(indptr, nbr, row, ~out)

    def _view(self, csr: tuple[np.ndarray, np.ndarray], u: int) -> tuple[int, ...]:
        i = bisect_left(self._nodes, u)
        if i == len(self._nodes) or self._nodes[i] != u:
            raise KeyError(u)
        indptr, indices = csr
        return tuple(self._nodes[j] for j in indices[indptr[i] : indptr[i + 1]].tolist())

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return self._view(self._out_csr, u)

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return self._view(self._in_csr, u)

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours by node position, laid out as `Graph.csr`."""
        return self._out_csr

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-neighbours by node position, laid out as `Graph.csr`."""
        return self._in_csr


def orient(g: Graph) -> Orientation:
    return Orientation(g)
