"""Immutable simple undirected graphs with integer node identifiers.

A graph stores its node ids as one increasing tuple and its adjacency as
position arrays, `Graph.csr()`: the neighbours of nodes[i] are nodes[j]
for j in indices[indptr[i]:indptr[i + 1]], increasing.  That is its only
stored form, so every iteration order downstream is deterministic and
the derived structures (`Orientation`, `induced_subgraph`,
`square_graph`) are built from the arrays, not node by node;
`induced_subgraph` takes the nodes it keeps as a boolean mask over the
node positions.  Node ids are arbitrary non-negative integers below
2**63; they need not be contiguous, which lets callers exercise
id-dependent tie-breaking.
`neighbors(u)` reads per-node id tuples that are built from the arrays
on its first call and kept; only per-node walks (breadth-first search,
the oracles) call it.  `edge_ends(g)` keeps its arrays with g the same
way, so the stages of one matching run share them.  `square_graph`
serves only `two_hop_sets`: the rounding in `mis` works on the square
through its cliques, the closed neighbourhoods, and never builds it.
"""

from __future__ import annotations

from bisect import bisect_left
from collections import deque
from itertools import compress
from typing import Iterable, Iterator

import numpy as np

from .errors import ParseError

MAX_ID_BITS = 63

Edge = tuple[int, int]


def csr_rows(indptr: np.ndarray) -> np.ndarray:
    """The row of every entry of a position adjacency laid out as
    `Graph.csr()`."""
    return np.repeat(np.arange(len(indptr) - 1, dtype=np.intp), np.diff(indptr))


def expand(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """starts[k], starts[k] + 1, ..., starts[k] + counts[k] - 1 for every k."""
    ends = np.cumsum(counts)
    return np.repeat(starts - (ends - counts), counts) + np.arange(counts.sum())


def _select(
    indptr: np.ndarray, indices: np.ndarray, rows: np.ndarray, keep: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The entries of a position adjacency that `keep` picks, a mask or
    increasing entry indices, each row keeping its order, laid out the
    same way over the same rows."""
    sub_ptr = np.zeros(len(indptr), np.intp)
    np.cumsum(np.bincount(rows[keep], minlength=len(indptr) - 1), out=sub_ptr[1:])
    return sub_ptr, indices[keep]


def pair_csr(n: int, a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The position adjacency, laid out as `Graph.csr()`, of n nodes
    joined by the pairs (a[k], b[k]), a[k] != b[k]; repeated and reversed
    pairs are merged.  Each pair is coded row * n + column once per
    direction, and the distinct codes, increasing, are the rows in order,
    each sorted."""
    codes = np.concatenate((a, b)).astype(np.int64) * n + np.concatenate((b, a))
    row, col = np.divmod(distinct(codes), n)
    return np.searchsorted(row, np.arange(n + 1)), col.astype(np.int32)


def _check_id(u: int) -> int:
    if u < 0 or u.bit_length() > MAX_ID_BITS:
        raise ValueError(f"node id {u} outside [0, 2^{MAX_ID_BITS})")
    return u


def _id_arrays(nodes: list, edges: list) -> tuple[np.ndarray, np.ndarray] | None:
    """The ids as an int64 array and the edges as an (m, 2) one; None when
    an id does not convert or is negative, an edge is not a pair, or an
    edge is a self-loop."""
    try:
        ids = np.array(nodes, np.int64)
        ends = np.array(edges, np.int64) if edges else np.zeros((0, 2), np.int64)
    except (TypeError, ValueError, OverflowError):
        return None
    if ids.shape != (len(nodes),) or ends.shape != (len(edges), 2):
        return None
    if (ids < 0).any() or (ends < 0).any() or (ends[:, 0] == ends[:, 1]).any():
        return None
    return ids, ends


def _checked_id_arrays(nodes: list, edges: list) -> tuple[np.ndarray, np.ndarray]:
    """`_id_arrays` item by item in input order: every node id, then each
    edge's two ends and its loop, each converted with `int`; the first bad
    one raises."""
    ids = [_check_id(int(u)) for u in nodes]
    pairs = []
    for u, v in edges:
        u, v = _check_id(int(u)), _check_id(int(v))
        if u == v:
            raise ValueError(f"self-loop at node {u}")
        pairs.append((u, v))
    return np.array(ids, np.int64), np.array(pairs, np.int64).reshape(-1, 2)


def _neighbor_tuples(
    nodes: tuple[int, ...], indptr: np.ndarray, indices: np.ndarray
) -> tuple[tuple[int, ...], ...]:
    """Every node's neighbour ids as a tuple, by position.  The tuples
    hold the given id objects, gathered from an object array, so no new
    ints are allocated."""
    ids = np.empty(len(nodes), object)
    ids[:] = nodes
    nbrs, ends = ids[indices].tolist(), indptr.tolist()
    return tuple(tuple(nbrs[ends[i] : ends[i + 1]]) for i in range(len(nodes)))


class Graph:
    """Undirected simple graph, immutable after construction.

    Stored as the increasing id tuple `nodes` and the arrays of `csr()`.
    The constructor takes any ids and edges, merges repeated and reversed
    edges, and raises `ValueError` on an id outside [0, 2^63) or a
    self-loop, naming the first one in input order (the nodes, then the
    edges).
    """

    __slots__ = ("_nodes", "_indptr", "_indices", "_view", "_ends")

    def __init__(self, nodes: Iterable[int] = (), edges: Iterable[Edge] = ()):
        nodes, edges = list(nodes), list(edges)
        arrays = _id_arrays(nodes, edges)
        ids, ends = arrays if arrays is not None else _checked_id_arrays(nodes, edges)
        node_ids = distinct(np.concatenate((ids, ends.ravel())))
        at = np.searchsorted(node_ids, ends)
        self._nodes: tuple[int, ...] = tuple(node_ids.tolist())
        self._indptr, self._indices = pair_csr(len(node_ids), at[:, 0], at[:, 1])
        self._view: tuple[tuple[int, ...], ...] | None = None
        self._ends: tuple[np.ndarray, np.ndarray] | None = None

    @classmethod
    def _from_csr(
        cls, nodes: tuple[int, ...], indptr: np.ndarray, indices: np.ndarray
    ) -> "Graph":
        """Trusted constructor from position arrays laid out as `csr()`
        over the sorted `nodes`: rows symmetric, sorted and loop-free.
        Stores what it is given."""
        g = cls.__new__(cls)
        g._nodes, g._indptr, g._indices, g._view, g._ends = nodes, indptr, indices, None, None
        return g

    @property
    def n(self) -> int:
        return len(self._nodes)

    @property
    def m(self) -> int:
        return len(self._indices) // 2

    @property
    def nodes(self) -> tuple[int, ...]:
        return self._nodes

    def _position(self, u: int) -> int:
        """The position of u in `nodes`, or -1 when u is not a node."""
        try:
            i = bisect_left(self._nodes, u)
        except TypeError:
            return -1
        return i if i < len(self._nodes) and self._nodes[i] == u else -1

    def _index(self, u: int) -> int:
        """The position of u in `nodes`; `KeyError` when u is not a node."""
        i = self._position(u)
        if i < 0:
            raise KeyError(u)
        return i

    def __contains__(self, u: int) -> bool:
        return self._position(u) >= 0

    def neighbors(self, u: int) -> tuple[int, ...]:
        i = self._index(u)
        if self._view is None:
            self._view = _neighbor_tuples(self._nodes, self._indptr, self._indices)
        return self._view[i]

    def degree(self, u: int) -> int:
        i = self._index(u)
        return int(self._indptr[i + 1] - self._indptr[i])

    def max_degree(self) -> int:
        return int(np.diff(self._indptr).max(initial=0))

    def csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Adjacency by position in `nodes`: the neighbours of nodes[i] are
        nodes[j] for j in indices[indptr[i]:indptr[i + 1]], increasing.
        The graph's stored form; the arrays are shared, not copied."""
        return self._indptr, self._indices

    def edges(self) -> Iterator[Edge]:
        """All edges in canonical form, sorted."""
        a, b = edge_ends(self)
        node = self._nodes.__getitem__
        return zip(map(node, a.tolist()), map(node, b.tolist()))

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Graph)
            and self._nodes == other._nodes
            and np.array_equal(self._indptr, other._indptr)
            and np.array_equal(self._indices, other._indices)
        )

    def __hash__(self) -> int:  # pragma: no cover - rarely used
        return hash((self._nodes, tuple(self._indices.tolist()), tuple(self._indptr.tolist())))

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


def induced_subgraph(g: Graph, mask: np.ndarray) -> Graph:
    """Subgraph on the nodes that the boolean mask `mask` over `g.nodes`
    keeps, with all original edges among them.

    Built as arrays from `g.csr()`: the entries whose two ends are kept,
    renumbered to positions among the kept nodes.  When every dropped
    node is isolated, as in `strip_isolated`, every entry is kept, so
    the kept rows' offsets are g's own and only the entries are
    renumbered.
    """
    if mask.dtype != bool or mask.shape != (g.n,):
        raise ValueError(f"mask of {mask.dtype} and shape {mask.shape} over {g.n} nodes")
    indptr, nbr = g.csr()
    position = np.cumsum(mask) - 1
    nodes = tuple(compress(g.nodes, mask.tolist()))
    if not np.diff(indptr)[~mask].any():
        sub_ptr = indptr[np.append(mask, True)].astype(np.intp, copy=False)
        return Graph._from_csr(nodes, sub_ptr, position[nbr].astype(np.int32))
    rows = csr_rows(indptr)
    kept = mask[rows] & mask[nbr]
    count = len(nodes)
    sub_ptr = np.zeros(count + 1, np.intp)
    np.cumsum(np.bincount(position[rows[kept]], minlength=count), out=sub_ptr[1:])
    return Graph._from_csr(nodes, sub_ptr, position[nbr[kept]].astype(np.int32))


def strip_isolated(g: Graph) -> Graph:
    return induced_subgraph(g, np.diff(g.csr()[0]) > 0)


def two_hop_sets(g: Graph) -> dict[int, frozenset[int]]:
    """For each node u, the nodes at hop distance <= 2 (including u)."""
    square = square_graph(g)
    return {u: frozenset((u, *square.neighbors(u))) for u in g.nodes}


def _fresh(ranked: np.ndarray) -> np.ndarray:
    """Whether each element of an increasing array differs from the one
    before it; the first does."""
    fresh = np.empty(len(ranked), bool)
    fresh[:1] = True
    np.not_equal(ranked[1:], ranked[:-1], out=fresh[1:])
    return fresh


def distinct(codes: np.ndarray) -> np.ndarray:
    """The distinct values of an integer array, increasing; sorts `codes`
    in place, then masks repeats.  `np.unique` gives the same, but on the
    653k codes of `square_graph` on an n=8192 average-degree-8 graph it
    took 0.49-0.62 s under numpy 2.4.6, against 10 ms for sort plus
    mask.  `distinct_inverse` also gives each element's index among
    them."""
    codes.sort()
    return codes[_fresh(codes)]


def stable_order(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """What `np.argsort(keys, kind="stable")` returns, and `keys` in that
    order, for an integer array.  Sorts the int64 values key * len + index,
    which are distinct and order as (key, index), and splits them with
    one `divmod`: under numpy 2.4.6 on 2 vCPUs a stable argsort of int64
    keys took about 3 ms against 0.6 ms for this at 33k keys, and 100
    against 13 ms at 600k.  A negative key, or one with key * len above
    2^63, as a node id may be, takes the stable argsort."""
    n = len(keys)
    if n and (keys.min() < 0 or (int(keys.max()) + 1) * n > 1 << 63):
        order = np.argsort(keys, kind="stable")
        return order, keys[order]
    packed = keys.astype(np.int64, copy=False) * n
    packed += np.arange(n)
    packed.sort()
    order = np.empty_like(packed)
    np.divmod(packed, n, out=(packed, order))
    return order, packed


def distinct_inverse(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct values of an integer array, increasing, and the index
    of each element's value among them: what `np.unique(codes,
    return_inverse=True)` returns, through one `stable_order`."""
    order, ranked = stable_order(codes)
    fresh = _fresh(ranked)
    inverse = np.empty(len(codes), np.intp)
    inverse[order] = np.cumsum(fresh) - 1
    return ranked[fresh], inverse


def first_seen(codes: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The index of the first occurrence of each distinct value of
    `codes`, in order of occurrence, and the index of each element's value
    among them; codes[first] are the distinct values in that order.  One
    `stable_order` puts the earliest element of each value first among
    its equals; marking those elements by index orders them by occurrence
    without a second sort."""
    order, ranked = stable_order(codes)
    fresh = _fresh(ranked)
    first = np.zeros(len(codes), bool)
    first[order[fresh]] = True
    rank = np.cumsum(first) - 1  # among the first occurrences, by index
    inverse = np.empty(len(codes), np.intp)
    inverse[order] = rank[order[fresh]][np.cumsum(fresh) - 1]
    return np.flatnonzero(first), inverse


def square_graph(g: Graph) -> Graph:
    """Graph joining every pair of distinct nodes at distance <= 2 in g.

    Built as arrays over node positions: every edge (a, v) and every path
    a - v - w becomes one int64 code of the pair (a, w); the distinct
    codes with a != w, grouped by a and sorted by w, are the sorted
    adjacency the result needs, which it also keeps as its `csr()`.
    """
    return Graph._from_csr(g.nodes, *_square_csr(g))


# a square's rows are coded a block of about this many codes at a time,
# so no temporary outgrows ~0.5 MB: whole-graph code arrays of ~5 MB made
# the peak memory of a process solving many graphs vary from run to run
SQUARE_BLOCK = 1 << 16


def _square_csr(g: Graph) -> tuple[np.ndarray, np.ndarray]:
    """The position adjacency of `square_graph(g)`, laid out as `csr()`.
    Rows lo..hi-1 code their edges (a, v), then each such edge once per
    w in N(v), as a << s | w with 2^s >= n, decoded with a shift and a
    mask; their codes fill a range of their own, so the blocks' distinct
    codes, in block order, are all the distinct codes in order."""
    n = g.n
    shift = max(n - 1, 1).bit_length()  # a code is row << shift | column
    indptr, nbr = g.csr()
    reach = np.diff(indptr)[nbr]
    load = indptr + np.concatenate(([0], np.cumsum(reach)))[indptr]  # codes before each row
    counts, cols = [np.zeros(0, np.intp)], [np.zeros(0, np.int32)]
    lo = 0
    while lo < n:
        hi = max(lo + 1, int(np.searchsorted(load, load[lo] + SQUARE_BLOCK, "right")) - 1)
        src = csr_rows(indptr[lo : hi + 1]) + lo
        mid, far = nbr[indptr[lo] : indptr[hi]], reach[indptr[lo] : indptr[hi]]
        codes = np.concatenate((src, np.repeat(src, far))).astype(np.int64) << shift
        codes |= np.concatenate((mid, nbr[expand(indptr[mid], far)]))
        codes = distinct(codes)
        row, col = codes >> shift, codes & ((1 << shift) - 1)
        pair = row != col
        counts.append(np.bincount(row[pair] - lo, minlength=hi - lo))
        cols.append(col[pair].astype(np.int32))
        lo = hi
    sub_ptr = np.zeros(n + 1, np.intp)
    np.cumsum(np.concatenate(counts), out=sub_ptr[1:])
    return sub_ptr, np.concatenate(cols)


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
    row.  Computed on the first call, then kept with g; the arrays are
    read-only and shared by every caller."""
    if g._ends is None:
        indptr, nbr = g.csr()
        row = csr_rows(indptr)
        upper = nbr > row
        a, b = row[upper], nbr[upper].astype(np.intp)
        a.flags.writeable = b.flags.writeable = False
        g._ends = a, b
    return g._ends


def lookup(known: np.ndarray, want: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each of `want` would sit in the increasing array `known`
    (`np.searchsorted`), and whether it is there."""
    at = np.searchsorted(known, want)
    found = at < len(known)
    found[found] = known[at[found]] == want[found]
    return at, found


class Orientation:
    """Acyclic edge orientation by increasing (degree, id).

    The edge {u, v} points u -> v exactly when (deg(u), id(u)) is
    lexicographically smaller than (deg(v), id(v)); ids are unique, so
    every edge is oriented exactly once and the orientation is acyclic.

    Held as two position adjacencies laid out as `Graph.csr()`, one of
    out-neighbours and one of in-neighbours, each row increasing: the
    entries of g's rows that the rule sends out of, or into, the node.
    Each keeps the index of its entries among g's.
    """

    __slots__ = ("_out_csr", "_in_csr", "_out_at", "_in_at")

    def __init__(self, g: Graph):
        indptr, nbr = g.csr()
        deg = np.diff(indptr)
        row = csr_rows(indptr)
        # positions follow ids, so (degree, position) orders as (degree, id)
        out = (deg[nbr] > deg[row]) | ((deg[nbr] == deg[row]) & (nbr > row))
        self._out_at, self._in_at = np.flatnonzero(out), np.flatnonzero(~out)
        self._out_csr = _select(indptr, nbr, row, self._out_at)
        self._in_csr = _select(indptr, nbr, row, self._in_at)

    def out_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """Out-neighbours by node position, laid out as `Graph.csr`."""
        return self._out_csr

    def in_csr(self) -> tuple[np.ndarray, np.ndarray]:
        """In-neighbours by node position, laid out as `Graph.csr`."""
        return self._in_csr

    def out_entries(self) -> np.ndarray:
        """The entry of g's `csr()` behind each entry of `out_csr()`:
        out_csr()[1] is g.csr()[1][out_entries()]."""
        return self._out_at

    def in_entries(self) -> np.ndarray:
        """The entry of g's `csr()` behind each entry of `in_csr()`."""
        return self._in_at


def orient(g: Graph) -> Orientation:
    return Orientation(g)
