"""Deterministic graph generators for experiments and tests."""

from __future__ import annotations

import math
import random

from .errors import PreconditionError
from .graphs import Graph


def gnp(n: int, p: float, seed: int = 0) -> Graph:
    """Erdos-Renyi G(n, p) via geometric edge skipping; O(n + m) draws."""
    if n < 0 or not 0.0 <= p <= 1.0:
        raise PreconditionError(f"gnp needs n >= 0 and p in [0, 1], got n={n} p={p}")
    if n == 0:
        return Graph()
    if p == 0.0:
        return Graph(nodes=range(n))
    if p == 1.0:
        return complete(n)
    rng = random.Random(seed)
    log_q = math.log1p(-p)
    edges = []
    v, w = 1, -1
    while v < n:
        w += 1 + int(math.log(1.0 - rng.random()) / log_q)
        while w >= v and v < n:
            w -= v
            v += 1
        if v < n:
            edges.append((w, v))
    return Graph(nodes=range(n), edges=edges)


def path(n: int) -> Graph:
    return Graph(nodes=range(n), edges=((i, i + 1) for i in range(n - 1)))


def cycle(n: int) -> Graph:
    if n < 3:
        raise PreconditionError("cycle needs n >= 3")
    return Graph(edges=[(i, (i + 1) % n) for i in range(n)])


def complete(n: int) -> Graph:
    return Graph(
        nodes=range(n), edges=((i, j) for i in range(n) for j in range(i + 1, n))
    )


def grid(rows: int, cols: int) -> Graph:
    """rows x cols grid, nodes numbered row-major."""
    if rows < 1 or cols < 1:
        raise PreconditionError("grid needs rows, cols >= 1")
    edges = []
    for r in range(rows):
        for c in range(cols):
            u = r * cols + c
            if c + 1 < cols:
                edges.append((u, u + 1))
            if r + 1 < rows:
                edges.append((u, u + cols))
    return Graph(nodes=range(rows * cols), edges=edges)


def tree(n: int, seed: int = 0) -> Graph:
    """Random recursive tree: node v > 0 attaches to a uniform earlier node."""
    if n < 1:
        raise PreconditionError("tree needs n >= 1")
    rng = random.Random(seed)
    return Graph(nodes=range(n), edges=((rng.randrange(v), v) for v in range(1, n)))


def regular(n: int, d: int, seed: int = 0) -> Graph:
    """Random d-regular graph: circulant start, then 10*n*d seeded edge switches.

    Each switch replaces two disjoint edges {a,b},{c,d} by {a,c},{b,d}
    when that keeps the graph simple, preserving all degrees; the result
    is always simple and d-regular.
    """
    if d < 0 or d >= n or (n * d) % 2 != 0:
        raise PreconditionError(f"regular needs 0 <= d < n and n*d even, got n={n} d={d}")
    if d == 0:
        return Graph(nodes=range(n))
    canon = lambda a, b: (a, b) if a < b else (b, a)
    edge_set = set()
    for off in range(1, d // 2 + 1):
        for i in range(n):
            edge_set.add(canon(i, (i + off) % n))
    if d % 2:  # odd d forces even n; add the antipodal matching
        for i in range(n // 2):
            edge_set.add(canon(i, i + n // 2))
    rng = random.Random(seed)
    edges = sorted(edge_set)
    index = {e: i for i, e in enumerate(edges)}
    for _ in range(10 * n * d):
        e1 = edges[rng.randrange(len(edges))]
        e2 = edges[rng.randrange(len(edges))]
        a, b = e1
        c, dd = e2
        if len({a, b, c, dd}) < 4:
            continue
        if rng.random() < 0.5:
            c, dd = dd, c
        f1, f2 = canon(a, c), canon(b, dd)
        if f1 in index or f2 in index:
            continue
        for old, new in ((e1, f1), (e2, f2)):
            i = index.pop(old)
            edges[i] = new
            index[new] = i
    return Graph(nodes=range(n), edges=edges)


def disjoint_edges(count: int) -> Graph:
    """`count` independent edges: nodes 2i -- 2i+1."""
    return Graph(edges=((2 * i, 2 * i + 1) for i in range(count)))


KINDS = {
    "gnp": gnp,
    "path": path,
    "cycle": cycle,
    "grid": grid,
    "tree": tree,
    "regular": regular,
    "complete": complete,
    "disjoint-edges": disjoint_edges,
}
