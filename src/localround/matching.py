"""Constant-factor approximate maximum matching.

Pipeline: a doubling-based fractional matching, a weighted partition from
`cluster_constant`, restriction to edges between low-cluster-degree
nodes, a per-cluster re-rounding that floors every surviving value well
above zero, and a greedy maximal matching on the support.  Every stage
preserves a fixed constant fraction of the matching value, and each
constant is checked on the computed numbers at run time.

The re-rounding decides all clusters in one attempt-major array pass
(`intra_round_matching`), with the same values, order, claim counts and
named `stream` calls as the cluster-by-cluster loop it replaced.  Those
calls stay, one per cluster attempt, although at the paper's constants
no value falls below the keep threshold, no stream is drawn from, and so
none derives its seed or builds its generator:
perfbench's traced runs take them as the `seeds` layer's spans on this
path and compute `matching.intra_accept_ratio` from them, so removing
them is a change to the benchmark's declared layers first.  The support
graph of the finish is built from position arrays (`edge_subgraph`).

Edge values pass from stage to stage in one form, arrays over node
positions (`FractionalMatching`): endpoints a < b and one value per edge;
an edge dict enters only through `FractionalMatching.from_values`.  The
good edges are a mask over the fractional values, both in `g.edges()`
order.  Every float sum keeps the order of the loops it replaced: values
and `value()` in edge order, each node's load over its edges in edge
order, and `loads()` keyed in order of first appearance as an endpoint,
the order approx_matching adds the total load in.  The loads reach
`cluster_constant` as one array by node position, and the good nodes'
load is added in id order over the good mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import chain, compress
from typing import Mapping, NamedTuple

import numpy as np

from .clustering import (
    ClusterGroups,
    Partition,
    base_capacity_exponent,
    cluster_constant,
    cluster_degrees,
    cluster_ranks,
    resample_clusters,
)
from .errors import ClaimChecker, PreconditionError, geq, leq, plain_sum
from .graphs import (
    Edge,
    Graph,
    csr_contains,
    distinct,
    edge_ends,
    edge_subgraph,
    node_positions,
    strip_isolated,
)
from .ledger import RoundLedger
from .seeds import RETRIES, stream


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack((a, b), axis=1).ravel()


class FractionalMatching:
    """Edge values in [0, 1] with per-node load at most 1.

    Stored as arrays over the positions of a graph's nodes: `nodes` are
    the graph's ids in increasing order, and edge k joins nodes[a[k]] and
    nodes[b[k]], a[k] < b[k], with value x[k].  `values` (edge -> value,
    in edge order) and `loads()` (node -> summed value of its edges,
    added in edge order, keyed in order of first appearance among the
    endpoints a[0], b[0], a[1], b[1], ...) are the dict views the loops
    built; each is derived from the arrays on first use and kept.
    `value()` adds the values in edge order.  Those orders fix every
    float sum bit for bit.
    """

    __slots__ = ("nodes", "a", "b", "x", "_values", "_loads")

    def __init__(self, nodes: tuple[int, ...], a: np.ndarray, b: np.ndarray, x: np.ndarray):
        self.nodes, self.a, self.b, self.x = nodes, a, b, x
        self._values: dict[Edge, float] | None = None
        self._loads: dict[int, float] | None = None

    @classmethod
    def from_values(cls, g: Graph, values: Mapping[Edge, float]) -> "FractionalMatching":
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
        return cls(g.nodes, a, b, np.fromiter(values.values(), float, len(edges)))

    @property
    def values(self) -> dict[Edge, float]:
        if self._values is None:
            node = self.nodes.__getitem__
            keys = zip(map(node, self.a.tolist()), map(node, self.b.tolist()))
            self._values = dict(zip(keys, self.x.tolist()))
        return self._values

    def ends(self) -> np.ndarray:
        """The endpoint positions interleaved: a[0], b[0], a[1], b[1], ..."""
        return _interleave(self.a, self.b)

    def position_loads(self) -> np.ndarray:
        """The load of every node by position in `nodes`, each the sum of
        its edges' values in edge order (`np.bincount` adds in input
        order)."""
        return np.bincount(self.ends(), np.repeat(self.x, 2), minlength=len(self.nodes))

    def load_order(self) -> np.ndarray:
        """The positions of the nodes with an edge, in order of first
        appearance among the endpoints a[0], b[0], a[1], b[1], ..."""
        ends = self.ends()
        first = np.full(len(self.nodes), len(ends))
        np.minimum.at(first, ends, np.arange(len(ends)))
        # the first appearances are distinct; nodes without one sort last
        return np.argsort(first)[: np.count_nonzero(first < len(ends))]

    def loads(self) -> dict[int, float]:
        if self._loads is None:
            order = self.load_order()
            load = self.position_loads()[order]
            self._loads = dict(zip(map(self.nodes.__getitem__, order.tolist()), load.tolist()))
        return self._loads

    def value(self) -> float:
        """The values added left to right in edge order, on every Python:
        the builtin `sum` compensates float sums from 3.12 on."""
        return float(plain_sum(self.x))

    def restrict(self, keep: np.ndarray) -> "FractionalMatching":
        """The edges with keep[k] true, in edge order."""
        return FractionalMatching(self.nodes, self.a[keep], self.b[keep], self.x[keep])


def fractional_matching(
    g: Graph, ledger: RoundLedger | None = None, checks: ClaimChecker | None = None
) -> FractionalMatching:
    """Start every edge at 1/max_degree and double while both endpoints
    stay at load <= 1/2; ceil(log2(max_degree)) synchronized iterations.

    All loads are tracked as exact integer multiples of 1/max_degree, so
    the per-node load bound holds exactly.  Requires no isolated nodes.

    The edges are g's in `g.edges()` order, as positions from `g.csr()`,
    and edge k's value is 2**t[k] / delta, delta = max_degree, for one
    int exponent array t.  A round is one `np.bincount` of 2**t over the
    interleaved endpoints (exact integers in float64), and every edge
    tests the loads from before the round.  Each value is
    `np.ldexp(1.0, t) / delta`, equal bit for bit to the int quotient
    (1 << t) / delta.
    """
    checks = checks if checks is not None else ClaimChecker()
    deg = np.diff(g.csr()[0])
    if (deg == 0).any():
        raise PreconditionError("strip isolated nodes before matching")
    a, b = edge_ends(g)
    if g.m == 0:
        return FractionalMatching(g.nodes, a, b, np.zeros(0))
    delta = int(deg.max())
    ends = _interleave(a, b)
    exponent = np.zeros(g.m, np.int64)

    def numerators() -> np.ndarray:
        return np.bincount(ends, np.repeat(np.left_shift(1, exponent), 2), minlength=g.n)

    iterations = math.ceil(math.log2(delta)) if delta > 1 else 0
    for _ in range(iterations):
        low = 2 * numerators() <= delta
        exponent += low[a] & low[b]
    numer = numerators()
    checks.ok("fractional-loads", bool((numer <= delta).all()), "a node load exceeds 1")
    # every edge now has an endpoint loaded above 1/2, which is what
    # pins the value against a maximum matching
    high = 2 * numer > delta
    checks.ok(
        "fractional-saturation",
        bool((high[a] | high[b]).all()),
        "an edge kept both endpoints at load <= 1/2 after all doublings",
    )
    if ledger is not None and iterations > 0:
        ledger.charge("fractional-doubling", 1, iterations)
    return FractionalMatching(g.nodes, a, b, np.ldexp(1.0, exponent) / delta)


class GoodEdges(NamedTuple):
    """Nodes that see few clusters, as a mask over g's `nodes`, and the
    mask of the edges among them over g's edges in `g.edges()` order."""

    nodes: tuple[int, ...]
    good: np.ndarray
    mask: np.ndarray

    @property
    def good_nodes(self) -> frozenset[int]:
        return frozenset(compress(self.nodes, self.good.tolist()))


def good_edges(g: Graph, partition: Partition, bound: float) -> GoodEdges:
    """Nodes with cluster degree <= bound and the edges among them."""
    good = cluster_degrees(g, partition) <= bound
    a, b = edge_ends(g)
    return GoodEdges(g.nodes, good, good[a] & good[b])


def intra_round_matching(
    g: Graph,
    partition: Partition,
    x_good: FractionalMatching,
    bound: float,
    seed: int,
    n_total: int | None = None,
    retries: int = RETRIES,
    checks: ClaimChecker | None = None,
) -> FractionalMatching:
    """Per-cluster re-rounding of a fractional matching restricted to the
    low-cluster-degree edges.

    Values at least 1/(10000*bound*log2(n)) are scaled to x/5; smaller
    values are resampled to the floor 1/(50000*bound*log2(n)) with the
    matching expectation, then verified per cluster: for every node v and
    owning cluster C,

        sum(x)/10 - 1/(1000*bound) <= sum(new) <= sum(x)/2 + 1/(1000*bound)

    over the cluster's edges at v, where an edge belongs to the cluster of
    its larger-id endpoint.  A failed cluster resamples with a derived
    seed, so the outcome per cluster depends only on its own edges, the
    seed, and the cluster label.

    `x_good` is over g's nodes, its values in [0, 1].  The clusters are
    decided attempt by attempt, all at once: attempt 0 sets every value as
    one array and sums every window as a group, (cluster, endpoint) over
    the endpoints of the edges taken by cluster and then edge, the order
    in which the per-cluster loop summed them.  Only clusters with a failing
    window go on to further attempts, and only one with a resampled edge
    can pass on one.  Each cluster attempt still calls `stream`, as the
    loop did, so streams and accepted clusters keep their counts (the
    module docstring says why); a stream derives its seed only if the
    attempt draws from it.  Returns the
    new values, in the loop's order too: by cluster label, then by edge.
    """
    if x_good.nodes != g.nodes:
        raise PreconditionError("the fractional matching is over another graph's nodes")
    a, b, x = x_good.a, x_good.b, x_good.x
    inside = (x >= 0.0) & (x <= 1.0)  # False for NaN too
    if not inside.all():
        k = inside.argmin()
        edge = g.nodes[a[k]], g.nodes[b[k]]
        raise PreconditionError(f"value {x[k]} of edge {edge} outside [0, 1]")
    checks = checks if checks is not None else ClaimChecker()
    n = n_total if n_total is not None else g.n
    log_n = math.log2(max(2, n))
    keep_threshold = 1.0 / (10000.0 * bound * log_n)
    floor_value = 1.0 / (50000.0 * bound * log_n)
    slack = 1.0 / (1000.0 * bound)

    labels, rank = cluster_ranks(g, partition)
    order = np.lexsort((b, a, rank[b]))
    used, owner = np.unique(rank[b][order], return_inverse=True)
    x, a, b = x[order], a[order], b[order]

    items = np.repeat(np.arange(len(x)), 2)
    groups = ClusterGroups(
        owner[items] * g.n + _interleave(a, b), items, g.n, len(used)
    )
    base = groups.sums(x)
    lo, hi = base / 10.0 - slack, base / 2.0 + slack
    values = np.where(x >= keep_threshold, x / 5.0, 0.0)
    draws: dict[int, list[tuple[int, float]]] = {}
    xs = x.tolist()
    for e in np.flatnonzero(x < keep_threshold).tolist():
        draws.setdefault(int(owner[e]), []).append((e, xs[e] * 10000.0 * bound * log_n))
    resample_clusters(
        [labels[c] for c in used.tolist()],
        values,
        draws,
        floor_value,
        lambda trial: groups.failing(trial, lo, hi),
        lambda c, attempt: stream(seed, "matching-intra", c, attempt),
        retries,
        checks,
        "intra-window",
        "failed the per-node window",
    )
    return FractionalMatching(g.nodes, a, b, values)


def greedy_maximal_matching(g: Graph) -> frozenset[Edge]:
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


def is_matching(edges: frozenset[Edge] | set[Edge]) -> bool:
    seen: set[int] = set()
    for a, b in edges:
        if a in seen or b in seen or a == b:
            return False
        seen.add(a)
        seen.add(b)
    return True


def finish_matching(
    support: Graph,
    x_intra: FractionalMatching,
    ledger: RoundLedger | None = None,
    checks: ClaimChecker | None = None,
) -> frozenset[Edge]:
    """Greedy maximal matching on the support of the re-rounded values.

    A maximal matching is at least half a maximum one, and a fractional
    matching is at most 3/2 of a maximum one, so the output carries at
    least (1/2)*(2/3) = 1/3 of the value of `x_intra`; 2/9 is checked.
    """
    checks = checks if checks is not None else ClaimChecker()
    matching = greedy_maximal_matching(support)
    total = x_intra.value()
    checks.ok(
        "finish-ratio",
        geq(len(matching), (2.0 / 9.0) * total),
        f"matching size {len(matching)} below 2/9 of value {total}",
    )
    if ledger is not None and support.n > 0:
        # sequential global pass; bounded by the number of support nodes
        ledger.charge("global-greedy-finish", support.n, support.n)
    return matching


@dataclass
class MatchingResult:
    matching: frozenset[Edge]
    frac_value: float
    good_value: float
    intra_value: float
    alpha: int
    degree_bound: float
    checks: dict[str, int]
    m_star_lower_bound: int


def approx_matching(
    g: Graph,
    alpha: int | None = None,
    seed: int = 0,
    f_override: float | None = None,
    ledger: RoundLedger | None = None,
    retries: int = RETRIES,
) -> MatchingResult:
    """Full pipeline; every inter-stage constant is asserted on the way.

    `alpha` defaults to the cube root of the capacity exponent, and the
    cluster-degree threshold to the bound certified by the clustering;
    both can be overridden for experiments.
    """
    checks = ClaimChecker()
    work = strip_isolated(g)
    if work.m == 0:
        return MatchingResult(frozenset(), 0.0, 0.0, 0.0, alpha or 1, 0.0, checks.counts, 0)
    if alpha is None:
        alpha = max(1, math.ceil(base_capacity_exponent(work.n) ** (1.0 / 3.0)))

    frac = fractional_matching(work, ledger, checks)
    # by position; every node of work has an edge, so a load
    loads = frac.position_loads()
    partition = cluster_constant(work, alpha, loads, ledger)
    bound = float(
        f_override if f_override is not None else partition.meta["degree_bound"]
    )

    ge = good_edges(work, partition, bound)
    # added in id order, and in the order of `frac.loads()`
    good_load = plain_sum(loads[ge.good])
    total_load = plain_sum(loads[frac.load_order()])
    checks.ok(
        "good-weight",
        geq(good_load, 0.9 * total_load),
        f"good nodes carry {good_load} < 0.9 * {total_load}",
    )
    frac_value = frac.value()
    x_good = frac.restrict(ge.mask)
    good_value = x_good.value()
    checks.ok(
        "good-mass",
        geq(good_value, 0.8 * frac_value),
        f"good edges carry {good_value} < 0.8 * {frac_value}",
    )

    x_intra = intra_round_matching(
        work, partition, x_good, bound, seed, work.n, retries, checks
    )
    if ledger is not None and len(x_good.x):
        # gather + scatter within each cluster; radius bounded by construction
        radius = 50 * alpha + 2
        ledger.charge("intra-gather", radius, 2 * radius)

    a, b, x = x_intra.a, x_intra.b, x_intra.x
    checks.ok(
        "intra-loads",
        bool(leq(x_intra.position_loads(), 1.0).all()),
        "re-rounded values are not a fractional matching",
    )
    intra_value = x_intra.value()
    # (endpoint, cluster) pairs over the edges, each owned by the cluster
    # of its larger endpoint
    rank = cluster_ranks(work, partition)[1]
    codes = x_intra.ends().astype(np.int64) * work.n + np.repeat(rank[b], 2)
    touched = len(distinct(codes))
    slack = touched / (2.0 * 1000.0 * bound)
    checks.ok(
        "intra-value-floor",
        geq(intra_value, good_value / 10.0 - slack),
        f"re-rounded value {intra_value} below {good_value}/10 - {slack}",
    )

    support = edge_subgraph(work, a[x > 0.0], b[x > 0.0])
    log_n = math.log2(max(2, work.n))
    checks.ok(
        "support-degree",
        support.max_degree() <= 50000.0 * bound * log_n,
        f"support degree {support.max_degree()} too large",
    )
    matching = finish_matching(support, x_intra, ledger, checks)
    # a support with every edge of work is work, so greedy picks the same set
    m_star_lb = len(matching if support.m == work.m else greedy_maximal_matching(work))
    return MatchingResult(
        matching,
        frac_value,
        good_value,
        intra_value,
        alpha,
        bound,
        checks.counts,
        m_star_lb,
    )


