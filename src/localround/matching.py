"""Constant-factor approximate maximum matching.

Pipeline: a doubling-based fractional matching, a weighted partition from
`cluster_constant`, restriction to edges between low-cluster-degree
nodes, a per-cluster re-rounding that floors every surviving value well
above zero, and a greedy maximal matching on the support.  Every stage
preserves a fixed constant fraction of the matching value, and each
constant is checked on the computed numbers at run time.

The re-rounding decides all clusters in one attempt-major array pass
(`intra_round_matching`).  It calls `stream` once per cluster attempt,
although at the paper's constants no value falls below the keep
threshold, no stream is drawn from, and so none derives its seed or
builds its generator: perfbench's traced runs take these calls as the
`seeds` layer's spans on this path and compute
`matching.intra_accept_ratio` from them, so removing them is a change to
the benchmark's declared layers first.  The calls are kept, but made
cheaply: through a `functools.partial` of this module's `stream`, taken
when the re-rounding runs, with the clusters that draw nothing making
theirs in one `map` (`resample_clusters`).  It orders the edges by
cluster with one sort of packed int64 codes (`cluster_edge_order`); a
`np.lexsort` took 14 ms of a 60 ms solve at n=8192 (numpy 2.4.6, 2
vCPUs).  That is the re-rounding's only sort at the paper's constants,
where every node is its own cluster: the cluster ranks are the node
positions (`cluster_ranks`), the cluster degrees are the degrees plus
one (`cluster_degrees`), and each window's group follows from its
edge's position in the sorted order (`ClusterGroups.edge_runs`); a
partition with merged clusters sorts its labels and its window codes
once each.  There the re-rounded value also clears the value floor
without its slack, which is then not counted.  The support graph of the
finish is the working graph itself when every edge keeps a positive
value, else it is built from position arrays (`edge_subgraph`).  The
finish decides its greedy matching in rounds of array operations and
scans only the last few edges one at a time (`greedy_maximal_matching`).

Edge values pass from stage to stage in one form, arrays over node
positions (`FractionalMatching`): endpoints a < b and one value per edge.
The good edges are a mask over the fractional values, both in `g.edges()`
order.  Every float sum runs in one fixed order: values and `value()` in
edge order, and each node's load over its edges in edge order.  The loads
reach `cluster_constant` as one array by node position, and the total
load and the good nodes' load (over the good mask) are added over that
array in id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import partial
from typing import NamedTuple

import numpy as np

from .clustering import (
    ClusterGroups,
    Partition,
    base_capacity_exponent,
    check_bound,
    cluster_constant,
    cluster_degrees,
    cluster_ranks,
    resample_clusters,
)
from .errors import ClaimChecker, PreconditionError, geq, leq, plain_sum
from .graphs import (
    Edge,
    Graph,
    _fresh,
    distinct,
    edge_ends,
    edge_subgraph,
    stable_order,
    strip_isolated,
)
from .ledger import RoundLedger
from .seeds import stream


def _interleave(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    return np.stack((a, b), axis=1).ravel()


class FractionalMatching:
    """Edge values in [0, 1] with per-node load at most 1.

    Stored as arrays over the positions of a graph's nodes: `nodes` are
    the graph's ids in increasing order, and edge k joins nodes[a[k]] and
    nodes[b[k]], a[k] < b[k], with value x[k].  `position_loads()` sums
    each node's edges in edge order, and `value()` adds the values in edge
    order.  Those orders fix every float sum bit for bit.
    """

    __slots__ = ("nodes", "a", "b", "x")

    def __init__(self, nodes: tuple[int, ...], a: np.ndarray, b: np.ndarray, x: np.ndarray):
        self.nodes, self.a, self.b, self.x = nodes, a, b, x

    def ends(self) -> np.ndarray:
        """The endpoint positions interleaved: a[0], b[0], a[1], b[1], ..."""
        return _interleave(self.a, self.b)

    def position_loads(self) -> np.ndarray:
        """The load of every node by position in `nodes`, each the sum of
        its edges' values in edge order (`np.bincount` adds in input
        order)."""
        return np.bincount(self.ends(), np.repeat(self.x, 2), minlength=len(self.nodes))

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
    int exponent array t.  A round adds one `np.bincount` of 2**t over
    the a ends to one over the b ends (exact integers in float64, so the
    same in any order), and every edge tests the loads from before the
    round.  Each value is `np.ldexp(1.0, t) / delta`, equal bit for bit
    to the int quotient (1 << t) / delta.
    """
    checks = checks if checks is not None else ClaimChecker()
    deg = np.diff(g.csr()[0])
    if (deg == 0).any():
        raise PreconditionError("strip isolated nodes before matching")
    a, b = edge_ends(g)
    if g.m == 0:
        return FractionalMatching(g.nodes, a, b, np.zeros(0))
    delta = int(deg.max())
    exponent = np.zeros(g.m, np.int64)

    def numerators() -> np.ndarray:
        w = np.left_shift(1, exponent)
        return np.bincount(a, w, minlength=g.n) + np.bincount(b, w, minlength=g.n)

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

    good: np.ndarray
    mask: np.ndarray


def good_edges(g: Graph, partition: Partition, bound: float) -> GoodEdges:
    """Nodes with cluster degree <= bound and the edges among them."""
    good = cluster_degrees(g, partition) <= bound
    a, b = edge_ends(g)
    return GoodEdges(good, good[a] & good[b])


def intra_round_matching(
    g: Graph,
    partition: Partition,
    x_good: FractionalMatching,
    bound: float,
    seed: int,
    n_total: int | None = None,
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

    `x_good` is over g's nodes, its values in [0, 1], its edges in any
    order; a bound that is not a finite positive number is refused
    (`check_bound`).  The edges are put in order by (cluster, a, b) with
    one sort (`cluster_edge_order`), and the clusters are decided attempt
    by attempt, all at once: attempt 0 sets every value as one array and
    sums every window as a group, (cluster, endpoint) over the endpoints
    of the edges in that order (`ClusterGroups`); the clusters used, and
    each edge's index among them, come from the changes of the sorted
    cluster ranks, with no second sort.  When every node is its own
    cluster, as at the paper's constants, the edges are in (b, a) order
    and the groups are numbered by their positions in it
    (`ClusterGroups.edge_runs`); otherwise one sort of the groups' codes
    numbers them.  The values of the edges below the keep threshold,
    none at the paper's constants, are the only ones read one by one.
    Only clusters with a failing window go on to further attempts, and
    only one with a resampled edge can pass on one.  Each cluster attempt
    calls `stream` (the module docstring says why); a stream derives its
    seed only if the attempt draws from it.  Returns the new values by
    cluster label, then by edge.
    """
    if x_good.nodes != g.nodes:
        raise PreconditionError("the fractional matching is over another graph's nodes")
    a, b, x = x_good.a, x_good.b, x_good.x
    inside = (x >= 0.0) & (x <= 1.0)  # False for NaN too
    if not inside.all():
        k = inside.argmin()
        edge = g.nodes[a[k]], g.nodes[b[k]]
        raise PreconditionError(f"value {x[k]} of edge {edge} outside [0, 1]")
    check_bound(bound)  # before any division by it
    checks = checks if checks is not None else ClaimChecker()
    n = n_total if n_total is not None else g.n
    log_n = math.log2(max(2, n))
    keep_threshold = 1.0 / (10000.0 * bound * log_n)
    floor_value = 1.0 / (50000.0 * bound * log_n)
    slack = 1.0 / (1000.0 * bound)

    labels, rank = cluster_ranks(g, partition)
    order = cluster_edge_order(rank[b], a, b, len(labels), g.n)
    x, a, b = x[order], a[order], b[order]
    # rank[b] is now increasing: a cluster's index among the used ones
    # counts the changes of rank up to its edges
    ranked = rank[b]
    fresh = _fresh(ranked)
    used, owner = ranked[fresh], np.cumsum(fresh) - 1
    del ranked, fresh

    if len(labels) == g.n:
        groups = ClusterGroups.edge_runs(owner, a, b, g.n, len(used))
    else:
        items = np.repeat(np.arange(len(x)), 2)
        groups = ClusterGroups(
            owner[items] * g.n + _interleave(a, b), items, g.n, len(used)
        )
    base = groups.sums(x)
    lo, hi = base / 10.0 - slack, base / 2.0 + slack
    values = np.where(x >= keep_threshold, x / 5.0, 0.0)
    draws: dict[int, list[tuple[int, float]]] = {}
    low = np.flatnonzero(x < keep_threshold)
    for c, e, v in zip(owner[low].tolist(), low.tolist(), x[low].tolist()):
        draws.setdefault(c, []).append((e, v * 10000.0 * bound * log_n))
    resample_clusters(
        labels[used].tolist(),
        values,
        draws,
        floor_value,
        lambda trial: groups.failing(trial, lo, hi),
        partial(stream, seed, "matching-intra"),
        checks,
        "intra-window",
        "failed the per-node window",
    )
    return FractionalMatching(g.nodes, a, b, values)


def cluster_edge_order(
    major: np.ndarray, a: np.ndarray, b: np.ndarray, k: int, n: int
) -> np.ndarray:
    """The order of the edges (a[e], b[e]) by (major[e], a[e], b[e]), which
    `np.lexsort((b, a, major))` gives, for major in [0, k) and distinct
    pairs of positions in [0, n), n^2 below 2^63.  The codes
    (major * n + a) * n + b are distinct, so one plain argsort of them
    gives that order; when k * n^2 exceeds 2^63, the pairs are ordered
    first and `stable_order` then orders them by `major`."""
    if k * n * n <= 1 << 63:
        return np.argsort((major.astype(np.int64) * n + a) * n + b)
    order = np.argsort(a.astype(np.int64) * n + b)
    return order[stable_order(major[order])[0]]


# Rounds run on at least this many live edges, and stop after one that
# decides fewer.  On fewer, a round's arrays fall under 1 KB, and numpy
# keeps freed blocks that small in a cache by size: with a hand-off at 32
# edges, the late rounds' many small sizes left perfbench's matching-gnp
# peak RSS 4.8% above the scan's (10 runs of 40 s)
_ROUND_EDGES = 1024


def greedy_maximal_matching(g: Graph) -> frozenset[Edge]:
    """Maximal matching by scanning edges in sorted order, read as the
    endpoint positions of `edge_ends`: the lexicographically first one.

    Decided in rounds over the live edges, all undecided at first.  In a
    round, every live edge whose index is the smallest among the live
    edges at both of its endpoints joins the matching, and then every
    live edge at a matched node is dropped.  An edge that joins has every
    earlier edge at its endpoints dropped, by a matched node that is not
    one of its own, so the scan takes it too; an edge that is dropped
    meets a matched node, so the scan skips it.  Once fewer than
    `_ROUND_EDGES` edges are live, or a round decides fewer than that (on
    a path by increasing id, round 1), the live edges left are scanned in
    order.  The smallest live index at each node is one `np.minimum.at`
    per side, which is slow under numpy 1.24 (ufunc.at was sped up in
    1.25).  Every round's temporaries are the length of its live edges.
    """
    a, b = edge_ends(g)
    m = len(a)
    live = np.arange(m)
    least = np.full(g.n, m)  # the smallest live edge index at each node
    matched = np.zeros(g.n, bool)
    chosen: list[np.ndarray] = []
    while len(live) >= _ROUND_EDGES:
        ea, eb = a[live], b[live]
        least[ea] = least[eb] = m
        np.minimum.at(least, ea, live)
        np.minimum.at(least, eb, live)
        win = (least[ea] == live) & (least[eb] == live)
        matched[ea[win]] = matched[eb[win]] = True
        chosen.append(live[win])
        keep = ~(matched[ea] | matched[eb])
        decided = len(live) - np.count_nonzero(keep)
        live = live[keep]
        if decided < _ROUND_EDGES:
            break
    used = bytearray(matched.tobytes())
    rest = []
    for e, i, j in zip(live.tolist(), a[live].tolist(), b[live].tolist()):
        if not used[i] and not used[j]:
            used[i] = used[j] = 1
            rest.append(e)
    picked = np.concatenate((*chosen, np.array(rest, np.intp)))
    node = g.nodes.__getitem__
    return frozenset(zip(map(node, a[picked].tolist()), map(node, b[picked].tolist())))


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
) -> MatchingResult:
    """Full pipeline; every inter-stage constant is asserted on the way.

    `alpha` defaults to the cube root of the capacity exponent, and the
    cluster-degree threshold to the bound certified by the clustering;
    both can be overridden for experiments.  An overridden threshold
    whose good nodes carry less than 0.9 of the fractional load is
    refused (`PreconditionError`); the certified one is a guarantee, so
    there the same shortfall is a `good-weight` claim violation.  An
    override that is not a finite positive number is refused on every
    input, edgeless or not.  Each cluster's re-rounding gets the fixed
    budget of `seeds.RETRIES` attempts (`resample_clusters`).
    """
    if f_override is not None:
        check_bound(float(f_override))
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
    # both added in id order
    good_load = plain_sum(loads[ge.good])
    total_load = plain_sum(loads)
    heavy_enough = geq(good_load, 0.9 * total_load)
    if f_override is not None and not heavy_enough:
        raise PreconditionError(
            f"bound {bound} leaves good nodes carrying {good_load} < 0.9 * {total_load}"
        )
    checks.ok(
        "good-weight",
        heavy_enough,
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
        work, partition, x_good, bound, seed, work.n, checks
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
    # a slack >= 0 only lowers the floor, so it is counted only for a
    # value below good_value / 10: the (endpoint, cluster) pairs over the
    # edges, each owned by the cluster of its larger endpoint
    slack = 0.0
    if not intra_value >= good_value / 10.0:
        rank = cluster_ranks(work, partition)[1]
        codes = x_intra.ends().astype(np.int64) * work.n + np.repeat(rank[b], 2)
        touched = len(distinct(codes))
        slack = touched / (2.0 * 1000.0 * bound)
    checks.ok(
        "intra-value-floor",
        geq(intra_value, good_value / 10.0 - slack),
        f"re-rounded value {intra_value} below {good_value}/10 - {slack}",
    )

    kept = x > 0.0
    # every edge of work kept: edge_subgraph would rebuild work itself
    full = len(x) == work.m and kept.all()
    support = work if full else edge_subgraph(work, a[kept], b[kept])
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


