"""Constant-factor approximate maximum matching.

Pipeline: a doubling-based fractional matching, a weighted partition from
`cluster_constant`, restriction to edges between low-cluster-degree
nodes, a per-cluster re-rounding that floors every surviving value well
above zero, and a greedy maximal matching on the support.  Every stage
preserves a fixed constant fraction of the matching value, and each
constant is checked on the computed numbers at run time.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping

from .clustering import (
    Partition,
    base_capacity_exponent,
    cluster_constant,
    cluster_degree,
)
from .errors import ClaimChecker, PreconditionError, RetryBudgetExceeded, geq, leq
from .graphs import Edge, Graph, strip_isolated
from .ledger import RoundLedger
from .seeds import RETRIES, stream


@dataclass(frozen=True)
class FractionalMatching:
    """Edge values in [0, 1] with per-node load at most 1."""

    values: dict[Edge, float]

    def loads(self) -> dict[int, float]:
        out: dict[int, float] = {}
        for (a, b), x in self.values.items():
            out[a] = out.get(a, 0.0) + x
            out[b] = out.get(b, 0.0) + x
        return out

    def value(self) -> float:
        return sum(self.values.values())


def fractional_matching(
    g: Graph, ledger: RoundLedger | None = None, checks: ClaimChecker | None = None
) -> FractionalMatching:
    """Start every edge at 1/max_degree and double while both endpoints
    stay at load <= 1/2; ceil(log2(max_degree)) synchronized iterations.

    All loads are tracked as exact integer multiples of 1/max_degree, so
    the per-node load bound holds exactly.  Requires no isolated nodes.
    """
    checks = checks if checks is not None else ClaimChecker()
    if any(g.degree(u) == 0 for u in g.nodes):
        raise PreconditionError("strip isolated nodes before matching")
    if g.m == 0:
        return FractionalMatching({})
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
    # every edge now has an endpoint loaded above 1/2, which is what
    # pins the value against a maximum matching
    checks.ok(
        "fractional-saturation",
        all(2 * numer[a] > delta or 2 * numer[b] > delta for a, b in edges),
        "an edge kept both endpoints at load <= 1/2 after all doublings",
    )
    if ledger is not None and iterations > 0:
        ledger.charge("fractional-doubling", 1, iterations)
    values = {e: (1 << t) / delta for e, t in exponent.items()}
    return FractionalMatching(values)


@dataclass
class GoodEdges:
    """Edges whose endpoints both see few clusters."""

    good_nodes: frozenset[int]
    edges: tuple[Edge, ...]


def good_edges(g: Graph, partition: Partition, bound: float) -> GoodEdges:
    """Nodes with cluster degree <= bound and the edges among them."""
    good = frozenset(
        u for u in g.nodes if cluster_degree(g, partition, u) <= bound
    )
    edges = tuple(e for e in g.edges() if e[0] in good and e[1] in good)
    return GoodEdges(good, edges)


def intra_round_matching(
    g: Graph,
    partition: Partition,
    x_good: Mapping[Edge, float],
    bound: float,
    seed: int,
    n_total: int | None = None,
    retries: int = RETRIES,
    checks: ClaimChecker | None = None,
) -> dict[Edge, float]:
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
    """
    checks = checks if checks is not None else ClaimChecker()
    n = n_total if n_total is not None else g.n
    log_n = math.log2(max(2, n))
    keep_threshold = 1.0 / (10000.0 * bound * log_n)
    floor_value = 1.0 / (50000.0 * bound * log_n)

    by_cluster: dict[int, list[Edge]] = {}
    for e in x_good:
        by_cluster.setdefault(partition.assignment[max(e)], []).append(e)

    out: dict[Edge, float] = {}
    for c in sorted(by_cluster):
        cluster_edges = sorted(by_cluster[c])
        base: dict[int, float] = {}
        for a, b in cluster_edges:
            x = x_good[(a, b)]
            base[a] = base.get(a, 0.0) + x
            base[b] = base.get(b, 0.0) + x
        for attempt in range(retries):
            rng = stream(seed, "matching-intra", c, attempt)
            trial: dict[Edge, float] = {}
            for e in cluster_edges:
                x = x_good[e]
                if x >= keep_threshold:
                    trial[e] = x / 5.0
                else:
                    hit = rng.random() < x * 10000.0 * bound * log_n
                    trial[e] = floor_value if hit else 0.0
            sums: dict[int, float] = {}
            for (a, b), x in trial.items():
                sums[a] = sums.get(a, 0.0) + x
                sums[b] = sums.get(b, 0.0) + x
            slack = 1.0 / (1000.0 * bound)
            good = all(
                geq(sums[v], base[v] / 10.0 - slack)
                and leq(sums[v], base[v] / 2.0 + slack)
                for v in base
            )
            if good:
                checks.ok("intra-window", True)
                out.update(trial)
                break
        else:
            raise RetryBudgetExceeded(
                f"cluster {c} failed the per-node window {retries} times"
            )
    return out


def greedy_maximal_matching(g: Graph) -> frozenset[Edge]:
    """Maximal matching by scanning edges in sorted order."""
    used: set[int] = set()
    chosen: list[Edge] = []
    for a, b in g.edges():
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            chosen.append((a, b))
    return frozenset(chosen)


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
    x_intra: Mapping[Edge, float],
    ledger: RoundLedger | None = None,
    checks: ClaimChecker | None = None,
) -> frozenset[Edge]:
    """Greedy maximal matching on the support of the re-rounded values.

    A maximal matching is at least half a maximum one, and a fractional
    matching is at most 3/2 of a maximum one, so the output carries at
    least (1/2)*(2/3) = 1/3 of the fractional value; 2/9 is checked.
    """
    checks = checks if checks is not None else ClaimChecker()
    matching = greedy_maximal_matching(support)
    total = sum(x_intra.values())
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
    loads = frac.loads()
    partition = cluster_constant(work, alpha, loads, ledger)
    bound = float(
        f_override if f_override is not None else partition.meta["degree_bound"]
    )

    ge = good_edges(work, partition, bound)
    good_load = sum(loads[u] for u in ge.good_nodes)
    total_load = sum(loads.values())
    checks.ok(
        "good-weight",
        geq(good_load, 0.9 * total_load),
        f"good nodes carry {good_load} < 0.9 * {total_load}",
    )
    frac_value = frac.value()
    good_value = sum(frac.values[e] for e in ge.edges)
    checks.ok(
        "good-mass",
        geq(good_value, 0.8 * frac_value),
        f"good edges carry {good_value} < 0.8 * {frac_value}",
    )

    x_good = {e: frac.values[e] for e in ge.edges}
    x_intra = intra_round_matching(
        work, partition, x_good, bound, seed, work.n, retries, checks
    )
    if ledger is not None and x_good:
        # gather + scatter within each cluster; radius bounded by construction
        radius = 50 * alpha + 2
        ledger.charge("intra-gather", radius, 2 * radius)

    intra_loads: dict[int, float] = {}
    touched: dict[int, set[int]] = {}
    for (a, b), x in x_intra.items():
        intra_loads[a] = intra_loads.get(a, 0.0) + x
        intra_loads[b] = intra_loads.get(b, 0.0) + x
        owner = partition.assignment[max(a, b)]
        touched.setdefault(a, set()).add(owner)
        touched.setdefault(b, set()).add(owner)
    checks.ok(
        "intra-loads",
        all(leq(x, 1.0) for x in intra_loads.values()),
        "re-rounded values are not a fractional matching",
    )
    intra_value = sum(x_intra.values())
    slack = sum(len(cs) for cs in touched.values()) / (2.0 * 1000.0 * bound)
    checks.ok(
        "intra-value-floor",
        geq(intra_value, good_value / 10.0 - slack),
        f"re-rounded value {intra_value} below {good_value}/10 - {slack}",
    )

    support_edges = [e for e, x in x_intra.items() if x > 0.0]
    support = Graph(edges=support_edges)
    log_n = math.log2(max(2, work.n))
    checks.ok(
        "support-degree",
        support.max_degree() <= 50000.0 * bound * log_n,
        f"support degree {support.max_degree()} too large",
    )
    matching = finish_matching(support, x_intra, ledger, checks)
    m_star_lb = len(greedy_maximal_matching(work))
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


