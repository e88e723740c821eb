"""The benchmark's workloads: seeded inputs, the solve call, output checks.

Inputs are generated here, not by the package, so a change to the
package's own generators cannot change what the benchmark solves.  Each
check below recomputes its property from the input alone; none calls the
code that produced the output.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Any, Callable


def instance_rng(workload: str, seed: int, index: int) -> random.Random:
    """One independent stream per (workload, seed, instance index)."""
    return random.Random(f"{workload}/{seed}/{index}")


def gnp_edges(n: int, p: float, rng: random.Random) -> list[tuple[int, int]]:
    """Edges of G(n, p) by geometric skipping over the lower triangle."""
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
    return edges


@dataclass
class Outcome:
    """What one solved instance leaves for the report."""

    failed_checks: list[str]
    output: list  # sorted output items, for the behaviour digest
    rounds_total: int
    charges: int
    claims: dict[str, int]
    facts: dict[str, float]  # per-layer values read off the result


@dataclass(frozen=True)
class Workload:
    name: str
    # layers whose spans must appear / must not appear in a traced run
    runs: tuple[str, ...]
    skips: tuple[str, ...]
    make: Callable[[Any, int, int], tuple[Any, int]]  # (lr, seed, index) -> (input, edges)
    solve: Callable[[dict, Any, Any], Any]  # (modules, input, ledger) -> result
    check: Callable[[Any, Any, Any], Outcome]  # (input, result, ledger) -> outcome
    size: int  # nodes for gnp workloads, |V| for the hitting workload


# ---------------------------------------------------------------- gnp


def _make_gnp(name: str, n: int):
    def make(lr, seed: int, index: int):
        rng = instance_rng(name, seed, index)
        edges = gnp_edges(n, 8.0 / (n - 1), rng)
        return lr.Graph(nodes=range(n), edges=edges), len(edges)

    return make


def _adjacency(g) -> dict[int, set[int]]:
    adj: dict[int, set[int]] = {u: set() for u in g.nodes}
    for a, b in g.edges():
        adj[a].add(b)
        adj[b].add(a)
    return adj


def _solve_mis(mods, g, ledger):
    return mods["mis"].mis(g, ledger=ledger)


def _check_mis(g, res, ledger) -> Outcome:
    adj = _adjacency(g)
    chosen = set(res.independent_set)
    failed = []
    if not chosen <= adj.keys():
        failed.append("mis-unknown-node")
    elif any(adj[u] & chosen for u in chosen):
        failed.append("mis-not-independent")
    elif any(u not in chosen and not adj[u] & chosen for u in adj):
        failed.append("mis-not-maximal")
    return Outcome(
        failed,
        sorted(chosen),
        ledger.total,
        len(ledger.entries),
        dict(res.checks),
        {"mis.iterations": res.iterations, "mis.set_size": len(chosen)},
    )


def greedy_matching_size(edges) -> int:
    """Size of the maximal matching found by scanning sorted edges; it is
    at least half of a maximum matching."""
    used: set[int] = set()
    size = 0
    for a, b in sorted(edges):
        if a not in used and b not in used:
            used.update((a, b))
            size += 1
    return size


def _solve_matching(mods, g, ledger):
    return mods["matching"].approx_matching(g, ledger=ledger)


def _check_matching(g, res, ledger) -> Outcome:
    edges = set(g.edges())
    matching = sorted(res.matching)
    failed = []
    ends = [x for e in matching for x in e]
    if any((min(e), max(e)) not in edges for e in matching):
        failed.append("matching-not-input-edges")
    if len(set(ends)) != len(ends):
        failed.append("matching-shared-endpoint")
    lower = greedy_matching_size(edges)
    if len(matching) * 100000 < lower:
        failed.append("matching-below-floor")
    return Outcome(
        failed,
        matching,
        ledger.total,
        len(ledger.entries),
        dict(res.checks),
        {"matching.size_ratio": len(matching) / lower if lower else 1.0},
    )


# ------------------------------------------------------------ hitting

# shaped like the largest instances of the hitting-set acceptance battery
HIT_U, HIT_DELTA, HIT_K, HIT_P, HIT_NORM = 200, 8, 4, 0.25, 0.05


def _make_hitting(n_v: int):
    def make(lr, seed: int, index: int):
        rng = instance_rng("hitting-grouped", seed, index)
        v_nodes = tuple(range(n_v))
        u_nodes = tuple(range(n_v, n_v + HIT_U))
        adj = {u: tuple(sorted(rng.sample(v_nodes, HIT_DELTA))) for u in u_nodes}
        weights = {u: rng.uniform(0.0, 2.0) for u in u_nodes}
        inst = lr.BipartiteInstance(
            u_nodes, v_nodes, adj, weights, HIT_DELTA, HIT_P, HIT_NORM, HIT_K
        )
        return inst, HIT_U * HIT_DELTA

    return make


def _solve_hitting(mods, inst, ledger):
    return mods["hitting"].grouped_hitting_set(inst)


def grouped_sides(inst, selected) -> tuple[float, float]:
    """Both sides of the grouped guarantee, recomputed from the input:
    weight of left nodes with at most half their k-blocks' worth of
    selected neighbours, plus norm per selected node, against
    4 * (exp(-p k) * W + norm * p * |V|)."""
    threshold = 0.5 * (inst.delta // inst.k)
    under = sum(
        inst.weights[u]
        for u in inst.u_nodes
        if sum(1 for v in inst.adj[u] if v in selected) <= threshold
    )
    total_w = sum(inst.weights[u] for u in inst.u_nodes)
    lhs = under + inst.norm * len(selected)
    rhs = 4.0 * (
        math.exp(-inst.p * inst.k) * total_w + inst.norm * inst.p * len(inst.v_nodes)
    )
    return lhs, rhs


def _check_hitting(inst, res, ledger) -> Outcome:
    selected = set(res.selected)
    failed = []
    if not selected <= set(inst.v_nodes):
        failed.append("hitting-unknown-node")
    lhs, rhs = grouped_sides(inst, selected)
    if lhs > rhs * (1 + 1e-9) + 1e-12:
        failed.append("hitting-grouped-guarantee")
    if any(b > a * (1 + 1e-9) + 1e-12 for a, b in zip(res.phis, res.phis[1:])):
        failed.append("hitting-potential-rose")
    return Outcome(
        failed,
        sorted(selected),
        # the routine takes no ledger; it reports its own round count
        res.rounds_h,
        0,
        dict(res.checks.counts),
        {"hitting.guarantee_slack": 1.0 - lhs / rhs if rhs else 0.0},
    )


# per-instance size: nodes for the gnp workloads, |V| for hitting
SIZES = {"mis-gnp": 8192, "matching-gnp": 8192, "hitting-grouped": 2000}


def workload(name: str, size: int | None = None) -> Workload:
    """The named workload at its benchmark size; tests pass smaller sizes."""
    size = SIZES[name] if size is None else size
    if name == "mis-gnp":
        return Workload(
            name,
            ("rounding", "mis", "clustering", "graphs", "seeds"),
            (),
            _make_gnp(name, size),
            _solve_mis,
            _check_mis,
            size,
        )
    if name == "matching-gnp":
        return Workload(
            name,
            ("matching", "clustering", "graphs", "seeds"),
            ("rounding", "mis"),
            _make_gnp(name, size),
            _solve_matching,
            _check_matching,
            size,
        )
    return Workload(
        name,
        ("hitting", "rounding"),
        ("clustering", "mis", "matching"),
        _make_hitting(size),
        _solve_hitting,
        _check_hitting,
        size,
    )
