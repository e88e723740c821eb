"""Independent brute-force references used by tests and acceptance runs.

Nothing here is called from the algorithm pipelines; every routine is a
second, slower route to the same quantity, sized by an explicit budget
and refusing anything larger.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from .errors import BudgetExceeded, PreconditionError
from .graphs import Edge, Graph
from .hitting import BipartiteInstance
from .rounding import FractionalAssignment, UtilityCostInstance
from .seeds import derive_seed

SMALL_EDGE_LIMIT = 20


@dataclass(frozen=True)
class OracleBudget:
    max_nodes: int = 24
    max_label_tuples: int = 1 << 20


DEFAULT_BUDGET = OracleBudget()


def _subset_max_matching(edges: list[Edge]) -> frozenset[Edge]:
    """Branch over edges with a cardinality bound; exact for small m."""
    best: list[Edge] = []

    def rec(i: int, used: set[int], chosen: list[Edge]) -> None:
        nonlocal best
        if len(chosen) + (len(edges) - i) <= len(best):
            return
        if i == len(edges):
            if len(chosen) > len(best):
                best = list(chosen)
            return
        a, b = edges[i]
        if a not in used and b not in used:
            used.add(a)
            used.add(b)
            chosen.append(edges[i])
            rec(i + 1, used, chosen)
            chosen.pop()
            used.discard(a)
            used.discard(b)
        rec(i + 1, used, chosen)

    rec(0, set(), [])
    return frozenset(best)


def _alternating_search(
    g: Graph, mate: dict[int, int], start: int, steps: list[int]
) -> list[int] | None:
    """Exhaustive DFS over simple alternating paths from a free node.

    Returns the node sequence of an augmenting path, or None if no simple
    alternating path from `start` reaches another free node.
    """

    def dfs(u: int, visited: set[int]) -> list[int] | None:
        steps[0] += 1
        if steps[0] > 5_000_000:
            raise BudgetExceeded("alternating-path search exploded")
        for v in g.neighbors(u):
            if v in visited:
                continue
            if v not in mate:
                return [u, v]
            w = mate[v]
            if w in visited:
                continue
            visited.add(v)
            visited.add(w)
            rest = dfs(w, visited)
            if rest is not None:
                return [u, v] + rest
            visited.discard(v)
            visited.discard(w)
        return None

    return dfs(start, {start})


def _augmenting_max_matching(g: Graph) -> frozenset[Edge]:
    mate: dict[int, int] = {}
    for a, b in g.edges():
        if a not in mate and b not in mate:
            mate[a] = b
            mate[b] = a
    improved = True
    steps = [0]
    while improved and len(mate) < 2 * (g.n // 2):
        improved = False
        for s in g.nodes:
            if s in mate:
                continue
            seq = _alternating_search(g, mate, s, steps)
            if seq is None:
                continue
            for i in range(0, len(seq) - 1, 2):
                mate[seq[i]] = seq[i + 1]
                mate[seq[i + 1]] = seq[i]
            improved = True
            break
    return frozenset((u, v) for u, v in mate.items() if u < v)


def _rank_mod(matrix: list[list[int]], p: int) -> int:
    n = len(matrix)
    rank = 0
    row = 0
    for col in range(n):
        pivot = next((r for r in range(row, n) if matrix[r][col] % p), None)
        if pivot is None:
            continue
        matrix[row], matrix[pivot] = matrix[pivot], matrix[row]
        inv = pow(matrix[row][col], -1, p)
        for r in range(row + 1, n):
            factor = matrix[r][col] * inv % p
            if factor:
                matrix[r] = [
                    (x - factor * y) % p for x, y in zip(matrix[r], matrix[row])
                ]
        row += 1
        rank += 1
        if row == n:
            break
    return rank


def _tutte_rank(g: Graph, seed: int, trials: int = 2) -> int:
    """Rank of a random skew-symmetric adjacency substitution mod a prime.

    Never exceeds twice the maximum matching size; equals it with high
    probability, so it cross-checks the search-based routes.
    """
    p = (1 << 61) - 1
    order = {u: i for i, u in enumerate(g.nodes)}
    best = 0
    for t in range(trials):
        rng = random.Random(derive_seed(seed, "tutte", t))
        a = [[0] * g.n for _ in range(g.n)]
        for u, v in g.edges():
            r = rng.randrange(1, p)
            a[order[u]][order[v]] = r
            a[order[v]][order[u]] = p - r
        best = max(best, _rank_mod(a, p))
    return best


def exact_max_matching(
    g: Graph, budget: OracleBudget = DEFAULT_BUDGET, method: str = "auto"
) -> frozenset[Edge]:
    """Maximum-cardinality matching for small graphs.

    Subset branching for up to 20 edges, otherwise greedy warm start plus
    exhaustive simple alternating-path augmentation, cross-checked
    against a seeded algebraic rank bound.
    """
    if g.n > budget.max_nodes:
        raise BudgetExceeded(f"{g.n} nodes exceed the oracle budget {budget.max_nodes}")
    if g.m == 0:
        return frozenset()
    if method not in ("auto", "subset", "augment"):
        raise PreconditionError(f"unknown method {method!r}")
    if method == "subset" or (method == "auto" and g.m <= SMALL_EDGE_LIMIT):
        if g.m > 2 * SMALL_EDGE_LIMIT:
            raise BudgetExceeded("subset search limited to small edge counts")
        return _subset_max_matching(list(g.edges()))
    matching = _augmenting_max_matching(g)
    if _tutte_rank(g, seed=20260) > 2 * len(matching):
        raise AssertionError("augmenting search missed an augmenting path")
    return matching


def exhaustive_round_check(
    inst: UtilityCostInstance,
    lam: FractionalAssignment,
    budget: OracleBudget = DEFAULT_BUDGET,
) -> tuple[float, float]:
    """(best integral objective, expected objective under lam).

    Enumerates all 2^n markings; the expectation uses the product
    distribution, which must match the pairwise evaluation exactly.
    """
    nodes = inst.conflict_graph.nodes
    n = len(nodes)
    if (1 << n) > budget.max_label_tuples:
        raise BudgetExceeded(f"2^{n} markings exceed the oracle budget")
    grids = np.indices((2,) * n).reshape(n, -1).astype(bool)
    objective = np.full(grids.shape[1], inst.utility_const)
    for marked, value in zip(grids, (inst.node_utility - inst.node_cost).tolist()):
        objective += value * marked
    for (a, b), cost in zip(inst.edge_terms.tolist(), inst.pair_cost.tolist()):
        objective -= cost * (grids[a] & grids[b])
    x = dict(zip(lam.nodes, lam.x.tolist()))
    probs = np.ones(grids.shape[1])
    for marked, u in zip(grids, nodes):
        probs *= np.where(marked, x[u], 1.0 - x[u])
    return float(objective.max()), float((probs * objective).sum())


def exhaustive_hitting_check(
    inst: BipartiteInstance, budget: OracleBudget = DEFAULT_BUDGET
) -> bool:
    """Whether any subset of V satisfies the instance's guarantee."""
    n_v = len(inst.v_nodes)
    if (1 << n_v) > budget.max_label_tuples:
        raise BudgetExceeded(f"2^{n_v} subsets exceed the oracle budget")
    subsets = np.arange(1 << n_v, dtype=np.int64)
    popcount = np.zeros(len(subsets), dtype=np.int64)
    for bit in range(n_v):
        popcount += (subsets >> bit) & 1
    lhs = inst.norm * popcount.astype(float)
    total_w = inst.total_weight
    if inst.k is None:
        threshold = 0.0
        rhs = math.exp(-inst.p * inst.delta) * total_w + inst.norm * 4.0 * inst.p * n_v
    else:
        threshold = 0.5 * (inst.delta // inst.k)
        rhs = 4.0 * (math.exp(-inst.p * inst.k) * total_w + inst.norm * inst.p * n_v)
    for row, weight in zip(inst.nbr.tolist(), inst.weight.tolist()):
        hits = np.zeros(len(subsets), dtype=np.int64)
        for j in row:
            hits += (subsets >> j) & 1
        lhs += weight * (hits <= threshold)
    slack = 1e-9 * (abs(rhs) + 1.0)
    return bool(np.any(lhs <= rhs + slack))
