"""Deterministic weighted hitting sets on uniform-degree bipartite systems.

The basic routine selects a subset of the right side V so that the
weighted mass of left-side nodes with no selected neighbor, plus a charge
of `norm` per selected node, stays below a fixed budget.  It runs a fixed
number of steps, each picking one batch via the local rounding engine,
and drives a potential combining unhit weight, selected-set size, and a
shrinking per-step allowance; the potential never increases.

The grouped routine relaxes "no selected neighbor" to "at most half of
the neighbor blocks hit": it splits every left node into floor(delta/k)
copies wired to disjoint k-blocks of its neighbors and runs the basic
routine on the copies.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from numbers import Real
from typing import Callable, Iterable, Mapping

import numpy as np

from .errors import ClaimChecker, PreconditionError, leq, plain_sum
from .graphs import Graph, first_seen, node_positions, pair_csr
from .rounding import (
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)


@dataclass
class BipartiteInstance:
    """One hitting-set problem.

    Left nodes all have exactly `delta` neighbors on the right; `p` is the
    sampling rate the guarantees are phrased against, `norm` the price per
    selected right node, and `k` (grouped variant only) the block size in
    [1, delta].  Left and right ids live in separate namespaces.
    """

    u_nodes: tuple[int, ...]
    v_nodes: tuple[int, ...]
    adj: Mapping[int, tuple[int, ...]]
    weights: Mapping[int, float]
    delta: int
    p: float
    norm: float
    k: int | None = None

    def __post_init__(self) -> None:
        self.u_nodes = tuple(sorted(self.u_nodes))
        self.v_nodes = tuple(sorted(self.v_nodes))
        vset = set(self.v_nodes)
        if len(vset) != len(self.v_nodes) or len(set(self.u_nodes)) != len(self.u_nodes):
            raise PreconditionError("duplicate node ids within a side")
        if self.delta < 1 or not (0.0 < self.p < math.inf and 0.0 <= self.norm < math.inf):
            raise PreconditionError("need delta >= 1, finite p > 0, finite norm >= 0")
        if self.k is not None and not 1 <= self.k <= self.delta:
            raise PreconditionError(f"k={self.k} outside [1, delta={self.delta}]")
        for u in self.u_nodes:
            nbrs = self.adj.get(u, ())
            if len(nbrs) != self.delta or len(set(nbrs)) != self.delta:
                raise PreconditionError(f"left node {u} does not have degree {self.delta}")
            if not vset.issuperset(nbrs):
                raise PreconditionError(f"left node {u} has a neighbor outside V")
            w = self.weights.get(u)
            if not isinstance(w, Real) or not 0.0 <= w < math.inf:  # NaN too
                raise PreconditionError(f"bad weight at left node {u}")

    @property
    def total_weight(self) -> float:
        return plain_sum(self.weights[u] for u in self.u_nodes)

    @property
    def b(self) -> int:
        ids = list(self.u_nodes) + list(self.v_nodes)
        return max((abs(i).bit_length() for i in ids), default=1) or 1


def from_graph(
    g: Graph,
    left: Iterable[int] | Callable[[int], bool],
    weights: Mapping[int, float],
    p: float,
    norm: float,
    k: int | None = None,
) -> BipartiteInstance:
    """Build an instance from a bipartition of an existing graph.

    `left` is either the left-side node set or a predicate selecting it.
    Every left node must have all its neighbors on the right, and all
    left degrees must agree.
    """
    if callable(left):
        left = [u for u in g.nodes if left(u)]
    left = sorted(set(left))
    left_set = set(left)
    if not left:
        raise PreconditionError("empty left side")
    degs = {g.degree(u) for u in left}
    if len(degs) != 1:
        raise PreconditionError(f"left degrees differ: {sorted(degs)}")
    right = sorted(set(g.nodes) - left_set)
    adj = {}
    for u in left:
        if any(v in left_set for v in g.neighbors(u)):
            raise PreconditionError(f"left node {u} has a left neighbor")
        adj[u] = g.neighbors(u)
    return BipartiteInstance(
        tuple(left), tuple(right), adj, dict(weights), degs.pop(), p, norm, k
    )


def _neighbor_rows(inst: BipartiteInstance) -> np.ndarray:
    """The positions in `v_nodes` of every left node's neighbours, one row
    per left node in `u_nodes` order."""
    ends = chain.from_iterable(map(inst.adj.__getitem__, inst.u_nodes))
    n_u = len(inst.u_nodes)
    return node_positions(inst.v_nodes, ends, n_u * inst.delta).reshape(n_u, inst.delta)


def conflict_graph(inst: BipartiteInstance) -> Graph:
    """Graph on V joining right nodes that share a left neighbor: every
    pair of one left node's neighbours, as positions in `v_nodes`, merged
    by `pair_csr`."""
    rows = _neighbor_rows(inst)
    first, second = np.triu_indices(inst.delta, 1)
    n = len(inst.v_nodes)
    return Graph._from_csr(
        inst.v_nodes, *pair_csr(n, rows[:, first].ravel(), rows[:, second].ravel())
    )


@dataclass
class HittingStep:
    index: int
    chosen: frozenset[int]
    phi: float
    good_lhs: float
    good_rhs: float
    frac_utility: float
    frac_cost: float


@dataclass
class HittingResult:
    selected: frozenset[int]
    phis: list[float] = field(default_factory=list)
    steps: list[HittingStep] = field(default_factory=list)
    rounds_h: int = 0
    zeta: int = 0
    checks: ClaimChecker = field(default_factory=ClaimChecker)


def basic_guarantee(inst: BipartiteInstance, selected: frozenset[int]) -> tuple[float, float]:
    """(achieved, allowed) sides of the basic guarantee for `selected`."""
    unhit = plain_sum(
        inst.weights[u]
        for u in inst.u_nodes
        if not selected.intersection(inst.adj[u])
    )
    lhs = unhit + inst.norm * len(selected)
    rhs = math.exp(-inst.p * inst.delta) * inst.total_weight + inst.norm * 4.0 * inst.p * len(
        inst.v_nodes
    )
    return lhs, rhs


def grouped_guarantee(inst: BipartiteInstance, selected: frozenset[int]) -> tuple[float, float]:
    """(achieved, allowed) sides of the grouped guarantee for `selected`."""
    if inst.k is None:
        raise PreconditionError("grouped guarantee needs k")
    threshold = 0.5 * (inst.delta // inst.k)
    under = plain_sum(
        inst.weights[u]
        for u in inst.u_nodes
        if len(selected.intersection(inst.adj[u])) <= threshold
    )
    lhs = under + inst.norm * len(selected)
    rhs = 4.0 * (
        math.exp(-inst.p * inst.k) * inst.total_weight
        + inst.norm * inst.p * len(inst.v_nodes)
    )
    return lhs, rhs


def basic_hitting_set(inst: BipartiteInstance) -> HittingResult:
    """Deterministic selection meeting the basic guarantee exactly.

    Runs ceil(10 * p * delta) steps.  Step i prices every right node at
    2p/T and rounds the step objective with the local rounding engine; a
    chosen batch always satisfies the per-step budget, which makes the
    potential non-increasing and yields the final inequality.

    A step's objective is built as arrays: right node v weighs its live
    (unhit, nonzero) left neighbours, a pair of right nodes the live left
    nodes adjacent to both, each summed in left-node order, and pairs keep
    the order the left nodes first meet them in, so it equals the loop's.
    """
    total_w = inst.total_weight
    result = HittingResult(selected=frozenset())
    if not inst.u_nodes or total_w == 0.0:
        # nothing to hit: the empty selection already meets the guarantee
        lhs, rhs = basic_guarantee(inst, frozenset())
        result.checks.ok("hitting-guarantee", leq(lhs, rhs), f"{lhs} > {rhs}")
        return result

    t_steps = math.ceil(10.0 * inst.p * inst.delta)
    q = 2.0 * inst.p / t_steps
    if inst.delta * q > 0.2 + 1e-12:
        raise PreconditionError(
            f"step price delta*2p/T = {inst.delta * q} exceeds 0.2; "
            "p is too large for the step count"
        )
    cg = conflict_graph(inst)
    coloring = greedy_color(cg)
    result.zeta = coloring.num_colors
    lam = FractionalAssignment.from_matrix(cg.nodes, np.tile((1.0 - q, q), (len(cg.nodes), 1)))
    n_u, n_v, delta = len(inst.u_nodes), len(inst.v_nodes), inst.delta
    norm = inst.norm
    checks = result.checks

    weight = np.fromiter(map(inst.weights.__getitem__, inst.u_nodes), float, n_u)
    nbr = _neighbor_rows(inst)
    first, second = np.triu_indices(delta, 1)  # pairs x < y, x major
    node_cost = np.repeat([[0.0, norm]], n_v, axis=0)

    unhit: set[int] = set(inst.u_nodes)
    selected: set[int] = set()

    def potential(step: int) -> float:
        decay = math.exp(-(t_steps - step) / t_steps * inst.p * inst.delta)
        rest = (t_steps - step) / t_steps * norm * 4.0 * inst.p * n_v
        return (
            decay * plain_sum(inst.weights[u] for u in unhit)
            + norm * len(selected)
            + rest
        )

    phi = potential(0)
    result.phis.append(phi)
    scale = abs(phi) + total_w + 1.0

    for i in range(1, t_steps + 1):
        decay = math.exp(-(t_steps - i) / t_steps * inst.p * inst.delta)
        prev_decay = math.exp(-(t_steps - (i - 1)) / t_steps * inst.p * inst.delta)
        live = np.fromiter(map(unhit.__contains__, inst.u_nodes), bool, n_u)
        live &= weight != 0.0
        rows, w = nbr[live], weight[live]
        mass = np.bincount(rows.ravel(), np.repeat(w, delta), minlength=n_v)
        pair = rows[:, first], rows[:, second]
        codes = np.minimum(*pair).astype(np.int64) * n_v + np.maximum(*pair)
        keys, term = first_seen(codes.ravel())
        node_utility = np.zeros((n_v, 2))
        node_utility[:, 1] = decay * mass
        edge_cost = np.zeros((len(keys), 2, 2))
        edge_cost[:, 1, 1] = decay * np.bincount(term, np.repeat(w, len(first)), len(keys))
        step_inst = UtilityCostInstance.from_arrays(
            cg,
            2,
            np.flatnonzero((mass != 0.0) | (norm != 0.0)),
            node_utility,
            node_cost,
            keys // n_v,
            keys % n_v,
            np.zeros_like(edge_cost),
            edge_cost,
            utility_const=norm * 4.0 * inst.p / t_steps * n_v,
        )
        fu, fc = evaluate(step_inst, lam)
        checks.ok(
            "step-price-dominance",
            leq(2.0 * fc, fu),
            f"step {i}: fractional utility {fu} < 2 * cost {fc}",
        )
        labels = round_labels(step_inst, lam, coloring, checks=checks)
        # the conflict graph's nodes are v_nodes, in order
        batch = frozenset(compress(inst.v_nodes, (labels.array == 1).tolist()))

        lhs = 0.0
        for u in sorted(unhit):
            hit = len(batch.intersection(inst.adj[u]))
            y_u = 1.0 - hit + hit * (hit - 1) / 2.0
            lhs += y_u * inst.weights[u]
        lhs = decay * lhs + norm * len(batch)
        rhs = (
            prev_decay * plain_sum(inst.weights[u] for u in unhit)
            + norm * 4.0 * inst.p / t_steps * n_v
        )
        checks.ok(
            "step-budget",
            leq(lhs, rhs, scale),
            f"step {i}: batch breaks the per-step budget ({lhs} > {rhs})",
        )

        selected |= batch
        unhit = {u for u in unhit if not batch.intersection(inst.adj[u])}
        phi_next = potential(i)
        checks.ok(
            "potential-monotone",
            leq(phi_next, phi, scale),
            f"step {i}: potential rose {phi} -> {phi_next}",
        )
        result.steps.append(
            HittingStep(i, batch, phi_next, lhs, rhs, fu, fc)
        )
        result.phis.append(phi_next)
        result.rounds_h += 2 * coloring.num_colors
        phi = phi_next

    result.selected = frozenset(selected)
    lhs, rhs = basic_guarantee(inst, result.selected)
    checks.ok("hitting-guarantee", leq(lhs, rhs, scale), f"{lhs} > {rhs}")
    return result


def split_into_copies(inst: BipartiteInstance) -> BipartiteInstance:
    """The copy instance behind the grouped routine.

    Each left node u becomes floor(delta/k) copies; copy j takes the j-th
    block of k consecutive neighbors of u in increasing id order, and
    leftover neighbors are unused.  Copy ids extend u's id by enough bits
    to number the copies; copies carry weight 2*w_u / floor(delta/k).
    """
    if inst.k is None:
        raise PreconditionError("splitting needs k")
    k = inst.k
    copies = inst.delta // k
    # extend ids by ceil(log2(delta)) + 2 bits; copy indices always fit
    shift = (inst.delta - 1).bit_length() + 2
    u_nodes: list[int] = []
    adj: dict[int, tuple[int, ...]] = {}
    weights: dict[int, float] = {}
    for u in inst.u_nodes:
        nbrs = inst.adj[u]  # already sorted ascending
        w = 2.0 * inst.weights[u] / copies
        for j in range(copies):
            cu = (u << shift) + j
            u_nodes.append(cu)
            adj[cu] = tuple(nbrs[j * k : (j + 1) * k])
            weights[cu] = w
    return BipartiteInstance(
        tuple(u_nodes), inst.v_nodes, adj, weights, k, inst.p, inst.norm, None
    )


def grouped_hitting_set(inst: BipartiteInstance) -> HittingResult:
    """Deterministic selection meeting the grouped guarantee exactly."""
    if inst.k is None:
        raise PreconditionError("grouped variant needs k")
    if not inst.u_nodes or inst.total_weight == 0.0:
        result = HittingResult(selected=frozenset())
        lhs, rhs = grouped_guarantee(inst, frozenset())
        result.checks.ok("grouped-guarantee", leq(lhs, rhs), f"{lhs} > {rhs}")
        return result
    result = basic_hitting_set(split_into_copies(inst))
    lhs, rhs = grouped_guarantee(inst, result.selected)
    result.checks.ok(
        "grouped-guarantee",
        leq(lhs, rhs, abs(lhs) + abs(rhs) + 1.0),
        f"{lhs} > {rhs}",
    )
    return result
