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

Every routine reads an instance's two read-only arrays, `nbr` (neighbour
positions in `v_nodes`) and `weight` (float64), and sums weights left to
right in id order; a set of right or left nodes is a mask.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, compress
from numbers import Real
from typing import Mapping

import numpy as np

from .errors import ClaimChecker, PreconditionError, leq, plain_sum
from .graphs import ArrayView, Graph, first_seen, node_positions, pair_csr
from .rounding import (
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)


@dataclass(frozen=True)
class BipartiteInstance:
    """One hitting-set problem, read-only after construction.

    Left nodes all have exactly `delta` neighbors on the right; `p` is the
    sampling rate the guarantees are phrased against, `norm` the price per
    selected right node, and `k` (grouped variant only) the block size in
    [1, delta].  Left and right ids live in separate namespaces.

    Construction checks `adj` and `weights` and stores them as two
    read-only arrays, rows in `u_nodes` order: `nbr`, the n_u x delta
    positions in `v_nodes` of each left node's neighbours, each row in
    `adj` order, and `weight`, each weight as a float64.  `from_arrays`
    builds an instance from those two arrays instead.
    """

    u_nodes: tuple[int, ...]
    v_nodes: tuple[int, ...]
    adj: Mapping[int, tuple[int, ...]]
    weights: Mapping[int, float]
    delta: int
    p: float
    norm: float
    k: int | None = None
    nbr: np.ndarray = field(init=False, repr=False, compare=False)
    weight: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        u_nodes, v_nodes = tuple(sorted(self.u_nodes)), tuple(sorted(self.v_nodes))
        vset = set(v_nodes)
        _check_sides(u_nodes, v_nodes, self.delta, self.p, self.norm, self.k)
        for u in u_nodes:
            nbrs = self.adj.get(u, ())
            if len(nbrs) != self.delta or len(set(nbrs)) != self.delta:
                raise PreconditionError(f"left node {u} does not have degree {self.delta}")
            if not vset.issuperset(nbrs):
                raise PreconditionError(f"left node {u} has a neighbor outside V")
            w = self.weights.get(u)
            try:
                bad = not isinstance(w, Real) or not 0.0 <= float(w) < math.inf  # NaN too
            except OverflowError:  # an int or Fraction beyond the floats
                bad = True
            if bad:
                raise PreconditionError(f"bad weight at left node {u}")
        ends = chain.from_iterable(map(self.adj.__getitem__, u_nodes))
        nbr = node_positions(v_nodes, ends, len(u_nodes) * self.delta).reshape(-1, self.delta)
        weight = np.fromiter(map(self.weights.__getitem__, u_nodes), np.float64)
        nbr.flags.writeable = weight.flags.writeable = False
        # frozen: the fields are set through the instance dict
        vars(self).update(u_nodes=u_nodes, v_nodes=v_nodes, nbr=nbr, weight=weight)

    @classmethod
    def from_arrays(
        cls,
        u_nodes: tuple[int, ...],
        v_nodes: tuple[int, ...],
        nbr: np.ndarray,
        weight: np.ndarray,
        delta: int,
        p: float,
        norm: float,
        k: int | None = None,
    ) -> "BipartiteInstance":
        """The instance whose left node u_nodes[i] has the neighbours
        v_nodes[j] for j in row i of the n_u x delta position array `nbr`,
        in row order, and the weight weight[i]; both id tuples increasing.
        It equals what the constructor builds from the matching `adj` and
        `weights`, and the constructor's checks run on the arrays at once,
        with the same `PreconditionError`s: a row with a repeated position
        does not have degree delta, a position outside [0, len(v_nodes))
        is a neighbour outside V, and a weight must be finite and
        non-negative; the first failing left node in id order is named.
        `adj` and `weights` are views built from the arrays on first read.
        """
        u_nodes, v_nodes = tuple(u_nodes), tuple(v_nodes)
        if list(u_nodes) != sorted(u_nodes) or list(v_nodes) != sorted(v_nodes):
            raise PreconditionError("node ids must be increasing")
        _check_sides(u_nodes, v_nodes, delta, p, norm, k)
        nbr, weight = np.array(nbr, np.intp), np.array(weight, np.float64)
        if nbr.shape != (len(u_nodes), delta) or weight.shape != (len(u_nodes),):
            raise PreconditionError(
                f"arrays of shape {nbr.shape} and {weight.shape} for "
                f"{len(u_nodes)} left nodes of degree {delta}"
            )
        rows = np.sort(nbr, axis=1)
        repeated = (rows[:, 1:] == rows[:, :-1]).any(axis=1)
        outside = (rows[:, 0] < 0) | (rows[:, -1] >= len(v_nodes))
        bad_weight = ~((weight >= 0.0) & (weight < math.inf))  # NaN too
        failed = repeated | outside | bad_weight
        if failed.any():
            i = int(failed.argmax())
            u = u_nodes[i]
            if repeated[i]:
                raise PreconditionError(f"left node {u} does not have degree {delta}")
            if outside[i]:
                raise PreconditionError(f"left node {u} has a neighbor outside V")
            raise PreconditionError(f"bad weight at left node {u}")
        nbr.flags.writeable = weight.flags.writeable = False
        ids = np.empty(len(v_nodes), object)
        ids[:] = v_nodes

        def adjacency() -> dict:
            return dict(zip(u_nodes, map(tuple, ids[nbr].tolist())))

        inst = cls.__new__(cls)
        # frozen: the fields are set through the instance dict
        vars(inst).update(
            u_nodes=u_nodes,
            v_nodes=v_nodes,
            adj=ArrayView(len(u_nodes), adjacency),
            weights=ArrayView(len(u_nodes), lambda: dict(zip(u_nodes, weight.tolist()))),
            delta=delta,
            p=p,
            norm=norm,
            k=k,
            nbr=nbr,
            weight=weight,
        )
        return inst

    @property
    def total_weight(self) -> float:
        return plain_sum(self.weight)


def _check_sides(
    u_nodes: tuple[int, ...],
    v_nodes: tuple[int, ...],
    delta: int,
    p: float,
    norm: float,
    k: int | None,
) -> None:
    """The checks of an instance that read no neighbours or weights."""
    if len(set(v_nodes)) != len(v_nodes) or len(set(u_nodes)) != len(u_nodes):
        raise PreconditionError("duplicate node ids within a side")
    if delta < 1 or not (0.0 < p < math.inf and 0.0 <= norm < math.inf):
        raise PreconditionError("need delta >= 1, finite p > 0, finite norm >= 0")
    if k is not None and not 1 <= k <= delta:
        raise PreconditionError(f"k={k} outside [1, delta={delta}]")


def _hits(inst: BipartiteInstance, selected: frozenset[int]) -> np.ndarray:
    """Each left node's number of neighbours in `selected`."""
    chosen = np.fromiter(map(selected.__contains__, inst.v_nodes), bool, len(inst.v_nodes))
    return np.count_nonzero(chosen[inst.nbr], axis=1)


def conflict_graph(inst: BipartiteInstance) -> Graph:
    """Graph on V joining right nodes that share a left neighbor: every
    pair of one left node's neighbours, as positions in `v_nodes`, merged
    by `pair_csr`."""
    first, second = np.triu_indices(inst.delta, 1)
    a, b = inst.nbr[:, first].ravel(), inst.nbr[:, second].ravel()
    return Graph._from_csr(inst.v_nodes, *pair_csr(len(inst.v_nodes), a, b))


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
    unhit = plain_sum(inst.weight[_hits(inst, selected) == 0])
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
    under = plain_sum(inst.weight[_hits(inst, selected) <= threshold])
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
    lam = FractionalAssignment(cg.nodes, np.tile((1.0 - q, q), (len(cg.nodes), 1)))
    n_v, delta, norm = len(inst.v_nodes), inst.delta, inst.norm
    weight, nbr, checks = inst.weight, inst.nbr, result.checks
    first, second = np.triu_indices(delta, 1)  # pairs x < y, x major
    node_cost = np.repeat([[0.0, norm]], n_v, axis=0)
    decays = [math.exp(-(t_steps - s) / t_steps * inst.p * delta) for s in range(t_steps + 1)]

    unhit = np.ones(len(inst.u_nodes), bool)
    selected: set[int] = set()

    def potential(step: int) -> float:
        rest = (t_steps - step) / t_steps * norm * 4.0 * inst.p * n_v
        return decays[step] * plain_sum(weight[unhit]) + norm * len(selected) + rest

    phi = potential(0)
    result.phis.append(phi)
    scale = abs(phi) + total_w + 1.0

    for i in range(1, t_steps + 1):
        decay = decays[i]
        live = unhit & (weight != 0.0)
        rows, w = nbr[live], weight[live]
        mass = np.bincount(rows.ravel(), np.repeat(w, delta), minlength=n_v)
        pair = rows[:, first], rows[:, second]
        codes = np.minimum(*pair).astype(np.int64) * n_v + np.maximum(*pair)
        keys, term = first_seen(codes.ravel())
        node_utility = np.zeros((n_v, 2))
        node_utility[:, 1] = decay * mass
        edge_cost = np.zeros((len(keys), 2, 2))
        edge_cost[:, 1, 1] = decay * np.bincount(term, np.repeat(w, len(first)), len(keys))
        step_inst = UtilityCostInstance(
            cg,
            2,
            node_utility,
            node_cost,
            keys // n_v,
            keys % n_v,
            edge_cost,
            utility_const=norm * 4.0 * inst.p / t_steps * n_v,
        )
        fu, fc = evaluate(step_inst, lam)
        checks.ok(
            "step-price-dominance",
            leq(2.0 * fc, fu),
            f"step {i}: fractional utility {fu} < 2 * cost {fc}",
        )
        labels, _ = round_labels(step_inst, lam, coloring, checks=checks)
        # the conflict graph's nodes are v_nodes, in order
        chosen = labels == 1
        batch = frozenset(compress(inst.v_nodes, chosen.tolist()))

        hit = np.count_nonzero(chosen[nbr], axis=1)
        y = 1.0 - hit + hit * (hit - 1) / 2.0
        lhs = decay * plain_sum(y[unhit] * weight[unhit]) + norm * len(batch)
        rhs = (
            decays[i - 1] * plain_sum(weight[unhit])
            + norm * 4.0 * inst.p / t_steps * n_v
        )
        checks.ok(
            "step-budget",
            leq(lhs, rhs, scale),
            f"step {i}: batch breaks the per-step budget ({lhs} > {rhs})",
        )

        selected |= batch
        unhit &= hit == 0
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
    # extend ids by ceil(log2(delta)) + 2 bits; copy indices always fit,
    # so the copy ids are increasing; they stay Python ints, as a shifted
    # 60-bit id outgrows int64
    shift = (inst.delta - 1).bit_length() + 2
    ids = np.add.outer(np.array(inst.u_nodes, object) << shift, range(copies))
    # v_nodes is increasing, so sorted positions are sorted ids
    blocks = np.sort(inst.nbr, axis=1)[:, : copies * k].reshape(-1, k)
    weight = np.repeat(2.0 * inst.weight / copies, copies)
    return BipartiteInstance.from_arrays(
        tuple(ids.ravel().tolist()), inst.v_nodes, blocks, weight, k, inst.p, inst.norm
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
