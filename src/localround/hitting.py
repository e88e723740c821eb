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
from functools import cached_property
from itertools import chain, repeat, takewhile
from numbers import Real
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import ClaimChecker, PreconditionError, leq, plain_sum
from .graphs import first_seen
from .rounding import (
    CliqueCover,
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)


@dataclass(frozen=True, init=False, eq=False)
class BipartiteInstance:
    """One hitting-set problem, read-only after construction.

    Left nodes all have exactly `delta` neighbors on the right; `p` is the
    sampling rate the guarantees are phrased against, `norm` the price per
    selected right node, and `k` (grouped variant only) the block size in
    [1, delta].  Left and right ids live in separate namespaces.

    An instance is two read-only arrays, rows in `u_nodes` order: `nbr`,
    the n_u x delta positions in `v_nodes` of each left node's
    neighbours, and `weight`, each weight as a float64.  The constructor
    takes them as the dicts `adj` (left node -> neighbour ids) and
    `weights` (left node -> weight), in any id order; `from_arrays`
    takes the arrays.  `adj` and `weights` read back as those dicts,
    built from the arrays on first read, each row in `nbr` order.
    `total_weight` is the weights added left to right in id order,
    which must stay below the largest float.
    """

    u_nodes: tuple[int, ...]
    v_nodes: tuple[int, ...]
    nbr: np.ndarray = field(repr=False)
    weight: np.ndarray = field(repr=False)
    total_weight: float = field(repr=False)
    delta: int
    p: float
    norm: float
    k: int | None = None

    def __init__(
        self,
        u_nodes: Iterable[int],
        v_nodes: Iterable[int],
        adj: Mapping[int, Sequence[int]],
        weights: Mapping[int, Real],
        delta: int,
        p: float,
        norm: float,
        k: int | None = None,
    ):
        """Checks each left node's row length, in id order, then the rows
        before the first of another length as `from_arrays` does, with its
        messages, so that the first failing left node is named, and its
        first failing check: degree, neighbours in V, weight.  A node
        missing from `adj` does not have degree delta, and a weight that
        is missing, not a real number or beyond the floats is bad.  The
        total of those rows' weights is checked after them."""
        u_nodes, v_nodes = tuple(sorted(u_nodes)), tuple(sorted(v_nodes))
        _check_sides(u_nodes, v_nodes, delta, p, norm, k)
        rows = list(takewhile(lambda row: len(row) == delta, (adj.get(u, ()) for u in u_nodes)))
        head = u_nodes[: len(rows)]
        index = dict(zip(v_nodes, range(len(v_nodes))))
        ends = map(index.get, chain.from_iterable(rows), repeat(-1))
        nbr = np.fromiter(ends, np.intp, len(head) * delta).reshape(-1, delta)
        weight = list(map(_as_float, map(weights.get, head)))
        inst = self.from_arrays(head, v_nodes, nbr, weight, delta, p, norm, k)
        if len(head) < len(u_nodes):
            raise PreconditionError(f"left node {u_nodes[len(head)]} does not have degree {delta}")
        # frozen: the fields are set through the instance dict
        vars(self).update(vars(inst))

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
        Every row is checked at once: a row with a repeated position does
        not have degree delta, a position outside [0, len(v_nodes)) is a
        neighbour outside V, and a weight must be finite and
        non-negative; the first failing left node in id order is named,
        in a `PreconditionError`.  Then the weights' total must be finite
        too.
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
        with np.errstate(over="ignore"):  # an infinite total is refused below
            total_weight = plain_sum(weight)
        if not math.isfinite(total_weight):
            raise PreconditionError("the weights add up to more than the largest float")
        nbr.flags.writeable = weight.flags.writeable = False
        inst = cls.__new__(cls)
        # frozen: the fields are set through the instance dict
        vars(inst).update(
            u_nodes=u_nodes,
            v_nodes=v_nodes,
            delta=delta,
            p=p,
            norm=norm,
            k=k,
            nbr=nbr,
            weight=weight,
            total_weight=total_weight,
        )
        return inst

    @cached_property
    def adj(self) -> dict[int, tuple[int, ...]]:
        ids = np.empty(len(self.v_nodes), object)
        ids[:] = self.v_nodes
        return dict(zip(self.u_nodes, map(tuple, ids[self.nbr].tolist())))

    @cached_property
    def weights(self) -> dict[int, float]:
        return dict(zip(self.u_nodes, self.weight.tolist()))


def _as_float(w: object) -> float:
    """w as a float, or NaN, which the weight check refuses, when w is not
    a real number or is one beyond the floats."""
    if isinstance(w, float):  # most weights; much faster than the `Real` check
        return w
    try:
        return float(w) if isinstance(w, Real) else math.nan
    except OverflowError:  # an int or Fraction beyond the floats
        return math.nan


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


def _mask(inst: BipartiteInstance, selected: frozenset[int]) -> np.ndarray:
    """`selected` as one bool per position in `v_nodes`; a selected id
    outside V is a `PreconditionError` that names it."""
    outside = selected.difference(inst.v_nodes)
    if outside:
        raise PreconditionError(f"selected node {min(outside)} is not in V")
    return np.fromiter(map(selected.__contains__, inst.v_nodes), bool, len(inst.v_nodes))


def _hits(inst: BipartiteInstance, picked: np.ndarray) -> np.ndarray:
    """Each left node's number of neighbours among the positions the mask
    `picked` holds."""
    return np.count_nonzero(picked[inst.nbr], axis=1)


def _ids(inst: BipartiteInstance, picked: np.ndarray) -> frozenset[int]:
    """The ids of the positions the mask `picked` holds."""
    return frozenset(map(inst.v_nodes.__getitem__, np.flatnonzero(picked).tolist()))


def conflict_graph(inst: BipartiteInstance) -> CliqueCover:
    """The conflict graph on V, given by its cliques: right nodes
    conflict when they share a left neighbour, so each left node's
    neighbours, as increasing positions in `v_nodes`, form one hub, hub i
    for u_nodes[i]."""
    n_u, delta = inst.nbr.shape
    hub_ptr = np.arange(0, n_u * delta + 1, delta)
    return CliqueCover(inst.v_nodes, hub_ptr, np.sort(inst.nbr, axis=1).ravel())


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
    # `selected` as a read-only mask over the solved instance's v_nodes
    picked: np.ndarray | None = field(default=None, repr=False, compare=False)


def basic_guarantee(inst: BipartiteInstance, selected: frozenset[int]) -> tuple[float, float]:
    """(achieved, allowed) sides of the basic guarantee for `selected`, a
    set of ids in V."""
    return _basic_sides(inst, _mask(inst, selected))


def _basic_sides(inst: BipartiteInstance, picked: np.ndarray) -> tuple[float, float]:
    unhit = plain_sum(inst.weight[_hits(inst, picked) == 0])
    lhs = unhit + inst.norm * int(np.count_nonzero(picked))
    rhs = math.exp(-inst.p * inst.delta) * inst.total_weight + inst.norm * 4.0 * inst.p * len(
        inst.v_nodes
    )
    return lhs, rhs


def grouped_guarantee(inst: BipartiteInstance, selected: frozenset[int]) -> tuple[float, float]:
    """(achieved, allowed) sides of the grouped guarantee for `selected`, a
    set of ids in V."""
    if inst.k is None:
        raise PreconditionError("grouped guarantee needs k")
    return _grouped_sides(inst, _mask(inst, selected))


def _grouped_sides(inst: BipartiteInstance, picked: np.ndarray) -> tuple[float, float]:
    threshold = 0.5 * (inst.delta // inst.k)
    under = plain_sum(inst.weight[_hits(inst, picked) <= threshold])
    lhs = under + inst.norm * int(np.count_nonzero(picked))
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

    What no step changes is done once per solve: the conflict graph and
    its coloring, and the pair table, every left node's pairs of
    neighbours in row order, each as the int64 code of its two positions
    and as its ends' entries in the left node's hub, checked once to lie
    in that hub (`CliqueCover.pair_ends`).  A step's objective is built
    as arrays from the table's live rows: right node v weighs its live
    (unhit, nonzero) left neighbours, a pair of right nodes the live left
    nodes adjacent to both, each summed in left-node order, and pairs keep
    the order the left nodes first meet them in, so it equals the loop's;
    only its new values are checked, for finiteness.  The selection, the
    batches' union, is a mask over `v_nodes` until the solve returns it.
    """
    total_w = inst.total_weight
    result = HittingResult(selected=frozenset())
    if not inst.u_nodes or total_w == 0.0:
        # nothing to hit: the empty selection already meets the guarantee
        result.picked = np.zeros(len(inst.v_nodes), bool)
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
    lam = FractionalAssignment(cg.nodes, np.full(len(cg.nodes), q))
    n_v, delta, norm = len(inst.v_nodes), inst.delta, inst.norm
    weight, nbr, checks = inst.weight, inst.nbr, result.checks
    first, second = np.triu_indices(delta, 1)  # pairs x < y, x major
    # the entry in cg of each neighbour: row i's hub is row i sorted, so a
    # hub's members increase with their entries
    entry = np.empty(nbr.shape, np.intp)
    np.put_along_axis(
        entry, np.argsort(nbr, axis=1), np.arange(nbr.size).reshape(nbr.shape), axis=1
    )
    pair = entry[:, first], entry[:, second]
    ends = cg.pair_ends(np.minimum(*pair).ravel(), np.maximum(*pair).ravel())
    low, high = (end.reshape(len(nbr), len(first)) for end in ends)
    codes = low.astype(np.int64) * n_v + high
    node_cost = np.full(n_v, norm)  # finite, as norm is
    utility_const = norm * 4.0 * inst.p / t_steps * n_v
    decays = [math.exp(-(t_steps - s) / t_steps * inst.p * delta) for s in range(t_steps + 1)]

    nonzero = weight != 0.0
    unhit = np.ones(len(inst.u_nodes), bool)
    unhit_w = total_w  # the weight of the unhit left nodes
    picked = np.zeros(n_v, bool)

    def potential(step: int) -> float:
        rest = (t_steps - step) / t_steps * norm * 4.0 * inst.p * n_v
        return decays[step] * unhit_w + norm * int(np.count_nonzero(picked)) + rest

    phi = potential(0)
    result.phis.append(phi)
    scale = abs(phi) + total_w + 1.0

    for i in range(1, t_steps + 1):
        decay = decays[i]
        live = unhit & nonzero
        w = weight[live]
        mass = np.bincount(nbr[live].ravel(), np.repeat(w, delta), minlength=n_v)
        seen, term = first_seen(codes[live].ravel())
        step_inst = UtilityCostInstance._over_checked_pairs(
            cg,
            decay * mass,
            node_cost,
            low[live].ravel()[seen],
            high[live].ravel()[seen],
            decay * np.bincount(term, np.repeat(w, len(first)), len(seen)),
            utility_const,
        )
        fu, fc = evaluate(step_inst, lam)
        checks.ok(
            "step-price-dominance",
            leq(2.0 * fc, fu),
            f"step {i}: fractional utility {fu} < 2 * cost {fc}",
        )
        # the conflict graph's nodes are v_nodes, in order
        chosen, _ = round_labels(step_inst, lam, coloring, checks=checks)

        hit = np.count_nonzero(chosen[nbr], axis=1)
        y = 1.0 - hit + hit * (hit - 1) / 2.0
        lhs = decay * plain_sum(y[unhit] * weight[unhit]) + norm * int(np.count_nonzero(chosen))
        rhs = decays[i - 1] * unhit_w + norm * 4.0 * inst.p / t_steps * n_v
        checks.ok(
            "step-budget",
            leq(lhs, rhs, scale),
            f"step {i}: batch breaks the per-step budget ({lhs} > {rhs})",
        )

        picked |= chosen
        unhit &= hit == 0
        unhit_w = plain_sum(weight[unhit])
        phi_next = potential(i)
        checks.ok(
            "potential-monotone",
            leq(phi_next, phi, scale),
            f"step {i}: potential rose {phi} -> {phi_next}",
        )
        result.steps.append(
            HittingStep(i, _ids(inst, chosen), phi_next, lhs, rhs, fu, fc)
        )
        result.phis.append(phi_next)
        result.rounds_h += 2 * coloring.num_colors
        phi = phi_next

    picked.flags.writeable = False
    result.selected, result.picked = _ids(inst, picked), picked
    lhs, rhs = _basic_sides(inst, picked)
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
        result = HittingResult(selected=frozenset(), picked=np.zeros(len(inst.v_nodes), bool))
        lhs, rhs = grouped_guarantee(inst, frozenset())
        result.checks.ok("grouped-guarantee", leq(lhs, rhs), f"{lhs} > {rhs}")
        return result
    # the copies keep inst's v_nodes, so the mask is over them
    result = basic_hitting_set(split_into_copies(inst))
    lhs, rhs = _grouped_sides(inst, result.picked)
    result.checks.ok(
        "grouped-guarantee",
        leq(lhs, rhs, abs(lhs) + abs(rhs) + 1.0),
        f"{lhs} > {rhs}",
    )
    return result
