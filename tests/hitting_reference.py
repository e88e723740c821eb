"""Pure-Python references for `localround.hitting`.

`reference_basic_hitting_set` is `basic_hitting_set` as it was before
each step's objective was built as arrays: node terms and pair costs as
dicts of nested tuples, turned into a `UtilityCostInstance` by
`rounding_reference.instance`, and the unhit left nodes as a set of
ids.  Kept so tests can compare against it: the same selection,
potentials, steps and claim counts, bit for bit.  Every weight sum adds
left to right in left-node id order, as the routine's `plain_sum` over
its arrays does; the builtin `sum` compensates float rounding from
Python 3.12 on, and a set of ids iterates in hash-table order.

`reference_split_into_copies`, `reference_basic_guarantee` and
`reference_grouped_guarantee` are the per-left-node loops over `adj` and
`weights` that the routines' position and weight arrays replaced.
"""

from __future__ import annotations

import math

from localround.errors import PreconditionError, leq, plain_sum
from localround.hitting import (
    BipartiteInstance,
    HittingResult,
    HittingStep,
    basic_guarantee,
    conflict_graph,
)
from localround.rounding import evaluate, greedy_color, round_labels

from rounding_reference import assignment, instance


def reference_basic_hitting_set(inst: BipartiteInstance) -> HittingResult:
    total_w = inst.total_weight
    result = HittingResult(selected=frozenset())
    if not inst.u_nodes or total_w == 0.0:
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
    lam = assignment(cg.nodes, {v: (1.0 - q, q) for v in inst.v_nodes})
    n_v = len(inst.v_nodes)
    norm = inst.norm
    checks = result.checks

    member_of: dict[int, list[int]] = {v: [] for v in inst.v_nodes}
    for u in inst.u_nodes:
        if inst.weights[u] == 0.0:
            continue
        for v in inst.adj[u]:
            member_of[v].append(u)

    unhit: set[int] = set(inst.u_nodes)
    selected: set[int] = set()

    def potential(step: int) -> float:
        decay = math.exp(-(t_steps - step) / t_steps * inst.p * inst.delta)
        rest = (t_steps - step) / t_steps * norm * 4.0 * inst.p * n_v
        return (
            decay * plain_sum(inst.weights[u] for u in sorted(unhit))
            + norm * len(selected)
            + rest
        )

    phi = potential(0)
    result.phis.append(phi)
    scale = abs(phi) + total_w + 1.0

    for i in range(1, t_steps + 1):
        decay = math.exp(-(t_steps - i) / t_steps * inst.p * inst.delta)
        prev_decay = math.exp(-(t_steps - (i - 1)) / t_steps * inst.p * inst.delta)
        node_terms: dict[int, tuple] = {}
        pair_w: dict[tuple[int, int], float] = {}
        for v in inst.v_nodes:
            a_v = 0.0
            for u in member_of[v]:
                if u in unhit:
                    a_v += inst.weights[u]
            urow = (0.0, decay * a_v) if a_v else None
            crow = (0.0, norm) if norm else None
            if urow or crow:
                node_terms[v] = (urow, crow)
        for u in sorted(unhit):
            w_u = inst.weights[u]
            if w_u == 0.0:
                continue
            nbrs = inst.adj[u]
            for x in range(len(nbrs)):
                for y in range(x + 1, len(nbrs)):
                    key = (nbrs[x], nbrs[y]) if nbrs[x] < nbrs[y] else (nbrs[y], nbrs[x])
                    pair_w[key] = pair_w.get(key, 0.0) + w_u
        edge_terms = {key: ((0.0, 0.0), (0.0, decay * w)) for key, w in pair_w.items()}
        step_inst = instance(
            cg,
            2,
            node_terms,
            edge_terms,
            utility_const=norm * 4.0 * inst.p / t_steps * n_v,
        )
        fu, fc = evaluate(step_inst, lam)
        checks.ok(
            "step-price-dominance",
            leq(2.0 * fc, fu),
            f"step {i}: fractional utility {fu} < 2 * cost {fc}",
        )
        labels, _ = round_labels(step_inst, lam, coloring, checks=checks)
        batch = frozenset(v for v, lab in zip(cg.nodes, labels.tolist()) if lab == 1)

        lhs = 0.0
        for u in sorted(unhit):
            hit = len(batch.intersection(inst.adj[u]))
            y_u = 1.0 - hit + hit * (hit - 1) / 2.0
            lhs += y_u * inst.weights[u]
        lhs = decay * lhs + norm * len(batch)
        rhs = (
            prev_decay * plain_sum(inst.weights[u] for u in sorted(unhit))
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
        result.steps.append(HittingStep(i, batch, phi_next, lhs, rhs, fu, fc))
        result.phis.append(phi_next)
        result.rounds_h += 2 * coloring.num_colors
        phi = phi_next

    result.selected = frozenset(selected)
    lhs, rhs = basic_guarantee(inst, result.selected)
    checks.ok("hitting-guarantee", leq(lhs, rhs, scale), f"{lhs} > {rhs}")
    return result


def _total_weight(inst: BipartiteInstance) -> float:
    return plain_sum(inst.weights[u] for u in inst.u_nodes)


def reference_basic_guarantee(
    inst: BipartiteInstance, selected: frozenset[int]
) -> tuple[float, float]:
    unhit = plain_sum(
        inst.weights[u]
        for u in inst.u_nodes
        if not selected.intersection(inst.adj[u])
    )
    lhs = unhit + inst.norm * len(selected)
    rhs = math.exp(-inst.p * inst.delta) * _total_weight(inst) + inst.norm * 4.0 * inst.p * len(
        inst.v_nodes
    )
    return lhs, rhs


def reference_grouped_guarantee(
    inst: BipartiteInstance, selected: frozenset[int]
) -> tuple[float, float]:
    threshold = 0.5 * (inst.delta // inst.k)
    under = plain_sum(
        inst.weights[u]
        for u in inst.u_nodes
        if len(selected.intersection(inst.adj[u])) <= threshold
    )
    lhs = under + inst.norm * len(selected)
    rhs = 4.0 * (
        math.exp(-inst.p * inst.k) * _total_weight(inst)
        + inst.norm * inst.p * len(inst.v_nodes)
    )
    return lhs, rhs


def reference_split_into_copies(inst: BipartiteInstance) -> BipartiteInstance:
    k = inst.k
    copies = inst.delta // k
    shift = (inst.delta - 1).bit_length() + 2
    u_nodes: list[int] = []
    adj: dict[int, tuple[int, ...]] = {}
    weights: dict[int, float] = {}
    for u in inst.u_nodes:
        nbrs = sorted(inst.adj[u])
        w = 2.0 * inst.weights[u] / copies
        for j in range(copies):
            cu = (u << shift) + j
            u_nodes.append(cu)
            adj[cu] = tuple(nbrs[j * k : (j + 1) * k])
            weights[cu] = w
    return BipartiteInstance(
        tuple(u_nodes), inst.v_nodes, adj, weights, k, inst.p, inst.norm, None
    )
