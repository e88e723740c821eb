"""Pure-Python reference for `localround.hitting.basic_hitting_set`.

This is the routine as it was before each step's objective was built as
arrays: node terms and pair costs as dicts of nested tuples, handed to
the dict constructor of `UtilityCostInstance`.  Kept so tests can compare
against it: the same selection, potentials, steps and claim counts, bit
for bit.  One line differs: a right node's utility weight is summed with
`+=` in left-node order, where the routine used the builtin `sum`, which
adds the same way on Python 3.11 and earlier but has compensated float
sums from 3.12 on.
"""

from __future__ import annotations

import math

from localround.errors import PreconditionError, leq
from localround.hitting import (
    BipartiteInstance,
    HittingResult,
    HittingStep,
    basic_guarantee,
    conflict_graph,
)
from localround.rounding import (
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)


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
    lam = FractionalAssignment({v: (1.0 - q, q) for v in inst.v_nodes})
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
            decay * sum(inst.weights[u] for u in unhit)
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
        edge_terms = {
            key: (None, ((0.0, 0.0), (0.0, decay * w)))
            for key, w in pair_w.items()
        }
        step_inst = UtilityCostInstance(
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
        labels = round_labels(step_inst, lam, coloring, checks=checks)
        batch = frozenset(v for v in inst.v_nodes if labels[v] == 1)

        lhs = 0.0
        for u in sorted(unhit):
            hit = len(batch.intersection(inst.adj[u]))
            y_u = 1.0 - hit + hit * (hit - 1) / 2.0
            lhs += y_u * inst.weights[u]
        lhs = decay * lhs + norm * len(batch)
        rhs = (
            prev_decay * sum(inst.weights[u] for u in unhit)
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
