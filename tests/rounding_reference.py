"""Pure-Python references for `evaluate`, `round_labels`, `is_proper` and
`greedy_color`.

These are the term-by-term loop, the per-node generator and the per-node
first-fit loop that the array forms in `localround.rounding` replaced,
kept so tests can compare against them.  They read only the instance's term dicts and perform no
checks.
"""

from __future__ import annotations

from typing import Mapping, Sequence

from localround.graphs import Graph
from localround.rounding import Coloring, FractionalAssignment, UtilityCostInstance

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


def _node_value(row: Row | None, probs: Sequence[float]) -> float:
    if row is None:
        return 0.0
    return sum(p * x for p, x in zip(probs, row) if p != 0.0)


def _edge_value(mat: Matrix | None, pu: Sequence[float], pv: Sequence[float]) -> float:
    if mat is None:
        return 0.0
    total = 0.0
    for a, pa in enumerate(pu):
        if pa == 0.0:
            continue
        row = mat[a]
        total += pa * sum(pb * x for pb, x in zip(pv, row) if pb != 0.0)
    return total


def _one_hot(num_labels: int, label: int) -> tuple[float, ...]:
    return tuple(1.0 if i == label else 0.0 for i in range(num_labels))


def reference_evaluate(
    inst: UtilityCostInstance,
    assignment: FractionalAssignment | Mapping[int, int],
) -> tuple[float, float]:
    if isinstance(assignment, FractionalAssignment):
        probs = assignment.probs
    else:
        probs = {v: _one_hot(inst.num_labels, lab) for v, lab in assignment.items()}
    utility = inst.utility_const
    cost = inst.cost_const
    for node, (urow, crow) in inst.node_terms.items():
        p = probs[node]
        utility += _node_value(urow, p)
        cost += _node_value(crow, p)
    for (u, v), (umat, cmat) in inst.edge_terms.items():
        pu, pv = probs[u], probs[v]
        utility += _edge_value(umat, pu, pv)
        cost += _edge_value(cmat, pu, pv)
    return utility, cost


def reference_round_labels(
    inst: UtilityCostInstance, lam: FractionalAssignment, coloring: Coloring
) -> dict[int, int]:
    g = inst.conflict_graph
    probs: dict[int, list[float]] = {v: list(lam[v]) for v in g.nodes}
    incident: dict[int, list[tuple[int, bool, Matrix | None, Matrix | None]]] = {
        v: [] for v in g.nodes
    }
    for (u, v), (umat, cmat) in inst.edge_terms.items():
        incident[u].append((v, True, umat, cmat))
        incident[v].append((u, False, umat, cmat))

    by_class: list[list[int]] = [[] for _ in range(coloring.num_colors)]
    for v in g.nodes:
        by_class[coloring.colors[v]].append(v)

    labels: dict[int, int] = {}
    nl = inst.num_labels
    for members in by_class:
        for v in members:
            scores = [0.0] * nl
            urow, crow = inst.node_terms.get(v, (None, None))
            if urow is not None:
                for a in range(nl):
                    scores[a] += urow[a]
            if crow is not None:
                for a in range(nl):
                    scores[a] -= crow[a]
            for w, v_is_first, umat, cmat in incident[v]:
                pw = probs[w]
                for a in range(nl):
                    acc = 0.0
                    if umat is not None:
                        if v_is_first:
                            acc += sum(p * x for p, x in zip(pw, umat[a]) if p != 0.0)
                        else:
                            acc += sum(
                                pw[b] * umat[b][a] for b in range(nl) if pw[b] != 0.0
                            )
                    if cmat is not None:
                        if v_is_first:
                            acc -= sum(p * x for p, x in zip(pw, cmat[a]) if p != 0.0)
                        else:
                            acc -= sum(
                                pw[b] * cmat[b][a] for b in range(nl) if pw[b] != 0.0
                            )
                    scores[a] += acc
            best = max(range(nl), key=lambda a: (scores[a], -a))
            labels[v] = best
            probs[v] = list(_one_hot(nl, best))
    return labels


def reference_is_proper(g: Graph, coloring: Coloring) -> bool:
    colors = coloring.colors
    return not any(colors[u] in map(colors.__getitem__, g.neighbors(u)) for u in g.nodes)


def reference_greedy_color(g: Graph) -> Coloring:
    """First-fit coloring in increasing node id, one node at a time."""
    colors: dict[int, int] = {}
    for u in g.nodes:
        taken = {colors[v] for v in g.neighbors(u) if v in colors}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return Coloring(colors, max(colors.values()) + 1 if colors else 0)
