"""Pure-Python references for `evaluate`, `round_labels`, `is_proper`,
`greedy_color` and the checks of `FractionalAssignment`, and the dict
builders tests draw instances with.

The references are the term-by-term loop, the per-node generator, the
per-node first-fit loop and the per-node check loop that the array forms
in `localround.rounding` replaced, kept so tests can compare against
them.  They read only the instance's term dicts, and only the check loop
checks anything.

`instance` and `assignment` build the one array form of an instance and a
fractional labeling from node-keyed dicts, the form the tests write
them in; `integral` gives an integral labeling as its one-hot fractional
labeling, the form `evaluate` takes.
"""

from __future__ import annotations

from typing import Mapping, Sequence

import numpy as np

from localround.errors import PreconditionError, plain_sum
from localround.graphs import Graph
from localround.rounding import Coloring, FractionalAssignment, UtilityCostInstance

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


def instance(
    g: Graph,
    num_labels: int,
    node_terms: Mapping[int, tuple[Row | None, Row | None]] | None = None,
    edge_terms: Mapping[tuple[int, int], Matrix | None] | None = None,
    utility_const: float = 0.0,
) -> UtilityCostInstance:
    """The instance with these terms: node -> (utility row, cost row) and
    (u, v) -> cost matrix, u < v, edge keys in term order and a None
    table read as zeros."""
    node_terms, edge_terms = node_terms or {}, edge_terms or {}
    index = {u: i for i, u in enumerate(g.nodes)}
    n, nl, k = g.n, num_labels, len(edge_terms)
    nu, nc = np.zeros((n, nl)), np.zeros((n, nl))
    for u, (urow, crow) in node_terms.items():
        for table, row in ((nu, urow), (nc, crow)):
            if row is not None:
                table[index[u]] = row
    wc = np.zeros((k, nl, nl))
    for e, cmat in enumerate(edge_terms.values()):
        if cmat is not None:
            wc[e] = cmat
    ends = np.array([(index[u], index[v]) for u, v in edge_terms], np.intp).reshape(k, 2)
    return UtilityCostInstance(g, num_labels, nu, nc, ends[:, 0], ends[:, 1], wc, utility_const)


def assignment(nodes: Sequence[int], probs: Mapping[int, Sequence[float]]) -> FractionalAssignment:
    """The fractional labeling whose vector at node u is probs[u], rows in
    `nodes` order (a graph's `nodes`); every vector has the same length."""
    rows = [tuple(map(float, probs[u])) for u in nodes]
    width = len(rows[0]) if rows else 0
    return FractionalAssignment(tuple(nodes), np.array(rows, float).reshape(len(rows), width))


def integral(inst: UtilityCostInstance, labels) -> FractionalAssignment:
    """An integral labeling (node -> label, or one label per position) as
    the one-hot fractional labeling over the conflict graph's nodes."""
    nodes = inst.conflict_graph.nodes
    if isinstance(labels, Mapping):
        labels = [labels[u] for u in nodes]
    return FractionalAssignment(nodes, np.eye(inst.num_labels)[np.asarray(labels, np.intp)])


def reference_check_probabilities(probs: Mapping[int, Sequence[float]]) -> None:
    """The per-node checks `FractionalAssignment` makes, one vector at a
    time in key order, raising the message it raises."""
    for node, vec in probs.items():
        vec = tuple(float(x) for x in vec)
        if not vec:
            raise PreconditionError(f"empty probability vector at node {node}")
        # written so that NaN fails it too
        if not all(-1e-12 <= x <= 1.0 + 1e-12 for x in vec):
            raise PreconditionError(f"probabilities outside [0,1] at node {node}")
        total = plain_sum(vec)
        if abs(total - 1.0) > 1e-9:
            raise PreconditionError(f"probabilities at node {node} sum to {total!r}")


def _rows(lam: FractionalAssignment) -> dict[int, list[float]]:
    return dict(zip(lam.nodes, lam.matrix.tolist()))


def _node_value(row: Row, probs: Sequence[float]) -> float:
    return sum(p * x for p, x in zip(probs, row) if p != 0.0)


def _edge_value(mat: Matrix, pu: Sequence[float], pv: Sequence[float]) -> float:
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
        probs = _rows(assignment)
    else:
        probs = {v: _one_hot(inst.num_labels, lab) for v, lab in assignment.items()}
    utility, cost = inst.utility_const, 0.0
    for node, (urow, crow) in inst.node_terms.items():
        p = probs[node]
        utility += _node_value(urow, p)
        cost += _node_value(crow, p)
    for (u, v), cmat in inst.edge_terms.items():
        cost += _edge_value(cmat, probs[u], probs[v])
    return utility, cost


def reference_round_labels(
    inst: UtilityCostInstance, lam: FractionalAssignment, coloring: Coloring
) -> dict[int, int]:
    g = inst.conflict_graph
    probs = _rows(lam)
    incident: dict[int, list[tuple[int, bool, Matrix]]] = {v: [] for v in g.nodes}
    for (u, v), cmat in inst.edge_terms.items():
        incident[u].append((v, True, cmat))
        incident[v].append((u, False, cmat))

    by_class: list[list[int]] = [[] for _ in range(coloring.num_colors)]
    for v, c in zip(g.nodes, coloring.colors.tolist()):
        by_class[c].append(v)

    labels: dict[int, int] = {}
    nl = inst.num_labels
    for members in by_class:
        for v in members:
            scores = [0.0] * nl
            if v in inst.node_terms:
                urow, crow = inst.node_terms[v]
                for a in range(nl):
                    scores[a] += urow[a]
                for a in range(nl):
                    scores[a] -= crow[a]
            for w, v_is_first, cmat in incident[v]:
                pw = probs[w]
                for a in range(nl):
                    acc = 0.0
                    if v_is_first:
                        acc -= sum(p * x for p, x in zip(pw, cmat[a]) if p != 0.0)
                    else:
                        acc -= sum(pw[b] * cmat[b][a] for b in range(nl) if pw[b] != 0.0)
                    scores[a] += acc
            best = max(range(nl), key=lambda a: (scores[a], -a))
            labels[v] = best
            probs[v] = list(_one_hot(nl, best))
    return labels


def reference_is_proper(g: Graph, colors: Mapping[int, int]) -> bool:
    return not any(colors[u] in map(colors.__getitem__, g.neighbors(u)) for u in g.nodes)


def reference_greedy_color(g: Graph) -> dict[int, int]:
    """First-fit coloring in increasing node id, one node at a time."""
    colors: dict[int, int] = {}
    for u in g.nodes:
        taken = {colors[v] for v in g.neighbors(u) if v in colors}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return colors
