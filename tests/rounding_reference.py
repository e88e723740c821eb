"""Pure-Python references for `evaluate`, `round_labels`, `is_proper`,
`greedy_color` and the checks of `FractionalAssignment`, and the dict
builders tests draw instances with.

The references are the term-by-term loop, the per-node generator, the
per-node first-fit loop and the per-node check loop that the array forms
in `localround.rounding` replaced, kept so tests can compare against
them.  They read only the instance's term dicts, `node_terms` and
`edge_terms`, the dict form of its arrays, and only the check loop
checks anything.  `csr_first_fit` is the first-fit in waves over a
graph's sorted adjacency that colored the materialised square (and the
hitting sets' pair graph) before the conflict graph became a clique
cover, kept as the reference the cover's coloring must equal.

`edge_cover` gives a graph as a clique cover with one hub per edge, and
`conflict_pairs` the graph a cover describes.  `instance` and
`assignment` build the one array form of an instance and a fractional
labeling from node-keyed dicts, the form the tests write them in;
`integral` gives an integral labeling as its one-hot fractional
labeling, the form `evaluate` takes.
"""

from __future__ import annotations

from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from localround.errors import PreconditionError, plain_sum
from localround.graphs import Graph, csr_rows, edge_ends, expand
from localround.rounding import CliqueCover, Coloring, FractionalAssignment, UtilityCostInstance

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


def edge_cover(g: Graph) -> CliqueCover:
    """g as a clique cover: one hub per edge, in `g.edges()` order, so two
    nodes conflict exactly when g joins them."""
    a, b = edge_ends(g)
    return CliqueCover(g.nodes, np.arange(0, 2 * len(a) + 1, 2), np.column_stack((a, b)).ravel())


def conflict_pairs(cover: CliqueCover) -> Graph:
    """The graph on the cover's nodes joining every two members of a hub."""
    ptr, members = cover.hub_ptr.tolist(), cover.members.tolist()
    node = cover.nodes.__getitem__
    edges = []
    for lo, hi in zip(ptr, ptr[1:]):
        hub = members[lo:hi]
        edges += [(node(a), node(b)) for i, a in enumerate(hub) for b in hub[i + 1 :]]
    return Graph(nodes=cover.nodes, edges=edges)


def hub_entries(cover: CliqueCover) -> dict[tuple[int, int], tuple[int, int]]:
    """(u, v), u < v, of every conflicting pair of ids -> the entries of u
    and v in the first hub that holds both."""
    ptr, members = cover.hub_ptr.tolist(), cover.members.tolist()
    found: dict[tuple[int, int], tuple[int, int]] = {}
    for lo, hi in zip(ptr, ptr[1:]):
        for i in range(lo, hi):
            for j in range(i + 1, hi):
                pair = (cover.nodes[members[i]], cover.nodes[members[j]])
                found.setdefault(pair, (i, j))
    return found


def instance(
    conflict: Graph | CliqueCover,
    num_labels: int,
    node_terms: Mapping[int, tuple[Row | None, Row | None]] | None = None,
    edge_terms: Mapping[tuple[int, int], Matrix | None] | None = None,
    utility_const: float = 0.0,
) -> UtilityCostInstance:
    """The instance with these terms on a conflict graph, a graph (taken
    as its `edge_cover`) or a clique cover: node -> (utility row, cost
    row) and (u, v) -> cost matrix, u < v, edge keys in term order and a
    None table read as zeros.  Each term names its ends' entries in the
    first hub that holds both."""
    cover = edge_cover(conflict) if isinstance(conflict, Graph) else conflict
    node_terms, edge_terms = node_terms or {}, edge_terms or {}
    index = {u: i for i, u in enumerate(cover.nodes)}
    n, nl, k = cover.n, num_labels, len(edge_terms)
    nu, nc = np.zeros((n, nl)), np.zeros((n, nl))
    for u, (urow, crow) in node_terms.items():
        for table, row in ((nu, urow), (nc, crow)):
            if row is not None:
                table[index[u]] = row
    wc = np.zeros((k, nl, nl))
    for e, cmat in enumerate(edge_terms.values()):
        if cmat is not None:
            wc[e] = cmat
    entries = hub_entries(cover) if k else {}
    ends = np.array([entries[e] for e in edge_terms], np.intp).reshape(k, 2)
    return UtilityCostInstance(cover, num_labels, nu, nc, ends[:, 0], ends[:, 1], wc, utility_const)


def node_terms(inst: UtilityCostInstance) -> dict[int, tuple[Row, Row]]:
    """node -> (utility row, cost row) of the nodes with a nonzero row of
    the instance's node tables, in id order."""
    at = np.flatnonzero(inst.node_utility.any(axis=1) | inst.node_cost.any(axis=1)).tolist()
    rows = zip(map(tuple, inst.node_utility[at].tolist()), map(tuple, inst.node_cost[at].tolist()))
    return dict(zip(map(inst.conflict_graph.nodes.__getitem__, at), rows))


def edge_terms(inst: UtilityCostInstance) -> dict[tuple[int, int], Matrix]:
    """(u, v) -> cost matrix of every pair term of the instance, ends as
    ids, in term order."""
    node = inst.conflict_graph.nodes.__getitem__
    ends = [(node(a), node(b)) for a, b in inst.edge_terms.tolist()]
    return dict(zip(ends, (tuple(map(tuple, mat)) for mat in inst.edge_cost.tolist())))


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
    for node, (urow, crow) in node_terms(inst).items():
        p = probs[node]
        utility += _node_value(urow, p)
        cost += _node_value(crow, p)
    for (u, v), cmat in edge_terms(inst).items():
        cost += _edge_value(cmat, probs[u], probs[v])
    return utility, cost


def reference_round_labels(
    inst: UtilityCostInstance, lam: FractionalAssignment, coloring: Coloring
) -> dict[int, int]:
    g = inst.conflict_graph
    probs = _rows(lam)
    incident: dict[int, list[tuple[int, bool, Matrix]]] = {v: [] for v in g.nodes}
    rows = node_terms(inst)
    for (u, v), cmat in edge_terms(inst).items():
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
            if v in rows:
                urow, crow = rows[v]
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


def csr_first_fit(g: Graph) -> list[int]:
    """The first-fit color of every node of g by position, in waves over
    `g.csr()`: a node's lower neighbours are a prefix of its row, a wave
    is the nodes whose lower neighbours are all colored, and each member
    marks its color in the rows of its higher neighbours in a table of
    taken colors, one column per color up to the largest lower degree.
    From the first wave after wave 0 with fewer than 8 nodes, the rest
    are colored one at a time in id order."""
    indptr, nbr = g.csr()
    n = g.n
    row = csr_rows(indptr)
    lower = np.bincount(row[nbr < row], minlength=n)
    upper = indptr[:-1] + lower
    waiting = lower.copy()
    color = np.zeros(n, np.int64)
    taken = np.zeros((n, int(lower.max(initial=0)) + 1), bool)
    wave = np.flatnonzero(lower == 0)
    waiting[wave] = -1
    while True:
        counts = indptr[wave + 1] - upper[wave]
        up = nbr[expand(upper[wave], counts)]
        taken[up, np.repeat(color[wave], counts)] = True
        waiting -= np.bincount(up, minlength=n)
        wave = np.flatnonzero(waiting == 0)
        if len(wave) < 8:
            break
        waiting[wave] = -1
        color[wave] = taken[wave].argmin(axis=1)
    rest = np.flatnonzero(waiting >= 0)
    colors = color.tolist()
    below = iter(nbr[expand(indptr[rest], lower[rest])].tolist())
    for u, k in zip(rest.tolist(), lower[rest].tolist()):
        used = {colors[v] for v in islice(below, k)}
        c = 0
        while c in used:
            c += 1
        colors[u] = c
    return colors
