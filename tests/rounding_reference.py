"""Pure-Python references for `evaluate`, `round_labels`, `is_proper`,
`greedy_color` and the check of `FractionalAssignment`, and the dict
builders tests draw marking objectives with.

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
marking from node-keyed dicts, the form the tests write them in;
`integral` gives an integral marking as the fractional marking of
probabilities 0 and 1, the form `evaluate` takes.
"""

from __future__ import annotations

from itertools import islice
from typing import Mapping, Sequence

import numpy as np

from localround.errors import PreconditionError
from localround.graphs import Graph, csr_rows, edge_ends, expand
from localround.rounding import CliqueCover, Coloring, FractionalAssignment, UtilityCostInstance


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
    node_terms: Mapping[int, tuple[float | None, float | None]] | None = None,
    pair_terms: Mapping[tuple[int, int], float | None] | None = None,
    utility_const: float = 0.0,
) -> UtilityCostInstance:
    """The instance with these terms on a conflict graph, a graph (taken
    as its `edge_cover`) or a clique cover: node -> (utility, cost) when
    marked and (u, v) -> cost when both are marked, u < v, pair keys in
    term order and a None value read as zero.  Each term names its ends'
    entries in the first hub that holds both."""
    cover = edge_cover(conflict) if isinstance(conflict, Graph) else conflict
    node_terms, pair_terms = node_terms or {}, pair_terms or {}
    index = {u: i for i, u in enumerate(cover.nodes)}
    nu, nc = np.zeros(cover.n), np.zeros(cover.n)
    for u, (utility, cost) in node_terms.items():
        nu[index[u]], nc[index[u]] = utility or 0.0, cost or 0.0
    wc = np.array([cost or 0.0 for cost in pair_terms.values()], float)
    entries = hub_entries(cover) if pair_terms else {}
    k = len(pair_terms)
    ends = np.array([entries[e] for e in pair_terms], np.intp).reshape(k, 2)
    return UtilityCostInstance(cover, nu, nc, ends[:, 0], ends[:, 1], wc, utility_const)


def node_terms(inst: UtilityCostInstance) -> dict[int, tuple[float, float]]:
    """node -> (utility, cost) of the nodes with a nonzero utility or
    cost, in id order."""
    at = np.flatnonzero((inst.node_utility != 0.0) | (inst.node_cost != 0.0)).tolist()
    values = zip(inst.node_utility[at].tolist(), inst.node_cost[at].tolist())
    return dict(zip(map(inst.conflict_graph.nodes.__getitem__, at), values))


def edge_terms(inst: UtilityCostInstance) -> dict[tuple[int, int], float]:
    """(u, v) -> cost of every pair term of the instance, ends as ids, in
    term order."""
    node = inst.conflict_graph.nodes.__getitem__
    ends = [(node(a), node(b)) for a, b in inst.edge_terms.tolist()]
    return dict(zip(ends, inst.pair_cost.tolist()))


def assignment(nodes: Sequence[int], probs: Mapping[int, float]) -> FractionalAssignment:
    """The fractional marking whose probability at node u is probs[u], in
    `nodes` order (a graph's `nodes`)."""
    return FractionalAssignment(tuple(nodes), np.array([probs[u] for u in nodes], float))


def integral(inst: UtilityCostInstance, marks) -> FractionalAssignment:
    """An integral marking (node -> mark, or one mark per position) as the
    fractional marking of probabilities 0 and 1 over the conflict graph's
    nodes."""
    nodes = inst.conflict_graph.nodes
    if isinstance(marks, Mapping):
        marks = [marks[u] for u in nodes]
    return FractionalAssignment(nodes, np.asarray(marks, float))


def reference_check_probabilities(probs: Mapping[int, float]) -> None:
    """The per-node check `FractionalAssignment` makes, one probability at
    a time in key order, raising the message it raises."""
    for node, x in probs.items():
        # written so that NaN fails it too
        if not 0.0 <= float(x) <= 1.0:
            raise PreconditionError(f"probability outside [0,1] at node {node}")


def reference_evaluate(
    inst: UtilityCostInstance,
    assignment: FractionalAssignment | Mapping[int, bool],
) -> tuple[float, float]:
    if isinstance(assignment, FractionalAssignment):
        probs = dict(zip(assignment.nodes, assignment.x.tolist()))
    else:
        probs = {v: float(mark) for v, mark in assignment.items()}
    utility, cost = inst.utility_const, 0.0
    for node, (node_utility, node_cost) in node_terms(inst).items():
        utility += probs[node] * node_utility
        cost += probs[node] * node_cost
    for (u, v), pair_cost in edge_terms(inst).items():
        cost += pair_cost * probs[u] * probs[v]
    return utility, cost


def reference_round_labels(
    inst: UtilityCostInstance, lam: FractionalAssignment, coloring: Coloring
) -> dict[int, bool]:
    g = inst.conflict_graph
    probs = dict(zip(lam.nodes, lam.x.tolist()))
    incident: dict[int, list[tuple[int, float]]] = {v: [] for v in g.nodes}
    rows = node_terms(inst)
    # a node sums the terms it is the lower end of, then those it is the
    # higher end of, each in term order
    for (u, v), cost in edge_terms(inst).items():
        incident[u].append((v, cost))
    for (u, v), cost in edge_terms(inst).items():
        incident[v].append((u, cost))

    by_class: list[list[int]] = [[] for _ in range(coloring.num_colors)]
    for v, c in zip(g.nodes, coloring.colors.tolist()):
        by_class[c].append(v)

    marks: dict[int, bool] = {}
    for members in by_class:
        for v in members:
            score = 0.0
            if v in rows:
                utility, cost = rows[v]
                score += utility
                score -= cost
            for w, cost in incident[v]:
                score += 0.0 - cost * probs[w]
            marks[v] = score > 0.0
            probs[v] = float(marks[v])
    return marks


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
