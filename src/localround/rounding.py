"""Pairwise objectives over labelings and deterministic local rounding.

An objective is a sum of per-node terms and per-conflict-edge terms, each
depending only on the labels of its own node(s).  For a fractional
(probabilistic) labeling the objective is its expectation under per-node
independent label draws; since every term touches at most two nodes, only
single marginals and pairwise products ever appear.

Objectives are evaluated as arrays.  Nodes are numbered by their position
in the conflict graph's id order, and a labeling over L labels becomes an
n x L probability matrix P (one-hot rows for an integral labeling).  With
the node tables N (n x L) and the edge tensors W (E x L x L) of an
instance, each side of the objective is

    const + sum(N * P) + sum over terms e = (u, v) of P[u] . W[e] . P[v].

`round_labels` converts a fractional labeling into an integral one whose
utility-minus-cost never drops below the fractional value: it walks the
color classes of a proper coloring of the conflict graph in increasing
order and fixes each node to the label maximizing the conditional
expectation of the terms it participates in.  A term is a conflict edge,
so no term joins two nodes of one color class: every member's conditional
scores read only rows of P outside its class, which fixing the class does
not change.  One gather of the class's incident terms and one scatter of
the chosen one-hot rows therefore give exactly what fixing the members one
after another would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .errors import ClaimChecker, PreconditionError, REL_TOL, geq
from .graphs import Graph
from .ledger import RoundLedger

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


@dataclass(frozen=True)
class Coloring:
    """Color index per node; proper on the intended conflict graph."""

    colors: Mapping[int, int]
    num_colors: int


class FractionalAssignment:
    """Per-node probability vectors over a common finite label alphabet."""

    __slots__ = ("probs",)

    def __init__(self, probs: Mapping[int, Sequence[float]]):
        clean: dict[int, tuple[float, ...]] = {}
        for node, vec in probs.items():
            vec = tuple(float(x) for x in vec)
            if not vec:
                raise PreconditionError(f"empty probability vector at node {node}")
            # written so that NaN fails it too
            if not all(-1e-12 <= x <= 1.0 + 1e-12 for x in vec):
                raise PreconditionError(f"probabilities outside [0,1] at node {node}")
            if abs(sum(vec) - 1.0) > 1e-9:
                raise PreconditionError(f"probabilities at node {node} sum to {sum(vec)!r}")
            clean[node] = vec
        self.probs = clean

    def __getitem__(self, node: int) -> tuple[float, ...]:
        return self.probs[node]


def _stack(tables: list, shape: tuple[int, ...]) -> np.ndarray | None:
    """The tables as one (len(tables), *shape) float array; None when some
    table has the wrong shape or a non-finite entry."""
    if not tables:
        return np.zeros((0, *shape))
    try:
        arr = np.array(tables, dtype=float)
    except (TypeError, ValueError):
        return None
    if arr.shape != (len(tables), *shape) or not np.isfinite(arr).all():
        return None
    return arr


def _side_tables(
    terms: dict, rows: Sequence[int], shape: tuple[int, ...], describe: Callable
) -> list[np.ndarray]:
    """Utility and cost sides of `terms` as two arrays of `shape`, the k-th
    term in row rows[k]; None tables and rows without a term stay zero.
    `describe(key)` names a term whose table is malformed."""
    keys, pairs = list(terms), list(terms.values())
    sides = []
    for side in (0, 1):
        present = [k for k, pair in enumerate(pairs) if pair[side] is not None]
        values = _stack([pairs[k][side] for k in present], shape[1:])
        if values is None:
            bad = next(k for k in present if _stack([pairs[k][side]], shape[1:]) is None)
            raise PreconditionError(f"bad {describe(keys[bad])}")
        table = np.zeros(shape)
        table[[rows[k] for k in present]] = values
        sides.append(table)
    return sides


class UtilityCostInstance:
    """Conflict graph plus utility/cost tables for nodes and edges.

    node_terms maps node -> (utility_row, cost_row), one value per label;
    edge_terms maps a canonical (u, v) edge (u < v) to a pair of matrices
    indexed [label_u][label_v].  Either member of a pair may be None for
    an all-zero table.  Constant offsets hold label-independent mass.

    The term dicts are kept as given; construction also builds their array
    form once.  Node ids map to positions in `conflict_graph.nodes` order;
    `_nu`/`_nc` are the n x L node utility/cost tables (zero rows for
    nodes without a term), `_eu`/`_ev` the endpoint positions of the E
    edge terms in `edge_terms` order, and `_wu`/`_wc` their E x L x L
    utility/cost tensors.
    """

    __slots__ = (
        "conflict_graph",
        "num_labels",
        "node_terms",
        "edge_terms",
        "utility_const",
        "cost_const",
        "_nu",
        "_nc",
        "_eu",
        "_ev",
        "_wu",
        "_wc",
    )

    def __init__(
        self,
        conflict_graph: Graph,
        num_labels: int,
        node_terms: Mapping[int, tuple[Row | None, Row | None]] | None = None,
        edge_terms: Mapping[tuple[int, int], tuple[Matrix | None, Matrix | None]] | None = None,
        utility_const: float = 0.0,
        cost_const: float = 0.0,
    ):
        if num_labels < 1:
            raise PreconditionError("need at least one label")
        self.conflict_graph = conflict_graph
        self.num_labels = num_labels
        self.node_terms = dict(node_terms or {})
        self.edge_terms = dict(edge_terms or {})
        self.utility_const = float(utility_const)
        self.cost_const = float(cost_const)
        index = {v: i for i, v in enumerate(conflict_graph.nodes)}
        n, nl = len(index), num_labels

        for node in self.node_terms:
            if node not in index:
                raise PreconditionError(f"term on unknown node {node}")
        self._nu, self._nc = _side_tables(
            self.node_terms,
            [index[node] for node in self.node_terms],
            (n, nl),
            lambda node: f"node table at {node}",
        )

        for u, v in self.edge_terms:
            if not (u < v and conflict_graph.has_edge(u, v)):
                raise PreconditionError(f"edge term ({u},{v}) is not a conflict edge")
        num_edges = len(self.edge_terms)
        self._eu = np.fromiter((index[u] for u, _ in self.edge_terms), np.intp, num_edges)
        self._ev = np.fromiter((index[v] for _, v in self.edge_terms), np.intp, num_edges)
        self._wu, self._wc = _side_tables(
            self.edge_terms,
            range(num_edges),
            (num_edges, nl, nl),
            lambda edge: f"edge table at ({edge[0]},{edge[1]})",
        )

    def decision_nodes(self) -> tuple[int, ...]:
        return self.conflict_graph.nodes


def _probabilities(
    inst: UtilityCostInstance, assignment: FractionalAssignment | Mapping[int, int]
) -> np.ndarray:
    """The n x L probability matrix of a labeling, rows in node order."""
    nodes = inst.conflict_graph.nodes
    n, nl = len(nodes), inst.num_labels
    try:
        if isinstance(assignment, FractionalAssignment):
            rows = [assignment.probs[v] for v in nodes]
        else:
            labels = np.fromiter((assignment[v] for v in nodes), np.intp, n)
    except KeyError as exc:
        raise PreconditionError(f"assignment misses decision node {exc.args[0]}") from None
    if isinstance(assignment, FractionalAssignment):
        try:
            return np.array(rows, dtype=float).reshape(n, nl)
        except ValueError:
            bad = next(v for v, row in zip(nodes, rows) if len(row) != nl)
            raise PreconditionError(f"probability vector at node {bad} needs {nl} labels") from None
    if n and (labels.min() < 0 or labels.max() >= nl):
        raise PreconditionError(f"integral labels must lie in [0, {nl})")
    probs = np.zeros((n, nl))
    probs[np.arange(n), labels] = 1.0
    return probs


def evaluate(
    inst: UtilityCostInstance,
    assignment: FractionalAssignment | Mapping[int, int],
) -> tuple[float, float]:
    """(utility, cost) of a fractional or integral labeling.

    Integral labelings are plain node -> label index mappings; they are
    evaluated as the degenerate one-hot distribution.
    """
    probs = _probabilities(inst, assignment)
    pu, pv = probs[inst._eu], probs[inst._ev]
    utility = (
        inst.utility_const
        + float((inst._nu * probs).sum())
        + float(np.einsum("ea,eab,eb->", pu, inst._wu, pv))
    )
    cost = (
        inst.cost_const
        + float((inst._nc * probs).sum())
        + float(np.einsum("ea,eab,eb->", pu, inst._wc, pv))
    )
    return utility, cost


def greedy_color(g: Graph) -> Coloring:
    """First-fit coloring in increasing node id; at most max_degree+1 colors."""
    colors: dict[int, int] = {}
    for u in g.nodes:
        taken = {colors[v] for v in g.neighbors(u) if v in colors}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    return Coloring(colors, max(colors.values()) + 1 if colors else 0)


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """No edge of g joins two nodes of one color (every edge is read)."""
    colors = coloring.colors
    return not any(colors[u] in map(colors.__getitem__, g.neighbors(u)) for u in g.nodes)


def _conditional(tensors: np.ndarray, first: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Row a of entry k: sum over b of W_k[a, b] * other[k, b], where W_k is
    the term's tensor read from its first endpoint's side (transposed for
    the second endpoint).  The sum runs over b left to right, the order of
    the term-by-term loop that tests keep as the reference, so equal
    scores, and hence label ties, come out equal bit for bit."""
    oriented = np.where(first[:, None, None], tensors, tensors.transpose(0, 2, 1))
    out = oriented[:, :, 0] * other[:, :1]
    for b in range(1, other.shape[1]):
        out = out + oriented[:, :, b] * other[:, b : b + 1]
    return out


def round_labels(
    inst: UtilityCostInstance,
    lam: FractionalAssignment,
    coloring: Coloring,
    ledger: RoundLedger | None = None,
    charge_label: str = "local-rounding",
    hop_scale: int = 2,
    checks: ClaimChecker | None = None,
) -> dict[int, int]:
    """Round a fractional labeling to an integral one, never losing value.

    Requires utility(lam) - cost(lam) >= 0.1 * utility(lam) and a coloring
    proper on the conflict graph.  The output satisfies both the 0.9
    contract and the stronger no-loss bound
    utility(l) - cost(l) >= utility(lam) - cost(lam),
    because fixing a node to its best conditional label can only increase
    the conditional expectation of the objective.
    """
    checks = checks if checks is not None else ClaimChecker()
    g = inst.conflict_graph
    u0, c0 = evaluate(inst, lam)
    gain0 = u0 - c0
    scale = abs(u0) + abs(c0) + 1.0
    if gain0 < 0.1 * u0 - REL_TOL * scale:
        raise PreconditionError(
            f"rounding needs utility-cost >= 0.1*utility; measured "
            f"utility={u0!r} cost={c0!r}"
        )
    if not is_proper(g, coloring):
        raise PreconditionError("coloring is not proper on the conflict graph")

    nodes = g.nodes
    n, nl = len(nodes), inst.num_labels
    color = np.fromiter((coloring.colors[v] for v in nodes), np.intp, n)
    if n and (color.min() < 0 or color.max() >= coloring.num_colors):
        raise PreconditionError(f"coloring uses a color outside [0, {coloring.num_colors})")
    probs = _probabilities(inst, lam)
    one_hot = np.eye(nl)
    base = inst._nu - inst._nc
    # members of each class, in id order; rank = position within the class
    order = np.argsort(color, kind="stable")
    class_size = np.bincount(color, minlength=coloring.num_colors)
    member_end = np.cumsum(class_size)
    rank = np.empty(n, np.intp)
    rank[order] = np.arange(n) - np.repeat(member_end - class_size, class_size)
    # every term once per endpoint, grouped by that endpoint's class and
    # kept in term order within it (the order each node sums its terms in)
    num_edges = len(inst._eu)
    target = np.concatenate((inst._eu, inst._ev))
    other = np.concatenate((inst._ev, inst._eu))
    term = np.tile(np.arange(num_edges), 2)
    first = np.arange(2 * num_edges) < num_edges
    by_class = np.argsort(color[target], kind="stable")
    target, other, term, first = target[by_class], other[by_class], term[by_class], first[by_class]
    term_end = np.cumsum(np.bincount(color[target], minlength=coloring.num_colors))
    labels_by_pos = np.zeros(n, np.intp)
    label_cols = np.arange(nl)

    tracked = gain0
    member_lo = term_lo = 0
    for member_hi, term_hi in zip(member_end.tolist(), term_end.tolist()):
        before = tracked
        members = order[member_lo:member_hi]
        k = len(members)
        if k:
            span = slice(term_lo, term_hi)
            po = probs[other[span]]
            gathered = _conditional(inst._wu[term[span]], first[span], po) - _conditional(
                inst._wc[term[span]], first[span], po
            )
            # node row first, then the incident terms in term order
            slots = np.concatenate(
                (np.arange(k * nl), (rank[target[span]][:, None] * nl + label_cols).ravel())
            )
            scores = np.bincount(
                slots,
                np.concatenate((base[members].ravel(), gathered.ravel())),
                minlength=k * nl,
            ).reshape(k, nl)
            best = scores.argmax(axis=1)  # first maximum: ties go to the lowest label
            mixed = (probs[members] * scores).sum(axis=1)
            tracked += float((scores[np.arange(k), best] - mixed).sum())
            probs[members] = one_hot[best]
            labels_by_pos[members] = best
        checks.ok(
            "rounding-monotone",
            geq(tracked, before, scale),
            f"objective dropped {before!r} -> {tracked!r} within a color class",
        )
        member_lo, term_lo = member_hi, term_hi

    labels = dict(zip(nodes, labels_by_pos.tolist()))
    uf, cf = evaluate(inst, labels)
    checks.ok(
        "rounding-consistency",
        abs((uf - cf) - tracked) <= 1e-6 * scale,
        f"tracked objective {tracked!r} != evaluated {(uf - cf)!r}",
    )
    checks.ok(
        "rounding-contract",
        geq(uf - cf, 0.9 * gain0, scale),
        f"rounded objective {(uf - cf)!r} < 0.9 * fractional {gain0!r}",
    )
    checks.ok(
        "rounding-no-loss",
        geq(uf - cf, gain0, scale),
        f"rounded objective {(uf - cf)!r} < fractional {gain0!r}",
    )
    if ledger is not None and coloring.num_colors > 0:
        ledger.charge(charge_label, hop_scale, hop_scale * coloring.num_colors)
    return labels
