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
from collections.abc import Mapping
from itertools import islice
from typing import Sequence

import numpy as np

from .errors import ClaimChecker, PreconditionError, REL_TOL, geq, plain_sum
from .graphs import ArrayView, Graph, csr_contains, csr_rows, distinct, expand

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


@dataclass(frozen=True)
class Coloring:
    """Color index per node; proper on the intended conflict graph.

    `greedy_color` gives `colors` as a read-only view of the color array
    it computed over the graph's node order; `is_proper` and
    `round_labels` read that array directly for that order, and the dict
    is built only if something else reads it.
    """

    colors: Mapping[int, int]
    num_colors: int


class FractionalAssignment:
    """Per-node probability vectors over a common finite label alphabet.

    Read-only once built: the probability matrix of one node order is
    kept for that order (`_rows`), built on first use from `probs`, or
    given to `from_matrix`, in which case `probs` is derived from it on
    first use.  The value `evaluate` last computed for it is kept with
    that instance (`_value`).  Both constructors check every vector: it
    is not empty, its entries lie in [-1e-12, 1 + 1e-12], and its
    entries, added left to right, sum to 1 within 1e-9; the first node to
    fail is named.
    """

    __slots__ = ("_probs", "_kept", "_value")

    def __init__(self, probs: Mapping[int, Sequence[float]]):
        clean: dict[int, tuple[float, ...]] = {}
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
            clean[node] = vec
        self._probs: dict[int, tuple[float, ...]] | None = clean
        self._kept: tuple[tuple[int, ...], np.ndarray | None] | None = None
        self._value: tuple[UtilityCostInstance, tuple[float, float]] | None = None

    @classmethod
    def from_matrix(cls, nodes: tuple[int, ...], matrix: np.ndarray) -> "FractionalAssignment":
        """The vector of nodes[i] is row i of `matrix`; `nodes` are distinct
        ids, such as a graph's `nodes`.  The checks of the constructor run
        on all rows at once, and a read-only copy of the matrix is kept as
        the rows of `nodes`."""
        matrix = np.array(matrix, dtype=float)
        if matrix.ndim != 2 or len(matrix) != len(nodes):
            raise PreconditionError(
                f"probability matrix of shape {matrix.shape} for {len(nodes)} nodes"
            )
        if len(nodes) and not matrix.shape[1]:
            raise PreconditionError(f"empty probability vector at node {nodes[0]}")
        # written so that NaN fails it too
        outside = ~((matrix >= -1e-12) & (matrix <= 1.0 + 1e-12)).all(axis=1)
        total = np.zeros(len(nodes))
        for column in matrix.T:
            total += column
        bad = outside | (np.abs(total - 1.0) > 1e-9)
        if bad.any():
            i = int(bad.argmax())
            if outside[i]:
                raise PreconditionError(f"probabilities outside [0,1] at node {nodes[i]}")
            raise PreconditionError(f"probabilities at node {nodes[i]} sum to {float(total[i])!r}")
        matrix.flags.writeable = False
        assignment = cls.__new__(cls)
        assignment._probs, assignment._kept = None, (nodes, matrix)
        assignment._value = None
        return assignment

    @property
    def probs(self) -> dict[int, tuple[float, ...]]:
        if self._probs is None:
            nodes, matrix = self._kept
            self._probs = dict(zip(nodes, map(tuple, matrix.tolist())))
        return self._probs

    def __getitem__(self, node: int) -> tuple[float, ...]:
        return self.probs[node]

    def _rows(self, nodes: tuple[int, ...]) -> np.ndarray | None:
        """The vectors of `nodes`, in that order, as one read-only float
        array, or None when their lengths differ; kept for the last order
        asked for.  A missing node is a `PreconditionError`."""
        if self._kept is None or self._kept[0] != nodes:
            try:
                rows = [self.probs[v] for v in nodes]
            except KeyError as exc:
                raise PreconditionError(f"assignment misses decision node {exc.args[0]}") from None
            try:
                matrix = np.array(rows, dtype=float)
                matrix.flags.writeable = False
            except ValueError:
                matrix = None
            self._kept = (nodes, matrix)
        return self._kept[1]


def _put(utility: np.ndarray, cost: np.ndarray, row: int, pair, name: str) -> None:
    """Write the two sides of one term into row `row` of the utility and
    cost tables; a None side stays zero.  A side of the wrong shape or
    with a non-finite entry is a `PreconditionError` naming `name`."""
    for table, side in ((utility, pair[0]), (cost, pair[1])):
        if side is None:
            continue
        try:
            values = np.array(side, dtype=float)
        except (TypeError, ValueError):
            values = None
        if values is None or values.shape != table.shape[1:] or not np.isfinite(values).all():
            raise PreconditionError(f"bad {name}")
        table[row] = values


class _NodeArray(ArrayView):
    """A read-only node -> int mapping kept as an int array over the node
    order `nodes`: `Coloring.colors` as `greedy_color` computes it, and
    the labels `round_labels` returns.  As a labeling it also keeps the
    value `evaluate` last computed for it, with that instance (`_value`)."""

    def __init__(self, nodes: tuple[int, ...], array: np.ndarray):
        super().__init__(len(nodes), lambda: dict(zip(nodes, array.tolist())))
        self.nodes, self.array = nodes, array
        self._value: tuple[UtilityCostInstance, tuple[float, float]] | None = None


def _matrices(tensor: np.ndarray) -> list[Matrix]:
    return [tuple(map(tuple, mat)) for mat in tensor.tolist()]


class UtilityCostInstance:
    """Conflict graph plus utility/cost tables for nodes and edges.

    node_terms maps node -> (utility_row, cost_row), one value per label;
    edge_terms maps a canonical (u, v) edge (u < v) to a pair of matrices
    indexed [label_u][label_v].  Either member of a pair may be None for
    an all-zero table.  Constant offsets hold label-independent mass.

    Arrays are the one stored form, over node positions in
    `conflict_graph.nodes` order: `_at` lists the positions of the nodes
    given a term, in term order; `_nu`/`_nc` are the n x L node
    utility/cost tables (zero rows for nodes without a term); `_eu`/`_ev`
    are the endpoint positions of the E edge terms and `_wu`/`_wc` their
    E x L x L utility/cost tensors.  The constructor converts its dicts to
    these arrays; `from_arrays` takes them directly.  Both go through the
    same vectorised checks.  `node_terms` and `edge_terms` are read-only
    views derived from the arrays on first use and kept, with the keys in
    the order given and None tables read as zeros; only oracles and tests
    read their entries.
    """

    __slots__ = (
        "conflict_graph",
        "num_labels",
        "utility_const",
        "cost_const",
        "_at",
        "_nu",
        "_nc",
        "_eu",
        "_ev",
        "_wu",
        "_wc",
        "_node_view",
        "_edge_view",
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
        node_terms, edge_terms = node_terms or {}, edge_terms or {}
        index = dict(zip(conflict_graph.nodes, range(conflict_graph.n)))
        n, nl, num_edges = conflict_graph.n, num_labels, len(edge_terms)
        at = []
        nu, nc = np.zeros((n, nl)), np.zeros((n, nl))
        for node, pair in node_terms.items():
            if node not in index:
                raise PreconditionError(f"term on unknown node {node}")
            at.append(index[node])
            _put(nu, nc, index[node], pair, f"node table at {node}")
        eu, ev = np.zeros(num_edges, np.intp), np.zeros(num_edges, np.intp)
        wu, wc = np.zeros((num_edges, nl, nl)), np.zeros((num_edges, nl, nl))
        for k, ((u, v), pair) in enumerate(edge_terms.items()):
            if u not in index or v not in index:
                raise PreconditionError(f"edge term ({u},{v}) is not a conflict edge")
            eu[k], ev[k] = index[u], index[v]
            _put(wu, wc, k, pair, f"edge table at ({u},{v})")
        self._set(
            conflict_graph, num_labels, at, nu, nc, eu, ev, wu, wc, utility_const, cost_const
        )

    @classmethod
    def from_arrays(
        cls,
        conflict_graph: Graph,
        num_labels: int,
        term_nodes: np.ndarray,
        node_utility: np.ndarray,
        node_cost: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_utility: np.ndarray,
        edge_cost: np.ndarray,
        utility_const: float = 0.0,
        cost_const: float = 0.0,
    ) -> "UtilityCostInstance":
        """The instance stored as these arrays, laid out as the class
        docstring says (`term_nodes` becomes `_at`, `node_utility` `_nu`,
        and so on), after the checks the constructor makes."""
        inst = cls.__new__(cls)
        if num_labels < 1:
            raise PreconditionError("need at least one label")
        inst._set(
            conflict_graph,
            num_labels,
            term_nodes,
            node_utility,
            node_cost,
            edge_u,
            edge_v,
            edge_utility,
            edge_cost,
            utility_const,
            cost_const,
        )
        return inst

    def _set(self, g, num_labels, at, nu, nc, eu, ev, wu, wc, utility_const, cost_const):
        """Check the arrays and store them; every check is vectorised."""
        n, nl = g.n, num_labels
        at, eu, ev = (np.asarray(a, np.intp) for a in (at, eu, ev))
        nu, nc, wu, wc = (np.asarray(a, float) for a in (nu, nc, wu, wc))
        num_edges = len(eu)
        if (
            at.ndim != 1 or eu.shape != (num_edges,) or ev.shape != (num_edges,)
            or nu.shape != (n, nl) or nc.shape != (n, nl)
            or wu.shape != (num_edges, nl, nl) or wc.shape != (num_edges, nl, nl)
        ):
            raise PreconditionError("term arrays do not match the graph and label count")
        for name, table in (("node", nu), ("node", nc), ("edge", wu), ("edge", wc)):
            if not np.isfinite(table).all():
                raise PreconditionError(f"non-finite {name} table entry")
        utility_const, cost_const = float(utility_const), float(cost_const)
        if not (np.isfinite(utility_const) and np.isfinite(cost_const)):
            raise PreconditionError(
                f"constants must be finite: utility {utility_const!r}, cost {cost_const!r}"
            )
        if len(at) and (at.min() < 0 or at.max() >= n):
            raise PreconditionError(f"node term position outside [0, {n})")
        given = np.zeros(n, bool)
        given[at] = True
        if given.sum() != len(at) or nu[~given].any() or nc[~given].any():
            raise PreconditionError("node terms must be distinct and cover every nonzero row")
        if num_edges and (min(eu.min(), ev.min()) < 0 or max(eu.max(), ev.max()) >= n):
            raise PreconditionError(f"edge term position outside [0, {n})")
        conflict = (eu < ev) & csr_contains(*g.csr(), eu, ev)
        if not conflict.all():
            k = int(conflict.argmin())
            u, v = g.nodes[eu[k]], g.nodes[ev[k]]
            raise PreconditionError(f"edge term ({u},{v}) is not a conflict edge")
        self.conflict_graph, self.num_labels = g, num_labels
        self.utility_const, self.cost_const = utility_const, cost_const
        self._at, self._nu, self._nc = at, nu, nc
        self._eu, self._ev, self._wu, self._wc = eu, ev, wu, wc
        self._node_view = self._edge_view = None

    @property
    def node_terms(self) -> Mapping[int, tuple[Row, Row]]:
        def build() -> dict:
            at, ids = self._at.tolist(), self.conflict_graph.nodes
            rows = zip(map(tuple, self._nu[at].tolist()), map(tuple, self._nc[at].tolist()))
            return dict(zip(map(ids.__getitem__, at), rows))

        if self._node_view is None:
            self._node_view = ArrayView(len(self._at), build)
        return self._node_view

    @property
    def edge_terms(self) -> Mapping[tuple[int, int], tuple[Matrix, Matrix]]:
        def build() -> dict:
            node = self.conflict_graph.nodes.__getitem__
            keys = zip(map(node, self._eu.tolist()), map(node, self._ev.tolist()))
            return dict(zip(keys, zip(_matrices(self._wu), _matrices(self._wc))))

        if self._edge_view is None:
            self._edge_view = ArrayView(len(self._eu), build)
        return self._edge_view


def _probabilities(
    inst: UtilityCostInstance, assignment: FractionalAssignment | Mapping[int, int]
) -> np.ndarray:
    """The n x L probability matrix of a labeling, rows in node order;
    read-only for a fractional labeling, which keeps it.  The labels
    `round_labels` returned for this node order are read as their array."""
    nodes = inst.conflict_graph.nodes
    n, nl = len(nodes), inst.num_labels
    if isinstance(assignment, FractionalAssignment):
        rows = assignment._rows(nodes)
        if rows is not None and rows.size == n * nl:
            return rows.reshape(n, nl)
        bad = next(v for v in nodes if len(assignment.probs[v]) != nl)
        raise PreconditionError(f"probability vector at node {bad} needs {nl} labels")
    if isinstance(assignment, _NodeArray) and assignment.nodes == nodes:
        labels = assignment.array
    else:
        try:
            labels = np.fromiter((assignment[v] for v in nodes), np.intp, n)
        except KeyError as exc:
            raise PreconditionError(f"assignment misses decision node {exc.args[0]}") from None
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
    evaluated as the degenerate one-hot distribution.  A read-only
    labeling (a `FractionalAssignment`, or the labels `round_labels`
    returns) keeps the value computed for it on an instance, so asking
    again on that instance computes nothing.
    """
    kept = isinstance(assignment, (FractionalAssignment, _NodeArray))
    if kept and assignment._value is not None and assignment._value[0] is inst:
        return assignment._value[1]
    value = _objective(inst, _probabilities(inst, assignment))
    if kept:
        assignment._value = (inst, value)
    return value


def _objective(inst: UtilityCostInstance, probs: np.ndarray) -> tuple[float, float]:
    """(utility, cost) of the probability matrix `probs`, rows in node
    order."""
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


# A wave costs a few dozen numpy calls, about what the per-node loop
# below spends on 8 nodes of an MIS square graph
_WAVE_NODES = 8


def greedy_color(g: Graph) -> Coloring:
    """First-fit coloring in increasing node id; at most max_degree+1 colors.

    Colored in waves over `g.csr()`.  Positions follow ids, so a node's
    lower neighbours, the ones the sequential loop colors before it, are
    a prefix of its row.  A node's wave is 0 if it has no lower
    neighbour, else one more than the largest wave among them.  Each
    wave is colored at once: every member takes the smallest color that
    none of its lower neighbours has, read off a (members x colors)
    table.  No two nodes of one wave are adjacent, and every lower
    neighbour was colored in an earlier wave, so each node gets the
    color the sequential loop gives it.  From the first wave after wave 0
    with fewer than `_WAVE_NODES` nodes on (on a path, wave 1), the nodes
    left are colored one at a time in id order, which also colors each
    after its lower neighbours.
    """
    indptr, nbr = g.csr()
    n = g.n
    row = csr_rows(indptr)
    lower = np.bincount(row[nbr < row], minlength=n)
    upper = indptr[:-1] + lower  # where each row's higher neighbours start
    waiting = lower.copy()  # lower neighbours not yet colored
    color = np.zeros(n, np.int64)
    done = lower == 0  # wave 0 takes color 0
    wave = np.flatnonzero(done)
    top = 0
    while True:
        up = nbr[expand(upper[wave], indptr[wave + 1] - upper[wave])]
        np.subtract.at(waiting, up, 1)
        wave = distinct(up[waiting[up] == 0])
        if len(wave) < _WAVE_NODES:
            break
        counts = lower[wave]
        below = color[nbr[expand(indptr[wave], counts)]]
        taken = np.zeros((len(wave), top + 2), bool)
        taken[np.repeat(np.arange(len(wave)), counts), below] = True
        color[wave] = taken.argmin(axis=1)  # the first color not taken
        top = max(top, int(color[wave].max()))
        done[wave] = True
    rest = np.flatnonzero(~done)
    counts = lower[rest]
    below = iter(nbr[expand(indptr[rest], counts)].tolist())
    colors = color.tolist()
    for u, k in zip(rest.tolist(), counts.tolist()):
        taken = {colors[v] for v in islice(below, k)}
        c = 0
        while c in taken:
            c += 1
        colors[u] = c
    color = np.array(colors, np.int64)
    color.flags.writeable = False
    return Coloring(_NodeArray(g.nodes, color), int(color.max()) + 1 if n else 0)


def _color_array(nodes: tuple[int, ...], coloring: Coloring) -> np.ndarray:
    """The colors of `nodes`, in that order, as an int64 array: the one
    `greedy_color` kept if it colored this order, else read from the
    dict.  A node without a color raises `KeyError`, a color beyond int64
    `OverflowError`."""
    colors = coloring.colors
    if isinstance(colors, _NodeArray) and colors.nodes == nodes:
        return colors.array
    return np.array(list(map(colors.__getitem__, nodes)), np.int64)


def is_proper(g: Graph, coloring: Coloring) -> bool:
    """No edge of g joins two nodes of one color (every edge is read).

    The colors, as one array in node order, are compared across every
    entry of `g.csr()`; a node without a color raises `KeyError`.
    """
    try:
        color = _color_array(g.nodes, coloring)
    except OverflowError:  # colors beyond int64: compare their ranks
        colors = list(map(coloring.colors.__getitem__, g.nodes))
        color = np.unique(np.array(colors, object), return_inverse=True)[1]
    indptr, nbr = g.csr()
    row = np.repeat(color, np.diff(indptr))
    return not (row == color[nbr]).any()


def _oriented(tensors: np.ndarray, first: np.ndarray) -> np.ndarray:
    """Entry k's term tensor read from its endpoint's side: as stored
    where first[k], transposed for the second endpoint."""
    return np.where(first[:, None, None], tensors, tensors.transpose(0, 2, 1))


def _conditional(oriented: np.ndarray, other: np.ndarray) -> np.ndarray:
    """Row a of entry k: sum over b of oriented[k, a, b] * other[k, b].
    The sum runs over b left to right, the order of the term-by-term loop
    that tests keep as the reference, so equal scores, and hence label
    ties, come out equal bit for bit."""
    out = oriented[:, :, 0] * other[:, :1]
    for b in range(1, other.shape[1]):
        out = out + oriented[:, :, b] * other[:, b : b + 1]
    return out


def round_labels(
    inst: UtilityCostInstance,
    lam: FractionalAssignment,
    coloring: Coloring,
    checks: ClaimChecker | None = None,
) -> Mapping[int, int]:
    """Round a fractional labeling to an integral one, never losing value.

    Requires utility(lam) - cost(lam) >= 0.1 * utility(lam) and a coloring
    proper on the conflict graph.  The output satisfies both the 0.9
    contract and the stronger no-loss bound
    utility(l) - cost(l) >= utility(lam) - cost(lam),
    because fixing a node to its best conditional label can only increase
    the conditional expectation of the objective.

    The labels come back as a read-only mapping over the conflict graph's
    node order, kept as an int array (`array`) that `evaluate` and callers
    read directly; the dict is built only if something reads an entry.
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
    color = _color_array(nodes, coloring)
    if n and (color.min() < 0 or color.max() >= coloring.num_colors):
        raise PreconditionError(f"coloring uses a color outside [0, {coloring.num_colors})")
    probs = _probabilities(inst, lam).copy()
    one_hot = np.eye(nl)
    base = inst._nu - inst._nc
    # members of each class, in id order; rank = position within the class.
    # Colors fit the narrowest unsigned type that holds num_colors - 1, and
    # numpy sorts 8- and 16-bit keys stably by radix: the same order
    narrow = color.astype(np.min_scalar_type(max(coloring.num_colors - 1, 0)))
    order = np.argsort(narrow, kind="stable")
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
    by_class = np.argsort(narrow[target], kind="stable")
    target, other, term = target[by_class], other[by_class], term[by_class]
    term_end = np.cumsum(np.bincount(color[target], minlength=coloring.num_colors))
    # each entry's tensors read from its own endpoint's side, oriented once
    first = by_class < num_edges
    wu, wc = _oriented(inst._wu[term], first), _oriented(inst._wc[term], first)
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
            gathered = _conditional(wu[span], po) - _conditional(wc[span], po)
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

    labels_by_pos.flags.writeable = False
    labels = _NodeArray(nodes, labels_by_pos)
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
    return labels
