"""Pairwise objectives over labelings and deterministic local rounding.

An objective is a sum of per-node terms and per-conflict-edge terms, each
depending only on the labels of its own node(s).  For a fractional
(probabilistic) labeling the objective is its expectation under per-node
independent label draws; since every term touches at most two nodes, only
single marginals and pairwise products ever appear.

Every type here has one form, arrays over node positions in the conflict
graph's id order.  An instance holds the node tables N (n x L) and the
edge tensors W (E x L x L); a fractional labeling over L labels is an
n x L probability matrix P; a coloring is one int64 color per node; the
labels `round_labels` returns are one int per node.  Each side of the
objective is

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

from collections.abc import Mapping
from itertools import islice

import numpy as np

from .errors import ClaimChecker, PreconditionError, REL_TOL, geq
from .graphs import ArrayView, Graph, csr_contains, csr_rows, distinct, expand

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


def is_proper(g: Graph, colors: np.ndarray) -> bool:
    """No edge of g joins two nodes of one color: `colors` holds one color
    per node position, compared across every entry of `g.csr()`."""
    indptr, nbr = g.csr()
    return not (np.repeat(colors, np.diff(indptr)) == colors[nbr]).any()


class Coloring:
    """A proper coloring of `graph`, checked once when built.

    `colors` is a read-only int64 array, one color per position in
    `graph.nodes`, and `num_colors` is one more than the largest color (0
    on a graph without nodes).  The constructor checks that the colors are
    integers, one per node, none negative, and that no edge lies inside a
    color (`is_proper`); a failure is a `PreconditionError`.  A float
    color is refused, not truncated, even when it is whole.
    """

    __slots__ = ("graph", "colors", "num_colors")

    def __init__(self, graph: Graph, colors: np.ndarray | list[int]):
        given = np.asarray(colors)
        if given.size and given.dtype.kind not in "iu":
            raise PreconditionError(f"coloring uses non-integer colors of type {given.dtype}")
        colors = given.astype(np.int64)
        if colors.shape != (graph.n,):
            raise PreconditionError(f"{colors.shape} colors for {graph.n} nodes")
        if graph.n and colors.min() < 0:
            raise PreconditionError("coloring uses a negative color")
        if not is_proper(graph, colors):
            raise PreconditionError("coloring is not proper on its graph")
        colors.flags.writeable = False
        self.graph, self.colors = graph, colors
        self.num_colors = int(colors.max()) + 1 if graph.n else 0


class FractionalAssignment:
    """Per-node probability vectors over a common finite label alphabet.

    Row i of the read-only float matrix `matrix` (a copy of the one
    given) is the vector of nodes[i]; `nodes` are distinct ids, such as a
    graph's `nodes`.  Every row is checked at once: it is not empty, its
    entries lie in [-1e-12, 1 + 1e-12], and its entries, added left to
    right, sum to 1 within 1e-9; the first node to fail is named.  The
    value `evaluate` last computed for it is kept with that instance
    (`_value`).
    """

    __slots__ = ("nodes", "matrix", "_value")

    def __init__(self, nodes: tuple[int, ...], matrix: np.ndarray):
        nodes, matrix = tuple(nodes), np.array(matrix, dtype=float)
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
        self.nodes, self.matrix = nodes, matrix
        self._value: tuple[UtilityCostInstance, tuple[float, float]] | None = None


def _matrices(tensor: np.ndarray) -> list[Matrix]:
    return [tuple(map(tuple, mat)) for mat in tensor.tolist()]


class UtilityCostInstance:
    """Conflict graph plus utility/cost tables for nodes and edges.

    Stored as arrays over node positions in `conflict_graph.nodes` order:
    `term_nodes` lists the positions of the nodes given a term, in term
    order; `node_utility`/`node_cost` are the n x L node tables (zero rows
    for nodes without a term); `edge_u`/`edge_v` are the endpoint
    positions of the E edge terms, each a conflict edge with
    edge_u < edge_v, and `edge_utility`/`edge_cost` their E x L x L
    tensors, indexed [label_u][label_v].  They are kept as `_at`, `_nu`,
    `_nc`, `_eu`, `_ev`, `_wu` and `_wc`.  Constant offsets hold
    label-independent mass.  Every check is vectorised.

    `node_terms` (node -> (utility_row, cost_row)) and `edge_terms`
    ((u, v) -> pair of matrices) are read-only views derived from the
    arrays on first use and kept, with the keys in term order; only
    oracles, perfbench and tests read them.
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
        term_nodes: np.ndarray,
        node_utility: np.ndarray,
        node_cost: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_utility: np.ndarray,
        edge_cost: np.ndarray,
        utility_const: float = 0.0,
        cost_const: float = 0.0,
    ):
        if num_labels < 1:
            raise PreconditionError("need at least one label")
        g, n, nl = conflict_graph, conflict_graph.n, num_labels
        mismatch = "term arrays do not match the graph and label count"
        try:
            at, eu, ev = (np.asarray(a, np.intp) for a in (term_nodes, edge_u, edge_v))
            nu, nc, wu, wc = (
                np.asarray(a, float) for a in (node_utility, node_cost, edge_utility, edge_cost)
            )
        except (TypeError, ValueError):  # ragged, or not numbers
            raise PreconditionError(mismatch) from None
        num_edges = len(eu)
        if (
            at.ndim != 1 or eu.shape != (num_edges,) or ev.shape != (num_edges,)
            or nu.shape != (n, nl) or nc.shape != (n, nl)
            or wu.shape != (num_edges, nl, nl) or wc.shape != (num_edges, nl, nl)
        ):
            raise PreconditionError(mismatch)
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


def evaluate(inst: UtilityCostInstance, lam: FractionalAssignment) -> tuple[float, float]:
    """(utility, cost) of a fractional labeling.

    `lam` must be over the conflict graph's nodes, in their order, with
    the instance's label count, or it is a `PreconditionError`.  The value
    is kept with `lam` for this instance, so asking again computes
    nothing.
    """
    if lam._value is not None and lam._value[0] is inst:
        return lam._value[1]
    if lam.nodes != inst.conflict_graph.nodes:
        raise PreconditionError("assignment is not over the conflict graph's nodes")
    if lam.matrix.shape[1] != inst.num_labels:
        raise PreconditionError(
            f"probability vectors have {lam.matrix.shape[1]} labels, not {inst.num_labels}"
        )
    value = _objective(inst, lam.matrix)
    lam._value = (inst, value)
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

    The colors are computed (`_first_fit`) before the `Coloring` checks
    them, so the check's arrays never coexist with the waves' arrays.
    """
    return Coloring(g, _first_fit(g))


def _first_fit(g: Graph) -> list[int]:
    """The first-fit color of every node by position: in increasing id
    order, each node takes the smallest color none of its lower
    neighbours has.

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
    return colors


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
) -> tuple[np.ndarray, tuple[float, float]]:
    """Round a fractional labeling to an integral one, never losing value.

    Requires utility(lam) - cost(lam) >= 0.1 * utility(lam) and a coloring
    of the conflict graph itself (a `Coloring` is proper by construction).
    The output satisfies both the 0.9 contract and the stronger no-loss
    bound utility(l) - cost(l) >= utility(lam) - cost(lam), because fixing
    a node to its best conditional label can only increase the
    conditional expectation of the objective.

    Returns the labels, a read-only int array over the conflict graph's
    node positions, and their (utility, cost), computed from the final
    one-hot matrix as `evaluate` would.
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
    if coloring.graph is not g:
        raise PreconditionError("coloring is not of the instance's conflict graph")

    n, nl, color = g.n, inst.num_labels, coloring.colors
    probs = lam.matrix.copy()
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
    labels = np.zeros(n, np.intp)
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
            labels[members] = best
        checks.ok(
            "rounding-monotone",
            geq(tracked, before, scale),
            f"objective dropped {before!r} -> {tracked!r} within a color class",
        )
        member_lo, term_lo = member_hi, term_hi

    labels.flags.writeable = False
    # every row of probs is now the one-hot row of its label
    uf, cf = _objective(inst, probs)
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
    return labels, (uf, cf)
