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
from itertools import chain, repeat
from typing import Callable, Sequence

import numpy as np

from .errors import ClaimChecker, PreconditionError, REL_TOL, geq
from .graphs import Graph, csr_contains
from .ledger import RoundLedger

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


@dataclass(frozen=True)
class Coloring:
    """Color index per node; proper on the intended conflict graph."""

    colors: Mapping[int, int]
    num_colors: int


class FractionalAssignment:
    """Per-node probability vectors over a common finite label alphabet.

    Read-only once built: the probability matrix of one node order is
    built on first use and kept for that order (`_rows`).
    """

    __slots__ = ("probs", "_kept")

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
        self._kept: tuple[tuple[int, ...], np.ndarray | None] | None = None

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
    terms: Mapping, rows: Sequence[int], shape: tuple[int, ...], describe: Callable
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
        table[np.asarray(rows, np.intp)[present]] = values
        sides.append(table)
    return sides


class _TermView(Mapping):
    """Read-only term dict derived from an instance's arrays.  `len` costs
    nothing; the entries are built on the first other use."""

    def __init__(self, size: int, build: Callable[[], dict]):
        self._size, self._build, self._terms = size, build, None

    def _dict(self) -> dict:
        if self._terms is None:
            self._terms = self._build()
        return self._terms

    def __len__(self) -> int:
        return self._size

    def __iter__(self):
        return iter(self._dict())

    def __getitem__(self, key):
        return self._dict()[key]


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
        nodes = conflict_graph.nodes
        index = dict(zip(nodes, range(len(nodes))))
        n, nl, num_edges = len(nodes), num_labels, len(edge_terms)
        at = np.fromiter(map(index.get, node_terms, repeat(-1)), np.intp, len(node_terms))
        if len(at) and at.min() < 0:
            unknown = next(v for v in node_terms if v not in index)
            raise PreconditionError(f"term on unknown node {unknown}")
        nu, nc = _side_tables(node_terms, at, (n, nl), lambda node: f"node table at {node}")
        ends = map(index.get, chain.from_iterable(edge_terms), repeat(-1))
        eu, ev = np.fromiter(ends, np.intp, 2 * num_edges).reshape(-1, 2).T
        if num_edges and min(eu.min(), ev.min()) < 0:
            u, v = next(e for e in edge_terms if e[0] not in index or e[1] not in index)
            raise PreconditionError(f"edge term ({u},{v}) is not a conflict edge")
        wu, wc = _side_tables(
            edge_terms,
            range(num_edges),
            (num_edges, nl, nl),
            lambda edge: f"edge table at ({edge[0]},{edge[1]})",
        )
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
            self._node_view = _TermView(len(self._at), build)
        return self._node_view

    @property
    def edge_terms(self) -> Mapping[tuple[int, int], tuple[Matrix, Matrix]]:
        def build() -> dict:
            node = self.conflict_graph.nodes.__getitem__
            keys = zip(map(node, self._eu.tolist()), map(node, self._ev.tolist()))
            return dict(zip(keys, zip(_matrices(self._wu), _matrices(self._wc))))

        if self._edge_view is None:
            self._edge_view = _TermView(len(self._eu), build)
        return self._edge_view

    def decision_nodes(self) -> tuple[int, ...]:
        return self.conflict_graph.nodes


def _probabilities(
    inst: UtilityCostInstance, assignment: FractionalAssignment | Mapping[int, int]
) -> np.ndarray:
    """The n x L probability matrix of a labeling, rows in node order;
    read-only for a fractional labeling, which keeps it."""
    nodes = inst.conflict_graph.nodes
    n, nl = len(nodes), inst.num_labels
    if isinstance(assignment, FractionalAssignment):
        rows = assignment._rows(nodes)
        if rows is not None and rows.size == n * nl:
            return rows.reshape(n, nl)
        bad = next(v for v in nodes if len(assignment.probs[v]) != nl)
        raise PreconditionError(f"probability vector at node {bad} needs {nl} labels")
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
    """No edge of g joins two nodes of one color (every edge is read).

    The colors are read into one array in node order and compared across
    every entry of `g.csr()`; a node without a color raises `KeyError`.
    """
    colors = list(map(coloring.colors.__getitem__, g.nodes))
    try:
        color = np.array(colors, np.int64)
    except OverflowError:  # colors beyond int64: compare their ranks
        color = np.unique(np.array(colors, object), return_inverse=True)[1]
    indptr, nbr = g.csr()
    row = np.repeat(color, np.diff(indptr))
    return not (row == color[nbr]).any()


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
    probs = _probabilities(inst, lam).copy()
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
