"""Pairwise objectives over labelings and deterministic local rounding.

An objective gives each node a utility and a cost per label and each
conflict edge a cost per pair of labels, each term depending only on the
labels of its own node(s).  For a fractional (probabilistic) labeling the
objective is its expectation under per-node independent label draws;
since every term touches at most two nodes, only single marginals and
pairwise products ever appear.

Every type here has one form, arrays over node positions in the conflict
graph's id order.  An instance holds the node utility and cost tables
N_u and N_c (n x L) and the pair cost tensors W (E x L x L); a
fractional labeling over L labels is an n x L probability matrix P; a
coloring is one int64 color per node; the labels `round_labels` returns
are one int per node.  The objective is

    utility = const + sum(N_u * P)
    cost    = sum(N_c * P) + sum over terms e = (u, v) of P[u] . W[e] . P[v].

`round_labels` converts a fractional labeling into an integral one whose
utility-minus-cost never drops below the fractional value: it walks the
color classes of a proper coloring of the conflict graph in increasing
order and fixes each node to the label maximizing the conditional
expectation of the terms it participates in.  A term is a conflict edge,
so no term joins two nodes of one color class: every member's conditional
scores read only rows of P outside its class, which fixing the class does
not change.  One gather of the class's incident terms and one scatter of
the chosen one-hot rows therefore give exactly what fixing the members one
after another would.  A node no edge term touches scores its node row
whatever the others' labels, so all of them are decided at once, before
the walk, and the walk visits only the nodes that carry edge terms.
"""

from __future__ import annotations

from collections.abc import Mapping
from itertools import islice

import numpy as np

from .errors import ClaimChecker, PreconditionError, REL_TOL, geq
from .graphs import ArrayView, Graph, csr_contains, csr_rows, expand

Row = tuple[float, ...]
Matrix = tuple[Row, ...]


def is_proper(g: Graph, colors: np.ndarray) -> bool:
    """No edge of g joins two nodes of one color: `colors` holds one color
    per node position, compared across every entry of `g.csr()`.  The
    colors are first shifted to start at 0 and held in the narrowest
    unsigned type that fits them, so each entry's comparison moves one or
    two bytes, not eight; comparing only the entries above the diagonal
    would cost more than it saves, since finding them takes a pass of
    its own."""
    if not g.n:
        return True
    indptr, nbr = g.csr()
    shifted = colors - colors.min()
    narrow = shifted.astype(np.min_scalar_type(int(shifted.max())))
    return not (np.repeat(narrow, np.diff(indptr)) == narrow[nbr]).any()


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
    """Conflict graph plus node utility, node cost and pair cost tables.

    Stored as arrays over node positions in `conflict_graph.nodes` order:
    `node_utility`/`node_cost` are the n x L node tables;
    `edge_u`/`edge_v` are the endpoint positions of the E pair terms,
    each a conflict edge with edge_u < edge_v, and `edge_cost` their
    E x L x L cost tensors, indexed [label_u][label_v].  They are kept as
    `_nu`, `_nc`, `_eu`, `_ev` and `_wc`.  `utility_const` holds
    label-independent utility.  Every check is vectorised.

    `node_terms` (node -> (utility_row, cost_row), the nodes with a
    nonzero row in id order) and `edge_terms` ((u, v) -> cost matrix, in
    term order) are read-only views derived from the arrays on first use
    and kept; only oracles, perfbench and tests read them.
    """

    __slots__ = (
        "conflict_graph",
        "num_labels",
        "utility_const",
        "_nu",
        "_nc",
        "_eu",
        "_ev",
        "_wc",
        "_node_view",
        "_edge_view",
    )

    def __init__(
        self,
        conflict_graph: Graph,
        num_labels: int,
        node_utility: np.ndarray,
        node_cost: np.ndarray,
        edge_u: np.ndarray,
        edge_v: np.ndarray,
        edge_cost: np.ndarray,
        utility_const: float = 0.0,
    ):
        if num_labels < 1:
            raise PreconditionError("need at least one label")
        g, n, nl = conflict_graph, conflict_graph.n, num_labels
        mismatch = "term arrays do not match the graph and label count"
        try:
            eu, ev = (np.asarray(a, np.intp) for a in (edge_u, edge_v))
            nu, nc, wc = (np.asarray(a, float) for a in (node_utility, node_cost, edge_cost))
        except (TypeError, ValueError):  # ragged, or not numbers
            raise PreconditionError(mismatch) from None
        num_edges = len(eu)
        if (
            eu.shape != (num_edges,) or ev.shape != (num_edges,)
            or nu.shape != (n, nl) or nc.shape != (n, nl) or wc.shape != (num_edges, nl, nl)
        ):
            raise PreconditionError(mismatch)
        for name, table in (("node", nu), ("node", nc), ("edge", wc)):
            if not np.isfinite(table).all():
                raise PreconditionError(f"non-finite {name} table entry")
        utility_const = float(utility_const)
        if not np.isfinite(utility_const):
            raise PreconditionError(f"constants must be finite: utility {utility_const!r}")
        if num_edges and (min(eu.min(), ev.min()) < 0 or max(eu.max(), ev.max()) >= n):
            raise PreconditionError(f"edge term position outside [0, {n})")
        conflict = (eu < ev) & csr_contains(*g.csr(), eu, ev)
        if not conflict.all():
            k = int(conflict.argmin())
            u, v = g.nodes[eu[k]], g.nodes[ev[k]]
            raise PreconditionError(f"edge term ({u},{v}) is not a conflict edge")
        self.conflict_graph, self.num_labels, self.utility_const = g, num_labels, utility_const
        self._nu, self._nc, self._eu, self._ev, self._wc = nu, nc, eu, ev, wc
        self._node_view = self._edge_view = None

    @property
    def node_terms(self) -> Mapping[int, tuple[Row, Row]]:
        if self._node_view is None:
            at = np.flatnonzero(self._nu.any(axis=1) | self._nc.any(axis=1)).tolist()

            def build() -> dict:
                rows = zip(map(tuple, self._nu[at].tolist()), map(tuple, self._nc[at].tolist()))
                return dict(zip(map(self.conflict_graph.nodes.__getitem__, at), rows))

            self._node_view = ArrayView(len(at), build)
        return self._node_view

    @property
    def edge_terms(self) -> Mapping[tuple[int, int], Matrix]:
        def build() -> dict:
            node = self.conflict_graph.nodes.__getitem__
            keys = zip(map(node, self._eu.tolist()), map(node, self._ev.tolist()))
            return dict(zip(keys, _matrices(self._wc)))

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
    utility = inst.utility_const + float((inst._nu * probs).sum())
    cost = float((inst._nc * probs).sum()) + float(np.einsum("ea,eab,eb->", pu, inst._wc, pv))
    return utility, cost


# A wave costs about 25 numpy calls and a readiness pass over all n
# nodes: on the square of G(8192, 8/n) (numpy 2.4.6, 2 vCPUs) 21 us plus
# 2.3 ns per node, against 5.9 us per node for the per-node loop below,
# so at n = 8192 a wave of 8 nodes costs what the loop does.  From the
# first wave smaller than max(8, n / 2048) nodes the loop colors the
# rest, so no wave's pass costs much more than the loop would spend on
# its nodes, however many waves a graph has
_WAVE_NODES = 8
_WAVE_SHARE = 2048

# a node's table of taken colors has this many color columns and one
# overflow column for every color past them, so it costs at most 65 bytes
_TAKEN_COLUMNS = 64

# the per-node loop turns this many nodes at a time, and their lower
# neighbours, into Python lists, so the lists cost a bounded amount
# however many nodes the loop colors (a path by increasing id: all of
# them)
_TAIL_NODES = 4096


def greedy_color(g: Graph) -> Coloring:
    """First-fit coloring in increasing node id; at most max_degree+1 colors.

    The colors are computed (`_first_fit`, whose table of taken colors
    costs at most 65 bytes per node) before the `Coloring` checks them,
    so the check's arrays never coexist with the waves' arrays.
    """
    return Coloring(g, _first_fit(g))


def _first_fit(g: Graph) -> list[int]:
    """The first-fit color of every node by position: in increasing id
    order, each node takes the smallest color none of its lower
    neighbours has.

    Colored in waves over `g.csr()`.  Positions follow ids, so a node's
    lower neighbours, the ones the sequential loop colors before it, are
    a prefix of its row and its higher neighbours the rest.  A node's
    wave is 0 if it has no lower neighbour, else one more than the
    largest wave among them.  No two nodes of one wave are adjacent, and
    every lower neighbour was colored in an earlier wave, so coloring a
    wave at once gives each member the color the sequential loop gives
    it.

    Colors are pushed, not pulled: once a wave is colored, each member
    marks its color in the row of every higher neighbour in a table of
    taken colors, n rows of min(`_TAKEN_COLUMNS`, max lower degree + 1)
    color columns and one overflow column that a color at or past the
    last of them marks.  The higher neighbours' row entries also count
    down each node's uncolored lower neighbours, in one `np.bincount`
    over all nodes; the nodes that reach zero are the next wave.  A
    member reads its color off its table row with one `argmin`: the
    first column not taken, the overflow column meaning the color just
    past the last color column.  A member whose row is taken throughout
    reads its lower neighbours' colors instead.  From the first wave
    after wave 0 with fewer than max(`_WAVE_NODES`, n / `_WAVE_SHARE`)
    nodes on (on a path, wave 1), the nodes left are colored one at a
    time in id order, which also colors each after its lower neighbours.
    """
    indptr, nbr = g.csr()
    n = g.n
    row = csr_rows(indptr)
    lower = np.bincount(row[nbr < row], minlength=n)
    upper = indptr[:-1] + lower  # where each row's higher neighbours start
    waiting = lower.copy()  # lower neighbours not yet colored; -1 once colored
    color = np.zeros(n, np.int64)
    over = min(_TAKEN_COLUMNS, int(lower.max(initial=0)) + 1)  # the overflow column
    taken = np.zeros((n, over + 1), bool)
    wave = np.flatnonzero(lower == 0)  # wave 0 takes color 0
    waiting[wave] = -1
    cut = max(_WAVE_NODES, n // _WAVE_SHARE)
    while True:
        counts = indptr[wave + 1] - upper[wave]
        up = nbr[expand(upper[wave], counts)]
        taken[up, np.repeat(np.minimum(color[wave], over), counts)] = True
        waiting -= np.bincount(up, minlength=n)
        wave = np.flatnonzero(waiting == 0)
        if len(wave) < cut:
            break
        waiting[wave] = -1
        rows = taken[wave]
        first = rows.argmin(axis=1)  # the first color not taken
        full = rows[np.arange(len(wave)), first]
        if full.any():
            members = wave[full]
            counts = lower[members]
            below = color[nbr[expand(indptr[members], counts)]]
            table = np.zeros((len(members), int(below.max()) + 2), bool)
            table[np.repeat(np.arange(len(members)), counts), below] = True
            first[full] = table.argmin(axis=1)
        color[wave] = first
    del taken  # freed before the per-node loop builds its lists
    rest = np.flatnonzero(waiting >= 0)
    colors = color.tolist()
    for lo in range(0, len(rest), _TAIL_NODES):
        part = rest[lo : lo + _TAIL_NODES]
        counts = lower[part]
        below = iter(nbr[expand(indptr[part], counts)].tolist())
        for u, k in zip(part.tolist(), counts.tolist()):
            used = {colors[v] for v in islice(below, k)}
            c = 0
            while c in used:
                c += 1
            colors[u] = c
    return colors


def _oriented(tensors: np.ndarray, entries: np.ndarray) -> np.ndarray:
    """The E x L x L term tensors read from the side of each of `entries`,
    numbered as `round_labels` lists its entries: entry k < E is term k
    from its first endpoint, which reads the tensor as stored, and entry
    E + k is term k from its second endpoint, which reads it transposed.
    The tensors and their transposes are one 2E-row table of flattened
    tensors, and each entry's number is its row: one gather, where
    np.where(first, T[term], T[term].transpose(0, 2, 1)) takes two
    gathers and a select."""
    num_terms, nl = len(tensors), tensors.shape[1]
    flat = tensors.reshape(num_terms, nl * nl)
    transposed = flat.take(np.arange(nl * nl).reshape(nl, nl).T.ravel(), axis=1)
    rows = np.concatenate((flat, transposed)).take(entries, axis=0)
    return rows.reshape(len(entries), nl, nl)


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

    A node that no edge term touches scores its node row, 0.0 + (N_u -
    N_c) as one `np.bincount` gives it, and takes that row's first
    maximum at once.  The class loop walks only the nodes that carry
    entries: every term enters once per endpoint, grouped by that
    endpoint's color class and kept in term order within it.  Each such
    entry reads its cost tensor from its own endpoint's side, as stored
    for the term's first endpoint and transposed for its second, in one
    gather by the entry's index: its own-side index k for term k's first
    endpoint, its transposed index E + k for the second (`_oriented`).
    An entry scores 0.0 minus its cost.

    The monotone claim is checked once per color class after the loop:
    a class gains the sum over its members of score[label] - sum over b
    of lam[:, b] * score[:, b], and the running total from the
    fractional value must never drop.

    Returns the labels, a read-only int array over the conflict graph's
    node positions, and their (utility, cost), computed from their
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

    n, nl, color, num_colors = g.n, inst.num_labels, coloring.colors, coloring.num_colors
    p0 = lam.matrix
    probs = p0.copy()  # written only at nodes with entries, the only rows read
    one_hot = np.eye(nl)
    base = inst._nu - inst._nc
    # a node without entries keeps its node row and its first maximum
    scores = 0.0 + base
    labels = scores.argmax(axis=1)
    # nodes with entries in each class, in id order; rank = position within
    # the class.  Colors fit the narrowest unsigned type that holds
    # num_colors - 1, and numpy sorts 8- and 16-bit keys stably by radix:
    # the same order
    target = np.concatenate((inst._eu, inst._ev))
    other = np.concatenate((inst._ev, inst._eu))
    touched = np.zeros(n, bool)
    touched[target] = True
    narrow = color.astype(np.min_scalar_type(max(num_colors - 1, 0)))
    order = np.argsort(narrow, kind="stable")
    order = order[touched[order]]
    class_size = np.bincount(color[order], minlength=num_colors)
    member_end = np.cumsum(class_size)
    rank = np.empty(n, np.intp)
    rank[order] = np.arange(len(order)) - np.repeat(member_end - class_size, class_size)
    # every term once per endpoint, grouped by that endpoint's class and
    # kept in term order within it (the order each node sums its terms in)
    by_class = np.argsort(narrow[target], kind="stable")
    target, other = target[by_class], other[by_class]
    term_end = np.cumsum(np.bincount(color[target], minlength=num_colors))
    # each entry's tensor read from its own endpoint's side, oriented once
    wc = _oriented(inst._wc, by_class)
    label_cols = np.arange(nl)

    member_lo = term_lo = 0
    for member_hi, term_hi in zip(member_end.tolist(), term_end.tolist()):
        members = order[member_lo:member_hi]
        k = len(members)
        if k:
            span = slice(term_lo, term_hi)
            gathered = 0.0 - _conditional(wc[span], probs[other[span]])
            # node row first, then the incident terms in term order
            slots = np.concatenate(
                (np.arange(k * nl), (rank[target[span]][:, None] * nl + label_cols).ravel())
            )
            chosen = np.bincount(
                slots,
                np.concatenate((base[members].ravel(), gathered.ravel())),
                minlength=k * nl,
            ).reshape(k, nl)
            best = chosen.argmax(axis=1)  # first maximum: ties go to the lowest label
            scores[members] = chosen
            labels[members] = best
            probs[members] = one_hot[best]
        member_lo, term_lo = member_hi, term_hi

    # each node's gain over its fractional row, summed per class in id
    # order, and the running total over the classes
    mixed = p0[:, 0] * scores[:, 0]
    for b in range(1, nl):
        mixed = mixed + p0[:, b] * scores[:, b]
    gain = scores[np.arange(n), labels] - mixed
    tracked = np.cumsum(np.concatenate(([gain0], np.bincount(color, gain, num_colors))))
    checks.ok_each(
        "rounding-monotone",
        geq(tracked[1:], tracked[:-1], scale),
        lambda c: f"objective dropped {float(tracked[c])!r} -> {float(tracked[c + 1])!r} "
        f"within color class {c}",
    )
    final = float(tracked[-1])

    labels.flags.writeable = False
    uf, cf = _objective(inst, one_hot[labels])
    checks.ok(
        "rounding-consistency",
        abs((uf - cf) - final) <= 1e-6 * scale,
        f"tracked objective {final!r} != evaluated {(uf - cf)!r}",
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
