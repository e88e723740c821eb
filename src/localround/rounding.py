"""Pairwise objectives over labelings and deterministic local rounding.

An objective gives each node a utility and a cost per label and each
conflict edge a cost per pair of labels, each term depending only on the
labels of its own node(s).  For a fractional (probabilistic) labeling the
objective is its expectation under per-node independent label draws;
since every term touches at most two nodes, only single marginals and
pairwise products ever appear.

The conflict graph has one form, a clique cover (`CliqueCover`): a CSR
of "hubs" over node positions, each hub's members increasing, two nodes
conflicting exactly when some hub holds both.  `mis` gives the closed
neighbourhoods N[v] of its graph h, whose conflicts are the pairs within
distance 2 of h; that is how a LOCAL node simulates a round of h's
square, relaying the colors of N[v], and the square itself is never
built.  The hitting sets give each left node's neighbours.  Everything
the rounding asks of the conflict graph works over the hubs: first-fit
coloring pushes each colored node's color to the later members of its
hubs (`greedy_color`), a coloring is proper exactly when no hub repeats
a color (`is_proper`, one sort of the hub entries), and a pair term is a
conflict edge because it names its two ends' entries in one hub.

Every other type here has one form, arrays over node positions in the
conflict graph's id order.  An instance holds the node utility and cost
tables N_u and N_c (n x L) and the pair cost tensors W (E x L x L); a
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

from itertools import islice

import numpy as np

from .errors import ClaimChecker, PreconditionError, REL_TOL, geq
from .graphs import csr_rows, distinct_inverse, expand, stable_order


class CliqueCover:
    """A conflict graph given by its cliques, the "hubs".

    `nodes` are the node ids by position.  Hub h holds the positions
    members[hub_ptr[h]:hub_ptr[h + 1]], increasing, and two nodes
    conflict exactly when some hub holds both; a node in no hub conflicts
    with none.  `hub` is the hub of every entry of `members`.  The three
    arrays are read-only intp copies of what was given.  The constructor
    checks the layout: integer arrays, `hub_ptr` starting at 0, never
    falling and ending at len(members), and every hub's members in [0, n)
    and increasing; a failure is a `PreconditionError`.
    """

    __slots__ = ("nodes", "hub_ptr", "members", "hub")

    def __init__(self, nodes: tuple[int, ...], hub_ptr: np.ndarray, members: np.ndarray):
        arrays = []
        for given in (np.asarray(hub_ptr), np.asarray(members)):
            if given.ndim != 1 or (given.size and given.dtype.kind not in "iu"):
                raise PreconditionError("hub arrays must be one-dimensional integer arrays")
            arrays.append(given.astype(np.intp))
        hub_ptr, members = arrays
        nodes = tuple(nodes)
        n, size = len(nodes), len(members)
        laid_out = len(hub_ptr) and hub_ptr[0] == 0 and hub_ptr[-1] == size
        if not laid_out or (np.diff(hub_ptr) < 0).any():
            raise PreconditionError("hub pointers do not lay out the members")
        if size and (members.min() < 0 or members.max() >= n):
            raise PreconditionError(f"hub member outside [0, {n})")
        hub = csr_rows(hub_ptr)
        if ((members[1:] <= members[:-1]) & (hub[1:] == hub[:-1])).any():
            raise PreconditionError("hub members are not increasing")
        for array in (hub_ptr, members, hub):
            array.flags.writeable = False
        self.nodes, self.hub_ptr, self.members, self.hub = nodes, hub_ptr, members, hub

    @property
    def n(self) -> int:
        return len(self.nodes)


def is_proper(cover: CliqueCover, colors: np.ndarray) -> bool:
    """No hub holds two nodes of one color, which is to say no conflict
    joins two: `colors` holds one color per node position.  Every hub
    entry is coded hub * span + (color - lowest color), span one more
    than the colors' range, and one sort of the codes finds any repeat.
    Colors whose range is too wide for the code are first replaced by
    their ranks among the colors in hubs."""
    members = cover.members
    if not len(members):
        return True
    held = colors[members]
    held = held - held.min()
    span = int(held.max()) + 1
    if (len(cover.hub_ptr) - 1) * span >= 1 << 63:
        held = distinct_inverse(held)[1]
        span = len(held)
    codes = cover.hub * span + held
    codes.sort()
    return not (codes[1:] == codes[:-1]).any()


class Coloring:
    """A proper coloring of the conflict graph `graph`, a `CliqueCover`,
    checked once when built.

    `colors` is a read-only int64 array, one color per position in
    `graph.nodes`, and `num_colors` is one more than the largest color (0
    on a graph without nodes).  The constructor checks that the colors are
    integers, one per node, none negative, and that no hub holds two
    nodes of one color (`is_proper`); a failure is a `PreconditionError`.
    A float color is refused, not truncated, even when it is whole.
    """

    __slots__ = ("graph", "colors", "num_colors")

    def __init__(self, graph: CliqueCover, colors: np.ndarray | list[int]):
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


class UtilityCostInstance:
    """Conflict graph plus node utility, node cost and pair cost tables.

    The conflict graph is a `CliqueCover`, and the tables are float
    arrays over its node positions, kept under the names they are given
    by: `node_utility`/`node_cost` are the n x L node tables, and
    `edge_cost` the E x L x L cost tensors of the E pair terms, indexed
    [label_u][label_v].  Pair term k names its two ends by their entries
    in the cover's `members`, `entry_u[k]` and `entry_v[k]`: both entries
    must lie in one hub, which makes the pair a conflict edge, and the
    first must hold the lower position.  The ends' positions are kept as
    `_eu` and `_ev`; `edge_terms` gives them as one E x 2 array.
    `utility_const` holds label-independent utility.  Every check is
    vectorised.
    """

    __slots__ = (
        "conflict_graph",
        "num_labels",
        "utility_const",
        "node_utility",
        "node_cost",
        "edge_cost",
        "_eu",
        "_ev",
    )

    def __init__(
        self,
        conflict_graph: CliqueCover,
        num_labels: int,
        node_utility: np.ndarray,
        node_cost: np.ndarray,
        entry_u: np.ndarray,
        entry_v: np.ndarray,
        edge_cost: np.ndarray,
        utility_const: float = 0.0,
    ):
        if num_labels < 1:
            raise PreconditionError("need at least one label")
        cover, n, nl = conflict_graph, conflict_graph.n, num_labels
        mismatch = "term arrays do not match the graph and label count"
        try:
            at_u, at_v = (np.asarray(a, np.intp) for a in (entry_u, entry_v))
            nu, nc, wc = (np.asarray(a, float) for a in (node_utility, node_cost, edge_cost))
        except (TypeError, ValueError):  # ragged, or not numbers
            raise PreconditionError(mismatch) from None
        num_edges = len(at_u)
        if (
            at_u.shape != (num_edges,) or at_v.shape != (num_edges,)
            or nu.shape != (n, nl) or nc.shape != (n, nl) or wc.shape != (num_edges, nl, nl)
        ):
            raise PreconditionError(mismatch)
        for name, table in (("node", nu), ("node", nc), ("edge", wc)):
            if not np.isfinite(table).all():
                raise PreconditionError(f"non-finite {name} table entry")
        utility_const = float(utility_const)
        if not np.isfinite(utility_const):
            raise PreconditionError(f"constants must be finite: utility {utility_const!r}")
        size = len(cover.members)
        if num_edges and (min(at_u.min(), at_v.min()) < 0 or max(at_u.max(), at_v.max()) >= size):
            raise PreconditionError(f"edge term position outside the {size} hub entries")
        eu, ev = cover.members[at_u], cover.members[at_v]
        conflict = (eu < ev) & (cover.hub[at_u] == cover.hub[at_v])
        if not conflict.all():
            k = int(conflict.argmin())
            u, v = cover.nodes[eu[k]], cover.nodes[ev[k]]
            raise PreconditionError(f"edge term ({u},{v}) is not a conflict edge of one hub")
        self.conflict_graph, self.num_labels, self.utility_const = cover, num_labels, utility_const
        self.node_utility, self.node_cost, self.edge_cost = nu, nc, wc
        self._eu, self._ev = eu, ev

    @property
    def edge_terms(self) -> np.ndarray:
        """The positions of every pair term's two ends, lower first, as a
        new E x 2 array."""
        return np.column_stack((self._eu, self._ev))


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
    utility = inst.utility_const + float((inst.node_utility * probs).sum())
    cost = float((inst.node_cost * probs).sum())
    cost += float(np.einsum("ea,eab,eb->", pu, inst.edge_cost, pv))
    return utility, cost


# A wave costs about 40 numpy calls and a readiness pass over all n
# nodes: on the closed neighbourhoods of a path and of G(8192, 8/n)
# (numpy 2.4.6, 2 vCPUs) about 40 us plus 2.3 ns per node, against 7 us
# per node for the per-node loop below, so at n = 8192 a wave of 8 nodes
# costs what the loop does.  From the first wave smaller than max(8,
# n / 2048) nodes the loop colors the rest, so no wave's pass costs much
# more than the loop would spend on its nodes, however many waves a
# cover has
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


def greedy_color(cover: CliqueCover) -> Coloring:
    """First-fit coloring in node position order; a node's color is at
    most its number of lower conflict neighbours.

    The colors are computed (`_first_fit`, whose table of taken colors
    costs at most 65 bytes per node) before the `Coloring` checks them,
    so the check's arrays never coexist with the waves' arrays.
    """
    return Coloring(cover, _first_fit(cover))


def _first_fit(cover: CliqueCover) -> list[int]:
    """The first-fit color of every node by position: in position order,
    each node takes the smallest color none of its lower conflict
    neighbours has.

    Colored in waves over the hubs.  A node's lower neighbours, the ones
    the sequential loop colors before it, are the members before it in
    each of its hubs, counted once per hub they share with it.  A node's
    wave is 0 if it has none, else one more than the largest wave among
    them.  No two nodes of one wave conflict, and every lower neighbour
    was colored in an earlier wave, so coloring a wave at once gives each
    member the color the sequential loop gives it.

    Colors are pushed, not pulled: once a wave is colored, each member
    marks its color, in every hub it is in, in the row of every later
    member of that hub in a table of taken colors, n rows of
    min(`_TAKEN_COLUMNS`, max lower count + 1) color columns and one
    overflow column that a color at or past the last of them marks.  The
    same pushes count down each node's uncolored lower neighbours, with
    their multiplicity, in one `np.bincount` over all nodes; the nodes
    that reach zero are the next wave.  A member reads its color off its
    table row with one `argmin`: the first column not taken, the overflow
    column meaning the color just past the last color column.  A member
    whose row is taken throughout reads its lower neighbours' colors
    instead.  From the first wave after wave 0 with fewer than
    max(`_WAVE_NODES`, n / `_WAVE_SHARE`) nodes on (on a path, wave 1),
    the nodes left are colored one at a time in position order, which
    also colors each after its lower neighbours.
    """
    hub_ptr, members, hub, n = cover.hub_ptr, cover.members, cover.hub, cover.n
    lower = np.bincount(members, np.arange(len(members)) - hub_ptr[hub], n).astype(np.intp)
    # every node's entries, node by node; the waves work out the rest
    # from it, so the coloring keeps one array as long as the cover's
    by_node = stable_order(members)[0]
    entries = np.bincount(members, minlength=n)
    node_ptr = np.zeros(n + 1, np.intp)
    np.cumsum(entries, out=node_ptr[1:])

    def lower_members(nodes: np.ndarray) -> np.ndarray:
        """The members before each entry of `nodes` in its hub, node by
        node: lower[u] of them for each node u."""
        at = by_node[expand(node_ptr[nodes], entries[nodes])]
        first = hub_ptr[hub[at]]
        return members[expand(first, at - first)]

    waiting = lower.copy()  # lower neighbours not yet colored; -1 once colored
    color = np.zeros(n, np.int64)
    over = min(_TAKEN_COLUMNS, int(lower.max(initial=0)) + 1)  # the overflow column
    taken = np.zeros((n, over + 1), bool)
    marks = taken.reshape(-1)  # row u, column c at u * (over + 1) + c

    def push(wave: np.ndarray) -> np.ndarray:
        """Mark each member's color in the rows of the later members of
        its hubs, and return how many marks each node took.  The arrays
        die with the call, before the next wave builds its own."""
        own = entries[wave]
        after = by_node[expand(node_ptr[wave], own)] + 1  # the entry after each
        counts = hub_ptr[1:][hub[after - 1]] - after
        up = members[expand(after, counts)]
        cells = up * (over + 1)
        cells += np.repeat(np.repeat(np.minimum(color[wave], over), own), counts)
        marks[cells] = True
        return np.bincount(up, minlength=n)

    wave = np.flatnonzero(lower == 0)  # wave 0 takes color 0
    waiting[wave] = -1
    cut = max(_WAVE_NODES, n // _WAVE_SHARE)
    while True:
        waiting -= push(wave)
        wave = np.flatnonzero(waiting == 0)
        if len(wave) < cut:
            break
        waiting[wave] = -1
        rows = taken[wave]
        first = rows.argmin(axis=1)  # the first color not taken, or 0
        full = rows[:, 0] & (first == 0)
        if full.any():
            crowded = wave[full]
            counts = lower[crowded]
            below = color[lower_members(crowded)]
            table = np.zeros((len(crowded), int(below.max()) + 2), bool)
            table[np.repeat(np.arange(len(crowded)), counts), below] = True
            first[full] = table.argmin(axis=1)
        color[wave] = first
    del taken, marks  # freed before the per-node loop builds its lists
    rest = np.flatnonzero(waiting >= 0)
    colors = color.tolist()
    for lo in range(0, len(rest), _TAIL_NODES):
        part = rest[lo : lo + _TAIL_NODES]
        below = iter(lower_members(part).tolist())
        for u, k in zip(part.tolist(), lower[part].tolist()):
            used = {colors[v] for v in islice(below, k)}
            c = 0
            while c in used:
                c += 1
            colors[u] = c
    return colors


def _oriented(tensors: np.ndarray) -> np.ndarray:
    """The E x L x L term tensors as read from each side, each flattened
    to one row of L * L, numbered as `round_labels` numbers its entries:
    row k < E is term k from its first endpoint, the tensor as stored,
    and row E + k is term k from its second endpoint, the tensor
    transposed.  One 2E-row table, so a class reads its entries with one
    gather, where np.where(first, T[term], T[term].transpose(0, 2, 1))
    takes two gathers and a select; the transposes are written straight
    into the table's second half.  Gathering class by class, not all
    entries at once, keeps a second table of this size from ever being
    live: on G(4096, 8/n) the MIS iteration's traced peak fell from 344
    to 327 bytes per edge (numpy 2.4.6), for up to 0.5 ms more per call
    at n = 8192 (2 vCPUs)."""
    num_terms, nl = len(tensors), tensors.shape[1]
    flat = tensors.reshape(num_terms, nl * nl)
    table = np.empty((2 * num_terms, nl * nl))
    table[:num_terms] = flat
    flat.take(np.arange(nl * nl).reshape(nl, nl).T.ravel(), axis=1, out=table[num_terms:])
    return table


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
    gather per class by the entry's index: its own-side index k for term
    k's first endpoint, its transposed index E + k for the second
    (`_oriented`).  An entry scores 0.0 minus its cost.

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
    base = inst.node_utility - inst.node_cost
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
    # every term's tensor as read from each side, oriented once
    sides = _oriented(inst.edge_cost)
    label_cols = np.arange(nl)

    member_lo = term_lo = 0
    for member_hi, term_hi in zip(member_end.tolist(), term_end.tolist()):
        members = order[member_lo:member_hi]
        k = len(members)
        if k:
            span = slice(term_lo, term_hi)
            oriented = sides.take(by_class[span], axis=0).reshape(-1, nl, nl)
            gathered = 0.0 - _conditional(oriented, probs[other[span]])
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
