"""Marking objectives over a conflict graph and deterministic local rounding.

A marking objective scores a choice of marked nodes.  Each node has a
utility and a cost, earned and paid when it is marked, and each pair
term a cost, paid when both of its ends are marked; a utility constant
is earned whatever is marked.  For fractional marks, one marking
probability per node with every node drawn independently, the objective
is its expectation; since every term touches at most two nodes, only
the single probabilities and their pairwise products ever appear.

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
conflict graph's id order.  An instance holds the node utilities and
costs (one value per node) and the pair costs (one value per term); a
fractional marking is one probability x per node; a coloring is one
int64 color per node; the marks `round_labels` returns are one bool per
node.  The objective is

    utility = const + sum(node_utility * x)
    cost    = sum(node_cost * x) + sum over terms e = (u, v) of pair_cost[e] * x[u] * x[v].

`round_labels` converts a fractional marking into an integral one whose
utility-minus-cost never drops below the fractional value: it walks the
color classes of a proper coloring of the conflict graph in increasing
order and marks each node exactly when marking it raises the
conditional expectation of the terms it participates in.  A term is a
conflict edge, so no term joins two nodes of one color class: every
member's score reads only probabilities outside its class, which fixing
the class does not change.  One gather of the class's incident terms
and one scatter of the chosen marks therefore give exactly what fixing
the members one after another would.  A node no pair term touches scores
its node term whatever the others' marks, so all of them are decided at
once, before the walk, and the walk visits only the nodes that carry
pair terms.
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
    """One marking probability per node.

    `x` is a read-only float array, a copy of the one given: x[i] is the
    probability that nodes[i] is marked, and `nodes` are distinct ids,
    such as a graph's `nodes`.  Every probability is checked at once: it
    lies in [0, 1], which NaN does not, and the first node to fail is
    named.  The value `evaluate` last computed for it is kept with that
    instance (`_value`).
    """

    __slots__ = ("nodes", "x", "_value")

    def __init__(self, nodes: tuple[int, ...], x: np.ndarray):
        nodes, x = tuple(nodes), np.array(x, dtype=float)
        if x.shape != (len(nodes),):
            raise PreconditionError(
                f"marking probabilities of shape {x.shape} for {len(nodes)} nodes"
            )
        # written so that NaN fails it too
        outside = ~((x >= 0.0) & (x <= 1.0))
        if outside.any():
            raise PreconditionError(
                f"probability outside [0,1] at node {nodes[int(outside.argmax())]}"
            )
        x.flags.writeable = False
        self.nodes, self.x = nodes, x
        self._value: tuple[UtilityCostInstance, tuple[float, float]] | None = None


class UtilityCostInstance:
    """Conflict graph plus node utilities, node costs and pair costs.

    The conflict graph is a `CliqueCover`.  `node_utility` and `node_cost`
    are float arrays of one value per node position, earned and paid when
    the node is marked, and `pair_cost` one float per pair term, paid when
    both of its ends are marked.  Pair term k names its two ends by their
    entries in the cover's `members`, `entry_u[k]` and `entry_v[k]`: both
    entries must lie in one hub, which makes the pair a conflict edge, and
    the first must hold the lower position.  The ends' positions are kept
    as `_eu` and `_ev`; `edge_terms` gives them as one E x 2 array.
    `utility_const` is earned whatever is marked.  Every check is
    vectorised.
    """

    __slots__ = (
        "conflict_graph",
        "utility_const",
        "node_utility",
        "node_cost",
        "pair_cost",
        "_eu",
        "_ev",
    )

    def __init__(
        self,
        conflict_graph: CliqueCover,
        node_utility: np.ndarray,
        node_cost: np.ndarray,
        entry_u: np.ndarray,
        entry_v: np.ndarray,
        pair_cost: np.ndarray,
        utility_const: float = 0.0,
    ):
        cover, n = conflict_graph, conflict_graph.n
        mismatch = "term arrays do not match the graph"
        try:
            at_u, at_v = (np.asarray(a, np.intp) for a in (entry_u, entry_v))
            nu, nc, wc = (np.asarray(a, float) for a in (node_utility, node_cost, pair_cost))
        except (TypeError, ValueError):  # ragged, or not numbers
            raise PreconditionError(mismatch) from None
        num_edges = len(at_u)
        if (
            at_u.shape != (num_edges,) or at_v.shape != (num_edges,)
            or nu.shape != (n,) or nc.shape != (n,) or wc.shape != (num_edges,)
        ):
            raise PreconditionError(mismatch)
        for name, values in (("node", nu), ("node", nc), ("edge", wc)):
            if not np.isfinite(values).all():
                raise PreconditionError(f"non-finite {name} term")
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
        self.conflict_graph, self.utility_const = cover, utility_const
        self.node_utility, self.node_cost, self.pair_cost = nu, nc, wc
        self._eu, self._ev = eu, ev

    @property
    def edge_terms(self) -> np.ndarray:
        """The positions of every pair term's two ends, lower first, as a
        new E x 2 array."""
        return np.column_stack((self._eu, self._ev))


def evaluate(inst: UtilityCostInstance, lam: FractionalAssignment) -> tuple[float, float]:
    """(utility, cost) of a fractional marking.

    `lam` must be over the conflict graph's nodes, in their order, or it
    is a `PreconditionError`.  The value is kept with `lam` for this
    instance, so asking again computes nothing.
    """
    if lam._value is not None and lam._value[0] is inst:
        return lam._value[1]
    if lam.nodes != inst.conflict_graph.nodes:
        raise PreconditionError("assignment is not over the conflict graph's nodes")
    value = _objective(inst, lam.x)
    lam._value = (inst, value)
    return value


def _objective(inst: UtilityCostInstance, x: np.ndarray) -> tuple[float, float]:
    """(utility, cost) of the marking probabilities `x`, in node order."""
    utility = inst.utility_const + float((inst.node_utility * x).sum())
    cost = float((inst.node_cost * x).sum())
    cost += float((inst.pair_cost * x[inst._eu] * x[inst._ev]).sum())
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


def round_labels(
    inst: UtilityCostInstance,
    lam: FractionalAssignment,
    coloring: Coloring,
    checks: ClaimChecker | None = None,
) -> tuple[np.ndarray, tuple[float, float]]:
    """Round a fractional marking to an integral one, never losing value.

    Requires utility(lam) - cost(lam) >= 0.1 * utility(lam) and a coloring
    of the conflict graph itself (a `Coloring` is proper by construction).
    The output satisfies both the 0.9 contract and the stronger no-loss
    bound utility(marks) - cost(marks) >= utility(lam) - cost(lam),
    because fixing a node to its better conditional choice can only
    increase the conditional expectation of the objective.

    A node's score is what marking it adds to that expectation: 0.0 +
    (utility - cost), then 0.0 - pair_cost * x[other] for each pair term
    it is an end of, where x[other] is the other end's probability, or
    its mark once fixed.  One `np.bincount` adds them: the node term,
    then the terms the node is the lower end of, then those it is the
    higher end of, each in term order.  A node is marked when its score
    is above 0.0, so a tie leaves it unmarked.  A node that no pair term
    touches scores its node term alone and is decided at once.  The class
    loop walks only the nodes that carry entries: every term enters once
    per endpoint, its lower ends first, grouped by that endpoint's color
    class, and one gather per class reads the other ends' probabilities.

    The monotone claim is checked once per color class after the loop:
    a class gains the sum over its members of (score if marked, else 0)
    - x * score, and the running total from the fractional value must
    never drop.

    Returns the marks, a read-only bool array over the conflict graph's
    node positions, and their (utility, cost), computed as `evaluate`
    would for the integral marking.
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

    n, color, num_colors = g.n, coloring.colors, coloring.num_colors
    x0 = lam.x
    probs = x0.copy()  # written only at nodes with entries, the only ones read
    # every score starts as the node term's, which a node without entries keeps
    scores = inst.node_utility - inst.node_cost
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
    # kept in entry order within it (the order each node sums its terms in)
    by_class = np.argsort(narrow[target], kind="stable")
    target, other = target[by_class], other[by_class]
    cost = np.concatenate((inst.pair_cost, inst.pair_cost))[by_class]
    term_end = np.cumsum(np.bincount(color[target], minlength=num_colors))

    member_lo = term_lo = 0
    for member_hi, term_hi in zip(member_end.tolist(), term_end.tolist()):
        members = order[member_lo:member_hi]
        k = len(members)
        if k:
            span = slice(term_lo, term_hi)
            # node first, then the incident terms in term order
            chosen = np.bincount(
                np.concatenate((np.arange(k), rank[target[span]])),
                np.concatenate((scores[members], 0.0 - cost[span] * probs[other[span]])),
                minlength=k,
            )
            scores[members] = chosen
            probs[members] = chosen > 0.0
        member_lo, term_lo = member_hi, term_hi

    # each node's gain over its fractional mark, summed per class in id
    # order, and the running total over the classes
    marked = scores > 0.0
    gain = np.where(marked, scores, 0.0) - x0 * scores
    tracked = np.cumsum(np.concatenate(([gain0], np.bincount(color, gain, num_colors))))
    checks.ok_each(
        "rounding-monotone",
        geq(tracked[1:], tracked[:-1], scale),
        lambda c: f"objective dropped {float(tracked[c])!r} -> {float(tracked[c + 1])!r} "
        f"within color class {c}",
    )
    final = float(tracked[-1])

    marked.flags.writeable = False
    uf, cf = _objective(inst, marked.astype(float))
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
    return marked, (uf, cf)
