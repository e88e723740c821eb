"""Deterministic maximal independent set via derandomized mark-and-keep
iterations.

Each iteration marks a set of nodes, keeps the marked nodes with no
marked out-neighbor under the (degree, id) orientation, and removes the
kept nodes with their neighborhoods.  A linear-minus-quadratic estimator
in the marking probabilities lower-bounds the removed edges using only
pairwise products, so the local rounding engine can pick the marks
deterministically.  Before rounding, a per-cluster step floors all
surviving marking probabilities, which keeps the rounding cheap; the
clusters come from one upfront `cluster_all` partition.

Every iteration removes at least a 1/24000 fraction of the remaining
edges, checked exactly, so the loop ends within O(log m) iterations.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, NamedTuple

import numpy as np

from .clustering import (
    ClusterGroups,
    Partition,
    base_capacity_exponent,
    check_bound,
    cluster_all,
    cluster_degrees,
    cluster_ranks,
    resample_clusters,
)
from .errors import ClaimChecker, PreconditionError, RetryBudgetExceeded, geq, leq
from .graphs import (
    Graph,
    Orientation,
    csr_rows,
    expand,
    first_seen,
    induced_subgraph,
    orient,
    square_graph,
)
from .ledger import RoundLedger
from .rounding import (
    CliqueCover,
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)
from .seeds import stream


def good_vertices(
    h: Graph, orientation: Orientation | None = None, checks: ClaimChecker | None = None
) -> np.ndarray:
    """Whether each node, by position in `h.nodes`, has at least a third
    of its edges incoming: the good nodes, as a boolean mask.

    Their degrees always carry at least half of all edges: an edge into a
    non-good node charges two edges leaving it, so at most half the edges
    point into non-good nodes.
    """
    checks = checks if checks is not None else ClaimChecker()
    if h.m == 0:
        raise PreconditionError("good vertices need at least one edge")
    orientation = orientation or orient(h)
    deg = np.diff(h.csr()[0])
    good = 3 * np.diff(orientation.in_csr()[0]) >= deg
    checks.ok(
        "good-degree-mass",
        2 * int(deg[good].sum()) >= h.m,
        "good vertices carry less than half the edges",
    )
    return good


class WitnessArrays(NamedTuple):
    """Witness lists as positions in `h.nodes`: the witnessed nodes, then
    per witness (in mapping order) its list's index and itself."""

    owner: np.ndarray
    group: np.ndarray
    member: np.ndarray


def good_witnesses(
    h: Graph, orientation: Orientation | None = None, checks: ClaimChecker | None = None
) -> WitnessArrays:
    """The witness lists of h's good vertices, in id order, as arrays.

    A good vertex's witnesses are the shortest prefix of its
    in-neighbours (increasing id) whose inverse degrees reach 1/3; the
    sum stays at most 4/3 since each term is <= 1.  The prefixes are
    found k-major: step k adds the k-th inverse degree to the running
    sum of every node still short of 1/3, so each sum adds the same
    terms in the same order as a loop along the node's list.
    """
    checks = checks if checks is not None else ClaimChecker()
    orientation = orientation or orient(h)
    owner = np.flatnonzero(good_vertices(h, orientation, checks))
    in_ptr, in_idx = orientation.in_csr()
    inv = 1.0 / np.diff(h.csr()[0])
    start = in_ptr[owner]
    avail = in_ptr[owner + 1] - start
    total = np.zeros(len(owner))
    size = np.zeros(len(owner), np.intp)
    short = np.flatnonzero(avail > 0)
    k = 0
    while len(short):
        total[short] += inv[in_idx[start[short] + k]]
        k += 1
        size[short] = k
        short = short[(total[short] < 1.0 / 3.0) & (avail[short] > k)]
    unmet = total < 1.0 / 3.0
    if unmet.any():
        i = int(unmet.argmax())
        raise PreconditionError(
            f"node {h.nodes[owner[i]]} is not good: inverse-degree sum {float(total[i])}"
        )
    member = in_idx[expand(start, size)].astype(np.intp)
    return WitnessArrays(owner, np.repeat(np.arange(len(owner)), size), member)


def intra_round_mis(
    h: Graph,
    partition: Partition,
    bound: float,
    seed: int,
    n_total: int | None = None,
    checks: ClaimChecker | None = None,
    orientation: Orientation | None = None,
    witnesses: WitnessArrays | None = None,
) -> np.ndarray:
    """Per-cluster flooring of the marking probabilities.

    Nodes of degree at most 1000*bound*log2(n) keep probability
    1/(10*deg); larger degrees are resampled to the floor value
    1/(10000*bound*log2(n)) with matching expectation.  Each cluster is
    verified against its windows (witness sums per good node, outgoing
    sums per node) and resampled on failure, so the values in a cluster
    depend only on that cluster's members, the seed, and its label.

    The clusters are decided attempt by attempt, all at once: attempt 0
    sets every value as one array and sums every window as a group,
    (cluster, good node) over the witness entries in entry order and
    (cluster, node) over the out-edges in `out_csr()` order
    (`ClusterGroups`).  The groups are found by one sort of their codes,
    except when every node is its own cluster, as at the paper's
    constants: then no two entries share a group, and each entry is its
    own group, in entry order (`ClusterGroups.each_entry`).  Only
    clusters with a failing window go on to further attempts, and only a
    cluster with a resampled member can pass on one.  Each cluster
    attempt calls `stream`; a stream derives its seed only if the attempt
    draws from it, and at the paper's constants none does.  perfbench's
    traced runs take these calls as the `seeds` layer's spans on the MIS
    path and compute `mis.intra_accept_ratio` from them, so removing them
    is a change to the benchmark's declared layers first.  The calls go
    through a `functools.partial` of this module's `stream`, taken at
    call time, and `resample_clusters` makes those of the clusters
    without draws in one `map`.  The bound check reads the cluster
    degrees, which need no sort when every node is its own cluster
    (`cluster_degrees`).  `witnesses` default to `good_witnesses(h,
    orientation)`.  Returns the values as a float array by position in
    `h.nodes`.
    """
    checks = checks if checks is not None else ClaimChecker()
    orientation = orientation or orient(h)
    if witnesses is None:
        witnesses = good_witnesses(h, orientation, checks)
    owner, group, member = witnesses
    deg = np.diff(h.csr()[0])
    if (deg == 0).any():
        raise PreconditionError("isolated nodes belong in the output, not here")
    max_cluster_deg = int(cluster_degrees(h, partition).max(initial=0))
    check_bound(bound)  # before any division by it
    if not bound >= max_cluster_deg:
        raise PreconditionError(
            f"bound {bound} below the measured cluster degree {max_cluster_deg}"
        )
    n = n_total if n_total is not None else h.n
    log_n = math.log2(max(2, n))
    deg_cutoff = 1000.0 * bound * log_n
    floor_value = 1.0 / (10000.0 * bound * log_n)

    labels, rank = cluster_ranks(h, partition)
    slack = 1.0 / (100.0 * bound)
    out_ptr, outs = orientation.out_csr()
    sources = np.repeat(np.arange(h.n), np.diff(out_ptr))
    # groups: (cluster of u, v) over witnesses u of v, then (cluster of
    # w, u) over edges u -> w, the latter with no lower bound
    items = np.concatenate((member, outs))
    stride = len(owner) + h.n
    # when every node is its own cluster no two entries share a code: a
    # witness list's members are distinct, so are a source's
    # out-neighbours, and the two target ranges do not meet
    build = ClusterGroups.each_entry if len(labels) == h.n else ClusterGroups
    groups = build(
        rank[items] * stride + np.concatenate((group, len(owner) + sources)),
        items,
        stride,
        len(labels),
    )
    inv = groups.sums(1.0 / deg)
    witnessed = groups.keys % stride < len(owner)
    lo = np.where(witnessed, inv / 20.0 - slack, -np.inf)
    hi = inv / 5.0 + slack
    x = np.where(deg <= deg_cutoff, 1.0 / (10.0 * deg), 0.0)
    draws: dict[int, list[tuple[int, float]]] = {}
    for u in np.flatnonzero(deg > deg_cutoff).tolist():
        draws.setdefault(int(rank[u]), []).append((u, deg_cutoff / int(deg[u])))
    resample_clusters(
        labels.tolist(),
        x,
        draws,
        floor_value,
        lambda trial: groups.failing(trial, lo, hi),
        partial(stream, seed, "mis-intra"),
        checks,
        "intra-cluster-window",
        "failed its windows",
    )

    mass = np.bincount(group, x[member], minlength=len(owner))
    checks.ok_each(
        "witness-mass-window",
        geq(mass, 1.0 / 1000.0) & leq(mass, 1.0 / 3.0),
        lambda k: f"witness mass {mass[k]} for node {h.nodes[owner[k]]} outside [1/1000, 1/3]",
    )
    out_mass = np.bincount(sources, x[outs], minlength=h.n)
    checks.ok_each(
        "out-mass-cap",
        leq(out_mass, 1.0 / 4.0),
        lambda u: f"outgoing mass {out_mass[u]} at node {h.nodes[u]} above 1/4",
    )
    return x


def closed_neighbourhoods(h: Graph) -> tuple[CliqueCover, np.ndarray, np.ndarray]:
    """The cover of h's square by the closed neighbourhoods N[v] of h, hub
    v holding v and its neighbours in increasing order: two nodes share a
    hub exactly when they lie within distance 2.  Also the entry of every
    entry of `h.csr()` in its row's hub, and each node's own entry in its
    hub.  Row v of `h.csr()` becomes hub v with v slotted in after its
    lower neighbours, so an entry moves by its row plus one when it lies
    above the diagonal."""
    indptr, nbr = h.csr()
    n = h.n
    row = csr_rows(indptr)
    above = nbr > row
    hub_at = np.arange(len(nbr)) + row + above
    members = np.repeat(np.arange(n), np.diff(indptr) + 1)  # the slot no neighbour takes is v's
    members[hub_at] = nbr
    hub_ptr = indptr + np.arange(n + 1)
    own_at = hub_ptr[:-1] + np.bincount(row[~above], minlength=n)
    return CliqueCover(h.nodes, hub_ptr, members), hub_at, own_at


def build_mis_instance(
    h: Graph,
    witnesses: WitnessArrays,
    orientation: Orientation | None = None,
) -> UtilityCostInstance:
    """Removed-edges estimator as a pairwise objective on the square graph.

    Utility: sum over good v of (deg(v)/2) * sum of witness marks.
    Cost:    same weights on ordered witness pairs and on witness ->
             out-neighbor pairs.  For integral marks, utility - cost
             lower-bounds the number of edges removed this iteration.

    `witnesses` are the lists as `good_witnesses` builds them, each a
    prefix of its node's in-neighbours.  Built as arrays over node
    positions.  The cost terms are the contributions the loop over good v
    would make, in its order: each v's witness pairs (i < j) at deg(v),
    then each witness's out-neighbours at deg(v)/2.  Terms keep the order
    in which the loop first meets their pair, and each coefficient is
    summed in loop order (`np.bincount` adds in input order), so the
    instance equals the loop's bit for bit; the order matters because
    `round_labels` sums a node's terms in an order set by term order.

    The conflict graph is h's square, given by the closed neighbourhoods
    of h (`closed_neighbourhoods`); the square itself is never built.
    Each term names its two ends' entries in one hub, taken where the
    loop first meets it: a witness pair of v in hub v, a witness u and
    its out-neighbour in hub u.
    """
    orientation = orientation or orient(h)
    conflict, hub_at, own_at = closed_neighbourhoods(h)
    n = h.n
    half_deg = np.diff(h.csr()[0]) / 2.0
    owner, group, member = witnesses
    weight = half_deg[owner][group]
    lin = np.bincount(member, weight, minlength=n)
    # each witness's entry in its list's hub, from its in-neighbour entry
    size = np.bincount(group, minlength=len(owner))
    in_ptr = orientation.in_csr()[0]
    not_prefixes = "witness lists are not prefixes of their in-neighbours"
    if (size > np.diff(in_ptr)[owner]).any():
        raise PreconditionError(not_prefixes)
    listed = hub_at[orientation.in_entries()[expand(in_ptr[owner], size)]]
    if not np.array_equal(conflict.members[listed], member):
        raise PreconditionError(not_prefixes)
    # witness pairs i < j of one list, i in entry order, j after it
    later = (np.cumsum(size) - 1)[group] - np.arange(len(member))
    i = np.repeat(np.arange(len(member)), later)
    j = expand(np.arange(len(member)) + 1, later)
    # witness -> out-neighbour pairs
    out_ptr = orientation.out_csr()[0]
    out_deg = np.diff(out_ptr)[member]
    e = np.repeat(np.arange(len(member)), out_deg)
    out_at = hub_at[orientation.out_entries()[expand(out_ptr[member], out_deg)]]
    del hub_at
    # the terms by list, each list's pairs before its out-neighbour pairs:
    # both halves are already in list order, so each list's two runs are
    # placed by their counts, the order a stable sort by list would give
    pair_count = size * (size - 1) // 2
    out_count = np.diff(np.concatenate(([0], np.cumsum(out_deg)))[np.cumsum(size)], prepend=0)
    first_pair = np.cumsum(pair_count) - pair_count
    first_out = len(i) + np.cumsum(out_count) - out_count
    order = expand(
        np.column_stack((first_pair, first_out)).ravel(),
        np.column_stack((pair_count, out_count)).ravel(),
    )
    # each term's two entries in one hub, whose members increase with
    # their entries, so the lower entry holds the lower end
    own = own_at[member[e]]
    low = np.concatenate((listed[i], np.minimum(own, out_at)))
    high = np.concatenate((listed[j], np.maximum(own, out_at)))
    cost = np.concatenate((2.0 * weight[i], weight[e]))
    del i, j, e, own, out_at
    codes = conflict.members[low]
    codes *= n
    codes += conflict.members[high]
    codes = codes[order]
    first, term = first_seen(codes)
    coef = np.bincount(term, cost[order], minlength=len(first))
    kept = order[first]
    return UtilityCostInstance(conflict, lin, np.zeros(n), low[kept], high[kept], coef)


def _keep_marked(
    h: Graph, orientation: Orientation, marked: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int]:
    """Marked nodes with no marked out-neighbor and the nodes they remove
    (themselves and their neighbors), as masks over h.nodes like
    `marked`, and the number of removed edges."""
    out_ptr, outs = orientation.out_csr()
    added = marked.copy()
    added[csr_rows(out_ptr)[marked[outs]]] = False
    indptr, nbr = h.csr()
    rows = csr_rows(indptr)
    removed = added.copy()
    removed[nbr[added[rows]]] = True
    # every edge with a removed end, seen once from each end
    edges_removed = np.count_nonzero(removed[rows] | removed[nbr]) // 2
    return added, removed, int(edges_removed)


def _peel(g: Graph, step: Callable[[Graph], tuple]) -> tuple[set[int], list[float]]:
    """Mark-and-keep loop shared by both MIS algorithms.

    Isolated nodes join the output.  `step(current)` returns the nodes it
    adds and the nodes it removes, as masks over `current.nodes`, and the
    removed-edge count; the survivors minus the nodes left isolated form
    the next graph.  Returns the chosen nodes and the removed-edge
    fraction of every iteration.
    """
    chosen: set[int] = set()
    fractions: list[float] = []
    current, removed = g, np.zeros(g.n, bool)
    while True:
        indptr, nbr = current.csr()
        rows = csr_rows(indptr)
        survivors = ~removed
        alone = survivors & (np.bincount(rows[survivors[nbr]], minlength=current.n) == 0)
        chosen.update(itertools.compress(current.nodes, alone.tolist()))
        current = induced_subgraph(current, survivors & ~alone)
        if current.m == 0:
            return chosen, fractions
        added, removed, edges_removed = step(current)
        fractions.append(edges_removed / current.m)
        chosen.update(itertools.compress(current.nodes, added.tolist()))


@dataclass
class IterationOutcome:
    """The iteration's kept and removed nodes, as masks over `h.nodes`,
    and the number of removed edges."""

    added: np.ndarray
    removed: np.ndarray
    edges_removed: int


def luby_derandomized_iteration(
    h: Graph,
    partition: Partition,
    bound: float,
    seed: int,
    n_total: int | None = None,
    ledger: RoundLedger | None = None,
    checks: ClaimChecker | None = None,
) -> IterationOutcome:
    """One derandomized mark-and-keep iteration on h."""
    checks = checks if checks is not None else ClaimChecker()
    if h.m == 0:
        raise PreconditionError("iteration needs at least one edge")
    orientation = orient(h)
    witnesses = good_witnesses(h, orientation, checks)
    owner, group, member = witnesses
    inv = np.bincount(group, 1.0 / np.diff(h.csr()[0])[member], minlength=len(owner))
    checks.ok_each(
        "witness-weight-window",
        geq(inv, 1.0 / 3.0) & leq(inv, 4.0 / 3.0),
        lambda k: f"witness inverse-degree sum {inv[k]} at node {h.nodes[owner[k]]}",
    )
    x = intra_round_mis(
        h, partition, bound, seed, n_total, checks, orientation, witnesses
    )
    inst = build_mis_instance(h, witnesses, orientation)
    lam = FractionalAssignment(h.nodes, x)
    fu, fc = evaluate(inst, lam)
    checks.ok(
        "estimator-slack",
        geq(fu - fc, fu / 3.0),
        f"estimator slack too small: utility {fu}, cost {fc}",
    )
    coloring = greedy_color(inst.conflict_graph)
    if ledger is not None:
        ledger.charge("mark-structure", 2, 2)
        # gather + scatter per cluster; weak radius bounded by construction
        radius = 50 * partition.alpha + 2
        ledger.charge("intra-gather", radius, 2 * radius)
    marked, (yu, yc) = round_labels(inst, lam, coloring, checks=checks)
    if ledger is not None:
        # the conflict graph joins nodes at distance two
        ledger.charge("mark-rounding", 4, 4 * coloring.num_colors)
    checks.ok(
        "rounded-estimator-half",
        geq(yu - yc, 0.5 * (fu - fc)),
        f"rounded estimator {yu - yc} below half of {fu - fc}",
    )

    # the conflict graph is h's square, over h's node order
    added, removed, edges_removed = _keep_marked(h, orientation, marked)
    checks.ok(
        "estimator-sound",
        edges_removed + 1e-6 >= yu - yc,
        f"estimator {yu - yc} exceeds actual removals {edges_removed}",
    )
    checks.ok(
        "removed-edges-floor",
        edges_removed * 24000 >= h.m,
        f"removed {edges_removed} of {h.m} edges",
    )
    return IterationOutcome(added, removed, edges_removed)


@dataclass
class MisResult:
    independent_set: frozenset[int]
    iterations: int
    removed_fractions: list[float]
    alpha: int
    degree_bound: float
    log2_capacity: int
    checks: dict[str, int] = field(default_factory=dict)


def mis(
    g: Graph,
    alpha: int | None = None,
    seed: int = 0,
    f_override: float | None = None,
    ledger: RoundLedger | None = None,
) -> MisResult:
    """Maximal independent set of g; clusters once, then iterates.

    Every iteration reads the one partition at its surviving nodes, and
    nodes isolated by removals join the output directly.
    An `f_override` that is not a finite positive number is refused on
    every input, edgeless or not.  Each cluster's floor gets the fixed
    budget of `seeds.RETRIES` attempts (`resample_clusters`).
    """
    if f_override is not None:
        check_bound(float(f_override))
    checks = ClaimChecker()
    if g.n == 0:
        return MisResult(frozenset(), 0, [], alpha or 1, 0.0, 0, checks.counts)
    if alpha is None:
        alpha = max(1, math.ceil(math.sqrt(base_capacity_exponent(g.n))))
    partition = cluster_all(g, alpha, ledger)
    log_n_cap = partition.meta["log2_capacity"]
    bound = float(
        f_override if f_override is not None else partition.meta["degree_bound"]
    )

    max_iterations = math.ceil(24000 * math.log(g.m + 1)) + 1 if g.m else 0
    iteration = itertools.count(1)

    def step(current: Graph) -> tuple[np.ndarray, np.ndarray, int]:
        outcome = luby_derandomized_iteration(
            current, partition, bound, seed, g.n, ledger, checks
        )
        k = next(iteration)
        checks.ok(
            "iteration-count",
            k <= max_iterations,
            f"{k} iterations exceed the guaranteed {max_iterations}",
        )
        return outcome.added, outcome.removed, outcome.edges_removed

    chosen, fractions = _peel(g, step)
    checks.ok("mis-valid", verify_mis(g, chosen), "output not a maximal independent set")
    return MisResult(
        frozenset(chosen),
        len(fractions),
        fractions,
        alpha,
        bound,
        log_n_cap,
        checks.counts,
    )


@dataclass
class LubyResult:
    independent_set: frozenset[int]
    iterations: int
    removed_fractions: list[float]


def luby_randomized(g: Graph, seed: int) -> LubyResult:
    """Randomized baseline: mark with probability 1/(10*deg), keep marked
    nodes with no marked out-neighbor."""
    rng = stream(seed, "luby")
    cap = 10 * g.n + 1000
    iteration = itertools.count(1)

    def step(current: Graph) -> tuple[np.ndarray, np.ndarray, int]:
        # one draw per node, in node order
        draws = np.fromiter((rng.random() for _ in current.nodes), float, current.n)
        marked = draws < 1.0 / (10.0 * np.diff(current.csr()[0]))
        kept = _keep_marked(current, orient(current), marked)
        if next(iteration) > cap:
            raise RetryBudgetExceeded(f"no progress after {cap + 1} iterations")
        return kept

    chosen, fractions = _peel(g, step)
    if not verify_mis(g, chosen):
        raise AssertionError("randomized baseline produced an invalid set")
    return LubyResult(frozenset(chosen), len(fractions), fractions)


def verify_mis(g: Graph, selected: frozenset[int] | set[int]) -> bool:
    """True iff `selected` is independent and dominates every other node.

    Decided with a mask of the selected nodes over `g.csr()`: a selected
    id outside g fails, as does an entry joining two selected nodes or a
    node neither selected nor next to one.
    """
    selected = set(selected)
    chosen = np.fromiter(map(selected.__contains__, g.nodes), bool, g.n)
    if np.count_nonzero(chosen) != len(selected):
        return False
    indptr, nbr = g.csr()
    rows = csr_rows(indptr)
    if (chosen[rows] & chosen[nbr]).any():
        return False
    covered = chosen.copy()
    covered[rows[chosen[nbr]]] = True
    return bool(covered.all())
