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
from typing import Callable, NamedTuple

import numpy as np

from .clustering import (
    ClusterGroups,
    Partition,
    base_capacity_exponent,
    check_retries,
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
    stable_order,
)
from .ledger import RoundLedger
from .rounding import (
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)
from .seeds import RETRIES, stream


def good_vertices(
    h: Graph, orientation: Orientation | None = None, checks: ClaimChecker | None = None
) -> frozenset[int]:
    """Nodes with at least a third of their edges incoming.

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
    return frozenset(itertools.compress(h.nodes, good.tolist()))


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
    good = good_vertices(h, orientation, checks)
    owner = np.flatnonzero(np.fromiter(map(good.__contains__, h.nodes), bool, h.n))
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
    retries: int = RETRIES,
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
    (cluster, node) over the out-edges in `out_csr()` order.  Only
    clusters with a failing window go on to further attempts, and only a
    cluster with a resampled member can pass on one.  Each cluster
    attempt calls `stream`; a stream derives its seed only if the attempt
    draws from it, and at the paper's constants none does.  perfbench's
    traced runs take these calls as the `seeds` layer's spans on the MIS
    path and compute `mis.intra_accept_ratio` from them, so removing them
    is a change to the benchmark's declared layers first.  `witnesses`
    default to `good_witnesses(h, orientation)`.  Returns the values as a
    float array by position in `h.nodes`.
    """
    checks = checks if checks is not None else ClaimChecker()
    orientation = orientation or orient(h)
    if witnesses is None:
        witnesses = good_witnesses(h, orientation, checks)
    owner, group, member = witnesses
    deg = np.diff(h.csr()[0])
    if (deg == 0).any():
        raise PreconditionError("isolated nodes belong in the output, not here")
    n = n_total if n_total is not None else h.n
    log_n = math.log2(max(2, n))
    deg_cutoff = 1000.0 * bound * log_n
    floor_value = 1.0 / (10000.0 * bound * log_n)
    max_cluster_deg = int(cluster_degrees(h, partition).max(initial=0))
    if bound < max_cluster_deg:
        raise PreconditionError(
            f"bound {bound} below the measured cluster degree {max_cluster_deg}"
        )

    labels, rank = cluster_ranks(h, partition)
    slack = 1.0 / (100.0 * bound)
    out_ptr, outs = orientation.out_csr()
    sources = np.repeat(np.arange(h.n), np.diff(out_ptr))
    # groups: (cluster of u, v) over witnesses u of v, then (cluster of
    # w, u) over edges u -> w, the latter with no lower bound
    items = np.concatenate((member, outs))
    stride = len(owner) + h.n
    groups = ClusterGroups(
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
        labels,
        x,
        draws,
        floor_value,
        lambda trial: groups.failing(trial, lo, hi),
        lambda c, attempt: stream(seed, "mis-intra", c, attempt),
        retries,
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

    `witnesses` are the lists as `good_witnesses` builds them.  Built as
    arrays over node positions.  The cost terms are the contributions
    the loop over good v would make, in its order: each v's witness
    pairs (i < j) at deg(v), then each witness's out-neighbours at
    deg(v)/2.  Terms keep the order in which the loop first meets their
    pair, and each coefficient is summed in loop order (`np.bincount`
    adds in input order), so the instance equals the loop's bit for bit;
    the order matters because `round_labels` sums a node's terms in term
    order.
    """
    orientation = orientation or orient(h)
    conflict = square_graph(h)
    n = h.n
    half_deg = np.diff(h.csr()[0]) / 2.0
    owner, group, member = witnesses
    weight = half_deg[owner][group]
    lin = np.bincount(member, weight, minlength=n)
    # witness pairs i < j of one list, i in entry order, j after it
    size = np.bincount(group, minlength=len(owner))
    later = (np.cumsum(size) - 1)[group] - np.arange(len(member))
    i = np.repeat(np.arange(len(member)), later)
    j = expand(np.arange(len(member)) + 1, later)
    # witness -> out-neighbour pairs
    out_ptr, out_idx = orientation.out_csr()
    out_deg = np.diff(out_ptr)[member]
    e = np.repeat(np.arange(len(member)), out_deg)
    w = out_idx[expand(out_ptr[member], out_deg)]
    a = np.concatenate((member[i], member[e]))
    b = np.concatenate((member[j], w))
    cost = np.concatenate((2.0 * weight[i], weight[e]))
    # stable: within each v's list, its pairs stay before its out-neighbours
    order = stable_order(np.concatenate((group[i], group[e])))[0]
    a, b, cost = a[order], b[order], cost[order]
    keys, term = first_seen(np.minimum(a, b).astype(np.int64) * n + np.maximum(a, b))
    coef = np.bincount(term, cost, minlength=len(keys))
    node_utility = np.zeros((n, 2))
    node_utility[:, 1] = lin
    edge_cost = np.zeros((len(keys), 2, 2))
    edge_cost[:, 1, 1] = coef
    return UtilityCostInstance(
        conflict, 2, node_utility, np.zeros((n, 2)), keys // n, keys % n, edge_cost
    )


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
    retries: int = RETRIES,
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
        h, partition, bound, seed, n_total, retries, checks, orientation, witnesses
    )
    inst = build_mis_instance(h, witnesses, orientation)
    lam = FractionalAssignment(h.nodes, np.column_stack((1.0 - x, x)))
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
    labels, (yu, yc) = round_labels(inst, lam, coloring, checks=checks)
    if ledger is not None:
        # the conflict graph joins nodes at distance two
        ledger.charge("mark-rounding", 4, 4 * coloring.num_colors)
    checks.ok(
        "rounded-estimator-half",
        geq(yu - yc, 0.5 * (fu - fc)),
        f"rounded estimator {yu - yc} below half of {fu - fc}",
    )

    # the conflict graph is h's square, over h's node order
    marked = labels == 1
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
    retries: int = RETRIES,
) -> MisResult:
    """Maximal independent set of g; clusters once, then iterates.

    Every iteration reads the one partition at its surviving nodes, and
    nodes isolated by removals join the output directly.
    A `retries` below 1 is refused on every input, edgeless or not.
    """
    check_retries(retries)
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
            current, partition, bound, seed, g.n, ledger, retries, checks
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
