"""Low-diameter graph partitions built from broadcast delays.

Every construction here computes one integer delay per node in
[0, 50*alpha] and then grows clusters by a shortest-arrival rule: node u
joins the cluster of the node v minimizing (delay(v) + d(v, u), id(v)).
That rule alone bounds every cluster's internal radius by 50*alpha.

The constructions differ only in how the shrinking active sets that
define the delays are computed:

  * `mpx_randomized`  - independent subsampling (the randomized baseline);
  * `cluster_constant` - one derandomized shrink per step, guaranteeing a
    0.9 weighted fraction of nodes ends up with low cluster degree;
  * `cluster_all`     - a pipelined grid of derandomized shrinks,
    guaranteeing low cluster degree for every node.

Both deterministic variants delegate each shrink to the grouped hitting
set, pricing active nodes with a normalization that doubles per step, so
the active sets provably empty out after 10*alpha phases.

A `Partition` is stored as arrays by node position: the covered ids and,
per node, its cluster's label (the centre's id) and its delay.  Every
construction computes the last phase each node was active in as an int
array and turns it into the delays 50*alpha - 5*index directly.  When
all delays are equal, as they are at the paper's constants once the
first phase empties the active set, every node is its own cluster and
the labels are the ids.  `cluster_ranks` and `cluster_degrees` look
a graph's ids up with `np.searchsorted`, so a partition of g also
serves every subgraph of g; the dicts
`clusters`, `assignment` and `delays` are views built only if read.
Node weights for `cluster_constant` are one float array in node order.
"""

from __future__ import annotations

import math
from collections import Counter
from heapq import heapify, heappop, heappush
from typing import AbstractSet, Callable, Mapping, Sequence

import numpy as np

from .errors import (
    ClaimChecker,
    PreconditionError,
    RetryBudgetExceeded,
    geq,
    leq,
    plain_sum,
)
from .graphs import (
    ArrayView,
    Graph,
    _select,
    bfs_distances,
    csr_rows,
    distinct,
    distinct_inverse,
    induced_subgraph,  # not called here; perfbench's tests pin this import
    lookup,
    stable_order,
    two_hop_sets,
)
from .hitting import BipartiteInstance, grouped_hitting_set
from .ledger import RoundLedger
from .seeds import Stream, stream


def base_capacity_exponent(n: int) -> int:
    """Smallest exponent L with 2**L >= n**2 (and at least 2)."""
    return max(2, (max(2, n * n) - 1).bit_length())


def capacity_exponent(n: int, alpha: int) -> int:
    """log2 of the capacity bound N used by all threshold formulas.

    N is the smallest power of two at least n**2, raised further until
    alpha divides log2(N) and N is large enough for the counting
    arguments behind the shrink guarantees (the base-case mass bound and
    the per-step decay need a comfortable gap over n).
    """
    if alpha < 1:
        raise PreconditionError("alpha must be >= 1")
    log_n_cap = alpha * math.ceil(base_capacity_exponent(n) / alpha)
    while True:
        decay_ok = math.exp(-math.ceil(100 * math.log2(log_n_cap)) / 16.0) <= 1.0 / (
            800 * log_n_cap
        )
        mass_ok = 4**log_n_cap >= 50 * log_n_cap * max(1, n)
        if decay_ok and mass_ok:
            return log_n_cap
        log_n_cap += alpha


def cluster_degree_bound_all(log_n_cap: int, alpha: int) -> int:
    """Cluster-degree bound certified by `cluster_all` for every node."""
    return 10 * alpha * (2000 * log_n_cap) ** (log_n_cap // alpha)


def cluster_degree_bound_fraction(log_n_cap: int, alpha: int) -> int:
    """Cluster-degree bound holding for a 0.9 weighted fraction of nodes."""
    return 10 * alpha * math.ceil(1000 * math.log2(log_n_cap)) ** (log_n_cap // alpha)


def _ids(g: Graph) -> np.ndarray:
    """g's node ids as an increasing int64 array."""
    return np.fromiter(g.nodes, np.int64, g.n)


class Partition:
    """Disjoint clusters covering a set of nodes, stored as arrays by
    position.

    `ids` are the covered node ids, int64 and increasing (a graph's
    `nodes`); node ids[i] belongs to the cluster labelled label[i], the id
    of the cluster's centre, and was given broadcast delay delay[i].  The
    arrays are shared, not copied, and are read only.  `clusters` (label
    -> members, labels increasing), `assignment` (node -> label) and
    `delays` (node -> delay), both in id order, are read-only views of
    them: each builds its dict on first use, and `len` builds none.  The
    constructor stores the arrays as given; the constructions build them
    through `delays_to_partition`.
    """

    __slots__ = ("alpha", "ids", "label", "delay", "meta", "_views", "_ranks")

    def __init__(
        self,
        alpha: int,
        ids: np.ndarray,
        label: np.ndarray,
        delay: np.ndarray,
        meta: dict | None = None,
    ):
        self.alpha, self.ids, self.label, self.delay = alpha, ids, label, delay
        self.meta = {} if meta is None else meta
        self._views: dict[str, ArrayView] = {}
        self._ranks: tuple[Graph, np.ndarray, np.ndarray] | None = None

    def _view(self, name: str, size: Callable[[], int]) -> Mapping:
        if name not in self._views:
            self._views[name] = ArrayView(size(), lambda: _build_view(self, name))
        return self._views[name]

    @property
    def clusters(self) -> Mapping[int, frozenset[int]]:
        return self._view("clusters", lambda: len(np.unique(self.label)))

    @property
    def assignment(self) -> Mapping[int, int]:
        return self._view("assignment", lambda: len(self.ids))

    @property
    def delays(self) -> Mapping[int, int]:
        return self._view("delays", lambda: len(self.ids))


def _build_view(part: Partition, name: str) -> dict:
    """The dict behind one of `part`'s views, named by its attribute."""
    ids = part.ids.tolist()
    if name == "assignment":
        return dict(zip(ids, part.label.tolist()))
    if name == "delays":
        return dict(zip(ids, part.delay.tolist()))
    order, ranked = stable_order(part.label)
    members = np.split(part.ids[order], np.flatnonzero(np.diff(ranked)) + 1)
    return {c: frozenset(m.tolist()) for c, m in zip(distinct(ranked).tolist(), members)}


def _arrivals(g: Graph, delay: np.ndarray) -> list[int]:
    """By position, the position of the node whose token reaches each node
    first: tokens leave node v at time delay[v] and take one round per
    hop, and ties go to the lower position, which is the lower id."""
    indptr, nbr = g.csr()
    ptr, nbrs = indptr.tolist(), nbr.tolist()
    source = [-1] * g.n
    heap = list(zip(delay.tolist(), range(g.n), range(g.n)))
    heapify(heap)
    while heap:
        t, c, u = heappop(heap)
        if source[u] >= 0:
            continue
        source[u] = c
        for w in nbrs[ptr[u] : ptr[u + 1]]:
            if source[w] < 0:
                heappush(heap, (t + 1, c, w))
    return source


def delays_to_partition(
    g: Graph,
    delays: Mapping[int, int] | np.ndarray,
    alpha: int,
    ledger: RoundLedger | None = None,
) -> Partition:
    """Grow clusters from broadcast delays.

    Node u joins the node v minimizing (delays[v] + d(v, u), id(v)); the
    winning token's whole shortest path lands in the same cluster, so
    clusters are connected with internal radius at most max(delays).
    `delays` map every node of g to its delay, or give them as an int
    array by position in `g.nodes`.  When all delays are equal, d(u, u) = 0
    decides every node: each is its own center, the labels are the ids,
    and no arrival is simulated.
    """
    if isinstance(delays, np.ndarray):
        if delays.shape != (g.n,):
            raise PreconditionError(f"delays of shape {delays.shape} for {g.n} nodes")
        delay = delays.astype(np.int64)
    else:
        missing = [u for u in g.nodes if u not in delays]
        if missing:
            raise PreconditionError(f"delays missing for nodes {missing[:5]}")
        delay = np.fromiter(map(int, map(delays.__getitem__, g.nodes)), np.int64, g.n)
    if (delay == delay[:1]).all():
        # d(u, u) = 0 is the unique minimum of delays[v] + d(v, u) over v
        source = np.arange(g.n)
    else:
        source = np.array(_arrivals(g, delay), np.intp)
    # a nonempty cluster's center always claims itself
    strays = source[source] != source
    if strays.any():
        c = int(source[strays.argmax()])
        raise AssertionError(f"center {g.nodes[c]} assigned to {g.nodes[source[c]]}")
    if ledger is not None:
        ledger.charge("delay-broadcast", 50 * alpha + 2, 50 * alpha + 2)
    ids = _ids(g)
    return Partition(alpha, ids, ids[source], delay)


def _all_nearby_active(
    g: Graph, active: set[int], alpha: int, threshold: int
) -> tuple[dict[int, frozenset[int]] | None, int]:
    """For every node u, its nearby-active set: the active nodes within
    min(d(u, active) + 2, 100*alpha) hops of u, empty when no active node
    is reachable; also the max radius read.

    The map is None when no node's set can reach `threshold` (at least 1):
    every set has at most |active| nodes, and at most 1 + maxdeg**2 while
    all of V is active, when the radius is 2.
    """
    cap = 100 * alpha
    if not active:
        return None, 0
    if len(active) == g.n and cap >= 2:
        if min(g.n, 1 + g.max_degree() ** 2) < threshold:
            return None, 2
        return two_hop_sets(g), 2
    dist = bfs_distances(g, sorted(active))
    max_r = min(max(dist.values()) + 2, cap)
    if len(active) < threshold:
        return None, max_r
    out: dict[int, frozenset[int]] = {}
    for u in g.nodes:
        d = dist.get(u)
        if d is None:
            out[u] = frozenset()
            continue
        out[u] = frozenset(
            v for v in bfs_distances(g, u, limit=min(d + 2, cap)) if v in active
        )
    return out, max_r


def _empty_partition(alpha: int) -> Partition:
    empty = np.zeros(0, np.int64)
    return Partition(alpha, empty, empty, empty)


def _finish(
    g: Graph,
    alpha: int,
    last_active_index: np.ndarray,
    ledger: RoundLedger | None,
    meta: dict,
) -> Partition:
    """The partition of the delays 50*alpha - 5*(the last phase each node,
    by position, was active in)."""
    part = delays_to_partition(g, 50 * alpha - 5 * last_active_index, alpha, ledger)
    part.meta.update(meta)
    return part


def mpx_randomized(
    g: Graph,
    alpha: int,
    seed: int,
    ledger: RoundLedger | None = None,
    attempts: int = 5,
) -> Partition:
    """Randomized baseline: keep each active node with rate 2**(-L/alpha).

    Retries with a derived seed if any node survives all 10*alpha phases
    (vanishingly unlikely); fails after `attempts` tries.
    """
    if g.n == 0:
        return _empty_partition(alpha)
    log_n_cap = capacity_exponent(g.n, alpha)
    rate = math.ldexp(1.0, -(log_n_cap // alpha))
    for attempt in range(attempts):
        rng = stream(seed, "mpx", attempt)
        # positions follow ids: one draw per active node, in id order
        active = np.arange(g.n)
        last_index = np.zeros(g.n, np.int64)
        for i in range(10 * alpha):
            keep = [rng.random() < rate for _ in range(len(active))]
            active = active[np.array(keep, bool)]
            last_index[active] = i + 1
        if len(active):
            continue
        if ledger is not None:
            ledger.charge("active-subsample", 0, 10 * alpha)
        return _finish(g, alpha, last_index, ledger, {"log2_capacity": log_n_cap})
    raise RetryBudgetExceeded(
        f"active nodes survived all phases in {attempts} seeded attempts"
    )


def _charge_shrink(
    ledger: RoundLedger | None, label: str, rounds_h: int, alpha: int
) -> None:
    """One shrink simulated on the host graph: 100*alpha rounds per step."""
    rounds = rounds_h * 100 * alpha
    if ledger is not None and rounds > 0:
        ledger.charge(label, min(100 * alpha, rounds), rounds)


def cluster_constant(
    g: Graph,
    alpha: int,
    weights: np.ndarray,
    ledger: RoundLedger | None = None,
) -> Partition:
    """Partition with diameter <= 100*alpha where, weighted by `weights`,
    at least a 0.9 fraction of nodes sees few neighboring clusters.

    `weights` are one float per node, by position in `g.nodes` (a caller
    holding a node -> weight dict converts it once), and must lie in
    [1/n, 1]; the first node outside is named.  Their total is added left
    to right in node order.  The shrink for step j keeps active
    nodes so that few weighted nodes drop below the next occupancy
    threshold, at price norm(i, j) per kept node; the price doubles each
    step, which forces the final active set empty.

    A phase whose size bound on every nearby-active set (|active|, or
    1 + maxdeg**2 while all of V is active) is below thresholds[steps-1],
    the smallest threshold any step tests, has an empty u_side at every
    step: it builds no nearby-active sets and scans no node, but
    evaluates every claim.
    """
    if g.n == 0:
        return _empty_partition(alpha)
    n = g.n
    weights = np.asarray(weights, float)
    if weights.shape != (n,):
        raise PreconditionError(f"weights of shape {weights.shape} for {n} nodes")
    # written so that NaN fails it too
    outside = ~((1.0 / n - 1e-12 <= weights) & (weights <= 1.0 + 1e-12))
    if outside.any():
        i = int(outside.argmax())
        w, u = float(weights[i]), g.nodes[i]
        raise PreconditionError(f"weight {w} at node {u} outside [1/n, 1]")
    log_n_cap = capacity_exponent(n, alpha)
    steps = log_n_cap // alpha
    occupancy_factor = math.ceil(1000 * math.log2(log_n_cap))
    group_size = math.ceil(100 * math.log2(log_n_cap))
    rate = 1.0 / 16.0
    thresholds = [occupancy_factor ** (steps - j) for j in range(steps + 1)]
    total_w = plain_sum(weights)
    checks = ClaimChecker()
    checks.ok(
        "shrink-decay",
        math.exp(-rate * group_size) <= 1.0 / (800 * log_n_cap),
        "capacity exponent too small for the shrink analysis",
    )

    def claim_mass(i: int, j: int, size: int) -> None:
        checks.ok(
            "active-mass",
            leq(size * 50 * log_n_cap * float(2 ** (i * steps + j)),
                total_w * math.ldexp(1.0, 2 * log_n_cap)),
            f"active set too large at phase {i} step {j}: {size}",
        )

    ids = _ids(g)
    active = set(g.nodes)
    last_index = np.zeros(n, np.int64)
    actives = [frozenset(active)]
    for i in range(10 * alpha):
        s_map, scan_r = _all_nearby_active(g, active, alpha, thresholds[steps - 1])
        if ledger is not None and scan_r > 0:
            ledger.charge("active-scan", scan_r, scan_r)
        current = set(active)
        for j in range(steps):
            claim_mass(i, j, len(current))
            # positions of the left side, in node order
            side = [] if s_map is None else [
                k for k, u in enumerate(g.nodes) if len(s_map[u] & current) >= thresholds[j]
            ]
            u_side = [g.nodes[k] for k in side]
            if u_side:
                norm = math.ldexp(1.0, i * steps + j - 2 * log_n_cap)
                adj = {
                    u: tuple(sorted(s_map[u] & current))[: thresholds[j]]
                    for u in u_side
                }
                inst = BipartiteInstance(
                    tuple(u_side),
                    tuple(sorted(current)),
                    adj,
                    dict(zip(u_side, weights[side].tolist())),
                    thresholds[j],
                    rate,
                    norm,
                    group_size,
                )
                res = grouped_hitting_set(inst)
                checks.merge(res.checks)
                _charge_shrink(ledger, "active-shrink", res.rounds_h, alpha)
                nxt = set(res.selected)
            else:
                nxt = set()
            dropped = [k for k, u in zip(side, u_side) if len(s_map[u] & nxt) < thresholds[j + 1]]
            dropped_mass = plain_sum(weights[dropped])
            checks.ok(
                "shrink-bad-mass",
                leq(dropped_mass, total_w / (100 * log_n_cap), total_w + 1.0),
                f"phase {i} step {j}: dropped weight {dropped_mass}",
            )
            current = nxt
        claim_mass(i, steps, len(current))
        active = current
        last_index[lookup(ids, np.fromiter(active, np.int64, len(active)))[0]] = i + 1
        actives.append(frozenset(active))
    checks.ok("no-active-at-end", not active, f"{len(active)} nodes still active")

    meta = {
        "log2_capacity": log_n_cap,
        "actives": actives,
        "claims": checks.counts,
        "degree_bound": cluster_degree_bound_fraction(log_n_cap, alpha),
    }
    return _finish(g, alpha, last_index, ledger, meta)


def cluster_all(
    g: Graph, alpha: int, ledger: RoundLedger | None = None
) -> Partition:
    """Partition with diameter <= 100*alpha where every node sees few
    neighboring clusters.

    Phase i shrinks the active set through `steps` occupancy levels, but
    level j starts before level j-1 stabilizes: cell (j, l) combines the
    previous cell at the same level with one hitting-set call targeting
    nodes that were fine at level j-1 but still lag at level j.  Cell
    counts provably decay geometrically in l, so 4*log2(N) sweeps finish
    every level.

    A phase whose size bound on every nearby-active set (|active|, or
    1 + maxdeg**2 while all of V is active) is below thresholds[0] has no
    important node, so no cell ever lags: it builds no nearby-active sets
    and no cells and scans no node, but evaluates every claim.
    """
    if g.n == 0:
        return _empty_partition(alpha)
    n = g.n
    log_n_cap = capacity_exponent(n, alpha)
    steps = log_n_cap // alpha
    sweeps = 4 * log_n_cap
    occupancy_factor = 2000 * log_n_cap
    thresholds = [occupancy_factor ** (steps - j) for j in range(steps + 1)]
    group_size = 500 * log_n_cap
    rate = 1.0 / (64 * log_n_cap)
    checks = ClaimChecker()
    checks.ok(
        "pipeline-decay",
        math.exp(-rate * group_size) <= 1.0 / 32.0,
        "pipeline shrink decay too weak",
    )

    ids = _ids(g)
    active = set(g.nodes)
    last_index = np.zeros(n, np.int64)
    actives = [frozenset(active)]
    for i in range(10 * alpha):
        s_map, scan_r = _all_nearby_active(g, active, alpha, thresholds[0])
        if ledger is not None and scan_r > 0:
            ledger.charge("active-scan", scan_r, scan_r)
        important = [] if s_map is None else [
            u for u in g.nodes if len(s_map[u]) >= thresholds[0]
        ]
        checks.ok(
            "pipeline-active-mass",
            len(active) * 2 ** (i * steps) <= 2 * log_n_cap * n,
            f"phase {i}: level-0 active set too large",
        )
        if not important:
            # no cell can gain or lag a node: every level's claims hold on
            # known zeros, and no cell is built
            for j in range(1, steps + 1):
                detail = f"phase {i} level {j}: no important node"
                # 0 * 2**ell is 0 at every sweep ell: one outcome per level
                checks.ok_each(
                    "pipeline-bad-count", np.full(sweeps + 1, 0 <= n * 2**j), lambda _: detail
                )
                checks.ok(
                    "pipeline-active-mass",
                    0 * 2 ** (i * steps + j) <= 2 * log_n_cap * n,
                    detail,
                )
            active = set()
            actives.append(frozenset(active))
            continue
        wave_rounds: dict[int, int] = {}
        # rows are only read, so one frozen copy can fill every cell
        prev_row: list[AbstractSet[int]] = [frozenset(active)] * (sweeps + 1)
        for j in range(1, steps + 1):
            row: list[AbstractSet[int]] = [set()]
            checks.ok(
                "pipeline-bad-count",
                len(important) * 2**0 <= n * 2**j,
                f"phase {i} level {j} sweep 0",
            )
            for ell in range(1, sweeps + 1):
                lagging = [
                    u
                    for u in important
                    if len(s_map[u] & prev_row[ell]) >= thresholds[j - 1]
                    and len(s_map[u] & row[ell - 1]) < thresholds[j]
                ]
                if lagging:
                    norm = math.ldexp(1.0, i * steps + j + (j - ell))
                    adj = {
                        u: tuple(sorted(s_map[u] & prev_row[ell]))[: thresholds[j - 1]]
                        for u in lagging
                    }
                    inst = BipartiteInstance(
                        tuple(lagging),
                        tuple(sorted(prev_row[ell])),
                        adj,
                        {u: 1.0 for u in lagging},
                        thresholds[j - 1],
                        rate,
                        norm,
                        group_size,
                    )
                    res = grouped_hitting_set(inst)
                    checks.merge(res.checks)
                    cell_rounds = res.rounds_h * 100 * alpha
                    wave = j + ell
                    wave_rounds[wave] = max(wave_rounds.get(wave, 0), cell_rounds)
                    selected = set(res.selected)
                else:
                    selected = set()
                cell = row[ell - 1] | selected
                row.append(cell)
                still_lagging = len(
                    [u for u in important if len(s_map[u] & cell) < thresholds[j]]
                )
                checks.ok(
                    "pipeline-bad-count",
                    still_lagging * 2**ell <= n * 2**j,
                    f"phase {i} level {j} sweep {ell}: {still_lagging} lagging",
                )
            checks.ok(
                "pipeline-active-mass",
                len(row[sweeps]) * 2 ** (i * steps + j) <= 2 * log_n_cap * n,
                f"phase {i} level {j}: active set too large",
            )
            prev_row = row
        for rounds in (wave_rounds[t] for t in sorted(wave_rounds)):
            if ledger is not None and rounds > 0:
                ledger.charge("pipeline-shrink", min(100 * alpha, rounds), rounds)
        active = set(prev_row[sweeps]) if steps >= 1 else set()
        last_index[lookup(ids, np.fromiter(active, np.int64, len(active)))[0]] = i + 1
        actives.append(frozenset(active))
    checks.ok("no-active-at-end", not active, f"{len(active)} nodes still active")

    meta = {
        "log2_capacity": log_n_cap,
        "actives": actives,
        "claims": checks.counts,
        "degree_bound": cluster_degree_bound_all(log_n_cap, alpha),
    }
    return _finish(g, alpha, last_index, ledger, meta)


def cluster_ranks(g: Graph, partition: Partition) -> tuple[list[int], np.ndarray]:
    """The labels of the clusters holding g's nodes, increasing, and the
    index among them of each node's cluster, by position in `g.nodes`.
    A node the partition does not assign is a `PreconditionError`.  The
    arrays for the last graph asked about are kept with the partition,
    so the stages of one run that ask about one graph share them; the
    rank array is read-only."""
    kept = partition._ranks
    if kept is None or kept[0] is not g:
        at, covered = lookup(partition.ids, _ids(g))
        if not covered.all():
            raise PreconditionError(f"partition does not cover node {g.nodes[covered.argmin()]}")
        labels, rank = distinct_inverse(partition.label[at])
        rank.flags.writeable = False
        kept = partition._ranks = g, labels, rank
    return kept[1].tolist(), kept[2]


def cluster_degrees(g: Graph, partition: Partition) -> np.ndarray:
    """The cluster degree of every node, by position in `g.nodes`: the
    number of clusters at hop distance <= 1 from it, counted as the
    distinct codes node * k + cluster over each node and its neighbours."""
    labels, rank = cluster_ranks(g, partition)
    k = max(1, len(labels))
    indptr, nbr = g.csr()
    node = np.arange(g.n, dtype=np.int64)
    codes = np.concatenate((node, np.repeat(node, np.diff(indptr)))) * k
    codes += np.concatenate((rank, rank[nbr]))
    return np.bincount(distinct(codes) // k, minlength=g.n)


class ClusterGroups:
    """Sums over groups of entries, for the windows of a per-cluster
    floor: entry k adds the value of item items[k] to the group of
    codes[k], and that group belongs to cluster codes[k] // stride, one
    of `clusters`.  Groups are numbered by increasing code (`keys`), and
    one `distinct_inverse` finds each entry's group."""

    def __init__(self, codes: np.ndarray, items: np.ndarray, stride: int, clusters: int):
        self.keys, self.groups = distinct_inverse(codes)
        self.owners = self.keys // stride
        self.items = items
        self.clusters = clusters

    def sums(self, values: np.ndarray) -> np.ndarray:
        """Every group's sum of its entries' values, added in entry order:
        `np.bincount` adds in input order, so each sum is the one a loop
        over the entries makes, bit for bit."""
        return np.bincount(self.groups, values[self.items], minlength=len(self.keys))

    def failing(self, values: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
        """Whether each cluster has a group whose sum lies outside
        [lo, hi] of that group, under `geq` and `leq`."""
        got = self.sums(values)
        bad = ~(geq(got, lo) & leq(got, hi))
        return np.bincount(self.owners[bad], minlength=self.clusters) > 0


def check_retries(retries: int) -> None:
    """A retry budget below 1 leaves no attempt to decide a cluster by,
    so it is a `PreconditionError`."""
    if retries < 1:
        raise PreconditionError(f"retry budget {retries} is below 1")


def resample_clusters(
    labels: Sequence[int],
    values: np.ndarray,
    draws: Mapping[int, Sequence[tuple[int, float]]],
    floor_value: float,
    failing: Callable[[np.ndarray], np.ndarray],
    rng_for: Callable[[int, int], Stream],
    retries: int,
    checks: ClaimChecker,
    claim: str,
    failure: str,
) -> None:
    """Verified per-cluster resampling, one attempt at a time over every
    cluster still failing.

    Cluster c (index into the increasing `labels`) redraws the items
    listed in draws[c], in that order, from `rng_for(labels[c], attempt)`:
    item i becomes `floor_value` with probability p, else 0.  The other
    items keep their entries in `values`, so a cluster without draws is
    decided by attempt 0.  Every attempt of every cluster calls `rng_for`,
    drawn from or not; a `stream` derives its seed only at its first
    draw, so an attempt without draws costs no generator.  A cluster is
    accepted, with one
    `claim` check, once `failing(values)` (a flag per cluster) clears it;
    the first cluster (by label) still failing after `retries` attempts
    raises `RetryBudgetExceeded`, after the checks of the clusters before
    it.  So values, counts and the cluster named are those of a loop that
    retries each cluster in turn, since no cluster's attempts depend on
    anything outside it.  A `retries` below 1 is refused (`check_retries`).
    """
    check_retries(retries)
    k = len(labels)
    pending = np.arange(k)
    for attempt in range(retries):
        for c in pending.tolist():
            rng = rng_for(labels[c], attempt)
            for i, p in draws.get(c, ()):
                values[i] = floor_value if rng.random() < p else 0.0
        pending = pending[failing(values)[pending]]
        if not len(pending):
            break
    stop = int(pending[0]) if len(pending) else k
    checks.ok_each(claim, np.ones(stop, bool), str)
    if len(pending):
        raise RetryBudgetExceeded(f"cluster {labels[stop]} {failure} {retries} times")


def verify_partition(
    g: Graph,
    partition: Partition,
    alpha: int,
    degree_bound: float | None = None,
) -> dict:
    """Measure strong diameters and cluster degrees; flag violations.

    Raises if `partition` does not cover exactly V(g); its label array
    gives every node exactly one cluster.  Strong diameter is
    measured inside each cluster's induced subgraph, so a disconnected
    cluster reports an infinite diameter and fails the check.  The
    subgraphs are read as one graph, g's edges with both ends in one
    cluster, in which the nodes a search from u reaches are those of
    u's cluster it reaches in that cluster's induced subgraph.
    """
    if not np.array_equal(partition.ids, _ids(g)):
        raise PreconditionError("clusters do not cover V")

    cluster = distinct_inverse(partition.label)[1]
    size = np.bincount(cluster)
    indptr, nbr = g.csr()
    rows = csr_rows(indptr)
    same = cluster[rows] == cluster[nbr]
    inside = Graph._from_csr(g.nodes, *_select(indptr, nbr, rows, same))
    max_diameter = 0.0
    for u, members in zip(g.nodes, size[cluster].tolist()):
        dist = bfs_distances(inside, u)
        if len(dist) < members:
            max_diameter = math.inf
            break
        max_diameter = max(max_diameter, max(dist.values()))

    histogram = dict(Counter(cluster_degrees(g, partition).tolist()))
    max_degree = max(histogram, default=0)

    ok = max_diameter <= 100 * alpha and (
        degree_bound is None or max_degree <= degree_bound
    )
    return {
        "ok": bool(ok),
        "max_diameter": max_diameter,
        "max_cluster_degree": max_degree,
        "degree_histogram": histogram,
        "num_clusters": len(size),
    }
