import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localround.clustering as clustering_module
from localround.clustering import (
    Partition,
    base_capacity_exponent,
    capacity_exponent,
    cluster_all,
    cluster_constant,
    cluster_degrees,
    cluster_degree_bound_all,
    cluster_degree_bound_fraction,
    delays_to_partition,
    mpx_randomized,
    verify_partition,
)
from localround.errors import ClaimChecker, PreconditionError
from localround.generators import complete, gnp, path
from localround.graphs import Graph, bfs_distances, induced_subgraph
from localround.ledger import RoundLedger

from clustering_reference import (
    cluster_degree,
    grow,
    nearby_active,
    reference_hitting_step,
    reference_partition,
)
from conftest import by_position, random_graph
from graphs_reference import node_mask


def test_capacity_exponent_basics():
    for n in (1, 2, 5, 17, 100, 5000):
        for alpha in (1, 2, 3, 5):
            log_cap = capacity_exponent(n, alpha)
            assert log_cap % alpha == 0
            assert 2**log_cap >= n * n
            assert 4**log_cap >= 50 * log_cap * n
    assert base_capacity_exponent(10) == 7  # 2^7 = 128 >= 100


def test_degree_bounds_grow_with_capacity():
    assert cluster_degree_bound_all(8, 2) == 10 * 2 * (2000 * 8) ** 4
    f = cluster_degree_bound_fraction(8, 2)
    assert f == 10 * 2 * math.ceil(1000 * math.log2(8)) ** 4


def test_zero_delays_give_singletons():
    g = random_graph(random.Random(1), 12, 0.3)
    part = delays_to_partition(g, np.zeros(g.n, np.int64), alpha=1)
    assert part.clusters.tolist() == list(g.nodes)
    assert part.label.tolist() == list(g.nodes)


def test_single_early_broadcaster_takes_path():
    g = path(3)
    alpha = 1
    delays = {0: 0, 1: 50 * alpha, 2: 50 * alpha}
    part = grow(g, delays, alpha)
    assert reference_partition(part).clusters == {0: frozenset({0, 1, 2})}


def test_delays_match_bruteforce_argmin():
    rng = random.Random(6)
    g = random_graph(rng, 40, 0.1)
    alpha = 2
    delays = {u: rng.randrange(0, 50 * alpha + 1) for u in g.nodes}
    part = grow(g, delays, alpha)
    assignment = reference_partition(part).assignment
    # O(n^2) oracle: all-pairs BFS then lexicographic argmin per node
    for u in g.nodes:
        best = None
        for v in g.nodes:
            dist = bfs_distances(g, v)
            if u not in dist:
                continue
            key = (delays[v] + dist[u], v)
            if best is None or key < best:
                best = key
        assert assignment[u] == best[1]


def test_delays_missing_node_rejected():
    g = path(3)
    with pytest.raises(PreconditionError, match=r"delays of shape \(2,\) for 3 nodes"):
        delays_to_partition(g, np.zeros(2, np.int64), alpha=1)


def _nearby(g, active, alpha):
    """Every node's nearby-active set; threshold 1 builds them all."""
    return clustering_module._all_nearby_active(g, active, alpha, 1)[0]


def test_nearby_active_examples():
    g = path(6)
    assert _nearby(g, set(), alpha=1) is None  # no active node: no sets
    # only u active: everything within distance 2 that is active
    assert _nearby(g, {2}, alpha=1)[2] == frozenset({2})
    assert _nearby(g, {2, 3, 5}, alpha=1)[2] == frozenset({2, 3})
    # endpoints active: d(3, {0,5}) = 2, so the radius-4 ball catches both
    got = _nearby(g, {0, 5}, alpha=1)
    assert got[3] == frozenset({0, 5})
    # node 1 sits at distance 1 from 0; radius 3 misses the far endpoint
    assert got[1] == frozenset({0})


def test_nearby_active_radius_cap():
    g = path(300)
    # nearest active node is 250 hops away; the ball caps at 100*alpha
    assert _nearby(g, {250}, alpha=1)[0] == frozenset()
    assert _nearby(g, {99}, alpha=1)[0] == frozenset({99})


@settings(max_examples=80, deadline=None)
@given(
    st.integers(0, 10_000),
    st.integers(1, 14),
    st.sampled_from(["none", "all", "some"]),
    st.integers(1, 2),
    st.integers(1, 16),
)
def test_all_nearby_active_skips_only_unreachable_thresholds(
    seed, n, which, alpha, threshold
):
    # the skip in cluster_all / cluster_constant rests on the size bound;
    # at reachable sizes nothing else runs the general scan
    rng = random.Random(seed)
    g = random_graph(rng, n, rng.choice([0.1, 0.3, 0.7]))
    active = {
        "none": set(),
        "all": set(g.nodes),
        "some": {u for u in g.nodes if rng.random() < 0.4},
    }[which]
    want = {u: nearby_active(g, u, active, alpha) for u in g.nodes}
    s_map, radius = clustering_module._all_nearby_active(g, active, alpha, threshold)
    if s_map is None:
        assert all(len(s) < threshold for s in want.values())
    else:
        assert s_map == want
    # the radius is charged whether or not the map is built
    reach = bfs_distances(g, sorted(active)) if active else {}
    assert radius == max((min(d + 2, 100 * alpha) for d in reach.values()), default=0)


def test_size_bound_skips_the_nearby_sets(monkeypatch):
    def refuse(g):
        raise AssertionError("two_hop_sets built although no node can use it")

    monkeypatch.setattr(clustering_module, "two_hop_sets", refuse)
    g = gnp(300, 0.02, seed=40)
    # claim counts recorded before the skip existed
    assert cluster_all(g, 2).meta["claims"] == {
        "pipeline-decay": 1,
        "pipeline-active-mass": 200,
        "pipeline-bad-count": 13140,
        "no-active-at-end": 1,
    }
    part = cluster_constant(g, 2, np.full(g.n, 1.0 / g.n))
    assert part.meta["claims"] == {
        "shrink-decay": 1,
        "active-mass": 200,
        "shrink-bad-mass": 180,
        "no-active-at-end": 1,
    }


def _shrink_inputs(seed, threshold):
    """A random 60-node graph's nearby-active sets, an active pool inside
    the active set, and the nodes that see at least `threshold` of it."""
    rng = random.Random(seed)
    g = random_graph(rng, 60, rng.choice([0.06, 0.1, 0.15]))
    active = {u for u in g.nodes if rng.random() < 0.7}
    pool = {u for u in active if rng.random() < 0.8}
    s_map = _nearby(g, active, alpha=1)
    side = [u for u in g.nodes if len(s_map[u] & pool) >= threshold]
    return g, s_map, pool, side, rng


@pytest.mark.parametrize("seed", range(20))
def test_hitting_step_matches_the_dict_build(seed):
    # threshold 4, group size 2 and rate 1/4 make both shrinks' solves
    # small enough for tier-1; at the paper's constants none is ever built
    g, s_map, pool, side, rng = _shrink_inputs(seed, 4)
    assert side
    unit = np.ones(len(side))
    spread = np.array([rng.uniform(1.0 / g.n, 1.0) for _ in side])
    for weight, norm in ((unit, 2.0**-3), (spread, 2.0**-9)):
        want, want_rounds, want_counts = reference_hitting_step(
            s_map, side, pool, weight, 4, 0.25, norm, 2
        )
        checks = ClaimChecker()
        checks.ok("before", True)
        kept, rounds_h = clustering_module._hitting_step(
            s_map, side, pool, weight, 4, 0.25, norm, 2, checks
        )
        assert (kept, rounds_h) == (want, want_rounds)
        assert kept <= pool and rounds_h > 0
        assert checks.counts == {"before": 1, **want_counts}
        assert want_counts["grouped-guarantee"] == 1


def test_hitting_step_refuses_a_short_row():
    # left node 2 sees only 2 of the 4 pool nodes: refused whether its row
    # is the only short one or every row is short, never reshaped
    pool = {10, 11, 12, 13}
    s_map = {0: frozenset(pool), 1: frozenset(pool), 2: frozenset({10, 11})}
    with pytest.raises(ValueError):
        clustering_module._hitting_step(
            s_map, [0, 1, 2], pool, np.ones(3), 4, 0.25, 1.0, 2, ClaimChecker()
        )
    with pytest.raises(PreconditionError, match="arrays of shape"):
        clustering_module._hitting_step(
            s_map, [2], pool, np.ones(1), 4, 0.25, 1.0, 2, ClaimChecker()
        )


def test_empty_graph_gives_the_empty_partition():
    g = Graph()
    for part in (
        mpx_randomized(g, 2, seed=0),
        cluster_constant(g, 2, np.zeros(0)),
        cluster_all(g, 2),
    ):
        assert part.alpha == 2 and part.meta == {}
        assert part.ids.tolist() == part.label.tolist() == part.delay.tolist() == []
        assert part.clusters.tolist() == []


@pytest.mark.parametrize("alpha", [0, -5, 1.5, 2.0, True, np.int64(2)], ids=repr)
@pytest.mark.parametrize("g", [Graph(), path(3)], ids=["empty", "path"])
def test_every_construction_refuses_alpha_below_one(g, alpha):
    # the empty graph returned its empty partition before alpha was read;
    # 1.5 and 2.0 raised TypeError from range(10 * alpha) or math.ldexp,
    # and True ran as alpha 1
    want = "alpha must be >= 1"
    if type(alpha) is not int:
        want = f"alpha {re.escape(repr(alpha))} is not an integer"
    for build in (
        lambda: mpx_randomized(g, alpha, seed=0),
        lambda: cluster_constant(g, alpha, np.full(g.n, 1.0 / max(1, g.n))),
        lambda: cluster_all(g, alpha),
    ):
        with pytest.raises(PreconditionError, match=f"^{want}$"):
            build()


def test_mpx_alpha_equals_capacity_is_half_rate():
    g = gnp(30, 0.1, seed=3)
    alpha = capacity_exponent(g.n, 1)
    part = mpx_randomized(g, alpha, seed=5)
    report = verify_partition(g, part, alpha)
    assert report["ok"]


def test_mpx_single_node():
    g = Graph(nodes=[7])
    part = mpx_randomized(g, 2, seed=1)
    assert reference_partition(part).clusters == {7: frozenset({7})}


def test_mpx_partition_and_determinism():
    g = gnp(120, 0.05, seed=9)
    a = mpx_randomized(g, 3, seed=4)
    b = mpx_randomized(g, 3, seed=4)
    assert reference_partition(a) == reference_partition(b)
    report = verify_partition(g, a, 3)
    assert report["ok"]
    assert report["max_diameter"] <= 100 * 3


def test_cluster_constant_edgeless_all_good():
    g = Graph(nodes=range(10))
    weights = {u: 0.5 for u in g.nodes}
    part = cluster_constant(g, 2, by_position(g, weights))
    assert part.clusters.tolist() == list(g.nodes)
    bound, ref = part.meta["degree_bound"], reference_partition(part)
    good = [u for u in g.nodes if cluster_degree(g, ref, u) <= bound]
    assert sum(weights[u] for u in good) >= 0.9 * sum(weights.values())


def test_cluster_constant_clique():
    g = complete(12)
    weights = {u: 1.0 / 12 for u in g.nodes}
    part = cluster_constant(g, 2, by_position(g, weights))
    report = verify_partition(g, part, 2, part.meta["degree_bound"])
    assert report["ok"]


def test_cluster_constant_weight_window_enforced():
    g = path(4)
    with pytest.raises(PreconditionError):
        cluster_constant(g, 1, np.full(g.n, 2.0))


def test_cluster_constant_weighted_good_fraction():
    g = gnp(150, 0.04, seed=12)
    rng = random.Random(3)
    weights = {u: min(1.0, 1.0 / g.n + rng.random() * 0.5) for u in g.nodes}
    led = RoundLedger()
    part = cluster_constant(g, 3, by_position(g, weights), led)
    bound, ref = part.meta["degree_bound"], reference_partition(part)
    good = [u for u in g.nodes if cluster_degree(g, ref, u) <= bound]
    assert sum(weights[u] for u in good) >= 0.9 * sum(weights.values())
    assert part.meta["actives"][-1].tolist() == []
    assert led.total > 0


def test_cluster_all_edgeless():
    g = Graph(nodes=range(9))
    part = cluster_all(g, 2)
    report = verify_partition(g, part, 2, part.meta["degree_bound"])
    assert report["ok"]
    assert report["max_cluster_degree"] == 1
    assert report["max_diameter"] == 0


def test_cluster_all_path_bounds():
    g = path(100)
    alpha = 4
    part = cluster_all(g, alpha)
    log_cap = part.meta["log2_capacity"]
    bound = cluster_degree_bound_all(log_cap, alpha)
    report = verify_partition(g, part, alpha, bound)
    assert report["ok"]
    assert report["max_diameter"] <= 100 * alpha
    assert report["max_cluster_degree"] <= bound
    assert part.meta["actives"][-1].tolist() == []


def test_cluster_all_active_sets_vanish_and_claims_recorded():
    g = gnp(80, 0.08, seed=5)
    part = cluster_all(g, 2)
    claims = part.meta["claims"]
    assert claims["no-active-at-end"] == 1
    assert claims["pipeline-bad-count"] > 0
    assert part.meta["actives"][0].tolist() == list(g.nodes)
    assert part.meta["actives"][1].tolist() == []  # nothing survives phase 0


def test_cluster_degree_bound_via_surviving_radius():
    # measured cluster degree never exceeds 10*alpha*R for the largest
    # nearby-active set whose successor misses it entirely
    g = gnp(60, 0.08, seed=21)
    alpha = 2
    part = cluster_all(g, alpha)
    actives = [frozenset(a.tolist()) for a in part.meta["actives"]]
    ref = reference_partition(part)
    rng = random.Random(2)
    for u in rng.sample(g.nodes, 10):
        r_u = 0
        for i in range(10 * alpha):
            s_i = nearby_active(g, u, actives[i], alpha)
            if s_i and not (s_i & actives[i + 1]):
                r_u = max(r_u, len(s_i))
        if r_u:
            assert cluster_degree(g, ref, u) <= 10 * alpha * r_u


def test_cluster_connectivity_and_center_radius():
    g = gnp(70, 0.07, seed=8)
    alpha = 2
    part = cluster_all(g, alpha)
    for c, members in reference_partition(part).clusters.items():
        sub = induced_subgraph(g, node_mask(g, members))
        dist = bfs_distances(sub, c)
        assert set(dist) == set(members)  # connected through the cluster
        assert max(dist.values()) <= 50 * alpha


def test_verify_partition_examples():
    g = Graph(nodes=range(5))
    part = delays_to_partition(g, np.zeros(5, np.int64), 1)
    report = verify_partition(g, part, 1)
    assert report["max_diameter"] == 0
    assert report["degree_histogram"] == {1: 5}

    g2 = path(10)
    zeros = np.zeros(10, np.int64)
    whole = Partition(1, np.arange(10, dtype=np.int64), zeros, zeros)
    report2 = verify_partition(g2, whole, 1)
    assert report2["max_diameter"] == 9


def test_verify_partition_rejects_non_partition():
    g = path(4)
    zeros = np.zeros(2, np.int64)
    bad = Partition(1, np.array([0, 1], np.int64), zeros, zeros)
    with pytest.raises(PreconditionError):
        verify_partition(g, bad, 1)


@settings(max_examples=100, deadline=None)
@given(st.integers(0, 2**32), st.integers(1, 40), st.sampled_from([0.05, 0.2, 0.6]))
def test_cluster_degrees_match_the_per_node_count(seed, n, p):
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    part = grow(g, {u: rng.randint(0, 4) for u in g.nodes}, 1)
    ref = reference_partition(part)
    assert cluster_degrees(g, part).tolist() == [cluster_degree(g, ref, u) for u in g.nodes]


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(0, 40),
    st.sampled_from([0.05, 0.2, 0.6]),
    st.sampled_from([0.3, 0.7, 1.0]),
)
def test_cluster_degrees_of_singletons_match_the_per_node_count(seed, n, p, share):
    # equal delays make every node its own cluster, as at the paper's
    # constants; the partition of g also serves g's induced subgraphs
    rng = random.Random(seed)
    g = random_graph(rng, n, p)
    part = delays_to_partition(g, np.zeros(g.n, np.int64), 1)
    sub = induced_subgraph(g, node_mask(g, [u for u in g.nodes if rng.random() < share]))
    ref = reference_partition(part)
    for h in (g, sub):
        assert cluster_degrees(h, part).tolist() == [cluster_degree(h, ref, u) for u in h.nodes]


def test_cluster_degrees_sort_codes_only_for_a_merged_cluster(monkeypatch):
    sorted_sizes = []
    real = clustering_module.distinct

    def recording(codes):
        sorted_sizes.append(len(codes))
        return real(codes)

    monkeypatch.setattr(clustering_module, "distinct", recording)
    g = path(5)
    singletons = delays_to_partition(g, np.zeros(5, np.int64), 1)
    assert cluster_degrees(g, singletons).tolist() == [2, 3, 3, 3, 2]
    assert sorted_sizes == []
    # node 1 starts late, so node 0's token claims it: clusters {0, 1}, {2}, {3}, {4}
    merged = delays_to_partition(g, np.array([0, 1, 0, 0, 0]), 1)
    ref = reference_partition(merged)
    assert cluster_degrees(g, merged).tolist() == [cluster_degree(g, ref, u) for u in g.nodes]
    assert cluster_degrees(g, merged).tolist() == [1, 2, 3, 3, 2]
    assert sorted_sizes == [5 + 2 * 4] * 2


def test_cluster_degrees_need_every_node_assigned():
    g = path(4)
    part = delays_to_partition(Graph(nodes=[0, 1, 3]), np.zeros(3, np.int64), 1)
    with pytest.raises(PreconditionError, match="does not cover node 2"):
        cluster_degrees(g, part)


def test_mpx_baseline_against_deterministic():
    # empirical cluster degrees over 20 seeds, recorded next to the
    # deterministic construction on the same graph and radius parameter
    g = gnp(300, 0.02, seed=40)
    alpha = max(1, math.ceil(math.sqrt(math.log2(g.n))))
    mpx_degrees = []
    for seed in range(20):
        part = mpx_randomized(g, alpha, seed=seed)
        report = verify_partition(g, part, alpha)
        assert report["ok"]
        mpx_degrees.append(report["max_cluster_degree"])
    det = cluster_all(g, alpha)
    det_report = verify_partition(g, det, alpha, det.meta["degree_bound"])
    assert det_report["ok"]
    # both stay far below the certified bound; the comparison is recorded
    assert max(mpx_degrees) <= det.meta["degree_bound"]
    assert det_report["max_cluster_degree"] <= det.meta["degree_bound"]


class _AlwaysKeep:
    def random(self):
        return 0.0


def test_mpx_retry_budget(monkeypatch):
    # if subsampling never drops anyone, the active set survives every
    # phase and the seeded attempts run out
    import localround.clustering as clustering_module
    from localround.errors import RetryBudgetExceeded

    streams = []

    def always_keep(*labels):
        streams.append(labels)
        return _AlwaysKeep()

    monkeypatch.setattr(clustering_module, "stream", always_keep)
    g = path(6)
    with pytest.raises(RetryBudgetExceeded, match="in 5 seeded attempts"):
        mpx_randomized(g, 2, seed=0)
    assert streams == [(0, "mpx", attempt) for attempt in range(5)]


def test_cluster_constant_uniform_weights_at_scale():
    g = gnp(500, 0.01, seed=61)
    alpha = max(1, math.ceil(base_capacity_exponent(g.n) ** (1.0 / 3.0)))
    weights = {u: 1.0 / g.n for u in g.nodes}
    part = cluster_constant(g, alpha, by_position(g, weights))
    bound, ref = part.meta["degree_bound"], reference_partition(part)
    good = [u for u in g.nodes if cluster_degree(g, ref, u) <= bound]
    assert sum(weights[u] for u in good) >= 0.9 * sum(weights.values())
    report = verify_partition(g, part, alpha)
    assert report["ok"]
    claims = part.meta["claims"]
    assert claims["active-mass"] > 0 and claims["shrink-bad-mass"] > 0


def test_cluster_all_sparse_ids():
    rng = random.Random(31)
    from conftest import relabel

    g = relabel(gnp(50, 0.1, seed=13), rng)
    part = cluster_all(g, 2)
    report = verify_partition(g, part, 2, part.meta["degree_bound"])
    assert report["ok"]
