import math
import random
import re
from unittest.mock import patch

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from localround import clustering, matching, seeds
from localround.clustering import cluster_constant
from localround.errors import ClaimViolation, PreconditionError
from localround.generators import complete, disjoint_edges, gnp, grid, path
from localround.graphs import Graph, strip_isolated
from localround.ledger import RoundLedger
from localround.matching import (
    FractionalMatching,
    approx_matching,
    cluster_edge_order,
    finish_matching,
    fractional_matching,
    good_edges,
    greedy_maximal_matching,
    intra_round_matching,
)
from localround.oracles import exact_max_matching

from clustering_reference import grow, reference_partition
from conftest import count_neighbor_tuple_builds, random_graph, relabel
from matching_reference import (
    from_values,
    is_matching,
    reference_greedy_maximal_matching,
    values,
)


@pytest.mark.parametrize("g", [gnp(300, 0.02, seed=5), path(40)])
def test_a_solve_shares_its_edge_ends_and_cluster_ranks(monkeypatch, g):
    # every stage that asks for one graph's edge ends, or for one graph's
    # cluster ranks under one partition, reads the same arrays
    seen: dict[tuple, list] = {}
    real_ends, real_ranks = matching.edge_ends, clustering.cluster_ranks

    def ends(graph):
        out = real_ends(graph)
        seen.setdefault(("ends", id(graph)), []).append(out[0])
        return out

    def ranks(graph, partition):
        out = real_ranks(graph, partition)
        seen.setdefault(("ranks", id(graph), id(partition)), []).append(out[1])
        return out

    monkeypatch.setattr(matching, "edge_ends", ends)
    monkeypatch.setattr(matching, "cluster_ranks", ranks)
    monkeypatch.setattr(clustering, "cluster_ranks", ranks)
    approx_matching(g)
    calls = {key[0]: 0 for key in seen}
    for key, arrays in seen.items():
        assert all(a is arrays[0] for a in arrays) and not arrays[0].flags.writeable
        calls[key[0]] = max(calls[key[0]], len(arrays))
    # the ranks serve the cluster degrees and the re-rounding; the value
    # floor reads them only for a value below good_value / 10, and here
    # no value falls that low
    assert calls == {"ends": 3, "ranks": 2}


def test_fraction_single_edge():
    frac = fractional_matching(Graph(edges=[(0, 1)]))
    assert values(frac) == {(0, 1): 1.0}
    assert frac.value() == 1.0


def test_fraction_star():
    g = Graph(edges=[(0, leaf) for leaf in range(1, 6)])
    frac = fractional_matching(g)
    # the center saturates immediately: every edge stays at 1/5
    assert all(0.125 <= x <= 0.5 for x in values(frac).values())
    assert frac.position_loads()[0] <= 1.0 + 1e-12
    assert frac.value() >= 1.0 / 5.0  # maximum matching is one edge


def test_fraction_value_against_oracle():
    rng = random.Random(10)
    g = strip_isolated(random_graph(rng, 20, 0.3))
    frac = fractional_matching(g)
    m_star = len(exact_max_matching(g))
    assert frac.value() >= m_star / 5.0 - 1e-12
    assert all(x <= 1.0 + 1e-12 for x in frac.position_loads().tolist())


def test_fraction_rejects_isolated():
    with pytest.raises(PreconditionError):
        fractional_matching(Graph(nodes=[0, 1, 2], edges=[(0, 1)]))


def test_fraction_loads_battery():
    rng = random.Random(77)
    for _ in range(15):
        g = strip_isolated(random_graph(rng, rng.randint(2, 35), rng.random()))
        if g.m == 0:
            continue
        frac = fractional_matching(g)
        delta = g.max_degree()
        for x in values(frac).values():
            assert x >= 1.0 / delta - 1e-12  # never below the start value
        assert all(v <= 1.0 + 1e-12 for v in frac.position_loads().tolist())


def _uniform_partition(g, alpha=1):
    from localround.clustering import delays_to_partition

    return delays_to_partition(g, np.zeros(g.n, np.int64), alpha)


def test_good_edges_all_good_with_big_bound():
    g = gnp(25, 0.2, seed=3)
    part = _uniform_partition(g)
    ge = good_edges(g, part, bound=float(g.n + 1))
    assert ge.mask.all() and len(ge.mask) == g.m


def test_good_edges_zero_bound_empty():
    g = gnp(25, 0.2, seed=3)
    part = _uniform_partition(g)
    ge = good_edges(g, part, bound=0.0)
    assert not ge.mask.any()
    assert not ge.good.any()


def test_intra_deterministic_branch_is_fifth():
    g = path(6)
    part = _uniform_partition(g)
    x = from_values(g, {e: 0.5 for e in g.edges()})
    bound = 1000.0  # huge: every value sits above the keep threshold
    out = intra_round_matching(g, part, x, bound, seed=1)
    assert values(out) == {e: pytest.approx(0.1) for e in g.edges()}


def test_intra_two_outcome_small_edge():
    g = Graph(edges=[(0, 1)])
    part = _uniform_partition(g)
    bound = 4.0
    log_n = math.log2(2)
    x = {(0, 1): 1.0 / (20000.0 * bound * log_n)}
    floor_value = 1.0 / (50000.0 * bound * log_n)
    seen = set()
    for seed in range(30):
        out = intra_round_matching(
            g, part, from_values(g, x), bound, seed=seed, n_total=2
        )
        val = values(out)[(0, 1)]
        assert val in (0.0, pytest.approx(floor_value))
        seen.add(round(val, 12))
        # both outcomes satisfy the per-node window
        for v in (0, 1):
            assert val >= x[(0, 1)] / 10.0 - 1.0 / (1000.0 * bound) - 1e-12
            assert val <= x[(0, 1)] / 2.0 + 1.0 / (1000.0 * bound) + 1e-12
    assert len(seen) == 2  # both branches actually occur


@pytest.mark.parametrize(
    "x_good, message",
    [
        ({(0, 1): math.nan}, "outside"),
        ({(0, 1): -0.5}, "outside"),
        ({(0, 1): 3.0}, "outside"),
        ({(0, 1): math.inf}, "outside"),
    ],
)
def test_intra_rejects_malformed_values(x_good, message):
    g = path(3)
    part = _uniform_partition(g)
    arrays = from_values(g, x_good)  # takes values as given
    with pytest.raises(PreconditionError, match=message):
        intra_round_matching(g, part, arrays, bound=3.0, seed=0)


@pytest.mark.parametrize(
    "x_good, message",
    [
        ({(1, 2): 0.5, (1, 0): 0.5}, "(1, 0) is not an edge"),
        ({(0, 2): 0.5}, "(0, 2) is not an edge"),
        ({(0, 5): 0.5}, "unknown node 5"),
        ({(0, 2**63): 0.5}, "outside"),
        ({(0, 2**64): 0.5}, "outside"),
    ],
)
def test_from_values_rejects_malformed_keys(x_good, message):
    with pytest.raises(PreconditionError, match=re.escape(message)):
        from_values(path(3), x_good)


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 40), st.sampled_from([0.1, 0.3, 0.7]), st.integers(0, 2**32))
def test_from_values_round_trips_the_arrays(n, p, seed):
    # sparse 60-bit ids: the ids' order is not their positions' order
    g = strip_isolated(gnp(n, p, seed=seed))
    g = relabel(g if g.m else Graph(edges=[(0, 1)]), random.Random(seed))
    frac = fractional_matching(g)
    back = from_values(g, values(frac))
    assert back.nodes is g.nodes
    assert back.a.tolist() == frac.a.tolist() and back.b.tolist() == frac.b.tolist()
    assert [x.hex() for x in back.x.tolist()] == [x.hex() for x in frac.x.tolist()]
    assert list(values(back)) == list(values(frac))
    # a subset in a drawn order keeps that order
    keep = list(values(frac))
    random.Random(seed).shuffle(keep)
    keep = keep[: g.m // 2 + 1]
    part = from_values(g, {e: values(frac)[e] for e in keep})
    assert list(values(part)) == keep


def test_intra_rejects_malformed_arrays():
    g = path(3)
    part = _uniform_partition(g)
    frac = fractional_matching(g)
    other = FractionalMatching((0, 1, 5), frac.a, frac.b, frac.x)
    with pytest.raises(PreconditionError, match="another graph"):
        intra_round_matching(g, part, other, bound=3.0, seed=0)
    high = FractionalMatching(g.nodes, frac.a, frac.b, frac.x * 3.0)
    with pytest.raises(PreconditionError, match=r"of edge \(0, 1\) outside"):
        intra_round_matching(g, part, high, bound=3.0, seed=0)


@pytest.mark.parametrize("bound", [0.0, -3.0, math.nan, math.inf])
def test_intra_refuses_a_bound_that_is_not_finite_and_positive(bound):
    # 0 divided by zero, and NaN ran into the retry budget
    g = path(3)
    want = "not finite" if bound == math.inf else "not a positive number"
    with pytest.raises(PreconditionError, match=rf"^bound {bound} is {want}$"):
        intra_round_matching(g, _uniform_partition(g), fractional_matching(g), bound, seed=0)


def test_intra_window_scan_on_pipeline_values():
    g = strip_isolated(gnp(60, 0.08, seed=4))
    frac = fractional_matching(g)
    part = cluster_constant(g, 2, frac.position_loads())
    bound = float(part.meta["degree_bound"])
    ge = good_edges(g, part, bound)
    arrays = frac.restrict(ge.mask)
    x_good = values(arrays)
    out = values(intra_round_matching(g, part, arrays, bound, seed=9, n_total=g.n))
    # exhaustive (node, cluster) window scan
    slack = 1.0 / (1000.0 * bound)
    assignment = reference_partition(part).assignment
    per = {}
    for e, x in x_good.items():
        c = assignment[max(e)]
        for v in e:
            base, new = per.setdefault((v, c), [0.0, 0.0])
            per[(v, c)] = [base + x, new + out[e]]
    for (v, c), (base, new) in per.items():
        assert new >= base / 10.0 - slack - 1e-12
        assert new <= base / 2.0 + slack + 1e-12


def test_intra_cluster_locality():
    # the values inside one cluster depend only on that cluster's edges
    g = strip_isolated(gnp(50, 0.1, seed=6))
    frac = fractional_matching(g)
    part = cluster_constant(g, 2, frac.position_loads())
    bound = float(part.meta["degree_bound"])
    ge = good_edges(g, part, bound)
    arrays = frac.restrict(ge.mask)
    x_good = values(arrays)
    full = values(intra_round_matching(g, part, arrays, bound, seed=3, n_total=g.n))
    # an edge belongs to the cluster of its larger endpoint
    by_cluster: dict[int, list] = {}
    assignment = reference_partition(part).assignment
    for e in x_good:
        by_cluster.setdefault(assignment[max(e)], []).append(e)
    for c, edges in by_cluster.items():
        only = from_values(g, {e: x_good[e] for e in edges})
        alone = values(intra_round_matching(g, part, only, bound, seed=3, n_total=g.n))
        for e in edges:
            assert alone[e] == full[e]


def test_finish_single_edge():
    g = Graph(edges=[(0, 1)])
    m = finish_matching(g, from_values(g, {(0, 1): 0.5}))
    assert m == frozenset({(0, 1)})


def test_finish_even_path():
    g = path(6)
    x = from_values(g, {e: 0.5 for e in g.edges()})
    m = finish_matching(g, x)
    assert is_matching(m)
    assert len(m) >= (2.0 / 9.0) * 2.5
    assert len(m) >= 2


def test_greedy_maximal_is_maximal():
    rng = random.Random(8)
    for _ in range(10):
        g = random_graph(rng, 20, 0.2)
        m = greedy_maximal_matching(g)
        assert is_matching(m)
        used = {v for e in m for v in e}
        for e in g.edges():
            assert e[0] in used or e[1] in used


@settings(max_examples=100, deadline=None)
@given(
    st.sampled_from([(4, 9), (2**21, 2**21), (2**22, 2**21), (3, 2**31)]),
    st.integers(0, 2**32),
)
def test_cluster_edge_order_is_a_lexsort(bounds, seed):
    # k * n^2 is at most 2^63 for the first two bounds (the second at
    # equality, so the largest code is 2^63 - 1) and beyond it for the rest
    k, n = bounds
    rng = random.Random(seed)
    near = lambda top: rng.choice([rng.randrange(top), top - 1 - rng.randrange(min(top, 3))])
    pairs = {tuple(sorted((near(n), near(n)))) for _ in range(rng.randrange(40))}
    pairs = [(u, v) for u, v in pairs if u != v]
    rng.shuffle(pairs)
    a = np.array([u for u, _ in pairs], np.intp)
    b = np.array([v for _, v in pairs], np.intp)
    major = np.array([near(k) for _ in pairs], np.intp)
    assert cluster_edge_order(major, a, b, k, n).tolist() == np.lexsort((b, a, major)).tolist()


def greedy_input(kind: str, n: int, seed: int) -> Graph:
    """One graph of a family on about n nodes: gnp of average degree 1,
    4 or 16, a path by increasing or shuffled ids, a star around any of
    its ids, a grid, such a gnp graph with sparse 60-bit ids, or n nodes
    without edges."""
    rng = random.Random(seed)
    p = min(1.0, rng.choice([1, 4, 16]) / max(1, n - 1))
    if kind == "gnp":
        return gnp(n, p, seed)
    if kind == "path":
        return path(n)
    if kind == "shuffled-path":
        ids = list(range(n))
        rng.shuffle(ids)
        return Graph(nodes=ids, edges=zip(ids, ids[1:]))
    if kind == "star":
        hub = rng.randrange(n + 1)
        return Graph(edges=[(hub, u) for u in range(n + 1) if u != hub])
    if kind == "grid":
        return grid(1 + n // 10, 1 + n % 10)
    if kind == "sparse":
        return relabel(gnp(n, p, seed), rng)
    return Graph(nodes=range(n))


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(["gnp", "path", "shuffled-path", "star", "grid", "sparse", "empty"]),
    st.integers(0, 160),
    st.integers(0, 2**32),
    st.sampled_from([1, 4, 32, None]),
)
@example("path", 20001, 0, None)
@example("gnp", 3000, 7, None)
def test_greedy_rounds_match_the_scan(kind, n, seed, hand_off):
    # the rounds must pick what the one-edge-at-a-time scan picks, also
    # on inputs that hand off to the scan early (paths) or late (gnp);
    # a lower hand-off runs rounds on these small graphs, and 1 runs
    # rounds until no edge is live
    g = greedy_input(kind, n, seed)
    limit = matching._ROUND_EDGES if hand_off is None else hand_off
    with patch.object(matching, "_ROUND_EDGES", limit):
        assert greedy_maximal_matching(g) == reference_greedy_maximal_matching(g)


def test_pipeline_empty_graph():
    res = approx_matching(Graph(nodes=range(4)))
    assert res.matching == frozenset()


def test_pipeline_disjoint_edges():
    res = approx_matching(disjoint_edges(50))
    assert len(res.matching) == 50


def test_pipeline_small_graphs_against_oracle():
    rng = random.Random(15)
    for i in range(12):
        g = strip_isolated(random_graph(rng, rng.randint(4, 24), 0.3))
        if g.m == 0:
            continue
        res = approx_matching(g, seed=i)
        m_star = len(exact_max_matching(g))
        assert is_matching(res.matching)
        assert res.frac_value >= m_star / 5.0 - 1e-9
        assert res.good_value >= 0.8 * res.frac_value - 1e-9
        assert res.intra_value >= m_star / 40000.0 - 1e-9
        assert len(res.matching) >= m_star / 100000.0
        assert len(res.matching) >= 1  # constants imply a nonempty answer


def test_pipeline_checks_and_ledger():
    g = gnp(80, 0.06, seed=2)
    led = RoundLedger()
    res = approx_matching(g, seed=0, ledger=led)
    for claim in (
        "fractional-loads",
        "good-weight",
        "good-mass",
        "intra-loads",
        "intra-value-floor",
        "support-degree",
        "finish-ratio",
    ):
        assert res.checks.get(claim, 0) >= 1, claim
    labels = [row["label"] for row in led.report()["rows"]]
    assert "fractional-doubling" in labels
    assert "delay-broadcast" in labels
    assert led.total > 0


def test_pipeline_deterministic():
    g = gnp(60, 0.08, seed=5)
    a = approx_matching(g, seed=11)
    b = approx_matching(g, seed=11)
    assert a.matching == b.matching
    assert a.intra_value == b.intra_value


def test_pipeline_clique():
    g = complete(18)
    res = approx_matching(g, seed=1)
    m_star = len(exact_max_matching(g, method="augment"))
    assert m_star == 9
    assert len(res.matching) >= 1
    assert is_matching(res.matching)


def test_pipeline_large_sparse_ratio_recorded():
    g = strip_isolated(gnp(400, 0.02, seed=44))
    res = approx_matching(g, seed=5)
    # greedy maximal lower-bounds the maximum matching, so this is an
    # oracle-free consequence of the 1/100000 guarantee
    assert len(res.matching) >= res.m_star_lower_bound / 100000.0
    assert is_matching(res.matching)
    # record the observed quality: in practice far above the floor
    assert len(res.matching) >= res.m_star_lower_bound * 0.2


class _NeverSample:
    def random(self):
        return 1.0


def test_intra_retry_budget_exhausts(monkeypatch):
    # with sampling forced off, a vertex carrying many small edges in one
    # cluster cannot reach its lower window, so every attempt of the
    # budget, patched to 5, fails
    import localround.matching as matching_module
    from localround.errors import RetryBudgetExceeded
    attempts = []
    monkeypatch.setattr(
        matching_module, "stream", lambda *a: attempts.append(a[-1]) or _NeverSample()
    )
    monkeypatch.setattr(seeds, "RETRIES", 5)
    edges = [(0, leaf) for leaf in range(1, 3001)]
    g = Graph(edges=edges)
    delays = {0: 0, **{leaf: 50 for leaf in range(1, 3001)}}
    part = grow(g, delays, alpha=1)
    assert len(part.clusters) == 1
    x = from_values(g, {e: 1.0 / 20001.0 for e in g.edges()})
    with pytest.raises(RetryBudgetExceeded, match="cluster 0 failed the per-node window 5 times"):
        intra_round_matching(g, part, x, bound=1.0, seed=0, n_total=2)
    assert attempts == [0, 1, 2, 3, 4]


def test_pipeline_with_sparse_random_ids():
    rng = random.Random(9)
    from conftest import relabel

    base = strip_isolated(gnp(30, 0.2, seed=3))
    g = relabel(base, rng)
    res = approx_matching(g, seed=0)
    assert is_matching(res.matching)
    assert len(res.matching) >= 1
    m_star = len(exact_max_matching(g)) if g.n <= 24 else None
    if m_star is not None:
        assert len(res.matching) >= m_star / 100000.0


def test_greedy_bound_reuses_the_finish_when_the_support_is_whole(monkeypatch):
    import localround.matching as matching_module

    real = matching_module.greedy_maximal_matching
    passes = []

    def counting(g):
        passes.append(g.m)
        return real(g)

    monkeypatch.setattr(matching_module, "greedy_maximal_matching", counting)
    g = strip_isolated(gnp(300, 0.03, seed=2))
    res = approx_matching(g, seed=0)
    # the support is every edge of g: one greedy pass serves both
    assert passes == [g.m]
    assert res.matching == real(g)
    assert res.m_star_lower_bound == len(real(g))
    # a lower cluster-degree threshold drops edges: the bound takes its own pass
    passes.clear()
    res = approx_matching(g, seed=0, f_override=16)
    assert len(passes) == 2 and passes[0] < g.m == passes[1]
    assert res.m_star_lower_bound == len(real(g)) > len(res.matching)


def test_approx_matching_builds_neighbor_tuples_only_in_its_clustering(monkeypatch):
    g = gnp(2048, 0.004, seed=1)
    builds = count_neighbor_tuple_builds(monkeypatch)
    clustered = []

    def clustering(work, *args):
        before = len(builds)
        partition = cluster_constant(work, *args)
        clustered.extend(builds[before:])
        return partition

    monkeypatch.setattr(matching, "cluster_constant", clustering)
    res = approx_matching(g)
    # none outside the clustering; at the paper's constants every node
    # ends with the same delay, so the clustering walks no tuple either
    assert builds == clustered == []
    assert is_matching(res.matching)


def test_low_override_is_a_precondition_and_the_certified_bound_a_claim(monkeypatch):
    g = gnp(2048, 0.004, seed=1)
    with pytest.raises(PreconditionError, match=r"bound 8\.0 leaves good nodes carrying"):
        approx_matching(g, seed=3, f_override=8)
    assert approx_matching(g, seed=3, f_override=13).checks["good-weight"] == 1
    # the same threshold certified by the clustering stays a guarantee
    real = matching.cluster_constant

    def certifying_eight(*args):
        partition = real(*args)
        partition.meta["degree_bound"] = 8
        return partition

    monkeypatch.setattr(matching, "cluster_constant", certifying_eight)
    with pytest.raises(ClaimViolation, match="good-weight"):
        approx_matching(g, seed=3)


@pytest.mark.parametrize("value, passes", [(0.09996, True), (0.0994, False)])
def test_the_value_floor_counts_its_slack_only_below_a_tenth(monkeypatch, value, passes):
    # one edge: good value 1.0, bound 2 and two (endpoint, cluster) pairs,
    # so the floor is 1/10 - 2 / (2 * 1000 * 2) = 0.0995; a re-rounded
    # value in [0.0995, 0.1) passes only once that slack is counted
    real = matching.intra_round_matching

    def lowered(*args):
        x = real(*args)
        return FractionalMatching(x.nodes, x.a, x.b, np.full(len(x.x), value))

    monkeypatch.setattr(matching, "intra_round_matching", lowered)
    g = Graph(edges=[(0, 1)])
    if passes:
        res = approx_matching(g, f_override=2)
        assert res.intra_value == value and res.checks["intra-value-floor"] == 1
        return
    with pytest.raises(ClaimViolation) as err:
        approx_matching(g, f_override=2)
    assert (err.value.claim, err.value.detail) == (
        "intra-value-floor",
        f"re-rounded value {value} below 1.0/10 - 0.0005",
    )


@pytest.mark.parametrize("override", [math.inf, -math.inf, math.nan, 0.0, -2.0])
@pytest.mark.parametrize("g", [path(6), Graph(nodes=[0, 1])])
def test_an_override_that_is_not_finite_and_positive_is_refused(monkeypatch, g, override):
    # refused before the clustering runs, edgeless input or not
    monkeypatch.setattr(matching, "cluster_constant", None)
    want = "not finite" if override == math.inf else "not a positive number"
    with pytest.raises(PreconditionError, match=rf"^bound {override} is {want}$"):
        approx_matching(g, f_override=override)
