"""The label arrays of `Partition` against the dict forms they replaced
(`clustering_reference`): the same views, restrictions, ranks and
errors, and no dict built on the solvers' paths."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localround.clustering as clustering_module
from localround.clustering import (
    Partition,
    cluster_constant,
    cluster_degree,
    cluster_degrees,
    cluster_ranks,
    delays_to_partition,
    verify_partition,
)
from localround.errors import PreconditionError, plain_sum
from localround.generators import gnp, path
from localround.graphs import Graph, induced_subgraph
from localround.matching import approx_matching
from localround.mis import mis

from clustering_reference import (
    reference_cluster_ranks,
    reference_delays_to_partition,
    reference_weight_check,
)
from conftest import by_position, random_graph, relabel


@st.composite
def graphs_with_delays(draw):
    """A small graph, with isolated nodes, sparse 60-bit ids or no node
    at all at times, and a delay per node: all equal when `spread` is 0."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(rng, draw(st.integers(0, 30)), draw(st.sampled_from([0.0, 0.08, 0.3])))
    if draw(st.booleans()):
        g = relabel(g, rng)
    spread, base = draw(st.sampled_from([0, 1, 3, 50])), draw(st.integers(0, 100))
    return g, {u: base + rng.randint(0, spread) for u in g.nodes}, rng


def same_views(part: Partition, ref) -> None:
    assert len(part.clusters) == len(ref.clusters)
    assert dict(part.clusters) == ref.clusters
    assert dict(part.assignment) == ref.assignment
    assert dict(part.delays) == ref.delays
    assert list(part.clusters) == sorted(ref.clusters)
    assert part.ids.tolist() == list(part.assignment) == sorted(ref.assignment)


def outcome(call):
    try:
        call()
    except (KeyError, PreconditionError) as exc:
        return type(exc), str(exc)
    return None


@settings(max_examples=150, deadline=None)
@given(graphs_with_delays())
def test_partition_arrays_match_the_dict_reference(case):
    g, delays, _ = case
    part = delays_to_partition(g, delays, 2)
    same_views(part, reference_delays_to_partition(g, delays, 2))
    by_array = delays_to_partition(g, np.array([delays[u] for u in g.nodes], np.int64), 2)
    assert np.array_equal(by_array.label, part.label)
    assert np.array_equal(by_array.delay, part.delay)


@settings(max_examples=100, deadline=None)
@given(graphs_with_delays(), st.integers(1, 8))
def test_missing_delays_are_named_like_the_reference(case, drop):
    g, delays, rng = case
    for u in rng.sample(g.nodes, min(drop, g.n)):
        del delays[u]
    expected = outcome(lambda: reference_delays_to_partition(g, delays, 1))
    assert outcome(lambda: delays_to_partition(g, delays, 1)) == expected


@settings(max_examples=150, deadline=None)
@given(graphs_with_delays(), st.floats(0.0, 1.0), st.integers(0, 4))
def test_restrict_matches_the_reference(case, share, unknown):
    g, delays, rng = case
    part = delays_to_partition(g, delays, 1)
    ref = reference_delays_to_partition(g, delays, 1)
    keep = [u for u in g.nodes if rng.random() < share]
    # ids the partition does not cover are ignored, 2**63 and beyond too
    keep += [rng.getrandbits(62) for _ in range(unknown)] + [2**63 + unknown] * (unknown > 2)
    rng.shuffle(keep)
    sub, ref_sub = part.restrict(keep), ref.restrict(keep)
    same_views(sub, ref_sub)
    h = induced_subgraph(g, [u for u in keep if u in g])
    labels, rank = cluster_ranks(h, sub)
    assert (labels, rank.tolist()) == reference_cluster_ranks(h, ref_sub)
    assert cluster_degrees(h, sub).tolist() == [cluster_degree(h, ref_sub, u) for u in h.nodes]
    # on all of g, the first node left out is named
    expected = outcome(lambda: reference_cluster_ranks(g, ref_sub))
    assert outcome(lambda: cluster_ranks(g, sub)) == expected


@settings(max_examples=100, deadline=None)
@given(
    st.integers(0, 2**32),
    st.integers(1, 20),
    st.sampled_from(["ok", "missing", "low", "high", "nan"]),
    st.integers(1, 3),
)
def test_weight_errors_match_the_reference(seed, n, kind, defects):
    rng = random.Random(seed)
    g = random_graph(rng, n, 0.2)
    weights = {u: rng.uniform(1.0 / n, 1.0) for u in g.nodes}
    bad = {"low": 0.5 / n - 1e-9, "high": 1.5, "nan": float("nan")}.get(kind)
    for u in rng.sample(g.nodes, min(defects, n)):
        if kind == "missing":
            del weights[u]
        elif bad is not None:
            weights[u] = bad
    expected = outcome(lambda: reference_weight_check(g, weights))
    # the dict is converted once, as a caller holding one does
    assert outcome(lambda: cluster_constant(g, 1, by_position(g, weights))) == expected
    if expected is None:
        total = reference_weight_check(g, weights)
        assert plain_sum(by_position(g, weights)).hex() == total.hex()


def test_weights_need_one_per_node():
    with pytest.raises(PreconditionError, match=r"shape \(3,\) for 4 nodes"):
        cluster_constant(path(4), 1, np.full(3, 0.5))


def test_from_dicts_round_trips_and_rejects_a_disagreeing_assignment():
    g = path(5)
    ref = reference_delays_to_partition(g, {0: 0, 1: 5, 2: 5, 3: 0, 4: 5}, 1)
    same_views(Partition.from_dicts(1, ref.clusters, ref.assignment, ref.delays), ref)
    bad = [
        ({0: frozenset({0, 1}), 2: frozenset()}, {0: 0, 1: 0}, "empty cluster 2"),
        ({0: frozenset({0, 1}), 1: frozenset({1, 2})}, {0: 0, 1: 0, 2: 1}, "overlap at node 1"),
        ({0: frozenset({0, 1}), 2: frozenset({2})}, {0: 0, 1: 2, 2: 2}, "inconsistent at node 1"),
        ({0: frozenset({0, 1})}, {0: 0, 1: 0, 2: 0}, "inconsistent at node 2"),
    ]
    for clusters, assignment, message in bad:
        delays = {u: 0 for u in assignment}
        with pytest.raises(PreconditionError, match=message):
            Partition.from_dicts(1, clusters, assignment, delays)
    with pytest.raises(PreconditionError, match="different nodes"):
        Partition.from_dicts(1, {0: frozenset({0, 1})}, {0: 0, 1: 0}, {0: 0, 1: 0, 2: 0})


def test_verify_partition_needs_exactly_the_graph_nodes():
    g = path(3)
    part = delays_to_partition(g, {u: 0 for u in g.nodes}, 1)
    assert verify_partition(g, part, 1)["num_clusters"] == 3
    bigger = delays_to_partition(path(4), {u: 0 for u in range(4)}, 1)
    for other in (part.restrict([0, 1]), bigger):
        with pytest.raises(PreconditionError, match="do not cover V"):
            verify_partition(g, other, 1)


def test_the_empty_partition():
    part = delays_to_partition(Graph(), {}, 1)
    assert len(part.clusters) == 0 and dict(part.assignment) == {}
    assert part.restrict([3]).ids.size == 0


def test_solvers_build_no_partition_dict(monkeypatch):
    built = []
    build = clustering_module._build_view

    def counted(part, name):
        built.append(name)
        return build(part, name)

    monkeypatch.setattr(clustering_module, "_build_view", counted)
    g = gnp(2048, 0.004, seed=1)
    assert mis(g).iterations > 0
    assert approx_matching(g).matching
    assert built == []
    # the wrapper sees a build when one happens, and only the first
    part = delays_to_partition(g, {u: 0 for u in g.nodes}, 1)
    assert len(part.clusters) == g.n and built == []
    assert part.assignment[5] == 5 and part.assignment[6] == 6
    assert built == ["assignment"]
