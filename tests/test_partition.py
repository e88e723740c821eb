"""The label arrays of `Partition` against the dict forms they replaced
(`clustering_reference`): the same clusters, assignment and delays,
ranks and errors."""

from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import localround.clustering as clustering_module
import localround.graphs as graphs_module
from localround.clustering import (
    Partition,
    cluster_constant,
    cluster_degrees,
    cluster_ranks,
    delays_to_partition,
    verify_partition,
)
from localround.errors import PreconditionError, plain_sum
from localround.generators import gnp, path
from localround.graphs import Graph, induced_subgraph

from clustering_reference import (
    cluster_degree,
    grow,
    reference_cluster_ranks,
    reference_delays_to_partition,
    reference_max_diameter,
    reference_partition,
    reference_weight_check,
)
from conftest import by_position, partition_rows, random_graph, relabel
from graphs_reference import node_mask


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


def same_partition(part: Partition, ref) -> None:
    assert part.clusters.dtype == np.int64
    assert part.clusters.tolist() == sorted(ref.clusters)
    assert part.ids.tolist() == sorted(ref.assignment)
    assert reference_partition(part) == ref


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
    same_partition(grow(g, delays, 2), reference_delays_to_partition(g, delays, 2))


@settings(max_examples=150, deadline=None)
@given(graphs_with_delays(), st.floats(0.0, 1.0))
def test_a_subgraph_reads_its_rows_of_the_partition(case, share):
    # ranks and cluster degrees on a subgraph h are the same whether read
    # from g's partition or from the partition of h's rows alone
    g, delays, rng = case
    part = grow(g, delays, 1)
    ref = reference_delays_to_partition(g, delays, 1)
    h = induced_subgraph(g, node_mask(g, [u for u in g.nodes if rng.random() < share]))
    sub = partition_rows(part, h)
    labels, rank = cluster_ranks(h, part)
    want = reference_cluster_ranks(h, ref)
    assert (labels.tolist(), rank.tolist()) == want
    labels, rank = cluster_ranks(h, sub)
    assert (labels.tolist(), rank.tolist()) == want
    degrees = [cluster_degree(h, ref, u) for u in h.nodes]
    assert cluster_degrees(h, part).tolist() == cluster_degrees(h, sub).tolist() == degrees
    # on all of g, the first node left out of h's rows is named
    kept = set(h.nodes)
    first = next((u for u in g.nodes if u not in kept), None)
    expected = None
    if first is not None:
        expected = (PreconditionError, f"partition does not cover node {first}")
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


def test_verify_partition_needs_exactly_the_graph_nodes():
    g = path(3)
    part = delays_to_partition(g, np.zeros(g.n, np.int64), 1)
    assert verify_partition(g, part, 1)["num_clusters"] == 3
    bigger = delays_to_partition(path(4), np.zeros(4, np.int64), 1)
    for other in (partition_rows(part, path(2)), bigger):
        with pytest.raises(PreconditionError, match="do not cover V"):
            verify_partition(g, other, 1)


@settings(max_examples=150, deadline=None)
@given(graphs_with_delays(), st.integers(1, 4))
def test_verify_partition_measures_what_the_cluster_loop_does(case, labels):
    g, delays, rng = case
    grown = grow(g, delays, 1)
    # labels drawn at random make clusters that may be disconnected
    ids = np.array(g.nodes, np.int64)
    centre = np.array([rng.choice(g.nodes[:labels]) for u in g.nodes], np.int64)
    drawn = Partition(1, ids, centre, np.zeros(g.n, np.int64))
    for part in (grown, drawn):
        report = verify_partition(g, part, 1)
        # repr: the same value of the same type (0.0, an int, or inf)
        ref = reference_partition(part)
        assert repr(report["max_diameter"]) == repr(reference_max_diameter(g, ref))


def test_verify_partition_builds_no_induced_subgraph(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_partition built an induced subgraph")

    monkeypatch.setattr(graphs_module, "induced_subgraph", refuse)
    monkeypatch.setattr(clustering_module, "induced_subgraph", refuse, raising=False)
    g = gnp(300, 0.02, seed=3)
    part = grow(g, {u: u % 7 for u in g.nodes}, 1)
    report = verify_partition(g, part, 1)
    assert repr(report["max_diameter"]) == repr(reference_max_diameter(g, reference_partition(part)))


def test_the_empty_partition():
    part = delays_to_partition(Graph(), np.zeros(0, np.int64), 1)
    assert len(part.clusters) == 0 and part.ids.tolist() == []


@pytest.mark.parametrize("seed", range(30))
def test_cluster_ranks_sort_only_a_merged_partition(monkeypatch, seed):
    # when every node of h is its own cluster, as at the paper's
    # constants, the labels are h's ids and the ranks 0..n-1, and no
    # label is sorted; a merged partition still sorts its labels once
    sorts = []
    real = clustering_module.distinct_inverse

    def recording(codes):
        sorts.append(len(codes))
        return real(codes)

    monkeypatch.setattr(clustering_module, "distinct_inverse", recording)
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(0, 40), rng.choice([0.05, 0.2]))
    if seed % 3:
        g = relabel(g, rng)
    spread = 0 if seed % 2 else 3
    delays = {u: rng.randint(0, spread) for u in g.nodes}
    part, ref = grow(g, delays, 1), reference_delays_to_partition(g, delays, 1)
    h = induced_subgraph(g, node_mask(g, [u for u in g.nodes if rng.random() < 0.7]))
    for graph in (g, h):
        sorts.clear()
        labels, rank = cluster_ranks(graph, part)
        assert (labels.tolist(), rank.tolist()) == reference_cluster_ranks(graph, ref)
        assert not labels.flags.writeable and not rank.flags.writeable
        merged = labels.tolist() != list(graph.nodes)
        assert sorts == ([graph.n] if merged else [])
    if not spread:
        assert sorts == []


def test_a_merged_partition_still_sorts_its_labels(monkeypatch):
    sorts = []
    real = clustering_module.distinct_inverse
    monkeypatch.setattr(
        clustering_module, "distinct_inverse", lambda codes: sorts.append(len(codes)) or real(codes)
    )
    g = path(5)
    singletons = delays_to_partition(g, np.zeros(5, np.int64), 1)
    labels, rank = cluster_ranks(g, singletons)
    assert (labels.tolist(), rank.tolist(), sorts) == ([0, 1, 2, 3, 4], [0, 1, 2, 3, 4], [])
    # node 1 starts late, so node 0's token claims it: clusters {0, 1}, {2}, {3}, {4}
    merged = delays_to_partition(g, np.array([0, 1, 0, 0, 0]), 1)
    labels, rank = cluster_ranks(g, merged)
    assert (labels.tolist(), rank.tolist(), sorts) == ([0, 2, 3, 4], [0, 0, 1, 2, 3], [5])
