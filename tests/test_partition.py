"""The label arrays of `Partition` against the dict forms they replaced
(`clustering_reference`): the same views, ranks and errors, and no
dict built on the solvers' paths."""

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
from localround.matching import approx_matching
from localround.mis import mis

from clustering_reference import (
    cluster_degree,
    reference_cluster_ranks,
    reference_delays_to_partition,
    reference_max_diameter,
    reference_weight_check,
)
from conftest import by_position, partition_rows, random_graph, relabel


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
@given(graphs_with_delays(), st.floats(0.0, 1.0))
def test_a_subgraph_reads_its_rows_of_the_partition(case, share):
    # ranks and cluster degrees on a subgraph h are the same whether read
    # from g's partition or from the partition of h's rows alone
    g, delays, rng = case
    part = delays_to_partition(g, delays, 1)
    ref = reference_delays_to_partition(g, delays, 1)
    h = induced_subgraph(g, [u for u in g.nodes if rng.random() < share])
    sub = partition_rows(part, h)
    labels, rank = cluster_ranks(h, part)
    want = reference_cluster_ranks(h, ref)
    assert (labels, rank.tolist()) == want
    labels, rank = cluster_ranks(h, sub)
    assert (labels, rank.tolist()) == want
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
    part = delays_to_partition(g, {u: 0 for u in g.nodes}, 1)
    assert verify_partition(g, part, 1)["num_clusters"] == 3
    bigger = delays_to_partition(path(4), {u: 0 for u in range(4)}, 1)
    for other in (partition_rows(part, path(2)), bigger):
        with pytest.raises(PreconditionError, match="do not cover V"):
            verify_partition(g, other, 1)


@settings(max_examples=150, deadline=None)
@given(graphs_with_delays(), st.integers(1, 4))
def test_verify_partition_measures_what_the_cluster_loop_does(case, labels):
    g, delays, rng = case
    grown = delays_to_partition(g, delays, 1)
    # labels drawn at random make clusters that may be disconnected
    ids = np.array(g.nodes, np.int64)
    centre = np.array([rng.choice(g.nodes[:labels]) for u in g.nodes], np.int64)
    drawn = Partition(1, ids, centre, np.zeros(g.n, np.int64))
    for part in (grown, drawn):
        report = verify_partition(g, part, 1)
        # repr: the same value of the same type (0.0, an int, or inf)
        assert repr(report["max_diameter"]) == repr(reference_max_diameter(g, part))


def test_verify_partition_builds_no_induced_subgraph(monkeypatch):
    def refuse(*args):
        raise AssertionError("verify_partition built an induced subgraph")

    monkeypatch.setattr(graphs_module, "induced_subgraph", refuse)
    monkeypatch.setattr(clustering_module, "induced_subgraph", refuse, raising=False)
    g = gnp(300, 0.02, seed=3)
    part = delays_to_partition(g, {u: u % 7 for u in g.nodes}, 1)
    report = verify_partition(g, part, 1)
    assert repr(report["max_diameter"]) == repr(reference_max_diameter(g, part))


def test_the_empty_partition():
    part = delays_to_partition(Graph(), {}, 1)
    assert len(part.clusters) == 0 and dict(part.assignment) == {}


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
