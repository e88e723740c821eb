"""The matching pipeline's fractional stage on edge arrays against the dict
loops it replaced (`matching_reference`): `fractional_matching` values
bit for bit and in key order, the loads bit for bit, `value()`, the
claim counts, and `good_edges`."""

from __future__ import annotations

import functools
import operator
import random

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import matching_reference
from localround.clustering import cluster_degrees
from localround.errors import ClaimChecker
from localround.generators import gnp, path
from localround.graphs import Graph, strip_isolated
from localround.matching import FractionalMatching, fractional_matching, good_edges

from clustering_reference import grow
from conftest import relabel


def _hexed(mapping: dict) -> list:
    return [(k, x.hex()) for k, x in mapping.items()]


@st.composite
def graphs(draw):
    """Graphs without isolated nodes: stars, paths and single edges (max
    degree 1 or 2 where the star has one or two leaves) and gnp graphs,
    on dense ids or sparse 60-bit ones."""
    kind = draw(st.sampled_from(["star", "path", "edge", "gnp"]))
    if kind == "star":
        g = Graph(edges=[(0, leaf) for leaf in range(1, draw(st.integers(1, 12)) + 1)])
    elif kind == "path":
        g = path(draw(st.integers(2, 20)))
    elif kind == "edge":
        g = Graph(edges=[(0, 1)])
    else:
        n, p = draw(st.integers(2, 60)), draw(st.sampled_from([0.05, 0.1, 0.3, 0.7]))
        g = strip_isolated(gnp(n, p, seed=draw(st.integers(0, 2**16))))
        if g.m == 0:
            g = Graph(edges=[(0, 1)])
    if draw(st.booleans()):
        g = relabel(g, random.Random(draw(st.integers(0, 2**32))))
    return g


@settings(max_examples=200, deadline=None)
@given(graphs())
def test_fractional_matching_matches_the_loop(g):
    checks, ref_checks = ClaimChecker(), ClaimChecker()
    frac = fractional_matching(g, checks=checks)
    ref = matching_reference.reference_fractional_matching(g, ref_checks)
    assert _hexed(matching_reference.values(frac)) == _hexed(ref)
    loads = matching_reference.loads(frac)
    assert _hexed(loads) == sorted(_hexed(matching_reference.reference_loads(ref)))
    assert frac.value().hex() == functools.reduce(operator.add, ref.values(), 0.0).hex()
    assert list(checks.counts.items()) == list(ref_checks.counts.items())


@settings(max_examples=150, deadline=None)
@given(graphs(), st.integers(0, 2**32), st.sampled_from([0.0, 1.0, 2.0, 3.0, None]))
def test_good_edges_match_the_loop(g, seed, bound):
    rng = random.Random(seed)
    part = grow(g, {u: rng.randint(0, 3) for u in g.nodes}, 1)
    if bound is None:
        bound = float(cluster_degrees(g, part).max())
    ge = good_edges(g, part, bound)
    good_nodes, edges = matching_reference.reference_good_edges(g, part, bound)
    assert ge.good.tolist() == [u in good_nodes for u in g.nodes]
    chosen = set(edges)
    assert ge.mask.tolist() == [e in chosen for e in g.edges()]
    frac = fractional_matching(g)
    kept = frac.restrict(ge.mask)
    want = matching_reference.values(frac)
    assert _hexed(matching_reference.values(kept)) == [(e, want[e].hex()) for e in edges]


def test_fractional_matching_of_the_empty_graph():
    empty = fractional_matching(Graph())
    assert matching_reference.values(empty) == {}
    assert matching_reference.loads(empty) == {} and empty.value() == 0


def test_loads_are_by_node_position():
    # edges (2, 3) then (1, 3): the loads follow the nodes, not the edges
    frac = FractionalMatching((1, 2, 3), np.array([1, 0]), np.array([2, 2]), np.array([0.5, 0.25]))
    assert frac.position_loads().tolist() == [0.25, 0.5, 0.75]
    assert matching_reference.loads(frac) == {1: 0.25, 2: 0.5, 3: 0.75}
    assert matching_reference.values(frac) == {(2, 3): 0.5, (1, 3): 0.25}
