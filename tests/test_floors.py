"""The attempt-major per-cluster floors against the per-cluster loops
they replaced (`floor_reference`): the same values bit for bit (and, for
matching, in the same order), the same claim counts, the same `stream`
calls and the same cluster named when the retry budget runs out."""

from __future__ import annotations

import importlib
import math
import random
from collections import Counter

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import floor_reference
import matching_reference
import mis_reference
from localround.clustering import ClusterGroups, delays_to_partition
from localround.errors import ClaimChecker, PreconditionError, RetryBudgetExceeded
from localround.graphs import Graph, orient, strip_isolated
from localround.seeds import derive_seed, stream

from clustering_reference import cluster_degree
from conftest import random_graph

# `localround.mis` the attribute is the function; the module is wanted
mis_module = importlib.import_module("localround.mis")
matching_module = importlib.import_module("localround.matching")


class _NeverHit(random.Random):
    def random(self):
        return 1.0


def _rigged(salt: int, limit: int):
    """A `stream` whose generators never hit for the first
    derive_seed(salt, c) % limit attempts of cluster c, then draw as usual:
    that reaches retries and exhausted budgets with the real windows."""

    def make(seed, *labels):
        _, c, attempt = labels
        if attempt < derive_seed(salt, c) % limit:
            return _NeverHit()
        return stream(seed, *labels)

    return make


def _run(fn, module, rig):
    """fn(checks) with `module.stream` routed through `rig` and recorded:
    (result or the exception raised, claim counts, stream label calls)."""
    calls: list[tuple] = []
    checks = ClaimChecker()

    def recording(seed, *labels):
        calls.append(labels)
        return rig(seed, *labels)

    real = module.stream
    module.stream = recording
    try:
        result = fn(checks)
    except (PreconditionError, RetryBudgetExceeded) as exc:
        result = exc
    finally:
        module.stream = real
    return result, list(checks.counts.items()), calls


def _assert_same(new, ref):
    (out, counts, calls), (ref_out, ref_counts, ref_calls) = new, ref
    assert counts == ref_counts
    if isinstance(ref_out, Exception):
        assert type(out) is type(ref_out) and str(out) == str(ref_out)
        if ref_calls:
            # the loop stops at the cluster it names; the array pass has
            # also tried the clusters after it
            last = ref_calls[-1][1]
            assert Counter(c for c in calls if c[1] <= last) == Counter(ref_calls)
        return
    assert Counter(calls) == Counter(ref_calls)
    return out


def _ids(rng: random.Random, n: int, sparse: bool) -> list[int]:
    return rng.sample(range(2**60), n) if sparse else list(range(n))


def _graph_with_star(rng, n, p, leaves, sparse):
    """A random graph plus, when leaves > 0, a disjoint star on a hub;
    ids dense or sparse 60-bit.  Returns the graph, its delays (random on
    the random part, 0 on the hub and 2 on its leaves, so the star is one
    cluster) and the hub's id (or None)."""
    base = random_graph(rng, n, p)
    ids = _ids(rng, n + 1 + leaves, sparse)
    edges = [(ids[a], ids[b]) for a, b in base.edges()]
    hub = ids[n] if leaves else None
    edges += [(hub, ids[n + 1 + k]) for k in range(leaves)]
    g = Graph(edges=edges) if edges else Graph(edges=[(ids[0], ids[1])])
    delays = {u: rng.randint(0, 3) for u in g.nodes}
    if leaves:
        delays.update({u: 2 for u in g.neighbors(hub)})
        delays[hub] = 0
    return g, delays, hub


def _hub_pair(rng: random.Random, leaves: int):
    """Hubs a and b with leaves and leaves + 5 leaves, joined by an edge,
    each hub a cluster with its leaves; witnesses {b: (a, a leaf of b)}
    put a alone in b's group of a's cluster.  With bound 2 (every cluster
    degree is at most 2) and n_total 2, both hubs are resampled, and a's
    window at b passes only thanks to its slack when a draws 0."""
    ids = rng.sample(range(2**60), 2 * leaves + 7)
    a, b, rest = ids[0], ids[1], ids[2:]
    g = Graph(
        edges=[(a, b)]
        + [(a, leaf) for leaf in rest[:leaves]]
        + [(b, leaf) for leaf in rest[leaves:]]
    )
    delays = {u: 2 for u in g.nodes}
    delays[a] = delays[b] = 0
    return g, delays_to_partition(g, delays, 1), {b: (a, rest[leaves])}


@st.composite
def mis_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    seed = draw(st.integers(0, 2**16))
    if draw(st.booleans()):
        # a's draw hits with probability 2000 / 4001
        g, part, witnesses = _hub_pair(rng, 4000)
        witnesses = {v: tuple(draw(st.permutations(w))) for v, w in witnesses.items()}
        return g, part, 2.0, 2, orient(g), witnesses, seed
    g, delays, _ = _graph_with_star(
        rng, draw(st.integers(2, 30)), draw(st.sampled_from([0.08, 0.2, 0.5])),
        0, draw(st.booleans()),
    )
    g = strip_isolated(g)
    part = delays_to_partition(g, {u: delays[u] for u in g.nodes}, 1)
    max_deg = max(cluster_degree(g, part, u) for u in g.nodes)
    bound = max_deg * draw(st.sampled_from([1.0, 2.0, 0.5]))
    n_total = draw(st.sampled_from([2, 5, None]))
    o, ref = orient(g), mis_reference.ReferenceOrientation(g)
    good = draw(st.permutations(sorted(mis_module.good_vertices(g, o))))
    # witness lists in a drawn order, so entry order is not id order
    witnesses = {
        v: tuple(draw(st.permutations(mis_reference.select_witnesses(g, ref, v)))) for v in good
    }
    return g, part, bound, n_total, o, witnesses, seed


@settings(max_examples=40, deadline=None)
@given(mis_cases(), st.integers(0, 2**16), st.integers(1, 4))
def test_intra_round_mis_matches_the_loop(case, salt, limit):
    g, part, bound, n_total, o, witnesses, seed = case
    rig = _rigged(salt, limit)
    arrays = mis_reference.witness_arrays(g, witnesses)
    new = _run(
        lambda checks: mis_module.intra_round_mis(
            g, part, bound, seed, n_total, 3, checks, o, arrays
        ),
        mis_module,
        rig,
    )
    ref = _run(
        lambda checks: floor_reference.reference_intra_round_mis(
            g, part, bound, seed, n_total, 3, checks, o, witnesses
        ),
        floor_reference,
        rig,
    )
    out = _assert_same(new, ref)
    if out is not None:
        # the array is by position in g.nodes; the loop's dict is keyed by id
        assert [(u, x.hex()) for u, x in zip(g.nodes, out.tolist())] == sorted(
            (u, x.hex()) for u, x in ref[0].items()
        )


@st.composite
def matching_cases(draw):
    rng = random.Random(draw(st.integers(0, 2**32)))
    leaves = draw(st.sampled_from([0, 120, 250]))
    g, delays, hub = _graph_with_star(
        rng, draw(st.integers(2, 30)), draw(st.sampled_from([0.08, 0.2, 0.5])),
        leaves, draw(st.booleans()),
    )
    g = strip_isolated(g)
    part = delays_to_partition(g, {u: delays[u] for u in g.nodes}, 1)
    bound = draw(st.sampled_from([1.0, 2.0, 4.0]))
    # with n_total = 2, a hub whose edges all miss falls below its window
    n_total = 2 if leaves else draw(st.sampled_from([2, 3, None]))
    threshold = 1.0 / (10000.0 * bound * math.log2(max(2, n_total or g.n)))
    x_good = {}
    for e in g.edges():
        if rng.random() < 0.15:
            continue
        kind = rng.random() if hub not in e else 0.9
        if kind < 0.3:
            x_good[e] = rng.uniform(threshold, 1.0)
        elif kind < 0.35:
            x_good[e] = rng.choice([0.0, threshold, 1.0])
        else:
            x_good[e] = threshold * rng.uniform(0.3, 1.0)
    order = list(x_good)
    rng.shuffle(order)
    x_good = {e: x_good[e] for e in order}
    return g, part, x_good, bound, n_total, draw(st.integers(0, 2**16))


@settings(max_examples=120, deadline=None)
@given(matching_cases(), st.integers(0, 2**16), st.integers(1, 5), st.integers(1, 4))
def test_intra_round_matching_matches_the_loop(case, salt, limit, retries):
    g, part, x_good, bound, n_total, seed = case
    rig = _rigged(salt, limit)
    arrays = matching_reference.from_values(g, x_good)
    new = _run(
        lambda checks: matching_module.intra_round_matching(
            g, part, arrays, bound, seed, n_total, retries, checks
        ),
        matching_module,
        rig,
    )
    ref = _run(
        lambda checks: floor_reference.reference_intra_round_matching(
            g, part, x_good, bound, seed, n_total, retries, checks
        ),
        floor_reference,
        rig,
    )
    out = _assert_same(new, ref)
    if out is not None:
        # in order too: approx_matching sums the values in it
        assert [(e, x.hex()) for e, x in matching_reference.values(out).items()] == [
            (e, x.hex()) for e, x in ref[0].items()
        ]


@settings(max_examples=200, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 5), st.integers(0, 7)), max_size=60),
    st.lists(st.floats(1e-6, 1e6), min_size=8, max_size=8),
)
def test_cluster_groups_sum_in_entry_order(entries, values):
    # entry k adds values[items[k]] to the group of codes[k], in entry
    # order: the floors' windows are decided on these sums
    codes = np.array([c for c, _ in entries], np.int64)
    items = np.array([i for _, i in entries], np.intp)
    groups = ClusterGroups(codes, items, 2, 3)
    loop: dict[int, float] = {}
    for c, i in entries:
        loop[c] = loop.get(c, 0.0) + values[i]
    assert groups.keys.tolist() == sorted(loop)
    assert groups.owners.tolist() == [c // 2 for c in sorted(loop)]
    got = groups.sums(np.array(values))
    assert [x.hex() for x in got.tolist()] == [loop[c].hex() for c in sorted(loop)]
