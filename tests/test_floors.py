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
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import floor_reference
import matching_reference
import mis_reference
from localround import seeds
from localround.clustering import ClusterGroups
from localround.errors import ClaimChecker, PreconditionError, RetryBudgetExceeded
from localround.graphs import Graph, orient, strip_isolated
from localround.seeds import derive_seed, stream

from clustering_reference import cluster_degree, grow, reference_partition
from conftest import random_graph

# `localround.mis` the attribute is the function; the module is wanted
mis_module = importlib.import_module("localround.mis")
matching_module = importlib.import_module("localround.matching")
clustering_module = importlib.import_module("localround.clustering")
graphs_module = importlib.import_module("localround.graphs")


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
    return g, grow(g, delays, 1), {b: (a, rest[leaves])}


def _singletons(draw, g: Graph, delays: dict[int, int]) -> dict[int, int]:
    """`delays`, or in a drawn share of the cases all equal, so that every
    node is its own cluster, as at the paper's constants."""
    return dict.fromkeys(g.nodes, 1) if draw(st.booleans()) else delays


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
    part = grow(g, _singletons(draw, g, delays), 1)
    ref = reference_partition(part)
    max_deg = max(cluster_degree(g, ref, u) for u in g.nodes)
    bound = max_deg * draw(st.sampled_from([1.0, 2.0, 0.5]))
    n_total = draw(st.sampled_from([2, 5, None]))
    o, ref = orient(g), mis_reference.ReferenceOrientation(g)
    good = draw(st.permutations(mis_reference.good_ids(g, mis_module.good_vertices(g, o))))
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
    # the floors read their retry budget from `seeds.RETRIES`; a patch
    # context, not the fixture, since hypothesis runs many examples per call
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seeds, "RETRIES", 3)
        new = _run(
            lambda checks: mis_module.intra_round_mis(
                g, part, bound, seed, n_total, checks, o, arrays
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
    part = grow(g, _singletons(draw, g, delays), 1)
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
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seeds, "RETRIES", retries)
        new = _run(
            lambda checks: matching_module.intra_round_matching(
                g, part, arrays, bound, seed, n_total, checks
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

    # distinct codes: each entry its own group, numbered in entry order,
    # with the key, owner and sum the sort gives that entry's group
    seen: set[int] = set()
    once = [(c, i) for c, i in entries if not (c in seen or seen.add(c))]
    codes = np.array([c for c, _ in once], np.int64)
    items = np.array([i for _, i in once], np.intp)
    built, laid = ClusterGroups(codes, items, 2, 3), ClusterGroups.each_entry(codes, items, 2, 3)
    assert laid.keys.tolist() == codes.tolist() and laid.groups.tolist() == list(range(len(once)))
    by_sort = built.groups
    assert built.keys[by_sort].tolist() == laid.keys[laid.groups].tolist()
    assert built.owners[by_sort].tolist() == laid.owners[laid.groups].tolist()
    got, want = laid.sums(np.array(values)), built.sums(np.array(values))
    assert [x.hex() for x in got[laid.groups].tolist()] == [
        x.hex() for x in want[by_sort].tolist()
    ]

    # edges (a, b), a < b < 8, ordered by (b, a), each owned by its b's
    # index among the b's: the windows of the re-rounding when every node
    # is its own cluster, numbered as the sort numbers them
    edges = sorted({(min(c, i), max(c, i)) for c, i in entries if c != i}, key=lambda e: e[::-1])
    a = np.array([e[0] for e in edges], np.intp)
    b = np.array([e[1] for e in edges], np.intp)
    owner = np.searchsorted(np.unique(b), b)
    clusters = len(np.unique(b))
    items = np.repeat(np.arange(len(edges)), 2)
    codes = owner[items] * 8 + np.stack((a, b), axis=1).ravel()
    built = ClusterGroups(codes, items, 8, clusters)
    laid = ClusterGroups.edge_runs(owner, a, b, 8, clusters)
    for name in ("keys", "groups", "owners", "items"):
        assert getattr(laid, name).tolist() == getattr(built, name).tolist()
    x = np.array(values)[np.arange(len(edges)) % 8]
    got, want = laid.sums(x), built.sums(x)
    assert [x.hex() for x in got.tolist()] == [x.hex() for x in want.tolist()]


def _recording_sorts(monkeypatch) -> list[str]:
    """The names of the sorts called from now on, in order: every
    `distinct_inverse` the clustering module makes and every
    `stable_order`, the sort under it and under the matching module's
    edge order."""
    sorts: list[str] = []
    for module, name in (
        (clustering_module, "distinct_inverse"),
        (graphs_module, "stable_order"),
        (matching_module, "stable_order"),
    ):
        real = getattr(module, name)
        monkeypatch.setattr(
            module, name, lambda *args, real=real, name=name: sorts.append(name) or real(*args)
        )
    return sorts


@pytest.mark.parametrize("seed", range(30))
def test_no_floor_sorts_its_groups_on_a_singleton_partition(monkeypatch, seed):
    # when every node is its own cluster, as at the paper's constants,
    # both floors number their window groups with no sort; a merged
    # partition still sorts its labels and its groups
    rng = random.Random(seed)
    g = strip_isolated(random_graph(rng, rng.randint(3, 40), rng.choice([0.1, 0.3])))
    if g.m == 0:
        g = Graph(edges=[(0, 1), (1, 2)])
    spread = 0 if seed % 2 else 3
    delays = {u: rng.randint(0, spread) for u in g.nodes}
    part = grow(g, delays, 1)
    merged = len(part.clusters) < g.n
    ref = reference_partition(part)
    bound = max(cluster_degree(g, ref, u) for u in g.nodes)
    o = orient(g)
    witnesses = mis_module.good_witnesses(g, o)
    x = matching_module.fractional_matching(g)
    sorts = _recording_sorts(monkeypatch)
    mis_module.intra_round_mis(g, part, bound, seed, None, None, o, witnesses)
    mis_sorts = list(sorts)
    sorts.clear()
    matching_module.intra_round_matching(g, grow(g, delays, 1), x, bound, seed)
    if merged:
        assert "distinct_inverse" in mis_sorts and "distinct_inverse" in sorts
    else:
        assert mis_sorts == sorts == []
    if not spread:
        assert not merged
