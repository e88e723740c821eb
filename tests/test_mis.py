import importlib
import math
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localround.clustering import (
    base_capacity_exponent,
    cluster_all,
    cluster_degrees,
    delays_to_partition,
)
from localround.errors import ClaimChecker, ClaimViolation, PreconditionError
from localround.generators import complete, gnp, path, tree
from localround.graphs import Graph, induced_subgraph, orient, square_graph, strip_isolated
from localround.ledger import RoundLedger
from localround.mis import (
    build_mis_instance,
    closed_neighbourhoods,
    good_vertices,
    good_witnesses,
    intra_round_mis,
    luby_derandomized_iteration,
    luby_randomized,
    mis,
    verify_mis,
)
from localround.rounding import FractionalAssignment, evaluate

import mis_reference
from clustering_reference import grow
from conftest import count_neighbor_tuple_builds, partition_rows, random_graph, relabel
from rounding_reference import conflict_pairs, edge_terms, node_terms
from graphs_reference import id_bits, node_mask, row_ids
from mis_reference import (
    ReferenceOrientation,
    good_ids,
    reference_mis_terms,
    reference_verify_mis,
    select_witnesses,
    witness_arrays,
    witness_ids,
)


def _singleton_partition(g, alpha=1):
    return delays_to_partition(g, np.zeros(g.n, np.int64), alpha)


def _one_cluster_partition(g, alpha=1):
    delays = np.full(g.n, 50 * alpha, np.int64)
    delays[0] = 0  # the lowest id
    return delays_to_partition(g, delays, alpha)


def test_good_vertices_single_edge():
    g = Graph(edges=[(4, 9)])
    good = good_vertices(g)
    # equal degrees: larger id wins the edge
    assert good.dtype == bool and good.tolist() == [False, True]


def test_good_vertices_edge_mass():
    rng = random.Random(3)
    g = random_graph(rng, 100, 0.05)
    checks = ClaimChecker()
    good = good_ids(g, good_vertices(g, checks=checks))
    assert 2 * sum(g.degree(v) for v in good) >= g.m
    assert checks.counts["good-degree-mass"] == 1


def test_good_vertices_need_edges():
    with pytest.raises(PreconditionError):
        good_vertices(Graph(nodes=[1, 2]))


def test_witnesses_single_low_degree_neighbor():
    g = Graph(edges=[(0, 1)])
    assert witness_ids(g, good_witnesses(g)) == {1: (0,)}


def test_witnesses_stop_at_third():
    # node 9 has in-neighbors of degree 3 each: one term reaches 1/3
    edges = [(0, 9), (1, 9), (2, 9)]
    for extra, src in ((10, 0), (11, 0), (12, 1), (13, 1), (14, 2), (15, 2)):
        edges.append((src, extra))
    for extra in (16, 17, 18, 19, 20, 21):
        edges.append((9, extra))  # keep 9's degree above its in-neighbors'
    g = Graph(edges=edges)
    o = orient(g)
    assert g.degree(0) == g.degree(1) == g.degree(2) == 3
    witnesses = witness_ids(g, good_witnesses(g, o))
    assert witnesses[9] == (0,)


def test_witness_sums_in_window():
    rng = random.Random(7)
    g = random_graph(rng, 60, 0.1)
    if g.m == 0:
        return
    for v, members in witness_ids(g, good_witnesses(g)).items():
        total = sum(1.0 / g.degree(u) for u in members)
        assert 1.0 / 3.0 - 1e-12 <= total <= 4.0 / 3.0 + 1e-12


@st.composite
def relabelled_graphs(draw):
    """A graph with sparse 60-bit ids and no isolated node."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(rng, draw(st.integers(2, 50)), draw(st.sampled_from([0.05, 0.15, 0.4])))
    g = Graph(edges=g.edges()) if g.m else Graph(edges=[(0, 1)])
    return relabel(g, rng)


@settings(max_examples=150, deadline=None)
@given(relabelled_graphs())
def test_orientation_and_witnesses_match_the_loop_reference(g):
    o, ref = orient(g), ReferenceOrientation(g)
    for u in g.nodes:
        assert row_ids(g.nodes, o.out_csr(), u) == ref.out_neighbors(u)
        assert row_ids(g.nodes, o.in_csr(), u) == ref.in_neighbors(u)
    assert good_vertices(g, o).tolist() == mis_reference.good_vertices(g, ref)
    built = good_witnesses(g, o)
    expected = witness_arrays(g, mis_reference.witness_lists(g, ref))
    for got, want in zip(built, expected):
        assert got.dtype == want.dtype and got.tolist() == want.tolist()


def test_witness_sums_start_from_zero_for_every_node():
    # nodes 0-2 are a path and hub 10**6 has six in-neighbours 3..8 of
    # degree 6, each with five leaves: the inverse degrees listed before
    # the hub's sum to 2 + 6 * 5 = 32, and 1/6 + 1/6 reaches 1/3 from 0
    # but not as a difference of running totals from 32
    edges = [(0, 1), (0, 2)]
    leaf = 10**6 + 1
    for u in range(3, 9):
        edges.append((u, 10**6))
        for _ in range(5):
            edges.append((u, leaf))
            leaf += 1
    g = Graph(edges=edges)
    sixth = 1.0 / 6.0
    assert sixth + sixth >= 1.0 / 3.0 > (32.0 + sixth + sixth) - 32.0
    witnesses = witness_ids(g, good_witnesses(g))
    assert witnesses[10**6] == (3, 4)
    assert witnesses == mis_reference.witness_lists(g, ReferenceOrientation(g))


def test_intra_deterministic_branch():
    g = path(8)
    part = _singleton_partition(g)
    bound = 1000.0
    out = intra_round_mis(g, part, bound, seed=0)
    for u, x in zip(g.nodes, out.tolist()):
        assert x == pytest.approx(1.0 / (10.0 * g.degree(u)))


def test_intra_probabilistic_branch_two_outcomes():
    # one high-degree hub forced into the resampled branch by a tiny bound
    leaves = list(range(1, 1502))
    g = Graph(edges=[(0, leaf) for leaf in leaves])
    part = _one_cluster_partition(g)
    bound = 1.0  # cluster degree is 1 for every node: single cluster
    out_values = set()
    for seed in range(6):
        out = dict(zip(g.nodes, intra_round_mis(g, part, bound, seed=seed, n_total=2)))
        hub = out[0]
        floor_value = 1.0 / (10000.0 * bound * 1.0)
        assert hub in (0.0, pytest.approx(floor_value))
        out_values.add(round(hub, 9))
        for leaf in leaves:
            assert out[leaf] == pytest.approx(1.0 / 10.0)
    assert len(out_values) == 2


def test_intra_bound_must_cover_cluster_degree():
    g = path(5)
    part = _singleton_partition(g)
    with pytest.raises(PreconditionError):
        intra_round_mis(g, part, bound=1.0, seed=0)  # path sees 3 clusters


@pytest.mark.parametrize("bound", [0.0, -0.0, -3.0, -math.inf, math.nan])
def test_intra_refuses_a_bound_that_is_not_positive(bound):
    # refused before the floor divides by it; NaN fails every comparison,
    # so it must not slip past the cluster-degree check either
    g = Graph(edges=[(0, leaf) for leaf in range(1, 6)])
    part = _one_cluster_partition(g)
    with pytest.raises(PreconditionError, match=rf"^bound {bound} is not a positive number$"):
        intra_round_mis(g, part, bound, seed=0)


@pytest.mark.parametrize("override", [math.inf, -math.inf, math.nan, 0.0, -2.0])
@pytest.mark.parametrize("g", [path(6), Graph(nodes=[0, 1])])
def test_mis_refuses_an_override_that_is_not_finite_and_positive(monkeypatch, g, override):
    # refused before the clustering runs, edgeless input or not
    monkeypatch.setattr(importlib.import_module("localround.mis"), "cluster_all", None)
    want = "not finite" if override == math.inf else "not a positive number"
    with pytest.raises(PreconditionError, match=rf"^bound {override} is {want}$"):
        mis(g, f_override=override)


@pytest.mark.parametrize("alpha", [0, -5, 2.5, 2.0, True], ids=repr)
@pytest.mark.parametrize("g", [path(6), Graph(nodes=[0, 1]), Graph()], ids=["path", "edgeless", "empty"])
def test_mis_refuses_alpha_below_one(monkeypatch, g, alpha):
    # the empty graph returned a result before alpha was read, reporting
    # alpha 1 for 0 and -5 for -5, and 2.5 for 2.5; on a path, 2.5 raised
    # TypeError from range(10 * alpha) in the clustering
    monkeypatch.setattr(importlib.import_module("localround.mis"), "cluster_all", None)
    want = "alpha must be >= 1" if type(alpha) is int else f"alpha {alpha!r} is not an integer"
    with pytest.raises(PreconditionError, match=f"^{want}$"):
        mis(g, alpha=alpha)


def test_mis_of_the_empty_graph():
    res = mis(Graph())
    assert (res.independent_set, res.iterations, res.removed_fractions) == (frozenset(), 0, [])
    assert (res.alpha, res.degree_bound, res.log2_capacity, res.checks) == (1, 0.0, 0, {})
    assert mis(Graph(), alpha=3).alpha == 3


def test_intra_refuses_an_infinite_bound():
    g = Graph(edges=[(0, leaf) for leaf in range(1, 6)])
    with pytest.raises(PreconditionError, match="^bound inf is not finite$"):
        intra_round_mis(g, _one_cluster_partition(g), math.inf, seed=0)


def test_intra_needs_a_partition_of_h():
    g = path(4)
    part = _singleton_partition(path(3))
    with pytest.raises(PreconditionError, match="does not cover node 3"):
        intra_round_mis(g, part, 1000.0, seed=0)


def _subgraph_case(kind):
    """A graph g, a partition of it, a subgraph h of g without isolated
    nodes, a bound and a node count: for a seed, multi-node clusters from
    random delays; for "hub", one cluster holding a 1501-leaf star and a
    path, h the star, whose hub the tiny bound sends to resampling."""
    if kind == "hub":
        g = Graph(edges=[(0, leaf) for leaf in range(1, 1502)] + [(1501, 1502), (1502, 1503)])
        h = induced_subgraph(g, node_mask(g, range(1502)))
        return g, _one_cluster_partition(g), h, 1.0, 2
    rng = random.Random(kind)
    g = random_graph(rng, 120, 0.06)
    part = grow(g, {u: rng.randint(0, 3) for u in g.nodes}, 1)
    kept = induced_subgraph(g, node_mask(g, [u for u in g.nodes if rng.random() < 0.7]))
    h = induced_subgraph(kept, node_mask(kept, [u for u in kept.nodes if kept.degree(u)]))
    return g, part, h, float(h.n + 1), g.n


@pytest.mark.parametrize("kind", [0, 1, 2, "hub"])
def test_a_subgraph_floors_alike_with_the_whole_partition(kind):
    # what `mis` relies on to pass its one partition to every iteration:
    # on a subgraph h of g, g's partition gives the cluster degrees and
    # the floored values, claims included, of the partition of h's rows
    g, part, h, bound, n_total = _subgraph_case(kind)
    sub = partition_rows(part, h)
    assert sub.ids.size == h.n < g.n
    assert cluster_degrees(h, part).tolist() == cluster_degrees(h, sub).tolist()
    for seed in range(3):
        runs = []
        for given in (part, sub):
            checks = ClaimChecker()
            x = intra_round_mis(h, given, bound, seed, n_total, checks=checks)
            runs.append((x.tolist(), checks.counts))
        assert runs[0] == runs[1]


def test_intra_global_windows():
    rng = random.Random(11)
    g = random_graph(rng, 150, 0.05)
    part = _singleton_partition(g)
    checks = ClaimChecker()
    x = intra_round_mis(g, part, bound=float(g.n + 1), seed=2, checks=checks)
    out = dict(zip(g.nodes, x.tolist()))
    o = orient(g)
    for members in witness_ids(g, good_witnesses(g, o)).values():
        mass = sum(out[u] for u in members)
        assert 1.0 / 1000.0 - 1e-12 <= mass <= 1.0 / 3.0 + 1e-12
    for u in g.nodes:
        assert sum(out[w] for w in row_ids(g.nodes, o.out_csr(), u)) <= 0.25 + 1e-12
    # one check per good vertex and one per node, as the loops made them
    assert checks.counts["witness-mass-window"] == np.count_nonzero(good_vertices(g))
    assert checks.counts["out-mass-cap"] == g.n


def test_ok_each_counts_every_element_and_names_the_first_failure():
    checks = ClaimChecker()
    checks.ok_each("window", np.array([True, True, True]), str)
    checks.ok_each("cap", np.array([], bool), str)
    assert checks.counts == {"window": 3}  # an empty batch adds no key
    with pytest.raises(ClaimViolation, match="window: element 1"):
        checks.ok_each("window", np.array([True, False, False]), "element {}".format)


def test_instance_single_edge_tables():
    g = Graph(edges=[(0, 1)])
    o = orient(g)
    witnesses = witness_arrays(g, {1: (0,)})
    x = {0: 0.05, 1: 0.05}
    inst = build_mis_instance(g, witnesses, o)
    # utility is deg(1)/2 * x_0; cost is deg(1)/2 * x_0 * x_1
    lam = FractionalAssignment(g.nodes, [x[u] for u in g.nodes])
    utility, cost = evaluate(inst, lam)
    assert utility == pytest.approx(0.5 * 0.05)
    assert cost == pytest.approx(0.5 * 0.05 * 0.05)


def test_instance_triangle_hand_expansion():
    g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
    o = orient(g)
    assert good_ids(g, good_vertices(g)) == [2, 3]
    witnesses = good_witnesses(g, o)
    assert witness_ids(g, witnesses) == {2: (1,), 3: (1,)}
    x = {1: 0.1, 2: 0.2, 3: 0.3}
    inst = build_mis_instance(g, witnesses, o)
    lam = FractionalAssignment(g.nodes, [x[u] for u in g.nodes])
    utility, cost = evaluate(inst, lam)
    # hand expansion: degrees are all 2, so each good vertex weighs 1
    assert utility == pytest.approx(x[1] + x[1])
    assert cost == pytest.approx(2 * x[1] * x[2] + 2 * x[1] * x[3])


def test_instance_estimator_slack_on_random_graph():
    rng = random.Random(5)
    g = random_graph(rng, 80, 0.1)
    part = _singleton_partition(g)
    checks = ClaimChecker()
    o = orient(g)
    witnesses = good_witnesses(g, o)
    x = intra_round_mis(g, part, float(g.n + 1), seed=1, orientation=o, witnesses=witnesses)
    inst = build_mis_instance(g, witnesses, o)
    luby_derandomized_iteration(g, part, float(g.n + 1), seed=1, checks=checks)
    assert checks.counts["estimator-slack"] == 1
    lam = FractionalAssignment(g.nodes, x)
    utility, cost = evaluate(inst, lam)
    assert utility - cost >= utility / 3.0 - 1e-9


def test_instance_needs_witness_lists_that_are_in_neighbour_prefixes():
    g = Graph(edges=[(0, 1), (0, 2), (0, 3)])  # the leaves point into the centre
    o = orient(g)
    inst = build_mis_instance(g, witness_arrays(g, {0: (1, 2)}), o)
    assert list(edge_terms(inst)) == [(1, 2), (0, 1), (0, 2)]
    for lists in ({0: (2,)}, {0: (1, 3)}, {0: (2, 1)}, {1: (0,)}):
        with pytest.raises(PreconditionError, match="not prefixes of their in-neighbours"):
            build_mis_instance(g, witness_arrays(g, lists), o)


@pytest.mark.parametrize("seed", range(4))
def test_closed_neighbourhoods_lay_out_each_row_with_its_node(seed):
    rng = random.Random(seed)
    h = relabel(random_graph(rng, 60, 0.08), rng) if seed % 2 else gnp(300, 0.02, seed=seed)
    cover, hub_at, own_at = closed_neighbourhoods(h)
    indptr, nbr = h.csr()
    assert cover.nodes == h.nodes and conflict_pairs(cover) == square_graph(h)
    for v in range(h.n):  # hub v is N[v], increasing
        hub = cover.members[cover.hub_ptr[v] : cover.hub_ptr[v + 1]].tolist()
        assert hub == sorted([v, *nbr[indptr[v] : indptr[v + 1]].tolist()])
    # where each entry of h's rows, and each node itself, sits in its hub
    assert cover.members[hub_at].tolist() == nbr.tolist()
    assert cover.hub[hub_at].tolist() == np.repeat(np.arange(h.n), np.diff(indptr)).tolist()
    assert cover.members[own_at].tolist() == cover.hub[own_at].tolist() == list(range(h.n))


@st.composite
def witnessed_graphs(draw):
    """A graph without isolated nodes (sparse ids or not), an orientation,
    and witness lists for its good vertices in a drawn order; the lists are
    either `select_witnesses` or all of a node's in-neighbours."""
    n = draw(st.integers(2, 40))
    rng = random.Random(draw(st.integers(0, 2**32)))
    g = random_graph(rng, n, draw(st.sampled_from([0.08, 0.2, 0.5])))
    g = Graph(edges=g.edges())
    if g.m == 0:
        g = Graph(edges=[(0, 1)])
    if draw(st.booleans()):
        g = relabel(g, rng)
    o, ref = orient(g), ReferenceOrientation(g)
    good = draw(st.permutations(good_ids(g, good_vertices(g, o))))
    full = draw(st.booleans())
    witnesses = {v: ref.in_neighbors(v) if full else select_witnesses(g, ref, v) for v in good}
    return g, o, witnesses


def _assert_terms_match_loop_reference(g, o, witnesses):
    inst = build_mis_instance(g, witness_arrays(g, witnesses), o)
    lin, pair_cost = reference_mis_terms(g, witnesses, ReferenceOrientation(g))
    # the same node terms (listed in id order) and the same pair terms in
    # the same (first-occurrence) order, values bit for bit
    nodes, pairs = node_terms(inst), edge_terms(inst)
    assert list(nodes) == sorted(lin)
    assert nodes == {u: (c, 0.0) for u, c in lin.items()}
    assert len(inst.edge_terms) == len(pair_cost)
    assert list(pairs) == list(pair_cost)
    assert [pairs[k] for k in pair_cost] == list(pair_cost.values())


@settings(max_examples=200, deadline=None)
@given(witnessed_graphs())
def test_instance_terms_match_loop_reference(case):
    _assert_terms_match_loop_reference(*case)


def test_instance_terms_match_loop_reference_at_scale():
    g = gnp(2000, 8 / 1999, seed=1)
    g = Graph(edges=g.edges())
    o, ref = orient(g), ReferenceOrientation(g)
    witnesses = {v: select_witnesses(g, ref, v) for v in good_ids(g, good_vertices(g, o))}
    _assert_terms_match_loop_reference(g, o, witnesses)


def test_iteration_single_edge():
    g = Graph(edges=[(0, 1)])
    out = luby_derandomized_iteration(g, _singleton_partition(g), 10.0, seed=0)
    assert out.edges_removed == 1
    assert out.added.tolist().count(True) == 1
    assert out.removed.tolist() == [True, True]


def test_iteration_star():
    g = Graph(edges=[(0, leaf) for leaf in range(1, 11)])
    out = luby_derandomized_iteration(g, _singleton_partition(g), 20.0, seed=0)
    assert out.edges_removed >= 1
    assert 24000 * out.edges_removed >= g.m


def test_iteration_estimator_sound():
    rng = random.Random(9)
    g = random_graph(rng, 60, 0.12)
    checks = ClaimChecker()
    out = luby_derandomized_iteration(
        g, _singleton_partition(g), float(g.n + 1), seed=0, checks=checks
    )
    assert checks.counts["estimator-sound"] == 1
    assert checks.counts["removed-edges-floor"] == 1
    assert out.edges_removed >= 1


def test_mis_edgeless():
    g = Graph(nodes=range(10))
    res = mis(g)
    assert res.independent_set == frozenset(g.nodes)
    assert res.iterations == 0


def test_mis_clique():
    res = mis(complete(9))
    assert len(res.independent_set) == 1


def test_mis_small_battery():
    rng = random.Random(1)
    graphs = [
        gnp(17, 0.2, seed=3),
        gnp(40, 0.1, seed=4),
        path(23),
        tree(31, seed=5),
        complete(6),
        Graph(nodes=range(5)),
    ]
    for g in graphs:
        res = mis(g)
        assert verify_mis(g, res.independent_set)
        if g.m:
            bound = math.ceil(24000 * math.log(g.m + 1)) + 1
            assert res.iterations <= bound
            assert all(f >= 1 / 24000 for f in res.removed_fractions)


def test_mis_deterministic_and_ledger():
    g = gnp(50, 0.08, seed=6)
    led_a, led_b = RoundLedger(), RoundLedger()
    a = mis(g, seed=3, ledger=led_a)
    b = mis(g, seed=3, ledger=led_b)
    assert a.independent_set == b.independent_set
    assert led_a.report() == led_b.report()
    labels = {row["label"] for row in led_a.report()["rows"]}
    assert {"delay-broadcast", "mark-rounding", "intra-gather"} <= labels


def test_each_iteration_charges_one_rounding_pass(monkeypatch):
    mis_module = importlib.import_module("localround.mis")
    real = mis_module.greedy_color
    colors = []

    def recording(conflict):
        coloring = real(conflict)
        colors.append(coloring.num_colors)
        return coloring

    monkeypatch.setattr(mis_module, "greedy_color", recording)
    led = RoundLedger()
    res = mis(gnp(50, 0.08, seed=6), seed=3, ledger=led)
    at = [k for k, e in enumerate(led.entries) if e.label == "mark-rounding"]
    assert len(at) == res.iterations == len(colors) > 0
    rows = [(led.entries[k].radius, led.entries[k].rounds) for k in at]
    assert rows == [(4, 4 * c) for c in colors]
    # each right after its iteration's gather
    assert all(led.entries[k - 1].label == "intra-gather" for k in at)


def test_mis_with_f_override_stress():
    # a legal but tight bound keeps every claim intact
    g = gnp(35, 0.15, seed=8)
    res = mis(g, f_override=float(g.n + 1), seed=0)
    assert verify_mis(g, res.independent_set)


def test_luby_randomized_examples():
    assert len(luby_randomized(Graph(edges=[(0, 1)]), seed=1).independent_set) == 1
    edgeless = Graph(nodes=range(7))
    assert luby_randomized(edgeless, seed=1).independent_set == frozenset(range(7))


def test_luby_randomized_battery():
    rng = random.Random(2)
    for seed in range(5):
        g = random_graph(rng, 80, 0.06)
        res = luby_randomized(g, seed=seed)
        assert verify_mis(g, res.independent_set)


def test_verify_mis_examples():
    g = path(3)
    assert verify_mis(g, {0, 2})
    assert verify_mis(g, {1})
    assert not verify_mis(g, {0})  # node 2 uncovered
    assert not verify_mis(g, {0, 1})  # adjacent pair
    assert not verify_mis(g, {5})  # unknown node


def test_fraction_log_against_randomized_baseline():
    g = gnp(300, 0.03, seed=50)
    det = mis(g)
    assert all(24000 * f >= 1 - 1e-12 for f in det.removed_fractions)
    rand_iters = []
    for seed in range(5):
        rand = luby_randomized(g, seed=seed)
        assert verify_mis(g, rand.independent_set)
        rand_iters.append(rand.iterations)
    # the derandomized iterations remove large fractions, so the loop is
    # never longer than the randomized baseline by more than a constant
    assert det.iterations <= 10 * max(rand_iters) + 10


def test_mis_with_sparse_random_ids():
    rng = random.Random(3)
    from conftest import relabel

    for seed in range(4):
        base = gnp(40, 0.12, seed=seed)
        g = relabel(base, rng)
        assert id_bits(g) > 32  # genuinely wide identifiers
        res = mis(g)
        assert verify_mis(g, res.independent_set)


@st.composite
def selections(draw):
    """A graph on sparse 60-bit ids or small ones, isolated nodes included
    (the empty graph too), and a set to verify: a first-fit maximal
    independent set, perhaps with nodes added or dropped, or any subset;
    either perhaps with ids that are not nodes."""
    n = draw(st.integers(0, 40))
    g = gnp(n, draw(st.sampled_from([0.0, 0.05, 0.15, 0.5])), seed=draw(st.integers(0, 999)))
    if draw(st.booleans()):
        g = relabel(g, random.Random(draw(st.integers(0, 999))))
    if draw(st.booleans()):
        chosen = set()
        for u in g.nodes:
            if not any(v in chosen for v in g.neighbors(u)):
                chosen.add(u)
        for u in draw(st.lists(st.sampled_from(g.nodes), max_size=2)) if n else []:
            chosen ^= {u}
    else:
        chosen = {u for u in g.nodes if draw(st.booleans())}
    if draw(st.integers(0, 3)) == 0:
        chosen |= set(draw(st.lists(st.integers(0, 2**63 + 5), min_size=1, max_size=2)))
    return g, frozenset(chosen)


@settings(max_examples=300, deadline=None)
@given(selections())
def test_verify_mis_matches_the_reference(case):
    g, chosen = case
    assert verify_mis(g, chosen) == reference_verify_mis(g, chosen)


def test_mis_builds_no_neighbor_tuples(monkeypatch):
    g = gnp(2048, 0.004, seed=1)
    builds = count_neighbor_tuple_builds(monkeypatch)
    res = mis(g)
    assert builds == []
    assert reference_verify_mis(g, res.independent_set)


def test_mis_builds_no_square_graph(monkeypatch):
    # the rounding colors and checks the square through its cliques
    graphs_module = importlib.import_module("localround.graphs")
    mis_module = importlib.import_module("localround.mis")

    def refuse(g):
        raise AssertionError("square_graph called")

    monkeypatch.setattr(graphs_module, "square_graph", refuse)
    monkeypatch.setattr(mis_module, "square_graph", refuse)
    for g in (gnp(2048, 0.004, seed=1), path(300), Graph(edges=[(0, 1)])):
        res = mis(g, seed=3)
        assert res.iterations > 0 and reference_verify_mis(g, res.independent_set)


# bytes per edge that one derandomized iteration may trace on
# G(4096, 8/n): 327-329 measured with numpy 2.4.6 over generator seeds
# 1-2; 392-394 when the rounding colored and checked h's square itself,
# and 401-402 when the iteration holds the square beside its cliques
ITERATION_BYTES_PER_EDGE = 360


def traced_iteration_bytes_per_edge(seed: int) -> float:
    g = strip_isolated(gnp(4096, 8 / 4095, seed=seed))
    part = cluster_all(g, max(1, math.ceil(math.sqrt(base_capacity_exponent(g.n)))))
    bound = float(part.meta["degree_bound"])
    tracemalloc.start()
    try:
        luby_derandomized_iteration(g, part, bound, 0, g.n)
        return tracemalloc.get_traced_memory()[1] / g.m
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("seed", [1, 2])
def test_iteration_memory_per_edge_is_bounded(seed):
    assert traced_iteration_bytes_per_edge(seed) < ITERATION_BYTES_PER_EDGE


def test_iteration_memory_bound_catches_a_kept_square(monkeypatch):
    mis_module = importlib.import_module("localround.mis")
    real, kept = mis_module.closed_neighbourhoods, []

    def with_square(h):
        kept.append(square_graph(h))
        return real(h)

    monkeypatch.setattr(mis_module, "closed_neighbourhoods", with_square)
    assert traced_iteration_bytes_per_edge(1) >= ITERATION_BYTES_PER_EDGE


def test_an_iteration_evaluates_each_labeling_once(monkeypatch):
    # the fractional marks keep the value computed for them on the
    # instance, and the rounding returns the value of its labels, so each
    # is computed once; the iteration's one coloring is checked once
    rounding = importlib.import_module("localround.rounding")
    computed, proper = [], []
    objective, is_proper = rounding._objective, rounding.is_proper

    def counted(inst, probs):
        computed.append(inst)
        return objective(inst, probs)

    def counted_proper(g, colors):
        proper.append(g)
        return is_proper(g, colors)

    monkeypatch.setattr(rounding, "_objective", counted)
    monkeypatch.setattr(rounding, "is_proper", counted_proper)
    res = mis(gnp(2048, 0.004, seed=1))
    assert res.iterations > 0
    assert len(computed) == 2 * res.iterations
    assert len(proper) == res.iterations
