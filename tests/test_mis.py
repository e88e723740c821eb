import importlib
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localround.clustering import delays_to_partition
from localround.errors import ClaimChecker, ClaimViolation, PreconditionError
from localround.generators import complete, gnp, path, tree
from localround.graphs import Graph, orient, strip_isolated
from localround.ledger import RoundLedger
from localround.mis import (
    build_mis_instance,
    good_vertices,
    good_witnesses,
    intra_round_mis,
    luby_derandomized_iteration,
    luby_randomized,
    mis,
    verify_mis,
    witness_arrays,
)
from localround.rounding import FractionalAssignment, evaluate

import mis_reference
from conftest import count_neighbor_tuple_builds, random_graph, relabel
from mis_reference import (
    reference_mis_terms,
    reference_verify_mis,
    select_witnesses,
    witness_ids,
)


def _singleton_partition(g, alpha=1):
    return delays_to_partition(g, {u: 0 for u in g.nodes}, alpha)


def _one_cluster_partition(g, alpha=1):
    center = min(g.nodes)
    delays = {u: 50 * alpha for u in g.nodes}
    delays[center] = 0
    return delays_to_partition(g, delays, alpha)


def test_good_vertices_single_edge():
    g = Graph(edges=[(4, 9)])
    good = good_vertices(g)
    assert good == frozenset({9})  # equal degrees: larger id wins the edge


def test_good_vertices_edge_mass():
    rng = random.Random(3)
    g = random_graph(rng, 100, 0.05)
    checks = ClaimChecker()
    good = good_vertices(g, checks=checks)
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
    o, ref = orient(g), mis_reference.ReferenceOrientation(g)
    for u in g.nodes:
        assert o.out_neighbors(u) == ref.out_neighbors(u)
        assert o.in_neighbors(u) == ref.in_neighbors(u)
    assert good_vertices(g, o) == mis_reference.good_vertices(g, ref)
    built = good_witnesses(g, o)
    expected = witness_arrays(g, o, mis_reference.witness_lists(g, ref))
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
    ref = mis_reference.ReferenceOrientation(g)
    assert witnesses == mis_reference.witness_lists(g, ref)


def test_intra_deterministic_branch():
    g = path(8)
    part = _singleton_partition(g)
    bound = 1000.0
    out = intra_round_mis(g, part, bound, seed=0)
    for u in g.nodes:
        assert out[u] == pytest.approx(1.0 / (10.0 * g.degree(u)))


def test_intra_probabilistic_branch_two_outcomes():
    # one high-degree hub forced into the resampled branch by a tiny bound
    leaves = list(range(1, 1502))
    g = Graph(edges=[(0, leaf) for leaf in leaves])
    part = _one_cluster_partition(g)
    bound = 1.0  # cluster degree is 1 for every node: single cluster
    out_values = set()
    for seed in range(6):
        out = intra_round_mis(g, part, bound, seed=seed, n_total=2)
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


@pytest.mark.parametrize(
    "witnesses, message",
    [
        ({1: (3,)}, "witness 3 of node 1 is not an in-neighbour"),
        ({1: (2,)}, "witness 2 of node 1 is not an in-neighbour"),
        ({2: (1, 7)}, "unknown node 7"),
        ({7: (1,)}, "unknown node 7"),
        ({2: (2**64,)}, "outside"),
    ],
)
def test_intra_rejects_malformed_witnesses(witnesses, message):
    # intra_round_mis takes witness lists only as arrays, and
    # witness_arrays, the one converter, is where they are checked
    g = path(4)  # oriented 0 -> 1 -> 2 <- 3 by (degree, id)
    with pytest.raises(PreconditionError, match=message):
        witness_arrays(g, orient(g), witnesses)


def test_intra_needs_a_partition_of_h():
    g = path(4)
    part = _singleton_partition(g).restrict([0, 1, 2])
    with pytest.raises(PreconditionError, match="does not cover node 3"):
        intra_round_mis(g, part, 1000.0, seed=0)


def test_iteration_builds_its_witnesses_without_converting(monkeypatch):
    mis_module = importlib.import_module("localround.mis")
    real = mis_module.witness_arrays
    converted = []

    def counting(h, orientation, witnesses):
        converted.append(len(witnesses))
        return real(h, orientation, witnesses)

    monkeypatch.setattr(mis_module, "witness_arrays", counting)
    g = strip_isolated(gnp(200, 0.05, seed=4))
    part = _singleton_partition(g)
    luby_derandomized_iteration(g, part, float(g.n + 1), seed=1)
    # the iteration builds the arrays itself, and the floor and the
    # instance build take them; no witness mapping is converted
    assert converted == []


def test_intra_global_windows():
    rng = random.Random(11)
    g = random_graph(rng, 150, 0.05)
    part = _singleton_partition(g)
    checks = ClaimChecker()
    out = intra_round_mis(g, part, bound=float(g.n + 1), seed=2, checks=checks)
    o = orient(g)
    for members in witness_ids(g, good_witnesses(g, o)).values():
        mass = sum(out[u] for u in members)
        assert 1.0 / 1000.0 - 1e-12 <= mass <= 1.0 / 3.0 + 1e-12
    for u in g.nodes:
        assert sum(out[w] for w in o.out_neighbors(u)) <= 0.25 + 1e-12
    # one check per good vertex and one per node, as the loops made them
    assert checks.counts["witness-mass-window"] == len(good_vertices(g))
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
    witnesses = witness_arrays(g, o, {1: (0,)})
    x = {0: 0.05, 1: 0.05}
    inst = build_mis_instance(g, witnesses, o)
    # utility is deg(1)/2 * x_0; cost is deg(1)/2 * x_0 * x_1
    lam = FractionalAssignment({u: (1.0 - x[u], x[u]) for u in g.nodes})
    utility, cost = evaluate(inst, lam)
    assert utility == pytest.approx(0.5 * 0.05)
    assert cost == pytest.approx(0.5 * 0.05 * 0.05)


def test_instance_triangle_hand_expansion():
    g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
    o = orient(g)
    good = good_vertices(g)
    assert good == frozenset({2, 3})
    witnesses = good_witnesses(g, o)
    assert witness_ids(g, witnesses) == {2: (1,), 3: (1,)}
    x = {1: 0.1, 2: 0.2, 3: 0.3}
    inst = build_mis_instance(g, witnesses, o)
    lam = FractionalAssignment({u: (1.0 - x[u], x[u]) for u in g.nodes})
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
    lam = FractionalAssignment({u: (1.0 - x[u], x[u]) for u in g.nodes})
    utility, cost = evaluate(inst, lam)
    assert utility - cost >= utility / 3.0 - 1e-9


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
    o = orient(g)
    good = draw(st.permutations(sorted(good_vertices(g, o))))
    full = draw(st.booleans())
    witnesses = {v: o.in_neighbors(v) if full else select_witnesses(g, o, v) for v in good}
    return g, o, witnesses


def _assert_terms_match_loop_reference(g, o, witnesses):
    inst = build_mis_instance(g, witness_arrays(g, o, witnesses), o)
    lin, pair_cost = reference_mis_terms(g, witnesses, o)
    # same keys in the same (first-occurrence) order, same values bit for bit
    assert list(inst.node_terms) == list(lin)
    assert [inst.node_terms[u] for u in lin] == [((0.0, c), (0.0, 0.0)) for c in lin.values()]
    assert list(inst.edge_terms) == list(pair_cost)
    zero = ((0.0, 0.0), (0.0, 0.0))
    assert [inst.edge_terms[k] for k in pair_cost] == [
        (zero, ((0.0, 0.0), (0.0, c))) for c in pair_cost.values()
    ]


@settings(max_examples=200, deadline=None)
@given(witnessed_graphs())
def test_instance_terms_match_loop_reference(case):
    _assert_terms_match_loop_reference(*case)


def test_instance_terms_match_loop_reference_at_scale():
    g = gnp(2000, 8 / 1999, seed=1)
    g = Graph(edges=g.edges())
    o = orient(g)
    witnesses = {v: select_witnesses(g, o, v) for v in sorted(good_vertices(g, o))}
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
        assert g.b > 32  # genuinely wide identifiers
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


def test_an_iteration_evaluates_each_labeling_once(monkeypatch):
    # the fractional marks and the rounded labels each keep the value
    # computed for them on the instance, so asking again computes nothing
    rounding = importlib.import_module("localround.rounding")
    computed = []
    objective = rounding._objective

    def counted(inst, probs):
        computed.append(inst)
        return objective(inst, probs)

    monkeypatch.setattr(rounding, "_objective", counted)
    res = mis(gnp(2048, 0.004, seed=1))
    assert res.iterations > 0
    assert len(computed) == 2 * res.iterations
