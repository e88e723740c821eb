import dataclasses
import math
import random
import re
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hitting_reference
import localround.rounding as rounding
from localround.errors import ClaimViolation, PreconditionError, plain_sum
from localround.hitting import (
    BipartiteInstance,
    basic_guarantee,
    basic_hitting_set,
    conflict_graph,
    grouped_guarantee,
    grouped_hitting_set,
    split_into_copies,
)
from localround.oracles import exhaustive_hitting_check

from conftest import random_hitting_instance
from rounding_reference import conflict_pairs


def test_conflict_graph_triangle():
    inst = BipartiteInstance((9,), (1, 2, 3), {9: (3, 1, 2)}, {9: 1.0}, 3, 0.5, 0.0)
    cg = conflict_graph(inst)
    # one hub, the left node's neighbours as increasing positions
    assert cg.nodes == (1, 2, 3)
    assert cg.hub_ptr.tolist() == [0, 3] and cg.members.tolist() == [0, 1, 2]
    assert set(conflict_pairs(cg).edges()) == {(1, 2), (1, 3), (2, 3)}


def test_conflict_graph_disjoint_neighborhoods():
    inst = BipartiteInstance(
        (10, 11),
        (0, 1, 2, 3),
        {10: (0, 1), 11: (2, 3)},
        {10: 1.0, 11: 1.0},
        2,
        0.5,
        0.0,
    )
    cg = conflict_graph(inst)
    assert set(conflict_pairs(cg).edges()) == {(0, 1), (2, 3)}


def test_conflict_graph_matches_pair_enumeration():
    rng = random.Random(2)
    inst = random_hitting_instance(rng, n_u=10, n_v=14, delta=5)
    cg = conflict_graph(inst)
    expected = set()
    for u in inst.u_nodes:  # double-loop oracle
        nbrs = inst.adj[u]
        for i, a in enumerate(nbrs):
            for b in nbrs[i + 1 :]:
                expected.add((min(a, b), max(a, b)))
    assert set(conflict_pairs(cg).edges()) == expected


def test_forced_hit():
    inst = BipartiteInstance((100,), (0,), {100: (0,)}, {100: 1.0}, 1, 1.0, 0.0)
    res = basic_hitting_set(inst)
    assert res.selected == frozenset({0})
    lhs, rhs = basic_guarantee(inst, res.selected)
    assert lhs <= rhs
    assert exhaustive_hitting_check(inst)


def test_zero_weights_selects_nothing():
    rng = random.Random(4)
    inst = random_hitting_instance(rng, norm=1.0)
    inst = BipartiteInstance(
        inst.u_nodes, inst.v_nodes, inst.adj, {u: 0.0 for u in inst.u_nodes},
        inst.delta, inst.p, 1.0,
    )
    res = basic_hitting_set(inst)
    assert res.selected == frozenset()
    assert len(res.selected) <= 4 * inst.p * len(inst.v_nodes)


def test_basic_guarantee_random_instance():
    rng = random.Random(8)
    inst = random_hitting_instance(
        rng, n_u=8, n_v=12, delta=4, p=0.3, norm=0.1, unit_weights=True
    )
    res = basic_hitting_set(inst)
    lhs, rhs = basic_guarantee(inst, res.selected)
    assert lhs <= rhs * (1 + 1e-9)
    assert exhaustive_hitting_check(inst)


def test_potential_monotone_and_endpoints():
    rng = random.Random(13)
    inst = random_hitting_instance(rng, n_u=10, n_v=16, delta=5, p=0.25, norm=0.2)
    res = basic_hitting_set(inst)
    t = math.ceil(10 * inst.p * inst.delta)
    assert len(res.phis) == t + 1
    for a, b in zip(res.phis, res.phis[1:]):
        assert b <= a * (1 + 1e-9) + 1e-12
    # endpoints of the potential are the two sides of the guarantee
    lhs, rhs = basic_guarantee(inst, res.selected)
    assert res.phis[0] == pytest.approx(rhs)
    assert res.phis[-1] == pytest.approx(lhs)


def test_batch_score_dominates_unhit_indicator():
    rng = random.Random(17)
    inst = random_hitting_instance(rng, n_u=8, n_v=10, delta=4, p=0.3)
    res = basic_hitting_set(inst)
    for step in res.steps:
        for u in inst.u_nodes:
            hit = len(step.chosen.intersection(inst.adj[u]))
            y = 1.0 - hit + hit * (hit - 1) / 2.0
            assert y >= (1.0 if hit == 0 else 0.0)


def test_fractional_price_dominance_per_step():
    rng = random.Random(19)
    inst = random_hitting_instance(rng, n_u=9, n_v=15, delta=5, p=0.2, norm=0.05)
    res = basic_hitting_set(inst)
    for step in res.steps:
        assert step.frac_utility >= 2.0 * step.frac_cost - 1e-9


def test_a_step_evaluates_each_labeling_once(monkeypatch):
    # the step's fractional labeling is evaluated once, for the price
    # check and the rounding's precondition, and the batch once
    computed = []
    objective = rounding._objective

    def counted(inst, probs):
        computed.append(inst)
        return objective(inst, probs)

    monkeypatch.setattr(rounding, "_objective", counted)
    rng = random.Random(19)
    res = basic_hitting_set(random_hitting_instance(rng, n_u=9, n_v=15, delta=5, p=0.2))
    assert len(res.steps) > 0 and len(computed) == 2 * len(res.steps)


def test_a_solve_checks_its_coloring_once(monkeypatch):
    # shaped like the benchmark's hitting workload: the copies have
    # delta = k = 4 and p = 0.25, so the solve runs 10 steps on one
    # coloring; it checks the coloring, its pair entries and orders the
    # color classes once, and evaluates each step's two labelings once
    proper, computed, paired, ordered = [], [], [], []
    is_proper, objective = rounding.is_proper, rounding._objective
    pair_ends, class_order = rounding.CliqueCover.pair_ends, rounding._class_order

    def counted_proper(g, colors):
        proper.append(g)
        return is_proper(g, colors)

    def counted(inst, probs):
        computed.append(inst)
        return objective(inst, probs)

    def counted_pairs(cover, entry_u, entry_v):
        paired.append(len(entry_u))
        return pair_ends(cover, entry_u, entry_v)

    def counted_order(colors, num_colors):
        ordered.append(len(colors))
        return class_order(colors, num_colors)

    monkeypatch.setattr(rounding, "is_proper", counted_proper)
    monkeypatch.setattr(rounding, "_objective", counted)
    monkeypatch.setattr(rounding.CliqueCover, "pair_ends", counted_pairs)
    monkeypatch.setattr(rounding, "_class_order", counted_order)
    rng = random.Random(8)
    inst = random_hitting_instance(rng, n_u=40, n_v=200, delta=8, p=0.25, norm=0.05, k=4)
    res = grouped_hitting_set(inst)
    assert len(res.steps) == 10
    assert len(proper) == 1 and len(computed) == 2 * len(res.steps)
    # every copy's 4 * 3 / 2 pairs, 2 copies per left node
    assert paired == [40 * 2 * 6] and ordered == [200]


def test_a_selection_outside_v_is_refused():
    # charged norm = 0.5 per selected id, 99 would add 0.5 and hit nothing
    inst = BipartiteInstance(
        (1, 2), (10, 11), {1: (10,), 2: (11,)}, {1: 1.0, 2: 1.0}, 1, 0.5, 0.5, 1
    )
    assert basic_guarantee(inst, frozenset())[0] == 2.0
    for guarantee in (basic_guarantee, grouped_guarantee):
        with pytest.raises(PreconditionError, match="selected node 99 is not in V"):
            guarantee(inst, frozenset({99}))
        with pytest.raises(PreconditionError, match="selected node 99 is not in V"):
            guarantee(inst, frozenset({10, 99}))


def test_split_wiring_disjoint_blocks():
    nbrs = (3, 7, 11, 15)
    inst = BipartiteInstance((5,), nbrs, {5: nbrs}, {5: 1.0}, 4, 0.6, 0.0, k=2)
    split = split_into_copies(inst)
    assert len(split.u_nodes) == 2
    # smallest ids first, consecutive blocks, no shared neighbors
    blocks = [split.adj[u] for u in split.u_nodes]
    assert blocks == [(3, 7), (11, 15)]
    assert split.delta == 2
    assert split.weights[split.u_nodes[0]] == pytest.approx(1.0)  # 2*w/2


def test_split_blocks_neighbours_in_id_order():
    # adj need not list a left node's neighbours in increasing order
    inst = BipartiteInstance(
        (5,), (3, 7, 11, 15), {5: (15, 3, 11, 7)}, {5: 1.0}, 4, 0.6, 0.0, k=2
    )
    split = split_into_copies(inst)
    assert [split.adj[u] for u in split.u_nodes] == [(3, 7), (11, 15)]


def test_split_leftover_neighbors_unused():
    nbrs = tuple(range(0, 14, 2))  # 7 neighbors, k=3 -> 2 copies, 1 unused
    inst = BipartiteInstance((9,), nbrs, {9: nbrs}, {9: 2.0}, 7, 0.5, 0.0, k=3)
    split = split_into_copies(inst)
    used = [v for u in split.u_nodes for v in split.adj[u]]
    assert len(used) == 6
    assert len(set(used)) == 6
    assert all(split.weights[u] == pytest.approx(2.0) for u in split.u_nodes)


def test_grouped_degenerate_k_equals_delta():
    rng = random.Random(23)
    inst = random_hitting_instance(rng, n_u=6, n_v=10, delta=3, p=0.4, norm=0.1, k=3)
    res = grouped_hitting_set(inst)
    lhs, rhs = grouped_guarantee(inst, res.selected)
    assert lhs <= rhs * (1 + 1e-9)
    # threshold 0.5*floor(3/3) means "under-hit" collapses to "unhit"
    assert 0.5 * (inst.delta // inst.k) < 1


def test_grouped_guarantee_random():
    rng = random.Random(29)
    for _ in range(8):
        inst = random_hitting_instance(
            rng, n_u=7, n_v=13, delta=6, p=0.5, norm=0.15, k=2
        )
        res = grouped_hitting_set(inst)
        lhs, rhs = grouped_guarantee(inst, res.selected)
        assert lhs <= rhs * (1 + 1e-9)
        assert exhaustive_hitting_check(inst)


def test_grouped_reference_parameters():
    # the shape used by the constant-fraction clustering step: a capacity
    # exponent of 2 gives block size 100 and occupancy threshold 200
    rng = random.Random(31)
    k = 100
    delta = 200
    n_v = 250
    v_nodes = tuple(range(n_v))
    u_nodes = tuple(range(10_000, 10_004))
    adj = {u: tuple(sorted(rng.sample(v_nodes, delta))) for u in u_nodes}
    inst = BipartiteInstance(
        u_nodes, v_nodes, adj, {u: 1.0 for u in u_nodes}, delta, 1.0 / 16.0, 1e-4, k
    )
    res = grouped_hitting_set(inst)
    lhs, rhs = grouped_guarantee(inst, res.selected)
    assert lhs <= rhs * (1 + 1e-9)
    # with four weighted nodes and e^{-pk} tiny, everyone must be well hit
    threshold = 0.5 * (delta // k)
    for u in u_nodes:
        assert len(res.selected.intersection(adj[u])) > threshold


def test_instance_validation():
    with pytest.raises(PreconditionError):
        BipartiteInstance((1,), (0,), {1: (0, 0)}, {1: 1.0}, 2, 0.5, 0.0)
    with pytest.raises(PreconditionError):
        BipartiteInstance((1,), (0,), {1: (0,)}, {1: 1.0}, 1, 0.0, 0.0)
    with pytest.raises(PreconditionError):
        BipartiteInstance((1,), (0,), {1: (0,)}, {1: -1.0}, 1, 0.5, 0.0)
    with pytest.raises(PreconditionError):
        BipartiteInstance((1,), (0,), {1: (0,)}, {1: 1.0}, 1, 0.5, 0.0, k=2)
    with pytest.raises(PreconditionError, match="finite norm"):
        BipartiteInstance((1,), (0,), {1: (0,)}, {1: 1.0}, 1, 0.5, math.nan)
    with pytest.raises(PreconditionError, match="finite p"):
        BipartiteInstance((1,), (0,), {1: (0,)}, {1: 1.0}, 1, math.inf, 0.0)
    # a left node missing from adj or from weights, and a weight that is
    # not a number or is a Real too large for a float64
    with pytest.raises(PreconditionError, match="left node 1 does not have degree 2"):
        BipartiteInstance((1,), (10, 11), {}, {1: 1.0}, 2, 0.1, 0.0)
    with pytest.raises(PreconditionError, match="bad weight at left node 1"):
        BipartiteInstance((1,), (10, 11), {1: (10, 11)}, {}, 2, 0.1, 0.0)
    for weight in ("heavy", 10**400, Fraction(10**400, 3)):
        with pytest.raises(PreconditionError, match="bad weight at left node 1"):
            BipartiteInstance((1,), (10, 11), {1: (10, 11)}, {1: weight}, 2, 0.1, 0.0)


def test_instance_stores_read_only_arrays():
    inst = BipartiteInstance(
        (20, 10), (7, 3, 5), {10: (5, 3), 20: (7, 3)}, {10: 1, 20: 0.5}, 2, 0.5, 0.0
    )
    # rows in u_nodes order, each in adj order, as positions in v_nodes
    assert inst.u_nodes == (10, 20) and inst.v_nodes == (3, 5, 7)
    assert inst.nbr.tolist() == [[1, 0], [2, 0]]
    assert inst.weight.dtype == np.float64 and inst.weight.tolist() == [1.0, 0.5]
    with pytest.raises(dataclasses.FrozenInstanceError):
        inst.norm = 1.0
    with pytest.raises(ValueError):
        inst.nbr[0, 0] = 2
    with pytest.raises(ValueError):
        inst.weight[0] = 2.0


def test_oracle_agrees_with_algorithm_success():
    rng = random.Random(37)
    for _ in range(6):
        inst = random_hitting_instance(
            rng,
            n_u=rng.randint(2, 8),
            n_v=rng.randint(6, 12),
            delta=rng.randint(1, 4),
            p=rng.choice([0.25, 0.4, 0.6]),
            norm=rng.choice([0.0, 0.1, 0.5]),
        )
        res = basic_hitting_set(inst)
        lhs, rhs = basic_guarantee(inst, res.selected)
        assert lhs <= rhs * (1 + 1e-9)
        assert exhaustive_hitting_check(inst)


@st.composite
def hitting_instances(draw):
    """Basic instances with dense or sparse 60-bit ids, neighbour tuples in
    a drawn order, weights of which some or all may be zero, norm 0 or
    not, and delta down to 1."""
    rng = random.Random(draw(st.integers(0, 2**32)))
    n_v = draw(st.integers(1, 20))
    delta = draw(st.integers(1, min(n_v, 6)))
    n_u = draw(st.integers(1, 12))
    sparse = draw(st.booleans())
    v_nodes = rng.sample(range(2**60), n_v) if sparse else list(range(n_v))
    u_nodes = rng.sample(range(2**60), n_u) if sparse else list(range(n_u))
    zeros = draw(st.sampled_from([0.0, 0.3, 1.0]))
    weights = {
        u: 0.0 if rng.random() < zeros else rng.choice([1.0, rng.uniform(0.0, 2.0)])
        for u in u_nodes
    }
    return BipartiteInstance(
        tuple(u_nodes),
        tuple(v_nodes),
        {u: tuple(rng.sample(v_nodes, delta)) for u in u_nodes},
        weights,
        delta,
        draw(st.sampled_from([0.05, 0.2, 0.35, 0.5])),
        draw(st.sampled_from([0.0, 0.01, 0.2])),
    )


def _hex(pair):
    return tuple(float(x).hex() for x in pair)


def with_k(inst, k):
    """The same instance with the block size k."""
    return BipartiteInstance.from_arrays(
        inst.u_nodes, inst.v_nodes, inst.nbr, inst.weight, inst.delta, inst.p, inst.norm, k
    )


@settings(max_examples=150, deadline=None)
@given(hitting_instances(), st.data())
def test_copies_and_guarantees_match_the_loops(inst, data):
    inst = with_k(inst, data.draw(st.integers(1, inst.delta)))
    copies = split_into_copies(inst)
    expected = hitting_reference.reference_split_into_copies(inst)
    assert copies.u_nodes == expected.u_nodes
    assert [copies.adj[u] for u in copies.u_nodes] == [
        expected.adj[u] for u in expected.u_nodes
    ]
    assert [float(copies.weights[u]).hex() for u in copies.u_nodes] == [
        float(expected.weights[u]).hex() for u in expected.u_nodes
    ]
    selected = frozenset(data.draw(st.lists(st.sampled_from(inst.v_nodes), unique=True)))
    assert _hex(basic_guarantee(inst, selected)) == _hex(
        hitting_reference.reference_basic_guarantee(inst, selected)
    )
    assert _hex(basic_guarantee(copies, selected)) == _hex(
        hitting_reference.reference_basic_guarantee(copies, selected)
    )
    assert _hex(grouped_guarantee(inst, selected)) == _hex(
        hitting_reference.reference_grouped_guarantee(inst, selected)
    )


@settings(max_examples=100, deadline=None)
@given(hitting_instances(), st.data())
def test_from_arrays_builds_what_the_constructor_builds(inst, data):
    k = data.draw(st.sampled_from([None, 1, inst.delta]))
    given = BipartiteInstance(
        inst.u_nodes, inst.v_nodes, inst.adj, inst.weights, inst.delta, inst.p, inst.norm, k
    )
    built = with_k(inst, k)
    scalars = ("u_nodes", "v_nodes", "delta", "p", "norm", "k")
    assert [getattr(built, name) for name in scalars] == [getattr(given, name) for name in scalars]
    assert built.adj == given.adj and built.weights == given.weights
    assert [built.adj[u] for u in built.u_nodes] == [inst.adj[u] for u in inst.u_nodes]
    assert built.nbr.tolist() == inst.nbr.tolist()
    assert built.weight.tobytes() == inst.weight.tobytes()
    assert not built.nbr.flags.writeable and not built.weight.flags.writeable


# left nodes 1 and 2 of degree 2 over V = (10, 11, 12); a position j
# outside [0, 3) stands for the id 20 + j, which is not in V, and a row
# of None for a row of another length, which only `adj` can give
BASE = dict(
    nbr=[[0, 1], [1, 2]], weight=[1.0, 0.5], u_nodes=(1, 2), delta=2, p=0.1, norm=0.0, k=None
)


@pytest.mark.parametrize(
    "change, message",
    [
        (dict(nbr=[[0, 1], [2, 2]]), "left node 2 does not have degree 2"),
        (dict(nbr=[[0, 3], [1, 2]]), "left node 1 has a neighbor outside V"),
        (dict(nbr=[[0, 1], [-1, 2]]), "left node 2 has a neighbor outside V"),
        (dict(weight=[1.0, -0.5]), "bad weight at left node 2"),
        (dict(weight=[math.nan, 0.5]), "bad weight at left node 1"),
        (dict(weight=[1.0, math.inf]), "bad weight at left node 2"),
        # the first failing node is named, and its first failing check
        (dict(nbr=[[0, 1], [3, 3]], weight=[-1.0, 0.5]), "bad weight at left node 1"),
        (dict(nbr=[[0, 1], [3, 3]], weight=[1.0, -1.0]), "left node 2 does not have degree 2"),
        (dict(nbr=[[0, 1], [1, 3]], weight=[1.0, -1.0]), "left node 2 has a neighbor outside V"),
        (dict(u_nodes=(1, 1)), "duplicate node ids within a side"),
        (dict(delta=0, nbr=[[], []]), "need delta >= 1"),
        (dict(p=0.0), "need delta >= 1, finite p > 0"),
        (dict(norm=math.inf), "finite norm >= 0"),
        (dict(k=3), "k=3 outside"),
        # a row of another length, or a weight that is not a real number,
        # which only the dicts can give, fails its node in the same order
        (dict(nbr=[[0, 3], None]), "left node 1 has a neighbor outside V"),
        (dict(nbr=[[0, 1], None], weight=[-1.0, 0.5]), "bad weight at left node 1"),
        (dict(nbr=[None, [0, 3]]), "left node 1 does not have degree 2"),
        (dict(nbr=[[0, 1], [3, 3]], weight=["heavy", 0.5]), "bad weight at left node 1"),
        (dict(nbr=[[0, 3], [0, 1]], weight=[1.0, 10**400]), "left node 1 has a neighbor outside V"),
        # finite weights whose total is not, checked after every node
        (dict(weight=[1e308, 1e308]), "the weights add up to more than the largest float"),
        (dict(nbr=[[0, 1], [3, 3]], weight=[1e308, 1e308]), "left node 2 does not have degree 2"),
    ],
)
def test_from_arrays_refuses_what_the_constructor_refuses(change, message):
    # both constructors run one check path; each refuses with the message
    case = {**BASE, **change}
    v_nodes = (10, 11, 12)
    adj = {
        u: (0,) if row is None else tuple(v_nodes[j] if 0 <= j < 3 else 20 + j for j in row)
        for u, row in zip(case["u_nodes"], case["nbr"])
    }
    scalars = case["delta"], case["p"], case["norm"], case["k"]
    with pytest.raises(PreconditionError, match=re.escape(message)):
        BipartiteInstance(
            case["u_nodes"], v_nodes, adj, dict(zip(case["u_nodes"], case["weight"])), *scalars
        )
    if any(row is None for row in case["nbr"]) or not all(
        isinstance(w, float) for w in case["weight"]
    ):
        return  # no array holds these
    with pytest.raises(PreconditionError, match=re.escape(message)):
        BipartiteInstance.from_arrays(
            case["u_nodes"], v_nodes, np.array(case["nbr"]), case["weight"], *scalars
        )


def test_from_arrays_needs_increasing_ids_and_matching_shapes():
    v_nodes = (10, 11, 12)
    with pytest.raises(PreconditionError, match="node ids must be increasing"):
        BipartiteInstance.from_arrays((2, 1), v_nodes, [[0, 1], [1, 2]], [1.0, 1.0], 2, 0.1, 0.0)
    with pytest.raises(PreconditionError, match="node ids must be increasing"):
        BipartiteInstance.from_arrays((1, 2), (11, 10), [[0, 1], [0, 1]], [1.0, 1.0], 2, 0.1, 0.0)
    shapes = ([[0, 1]], [1.0, 1.0]), ([[0, 1], [1, 2]], [1.0]), ([[0], [1]], [1.0, 1.0])
    for nbr, weight in shapes:
        with pytest.raises(PreconditionError, match="arrays of shape"):
            BipartiteInstance.from_arrays((1, 2), v_nodes, nbr, weight, 2, 0.1, 0.0)


def _outcome(solve, inst):
    """Everything a run reports, floats as hex; or the error it raised."""
    try:
        res = solve(inst)
    except (PreconditionError, ClaimViolation) as exc:
        return type(exc), str(exc)
    return (
        sorted(res.selected),
        [float(x).hex() for x in res.phis],
        [
            (s.index, sorted(s.chosen))
            + tuple(float(x).hex() for x in (s.phi, s.good_lhs, s.good_rhs))
            + tuple(float(x).hex() for x in (s.frac_utility, s.frac_cost))
            for s in res.steps
        ],
        res.rounds_h,
        res.zeta,
        list(res.checks.counts.items()),
    )


@settings(max_examples=150, deadline=None)
@given(hitting_instances())
def test_basic_hitting_set_matches_the_dict_build(inst):
    assert _outcome(basic_hitting_set, inst) == _outcome(
        hitting_reference.reference_basic_hitting_set, inst
    )


def test_basic_hitting_set_matches_the_dict_build_on_copies():
    # the copy instances the grouped routine runs, at the benchmark's shape
    rng = random.Random(41)
    v_nodes = tuple(range(400))
    u_nodes = tuple(range(400, 440))
    inst = BipartiteInstance(
        u_nodes,
        v_nodes,
        {u: tuple(sorted(rng.sample(v_nodes, 8))) for u in u_nodes},
        {u: rng.uniform(0.0, 2.0) for u in u_nodes},
        8,
        0.25,
        0.05,
        4,
    )
    copies = split_into_copies(inst)
    assert _outcome(basic_hitting_set, copies) == _outcome(
        hitting_reference.reference_basic_hitting_set, copies
    )


def test_plain_sum_adds_left_to_right():
    # the guarantees' weight sums: a compensated sum, the builtin's from
    # Python 3.12 on, gives 1.0 here, and a plain loop gives 0.0
    values = [1e16, 1.0, -1e16]
    loop = 0.0
    for x in values:
        loop += x
    assert plain_sum(values) == loop == 0.0
    assert plain_sum(iter(values)) == 0.0
    assert plain_sum([]) == 0


# a seeded grouped solve at the benchmark's shape, |V| = 600: every phi,
# and each step's chosen count and fractional (utility, cost), as hex
PINNED_PHIS = [
    "0x1.25a05399a5cbbp+6", "0x1.fea648544c66ep+4", "0x1.cedec2f19acfep+4",
    "0x1.9eedaec856749p+4", "0x1.6efbe91a1f3d0p+4", "0x1.3f0ba27cd2cf1p+4",
    "0x1.0f1d033a04f92p+4", "0x1.be606faff3891p+3", "0x1.5e66666666667p+3",
    "0x1.fcccccccccccep+2", "0x1.3cccccccccccdp+2",
]
PINNED_STEPS = [
    (94, "0x1.9304cbedf51aap+3", "0x1.1c1b09fa9654ep+1"),
    (3, "0x1.8619880b20a73p+1", "0x1.80ea3ace78193p+0"),
    (1, "0x1.823ef975af1b3p+1", "0x1.80563f04da443p+0"),
    (0, "0x1.80ef3785f48a8p+1", "0x1.8023e1edb17b5p+0"),
    (0, "0x1.81086023e0a77p+1", "0x1.8027a80561b2dp+0"),
    (0, "0x1.81242e1f641dfp+1", "0x1.802bd3b7e89e3p+0"),
    (0, "0x1.8142e8b5b896ap+1", "0x1.80306fb4dbb05p+0"),
    (1, "0x1.8164dea21e4f7p+1", "0x1.803587cb848c1p+0"),
    (0, "0x1.8000000000000p+1", "0x1.8000000000002p+0"),
    (0, "0x1.8000000000000p+1", "0x1.8000000000002p+0"),
]


def test_grouped_solve_is_pinned_bit_for_bit():
    rng = random.Random(2020)
    v_nodes = tuple(range(600))
    u_nodes = tuple(range(600, 660))
    inst = BipartiteInstance(
        u_nodes,
        v_nodes,
        {u: tuple(sorted(rng.sample(v_nodes, 8))) for u in u_nodes},
        {u: rng.uniform(0.0, 2.0) for u in u_nodes},
        8,
        0.25,
        0.05,
        4,
    )
    res = grouped_hitting_set(inst)
    assert [x.hex() for x in res.phis] == PINNED_PHIS
    assert [
        (len(s.chosen), s.frac_utility.hex(), s.frac_cost.hex()) for s in res.steps
    ] == PINNED_STEPS
    assert (len(res.selected), sum(res.selected), res.zeta, res.rounds_h) == (99, 25680, 7, 140)
    # the selection's mask over v_nodes, whose ids are their positions
    assert np.flatnonzero(res.picked).tolist() == sorted(res.selected)
    assert not res.picked.flags.writeable
    # one monotone check per color class and step
    assert res.checks.counts["rounding-monotone"] == res.zeta * len(res.steps)
