import random

import pytest

from localround.errors import BudgetExceeded
from localround.generators import complete, cycle, path
from localround.graphs import Graph
from localround.mis import build_mis_instance
from localround.graphs import orient
from localround.oracles import (
    OracleBudget,
    exact_max_matching,
    exhaustive_hitting_check,
    exhaustive_round_check,
)
from localround.hitting import BipartiteInstance
from localround.rounding import evaluate

from conftest import random_graph, random_objective
from matching_reference import is_matching
from mis_reference import witness_arrays
from rounding_reference import assignment, instance


def test_matching_path_and_clique():
    assert len(exact_max_matching(path(4))) == 2
    assert len(exact_max_matching(complete(4))) == 2
    assert len(exact_max_matching(Graph(edges=[(0, c) for c in range(1, 6)]))) == 1


def test_matching_odd_cycle():
    # frozen from the subset-search oracle: a 9-cycle matches 4 edges
    m = exact_max_matching(cycle(9))
    assert len(m) == 4
    assert is_matching(m)


def test_matching_known_families():
    assert len(exact_max_matching(cycle(8))) == 4
    assert len(exact_max_matching(path(9))) == 4
    bipartite = Graph(edges=[(a, 10 + b) for a in range(3) for b in range(3)])
    assert len(exact_max_matching(bipartite, method="augment")) == 3


def test_matching_methods_agree_on_overlap():
    rng = random.Random(4)
    for _ in range(12):
        g = random_graph(rng, rng.randint(6, 14), 0.3)
        if g.m == 0 or g.m > 20:
            continue
        a = exact_max_matching(g, method="subset")
        b = exact_max_matching(g, method="augment")
        assert len(a) == len(b)
        assert is_matching(a) and is_matching(b)


def test_matching_blossom_shape():
    # odd structures where naive greedy stalls; augment path must recover
    g = Graph(edges=[(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
    assert len(exact_max_matching(g, method="augment")) == len(
        exact_max_matching(g, method="subset")
    )


def test_matching_budget_refusal():
    with pytest.raises(BudgetExceeded):
        exact_max_matching(path(30))
    with pytest.raises(BudgetExceeded):
        exact_max_matching(complete(10), method="subset")


def test_round_check_one_node():
    g = Graph(nodes=[0])
    inst = instance(g, 2, {0: ((0.2, 0.9), (0.0, 0.1))})
    lam = assignment(g.nodes, {0: (0.25, 0.75)})
    best, expected = exhaustive_round_check(inst, lam)
    assert best == pytest.approx(0.8)
    assert expected == pytest.approx(0.25 * 0.2 + 0.75 * 0.8)


def test_round_check_single_edge_closed_form():
    # estimator of the two-node graph: (1/2)x - (1/2)x^2 at uniform x
    g = Graph(edges=[(0, 1)])
    o = orient(g)
    witnesses = witness_arrays(g, {1: (0,)})
    x = 0.3
    inst = build_mis_instance(g, witnesses, o)
    lam = assignment(g.nodes, {0: (1 - x, x), 1: (1 - x, x)})
    _, expected = exhaustive_round_check(inst, lam)
    assert expected == pytest.approx(0.5 * x - 0.5 * x * x)


def test_round_check_matches_pairwise_evaluate():
    rng = random.Random(6)
    for _ in range(10):
        inst, lam = random_objective(rng, max_nodes=10, require_precondition=False)
        _, expected = exhaustive_round_check(inst, lam)
        u0, c0 = evaluate(inst, lam)
        assert expected == pytest.approx(u0 - c0, abs=1e-9)


def test_round_check_budget():
    g = Graph(nodes=range(25))
    inst = instance(g, 2)
    lam = assignment(g.nodes, {u: (0.5, 0.5) for u in g.nodes})
    with pytest.raises(BudgetExceeded):
        exhaustive_round_check(inst, lam, OracleBudget(max_label_tuples=2**20))


def test_hitting_check_forced_and_free():
    forced = BipartiteInstance((9,), (0,), {9: (0,)}, {9: 1.0}, 1, 1.0, 0.0)
    assert exhaustive_hitting_check(forced)
    free = BipartiteInstance((9,), (0,), {9: (0,)}, {9: 0.0}, 1, 0.5, 100.0)
    assert exhaustive_hitting_check(free)  # empty set is a witness


def test_hitting_check_budget():
    inst = BipartiteInstance(
        (999,),
        tuple(range(21)),
        {999: (0, 1, 2)},
        {999: 1.0},
        3,
        0.5,
        0.0,
    )
    with pytest.raises(BudgetExceeded):
        exhaustive_hitting_check(inst)
