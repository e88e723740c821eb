import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localround.errors import ClaimChecker, PreconditionError, plain_sum
from localround.generators import gnp
from localround.graphs import Graph, induced_subgraph, square_graph
from localround.ledger import RoundLedger
from localround.oracles import exhaustive_round_check
from localround.rounding import (
    Coloring,
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    is_proper,
    round_labels,
)

from conftest import random_graph, random_objective, relabel
from rounding_reference import (
    reference_evaluate,
    reference_greedy_color,
    reference_is_proper,
    reference_round_labels,
)


def test_evaluate_single_node_integral():
    g = Graph(nodes=[0])
    inst = UtilityCostInstance(g, 2, {0: ((0.0, 1.0), None)})
    assert evaluate(inst, {0: 1}) == (1.0, 0.0)
    assert evaluate(inst, {0: 0}) == (0.0, 0.0)


def test_evaluate_pairwise_product():
    g = Graph(edges=[(0, 1)])
    inst = UtilityCostInstance(
        g, 2, edge_terms={(0, 1): (((0.0, 0.0), (0.0, 1.0)), None)}
    )
    lam = FractionalAssignment({0: (0.5, 0.5), 1: (0.5, 0.5)})
    utility, cost = evaluate(inst, lam)
    assert utility == pytest.approx(0.25)
    assert cost == 0.0


def test_evaluate_matches_exhaustive_expectation():
    rng = random.Random(42)
    for _ in range(20):
        inst, lam = random_objective(rng, max_nodes=8, require_precondition=False)
        _, expected = exhaustive_round_check(inst, lam)
        u0, c0 = evaluate(inst, lam)
        assert u0 - c0 == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_evaluate_missing_node():
    g = Graph(nodes=[0, 1])
    inst = UtilityCostInstance(g, 2)
    with pytest.raises(PreconditionError):
        evaluate(inst, {0: 1})


def test_instance_rejects_non_conflict_edge_terms():
    g = Graph(nodes=[0, 1])  # no edge
    with pytest.raises(PreconditionError):
        UtilityCostInstance(g, 2, edge_terms={(0, 1): (None, None)})


@pytest.mark.parametrize(
    "node_terms,edge_terms,match",
    [
        ({7: ((0.0, 1.0), None)}, None, "unknown node 7"),
        ({0: ((0.0, 1.0, 2.0), None)}, None, "bad node table at 0"),
        ({1: (None, (0.0, math.inf))}, None, "bad node table at 1"),
        (None, {(0, 1): (((0.0, 1.0), (1.0,)), None)}, r"bad edge table at \(0,1\)"),
        (None, {(0, 1): (None, ((0.0, 1.0), (math.nan, 0.0)))}, r"bad edge table at \(0,1\)"),
        (None, {(1, 0): (None, None)}, "not a conflict edge"),
    ],
)
def test_instance_rejects_malformed_terms(node_terms, edge_terms, match):
    g = Graph(edges=[(0, 1)])
    with pytest.raises(PreconditionError, match=match):
        UtilityCostInstance(g, 2, node_terms, edge_terms)


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("const", ["utility_const", "cost_const"])
def test_instance_rejects_non_finite_constants(const, value):
    g = Graph(edges=[(0, 1)])
    with pytest.raises(PreconditionError, match="constants must be finite"):
        UtilityCostInstance(g, 2, {0: ((0.0, 1.0), None)}, **{const: value})


def test_term_views_keep_keys_order_and_length():
    g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    zero = ((0.0, 0.0), (0.0, 0.0))
    inst = UtilityCostInstance(
        g,
        2,
        {2: ((1.0, 2.0), None), 0: (None, (0.5, 0.0))},
        {(1, 2): (None, ((0.0, 1.0), (2.0, 3.0))), (0, 1): (((1.0, 0.0), zero[1]), None)},
    )
    assert len(inst.node_terms) == 2 and len(inst.edge_terms) == 2
    assert list(inst.node_terms.items()) == [
        (2, ((1.0, 2.0), (0.0, 0.0))),
        (0, ((0.0, 0.0), (0.5, 0.0))),
    ]
    assert list(inst.edge_terms.items()) == [
        ((1, 2), (zero, ((0.0, 1.0), (2.0, 3.0)))),
        ((0, 1), (((1.0, 0.0), (0.0, 0.0)), zero)),
    ]


def _path_arrays(**change):
    """from_arrays arguments for one node term at 0 and an edge term on
    (0, 1) of the path 0 - 1 - 2, with `change` applied."""
    node_utility = np.zeros((3, 2))
    node_utility[0] = (0.0, 1.0)
    edge_cost = np.zeros((1, 2, 2))
    edge_cost[0, 1, 1] = 0.5
    args = dict(
        term_nodes=np.array([0]),
        node_utility=node_utility,
        node_cost=np.zeros((3, 2)),
        edge_u=np.array([0]),
        edge_v=np.array([1]),
        edge_utility=np.zeros((1, 2, 2)),
        edge_cost=edge_cost,
    )
    return {**args, **change}


def test_from_arrays_matches_the_dict_constructor():
    g = Graph(edges=[(0, 1), (1, 2)])
    arrays = UtilityCostInstance.from_arrays(g, 2, **_path_arrays())
    terms = UtilityCostInstance(
        g, 2, {0: ((0.0, 1.0), None)}, {(0, 1): (None, ((0.0, 0.0), (0.0, 0.5)))}
    )
    assert dict(arrays.node_terms) == dict(terms.node_terms)
    assert dict(arrays.edge_terms) == dict(terms.edge_terms)
    lam = FractionalAssignment({0: (0.5, 0.5), 1: (0.25, 0.75), 2: (1.0, 0.0)})
    assert evaluate(arrays, lam) == evaluate(terms, lam)


@pytest.mark.parametrize(
    "change,match",
    [
        ({"edge_v": np.array([2])}, r"\(0,2\) is not a conflict edge"),
        ({"edge_u": np.array([1]), "edge_v": np.array([0])}, r"\(1,0\) is not a conflict edge"),
        ({"edge_v": np.array([3])}, "edge term position outside"),
        ({"term_nodes": np.array([0, 0])}, "distinct"),
        ({"term_nodes": np.array([1])}, "cover every nonzero row"),
        ({"term_nodes": np.array([5])}, "node term position outside"),
        ({"node_cost": np.full((3, 2), math.nan)}, "non-finite node"),
        ({"edge_utility": np.full((1, 2, 2), math.inf)}, "non-finite edge"),
        ({"edge_cost": np.zeros((1, 2, 3))}, "do not match"),
        ({"node_utility": np.zeros((2, 2))}, "do not match"),
        ({"utility_const": math.nan}, "constants must be finite"),
    ],
)
def test_from_arrays_rejects_malformed_arrays(change, match):
    g = Graph(edges=[(0, 1), (1, 2)])
    with pytest.raises(PreconditionError, match=match):
        UtilityCostInstance.from_arrays(g, 2, **_path_arrays(**change))
    with pytest.raises(PreconditionError, match="at least one label"):
        UtilityCostInstance.from_arrays(g, 0, **_path_arrays())


def test_evaluate_rejects_malformed_labelings():
    g = Graph(edges=[(0, 1)])
    inst = UtilityCostInstance(g, 2, {0: ((0.0, 1.0), None)})
    with pytest.raises(PreconditionError, match="lie in"):
        evaluate(inst, {0: 1, 1: 2})
    with pytest.raises(PreconditionError, match="node 1 needs 2 labels"):
        evaluate(inst, FractionalAssignment({0: (0.5, 0.5), 1: (1.0,)}))


def test_fractional_assignment_rejects_nan():
    with pytest.raises(PreconditionError, match="outside"):
        FractionalAssignment({0: (math.nan, 1.0), 1: (0.5, 0.5)})


@st.composite
def probability_matrices(draw):
    """Node ids and a matrix of up to 4 labels whose rows are mostly
    probability vectors; some rows hold NaN, an entry outside [0, 1], or
    a sum off 1 by about 1e-9, and some matrices have no columns."""
    nodes = tuple(draw(st.lists(st.integers(0, 2**60), unique=True, max_size=8)))
    labels = draw(st.integers(0, 4))
    rows = []
    for _ in nodes:
        raw = [draw(st.floats(0.01, 1.0)) for _ in range(labels)]
        row = [x / sum(raw) for x in raw]
        if labels and draw(st.integers(0, 5)) == 0:
            k = draw(st.integers(0, labels - 1))
            row[k] = draw(st.sampled_from([math.nan, -0.1, 1.5, -1e-12, 1 + 2e-12]))
        if labels and draw(st.integers(0, 5)) == 0:
            row[-1] += draw(st.sampled_from([1e-9, -1.2e-9, 2e-9, 1e-10]))
        rows.append(row)
    return nodes, np.array(rows, float).reshape(len(nodes), labels)


@settings(max_examples=400, deadline=None)
@given(probability_matrices())
def test_from_matrix_checks_as_the_constructor_does(case):
    nodes, matrix = case
    try:
        lam = FractionalAssignment(dict(zip(nodes, matrix.tolist())))
    except PreconditionError as exc:
        # the same check fails first, at the same node
        with pytest.raises(PreconditionError) as got:
            FractionalAssignment.from_matrix(nodes, matrix)
        assert str(got.value) == str(exc)
        return
    kept = FractionalAssignment.from_matrix(nodes, matrix)
    assert kept._rows(nodes) is kept._rows(nodes) and not kept._rows(nodes).flags.writeable
    assert np.array_equal(kept._rows(nodes), matrix)
    assert kept.probs == lam.probs
    assert all(kept[u] == lam[u] for u in nodes)
    # another order is built from the dict view of the kept matrix
    assert kept._rows(nodes[::-1]).tolist() == lam._rows(nodes[::-1]).tolist()


def test_both_constructors_sum_left_to_right():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, and 0.6 under
    # the compensated builtin `sum` of Python 3.12 and later
    row = (0.1, 0.2, 0.3, 0.4 + 2e-9)
    want = re.escape(f"node 7 sum to {plain_sum(row)!r}")
    with pytest.raises(PreconditionError, match=want):
        FractionalAssignment({7: row})
    with pytest.raises(PreconditionError, match=want):
        FractionalAssignment.from_matrix((7,), np.array([row]))


def test_from_matrix_needs_one_row_per_node():
    with pytest.raises(PreconditionError, match="shape"):
        FractionalAssignment.from_matrix((1, 2), np.ones((1, 2)) / 2)


def test_greedy_color_edgeless():
    g = Graph(nodes=[3, 1, 4])
    col = greedy_color(g)
    assert set(col.colors.values()) == {0}


def test_greedy_color_clique():
    g = Graph(edges=[(a, b) for a in range(4) for b in range(a + 1, 4)])
    col = greedy_color(g)
    assert col.num_colors == 4
    assert len(set(col.colors.values())) == 4


def test_greedy_color_proper_and_bounded():
    rng = random.Random(9)
    g = random_graph(rng, 50, 0.1)
    col = greedy_color(g)
    for u, v in g.edges():  # edge-scan properness oracle
        assert col.colors[u] != col.colors[v]
    assert col.num_colors <= g.max_degree() + 1


@st.composite
def color_cases(draw):
    """G(n, p) on up to 400 nodes, from edgeless to dense, perhaps squared
    (the graphs the MIS colors), perhaps on sparse 60-bit ids."""
    n = draw(st.integers(0, 400))
    p = draw(st.sampled_from([0.0, 0.004, 0.01, 0.03, 0.1, 0.4]))
    g = gnp(n, p, seed=draw(st.integers(0, 10**6))) if n else Graph()
    if draw(st.booleans()):
        g = square_graph(g)
    if draw(st.booleans()):
        g = relabel(g, random.Random(draw(st.integers(0, 999))))
    return g


@settings(max_examples=150, deadline=None)
@given(color_cases())
def test_greedy_color_matches_the_first_fit_loop(g):
    col, ref = greedy_color(g), reference_greedy_color(g)
    assert dict(col.colors) == ref.colors and col.num_colors == ref.num_colors


def test_greedy_color_matches_the_first_fit_loop_at_scale():
    # waves of up to 144 nodes and a tail of thin ones
    sq = square_graph(gnp(8192, 8 / 8191, seed=3))
    col, ref = greedy_color(sq), reference_greedy_color(sq)
    assert dict(col.colors) == ref.colors and col.num_colors == ref.num_colors


def test_greedy_coloring_keeps_its_color_array():
    g = random_graph(random.Random(4), 30, 0.2)
    inst, lam = UtilityCostInstance(g, 2), FractionalAssignment({u: (0.5, 0.5) for u in g.nodes})
    col = greedy_color(g)
    assert is_proper(g, col)
    round_labels(inst, lam, col)
    # both read the kept array; the dict is built only when read
    assert col.colors._entries is None
    assert col.colors == reference_greedy_color(g).colors
    # another node order reads the dict
    other = induced_subgraph(g, g.nodes[1:])
    assert is_proper(other, col) and round_labels(UtilityCostInstance(other, 2), lam, col)


def test_rounded_labels_are_a_read_only_array_that_keeps_its_value():
    rng = random.Random(6)
    inst, lam = random_objective(rng, max_nodes=25)
    g = inst.conflict_graph
    labels = round_labels(inst, lam, greedy_color(g))
    assert labels._entries is None and not labels.array.flags.writeable
    value = evaluate(inst, labels)
    assert evaluate(inst, labels) is value and labels._entries is None
    assert labels.array.tolist() == [labels[u] for u in g.nodes]
    assert value == evaluate(inst, dict(labels))
    # another instance over the same nodes is evaluated afresh
    ones = (1.0,) * inst.num_labels
    other = UtilityCostInstance(g, inst.num_labels, {u: (ones, None) for u in g.nodes})
    assert evaluate(other, labels) == reference_evaluate(other, dict(labels))
    assert evaluate(inst, lam) is evaluate(inst, lam)


def test_round_integral_fixed_point():
    # integral assignment already at the per-node maximizer stays put
    g = Graph(edges=[(0, 1)])
    inst = UtilityCostInstance(
        g,
        2,
        {0: ((0.0, 2.0), None), 1: ((0.0, 2.0), None)},
        {(0, 1): (None, ((0.0, 0.0), (0.0, 1.0)))},
    )
    lam = FractionalAssignment({0: (0.0, 1.0), 1: (0.0, 1.0)})
    labels = round_labels(inst, lam, greedy_color(g))
    assert labels == {0: 1, 1: 1}
    before = evaluate(inst, lam)
    after = evaluate(inst, labels)
    assert before == after


def test_round_single_node_picks_maximizer():
    g = Graph(nodes=[0])
    inst = UtilityCostInstance(g, 2, {0: ((0.0, 1.0), None)})
    lam = FractionalAssignment({0: (0.3, 0.7)})
    assert round_labels(inst, lam, greedy_color(g)) == {0: 1}


def test_round_ties_prefer_smaller_label():
    g = Graph(nodes=[0])
    inst = UtilityCostInstance(g, 2, {0: ((0.5, 0.5), None)})
    lam = FractionalAssignment({0: (0.5, 0.5)})
    assert round_labels(inst, lam, greedy_color(g)) == {0: 0}


def test_round_contract_on_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        inst, lam = random_objective(rng, max_nodes=8)
        col = greedy_color(inst.conflict_graph)
        labels = round_labels(inst, lam, col)
        u0, c0 = evaluate(inst, lam)
        uf, cf = evaluate(inst, labels)
        assert uf - cf >= 0.9 * (u0 - c0) - 1e-9
        assert uf - cf >= (u0 - c0) - 1e-9
        best, expected = exhaustive_round_check(inst, lam)
        assert uf - cf >= expected - 1e-9
        assert uf - cf <= best + 1e-9


def test_round_precondition_rejected_with_measurements():
    g = Graph(nodes=[0])
    inst = UtilityCostInstance(g, 2, {0: ((0.0, 1.0), (0.0, 0.99))})
    lam = FractionalAssignment({0: (0.0, 1.0)})
    with pytest.raises(PreconditionError, match="utility"):
        round_labels(inst, lam, greedy_color(g))


def test_round_improper_coloring_rejected():
    g = Graph(edges=[(0, 1)])
    inst = UtilityCostInstance(g, 2, {0: ((0.0, 1.0), None)})
    lam = FractionalAssignment({0: (0.5, 0.5), 1: (0.5, 0.5)})
    bad = Coloring({0: 0, 1: 0}, 1)
    assert not is_proper(g, bad)
    with pytest.raises(PreconditionError, match="proper"):
        round_labels(inst, lam, bad)
    with pytest.raises(PreconditionError, match="outside"):
        round_labels(inst, lam, Coloring({0: 0, 1: 1}, 1))


@st.composite
def colorings(draw):
    """A graph on up to 24 ids anywhere in [0, 2^63) and a coloring of
    all its nodes: a greedy (proper) one, one with a few nodes recolored,
    or random colors from a small range, optionally shifted past 2^63."""
    ids = st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1))
    nodes = sorted(draw(st.sets(ids, max_size=24)))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
    g = Graph(nodes=nodes, edges=[e for e in pairs if draw(st.floats(0, 1)) < p])
    colors = dict(greedy_color(g).colors)
    kind = draw(st.sampled_from(["greedy", "recolored", "random"]))
    if kind == "recolored" and nodes:
        for u in draw(st.lists(st.sampled_from(nodes), max_size=3)):
            colors[u] = draw(st.integers(0, 3))
    elif kind == "random":
        colors = {u: draw(st.integers(0, 3)) for u in nodes}
    shift = draw(st.sampled_from([0, -5, 2**70]))
    colors = {u: c + shift for u, c in colors.items()}
    return g, Coloring(colors, max(colors.values(), default=-1) + 1)


@settings(max_examples=300, deadline=None)
@given(colorings())
def test_is_proper_matches_the_generator(case):
    g, coloring = case
    assert is_proper(g, coloring) == reference_is_proper(g, coloring)


def test_is_proper_needs_every_color():
    g = Graph(edges=[(3, 2**60), (2**60, 7)])
    for colors in ({3: 0, 2**60: 1}, {3: 0, 7: 0}):
        with pytest.raises(KeyError):
            is_proper(g, Coloring(colors, 2))
        with pytest.raises(KeyError):
            reference_is_proper(g, Coloring(colors, 2))


def test_probability_matrix_is_kept_per_node_order():
    g = Graph(edges=[(0, 5), (5, 9)])
    inst = UtilityCostInstance(g, 2, {5: ((0.0, 1.0), (0.2, 0.0))})
    lam = FractionalAssignment({0: (0.5, 0.5), 5: (0.25, 0.75), 9: (1.0, 0.0), 4: (0.0, 1.0)})
    before = evaluate(inst, lam)
    kept = lam._rows(g.nodes)
    assert not kept.flags.writeable
    assert kept.tolist() == [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]
    # round_labels writes one-hot rows into its own copy, not the kept one
    round_labels(inst, lam, greedy_color(g))
    assert lam._rows(g.nodes) is kept
    assert evaluate(inst, lam) == before
    other = Graph(edges=[(4, 9)])
    assert lam._rows(other.nodes).tolist() == [[0.0, 1.0], [1.0, 0.0]]
    assert lam._rows(g.nodes) is not kept


def test_kept_probabilities_still_check_every_call():
    g = Graph(edges=[(0, 1)])
    inst = UtilityCostInstance(g, 2, {0: ((0.0, 1.0), None)})
    three = UtilityCostInstance(g, 3)
    short = FractionalAssignment({0: (0.5, 0.5)})
    lam = FractionalAssignment({0: (0.5, 0.5), 1: (0.5, 0.5)})
    ragged = FractionalAssignment({0: (0.5, 0.5), 1: (1.0,)})
    for _ in range(2):
        with pytest.raises(PreconditionError, match="misses decision node 1"):
            evaluate(inst, short)
        with pytest.raises(PreconditionError, match="node 1 needs 2 labels"):
            evaluate(inst, ragged)
        assert evaluate(inst, lam) == (0.5, 0.0)
        with pytest.raises(PreconditionError, match="node 0 needs 3 labels"):
            evaluate(three, lam)


def test_round_charges_ledger():
    rng = random.Random(3)
    inst, lam = random_objective(rng, max_nodes=6)
    col = greedy_color(inst.conflict_graph)
    led = RoundLedger()
    round_labels(inst, lam, col, ledger=led, charge_label="probe")
    assert led.report()["rows"][0]["label"] == "probe"
    assert led.total == 2 * col.num_colors


def test_round_deterministic():
    rng = random.Random(12)
    inst, lam = random_objective(rng, max_nodes=7)
    col = greedy_color(inst.conflict_graph)
    assert round_labels(inst, lam, col) == round_labels(inst, lam, col)


def test_round_monotone_counted():
    rng = random.Random(15)
    inst, lam = random_objective(rng, max_nodes=7)
    col = greedy_color(inst.conflict_graph)
    checks = ClaimChecker()
    round_labels(inst, lam, col, checks=checks)
    assert checks.counts["rounding-monotone"] == col.num_colors
    assert checks.counts["rounding-no-loss"] == 1


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_round_never_below_fractional(seed):
    rng = random.Random(seed)
    inst, lam = random_objective(rng, max_nodes=6)
    labels = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    u0, c0 = evaluate(inst, lam)
    uf, cf = evaluate(inst, labels)
    assert uf - cf >= (u0 - c0) - 1e-9


def test_three_label_alphabet():
    rng = random.Random(21)
    inst, lam = random_objective(rng, max_nodes=5, num_labels=3)
    labels = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    assert set(labels) == set(inst.conflict_graph.nodes)
    assert all(0 <= lab < 3 for lab in labels.values())


@st.composite
def objectives(draw):
    """Instance, fractional and integral labelings, and a proper coloring.

    Node ids are sparse, some conflict edges carry no term, and any table
    may be None.  Integer-valued tables with probabilities in eighths make
    every score exact, so equal scores (label ties) are common.
    """
    nl = draw(st.integers(1, 4))
    nodes = sorted(draw(st.sets(st.integers(0, 200), min_size=1, max_size=7)))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    edges = [e for e in pairs if draw(st.booleans())]
    g = Graph(nodes=nodes, edges=edges)
    exact = draw(st.booleans())
    value = st.integers(0, 3).map(float) if exact else st.floats(0.0, 1.0)

    def table(shape):
        if draw(st.integers(0, 3)) == 0:
            return None
        if len(shape) == 1:
            return tuple(draw(value) for _ in range(nl))
        return tuple(tuple(draw(value) for _ in range(nl)) for _ in range(nl))

    node_terms = {u: (table((nl,)), table((nl,))) for u in nodes if draw(st.booleans())}
    edge_terms = {e: (table((nl, nl)), table((nl, nl))) for e in edges if draw(st.booleans())}
    # a large enough constant keeps utility - cost >= 0.1 * utility; it
    # moves no score, so it cannot hide a label difference
    cost_mass = sum(
        float(np.sum(cost))
        for _, cost in (*node_terms.values(), *edge_terms.values())
        if cost is not None
    )
    inst = UtilityCostInstance(g, nl, node_terms, edge_terms, utility_const=10 * cost_mass + 1)

    probs = {}
    for u in nodes:
        if exact:
            cuts = sorted(draw(st.lists(st.integers(0, 8), min_size=nl - 1, max_size=nl - 1)))
            bounds = [0, *cuts, 8]
            probs[u] = tuple((hi - lo) / 8 for lo, hi in zip(bounds, bounds[1:]))
        else:
            raw = [draw(st.floats(0.0, 1.0)) for _ in range(nl)]
            total = sum(raw)
            probs[u] = tuple(x / total for x in raw) if total > 0 else (1.0,) + (0.0,) * (nl - 1)
    integral = {u: draw(st.integers(0, nl - 1)) for u in nodes}

    col = greedy_color(g)
    stride, flip = draw(st.integers(1, 2)), draw(st.booleans())
    top = stride * col.num_colors
    coloring = Coloring(
        {u: (top - 1 - stride * c if flip else stride * c) for u, c in col.colors.items()},
        top,
    )
    return inst, FractionalAssignment(probs), integral, coloring


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(objectives())
def test_array_path_matches_loop_reference(case):
    inst, lam, integral, coloring = case
    for assignment in (lam, integral):
        got, want = evaluate(inst, assignment), reference_evaluate(inst, assignment)
        assert _close(got[0], want[0]) and _close(got[1], want[1])
    labels = round_labels(inst, lam, coloring)
    assert labels == reference_round_labels(inst, lam, coloring)
    got, want = evaluate(inst, labels), reference_evaluate(inst, labels)
    assert _close(got[0], want[0]) and _close(got[1], want[1])
