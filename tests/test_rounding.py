import math
import random
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localround import rounding
from localround.errors import ClaimChecker, ClaimViolation, PreconditionError, plain_sum
from localround.generators import gnp
from localround.graphs import Graph, edge_ends, induced_subgraph, square_graph
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
    assignment,
    instance,
    integral,
    reference_check_probabilities,
    reference_evaluate,
    reference_greedy_color,
    reference_is_proper,
    reference_round_labels,
)


def test_evaluate_single_node_integral():
    g = Graph(nodes=[0])
    inst = instance(g, 2, {0: ((0.0, 1.0), None)})
    assert evaluate(inst, integral(inst, {0: 1})) == (1.0, 0.0)
    assert evaluate(inst, integral(inst, {0: 0})) == (0.0, 0.0)


def test_evaluate_pairwise_product():
    g = Graph(edges=[(0, 1)])
    inst = instance(g, 2, edge_terms={(0, 1): ((0.0, 0.0), (0.0, 1.0))})
    lam = assignment(g.nodes, {0: (0.5, 0.5), 1: (0.5, 0.5)})
    utility, cost = evaluate(inst, lam)
    assert utility == 0.0
    assert cost == pytest.approx(0.25)


def test_evaluate_matches_exhaustive_expectation():
    rng = random.Random(42)
    for _ in range(20):
        inst, lam = random_objective(rng, max_nodes=8, require_precondition=False)
        _, expected = exhaustive_round_check(inst, lam)
        u0, c0 = evaluate(inst, lam)
        assert u0 - c0 == pytest.approx(expected, abs=1e-9, rel=1e-9)


def test_evaluate_missing_node():
    g = Graph(nodes=[0, 1])
    inst = instance(g, 2)
    for nodes in ((0,), (1, 0), (0, 1, 2)):
        lam = assignment(nodes, {u: (0.0, 1.0) for u in nodes})
        with pytest.raises(PreconditionError, match="not over the conflict graph's nodes"):
            evaluate(inst, lam)


def test_instance_rejects_non_conflict_edge_terms():
    g = Graph(nodes=[0, 1])  # no edge
    edge = dict(edge_u=np.array([0]), edge_v=np.array([1]))
    with pytest.raises(PreconditionError, match=r"\(0,1\) is not a conflict edge"):
        UtilityCostInstance(g, 2, **_arrays(2, 1, **edge))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_constants(value):
    g = Graph(edges=[(0, 1), (1, 2)])
    with pytest.raises(PreconditionError, match="constants must be finite"):
        UtilityCostInstance(g, 2, **_path_arrays(utility_const=value))


def test_term_views_keep_keys_order_and_length():
    # node terms are the nodes with a nonzero row, in id order; edge terms
    # keep their order, a zero cost matrix included
    g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    zero = ((0.0, 0.0), (0.0, 0.0))
    inst = instance(
        g,
        2,
        {2: ((1.0, 2.0), None), 1: (None, None), 0: (None, (0.5, 0.0))},
        {(1, 2): ((0.0, 1.0), (2.0, 3.0)), (0, 1): None},
    )
    assert len(inst.node_terms) == 2 and len(inst.edge_terms) == 2
    assert list(inst.node_terms.items()) == [
        (0, ((0.0, 0.0), (0.5, 0.0))),
        (2, ((1.0, 2.0), (0.0, 0.0))),
    ]
    assert list(inst.edge_terms.items()) == [((1, 2), ((0.0, 1.0), (2.0, 3.0))), ((0, 1), zero)]


def _arrays(n, num_edges, **change):
    """Constructor arguments for n nodes, 2 labels and `num_edges` edge
    terms, every table zero, with `change` applied."""
    args = dict(
        node_utility=np.zeros((n, 2)),
        node_cost=np.zeros((n, 2)),
        edge_u=np.zeros(num_edges, np.intp),
        edge_v=np.zeros(num_edges, np.intp),
        edge_cost=np.zeros((num_edges, 2, 2)),
    )
    return {**args, **change}


def _path_arrays(**change):
    """Constructor arguments for a node utility at 0 and an edge term on
    (0, 1) of the path 0 - 1 - 2, with `change` applied."""
    node_utility = np.zeros((3, 2))
    node_utility[0] = (0.0, 1.0)
    edge_cost = np.zeros((1, 2, 2))
    edge_cost[0, 1, 1] = 0.5
    args = _arrays(3, 1, node_utility=node_utility, edge_v=np.array([1]), edge_cost=edge_cost)
    return {**args, **change}


def test_from_arrays_matches_the_dict_constructor():
    # the dict builder the tests draw instances with gives the same arrays
    g = Graph(edges=[(0, 1), (1, 2)])
    arrays = UtilityCostInstance(g, 2, **_path_arrays())
    terms = instance(g, 2, {0: ((0.0, 1.0), None)}, {(0, 1): ((0.0, 0.0), (0.0, 0.5))})
    assert dict(arrays.node_terms) == dict(terms.node_terms)
    assert dict(arrays.edge_terms) == dict(terms.edge_terms)
    lam = assignment(g.nodes, {0: (0.5, 0.5), 1: (0.25, 0.75), 2: (1.0, 0.0)})
    assert evaluate(arrays, lam) == evaluate(terms, lam)


@pytest.mark.parametrize(
    "change,match",
    [
        ({"edge_v": np.array([2])}, r"\(0,2\) is not a conflict edge"),
        ({"edge_u": np.array([1]), "edge_v": np.array([0])}, r"\(1,0\) is not a conflict edge"),
        ({"edge_v": np.array([3])}, "edge term position outside"),
        ({"edge_u": np.array([1]), "edge_v": np.array([1])}, r"\(1,1\) is not a conflict edge"),
        ({"edge_v": np.array([1, 2])}, "do not match"),
        ({"edge_v": np.array([-1])}, "edge term position outside"),
        ({"node_cost": np.full((3, 2), math.nan)}, "non-finite node"),
        ({"edge_cost": np.full((1, 2, 2), math.inf)}, "non-finite edge"),
        ({"edge_cost": np.zeros((1, 2, 3))}, "do not match"),
        ({"node_utility": np.zeros((2, 2))}, "do not match"),
        ({"utility_const": math.nan}, "constants must be finite"),
        ({"node_cost": [["0", "x"]] * 3}, "do not match"),
        ({"node_utility": np.zeros((3, 3))}, "do not match"),
        ({"node_cost": np.array([[0, 0], [0, math.inf], [0, 0]])}, "non-finite node"),
        ({"edge_cost": [[[0.0, 1.0], [1.0]]]}, "do not match"),
        ({"edge_cost": np.array([[[0.0, 1.0], [math.nan, 0.0]]])}, "non-finite edge"),
        ({"edge_u": np.array([3])}, "edge term position outside"),
        ({"edge_u": np.zeros((1, 1), np.intp)}, "do not match"),
    ],
)
def test_from_arrays_rejects_malformed_arrays(change, match):
    g = Graph(edges=[(0, 1), (1, 2)])
    with pytest.raises(PreconditionError, match=match):
        UtilityCostInstance(g, 2, **_path_arrays(**change))
    with pytest.raises(PreconditionError, match="at least one label"):
        UtilityCostInstance(g, 0, **_path_arrays())


def test_evaluate_rejects_malformed_labelings():
    g = Graph(edges=[(0, 1)])
    inst = instance(g, 2, {0: ((0.0, 1.0), None)})
    with pytest.raises(PreconditionError, match="have 3 labels, not 2"):
        evaluate(inst, assignment(g.nodes, {0: (0.5, 0.5, 0.0), 1: (1.0, 0.0, 0.0)}))


def test_fractional_assignment_rejects_nan():
    with pytest.raises(PreconditionError, match="outside"):
        FractionalAssignment((0, 1), [(math.nan, 1.0), (0.5, 0.5)])


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
        reference_check_probabilities(dict(zip(nodes, matrix.tolist())))
    except PreconditionError as exc:
        # the same check fails first, at the same node
        with pytest.raises(PreconditionError) as got:
            FractionalAssignment(nodes, matrix)
        assert str(got.value) == str(exc)
        return
    lam = FractionalAssignment(list(nodes), matrix)
    assert lam.nodes == nodes and not lam.matrix.flags.writeable
    assert np.array_equal(lam.matrix, matrix) and lam.matrix is not matrix


def test_both_constructors_sum_left_to_right():
    # 0.1 + 0.2 + 0.3 is 0.6000000000000001 left to right, and 0.6 under
    # the compensated builtin `sum` of Python 3.12 and later
    row = (0.1, 0.2, 0.3, 0.4 + 2e-9)
    want = re.escape(f"node 7 sum to {plain_sum(row)!r}")
    with pytest.raises(PreconditionError, match=want):
        reference_check_probabilities({7: row})
    with pytest.raises(PreconditionError, match=want):
        FractionalAssignment((7,), np.array([row]))


def test_from_matrix_needs_one_row_per_node():
    with pytest.raises(PreconditionError, match="shape"):
        FractionalAssignment((1, 2), np.ones((1, 2)) / 2)
    with pytest.raises(PreconditionError, match="shape"):
        FractionalAssignment((1, 2), np.ones(2) / 2)


def test_greedy_color_edgeless():
    g = Graph(nodes=[3, 1, 4])
    col = greedy_color(g)
    assert col.colors.tolist() == [0, 0, 0] and col.num_colors == 1
    assert greedy_color(Graph()).num_colors == 0


def test_greedy_color_clique():
    g = Graph(edges=[(a, b) for a in range(4) for b in range(a + 1, 4)])
    col = greedy_color(g)
    assert col.num_colors == 4
    assert len(set(col.colors.tolist())) == 4


def test_greedy_color_proper_and_bounded():
    rng = random.Random(9)
    g = random_graph(rng, 50, 0.1)
    col = greedy_color(g)
    colors = dict(zip(g.nodes, col.colors.tolist()))
    for u, v in g.edges():  # edge-scan properness oracle
        assert colors[u] != colors[v]
    assert col.graph is g and col.num_colors <= g.max_degree() + 1


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
@given(color_cases(), st.sampled_from([1, 2, 3, 64]), st.sampled_from([1, 3, 4096]))
def test_greedy_color_matches_the_first_fit_loop(g, columns, tail):
    # with few color columns, many wave members read their lower
    # neighbours' colors, and many colors land in the overflow column;
    # with short tail chunks, a node's lower neighbours lie in earlier chunks
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounding, "_TAKEN_COLUMNS", columns)
        patch.setattr(rounding, "_TAIL_NODES", tail)
        col = greedy_color(g)
    ref = reference_greedy_color(g)
    assert col.colors.tolist() == [ref[u] for u in g.nodes]
    assert col.num_colors == max(ref.values(), default=-1) + 1


def interleaved_cliques(count: int, size: int) -> Graph:
    """`count` disjoint cliques of `size` nodes, clique c on the ids c,
    c + count, c + 2 * count, ...: wave i is node i of every clique."""
    return Graph(
        edges=[
            (a * count + c, b * count + c)
            for c in range(count)
            for a in range(size)
            for b in range(a + 1, size)
        ]
    )


@pytest.mark.parametrize(
    "g, colors",
    [
        # waves of 20 nodes take colors 64-69, past the 64 color columns
        (interleaved_cliques(20, 70), 70),
        (gnp(400, 0.6, seed=3), 75),
        # the centre, with the highest id, has 399 lower neighbours
        (Graph(edges=[(u, 399) for u in range(399)]), 2),
        # 8 paths on interleaved ids: waves of 8 nodes, fewer than
        # n / _WAVE_SHARE at n = 20000, so the loop colors all but wave 0
        (Graph(edges=[(u, u + 8) for u in range(20000 - 8)]), 2),
    ],
)
def test_greedy_color_past_the_color_columns(g, colors):
    col, ref = greedy_color(g), reference_greedy_color(g)
    assert col.colors.tolist() == [ref[u] for u in g.nodes]
    assert col.num_colors == colors


# bytes per node that one coloring may trace on `clique_and_path`
COLOR_BYTES_PER_NODE = 240


@pytest.fixture(scope="module")
def clique_and_path() -> Graph:
    """A 150-clique, whose last node has 149 lower neighbours, and a
    200000-node path whose odd nodes have ids above both neighbours', so
    waves 0 and 1 color the whole path while the table is live."""
    length = 200_000
    ids = [150 + (i // 2 if i % 2 == 0 else length // 2 + i // 2) for i in range(length)]
    clique = [(a, b) for a in range(150) for b in range(a + 1, 150)]
    return Graph(edges=clique + list(zip(ids, ids[1:])))


def traced_bytes_per_node(g: Graph) -> float:
    tracemalloc.start()
    try:
        greedy_color(g)
        return tracemalloc.get_traced_memory()[1] / g.n
    finally:
        tracemalloc.stop()


def test_color_table_memory_is_linear(clique_and_path):
    # 65 bytes per node for the table, the rest for the waves' arrays
    assert traced_bytes_per_node(clique_and_path) < COLOR_BYTES_PER_NODE


def test_memory_bound_catches_an_uncapped_color_table(clique_and_path, monkeypatch):
    # 151 columns, one per possible color of the clique, and the overflow
    monkeypatch.setattr(rounding, "_TAKEN_COLUMNS", 10**9)
    assert traced_bytes_per_node(clique_and_path) >= COLOR_BYTES_PER_NODE


# bytes per node that one coloring may trace on `clique_and_path_by_id`:
# 122 measured with numpy 2.4.6 (the peak is the waves', not the loop's),
# 161 when the loop turns the whole path into lists at once
TAIL_BYTES_PER_NODE = 140


@pytest.fixture(scope="module")
def clique_and_path_by_id() -> Graph:
    """A 150-clique and a 200000-node path by increasing id: every wave
    after wave 0 has one node, so the per-node loop colors the path."""
    length = 200_000
    clique = [(a, b) for a in range(150) for b in range(a + 1, 150)]
    return Graph(edges=clique + [(150 + i, 151 + i) for i in range(length - 1)])


def test_first_fit_loop_memory_is_bounded(clique_and_path_by_id):
    g = clique_and_path_by_id
    assert traced_bytes_per_node(g) < TAIL_BYTES_PER_NODE
    colors = greedy_color(g).colors
    assert colors[:150].tolist() == list(range(150))
    assert colors[150:].tolist() == [i % 2 for i in range(g.n - 150)]


def test_memory_bound_catches_an_unchunked_loop(clique_and_path_by_id, monkeypatch):
    monkeypatch.setattr(rounding, "_TAIL_NODES", 10**9)
    assert traced_bytes_per_node(clique_and_path_by_id) >= TAIL_BYTES_PER_NODE


@pytest.mark.parametrize("nl", [1, 2, 3, 4])
@pytest.mark.parametrize("terms, entries", [(0, 0), (1, 1), (6, 0), (6, 40)])
def test_oriented_reads_each_entry_from_its_side(nl, terms, entries):
    rng = np.random.default_rng(nl * 100 + entries)
    tensors = rng.standard_normal((terms, nl, nl))
    index = rng.integers(0, 2 * terms, entries) if terms else np.zeros(0, np.intp)
    term, first = index % max(terms, 1), index < terms
    got = rounding._oriented(tensors, index)
    want = np.where(first[:, None, None], tensors[term], tensors[term].transpose(0, 2, 1))
    assert got.shape == (entries, nl, nl) and np.array_equal(got, want)


def test_greedy_color_matches_the_first_fit_loop_at_scale():
    # waves of up to 144 nodes and a tail of thin ones
    sq = square_graph(gnp(8192, 8 / 8191, seed=3))
    col, ref = greedy_color(sq), reference_greedy_color(sq)
    assert col.colors.tolist() == [ref[u] for u in sq.nodes]
    assert col.num_colors == max(ref.values()) + 1


def test_greedy_coloring_keeps_its_color_array():
    g = random_graph(random.Random(4), 30, 0.2)
    inst, lam = instance(g, 2), assignment(g.nodes, {u: (0.5, 0.5) for u in g.nodes})
    col = greedy_color(g)
    assert not col.colors.flags.writeable and col.colors.dtype == np.int64
    assert is_proper(g, col.colors) and round_labels(inst, lam, col)[0].tolist() == [0] * g.n
    # a coloring belongs to its graph: another node order is refused
    other = induced_subgraph(g, g.nodes[1:])
    half = assignment(other.nodes, {u: (0.5, 0.5) for u in other.nodes})
    with pytest.raises(PreconditionError, match="not of the instance's conflict graph"):
        round_labels(instance(other, 2), half, col)


def test_rounded_labels_are_a_read_only_array_that_keeps_its_value():
    rng = random.Random(6)
    inst, lam = random_objective(rng, max_nodes=25)
    g = inst.conflict_graph
    labels, value = round_labels(inst, lam, greedy_color(g))
    assert not labels.flags.writeable and labels.shape == (g.n,)
    # the value returned is the one evaluate gives the one-hot labeling
    assert value == evaluate(inst, integral(inst, labels))
    want = reference_evaluate(inst, dict(zip(g.nodes, labels.tolist())))
    assert value == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert evaluate(inst, lam) is evaluate(inst, lam)


def test_round_integral_fixed_point():
    # integral assignment already at the per-node maximizer stays put
    g = Graph(edges=[(0, 1)])
    inst = instance(
        g,
        2,
        {0: ((0.0, 2.0), None), 1: ((0.0, 2.0), None)},
        {(0, 1): ((0.0, 0.0), (0.0, 1.0))},
    )
    lam = assignment(g.nodes, {0: (0.0, 1.0), 1: (0.0, 1.0)})
    labels, after = round_labels(inst, lam, greedy_color(g))
    assert labels.tolist() == [1, 1]
    assert evaluate(inst, lam) == after


def test_round_single_node_picks_maximizer():
    g = Graph(nodes=[0])
    inst = instance(g, 2, {0: ((0.0, 1.0), None)})
    lam = assignment(g.nodes, {0: (0.3, 0.7)})
    assert round_labels(inst, lam, greedy_color(g))[0].tolist() == [1]


def test_round_ties_prefer_smaller_label():
    g = Graph(nodes=[0])
    inst = instance(g, 2, {0: ((0.5, 0.5), None)})
    lam = assignment(g.nodes, {0: (0.5, 0.5)})
    assert round_labels(inst, lam, greedy_color(g))[0].tolist() == [0]


def test_round_contract_on_random_instances():
    rng = random.Random(7)
    for _ in range(60):
        inst, lam = random_objective(rng, max_nodes=8)
        col = greedy_color(inst.conflict_graph)
        _, (uf, cf) = round_labels(inst, lam, col)
        u0, c0 = evaluate(inst, lam)
        assert uf - cf >= 0.9 * (u0 - c0) - 1e-9
        assert uf - cf >= (u0 - c0) - 1e-9
        best, expected = exhaustive_round_check(inst, lam)
        assert uf - cf >= expected - 1e-9
        assert uf - cf <= best + 1e-9


def test_round_precondition_rejected_with_measurements():
    g = Graph(nodes=[0])
    inst = instance(g, 2, {0: ((0.0, 1.0), (0.0, 0.99))})
    lam = assignment(g.nodes, {0: (0.0, 1.0)})
    with pytest.raises(PreconditionError, match="utility"):
        round_labels(inst, lam, greedy_color(g))


def test_round_improper_coloring_rejected():
    g = Graph(edges=[(0, 1)])
    assert not is_proper(g, np.array([0, 0]))
    with pytest.raises(PreconditionError, match="proper"):
        Coloring(g, [0, 0])
    with pytest.raises(PreconditionError, match="negative"):
        Coloring(g, [0, -1])
    # refused, not truncated to the proper coloring [0, 1]
    for colors in ([0.9, 1.2], np.array([0.0, 1.0]), [0, 1.0], [True, False]):
        with pytest.raises(PreconditionError, match="non-integer"):
            Coloring(g, colors)
    assert Coloring(g, np.array([1, 0], np.uint8)).colors.tolist() == [1, 0]
    assert Coloring(Graph(), []).num_colors == 0
    # a proper coloring of an equal graph is still not this graph's
    inst = instance(g, 2, {0: ((0.0, 1.0), None)})
    lam = assignment(g.nodes, {0: (0.5, 0.5), 1: (0.5, 0.5)})
    with pytest.raises(PreconditionError, match="not of the instance's conflict graph"):
        round_labels(inst, lam, Coloring(Graph(edges=[(0, 1)]), [0, 1]))
    assert round_labels(inst, lam, Coloring(g, [1, 0]))[0].tolist() == [1, 0]


@st.composite
def colorings(draw):
    """A graph on up to 24 ids anywhere in [0, 2^63) and colors by node
    position: a greedy (proper) coloring, one with a few nodes recolored,
    or random colors from a small range, optionally shifted below 0."""
    ids = st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1))
    nodes = sorted(draw(st.sets(ids, max_size=24)))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
    g = Graph(nodes=nodes, edges=[e for e in pairs if draw(st.floats(0, 1)) < p])
    colors = greedy_color(g).colors.tolist()
    kind = draw(st.sampled_from(["greedy", "recolored", "random"]))
    if kind == "recolored" and nodes:
        for i in draw(st.lists(st.integers(0, len(nodes) - 1), max_size=3)):
            colors[i] = draw(st.integers(0, 3))
    elif kind == "random":
        colors = [draw(st.integers(0, 3)) for _ in nodes]
    shift = draw(st.sampled_from([0, -5]))
    return g, np.array(colors, np.int64) + shift


@settings(max_examples=300, deadline=None)
@given(colorings())
def test_is_proper_matches_the_generator(case):
    g, colors = case
    proper = reference_is_proper(g, dict(zip(g.nodes, colors.tolist())))
    assert is_proper(g, colors) == proper
    if proper and (not g.n or colors.min() >= 0):
        assert Coloring(g, colors).colors.tolist() == colors.tolist()
    else:
        with pytest.raises(PreconditionError):
            Coloring(g, colors)


@pytest.mark.parametrize("n", [2, 3, 300])
@pytest.mark.parametrize("ends", ["first and last", "last two"])
def test_is_proper_finds_a_lone_bad_edge_at_the_ends(n, ends):
    # a path on all but the last position, colored 0, 1, 0, 1, ..., and
    # one edge from the last position to a node of its color
    a, b = (0, n - 1) if ends == "first and last" else (n - 2, n - 1)
    colors = np.arange(n) % 2
    colors[b] = colors[a]
    ids = [5 * i + 2**40 for i in range(n)]
    g = Graph(nodes=ids, edges=list(zip(ids[:-1], ids[1:-1])) + [(ids[a], ids[b])])
    assert reference_is_proper(g, dict(zip(ids, colors.tolist()))) is False
    assert not is_proper(g, colors) and not is_proper(g, colors - 7)
    with pytest.raises(PreconditionError, match="not proper"):
        Coloring(g, colors)
    colors[b] = 2  # the only bad edge mended
    assert is_proper(g, colors) and is_proper(g, colors - 7)


def test_is_proper_needs_every_color():
    g = Graph(edges=[(3, 2**60), (2**60, 7)])
    for colors in ({3: 0, 2**60: 1}, {3: 0, 7: 0}):
        with pytest.raises(PreconditionError, match=r"\(2,\) colors for 3 nodes"):
            Coloring(g, list(colors.values()))
        with pytest.raises(KeyError):
            reference_is_proper(g, colors)


def test_probability_matrix_is_kept_per_node_order():
    g = Graph(edges=[(0, 5), (5, 9)])
    inst = instance(g, 2, {5: ((0.0, 1.0), (0.2, 0.0))})
    lam = assignment(g.nodes, {0: (0.5, 0.5), 5: (0.25, 0.75), 9: (1.0, 0.0)})
    before = evaluate(inst, lam)
    kept = lam.matrix
    assert not kept.flags.writeable
    assert kept.tolist() == [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]
    # round_labels writes one-hot rows into its own copy, not the kept one
    round_labels(inst, lam, greedy_color(g))
    assert lam.matrix is kept and kept.tolist() == [[0.5, 0.5], [0.25, 0.75], [1.0, 0.0]]
    assert evaluate(inst, lam) == before
    # the matrix is over one node order; another graph's is refused
    other = Graph(edges=[(0, 5), (5, 9), (9, 10)])
    with pytest.raises(PreconditionError, match="not over the conflict graph's nodes"):
        evaluate(instance(other, 2), lam)


def test_kept_probabilities_still_check_every_call():
    g = Graph(edges=[(0, 1)])
    inst = instance(g, 2, {0: ((0.0, 1.0), None)})
    three = instance(g, 3)
    short = assignment((0,), {0: (0.5, 0.5)})
    lam = assignment(g.nodes, {0: (0.5, 0.5), 1: (0.5, 0.5)})
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not over the conflict graph's nodes"):
            evaluate(inst, short)
        assert evaluate(inst, lam) == (0.5, 0.0)
        with pytest.raises(PreconditionError, match="have 2 labels, not 3"):
            evaluate(three, lam)


def test_round_deterministic():
    rng = random.Random(12)
    inst, lam = random_objective(rng, max_nodes=7)
    col = greedy_color(inst.conflict_graph)
    (first, value), (again, repeat) = round_labels(inst, lam, col), round_labels(inst, lam, col)
    assert first.tolist() == again.tolist() and value == repeat


def test_round_monotone_counted():
    rng = random.Random(15)
    inst, lam = random_objective(rng, max_nodes=7)
    col = greedy_color(inst.conflict_graph)
    checks = ClaimChecker()
    round_labels(inst, lam, col, checks=checks)
    assert checks.counts["rounding-monotone"] == col.num_colors
    assert checks.counts["rounding-no-loss"] == 1


def test_round_monotone_names_the_first_class_that_drops(monkeypatch):
    rng = random.Random(15)
    inst, lam = random_objective(rng, max_nodes=7)
    col = greedy_color(inst.conflict_graph)
    real = rounding.geq

    def third_class_drops(a, b, scale=None):
        held = real(a, b, scale)
        return held & (np.arange(len(held)) != 2) if isinstance(held, np.ndarray) else held

    monkeypatch.setattr(rounding, "geq", third_class_drops)
    with pytest.raises(ClaimViolation, match=r"rounding-monotone: .* within color class 2$"):
        round_labels(inst, lam, Coloring(inst.conflict_graph, 3 * col.colors + 3))


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 10_000))
def test_round_never_below_fractional(seed):
    rng = random.Random(seed)
    inst, lam = random_objective(rng, max_nodes=6)
    _, (uf, cf) = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    u0, c0 = evaluate(inst, lam)
    assert uf - cf >= (u0 - c0) - 1e-9


def test_three_label_alphabet():
    rng = random.Random(21)
    inst, lam = random_objective(rng, max_nodes=5, num_labels=3)
    labels, _ = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    assert labels.shape == (inst.conflict_graph.n,)
    assert all(0 <= lab < 3 for lab in labels.tolist())


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
    edge_terms = {e: table((nl, nl)) for e in edges if draw(st.booleans())}
    # a large enough constant keeps utility - cost >= 0.1 * utility; it
    # moves no score, so it cannot hide a label difference
    costs = [cost for _, cost in node_terms.values()] + list(edge_terms.values())
    cost_mass = sum(float(np.sum(cost)) for cost in costs if cost is not None)
    inst = instance(g, nl, node_terms, edge_terms, utility_const=10 * cost_mass + 1)

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
    labels = {u: draw(st.integers(0, nl - 1)) for u in nodes}

    col = greedy_color(g)
    stride, flip = draw(st.integers(1, 2)), draw(st.booleans())
    top = stride * col.num_colors
    coloring = Coloring(g, top - 1 - stride * col.colors if flip else stride * col.colors)
    return inst, assignment(g.nodes, probs), labels, coloring


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(objectives())
def test_array_path_matches_loop_reference(case):
    inst, lam, labels, coloring = case
    for fractional, given in ((lam, lam), (integral(inst, labels), labels)):
        got, want = evaluate(inst, fractional), reference_evaluate(inst, given)
        assert _close(got[0], want[0]) and _close(got[1], want[1])
    checks = ClaimChecker()
    rounded, got = round_labels(inst, lam, coloring, checks=checks)
    # one monotone check per color class, empty ones (stride 2) included
    assert checks.counts["rounding-monotone"] == coloring.num_colors
    want_labels = reference_round_labels(inst, lam, coloring)
    assert rounded.tolist() == [want_labels[u] for u in inst.conflict_graph.nodes]
    want = reference_evaluate(inst, want_labels)
    assert _close(got[0], want[0]) and _close(got[1], want[1])


def hitting_shaped(seed: int):
    """A hitting step's objective, shaped as `basic_hitting_set` builds
    it: 300 nodes, each with a node term, and a few dozen pair terms, so
    most nodes carry no edge entry."""
    rng = np.random.default_rng(seed)
    n, norm = 300, 0.05
    g = gnp(n, 0.05, seed=seed)
    a, b = edge_ends(g)
    pick = rng.choice(len(a), size=min(40, len(a)), replace=False)
    pick.sort()
    node_utility = np.zeros((n, 2))
    node_utility[:, 1] = rng.uniform(0.0, 0.2, n) * (rng.random(n) < 0.3)
    node_cost = np.repeat([[0.0, norm]], n, axis=0)
    edge_cost = np.zeros((len(pick), 2, 2))
    edge_cost[:, 1, 1] = rng.uniform(0.0, 0.3, len(pick))
    inst = UtilityCostInstance(
        g, 2, node_utility, node_cost, a[pick], b[pick], edge_cost, utility_const=20.0
    )
    q = rng.choice([0.05, 0.25, 0.5])
    lam = FractionalAssignment(g.nodes, np.tile((1.0 - q, q), (n, 1)))
    return inst, lam


@pytest.mark.parametrize("seed", range(6))
def test_hitting_shaped_rounding_matches_the_loop(seed):
    inst, lam = hitting_shaped(seed)
    g = inst.conflict_graph
    for coloring in (greedy_color(g), Coloring(g, 2 * greedy_color(g).colors)):
        checks = ClaimChecker()
        labels, got = round_labels(inst, lam, coloring, checks=checks)
        want = reference_round_labels(inst, lam, coloring)
        assert labels.tolist() == [want[u] for u in g.nodes]
        expected = reference_evaluate(inst, want)
        assert _close(got[0], expected[0]) and _close(got[1], expected[1])
        assert checks.counts["rounding-monotone"] == coloring.num_colors
