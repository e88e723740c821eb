import math
import random
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localround import rounding
from localround.errors import ClaimChecker, ClaimViolation, PreconditionError
from localround.generators import cycle, gnp, grid, path, regular
from localround.hitting import conflict_graph, split_into_copies
from localround.graphs import Graph, induced_subgraph, square_graph
from localround.mis import closed_neighbourhoods
from localround.oracles import exhaustive_round_check
from localround.rounding import (
    CliqueCover,
    Coloring,
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    is_proper,
    round_labels,
)

from conftest import random_graph, random_hitting_instance, random_objective, relabel
from rounding_reference import (
    assignment,
    edge_cover,
    instance,
    edge_terms,
    integral,
    node_terms,
    reference_check_probabilities,
    reference_evaluate,
    reference_greedy_color,
    reference_is_proper,
    reference_round_labels,
    csr_first_fit,
    conflict_pairs,
)


def test_evaluate_single_node_integral():
    g = Graph(nodes=[0])
    inst = instance(g, {0: (1.0, None)})
    assert evaluate(inst, integral(inst, {0: 1})) == (1.0, 0.0)
    assert evaluate(inst, integral(inst, {0: 0})) == (0.0, 0.0)


def test_evaluate_pairwise_product():
    g = Graph(edges=[(0, 1)])
    inst = instance(g, pair_terms={(0, 1): 1.0})
    lam = assignment(g.nodes, {0: 0.5, 1: 0.5})
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
    inst = instance(g)
    for nodes in ((0,), (1, 0), (0, 1, 2)):
        lam = assignment(nodes, {u: 1.0 for u in nodes})
        with pytest.raises(PreconditionError, match="not over the conflict graph's nodes"):
            evaluate(inst, lam)


def test_instance_rejects_non_conflict_edge_terms():
    alone = CliqueCover((0, 1), [0, 1, 2], [0, 1])  # two hubs of one node each
    edge = dict(entry_u=np.array([0]), entry_v=np.array([1]))
    with pytest.raises(PreconditionError, match=r"\(0,1\) is not a conflict edge"):
        UtilityCostInstance(alone, **_arrays(2, 1, **edge))
    # a pair that conflicts must still be named by one hub's entries
    path = edge_cover(Graph(edges=[(0, 1), (1, 2)]))  # entries 0 1 | 1 2
    twice = CliqueCover((0, 1, 2), [0, 2, 4], [0, 1, 0, 1])
    with pytest.raises(PreconditionError, match=r"\(0,1\) is not a conflict edge of one hub"):
        UtilityCostInstance(twice, **_arrays(3, 1, entry_v=np.array([3])))
    named = UtilityCostInstance(twice, **_arrays(3, 1, entry_v=np.array([1])))
    assert named.edge_terms.tolist() == [[0, 1]]
    with pytest.raises(PreconditionError, match=r"\(1,2\) is not a conflict edge of one hub"):
        UtilityCostInstance(path, **_arrays(3, 1, entry_u=np.array([1]), entry_v=np.array([3])))


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_instance_rejects_non_finite_constants(value):
    g = edge_cover(Graph(edges=[(0, 1), (1, 2)]))
    with pytest.raises(PreconditionError, match="constants must be finite"):
        UtilityCostInstance(g, **_path_arrays(utility_const=value))


def test_term_views_keep_keys_order_and_length():
    # node terms are the nodes with a nonzero utility or cost, in id order;
    # pair terms keep their order, a zero cost included: in the arrays, and
    # in the dict form of them that the references read
    g = Graph(edges=[(0, 1), (1, 2), (0, 2)])
    inst = instance(
        g,
        {2: (2.0, None), 1: (None, None), 0: (None, 0.5)},
        {(1, 2): 3.0, (0, 1): None},
    )
    assert inst.node_utility.tolist() == [0.0, 0.0, 2.0]
    assert inst.node_cost.tolist() == [0.5, 0.0, 0.0]
    assert len(inst.edge_terms) == 2 and inst.edge_terms.tolist() == [[1, 2], [0, 1]]
    assert inst.pair_cost.tolist() == [3.0, 0.0]
    assert list(node_terms(inst).items()) == [(0, (0.0, 0.5)), (2, (2.0, 0.0))]
    assert list(edge_terms(inst).items()) == [((1, 2), 3.0), ((0, 1), 0.0)]


def _arrays(n, num_edges, **change):
    """Constructor arguments for n nodes and `num_edges` pair terms, every
    value zero, with `change` applied."""
    args = dict(
        node_utility=np.zeros(n),
        node_cost=np.zeros(n),
        entry_u=np.zeros(num_edges, np.intp),
        entry_v=np.zeros(num_edges, np.intp),
        pair_cost=np.zeros(num_edges),
    )
    return {**args, **change}


def _path_arrays(**change):
    """Constructor arguments for a node utility at 0 and a pair term on
    (0, 1) of the path 0 - 1 - 2, whose `edge_cover` has the entries
    0, 1 (hub 0) and 1, 2 (hub 1), with `change` applied."""
    node_utility = np.array([1.0, 0.0, 0.0])
    args = _arrays(3, 1, node_utility=node_utility, entry_v=np.array([1]), pair_cost=[0.5])
    return {**args, **change}


def test_from_arrays_matches_the_dict_constructor():
    # the dict builder the tests draw instances with gives the same arrays
    g = Graph(edges=[(0, 1), (1, 2)])
    arrays = UtilityCostInstance(edge_cover(g), **_path_arrays())
    terms = instance(g, {0: (1.0, None)}, {(0, 1): 0.5})
    for table in ("node_utility", "node_cost", "edge_terms", "pair_cost"):
        assert getattr(arrays, table).tolist() == getattr(terms, table).tolist()
    lam = assignment(g.nodes, {0: 0.5, 1: 0.75, 2: 0.0})
    assert evaluate(arrays, lam) == evaluate(terms, lam)


@pytest.mark.parametrize(
    "change,match",
    [
        ({"entry_v": np.array([3])}, r"\(0,2\) is not a conflict edge"),
        ({"entry_u": np.array([1]), "entry_v": np.array([0])}, r"\(1,0\) is not a conflict edge"),
        ({"entry_v": np.array([4])}, "edge term position outside"),
        ({"entry_u": np.array([1]), "entry_v": np.array([2])}, r"\(1,1\) is not a conflict edge"),
        ({"entry_v": np.array([1, 2])}, "do not match"),
        ({"entry_v": np.array([-1])}, "edge term position outside"),
        ({"node_cost": np.full(3, math.nan)}, "non-finite node"),
        ({"pair_cost": np.full(1, math.inf)}, "non-finite edge"),
        ({"pair_cost": np.zeros(2)}, "do not match"),
        ({"node_utility": np.zeros(2)}, "do not match"),
        ({"utility_const": math.nan}, "constants must be finite"),
        ({"node_cost": ["0", "x", "0"]}, "do not match"),
        # the n x 2 table of a label alphabet is refused
        ({"node_utility": np.zeros((3, 2))}, "do not match"),
        ({"node_cost": np.array([0, math.inf, 0])}, "non-finite node"),
        ({"pair_cost": [[0.0, 1.0], [1.0]]}, "do not match"),
        ({"pair_cost": np.array([math.nan])}, "non-finite edge"),
        ({"entry_u": np.array([4])}, "edge term position outside"),
        ({"entry_u": np.zeros((1, 1), np.intp)}, "do not match"),
    ],
)
def test_from_arrays_rejects_malformed_arrays(change, match):
    g = edge_cover(Graph(edges=[(0, 1), (1, 2)]))
    with pytest.raises(PreconditionError, match=match):
        UtilityCostInstance(g, **_path_arrays(**change))


def test_fractional_assignment_rejects_nan():
    with pytest.raises(PreconditionError, match="outside"):
        FractionalAssignment((0, 1), [math.nan, 0.5])


@st.composite
def probability_vectors(draw):
    """Node ids and one marking probability per node, mostly in [0, 1];
    some are NaN or just or well outside [0, 1]."""
    nodes = tuple(draw(st.lists(st.integers(0, 2**60), unique=True, max_size=8)))
    special = st.sampled_from([math.nan, -0.1, 1.5, -1e-12, 1 + 2e-12, -0.0, 0.0, 1.0])
    x = [draw(special if draw(st.integers(0, 3)) == 0 else st.floats(0.0, 1.0)) for _ in nodes]
    return nodes, np.array(x, float)


@settings(max_examples=400, deadline=None)
@given(probability_vectors())
def test_from_matrix_checks_as_the_constructor_does(case):
    nodes, x = case
    try:
        reference_check_probabilities(dict(zip(nodes, x.tolist())))
    except PreconditionError as exc:
        # the same check fails first, at the same node
        with pytest.raises(PreconditionError) as got:
            FractionalAssignment(nodes, x)
        assert str(got.value) == str(exc)
        return
    lam = FractionalAssignment(list(nodes), x)
    assert lam.nodes == nodes and not lam.x.flags.writeable
    assert np.array_equal(lam.x, x) and lam.x is not x


def test_from_matrix_needs_one_row_per_node():
    with pytest.raises(PreconditionError, match="shape"):
        FractionalAssignment((1, 2), np.ones(1) / 2)
    # the n x 2 matrix of a label alphabet is refused
    with pytest.raises(PreconditionError, match="shape"):
        FractionalAssignment((1, 2), np.ones((2, 2)) / 2)


def test_greedy_color_edgeless():
    col = greedy_color(edge_cover(Graph(nodes=[3, 1, 4])))
    assert col.colors.tolist() == [0, 0, 0] and col.num_colors == 1
    assert greedy_color(edge_cover(Graph())).num_colors == 0


def test_greedy_color_clique():
    g = Graph(edges=[(a, b) for a in range(4) for b in range(a + 1, 4)])
    for cover in (edge_cover(g), CliqueCover(g.nodes, [0, 4], [0, 1, 2, 3])):
        col = greedy_color(cover)
        assert col.colors.tolist() == [0, 1, 2, 3] and col.num_colors == 4


def test_greedy_color_proper_and_bounded():
    rng = random.Random(9)
    g = random_graph(rng, 50, 0.1)
    cover = edge_cover(g)
    col = greedy_color(cover)
    colors = dict(zip(g.nodes, col.colors.tolist()))
    for u, v in g.edges():  # edge-scan properness oracle
        assert colors[u] != colors[v]
    assert col.graph is cover and col.num_colors <= g.max_degree() + 1


@st.composite
def color_cases(draw):
    """A clique cover and the graph it describes: G(n, p) on up to 400
    nodes, from edgeless to dense, perhaps on sparse 60-bit ids, as its
    `edge_cover` or as the closed neighbourhoods that cover its square
    (the cover the MIS colors)."""
    n = draw(st.integers(0, 400))
    p = draw(st.sampled_from([0.0, 0.004, 0.01, 0.03, 0.1, 0.4]))
    g = gnp(n, p, seed=draw(st.integers(0, 10**6))) if n else Graph()
    if draw(st.booleans()):
        g = relabel(g, random.Random(draw(st.integers(0, 999))))
    if draw(st.booleans()):
        return closed_neighbourhoods(g)[0], square_graph(g)
    return edge_cover(g), g


@settings(max_examples=150, deadline=None)
@given(color_cases(), st.sampled_from([1, 2, 3, 64]), st.sampled_from([1, 3, 4096]))
def test_greedy_color_matches_the_first_fit_loop(case, columns, tail):
    # with few color columns, many wave members read their lower
    # neighbours' colors, and many colors land in the overflow column;
    # with short tail chunks, a node's lower neighbours lie in earlier chunks
    cover, g = case
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rounding, "_TAKEN_COLUMNS", columns)
        patch.setattr(rounding, "_TAIL_NODES", tail)
        col = greedy_color(cover)
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
    col, ref = greedy_color(edge_cover(g)), reference_greedy_color(g)
    assert col.colors.tolist() == [ref[u] for u in g.nodes]
    assert col.num_colors == colors


# bytes per node that one coloring may trace on `clique_and_path`: 207
# measured with numpy 2.4.6, 336 with a color column per possible color
COLOR_BYTES_PER_NODE = 240


@pytest.fixture(scope="module")
def clique_and_path() -> CliqueCover:
    """The edge cover of a 150-clique, whose last node has 149 lower
    neighbours, and a 200000-node path whose odd nodes have ids above
    both neighbours', so waves 0 and 1 color the whole path while the
    table is live."""
    length = 200_000
    ids = [150 + (i // 2 if i % 2 == 0 else length // 2 + i // 2) for i in range(length)]
    clique = [(a, b) for a in range(150) for b in range(a + 1, 150)]
    return edge_cover(Graph(edges=clique + list(zip(ids, ids[1:]))))


def traced_bytes_per_node(cover: CliqueCover) -> float:
    tracemalloc.start()
    try:
        greedy_color(cover)
        return tracemalloc.get_traced_memory()[1] / cover.n
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
# 130 measured with numpy 2.4.6 (the peak is the waves', not the loop's),
# 174 when the loop turns the whole path into lists at once
TAIL_BYTES_PER_NODE = 140


@pytest.fixture(scope="module")
def clique_and_path_graph() -> Graph:
    """A 150-clique and a 200000-node path by increasing id."""
    length = 200_000
    clique = [(a, b) for a in range(150) for b in range(a + 1, 150)]
    return Graph(edges=clique + [(150 + i, 151 + i) for i in range(length - 1)])


@pytest.fixture(scope="module")
def clique_and_path_by_id(clique_and_path_graph) -> CliqueCover:
    """The edge cover of `clique_and_path_graph`: every wave after wave 0
    has one node, so the per-node loop colors the path."""
    return edge_cover(clique_and_path_graph)


def test_first_fit_loop_memory_is_bounded(clique_and_path_by_id):
    cover = clique_and_path_by_id
    assert traced_bytes_per_node(cover) < TAIL_BYTES_PER_NODE
    colors = greedy_color(cover).colors
    assert colors[:150].tolist() == list(range(150))
    assert colors[150:].tolist() == [i % 2 for i in range(cover.n - 150)]


def test_memory_bound_catches_an_unchunked_loop(clique_and_path_by_id, monkeypatch):
    monkeypatch.setattr(rounding, "_TAIL_NODES", 10**9)
    assert traced_bytes_per_node(clique_and_path_by_id) >= TAIL_BYTES_PER_NODE


SQUARE_CASES = {
    "gnp": lambda: gnp(4096, 8 / 4095, seed=5),
    # by increasing id, every wave after wave 0 has one node: the loop
    "path by id": lambda: path(5000),
    "cycle by id": lambda: cycle(5000),
    "grid 40x40": lambda: grid(40, 40),
    "regular(1000, 3)": lambda: regular(1000, 3, seed=2),
    **{
        f"random ids {k}": (lambda k=k: relabel(gnp(600, 0.012, seed=k), random.Random(k)))
        for k in range(4)
    },
}


@pytest.mark.parametrize("name", SQUARE_CASES)
def test_closed_neighbourhoods_color_as_the_square(name):
    # the cover describes exactly the square, and coloring it gives the
    # first-fit coloring of the materialised square bit for bit
    h = SQUARE_CASES[name]()
    cover, sq = closed_neighbourhoods(h)[0], square_graph(h)
    assert conflict_pairs(cover) == sq
    col = greedy_color(cover)
    assert col.colors.tolist() == csr_first_fit(sq)
    ref = reference_greedy_color(sq)
    assert col.colors.tolist() == [ref[u] for u in sq.nodes]


def test_closed_neighbourhoods_color_the_memory_case_as_the_square(clique_and_path_graph):
    h = clique_and_path_graph
    colors = greedy_color(closed_neighbourhoods(h)[0]).colors.tolist()
    assert colors == csr_first_fit(square_graph(h))
    # a clique's square is itself; a path's by increasing id repeats 0 1 2
    assert colors[:150] == list(range(150))
    assert colors[150:] == [i % 3 for i in range(h.n - 150)]


@pytest.mark.parametrize("seed", range(3))
def test_copy_instances_color_as_their_pair_graph(seed):
    # shaped like the benchmark's grouped solves: |V| = 400, |U| = 40,
    # delta = 8 split into blocks of k = 4
    rng = random.Random(seed)
    copies = split_into_copies(
        random_hitting_instance(rng, n_u=40, n_v=400, delta=8, p=0.25, norm=0.05, k=4)
    )
    cover = conflict_graph(copies)
    rows = copies.adj.values()
    pairs = Graph(nodes=copies.v_nodes, edges=[e for row in rows for e in combinations(row, 2)])
    assert conflict_pairs(cover) == pairs
    assert greedy_color(cover).colors.tolist() == csr_first_fit(pairs)


def test_a_color_repeated_inside_one_hub_is_refused():
    # 0 and 2 share only hub 1, N[1], and are not adjacent in the path
    h = path(3)
    cover = closed_neighbourhoods(h)[0]
    assert cover.hub_ptr.tolist() == [0, 2, 5, 7]
    assert cover.members.tolist() == [0, 1, 0, 1, 2, 1, 2]
    assert reference_is_proper(h, {0: 0, 1: 1, 2: 0})
    assert not is_proper(cover, np.array([0, 1, 0]))
    with pytest.raises(PreconditionError, match="not proper"):
        Coloring(cover, [0, 1, 0])
    assert Coloring(cover, [0, 1, 2]).num_colors == 3
    # at scale: one node of a proper coloring takes the color of a node
    # two hops away
    h = gnp(2048, 8 / 2047, seed=4)
    cover, sq = closed_neighbourhoods(h)[0], square_graph(h)
    colors = greedy_color(cover).colors.copy()
    u = next(u for u in range(h.n) if set(sq.neighbors(u)) - set(h.neighbors(u)))
    w = min(set(sq.neighbors(u)) - set(h.neighbors(u)))
    colors[w] = colors[u]
    assert not is_proper(cover, colors)
    with pytest.raises(PreconditionError, match="not proper"):
        Coloring(cover, colors)


@pytest.mark.parametrize(
    "hub_ptr, members, match",
    [
        ([0, 2], [1, 1], "not increasing"),
        ([0, 2, 3], [2, 1, 0], "not increasing"),
        ([0, 2], [0, 3], r"outside \[0, 3\)"),
        ([0, 2], [-1, 0], r"outside \[0, 3\)"),
        ([0, 3], [0, 1], "do not lay out"),
        ([1, 2], [0, 1], "do not lay out"),
        ([0, 2, 1, 2], [0, 1], "do not lay out"),
        ([], [], "do not lay out"),
        ([0, 2], [0.0, 1.0], "integer arrays"),
        ([[0, 2]], [0, 1], "integer arrays"),
    ],
)
def test_clique_cover_checks_its_layout(hub_ptr, members, match):
    with pytest.raises(PreconditionError, match=match):
        CliqueCover((4, 5, 6), hub_ptr, members)


def test_clique_cover_keeps_read_only_copies():
    hub_ptr, members = np.array([0, 2, 2, 5]), np.array([0, 2, 0, 1, 2])
    cover = CliqueCover((4, 5, 6), hub_ptr, members)
    # an empty hub is allowed; a hub may repeat another's members
    assert cover.n == 3 and cover.hub.tolist() == [0, 0, 2, 2, 2]
    for array in (cover.hub_ptr, cover.members, cover.hub):
        assert not array.flags.writeable and array.dtype == np.intp
    members[0] = 1
    assert cover.members[0] == 0
    assert greedy_color(cover).colors.tolist() == [0, 1, 2]


def test_is_proper_ranks_colors_too_far_apart_to_code():
    # 2 hubs times a color span near 2^62 overflows the hub code
    cover = CliqueCover((1, 2, 3), [0, 2, 4], [0, 1, 1, 2])
    big = 2**62
    assert is_proper(cover, np.array([0, big, 0]))
    assert not is_proper(cover, np.array([0, big, big]))
    assert not is_proper(cover, np.array([big, big, 0]))


def test_greedy_color_matches_the_first_fit_loop_at_scale():
    # waves of up to 144 nodes and a tail of thin ones
    h = gnp(8192, 8 / 8191, seed=3)
    sq = square_graph(h)
    col, ref = greedy_color(closed_neighbourhoods(h)[0]), reference_greedy_color(sq)
    assert col.colors.tolist() == [ref[u] for u in sq.nodes] == csr_first_fit(sq)
    assert col.num_colors == max(ref.values()) + 1


def test_greedy_coloring_keeps_its_color_array():
    g = random_graph(random.Random(4), 30, 0.2)
    inst, lam = instance(g), assignment(g.nodes, {u: 0.5 for u in g.nodes})
    cover = inst.conflict_graph
    col = greedy_color(cover)
    assert not col.colors.flags.writeable and col.colors.dtype == np.int64
    assert is_proper(cover, col.colors) and not round_labels(inst, lam, col)[0].any()
    # a coloring belongs to its graph: another node order is refused
    other = induced_subgraph(g, np.arange(g.n) > 0)
    half = assignment(other.nodes, {u: 0.5 for u in other.nodes})
    with pytest.raises(PreconditionError, match="not of the instance's conflict graph"):
        round_labels(instance(other), half, col)


def test_rounded_labels_are_a_read_only_array_that_keeps_its_value():
    rng = random.Random(6)
    inst, lam = random_objective(rng, max_nodes=25)
    g = inst.conflict_graph
    marked, value = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    assert not marked.flags.writeable and marked.shape == (g.n,) and marked.dtype == bool
    # the value returned is the one evaluate gives the integral marking
    assert value == evaluate(inst, integral(inst, marked))
    want = reference_evaluate(inst, dict(zip(g.nodes, marked.tolist())))
    assert value == pytest.approx(want, rel=1e-9, abs=1e-12)
    assert evaluate(inst, lam) is evaluate(inst, lam)


def test_round_integral_fixed_point():
    # integral assignment already at the per-node maximizer stays put
    g = Graph(edges=[(0, 1)])
    inst = instance(g, {0: (2.0, None), 1: (2.0, None)}, {(0, 1): 1.0})
    lam = assignment(g.nodes, {0: 1.0, 1: 1.0})
    marked, after = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    assert marked.tolist() == [True, True]
    assert evaluate(inst, lam) == after


def test_round_single_node_picks_maximizer():
    g = Graph(nodes=[0])
    inst = instance(g, {0: (1.0, None)})
    lam = assignment(g.nodes, {0: 0.7})
    assert round_labels(inst, lam, greedy_color(inst.conflict_graph))[0].tolist() == [True]


def test_round_ties_prefer_smaller_label():
    # marking adds 0.5 - 0.5 = 0: a tie, which leaves the node unmarked
    g = Graph(nodes=[0])
    inst = instance(g, {0: (0.5, 0.5)}, utility_const=1.0)
    lam = assignment(g.nodes, {0: 0.5})
    assert round_labels(inst, lam, greedy_color(inst.conflict_graph))[0].tolist() == [False]


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
    inst = instance(g, {0: (1.0, 0.99)})
    lam = assignment(g.nodes, {0: 1.0})
    with pytest.raises(PreconditionError, match="utility"):
        round_labels(inst, lam, greedy_color(inst.conflict_graph))


def test_round_improper_coloring_rejected():
    g = Graph(edges=[(0, 1)])
    inst = instance(g, {0: (1.0, None)})
    cover = inst.conflict_graph
    assert not is_proper(cover, np.array([0, 0]))
    with pytest.raises(PreconditionError, match="proper"):
        Coloring(cover, [0, 0])
    with pytest.raises(PreconditionError, match="negative"):
        Coloring(cover, [0, -1])
    # refused, not truncated to the proper coloring [0, 1]
    for colors in ([0.9, 1.2], np.array([0.0, 1.0]), [0, 1.0], [True, False]):
        with pytest.raises(PreconditionError, match="non-integer"):
            Coloring(cover, colors)
    assert Coloring(cover, np.array([1, 0], np.uint8)).colors.tolist() == [1, 0]
    assert Coloring(edge_cover(Graph()), []).num_colors == 0
    # a proper coloring of an equal cover is still not this instance's
    lam = assignment(g.nodes, {0: 0.5, 1: 0.5})
    with pytest.raises(PreconditionError, match="not of the instance's conflict graph"):
        round_labels(inst, lam, Coloring(edge_cover(g), [0, 1]))
    assert round_labels(inst, lam, Coloring(cover, [1, 0]))[0].tolist() == [True, False]


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
    colors = greedy_color(edge_cover(g)).colors.tolist()
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
    cover = edge_cover(g)
    proper = reference_is_proper(g, dict(zip(g.nodes, colors.tolist())))
    assert is_proper(cover, colors) == proper
    if proper and (not g.n or colors.min() >= 0):
        assert Coloring(cover, colors).colors.tolist() == colors.tolist()
    else:
        with pytest.raises(PreconditionError):
            Coloring(cover, colors)


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
    cover = edge_cover(g)
    assert reference_is_proper(g, dict(zip(ids, colors.tolist()))) is False
    assert not is_proper(cover, colors) and not is_proper(cover, colors - 7)
    with pytest.raises(PreconditionError, match="not proper"):
        Coloring(cover, colors)
    colors[b] = 2  # the only bad edge mended
    assert is_proper(cover, colors) and is_proper(cover, colors - 7)


def test_is_proper_needs_every_color():
    g = Graph(edges=[(3, 2**60), (2**60, 7)])
    for colors in ({3: 0, 2**60: 1}, {3: 0, 7: 0}):
        with pytest.raises(PreconditionError, match=r"\(2,\) colors for 3 nodes"):
            Coloring(edge_cover(g), list(colors.values()))
        with pytest.raises(KeyError):
            reference_is_proper(g, colors)


def test_probability_matrix_is_kept_per_node_order():
    g = Graph(edges=[(0, 5), (5, 9)])
    inst = instance(g, {5: (1.0, 0.2)})
    lam = assignment(g.nodes, {0: 0.5, 5: 0.75, 9: 0.0})
    before = evaluate(inst, lam)
    kept = lam.x
    assert not kept.flags.writeable
    assert kept.tolist() == [0.5, 0.75, 0.0]
    # round_labels writes the marks into its own copy, not the kept one
    round_labels(inst, lam, greedy_color(inst.conflict_graph))
    assert lam.x is kept and kept.tolist() == [0.5, 0.75, 0.0]
    assert evaluate(inst, lam) == before
    # the probabilities are over one node order; another graph's is refused
    other = Graph(edges=[(0, 5), (5, 9), (9, 10)])
    with pytest.raises(PreconditionError, match="not over the conflict graph's nodes"):
        evaluate(instance(other), lam)


def test_kept_probabilities_still_check_every_call():
    g = Graph(edges=[(0, 1)])
    inst = instance(g, {0: (1.0, None)})
    short = assignment((0,), {0: 0.5})
    lam = assignment(g.nodes, {0: 0.5, 1: 0.5})
    for _ in range(2):
        with pytest.raises(PreconditionError, match="not over the conflict graph's nodes"):
            evaluate(inst, short)
        assert evaluate(inst, lam) == (0.5, 0.0)


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


@st.composite
def objectives(draw):
    """Instance, fractional and integral markings, and a proper coloring.

    Node ids are sparse, some conflict edges carry no term, and any value
    may be None.  Integer values with probabilities in eighths make every
    score exact, so scores of exactly 0 (ties) are common.
    """
    nodes = sorted(draw(st.sets(st.integers(0, 200), min_size=1, max_size=7)))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    edges = [e for e in pairs if draw(st.booleans())]
    g = Graph(nodes=nodes, edges=edges)
    exact = draw(st.booleans())
    value = st.integers(0, 3).map(float) if exact else st.floats(0.0, 1.0)
    maybe = st.one_of(st.none(), value, value, value)

    node_terms = {u: (draw(maybe), draw(maybe)) for u in nodes if draw(st.booleans())}
    pair_terms = {e: draw(maybe) for e in edges if draw(st.booleans())}
    # a large enough constant keeps utility - cost >= 0.1 * utility; it
    # moves no score, so it cannot hide a difference in the marks
    costs = [cost for _, cost in node_terms.values()] + list(pair_terms.values())
    cost_mass = sum(cost for cost in costs if cost is not None)
    inst = instance(g, node_terms, pair_terms, utility_const=10 * cost_mass + 1)

    eighths = st.integers(0, 8).map(lambda k: k / 8)
    probs = {u: draw(eighths if exact else st.floats(0.0, 1.0)) for u in nodes}
    marks = {u: draw(st.booleans()) for u in nodes}

    col = greedy_color(inst.conflict_graph)
    stride, flip = draw(st.integers(1, 2)), draw(st.booleans())
    top = stride * col.num_colors
    colors = top - 1 - stride * col.colors if flip else stride * col.colors
    coloring = Coloring(inst.conflict_graph, colors)
    return inst, assignment(g.nodes, probs), marks, coloring


def _close(a, b):
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


@settings(max_examples=300, deadline=None)
@given(objectives())
def test_array_path_matches_loop_reference(case):
    inst, lam, marks, coloring = case
    for fractional, given in ((lam, lam), (integral(inst, marks), marks)):
        got, want = evaluate(inst, fractional), reference_evaluate(inst, given)
        assert _close(got[0], want[0]) and _close(got[1], want[1])
    checks = ClaimChecker()
    rounded, got = round_labels(inst, lam, coloring, checks=checks)
    # one monotone check per color class, empty ones (stride 2) included
    assert checks.counts["rounding-monotone"] == coloring.num_colors
    want_marks = reference_round_labels(inst, lam, coloring)
    assert rounded.tolist() == [want_marks[u] for u in inst.conflict_graph.nodes]
    want = reference_evaluate(inst, want_marks)
    assert _close(got[0], want[0]) and _close(got[1], want[1])


def hitting_shaped(seed: int):
    """A hitting step's objective, shaped as `basic_hitting_set` builds
    it: 300 nodes, each with a node term, and a few dozen pair terms, so
    most nodes carry no pair entry."""
    rng = np.random.default_rng(seed)
    n, norm = 300, 0.05
    g = gnp(n, 0.05, seed=seed)
    pick = rng.choice(g.m, size=min(40, g.m), replace=False)
    pick.sort()
    node_utility = rng.uniform(0.0, 0.2, n) * (rng.random(n) < 0.3)
    pair_cost = rng.uniform(0.0, 0.3, len(pick))
    # edge k is hub k of the edge cover, its ends the entries 2k and 2k + 1
    inst = UtilityCostInstance(
        edge_cover(g), node_utility, np.full(n, norm), 2 * pick, 2 * pick + 1, pair_cost,
        utility_const=20.0,
    )
    q = rng.choice([0.05, 0.25, 0.5])
    lam = FractionalAssignment(g.nodes, np.full(n, q))
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
