import random

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from localround import graphs
from localround.errors import ParseError, PreconditionError
from localround.graphs import (
    Graph,
    bfs_distances,
    csr_contains,
    distinct_inverse,
    dump_edge_list,
    edge_subgraph,
    first_seen,
    induced_subgraph,
    load_graph,
    node_positions,
    orient,
    square_graph,
    stable_order,
    two_hop_sets,
)

from conftest import count_neighbor_tuple_builds, random_graph
from graphs_reference import ReferenceGraph, id_bits, reference_two_hop_sets, row_ids, same_csr


def test_load_two_edge_path():
    g = load_graph("0 1\n1 2")
    assert g.nodes == (0, 1, 2)
    assert g.m == 2


def test_load_duplicate_collapses():
    g = load_graph("0 1\n1 0")
    assert g.m == 1
    assert list(g.edges()) == [(0, 1)]


def test_load_random_file_matches_recount():
    rng = random.Random(5)
    lines = []
    for _ in range(100):
        u = rng.randrange(50)
        v = rng.randrange(50)
        if u != v:
            lines.append(f"{u} {v}")
    text = "\n".join(lines)
    g = load_graph(text)
    # independent recount: dedup canonical pairs, count distinct endpoints
    pairs = {tuple(sorted(map(int, ln.split()))) for ln in lines}
    endpoints = {x for pair in pairs for x in pair}
    assert g.m == len(pairs)
    assert g.n == len(endpoints)


@pytest.mark.parametrize(
    "text,fragment",
    [
        ("0 1\n2", "line 2"),
        ("0 1\nx y", "line 2"),
        ("3 3", "self-loop"),
        (f"0 {2**63}", "line 1"),
        ("-1 4", "line 1"),
    ],
)
def test_load_errors_name_line(text, fragment):
    with pytest.raises(ParseError, match=fragment):
        load_graph(text)


def test_load_comments_and_blanks():
    g = load_graph("# header\n0 1  # inline\n\n1 2\n")
    assert g.m == 2


def test_roundtrip_dump():
    g = load_graph("5 1\n2 9\n1 2")
    assert load_graph(dump_edge_list(g)) == g


def test_id_bit_width():
    assert id_bits(Graph(nodes=[0])) == 1
    assert id_bits(Graph(nodes=[0, 7])) == 3
    assert id_bits(Graph(nodes=[2**62])) == 63


# the r-hop ball around u is read as the nodes of bfs_distances(g, u, limit=r)


def test_ball_on_path():
    g = load_graph("0 1\n1 2\n2 3")
    assert bfs_distances(g, 1, limit=1) == {1: 0, 0: 1, 2: 1}
    assert bfs_distances(g, 2, limit=0) == {2: 0}


def test_ball_matches_bfs_oracle():
    rng = random.Random(11)
    g = random_graph(rng, 20, 0.2)
    for u in g.nodes[:6]:
        got = set(bfs_distances(g, u, limit=2))
        # plain BFS reimplementation
        dist = {u: 0}
        frontier = [u]
        for d in (1, 2):
            nxt = []
            for x in frontier:
                for y in g.neighbors(x):
                    if y not in dist:
                        dist[y] = d
                        nxt.append(y)
            frontier = nxt
        assert got == set(dist)


def test_ball_unknown_node():
    g = load_graph("0 1")
    with pytest.raises(KeyError):
        bfs_distances(g, 9, limit=1)


def test_orient_star_points_to_center():
    g = Graph(edges=[(0, 1), (0, 2), (0, 3)])
    o = orient(g)
    for leaf in (1, 2, 3):
        assert row_ids(g.nodes, o.out_csr(), leaf) == (0,)
    assert row_ids(g.nodes, o.in_csr(), 0) == (1, 2, 3)


def test_orient_triangle_ties_by_id():
    g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
    o = orient(g)
    assert row_ids(g.nodes, o.out_csr(), 1) == (2, 3)
    assert row_ids(g.nodes, o.out_csr(), 2) == (3,)
    assert row_ids(g.nodes, o.in_csr(), 3) == (1, 2)


def test_orient_acyclic_and_out_weight():
    rng = random.Random(7)
    g = random_graph(rng, 15, 0.3)
    o = orient(g)
    key = {u: (g.degree(u), u) for u in g.nodes}
    for u in g.nodes:
        out = row_ids(g.nodes, o.out_csr(), u)
        for w in out:
            assert key[w] > key[u]
        assert set(out) | set(row_ids(g.nodes, o.in_csr(), u)) == set(g.neighbors(u))
        total = sum(1.0 / g.degree(w) for w in out)
        assert total <= 1.0 + 1e-12


def test_induced_identity_and_edge():
    g = Graph(edges=[(1, 2), (2, 3), (1, 3)])
    assert induced_subgraph(g, g.nodes) == g
    two = induced_subgraph(g, {1, 2})
    assert two.m == 1 and two.nodes == (1, 2)
    with pytest.raises(KeyError):
        induced_subgraph(g, {1, 99})


def test_induced_matches_filter_oracle():
    rng = random.Random(3)
    g = random_graph(rng, 30, 0.2)
    keep = set(rng.sample(g.nodes, 12))
    sub = induced_subgraph(g, keep)
    expected = {(u, v) for u, v in g.edges() if u in keep and v in keep}
    assert set(sub.edges()) == expected


def test_two_hop_and_square():
    g = load_graph("0 1\n1 2\n2 3")
    reach = two_hop_sets(g)
    assert reach[0] == {0, 1, 2}
    sq = square_graph(g)
    assert list(sq.edges()) == [(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)]


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 9000))
def test_adjacency_symmetry_and_ball_monotone(seed):
    rng = random.Random(seed)
    g = random_graph(rng, rng.randint(1, 18), rng.random())
    for u in g.nodes:
        for v in g.neighbors(u):
            assert u in g.neighbors(v)
    u = g.nodes[0]
    prev: set[int] = set()
    for r in range(4):
        cur = set(bfs_distances(g, u, limit=r))
        assert prev <= cur
        prev = cur
    # a huge radius captures exactly u's component
    assert bfs_distances(g, u, limit=g.n) == bfs_distances(g, u)


@st.composite
def sparse_graphs(draw):
    """Graphs on up to 24 ids anywhere in [0, 2^63), with isolated nodes."""
    ids = st.one_of(st.integers(0, 40), st.integers(0, 2**63 - 1))
    nodes = sorted(draw(st.sets(ids, max_size=24)))
    pairs = [(u, v) for i, u in enumerate(nodes) for v in nodes[i + 1 :]]
    p = draw(st.sampled_from([0.0, 0.1, 0.3, 0.8]))
    return Graph(nodes=nodes, edges=[e for e in pairs if draw(st.floats(0, 1)) < p])


@settings(max_examples=200, deadline=None)
@given(sparse_graphs(), st.data())
def test_induced_subgraph_from_a_mask_or_ids(g, data):
    mask = np.array([data.draw(st.booleans()) for _ in g.nodes], bool)
    keep = {u for u, kept in zip(g.nodes, mask.tolist()) if kept}
    sub = induced_subgraph(g, mask)
    assert sub == induced_subgraph(g, keep) == Graph(
        nodes=keep, edges=[(u, v) for u, v in g.edges() if u in keep and v in keep]
    )
    assert all(type(u) is int for u in sub.nodes)
    inside = [(u, v) for u, v in g.edges() if u in keep and v in keep]
    assert same_csr(sub, ReferenceGraph(nodes=keep, edges=inside).csr())


def test_induced_subgraph_rejects_a_mask_of_another_length():
    with pytest.raises(ValueError, match="mask"):
        induced_subgraph(Graph(edges=[(0, 1), (1, 2)]), np.ones(2, bool))


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
def test_square_graph_is_distance_two(g):
    sq = square_graph(g)
    assert sq.nodes == g.nodes
    pairs = []
    for u in g.nodes:
        within = {v for v, d in bfs_distances(g, u, limit=2).items() if 0 < d <= 2}
        assert sq.neighbors(u) == tuple(sorted(within))
        # the tuples hold the graph's own id objects
        assert all(type(v) is int for v in sq.neighbors(u))
        pairs += [(u, v) for v in within]
    # the position arrays it keeps are the ones its adjacency gives
    assert same_csr(sq, ReferenceGraph(nodes=g.nodes, edges=pairs).csr())


@settings(max_examples=200, deadline=None)
@given(sparse_graphs())
def test_two_hop_sets_match_the_nested_loop(g):
    reach = two_hop_sets(g)
    assert list(reach) == list(g.nodes)
    assert reach == reference_two_hop_sets(g)


def test_square_graph_of_the_empty_graph():
    assert square_graph(Graph()) == Graph()
    assert square_graph(Graph(nodes=[5])).neighbors(5) == ()



def test_csr_contains_matches_the_row_sets():
    rng = random.Random(11)
    g = random_graph(rng, 50, 0.1)
    indptr, nbr = g.csr()
    rows = np.array([rng.randrange(50) for _ in range(2000)])
    cols = np.array([rng.randrange(50) for _ in range(2000)])
    want = [c in set(nbr[indptr[r] : indptr[r + 1]].tolist()) for r, c in zip(rows, cols)]
    assert 0 < sum(want) < len(want)
    assert csr_contains(indptr, nbr, rows, cols).tolist() == want
    none = np.zeros(0, np.intp)
    assert csr_contains(indptr, nbr, none, none).tolist() == []
    empty = Graph(nodes=range(3)).csr()
    assert csr_contains(*empty, np.arange(3), np.arange(3)).tolist() == [False] * 3

@pytest.mark.parametrize("block", [1, 5, 40])
def test_square_graph_built_in_row_blocks_matches_one_block(monkeypatch, block):
    # block 1 puts every row in a block of its own, however many codes
    # it has; isolated nodes make empty rows
    g = random_graph(random.Random(block), 60, 0.05)
    whole = square_graph(g)
    monkeypatch.setattr(graphs, "SQUARE_BLOCK", block)
    assert same_csr(square_graph(g), whole.csr())
    assert square_graph(g) == whole


@settings(max_examples=100, deadline=None)
@given(sparse_graphs())
def test_csr_lists_neighbours_by_position(g):
    indptr, indices = g.csr()
    assert len(indptr) == g.n + 1
    for i, u in enumerate(g.nodes):
        assert tuple(g.nodes[j] for j in indices[indptr[i] : indptr[i + 1]]) == g.neighbors(u)


@settings(max_examples=200, deadline=None)
@given(sparse_graphs(), st.data())
def test_edge_subgraph_matches_the_constructor(g, data):
    edges = [e for e in g.edges() if data.draw(st.booleans())]
    a = node_positions(g.nodes, (e[0] for e in edges), len(edges))
    b = node_positions(g.nodes, (e[1] for e in edges), len(edges))
    # either orientation of a pair, and any order of the pairs
    flip = np.array([data.draw(st.booleans()) for _ in edges], bool)
    order = np.array(data.draw(st.permutations(range(len(edges)))), np.intp)
    a, b = np.where(flip, b, a)[order], np.where(flip, a, b)[order]
    sub = edge_subgraph(g, a, b)
    assert sub == Graph(edges=edges)
    assert all(type(u) is int for u in sub.nodes)
    assert same_csr(sub, ReferenceGraph(edges=edges).csr())


def test_node_positions_rejects_unknown_ids():
    g = Graph(nodes=[3, 8, 2**62])
    assert node_positions(g.nodes, [2**62, 3, 8], 3).tolist() == [2, 0, 1]
    for bad in (-1, 0, 5, 9, 2**62 + 1):
        with pytest.raises(PreconditionError, match=f"unknown node {bad}"):
            node_positions(g.nodes, [3, bad], 2)
    with pytest.raises(PreconditionError, match="outside"):
        node_positions(g.nodes, [3, 2**63], 2)


# ids as sparse as 60 bits, and the ids the constructor must refuse
ids60 = st.one_of(st.integers(0, 40), st.integers(0, 2**60 - 1))
bad_ids = st.sampled_from([-1, -(2**63), 2**63, 2**64 + 3])


@st.composite
def constructor_inputs(draw):
    """Node ids (some isolated), edges among them and a few more ids, with
    repeated and reversed edges, sometimes self-loops, and sometimes a
    bad id at a random place."""
    nodes = draw(st.lists(ids60, max_size=12))
    pool = nodes + draw(st.lists(ids60, max_size=6))
    edges = []
    if pool:
        ends = st.sampled_from(pool)
        edges = draw(st.lists(st.tuples(ends, ends), max_size=30))
        if draw(st.booleans()):
            edges = [(u, v) for u, v in edges if u != v]
        if edges:
            edges += [(v, u) for u, v in draw(st.lists(st.sampled_from(edges), max_size=6))]
            edges = draw(st.permutations(edges))
    if draw(st.integers(0, 3)) == 0:
        bad = draw(bad_ids)
        if edges and draw(st.booleans()):
            k = draw(st.integers(0, len(edges) - 1))
            edges[k] = (edges[k][0], bad) if draw(st.booleans()) else (bad, edges[k][1])
        else:
            nodes.insert(draw(st.integers(0, len(nodes))), bad)
    return nodes, edges


@settings(max_examples=400, deadline=None)
@given(constructor_inputs())
def test_constructor_matches_the_dict_reference(case):
    nodes, edges = case
    try:
        ref = ReferenceGraph(nodes, edges)
    except ValueError as exc:
        # the same error, naming the same first bad id or self-loop
        with pytest.raises(ValueError) as got:
            Graph(nodes=iter(nodes), edges=iter(edges))
        assert str(got.value) == str(exc)
        return
    g = Graph(nodes=iter(nodes), edges=(e for e in edges))
    assert g.nodes == ref.nodes and g.m == ref.m
    assert same_csr(g, ref.csr())
    assert list(g.edges()) == ref.edges()
    assert g.max_degree() == max(map(len, ref.adj.values()), default=0)
    for u in ref.nodes:
        assert u in g
        assert g.neighbors(u) == ref.adj[u] and g.degree(u) == len(ref.adj[u])
    assert g == Graph(nodes=ref.nodes, edges=ref.edges())
    assert hash(g) == hash(Graph(nodes=ref.nodes, edges=ref.edges()))


def test_unknown_ids_are_absent():
    g = Graph(nodes=[2**60], edges=[(3, 9)])
    for unknown in (0, 4, 2**60 + 1, 2**63, -3, "3", None):
        assert unknown not in g
        with pytest.raises(KeyError):
            g.neighbors(unknown)
        with pytest.raises(KeyError):
            g.degree(unknown)
    assert g != Graph(nodes=[2**60], edges=[(3, 8)])


def test_neighbor_tuples_are_built_on_first_use_and_kept(monkeypatch):
    builds = count_neighbor_tuple_builds(monkeypatch)
    g = Graph(nodes=[7], edges=[(1, 2), (2, 3)])
    sub = induced_subgraph(square_graph(g), [1, 2, 7])
    # everything but `neighbors` reads the arrays
    assert (g.m, g.degree(2), g.max_degree(), 3 in g) == (2, 2, 2, True)
    assert list(sub.edges()) == [(1, 2)] and sub == Graph(nodes=[7], edges=[(2, 1)])
    assert builds == []
    assert g.neighbors(2) == (1, 3) and g.neighbors(7) == ()
    assert builds == [g] and g.neighbors(1) is g.neighbors(1)
    assert builds == [g]



def check_stable_order(keys: np.ndarray) -> None:
    """`stable_order`, `distinct_inverse` and `first_seen` of `keys`
    against a stable argsort, `np.unique` and a loop."""
    order, ranked = stable_order(keys)
    expected = np.argsort(keys, kind="stable")
    assert order.tolist() == expected.tolist()
    assert ranked.tolist() == keys[expected].tolist()
    values, inverse = distinct_inverse(keys)
    want_values, want_inverse = np.unique(keys, return_inverse=True)
    assert values.tolist() == want_values.tolist()
    assert inverse.tolist() == want_inverse.tolist()
    seen: dict[int, int] = {}
    index = [seen.setdefault(k, len(seen)) for k in keys.tolist()]
    values, inverse = first_seen(keys)
    assert values.tolist() == list(seen) and inverse.tolist() == index


@pytest.mark.parametrize(
    "keys, packed",
    [
        ([], True),
        ([7], True),
        ([3, 3, 3, 3], True),
        ([2**62], True),  # 2^62 * 1 + 0 fits
        ([2**61 - 1, 0, 2**61 - 1, 5], True),  # the largest keys that fit 4 indices
        ([2**61, 0, 0, 0], False),  # 2^61 * 4 is 2^63
        ([2**62, 1, 2**62], False),
        ([2**63 - 1, 2**63 - 1], False),
        ([-1, 4, -1, 0], False),
        ([-(2**63), 2**63 - 1, -(2**63)], False),
    ],
)
def test_stable_order_branches(keys, packed, monkeypatch):
    stable_sorts = []
    argsort = np.argsort

    def counted(a, *args, **kwargs):
        stable_sorts.append(kwargs.get("kind"))
        return argsort(a, *args, **kwargs)

    monkeypatch.setattr(graphs.np, "argsort", counted)
    stable_order(np.array(keys, np.int64))
    monkeypatch.undo()
    assert stable_sorts == ([] if packed else ["stable"])
    check_stable_order(np.array(keys, np.int64))


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(
        st.lists(st.integers(0, 9), max_size=80),
        st.lists(st.integers(-3, 3), max_size=30),
        st.lists(st.integers(0, 2**63 - 1), max_size=30),
        st.lists(st.sampled_from([0, 1, 2**62, 2**62 + 1, 2**63 - 1]), max_size=30),
    )
)
def test_stable_order_matches_numpy(keys):
    check_stable_order(np.array(keys, np.int64))
