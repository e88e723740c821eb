import pytest

from localround.errors import PreconditionError
from localround.generators import (
    complete,
    cycle,
    disjoint_edges,
    gnp,
    grid,
    path,
    regular,
    tree,
)
from localround.graphs import bfs_distances, dump_edge_list


def test_path_edge_count():
    assert path(5).m == 4
    assert path(1).m == 0


def test_grid_3x3():
    assert grid(3, 3).m == 12


def test_cycle_and_complete():
    assert cycle(5).m == 5
    assert complete(6).m == 15


def test_gnp_deterministic():
    a = gnp(100, 0.05, seed=7)
    b = gnp(100, 0.05, seed=7)
    assert dump_edge_list(a) == dump_edge_list(b)
    assert a.n == 100


def test_gnp_extremes():
    assert gnp(10, 0.0).m == 0
    assert gnp(10, 1.0).m == 45
    with pytest.raises(PreconditionError):
        gnp(5, 1.5)


def test_gnp_density_sane():
    g = gnp(400, 0.05, seed=1)
    expected = 0.05 * 400 * 399 / 2
    assert 0.7 * expected < g.m < 1.3 * expected


def test_tree_connected():
    g = tree(40, seed=2)
    assert g.m == 39
    assert len(bfs_distances(g, g.nodes[0])) == g.n  # connected


def test_regular_degrees():
    g = regular(10, 3, seed=1)
    assert all(g.degree(u) == 3 for u in g.nodes)
    with pytest.raises(PreconditionError):
        regular(5, 3)  # odd n*d


def test_disjoint_edges():
    g = disjoint_edges(4)
    assert g.n == 8 and g.m == 4
