"""Shared builders for randomized-but-seeded test inputs."""

from __future__ import annotations

import random

import numpy as np

from localround import graphs
from localround.clustering import Partition
from localround.graphs import Graph
from localround.hitting import BipartiteInstance
from localround.rounding import FractionalAssignment, UtilityCostInstance, evaluate
from localround import generators

from rounding_reference import assignment, instance


def by_position(g: Graph, values) -> np.ndarray:
    """A node -> float mapping as one float per node of g, in node order."""
    return np.array([values[u] for u in g.nodes], float)


def partition_rows(part: Partition, h: Graph) -> Partition:
    """The partition of h's nodes alone, built from h's rows of `part`'s
    arrays."""
    rows = np.isin(part.ids, np.array(h.nodes, np.int64))
    return Partition(part.alpha, part.ids[rows], part.label[rows], part.delay[rows])


def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    nodes = range(n)
    edges = [
        (u, v) for u in nodes for v in range(u + 1, n) if rng.random() < p
    ]
    return Graph(nodes=nodes, edges=edges)


def random_objective(
    rng: random.Random,
    max_nodes: int = 8,
    require_precondition: bool = True,
) -> tuple[UtilityCostInstance, FractionalAssignment]:
    """Random marking objective plus fractional marking; resamples until
    the rounding precondition holds when requested."""
    while True:
        n = rng.randint(1, max_nodes)
        nodes = sorted(rng.sample(range(3 * max_nodes), n))
        edges = [
            (u, v)
            for i, u in enumerate(nodes)
            for v in nodes[i + 1 :]
            if rng.random() < 0.5
        ]
        g = Graph(nodes=nodes, edges=edges)
        node_terms = {u: (rng.uniform(0.0, 1.0), rng.uniform(0.0, 0.35)) for u in nodes}
        pair_terms = {e: rng.uniform(0.0, 0.25) for e in g.edges() if rng.random() < 0.8}
        inst = instance(g, node_terms, pair_terms)
        lam = assignment(nodes, {u: rng.random() for u in nodes})
        if not require_precondition:
            return inst, lam
        u0, c0 = evaluate(inst, lam)
        if u0 > 0 and u0 - c0 >= 0.1 * u0 + 1e-6:
            return inst, lam


def random_hitting_instance(
    rng: random.Random,
    n_u: int = 8,
    n_v: int = 12,
    delta: int = 4,
    p: float = 0.3,
    norm: float = 0.1,
    k: int | None = None,
    unit_weights: bool = False,
) -> BipartiteInstance:
    """Uniform-degree bipartite instance with distinct id namespaces."""
    v_nodes = tuple(range(n_v))
    u_nodes = tuple(range(1000, 1000 + n_u))
    adj = {u: tuple(sorted(rng.sample(v_nodes, delta))) for u in u_nodes}
    weights = {
        u: 1.0 if unit_weights else rng.uniform(0.0, 2.0) for u in u_nodes
    }
    return BipartiteInstance(u_nodes, v_nodes, adj, weights, delta, p, norm, k)


def sweep_graphs() -> list[tuple[str, Graph]]:
    """The acceptance sweep: >= 200 graphs across generator families.

    Composition keeps the dense cases moderate so a full MIS pass over
    the sweep stays inside its time budget.
    """
    out: list[tuple[str, Graph]] = []
    spec = []
    for n in range(2, 31):
        spec += [(n, 0.01), (n, 0.05), (n, 0.3)]
    for n in (36, 44, 52, 60, 70, 80, 90, 100, 110, 120):
        spec += [(n, 0.01), (n, 0.05), (n, 0.3)]
    for n in (150, 200, 250, 300):
        spec += [(n, 0.01), (n, 0.05)]
    spec += [(150, 0.3), (400, 0.01), (500, 0.01), (500, 0.05)]
    for i, (n, p) in enumerate(spec):
        out.append((f"gnp-{n}-{p}", generators.gnp(n, p, seed=1000 + i)))
    for n in (2, 3, 4, 5, 8, 13, 21, 34, 55, 89, 144, 233, 377, 500):
        out.append((f"path-{n}", generators.path(n)))
    for rows, cols in (
        (2, 2), (2, 3), (3, 3), (3, 5), (4, 7),
        (5, 5), (8, 8), (10, 10), (12, 15), (15, 20),
    ):
        out.append((f"grid-{rows}x{cols}", generators.grid(rows, cols)))
    for n in list(range(2, 13)) + [16, 20, 26, 33, 41, 50]:
        out.append((f"clique-{n}", generators.complete(n)))
    for i, n in enumerate((2, 3, 5, 8, 12, 20, 33, 54, 88, 140, 230, 370, 500)):
        out.append((f"tree-{n}", generators.tree(n, seed=77 + i)))
    for n in (3, 4, 5, 6, 7, 9, 12, 17, 24, 33, 47, 66, 93, 130, 183, 257, 360, 500):
        out.append((f"cycle-{n}", generators.cycle(n)))
    for i, (n, d) in enumerate(((8, 3), (20, 3), (30, 5), (50, 4), (100, 3))):
        out.append((f"regular-{n}-{d}", generators.regular(n, d, seed=11 + i)))
    for count in (1, 2, 7, 20, 50):
        out.append((f"disjoint-{count}", generators.disjoint_edges(count)))
    assert len(out) >= 200
    return out


def small_sweep() -> list[tuple[str, Graph]]:
    """A light subset for per-module tests."""
    return [item for i, item in enumerate(sweep_graphs()) if i % 7 == 0]


def relabel(g: Graph, rng: random.Random, bits: int = 60) -> Graph:
    """Copy of g with sparse random ids, for id-dependent tie-breaking."""
    fresh: dict[int, int] = {}
    used: set[int] = set()
    for u in g.nodes:
        while True:
            candidate = rng.getrandbits(bits)
            if candidate not in used:
                used.add(candidate)
                fresh[u] = candidate
                break
    return Graph(
        nodes=fresh.values(),
        edges=((fresh[a], fresh[b]) for a, b in g.edges()),
    )


def count_neighbor_tuple_builds(monkeypatch) -> list:
    """Record, from now on, every graph whose neighbour tuples are built,
    as a graph over the same arrays."""
    builds = []
    build = graphs._neighbor_tuples

    def counted(nodes, indptr, indices):
        builds.append(Graph._from_csr(nodes, indptr, indices))
        return build(nodes, indptr, indices)

    monkeypatch.setattr(graphs, "_neighbor_tuples", counted)
    return builds
