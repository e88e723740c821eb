"""Pure-Python references for the MIS iteration's array builds.

These are the dict-and-loop constructions the array forms in
`localround.graphs` and `localround.mis` replaced, kept so tests can
compare against them: the orientation's neighbour tuples, the witness
prefix of each good vertex, the terms of `build_mis_instance` (the
same keys, in the same first-occurrence order, with the same
coefficients bit for bit), and `verify_mis`'s scan of every neighbour
tuple.  The functions that take an orientation read it as a
`ReferenceOrientation`.  `witness_arrays` and `witness_ids` convert
witness lists keyed by id to and from the arrays the package takes.
"""

from __future__ import annotations

from typing import Mapping

import numpy as np

from localround.errors import PreconditionError
from localround.graphs import Graph
from localround.mis import WitnessArrays


class ReferenceOrientation:
    """The (degree, id) orientation as two dicts of neighbour tuples."""

    def __init__(self, g: Graph):
        key = {u: (g.degree(u), u) for u in g.nodes}
        self._out: dict[int, tuple[int, ...]] = {}
        self._in: dict[int, tuple[int, ...]] = {}
        for u in g.nodes:
            ku = key[u]
            self._out[u] = tuple(v for v in g.neighbors(u) if key[v] > ku)
            self._in[u] = tuple(v for v in g.neighbors(u) if key[v] < ku)

    def out_neighbors(self, u: int) -> tuple[int, ...]:
        return self._out[u]

    def in_neighbors(self, u: int) -> tuple[int, ...]:
        return self._in[u]


def good_vertices(h: Graph, orientation) -> frozenset[int]:
    """Nodes with at least a third of their edges incoming."""
    return frozenset(
        v for v in h.nodes if 3 * len(orientation.in_neighbors(v)) >= h.degree(v)
    )


def select_witnesses(h: Graph, orientation, v: int) -> tuple[int, ...]:
    """Prefix of v's in-neighbors (increasing id) whose inverse degrees
    first reach 1/3; the sum stays at most 4/3 since each term is <= 1."""
    total = 0.0
    chosen: list[int] = []
    for u in orientation.in_neighbors(v):
        chosen.append(u)
        total += 1.0 / h.degree(u)
        if total >= 1.0 / 3.0:
            return tuple(chosen)
    raise PreconditionError(f"node {v} is not good: inverse-degree sum {total}")


def witness_lists(h: Graph, orientation) -> dict[int, tuple[int, ...]]:
    """`select_witnesses` of every good vertex, in id order."""
    good = sorted(good_vertices(h, orientation))
    return {v: select_witnesses(h, orientation, v) for v in good}


def reference_mis_terms(
    h: Graph, witnesses: Mapping[int, tuple[int, ...]], orientation: ReferenceOrientation
) -> tuple[dict[int, float], dict[tuple[int, int], float]]:
    """(linear coefficient per node, pair cost per canonical pair)."""
    lin: dict[int, float] = {}
    pair_cost: dict[tuple[int, int], float] = {}

    def bump(a: int, b: int, w: float) -> None:
        key = (a, b) if a < b else (b, a)
        pair_cost[key] = pair_cost.get(key, 0.0) + w

    for v, members in witnesses.items():
        half_deg = h.degree(v) / 2.0
        for u in members:
            lin[u] = lin.get(u, 0.0) + half_deg
        for i in range(len(members)):
            for j in range(i + 1, len(members)):
                bump(members[i], members[j], 2.0 * half_deg)
        for u in members:
            for w in orientation.out_neighbors(u):
                bump(u, w, half_deg)
    return lin, pair_cost


def witness_arrays(h: Graph, witnesses: Mapping[int, tuple[int, ...]]) -> WitnessArrays:
    """Witness lists keyed by id as the arrays `good_witnesses` builds:
    the positions in `h.nodes` of the witnessed nodes, then per witness
    (in mapping order) its list's index and its own position."""
    index = {u: i for i, u in enumerate(h.nodes)}
    lists = list(witnesses.values())
    return WitnessArrays(
        np.array([index[v] for v in witnesses], np.intp),
        np.array([k for k, members in enumerate(lists) for _ in members], np.intp),
        np.array([index[u] for members in lists for u in members], np.intp),
    )


def witness_ids(g: Graph, w: WitnessArrays) -> dict[int, tuple[int, ...]]:
    """Witness arrays back as lists of ids keyed by the witnessed node."""
    out: dict[int, list[int]] = {g.nodes[v]: [] for v in w.owner.tolist()}
    for k, u in zip(w.group.tolist(), w.member.tolist()):
        out[g.nodes[w.owner[k]]].append(g.nodes[u])
    return {v: tuple(members) for v, members in out.items()}


def reference_verify_mis(g: Graph, selected) -> bool:
    """True iff `selected` is independent and dominates every other node."""
    selected = set(selected)
    if not selected.issubset(g.nodes):
        return False
    for u in selected:
        if any(w in selected for w in g.neighbors(u)):
            return False
    for u in g.nodes:
        if u not in selected and not any(w in selected for w in g.neighbors(u)):
            return False
    return True
