"""Pure-Python reference for the terms of `build_mis_instance`.

This is the dict-and-loop construction the array form in `localround.mis`
replaced, kept so tests can compare against it: the same keys, in the
same (first-occurrence) order, with the same coefficients bit for bit.
"""

from __future__ import annotations

from typing import Mapping

from localround.graphs import Graph, Orientation


def reference_mis_terms(
    h: Graph, witnesses: Mapping[int, tuple[int, ...]], orientation: Orientation
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
