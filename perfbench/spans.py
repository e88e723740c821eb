"""In-memory span recorder for the package's public functions.

A module that does `from .rounding import round_labels` keeps its own
reference to the function, so wrapping `localround.rounding.round_labels`
alone would miss every call made from `mis` or `hitting`.  `Recorder`
therefore replaces the function in every loaded `localround` module that
binds it, and records which module (the "site") the call went through.
"""

from __future__ import annotations

import statistics
import sys
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

PACKAGE = "localround"

# layer.function -> observer(counters, args, result) adding counts per instance
Observer = Callable[[dict, tuple, Any], None]


def _bump(counters: dict, key: str, value: float) -> None:
    counters[key] = counters.get(key, 0) + value


def _peak(counters: dict, key: str, value: float) -> None:
    counters[key] = max(counters.get(key, 0), value)


def _round_labels(c: dict, args: tuple, res: Any) -> None:
    inst = args[0]
    _bump(c, "rounding.decision_nodes", len(inst.conflict_graph.nodes))
    _bump(c, "rounding.edge_terms", len(inst.edge_terms))


def _partition(c: dict, args: tuple, part: Any) -> None:
    actives = part.meta.get("actives", ())
    _bump(c, "clustering.active_after_phase0", len(actives[1]) if len(actives) > 1 else 0)
    _bump(c, "clustering.num_clusters", len(part.clusters))


def _hitting(c: dict, args: tuple, res: Any) -> None:
    _bump(c, "hitting.steps", len(res.steps))
    _peak(c, "hitting.zeta", res.zeta)


# The traced public functions, named layer.function after the module that
# defines them.  Helpers called per node (select_witnesses, cluster_degree)
# are left out: wrapping them would cost more than the work they do.
TRACED: dict[str, Observer | None] = {
    "rounding.round_labels": _round_labels,
    "rounding.evaluate": None,
    "rounding.greedy_color": lambda c, a, col: _peak(c, "rounding.colors", col.num_colors),
    "mis.mis": None,
    "mis.luby_derandomized_iteration": None,
    "mis.build_mis_instance": None,
    "mis.intra_round_mis": None,
    "mis.good_vertices": None,
    "clustering.cluster_all": _partition,
    "clustering.cluster_constant": _partition,
    "clustering.delays_to_partition": None,
    "hitting.grouped_hitting_set": _hitting,
    "hitting.basic_hitting_set": None,
    "hitting.split_into_copies": None,
    "hitting.conflict_graph": None,
    "matching.approx_matching": None,
    "matching.fractional_matching": None,
    "matching.good_edges": None,
    "matching.intra_round_matching": None,
    "matching.finish_matching": None,
    "graphs.square_graph": None,
    "graphs.induced_subgraph": None,
    "graphs.two_hop_sets": None,
    "graphs.bfs_distances": None,
    "graphs.orient": None,
    "seeds.stream": None,
}


class Recorder:
    """Wraps every binding of the traced functions while installed.

    Each span is (name, site, parent span index or -1, instance id,
    start, end), kept in `spans` until the run writes them out.
    """

    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.counters: dict[int, dict[str, float]] = defaultdict(dict)
        self.instance = -1
        self.sites: list[tuple[str, str]] = []  # (site module, traced name)
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Recorder":
        self.sites = []
        originals = {}
        for name in TRACED:
            layer, fn = name.split(".")
            module = sys.modules[f"{PACKAGE}.{layer}"]
            originals[id(getattr(module, fn))] = (getattr(module, fn), name)
        prefix = PACKAGE + "."
        for modname in sorted(sys.modules):
            if modname != PACKAGE and not modname.startswith(prefix):
                continue
            module = sys.modules[modname]
            site = modname[len(prefix):] if modname.startswith(prefix) else modname
            for attr, value in list(vars(module).items()):
                hit = originals.get(id(value))
                if hit is None or hit[0] is not value:
                    continue
                setattr(module, attr, self._wrap(value, hit[1], site))
                self._undo.append((module, attr, value))
                self.sites.append((site, hit[1]))
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, value in reversed(self._undo):
            setattr(module, attr, value)
        self._undo.clear()

    def _wrap(self, fn: Callable, name: str, site: str) -> Callable:
        observe = TRACED[name]
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, site, parent, self.instance, start, end)
            if observe is not None:
                observe(self.counters[self.instance], args, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def per_instance(self) -> dict[int, dict[str, float]]:
        """Self time, call count and call count per site, per instance."""
        child = [0.0] * len(self.spans)
        for name, site, parent, inst, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[int, dict[str, float]] = defaultdict(dict)
        for i, (name, site, parent, inst, start, end) in enumerate(self.spans):
            row = out[inst]
            _bump(row, f"{name}.self_s", end - start - child[i])
            _bump(row, f"{name}.calls", 1)
            _bump(row, f"{name}@{site}.calls", 1)
        for inst, counts in self.counters.items():
            out[inst].update(counts)
        return out

    def layers_seen(self) -> set[str]:
        return {span[0].split(".")[0] for span in self.spans}

    def dump(self) -> dict:
        return {
            "fields": ["name", "site", "parent", "instance", "start", "end"],
            "spans": self.spans,
        }


def median_of(rows: list[dict[str, float]], key: str) -> float:
    """Median over instances; an instance without the key counts as 0."""
    return statistics.median([row.get(key, 0) for row in rows]) if rows else 0.0
