"""The values that perfbench's traced counters read off the package's
objects, checked against independent counts: the counters sit outside
perfbench's digest, so nothing else would notice them change.

- `clustering.num_clusters` reads `len(part.clusters)`, the number of
  distinct labels;
- `clustering.active_after_phase0` reads `len(part.meta["actives"][1])`,
  the nodes still active after phase 0;
- `rounding.edge_terms` reads `len(inst.edge_terms)`, the pair terms of
  each instance `round_labels` rounds;
- the hitting workload's check reads a dict-built instance's `adj[u]` and
  `weights[u]`.
"""

from __future__ import annotations

import importlib
import random

import numpy as np
import pytest

import hitting_reference
from localround import hitting
from localround.generators import gnp
from localround.hitting import BipartiteInstance, grouped_hitting_set, split_into_copies
from localround.matching import approx_matching
from localround.mis import mis

from clustering_reference import reference_partition
from conftest import random_hitting_instance

# `localround.mis` the attribute is the function; the modules are wanted
mis_module = importlib.import_module("localround.mis")
matching_module = importlib.import_module("localround.matching")


def _partitions(monkeypatch, solve, module, name):
    """The partitions the solver's `name` binding returns, with the alpha
    each was built at, over a solve of gnp(300)."""
    built = []
    real = getattr(module, name)

    def recording(g, alpha, *args):
        part = real(g, alpha, *args)
        built.append((alpha, part))
        return part

    monkeypatch.setattr(module, name, recording)
    g = gnp(300, 8 / 299, seed=1)
    solve(g)
    assert len(built) == 1
    return built[0]


@pytest.mark.parametrize(
    "solve, module, name",
    [(mis, mis_module, "cluster_all"), (approx_matching, matching_module, "cluster_constant")],
)
def test_partition_counts_that_perfbench_reads(monkeypatch, solve, module, name):
    alpha, part = _partitions(monkeypatch, solve, module, name)
    ref = reference_partition(part)
    assert len(part.clusters) == len(ref.clusters) == len(set(part.label.tolist()))
    actives = part.meta["actives"]
    assert len(actives) == 10 * alpha + 1
    assert actives[0].tolist() == part.ids.tolist()
    for before, after in zip(actives, actives[1:]):
        assert after.dtype == np.int64 and after.tolist() == sorted(after.tolist())
        assert set(after.tolist()) <= set(before.tolist())
    # a node active after phase i is given a delay of at most 50 alpha - 5 (i + 1)
    assert len(actives[1]) == np.count_nonzero(part.delay < 50 * alpha)


def test_edge_term_counts_that_perfbench_reads(monkeypatch):
    # the step instances of a grouped solve against the ones the dict
    # build of each step makes, one pair term per distinct pair
    counts = {"package": [], "reference": []}

    def recording(side, real):
        def round_labels(inst, *args, **kwargs):
            counts[side].append(len(inst.edge_terms))
            assert inst.edge_terms.shape == (len(inst.pair_cost), 2)
            return real(inst, *args, **kwargs)

        return round_labels

    monkeypatch.setattr(hitting, "round_labels", recording("package", hitting.round_labels))
    monkeypatch.setattr(
        hitting_reference,
        "round_labels",
        recording("reference", hitting_reference.round_labels),
    )
    inst = random_hitting_instance(
        random.Random(5), n_u=40, n_v=200, delta=8, p=0.25, norm=0.05, k=4
    )
    grouped_hitting_set(inst)
    hitting_reference.reference_basic_hitting_set(split_into_copies(inst))
    assert len(counts["package"]) == 10 and counts["package"] == counts["reference"]
    assert min(counts["package"]) > 0


def test_a_dict_built_instance_reads_back_what_it_was_given():
    rng = random.Random(9)
    v_nodes = tuple(rng.sample(range(2**60), 30))
    u_nodes = tuple(rng.sample(range(2**60), 12))
    adj = {u: tuple(rng.sample(v_nodes, 5)) for u in u_nodes}
    weights = {u: rng.uniform(0.0, 2.0) for u in u_nodes}
    inst = BipartiteInstance(u_nodes, v_nodes, adj, weights, 5, 0.25, 0.05, 2)
    assert list(inst.adj) == list(inst.weights) == sorted(u_nodes)
    for u in u_nodes:
        assert inst.adj[u] == adj[u]  # in the order given
        assert type(inst.weights[u]) is float
        assert inst.weights[u].hex() == weights[u].hex()
    assert inst.adj is inst.adj and inst.weights is inst.weights
