"""Acceptance suite: one test per criterion, each printing a PASS line.

The sweep fixture is shared: the MIS criterion runs the full pipeline on
every sweep graph, and the claim-level criteria consume the recorded
check counters (each counter increment was an exact inequality check
inside the run; any violation would have raised instead of counting).
"""

import json
import math
import random
import time

import numpy as np
import pytest

from localround.cli import main as cli_main
from localround.clustering import (
    cluster_all,
    cluster_constant,
    cluster_degree_bound_all,
    cluster_degree_bound_fraction,
    verify_partition,
)
from localround.generators import gnp
from localround.graphs import Graph, orient, strip_isolated
from localround.hitting import (
    basic_guarantee,
    basic_hitting_set,
    grouped_guarantee,
    grouped_hitting_set,
)
from localround.matching import approx_matching, fractional_matching
from localround.mis import good_witnesses, intra_round_mis, mis
from localround.oracles import (
    exact_max_matching,
    exhaustive_hitting_check,
    exhaustive_round_check,
)
from localround.rounding import evaluate, greedy_color, round_labels

import matching_reference
from clustering_reference import cluster_degree, reference_partition
from conftest import random_graph, random_hitting_instance, random_objective, sweep_graphs
from graphs_reference import row_ids
from mis_reference import witness_ids

MIS_TIME_BUDGET_S = 300.0
ROUNDING_TIME_BUDGET_S = 60.0


@pytest.fixture(scope="module")
def sweep():
    graphs = sweep_graphs()
    assert len(graphs) >= 200
    return graphs


@pytest.fixture(scope="module")
def mis_sweep(sweep):
    start = time.perf_counter()
    results = [(name, g, mis(g)) for name, g in sweep]
    elapsed = time.perf_counter() - start
    return results, elapsed


def _report(criterion: str, detail: str) -> None:
    print(f"[acceptance] {criterion}: PASS ({detail})")


def test_criterion_01_mis_correctness(mis_sweep):
    """Every sweep graph yields a verified maximal independent set."""
    results, elapsed = mis_sweep
    from localround.mis import verify_mis

    for name, g, res in results:
        assert verify_mis(g, res.independent_set), name
        assert res.checks.get("mis-valid", 0) == 1 or g.n == 0
    assert elapsed < MIS_TIME_BUDGET_S
    _report(
        "1 mis-correctness",
        f"{len(results)} graphs in {elapsed:.1f}s (< {MIS_TIME_BUDGET_S:.0f}s)",
    )


def test_criterion_02_removed_edges_floor(mis_sweep):
    """Each iteration removed at least a 1/24000 edge fraction, checked
    as an exact integer inequality inside every iteration."""
    results, _ = mis_sweep
    iterations = 0
    for name, g, res in results:
        if res.iterations:
            assert res.checks.get("removed-edges-floor", 0) == res.iterations, name
            assert all(f > 0 for f in res.removed_fractions), name
            iterations += res.iterations
    # independent exact recheck on representative shapes
    from localround.mis import luby_derandomized_iteration
    from localround.clustering import delays_to_partition

    for g in (gnp(90, 0.07, seed=123), Graph(edges=[(0, 1)])):
        part = delays_to_partition(g, np.zeros(g.n, np.int64), 1)
        out = luby_derandomized_iteration(g, part, float(g.n + 1), seed=0)
        assert out.edges_removed * 24000 >= g.m
    _report("2 removed-edges-floor", f"{iterations} iterations, zero tolerance")


def test_criterion_03_estimator_and_mass_windows(mis_sweep):
    """Estimator slack and per-vertex mass windows hold each iteration."""
    results, _ = mis_sweep
    for name, g, res in results:
        if res.iterations:
            assert res.checks.get("estimator-slack", 0) == res.iterations, name
            assert res.checks.get("witness-mass-window", 0) >= res.iterations, name
            assert res.checks.get("out-mass-cap", 0) >= res.iterations, name
    # direct rescan of the first iteration on sample graphs
    for g in (gnp(120, 0.05, seed=9), gnp(40, 0.3, seed=8)):
        o = orient(g)
        arrays = good_witnesses(g, o)
        witnesses = witness_ids(g, arrays)
        from localround.clustering import delays_to_partition

        part = delays_to_partition(g, np.zeros(g.n, np.int64), 1)
        x = intra_round_mis(g, part, float(g.n + 1), seed=0, orientation=o, witnesses=arrays)
        x = dict(zip(g.nodes, x.tolist()))
        for v, members in witnesses.items():
            mass = sum(x[u] for u in members)
            assert 1.0 / 1000.0 - 1e-9 <= mass <= 1.0 / 3.0 + 1e-9
        for u in g.nodes:
            assert sum(x[w] for w in row_ids(g.nodes, o.out_csr(), u)) <= 0.25 + 1e-9
        from localround.mis import build_mis_instance
        from localround.rounding import FractionalAssignment

        inst = build_mis_instance(g, arrays, o)
        lam = FractionalAssignment(g.nodes, [x[u] for u in g.nodes])
        fu, fc = evaluate(inst, lam)
        assert fu - fc >= fu / 3.0 - 1e-9 * (abs(fu) + abs(fc) + 1)
    _report("3 estimator-and-windows", "all iterations, 1e-9 relative tolerance")


def test_criterion_04_rounding_contract():
    """1000 random small objectives: rounded value >= fractional value,
    hence >= 0.9 of it, and >= the exhaustive expectation."""
    rng = random.Random(20260810)
    start = time.perf_counter()
    for i in range(1000):
        inst, lam = random_objective(rng, max_nodes=12)
        _, (uf, cf) = round_labels(inst, lam, greedy_color(inst.conflict_graph))
        u0, c0 = evaluate(inst, lam)
        scale = abs(u0) + abs(c0) + 1.0
        assert uf - cf >= 0.9 * (u0 - c0) - 1e-9 * scale, i
        assert uf - cf >= (u0 - c0) - 1e-9 * scale, i
        best, expected = exhaustive_round_check(inst, lam)
        assert uf - cf >= expected - 1e-9 * scale, i
        assert uf - cf <= best + 1e-9 * scale, i
    elapsed = time.perf_counter() - start
    assert elapsed < ROUNDING_TIME_BUDGET_S
    _report("4 rounding-contract", f"1000 instances in {elapsed:.1f}s (< 60s)")


def test_criterion_05_hitting_set_battery():
    """500 random bipartite instances meet the selection guarantees with
    exact constants; potentials never increase; small instances agree
    with the exhaustive subset oracle."""
    rng = random.Random(55)
    small = 0
    large = 0
    for i in range(500):
        if i % 25 == 0 and large < 20:
            n_v = rng.choice([50, 120, 300, 800, 2000])
            delta = rng.choice([6, 8, 10])
            inst = random_hitting_instance(
                rng,
                n_u=rng.randint(10, 60),
                n_v=n_v,
                delta=delta,
                p=rng.choice([0.15, 0.25]),
                norm=rng.choice([0.0, 0.05, 0.2]),
                k=rng.choice([None, delta // 2]),
            )
            large += 1
            check_oracle = False
        else:
            n_v = rng.randint(4, 14) if i % 10 else rng.randint(15, 18)
            if i == 499:
                n_v = 20
            delta = rng.randint(1, min(6, n_v))
            inst = random_hitting_instance(
                rng,
                n_u=rng.randint(1, 9),
                n_v=n_v,
                delta=delta,
                p=rng.choice([0.3, 0.5, 0.8]),
                norm=rng.choice([0.0, 0.1, 0.4]),
                k=rng.choice([None, max(1, delta // 2), delta]),
            )
            small += 1
            check_oracle = True
        if inst.k is None:
            res = basic_hitting_set(inst)
            lhs, rhs = basic_guarantee(inst, res.selected)
        else:
            res = grouped_hitting_set(inst)
            lhs, rhs = grouped_guarantee(inst, res.selected)
        assert lhs <= rhs * (1 + 1e-9) + 1e-12, i
        for a, b in zip(res.phis, res.phis[1:]):
            assert b <= a * (1 + 1e-9) + 1e-12, i
        if check_oracle:
            assert exhaustive_hitting_check(inst), i
    _report("5 hitting-set", f"{small} oracle-checked + {large} large instances")


def test_criterion_06_cluster_all_bounds(sweep):
    """Diameter and cluster-degree bounds for the all-nodes construction;
    the internal cell counts were checked at every pipeline checkpoint."""
    checked = 0
    for name, g in sweep:
        if g.n == 0:
            continue
        alpha = max(1, math.ceil(math.sqrt(math.log2(max(2, g.n)))))
        part = cluster_all(g, alpha)
        log_cap = part.meta["log2_capacity"]
        bound = cluster_degree_bound_all(log_cap, alpha)
        report = verify_partition(g, part, alpha, bound)
        assert report["ok"], name
        assert report["max_diameter"] <= 100 * alpha, name
        assert report["max_cluster_degree"] <= bound, name
        assert part.meta["actives"][-1].tolist() == [], name
        claims = part.meta["claims"]
        assert claims.get("pipeline-bad-count", 0) > 0, name
        assert claims.get("pipeline-active-mass", 0) > 0, name
        assert claims.get("no-active-at-end", 0) == 1, name
        checked += 1
    _report("6 cluster-all", f"{checked} sweep graphs, all checkpoints held")


def test_criterion_07_cluster_constant_weighted(sweep):
    """The weighted 0.9 guarantee with matching loads as weights."""
    checked = 0
    for name, g in sweep:
        work = strip_isolated(g)
        if work.m == 0:
            continue
        frac = fractional_matching(work)
        loads = matching_reference.loads(frac)
        alpha = max(1, math.ceil(math.log2(max(2, work.n)) ** (1.0 / 3.0)))
        part = cluster_constant(work, alpha, frac.position_loads())
        bound = cluster_degree_bound_fraction(part.meta["log2_capacity"], alpha)
        ref = reference_partition(part)
        good = [u for u in work.nodes if cluster_degree(work, ref, u) <= bound]
        total = sum(loads.values())
        assert sum(loads[u] for u in good) >= 0.9 * total - 1e-9, name
        claims = part.meta["claims"]
        assert claims.get("active-mass", 0) > 0, name
        assert claims.get("shrink-bad-mass", 0) > 0, name
        checked += 1
    _report("7 cluster-constant", f"{checked} weighted runs met the 0.9 bound")


def test_criterion_08_matching_pipeline(sweep):
    """Stage constants against the exact oracle on small graphs, and the
    oracle-free inter-stage inequalities on every sweep graph."""
    rng = random.Random(88)
    oracle_checked = 0
    attempts = 0
    while oracle_checked < 100:
        attempts += 1
        g = strip_isolated(random_graph(rng, rng.randint(4, 24), rng.choice([0.15, 0.3, 0.5])))
        if g.m == 0:
            continue
        res = approx_matching(g, seed=attempts)
        m_star = len(exact_max_matching(g))
        assert res.frac_value >= m_star / 5.0 - 1e-9
        assert res.good_value >= 0.8 * res.frac_value - 1e-9
        assert res.intra_value >= m_star / 40000.0 - 1e-9
        assert len(res.matching) >= m_star / 100000.0
        oracle_checked += 1
    sweep_checked = 0
    for name, g in sweep:
        work = strip_isolated(g)
        if work.m == 0:
            continue
        res = approx_matching(work, seed=1)
        assert res.good_value >= 0.8 * res.frac_value - 1e-9, name
        assert res.checks.get("intra-value-floor", 0) == 1, name
        assert res.checks.get("intra-loads", 0) == 1, name
        assert res.checks.get("finish-ratio", 0) == 1, name
        sweep_checked += 1
    _report(
        "8 matching-pipeline",
        f"{oracle_checked} oracle instances + {sweep_checked} sweep runs",
    )


def test_criterion_09_deterministic_reports(tmp_path):
    """Identical config and master seed give byte-identical reports."""
    configs = [
        ["run", "--gen", "gnp:n=80,p=0.06,seed=4", "--algo", "mis", "--seed", "3"],
        ["run", "--gen", "gnp:n=60,p=0.1,seed=2", "--algo", "matching", "--seed", "9"],
        ["run", "--gen", "gnp:n=50,p=0.1,seed=1", "--algo", "mpx", "--alpha", "3",
         "--seed", "12"],
    ]
    for idx, config in enumerate(configs):
        a = tmp_path / f"a{idx}.json"
        b = tmp_path / f"b{idx}.json"
        assert cli_main(config + ["--out", str(a)]) == 0
        assert cli_main(config + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()
        report = json.loads(a.read_text())
        assert report["result"]["ledger"]["total"] == report["result"]["rounds"]
    _report("9 determinism", f"{len(configs)} configs byte-identical incl. ledgers")


def test_criterion_10_round_growth_reported(tmp_path):
    """Reported, not gated: ledger totals against c * log^2(n) * log^3(log n)."""
    out = tmp_path / "bench.csv"
    assert cli_main(
        ["bench", "--ns", "256,512,1024", "--algos", "mis", "--seed", "7",
         "--out", str(out)]
    ) == 0
    rows = [line.split(",") for line in out.read_text().strip().splitlines()[1:]]
    fitted = 0.0
    table = []
    for n_text, _, rounds_text, *_ in rows:
        n = int(n_text)
        rounds = int(rounds_text)
        envelope = (math.log2(n) ** 2) * (math.log2(math.log2(n)) ** 3)
        fitted = max(fitted, rounds / envelope)
        table.append((n, rounds))
    _report(
        "10 round-growth (reported)",
        f"totals {table}, fitted c = {fitted:.1f}",
    )
