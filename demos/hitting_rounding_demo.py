"""The derandomization core: no-loss rounding of pairwise objectives,
and the potential-driven hitting set built on top of it.

Run:  python3 demos/hitting_rounding_demo.py
"""

import random

import numpy as np

from localround import (
    BipartiteInstance,
    FractionalAssignment,
    Graph,
    UtilityCostInstance,
    basic_guarantee,
    basic_hitting_set,
    evaluate,
    exhaustive_hitting_check,
    exhaustive_round_check,
    greedy_color,
    round_labels,
)


def random_objective(rng, n=9):
    """A random pairwise objective meeting the rounding precondition.

    Nodes are 0..n-1, so a node's id is its position.  Each node draws
    its utility row, then its cost row; each edge its cost matrix."""
    while True:
        nodes = range(n)
        edges = [(u, v) for u in nodes for v in range(u + 1, n) if rng.random() < 0.5]
        g = Graph(nodes=nodes, edges=edges)
        node_rows = np.array([
            [rng.uniform(0, 1), rng.uniform(0, 1), rng.uniform(0, 0.3), rng.uniform(0, 0.3)]
            for _ in nodes
        ])
        ends = np.array(list(g.edges()), np.intp).reshape(-1, 2)
        costs = np.array([[rng.uniform(0, 0.25) for _ in range(4)] for _ in ends])
        inst = UtilityCostInstance(
            g, 2, node_rows[:, :2], node_rows[:, 2:], ends[:, 0], ends[:, 1],
            costs.reshape(-1, 2, 2),
        )
        lam = FractionalAssignment(
            g.nodes, [(q := rng.uniform(0.2, 0.8), 1 - q) for _ in nodes]
        )
        u0, c0 = evaluate(inst, lam)
        if u0 > 0 and u0 - c0 >= 0.1 * u0:
            return inst, lam


def rounding_section():
    print("== local rounding ==")
    rng = random.Random(3)
    inst, lam = random_objective(rng)
    u0, c0 = evaluate(inst, lam)
    _, (uf, cf) = round_labels(inst, lam, greedy_color(inst.conflict_graph))
    best, expected = exhaustive_round_check(inst, lam)
    print(f"fractional objective: {u0 - c0:.4f}")
    print(f"rounded objective:    {uf - cf:.4f}  (never below fractional)")
    print(f"exhaustive best:      {best:.4f}")
    print(f"exhaustive expected:  {expected:.4f}  (= fractional, pairwise)")
    assert uf - cf >= u0 - c0 - 1e-9
    assert abs(expected - (u0 - c0)) < 1e-9


def hitting_section():
    print("\n== hitting set ==")
    rng = random.Random(11)
    v_nodes = tuple(range(14))
    u_nodes = tuple(range(100, 110))
    adj = {u: tuple(sorted(rng.sample(v_nodes, 4))) for u in u_nodes}
    inst = BipartiteInstance(
        u_nodes, v_nodes, adj, {u: rng.uniform(0.2, 2.0) for u in u_nodes},
        delta=4, p=0.3, norm=0.1,
    )
    res = basic_hitting_set(inst)
    lhs, rhs = basic_guarantee(inst, res.selected)
    print(f"selected {sorted(res.selected)} out of {len(v_nodes)} right nodes")
    print(f"guarantee: achieved {lhs:.4f} <= allowed {rhs:.4f}")
    print("potential trace (never increases):")
    print("  " + " -> ".join(f"{phi:.3f}" for phi in res.phis))
    print(f"oracle confirms some subset satisfies the bound: "
          f"{exhaustive_hitting_check(inst)}")


if __name__ == "__main__":
    rounding_section()
    hitting_section()
