"""Deterministic LOCAL-model graph algorithms with round accounting.

Capabilities: low-diameter low-cluster-degree partitions (randomized
baseline and two deterministic constructions), weighted hitting sets on
uniform-degree bipartite systems, a no-loss local rounding engine for
pairwise objectives, a derandomized maximal independent set, and a
constant-factor approximate maximum matching.
"""

from .clustering import (
    Partition,
    capacity_exponent,
    cluster_all,
    cluster_constant,
    cluster_degree_bound_all,
    cluster_degree_bound_fraction,
    delays_to_partition,
    mpx_randomized,
    verify_partition,
)
from .errors import (
    BudgetExceeded,
    ClaimViolation,
    ParseError,
    PreconditionError,
    RetryBudgetExceeded,
)
from .generators import KINDS as GENERATORS
from .graphs import (
    Graph,
    Orientation,
    bfs_distances,
    dump_edge_list,
    induced_subgraph,
    load_graph,
    orient,
    square_graph,
    strip_isolated,
)
from .hitting import (
    BipartiteInstance,
    basic_guarantee,
    basic_hitting_set,
    conflict_graph,
    grouped_guarantee,
    grouped_hitting_set,
    split_into_copies,
)
from .ledger import RoundLedger
from .matching import (
    FractionalMatching,
    approx_matching,
    finish_matching,
    fractional_matching,
    good_edges,
    greedy_maximal_matching,
    intra_round_matching,
)
from .mis import (
    build_mis_instance,
    good_vertices,
    good_witnesses,
    intra_round_mis,
    luby_derandomized_iteration,
    luby_randomized,
    mis,
    verify_mis,
)
from .oracles import (
    OracleBudget,
    exact_max_matching,
    exhaustive_hitting_check,
    exhaustive_round_check,
)
from .rounding import (
    Coloring,
    FractionalAssignment,
    UtilityCostInstance,
    evaluate,
    greedy_color,
    round_labels,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
