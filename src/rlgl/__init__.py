"""Cash-flow iteration for stationary distributions of large Markov chains.

Nodes carry signed cash; scheduled "green light" sets push their cash
along the chain's transitions, and the normalized movement history
estimates the stationary distribution.  The package bundles the iteration
engine, pluggable schedules, reference solvers, convergence diagnostics,
graph generators, and an optimal block scheduler for the three-block
mean-field model.
"""

from .analysis import (
    RateBound,
    cyclic_markov_check,
    dobrushin,
    dobrushin_cycle_bound,
    random_rate_bound,
    random_schedule_bound,
    sbm2_closed_forms,
)
from .engine import RunResult, RunTrace, SolverState, estimate, guard_total_history, init, run, step
from .matrix import (
    TransitionMatrix,
    augment_pagerank,
    build_transition,
    check_distribution,
    google_matrix,
    gth_stationary,
    validate_stochastic,
)
from .mdp import (
    Action,
    BlockCash,
    PolicyGrid,
    action_cost,
    block_cash_update,
    decode_state,
    encode_state,
    meanfield_init,
    simulate_policy,
    solve_policy,
)
from .models import (
    MeanFieldMatrix,
    four_state_chain,
    largest_scc,
    meanfield_sbm,
    parse_edge_file,
    random_sbm,
    symmetrize,
    two_wheels,
)
from .schedules import (
    AllNodes,
    FixedBlocks,
    MaxCash,
    ProportionalCash,
    RandomNode,
    RoundRobin,
    Theta,
    parse_schedule,
)
from .solvers import gauss_seidel, gmres_restarted, gso_pagerank, power_iteration

__version__ = "0.1.0"
