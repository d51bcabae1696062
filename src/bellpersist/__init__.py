"""Persistency of multipartite Bell correlations.

Numerical library for symmetrized persistency of Bell correlations:
exact Dicke-state reductions and their squared-correlation violation
indicator, Mermin-type and geometric Bell inequalities with exact
classical values, anticommutation-graph monogamy bounds, entropy
asymptotics, and Monte Carlo simulation of the distributed
sign-guessing game, all cross-checked against a dense-state oracle.
"""

__version__ = "0.1.0"

from .bell import (
    BellFunctional,
    SignFunction,
    gbi_classical,
    gbi_classical_by_integration,
    gbi_qcr,
    gbi_quantum,
    lr_max,
    makb,
    makb_alignment_phase,
    makb_xy_settings,
    optimize_wwwzb_angles,
    quantum_value,
    violation_indicator,
    wwwzb_max,
    wwwzb_value,
)
from .dicke import (
    DickeMixture,
    N0Fit,
    SymCorrelation,
    fit_n0_line,
    reduced_dicke,
    sigma_sum,
    solve_n0,
    sym_correlation,
    sym_sigma,
)
from .errors import CapabilityError, NoCrossingError
from .monogamy import (
    AnticommGraph,
    build_graph,
    independence_number,
    overlapping_chsh_operators,
    squared_sum_bound,
)
from .persistency import (
    PersistencyResult,
    QcrModel,
    binary_entropy,
    dicke_asymptotic,
    dicke_persistency,
    frontier_fraction,
    gamma_crit,
    ghz_persistency,
)
from .qccr import (
    FeasibilityResult,
    GameSpec,
    GhzMixture,
    SimulationResult,
    VisibilityModel,
    chsh_game,
    classical_best,
    gbi_game,
    makb_game,
    marginal_feasibility,
    quantum_success,
    simulate,
)
from .qstate import (
    DenseState,
    PauliString,
    PlaneObservable,
    anticommutes,
    dicke_state,
    expectation,
    ghz_state,
    mixture,
    partial_trace,
    random_pure_state,
)
