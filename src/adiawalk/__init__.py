"""Numerical laboratory for discretized adiabatic evolution.

Interpolate between two Hamiltonians along a schedule, discretize the
evolution into walk operators (exact exponentials or product formulas),
and measure what the discreteness does: angular spectral gaps, adiabatic
error bounds, where along the schedule the error is generated, and the
step counts unstructured search actually needs.
"""

from .linalg import (
    EigensolverError,
    HermitianOperator,
    arc_distance_angles,
    chain_product,
    normal_eig,
    operator_norm,
)
from .schedules import (
    Schedule,
    bc_composite_schedule,
    build_grover_schedule,
    glue_constant_ce,
    glue_schedule,
    grover_d_constant,
    grover_gap_of_f,
    linear_schedule,
    schedule_values,
)
from .integrators import (
    EXP_INTEGRATOR,
    INTEGRATORS,
    PF1,
    PF2,
    PF2_SIMPLIFIED,
    GaplessError,
    IntegratorKind,
    ProblemConstants,
    WalkFamily,
    build_walk_family,
    commutator_combo,
    exact_step_propagator,
    hamiltonian_bands,
    nested_commutator_sum,
    parse_integrator_tag,
    problem_constants,
    recommended_step_size,
    suzuki_coefficients,
    walk_operator,
)
from .spectral import (
    EigenpathTrack,
    StepCountWarning,
    TrackingAmbiguityError,
    adiabatic_error_bound,
    ck_profiles,
    discrete_adiabatic_bound,
    gap_perturbation_bounds,
    lowest_phase_gap,
    track_eigenpaths,
    walk_gap_profile,
)
from .evolution import (
    EvolutionResult,
    GapCollapseError,
    IdealAdiabaticFamily,
    ScalingReport,
    VolterraDiagnostics,
    boundary_vs_interior_scaling,
    evolve,
    ground_state,
    ideal_adiabatic_family,
    volterra_diagnostics,
)
from .grover import (
    GroverInstance,
    QaoaAngleSet,
    ScalingCell,
    SearchResult,
    ThresholdWarning,
    effective_hamiltonians,
    gap_closed_forms,
    qaoa_angles,
    qaoa_replay,
    run_search,
    scaling_experiment,
    search_schedule,
    walk_closed_form,
)
from .toymodels import (
    DEFAULT_EPSILONS,
    FidelityRow,
    GapTableRow,
    ToyModel,
    build_toy,
    fidelity_sweep,
    four_level_pair,
    gap_table,
    qr_basis,
)

__version__ = "0.1.0"
