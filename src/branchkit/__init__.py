"""branchkit: complexity-based analysis of wavefunction branch decompositions.

Implements interference/distinguishability complexity estimation between
pure states (certified alphabet lower bounds plus constructive and
variational witness upper bounds), branch-decomposition verdicts, the
approximate-QEC residual checks that connect codes and branches, the
complexity-growth flow model, and deterministic constructors for the
worked examples the checks run on.
"""

from .qsim import (
    Circuit,
    GateOp,
    Hamiltonian,
    QuantumState,
    apply_circuit,
    evolve,
    expectation,
    haar_random_state,
    inner_product,
    random_circuit,
)
from .complexity import (
    ComplexityEstimate,
    ComplexityKind,
    ComplexityQuery,
    brute_force_estimate,
    constructive_estimate,
    fused_cost,
    objective_value,
    variational_upper_bound,
)
from .branches import (
    BranchDecomposition,
    BranchVerdict,
    EstimatorConfig,
    assess_branches,
    irreversibility_check,
    merge_bound_check,
    rho_vs_diag_gap,
    three_branch_compatibility,
    validate_decomposition,
)
from .codes import (
    CodeSpec,
    ResidualReport,
    SurfaceCodeModel,
    beny_oreshkov_residuals,
    classify_region,
    code_complexity_floor,
    surface_logical_rate,
)
from .dynamics import (
    EthReport,
    FlowParams,
    Trajectory,
    eth_diagnostic,
    integrate_flow,
    mixed_field_ising,
    symmetry_freeze_check,
    track_complexity_under_evolution,
    xxz_chain,
)
from .properties import run_property_suite
from . import fixtures, properties, serialize

__version__ = "0.1.0"
