"""Quantum Fisher information criteria for multiqubit entanglement detection.

The package computes the quantum Fisher information of arbitrary N-qubit
density matrices, the producibility bounds that turn it into entanglement
depth certificates, the state families and samplers the criteria are
exercised on, and a phase-estimation simulator that grounds the numbers in
metrology. ``qfisher.campaigns`` and the ``qfisher`` CLI run the seeded
Monte-Carlo detection studies.
"""

from .core import (
    DensityMatrix,
    HermitianOperator,
    InvariantError,
    PureState,
    collective_spin,
    density_from_pure,
    get_max_qubits,
    is_ppt,
    load_state,
    local_generator,
    make_pure,
    mix_with_identity,
    partial_transpose,
    save_state,
    set_max_qubits,
    spin_along,
    state_from_json,
    state_to_json,
    tensor,
    unit_direction,
    variance,
)
from .fisher import (
    Povm,
    SpinQfiMatrix,
    classical_fisher,
    model_probabilities,
    optimize_local_directions,
    parity_povm,
    qfi,
    qfi_avg,
    qfi_avg_montecarlo,
    qfi_matrix,
    qfi_max,
    x_basis_povm,
)
from .criteria import (
    CriterionReport,
    DmeResult,
    avg_qfi_bound,
    bound_ratios,
    build_report,
    critical_p,
    dme_condition,
    dme_family,
    entanglement_depth,
    evaluate,
    ghz_witness,
    qfi_bound,
    white_noise_factor,
)
from .zoo import (
    GhzDiagonalParams,
    bound_entangled_ghz_diagonal,
    dicke,
    duer_state,
    ghz,
    ghz_basis_state,
    ghz_diagonal,
    ones_state,
    parse_state_spec,
    plus_state,
    psi_s4,
    random_ghz_diagonal,
    random_pure_3qubit,
    smolin_state,
)
from .estimation import (
    EstimationRun,
    evolve,
    precision_limits,
    run_phase_estimation,
)

__version__ = "0.1.0"
