"""Quantum Fisher information criteria for multiqubit entanglement detection.

The package computes the quantum Fisher information of arbitrary N-qubit
density matrices, the producibility bounds that turn it into entanglement
depth certificates, the state families and samplers the criteria are
exercised on, and a phase-estimation simulator that grounds the numbers in
metrology. ``qfisher.campaigns`` and the ``qfisher`` CLI run the seeded
Monte-Carlo detection studies.

``import qfisher`` loads no submodule, and so not NumPy, which lets the CLI
set NumPy's BLAS threads first: each export imports its module on first use.
"""

import importlib

# each submodule whose names the package exports, and those names
_EXPORTS = {
    "core": (
        "DensityMatrix", "HermitianOperator", "InvariantError", "PureState", "collective_spin",
        "density_from_pure", "get_max_qubits", "is_ppt", "load_state", "local_generator", "make_pure",
        "mix_with_identity", "partial_transpose", "save_state", "set_max_qubits", "spin_along",
        "state_from_json", "state_to_json", "tensor", "unit_direction", "variance",
    ),
    "fisher": (
        "Povm", "SpinQfiMatrix", "classical_fisher", "model_probabilities", "optimize_local_directions",
        "parity_povm", "qfi", "qfi_avg", "qfi_avg_montecarlo", "qfi_matrix", "qfi_max", "x_basis_povm",
    ),
    "criteria": (
        "CriterionReport", "DmeResult", "avg_qfi_bound", "bound_ratios", "build_report", "critical_p",
        "dme_condition", "dme_family", "entanglement_depth", "evaluate", "ghz_witness", "qfi_bound",
        "white_noise_factor",
    ),
    "zoo": (
        "GhzDiagonalParams", "bound_entangled_ghz_diagonal", "dicke", "duer_state", "ghz", "ghz_basis_state",
        "ghz_diagonal", "ones_state", "parse_state_spec", "plus_state", "psi_s4", "random_ghz_diagonal",
        "random_pure_3qubit", "smolin_state",
    ),
    "estimation": ("EstimationRun", "precision_limits", "run_phase_estimation"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)
__version__ = "0.1.0"


def __getattr__(name: str):
    # the exporting submodules are reachable as attributes too, as they were
    # when the package imported them eagerly
    if name in _EXPORTS:
        return importlib.import_module(f".{name}", __name__)
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_MODULE_OF, *_EXPORTS})
