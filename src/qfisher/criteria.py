"""Entanglement classification from Fisher-information bounds and matrix tests.

A state of N qubits is k-producible when it mixes pure products whose
factors hold at most k qubits each. Both the optimal-direction QFI and the
direction-averaged QFI obey closed-form ceilings over the k-producible set,
so exceeding a ceiling certifies (k+1)-particle entanglement. The module
also carries the three-qubit antidiagonal matrix-element test, a GHZ
fidelity witness, and the machinery for white-noise robustness thresholds.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    DensityMatrix,
    InvariantError,
    PureState,
    _on_qubit,
    _state_matrix,
)
from .fisher import qfi_matrix, optimize_local_directions
from . import zoo

__all__ = [
    "STRICT_MARGIN",
    "ProducibilityBound",
    "producibility_bound",
    "qfi_bound",
    "avg_qfi_bound",
    "entanglement_depth",
    "DmeResult",
    "dme_condition",
    "dme_family",
    "ghz_witness",
    "white_noise_factor",
    "critical_p",
    "bound_ratios",
    "CriterionReport",
    "build_report",
]

# comparisons against bounds must clear this margin before a state counts
# as detected, so boundary states are never classified from rounding noise
STRICT_MARGIN = 1e-9


def _split(num_qubits: int, k: int) -> tuple[int, int]:
    if not 1 <= k <= num_qubits:
        raise ValueError(f"producibility class k must lie in 1..{num_qubits}, got {k}")
    s, r = divmod(num_qubits, k)
    return s, r


def qfi_bound(num_qubits: int, k: int) -> float:
    """Largest QFI any k-producible N-qubit state reaches: s*k^2 + r^2."""
    s, r = _split(num_qubits, k)
    return float(s * k**2 + r**2)


def avg_qfi_bound(num_qubits: int, k: int) -> float:
    """Largest direction-averaged QFI over k-producible N-qubit states."""
    s, r = _split(num_qubits, k)
    return (s * (k**2 + 2 * k - (k == 1)) + r**2 + 2 * r - (r == 1)) / 3.0


@dataclass(frozen=True)
class ProducibilityBound:
    num_qubits: int
    k: int
    s: int
    r: int
    qfi_bound: float
    avg_qfi_bound: float


def producibility_bound(num_qubits: int, k: int) -> ProducibilityBound:
    s, r = _split(num_qubits, k)
    return ProducibilityBound(
        num_qubits, k, s, r, qfi_bound(num_qubits, k), avg_qfi_bound(num_qubits, k)
    )


def entanglement_depth(value: float, num_qubits: int, which: str = "qfi") -> int:
    """Smallest producibility class whose bound the value does not exceed.

    A return of d proves d-particle entanglement; 1 means the value is
    compatible with fully separable states.
    """
    if value < 0:
        raise ValueError(f"Fisher information cannot be negative, got {value}")
    bound = {"qfi": qfi_bound, "fq": qfi_bound, "fq_avg": avg_qfi_bound, "avg": avg_qfi_bound}.get(
        which
    )
    if bound is None:
        raise ValueError(f"unknown criterion {which!r}; use 'qfi' or 'avg'")
    top = bound(num_qubits, num_qubits)
    if value > top + 1e-6:
        raise InvariantError(
            f"value {value} exceeds the N-qubit ceiling {top}; the input state is invalid"
        )
    for d in range(1, num_qubits + 1):
        if value <= bound(num_qubits, d) + STRICT_MARGIN:
            return d
    return num_qubits


@dataclass(frozen=True)
class DmeResult:
    pair: int
    violated: bool
    lhs: float
    rhs: float


def dme_condition(state, pair: int = 1) -> DmeResult:
    """Antidiagonal matrix-element test on a 3-qubit state.

    For pair k in 1..4, every 2-producible 3-qubit state satisfies
    |rho[k, 9-k]| <= sum over the other antidiagonal pairs j of
    sqrt(rho[j, j] * rho[9-j, 9-j]) (1-based entries); a violation certifies
    genuine 3-partite entanglement.
    """
    if pair not in (1, 2, 3, 4):
        raise ValueError(f"pair index must be 1..4, got {pair}")
    mat = _state_matrix(state)
    if mat.shape != (8, 8):
        raise ValueError("the antidiagonal test is defined for exactly 3 qubits")
    lhs = float(np.abs(mat[pair - 1, 8 - pair]))
    rhs = 0.0
    for j in (1, 2, 3, 4):
        if j == pair:
            continue
        rhs += float(
            np.sqrt(
                max(0.0, float(np.real(mat[j - 1, j - 1])))
                * max(0.0, float(np.real(mat[8 - j, 8 - j])))
            )
        )
    return DmeResult(pair, bool(lhs > rhs + 1e-12), lhs, rhs)


def dme_family(state) -> tuple[DmeResult, ...]:
    """All four antidiagonal-pair conditions; any violation is a detection."""
    return tuple(dme_condition(state, pair) for pair in (1, 2, 3, 4))


def _witness_seesaw(rho: np.ndarray, target: np.ndarray, num_qubits: int, rng) -> float:
    """Best GHZ fidelity over product unitaries via per-qubit eigen-updates.

    With all other factors frozen, the fidelity is a quadratic form in the
    quaternion coordinates of one factor, so each update is a 4x4
    eigenproblem and the fidelity never decreases: form[g, h] =
    Re <w_g|rho|w_h>, w_g = G_g^dagger V^dagger |target>, for V the frozen
    factors and G = (I, iX, iY, iZ), all applied qubit by qubit.
    """
    gens_dag = np.stack([np.eye(2), -1j * PAULI_X, -1j * PAULI_Y, -1j * PAULI_Z])
    xs = rng.standard_normal((num_qubits, 4))
    xs /= np.linalg.norm(xs, axis=1, keepdims=True)

    best = -np.inf
    for _ in range(100):
        for l in range(num_qubits):
            udag = np.einsum("mg,gab->mab", xs, gens_dag)  # u^dagger = sum_g x_g G_g^dagger
            phi = target
            for m in range(num_qubits):
                if m != l:
                    phi = _on_qubit(udag[m], phi, m, num_qubits)
            w = _on_qubit(gens_dag, phi, l, num_qubits)
            form = np.real(w.conj() @ rho @ w.T)
            form = (form + form.T) / 2
            evals, evecs = np.linalg.eigh(form)
            xs[l] = evecs[:, -1]
            value = float(evals[-1])
        if value - best < 1e-12:
            best = max(best, value)
            break
        best = value
    return best


def ghz_witness(state, optimize_local_unitaries: bool = False, restarts: int = 20, seed=None) -> float:
    """GHZ-projector witness value 1/2 - fidelity; negative certifies genuine
    multipartite entanglement.

    With ``optimize_local_unitaries`` the fidelity is first maximized over
    products of single-qubit unitaries by random-restart coordinate ascent.
    """
    if isinstance(state, PureState):
        num_qubits = state.num_qubits
        target = zoo.ghz(num_qubits).amplitudes
        fidelity = float(np.abs(np.vdot(target, state.amplitudes)) ** 2)
    else:
        mat = _state_matrix(state)
        num_qubits = int(round(np.log2(mat.shape[0])))
        target = zoo.ghz(num_qubits).amplitudes
        fidelity = float(np.real(np.vdot(target, mat @ target)))
    if not optimize_local_unitaries:
        return 0.5 - fidelity
    mat = _state_matrix(state)
    rng = np.random.default_rng(seed)
    best = fidelity  # identity product is one admissible choice
    for _ in range(restarts):
        best = max(best, _witness_seesaw(mat, target, num_qubits, rng))
    return 0.5 - best


def white_noise_factor(p: float, num_qubits: int) -> float:
    """QFI scaling of p |psi><psi| + (1-p) I/2^N relative to the pure state."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
    half = 2.0 ** (num_qubits - 1)
    return p**2 * half / (p * (half - 1.0) + 1.0)


def critical_p(ratio: float, num_qubits: int):
    """Smallest white-noise weight whose scaling factor reaches ``ratio``.

    Returns None when even the pure state (p = 1) stays below the ratio.
    The round trip white_noise_factor(critical_p(x, N), N) == x holds to
    1e-10 whenever a solution exists.
    """
    if ratio <= 0:
        raise ValueError(f"ratio must be positive, got {ratio}")
    half = 2.0 ** (num_qubits - 1)
    # positive root of p^2 * half - ratio * (half - 1) * p - ratio = 0
    b = ratio * (half - 1.0)
    p = (b + np.sqrt(b * b + 4.0 * half * ratio)) / (2.0 * half)
    if p > 1.0 + 1e-12:
        return None
    return float(min(p, 1.0))


def bound_ratios(psi: PureState, k: int) -> tuple[float, float]:
    """Bound-to-value ratios of a pure state for producibility class k.

    The white-noise mixture of the state is detected by a criterion exactly
    when its scaling factor exceeds the matching ratio.
    """
    gamma = qfi_matrix(psi)
    value_max, _ = gamma.max_direction()
    value_avg = gamma.average()
    if value_max <= 0 or value_avg <= 0:
        raise ValueError("state carries no Fisher information; ratios are undefined")
    n = psi.num_qubits
    return qfi_bound(n, k) / value_max, avg_qfi_bound(n, k) / value_avg


@dataclass(frozen=True)
class CriterionReport:
    """Everything the analyzers decide about one state."""

    num_qubits: int
    qfi_max: float
    qfi_max_direction: tuple
    qfi_avg: float
    qfi_matrix: tuple
    depth_qfi: int
    depth_qfi_avg: int
    entangled: bool
    genuine_multipartite: bool
    qfi_local_opt: float | None = None
    dme: tuple | None = None
    dme_any_violated: bool | None = None
    witness_value: float | None = None
    witness_optimized: float | None = None

    def to_dict(self) -> dict:
        out = {
            "num_qubits": self.num_qubits,
            "qfi_max": self.qfi_max,
            "qfi_max_direction": list(self.qfi_max_direction),
            "qfi_avg": self.qfi_avg,
            "qfi_matrix": [list(row) for row in self.qfi_matrix],
            "depth_qfi": self.depth_qfi,
            "depth_qfi_avg": self.depth_qfi_avg,
            "entangled": self.entangled,
            "genuine_multipartite": self.genuine_multipartite,
            "qfi_local_opt": self.qfi_local_opt,
            "witness_value": self.witness_value,
            "witness_optimized": self.witness_optimized,
            "dme_any_violated": self.dme_any_violated,
            "dme": None,
        }
        if self.dme is not None:
            out["dme"] = [
                {"pair": r.pair, "violated": r.violated, "lhs": r.lhs, "rhs": r.rhs}
                for r in self.dme
            ]
        return out


def build_report(
    state,
    optimize_directions: bool = True,
    optimize_witness: bool = False,
    seed=0,
) -> CriterionReport:
    """Run every applicable criterion on one pure or mixed state."""
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    n = state.num_qubits
    gamma = qfi_matrix(state)
    value_max, direction = gamma.max_direction()
    value_avg = gamma.average()
    depth_max = entanglement_depth(value_max, n, "qfi")
    depth_avg = entanglement_depth(value_avg, n, "avg")

    local_opt = None
    if isinstance(state, PureState) and optimize_directions:
        local_opt, _ = optimize_local_directions(state, seed=seed)

    dme = dme_any = witness = witness_opt = None
    if n == 3:
        dme = dme_family(state)
        dme_any = any(r.violated for r in dme)
    witness = ghz_witness(state, optimize_local_unitaries=False)
    if optimize_witness:
        witness_opt = ghz_witness(state, optimize_local_unitaries=True, seed=seed)

    depth = max(depth_max, depth_avg)
    return CriterionReport(
        num_qubits=n,
        qfi_max=value_max,
        qfi_max_direction=tuple(float(x) for x in direction),
        qfi_avg=value_avg,
        qfi_matrix=tuple(tuple(row) for row in gamma.as_list()),
        depth_qfi=depth_max,
        depth_qfi_avg=depth_avg,
        entangled=depth >= 2,
        genuine_multipartite=depth >= n,
        qfi_local_opt=local_opt,
        dme=dme,
        dme_any_violated=dme_any,
        witness_value=witness,
        witness_optimized=witness_opt,
    )
