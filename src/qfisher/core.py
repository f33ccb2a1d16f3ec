"""Dense multi-qubit states, operators and the linear algebra underneath.

Conventions used throughout the package:

* qubits are numbered ``0 .. N-1`` and qubit 0 is the most significant bit
  of the computational-basis index, so ``|b0 b1 ... b(N-1)>`` sits at index
  ``sum(b_l * 2**(N-1-l))``;
* ``sigma_z |0> = +|0>``.

States and explicitly requested operators are stored dense; the qubit count
is capped (default 12) because the eigendecompositions that dominate the
cost scale as ``8**N``. The spin-QFI kernel never builds a collective spin:
it applies J_x and J_y to a basis index as bit flips and J_z as a popcount
diagonal. Dense generators (1/2) sum_l sigma_(n_l)^(l), the collective spins
included, are filled entry by entry by ``local_generator``.
Every other single-qubit operator goes through one private primitive,
``_on_qubit``, which applies 2x2 matrices to one qubit of any basis axis of
a batched array and builds no dense operator; ``tensor`` is the only
Kronecker product.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "InvariantError",
    "PureState",
    "DensityMatrix",
    "HermitianOperator",
    "PAULI_X",
    "PAULI_Y",
    "PAULI_Z",
    "set_max_qubits",
    "get_max_qubits",
    "make_pure",
    "density_from_pure",
    "tensor",
    "collective_spin",
    "spin_along",
    "local_generator",
    "unit_direction",
    "partial_transpose",
    "is_ppt",
    "mix_with_identity",
    "variance",
    "state_to_json",
    "state_from_json",
    "save_state",
    "load_state",
]

PAULI_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
PAULI_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
PAULI_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
PAULIS = {"x": PAULI_X, "y": PAULI_Y, "z": PAULI_Z}

NORM_TOL = 1e-12
HERMITICITY_TOL = 1e-10
TRACE_TOL = 1e-10
PSD_TOL = 1e-9
DIRECTION_TOL = 1e-9

_MAX_QUBITS = 12


class InvariantError(ValueError):
    """A physical invariant (normalization, hermiticity, positivity) is broken."""


def set_max_qubits(n: int) -> None:
    """Raise or lower the dense-storage qubit cap (default 12)."""
    global _MAX_QUBITS
    if n < 1:
        raise ValueError("qubit cap must be at least 1")
    _MAX_QUBITS = int(n)


def get_max_qubits() -> int:
    return _MAX_QUBITS


def _check_num_qubits(n: int) -> int:
    """The dimension 2**n, once n is a positive integer (not a bool) within the cap."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"number of qubits must be a positive integer, got {n!r}")
    if n > _MAX_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the dense-storage cap of {_MAX_QUBITS}; "
            "raise it with set_max_qubits() if you really want this"
        )
    return 2**n


def _frozen(arr: np.ndarray) -> np.ndarray:
    out = np.array(arr, copy=True)
    out.setflags(write=False)
    return out


def _raise_first(bad: np.ndarray, message: str, *values: np.ndarray) -> None:
    """Raise ``InvariantError`` for the first True entry of ``bad``.

    ``message`` is formatted with the entries of ``values`` at that position;
    a stack's message starts with the position, a single state's does not.
    """
    if not bad.any():
        return
    at = tuple(int(i) for i in np.unravel_index(bad.argmax(), bad.shape))
    text = message.format(*(np.asarray(v)[at].item() for v in values))
    if at:
        text = f"sample {at[0] if len(at) == 1 else at}: {text}"
    raise InvariantError(text)


def _real_if_real(x: np.ndarray) -> np.ndarray:
    """``x`` if it has a nonzero imaginary part, else its real part (a view),
    so that LAPACK runs in real arithmetic on real input."""
    return x if x.imag.any() else x.real


def _check_pure_stack(amps: np.ndarray) -> None:
    """Check that every amplitude vector of a (..., d) stack has unit norm
    (a NaN or infinite amplitude fails)."""
    norm_sq = (np.abs(amps) ** 2).sum(axis=-1)
    _raise_first(~(np.abs(norm_sq - 1.0) <= NORM_TOL), "state not normalized: sum |a|^2 = {!r}", norm_sq)


def _check_density_stack(mats: np.ndarray) -> np.ndarray:
    """Hermitian part of a (..., d, d) stack, as complex, after checking that
    every matrix has finite entries, is Hermitian, has unit trace and is
    positive semidefinite.

    A matrix passes the PSD test when the Cholesky factorisation of
    rho + PSD_TOL * I succeeds, which needs its smallest eigenvalue above
    -PSD_TOL up to rounding. Only when some factorisation fails does one
    batched ``eigvalsh`` decide and report the smallest eigenvalue.

    A stack with no imaginary part is checked in real arithmetic: its
    Hermitian part is built as a float array, factorised (and, if needed,
    diagonalised) by real LAPACK and converted to complex once, at the end.
    Otherwise the real and imaginary parts are combined through views, so no
    conjugate copy is made. Besides its result, the check holds at most one
    d x d temporary and the two buffers of the factorisation.
    """
    re, im = mats.real, mats.imag
    real = not im.any()
    re_t, im_t = re.swapaxes(-1, -2), im.swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf is reported below
        asym = re - re_t
        if real:
            np.abs(asym, out=asym)
        else:
            np.hypot(asym, im + im_t, out=asym)  # |rho - rho^dag|
    asym = asym.max(axis=(-2, -1))  # NaN or inf where an entry is
    _raise_first(~np.isfinite(asym), "density matrix has a non-finite entry")
    _raise_first(asym > HERMITICITY_TOL, "density matrix is not Hermitian within 1e-10")
    if real:
        herm = re + re_t
    else:
        herm = np.empty(mats.shape, dtype=complex)
        np.add(re, re_t, out=herm.real)
        np.subtract(im, im_t, out=herm.imag)
    herm /= 2
    tr = np.real(np.trace(herm, axis1=-2, axis2=-1))
    _raise_first(~(np.abs(tr - 1.0) <= TRACE_TOL), "trace is {!r}, expected 1", tr)
    # shift the diagonal in place for the factorisation and restore it exactly
    diag = herm.reshape(herm.shape[:-2] + (-1,))[..., :: herm.shape[-1] + 1]
    saved = diag.copy()
    diag += PSD_TOL
    try:
        np.linalg.cholesky(herm)
        factored = True
    except np.linalg.LinAlgError:
        factored = False
    diag[...] = saved
    if not factored:
        lo = np.linalg.eigvalsh(herm)[..., 0]
        _raise_first(lo < -PSD_TOL, f"smallest eigenvalue {{!r}} below -{PSD_TOL}", lo)
    return herm.astype(complex) if real else herm


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the 2**N computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        d = _check_num_qubits(self.num_qubits)
        amps = np.asarray(self.amplitudes, dtype=complex).reshape(-1)
        if amps.size != d:
            raise InvariantError(f"amplitude vector has length {amps.size}, expected {d}")
        _check_pure_stack(amps)
        object.__setattr__(self, "amplitudes", _frozen(amps))

    @property
    def dim(self) -> int:
        return self.amplitudes.size


@dataclass(frozen=True)
class DensityMatrix:
    """Hermitian, unit-trace, positive-semidefinite matrix on 2**N dimensions."""

    num_qubits: int
    matrix: np.ndarray

    def __post_init__(self):
        d = _check_num_qubits(self.num_qubits)
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.shape != (d, d):
            raise InvariantError(f"matrix has shape {mat.shape}, expected {(d, d)}")
        herm = _check_density_stack(mat)  # a new array, so freezing it needs no copy
        herm.setflags(write=False)
        object.__setattr__(self, "matrix", herm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


@dataclass(frozen=True)
class HermitianOperator:
    """Hermitian matrix, typically a phase-shift generator."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=complex)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvariantError(f"operator must be square, got shape {mat.shape}")
        with np.errstate(invalid="ignore"):  # inf - inf is reported below
            asym = np.max(np.abs(mat - mat.conj().T))  # NaN or inf where an entry is
        if not np.isfinite(asym):
            raise InvariantError("operator has a non-finite entry")
        if asym > HERMITICITY_TOL:
            raise InvariantError("operator is not Hermitian within 1e-10")
        object.__setattr__(self, "matrix", _frozen(mat))

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, HermitianOperator):
        return op.matrix
    if isinstance(op, DensityMatrix):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _state_matrix(state) -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    if isinstance(state, DensityMatrix):
        return state.matrix
    return np.asarray(state, dtype=complex)


def _as_batch(state) -> np.ndarray:
    """A one-member stack: the amplitudes of a pure state or the matrix of a mixed one."""
    if isinstance(state, PureState):
        return state.amplitudes[None]
    if isinstance(state, DensityMatrix):
        return state.matrix[None]
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def make_pure(num_qubits: int, amplitudes) -> PureState:
    """Build a pure state from (possibly unnormalized) amplitudes."""
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
    if amps.size != 2**num_qubits:
        raise InvariantError(
            f"amplitude vector has length {amps.size}, expected {2**num_qubits}"
        )
    norm = float(np.linalg.norm(amps))
    if norm <= 0.0:
        raise InvariantError("cannot normalize the zero vector")
    return PureState(num_qubits, amps / norm)


def density_from_pure(psi: PureState) -> DensityMatrix:
    """Rank-one projector |psi><psi|."""
    return DensityMatrix(psi.num_qubits, np.outer(psi.amplitudes, psi.amplitudes.conj()))


def tensor(a, b):
    """Tensor product of two values of the same kind (a comes first)."""
    if isinstance(a, PureState) and isinstance(b, PureState):
        return PureState(a.num_qubits + b.num_qubits, np.kron(a.amplitudes, b.amplitudes))
    if isinstance(a, DensityMatrix) and isinstance(b, DensityMatrix):
        return DensityMatrix(a.num_qubits + b.num_qubits, np.kron(a.matrix, b.matrix))
    if isinstance(a, HermitianOperator) and isinstance(b, HermitianOperator):
        return HermitianOperator(np.kron(a.matrix, b.matrix))
    raise TypeError(f"cannot tensor {type(a).__name__} with {type(b).__name__}")


def _popcounts(dim: int) -> np.ndarray:
    return np.bitwise_count(np.arange(dim, dtype=np.uint64)).astype(np.int64)


def collective_spin(num_qubits: int, axis: str) -> HermitianOperator:
    """Collective spin operator J_x, J_y or J_z on N qubits."""
    if axis not in ("x", "y", "z"):
        raise ValueError(f"axis must be one of x, y, z, got {axis!r}")
    return spin_along(num_qubits, np.eye(3)["xyz".index(axis)])


def unit_direction(direction) -> np.ndarray:
    """Validate a Bloch-sphere direction (unit 3-vector within 1e-9)."""
    n = np.asarray(direction, dtype=float).reshape(-1)
    if n.shape != (3,):
        raise ValueError(f"direction must have 3 components, got {n.shape}")
    if abs(np.dot(n, n) - 1.0) > DIRECTION_TOL:
        raise InvariantError(f"direction is not a unit vector: {n}")
    return n


def spin_along(num_qubits: int, direction) -> HermitianOperator:
    """Collective spin J_n = n_x J_x + n_y J_y + n_z J_z for a unit direction."""
    _check_num_qubits(num_qubits)
    return local_generator(np.tile(unit_direction(direction), (num_qubits, 1)))


def _on_qubit(
    ops: np.ndarray, x: np.ndarray, qubit: int, num_qubits: int, axis: int = -1, paired: bool = False
) -> np.ndarray:
    """2x2 ``ops`` (any leading batch shape) applied to one qubit of the basis
    axis ``axis`` of ``x``; the result has shape ``ops.shape[:-2] + x.shape``.

    With ``paired`` the batch shape of ``ops`` is ``x.shape[:axis]`` and each
    operator acts on its own member of ``x``; the result has ``x``'s shape."""
    axis = axis % x.ndim
    low = 2 ** (num_qubits - 1 - qubit) * math.prod(x.shape[axis + 1 :])
    t = x.reshape(x.shape[:axis] + (2**qubit, 2, low))
    if paired:
        return (ops[..., None, :, :] @ t).reshape(x.shape)
    batch = ops.shape[:-2]
    out = ops.reshape(batch + (1,) * (axis + 1) + (2, 2)) @ t
    return out.reshape(batch + x.shape)


def _pauli_power(num_qubits: int, axis: str) -> np.ndarray:
    """Dense sigma_axis^tensor(N): X^N maps |i> to |i xor (d - 1)>, Z^N is
    (-1)^popcount(i) on the diagonal, and Y^N = i^N X^N Z^N."""
    d = 2**num_qubits
    idx = np.arange(d)
    signs = 1 - 2 * (_popcounts(d) & 1)
    out = np.zeros((d, d), dtype=complex)
    if axis == "z":
        out[idx, idx] = signs
    elif axis == "x":
        out[idx ^ (d - 1), idx] = 1.0
    else:
        out[idx ^ (d - 1), idx] = (1, 1j, -1, -1j)[num_qubits % 4] * signs
    return out


def local_generator(directions) -> HermitianOperator:
    """Phase generator (1/2) sum_l sigma_(n_l)^(l) with one direction per qubit.

    Filled entry by entry: qubit l adds +-n_z/2 to the diagonal and
    (n_x +- i n_y)/2 where it flips bit l (+ when the bit was 0)."""
    dirs = np.asarray(directions, dtype=float)
    if dirs.ndim != 2 or dirs.shape[1] != 3:
        raise ValueError(f"expected an (N, 3) array of directions, got shape {dirs.shape}")
    num_qubits = dirs.shape[0]
    d = _check_num_qubits(num_qubits)
    idx = np.arange(d)
    out = np.zeros((d, d), dtype=complex)
    for l in range(num_qubits):
        n = unit_direction(dirs[l])
        mask = 1 << (num_qubits - 1 - l)
        sign = np.where(idx & mask, -1.0, 1.0)
        out[idx, idx] += 0.5 * n[2] * sign
        out[idx ^ mask, idx] += 0.5 * (n[0] + 1j * n[1] * sign)
    return HermitianOperator(out)


def _qubit_subset(subset, num_qubits: int) -> list[int]:
    qubits = sorted(set(int(q) for q in subset))
    if not qubits:
        raise ValueError("qubit subset must be nonempty")
    if len(qubits) >= num_qubits:
        raise ValueError("qubit subset must be a proper subset (use .T for all qubits)")
    if qubits[0] < 0 or qubits[-1] >= num_qubits:
        raise ValueError(f"qubit labels must lie in 0..{num_qubits - 1}")
    return qubits


def partial_transpose(rho, subset) -> np.ndarray:
    """Transpose the tensor indices of the given qubits (0-based labels) of one
    matrix or of every matrix in a (..., d, d) stack."""
    mat = _as_matrix(rho)
    n = mat.shape[-1].bit_length() - 1 if mat.ndim >= 2 else 0
    if mat.ndim < 2 or mat.shape[-2:] != (2**n, 2**n):
        raise ValueError(f"matrix shape {mat.shape} is not a qubit register")
    t = mat.reshape(mat.shape[:-2] + (2,) * (2 * n))
    axes = list(range(t.ndim))
    for q in _qubit_subset(subset, n):
        axes[q - 2 * n], axes[q - n] = axes[q - n], axes[q - 2 * n]
    return t.transpose(axes).reshape(mat.shape)


def is_ppt(rho, subset, tol: float = 1e-9) -> bool | np.ndarray:
    """True iff the partial transpose over the subset has no eigenvalue below
    -tol; a (..., d, d) stack gives a bool array of its leading shape."""
    ppt = np.linalg.eigvalsh(_real_if_real(partial_transpose(rho, subset)))[..., 0] >= -tol
    return bool(ppt) if ppt.ndim == 0 else ppt


def mix_with_identity(state, p: float) -> DensityMatrix:
    """White-noise mixture p * rho + (1 - p) * I / 2**N."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    if not isinstance(state, (PureState, DensityMatrix)):
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    d = state.dim
    return DensityMatrix(state.num_qubits, p * _state_matrix(state) + (1.0 - p) * np.eye(d) / d)


def variance(state, op) -> float:
    """Variance <op^2> - <op>^2 in the given pure or mixed state."""
    mat = _as_matrix(op)
    if isinstance(state, PureState):
        vec = state.amplitudes
        if mat.shape[0] != vec.size:
            raise ValueError(f"dimension mismatch: state {vec.size}, operator {mat.shape[0]}")
        w = mat @ vec
        mean = float(np.real(np.vdot(vec, w)))
        second = float(np.real(np.vdot(w, w)))
        return second - mean**2
    rho = _state_matrix(state)
    if mat.shape != rho.shape:
        raise ValueError(f"dimension mismatch: state {rho.shape}, operator {mat.shape}")
    mean = float(np.real(np.trace(rho @ mat)))
    second = float(np.real(np.trace(rho @ mat @ mat)))
    return second - mean**2


# ---------------------------------------------------------------------------
# JSON persistence: {"n": N, "kind": "pure"|"mixed", "re": [...], "im": [...]}
# with row-major flattening; floats round-trip exactly at double precision.
# ---------------------------------------------------------------------------


def state_to_json(state) -> dict:
    if isinstance(state, PureState):
        arr = state.amplitudes
        kind = "pure"
    elif isinstance(state, DensityMatrix):
        arr = state.matrix.reshape(-1)
        kind = "mixed"
    else:
        raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")
    return {
        "n": state.num_qubits,
        "kind": kind,
        "re": [float(x) for x in arr.real],
        "im": [float(x) for x in arr.imag],
    }


def state_from_json(data: dict):
    try:
        n = data["n"]  # checked as an integer by the constructors, never converted
        kind = data["kind"]
        arr = np.asarray(data["re"], dtype=float).astype(complex)
        arr.imag = np.asarray(data["im"], dtype=float)  # no 1j * im, which turns inf into nan
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state record: {exc}") from exc
    if kind == "pure":
        return PureState(n, arr)
    if kind == "mixed":
        d = _check_num_qubits(n)
        if arr.size != d * d:
            raise InvariantError(f"mixed record has {arr.size} entries, expected {d * d}")
        return DensityMatrix(n, arr.reshape(d, d))
    raise ValueError(f"unknown state kind {kind!r}")


def save_state(state, path) -> None:
    with open(path, "w") as fh:
        json.dump(state_to_json(state), fh)


def load_state(path):
    with open(path) as fh:
        return state_from_json(json.load(fh))
