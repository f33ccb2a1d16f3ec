"""Dense multi-qubit states, operators and the linear algebra underneath.

Conventions used throughout the package:

* qubits are numbered ``0 .. N-1`` and qubit 0 is the most significant bit
  of the computational-basis index, so ``|b0 b1 ... b(N-1)>`` sits at index
  ``sum(b_l * 2**(N-1-l))``;
* ``sigma_z |0> = +|0>``.

States and explicitly requested operators are stored dense; the qubit count
is capped (default 12) because the eigendecompositions that dominate the
cost scale as ``8**N``. Amplitudes are complex128; a density matrix, an
operator or a POVM effect is float64 exactly when its input has no imaginary
part (``_hermitian_part``). The spin-QFI kernel never builds a collective
spin: it applies J_x and J_y to a basis index as bit flips and J_z as a
popcount diagonal. Dense generators (1/2) sum_l sigma_(n_l)^(l), the
collective spins included, are filled entry by entry by
``local_generator``; ``tensor`` is the only Kronecker product.
"""

from __future__ import annotations

import json
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


def _positive_int(n, what: str) -> int:
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"{what} must be a positive integer, got {n!r}")
    return int(n)


def set_max_qubits(n: int) -> None:
    """Raise or lower the dense-storage qubit cap (default 12)."""
    global _MAX_QUBITS
    _MAX_QUBITS = _positive_int(n, "qubit cap")


def get_max_qubits() -> int:
    return _MAX_QUBITS


def _check_num_qubits(n: int) -> int:
    """The dimension 2**n, once n is a positive integer (not a bool) within the cap."""
    if _positive_int(n, "number of qubits") > _MAX_QUBITS:
        raise ValueError(
            f"{n} qubits exceeds the dense-storage cap of {_MAX_QUBITS}; "
            "raise it with set_max_qubits() if you really want this"
        )
    return 2**n


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
    """The real part (a view) of a complex ``x`` with no imaginary part, else
    ``x``: the one test of an array not validated yet, so that LAPACK runs in
    real arithmetic on real input."""
    return x.real if np.iscomplexobj(x) and not x.imag.any() else x


def _x_blocks(mats: np.ndarray):
    """The blocks (p, q, c), each (..., d/2), of a real X-form (..., d, d)
    stack, or None for any other stack, complex ones included: a real stack
    whose only nonzero off-diagonal entries sit at (j, d-1-j) is d/2 blocks
    [[p_j, c_j], [c_j, q_j]] on the basis pairs (j, d-1-j), with c read from
    the lower triangle as LAPACK reads it."""
    d = mats.shape[-1]
    diag = np.diagonal(mats, axis1=-2, axis2=-1)
    anti = np.diagonal(mats[..., ::-1, :], axis1=-2, axis2=-1)  # anti[..., j] = mats[..., d-1-j, j]
    if np.iscomplexobj(mats) or d % 2 or np.count_nonzero(mats) != np.count_nonzero(diag) + np.count_nonzero(anti):
        return None
    h = d // 2
    return diag[..., :h], diag[..., : h - 1 : -1], anti[..., :h]


def _block_eigvals(p: np.ndarray, q: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Lower and upper eigenvalues of the blocks [[p, c], [c, q]]."""
    mid, radius = (p + q) / 2, np.hypot((p - q) / 2, c)
    return mid - radius, mid + radius


def _smallest_eigvals(mats: np.ndarray, blocks) -> np.ndarray:
    """Smallest eigenvalue of each matrix of a stack, from its ``_x_blocks`` or, if None, by LAPACK."""
    return np.linalg.eigvalsh(mats)[..., 0] if blocks is None else _block_eigvals(*blocks)[0].min(axis=-1)


def _check_pure_stack(amps: np.ndarray) -> None:
    """Check that every amplitude vector of a (..., d) stack has unit norm
    (a NaN or infinite amplitude fails)."""
    norm_sq = (np.abs(amps) ** 2).sum(axis=-1)
    _raise_first(~(np.abs(norm_sq - 1.0) <= NORM_TOL), "state not normalized: sum |a|^2 = {!r}", norm_sq)


def _hermitian_part(mats: np.ndarray, noun: str) -> np.ndarray:
    """Exact Hermitian part (M + M^dag) / 2 of a (..., d, d) stack, as a new
    array in the arithmetic of its values, after checking that every matrix
    has finite entries and is Hermitian within ``HERMITICITY_TOL``; the
    messages name a matrix by ``noun``.

    An integer or float stack, or a complex one with no imaginary part, gives
    a float64 part, built and checked in real arithmetic; any other stack
    gives a complex128 part, whose real and imaginary parts are combined
    through views, so no conjugate copy is made. Besides its result, the
    check holds at most one d x d temporary.
    """
    mats = np.asarray(mats)
    mats = _real_if_real(mats.astype(complex if np.iscomplexobj(mats) else float, copy=False))
    real = not np.iscomplexobj(mats)
    re, im = (mats, None) if real else (mats.real, mats.imag)
    re_t = re.swapaxes(-1, -2)
    with np.errstate(invalid="ignore"):  # inf - inf is reported below
        if real:
            herm = re + re_t
        else:
            herm = np.empty(mats.shape, dtype=complex)
            np.add(re, re_t, out=herm.real)
            np.subtract(im, im.swapaxes(-1, -2), out=herm.imag)
        herm /= 2
        # M - herm is (M - M^dag) / 2, read with no second strided transpose
        asym = re - herm.real
        if real:
            np.abs(asym, out=asym)
        else:
            np.hypot(asym, im - herm.imag, out=asym)
    asym = 2 * asym.max(axis=(-2, -1))  # NaN or inf where an entry is
    _raise_first(~np.isfinite(asym), f"{noun} has a non-finite entry")
    _raise_first(asym > HERMITICITY_TOL, f"{noun} is not Hermitian within 1e-10")
    return herm


def _check_density_stack(mats: np.ndarray) -> np.ndarray:
    """Hermitian part (``_hermitian_part``) of a (..., d, d) stack after
    checking that every matrix has unit trace and is positive semidefinite
    (``_check_psd``, in real arithmetic where the part is real); besides its
    result, the check holds at most one d x d temporary and, for a stack that
    is not X-form, the two buffers of the factorisation.
    """
    herm = _hermitian_part(mats, "density matrix")
    tr = np.real(np.trace(herm, axis1=-2, axis2=-1))
    _raise_first(~(np.abs(tr - 1.0) <= TRACE_TOL), "trace is {!r}, expected 1", tr)
    _check_psd(herm, f"smallest eigenvalue {{!r}} below -{PSD_TOL}")
    return herm


def _check_psd(herm: np.ndarray, message: str) -> None:
    """Raise ``InvariantError`` with ``message`` (formatted with the smallest
    eigenvalue) unless every matrix of a Hermitian (..., d, d) stack is PSD
    within ``PSD_TOL``. A real X-form stack is decided by its blocks'
    closed-form eigenvalues, with no LAPACK call. Any other stack passes when
    the Cholesky factorisation of herm + PSD_TOL * I succeeds, or where it
    fails, when one batched ``eigvalsh`` finds no eigenvalue below -PSD_TOL.
    The diagonal is shifted in place and restored exactly, so ``herm`` must
    be writable and no copy is made."""
    blocks = _x_blocks(herm)
    if blocks is None:
        diag = np.arange(herm.shape[-1])
        saved = herm[..., diag, diag]
        herm[..., diag, diag] += PSD_TOL
        try:
            np.linalg.cholesky(herm)
            return
        except np.linalg.LinAlgError:
            pass
        finally:
            herm[..., diag, diag] = saved
    lo = _smallest_eigvals(herm, blocks)
    _raise_first(lo < -PSD_TOL, message, lo)


@dataclass(frozen=True)
class PureState:
    """Normalized complex amplitude vector over the 2**N computational basis."""

    num_qubits: int
    amplitudes: np.ndarray

    def __post_init__(self):
        d = _check_num_qubits(self.num_qubits)
        amps = np.array(np.reshape(self.amplitudes, -1), dtype=complex)  # own copy, frozen below
        if amps.size != d:
            raise InvariantError(f"amplitude vector has length {amps.size}, expected {d}")
        _check_pure_stack(amps)
        amps.setflags(write=False)
        object.__setattr__(self, "amplitudes", amps)

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
        # a real matrix is checked as it is, with no complex copy made first
        mat = np.asarray(self.matrix)
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
    """Hermitian matrix, typically a phase-shift generator; holds the exact Hermitian part of its input."""

    matrix: np.ndarray

    def __post_init__(self):
        mat = np.asarray(self.matrix)
        if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
            raise InvariantError(f"operator must be square, got shape {mat.shape}")
        herm = _hermitian_part(mat, "operator")  # a new array: frozen with no copy
        herm.setflags(write=False)
        object.__setattr__(self, "matrix", herm)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def _as_matrix(op) -> np.ndarray:
    if isinstance(op, (HermitianOperator, DensityMatrix)):
        return op.matrix
    return np.asarray(op, dtype=complex)


def _generator_matrix(g) -> np.ndarray:
    """An operator's matrix, checked as ``HermitianOperator`` checks it unless it is one."""
    return g.matrix if isinstance(g, HermitianOperator) else HermitianOperator(_as_matrix(g)).matrix


def _state_matrix(state) -> np.ndarray:
    if isinstance(state, PureState):
        return np.outer(state.amplitudes, state.amplitudes.conj())
    return _as_matrix(state)


def _as_batch(state) -> np.ndarray:
    """A one-member stack: the amplitudes of a pure state or the matrix of a mixed one."""
    if isinstance(state, PureState):
        return state.amplitudes[None]
    if isinstance(state, DensityMatrix):
        return state.matrix[None]
    raise TypeError(f"expected PureState or DensityMatrix, got {type(state).__name__}")


def make_pure(num_qubits: int, amplitudes) -> PureState:
    """Build a pure state from (possibly unnormalized) amplitudes."""
    _check_num_qubits(num_qubits)  # before anything reads 2**num_qubits; PureState checks the length
    amps = np.asarray(amplitudes, dtype=complex).reshape(-1)
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
    if not abs(np.dot(n, n) - 1.0) <= DIRECTION_TOL:  # NaN fails too
        raise InvariantError(f"direction is not a unit vector: {n}")
    return n


def spin_along(num_qubits: int, direction) -> HermitianOperator:
    """Collective spin J_n = n_x J_x + n_y J_y + n_z J_z for a unit direction."""
    _check_num_qubits(num_qubits)
    return local_generator(np.tile(unit_direction(direction), (num_qubits, 1)))


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
    -tol; a (..., d, d) stack gives a bool array of its leading shape. The
    partial transpose of an X-form matrix is X-form, so a real X-form stack
    is decided by its blocks' closed-form eigenvalues (``_x_blocks``)."""
    pt = _real_if_real(partial_transpose(rho, subset))
    ppt = _smallest_eigvals(pt, _x_blocks(pt)) >= -tol
    return bool(ppt) if ppt.ndim == 0 else ppt


def mix_with_identity(state, p: float) -> DensityMatrix:
    """White-noise mixture p * rho + (1 - p) * I / 2**N."""
    if not 0.0 <= p <= 1.0:
        raise ValueError(f"mixing weight must lie in [0, 1], got {p}")
    x = _real_if_real(_as_batch(state)[0])  # raises TypeError for anything but a state
    mat = np.outer(x, x.conj()) if isinstance(state, PureState) else x.copy()  # real for a real state
    mat *= p
    mat[np.diag_indices(state.dim)] += (1.0 - p) / state.dim  # in place: no identity is built
    return DensityMatrix(state.num_qubits, mat)


def variance(state, op) -> float:
    """Variance <op^2> - <op>^2 in the given pure or mixed state; a raw ``op``
    is checked as ``HermitianOperator`` checks it."""
    mat = _generator_matrix(op)
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
    arr = _as_batch(state).reshape(-1)  # raises TypeError for anything but a state
    return {
        "n": state.num_qubits,
        "kind": "pure" if isinstance(state, PureState) else "mixed",
        "re": [float(x) for x in arr.real],
        "im": [float(x) for x in arr.imag],
    }


def state_from_json(data: dict):
    try:
        n = data["n"]  # checked as an integer by the constructors, never converted
        kind = data["kind"]
        arr = np.asarray(data["re"], dtype=float).astype(complex)
        im = np.asarray(data["im"], dtype=float)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed state record: {exc}") from exc
    if arr.shape != im.shape:  # assigned below, im would broadcast onto re
        raise ValueError(f"malformed state record: 're' has shape {arr.shape}, 'im' {im.shape}")
    arr.imag = im  # no 1j * im, which turns inf into nan
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
