"""Quantum and classical Fisher information for multiqubit phase estimation.

The central objects are the quantum Fisher information (QFI) of a state for
a Hermitian phase generator, the 3x3 matrix whose quadratic form gives the
QFI for every collective spin direction, and its two scalar summaries: the
best collective direction (largest eigenvalue) and the uniform average over
the Bloch sphere (trace / 3).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .core import (
    HERMITICITY_TOL,
    PAULIS,
    InvariantError,
    PureState,
    _as_batch,
    _as_matrix,
    _on_qubit,
    _pauli_power,
    _popcounts,
    _real_if_real,
    _state_matrix,
)

__all__ = [
    "SpinQfiMatrix",
    "Povm",
    "qfi",
    "qfi_matrix",
    "qfi_max",
    "qfi_avg",
    "qfi_avg_montecarlo",
    "classical_fisher",
    "model_probabilities",
    "optimize_local_directions",
    "parity_povm",
    "x_basis_povm",
]

ZERO_CUT = 1e-12
PROB_FLOOR = 1e-12
# Largest estimated working set, in bytes, of one eigendecomposition or one
# mixed-state QFI kernel call; above it the call raises ValueError (CLI exit
# 2) instead of swapping. A full-rank state at the 12-qubit cap needs about
# 1.1 GB for its eigendecomposition and 1.3 GB for the kernel.
MAX_DENSE_BYTES = 2 * 2**30


def _apply_spins(x: np.ndarray, num_qubits: int, axis: int = -1) -> np.ndarray:
    """J_x x, J_y x and J_z x stacked as a (3,) + x.shape array.

    The J's act on the basis axis ``axis`` of ``x`` (length 2**N); all other
    axes are batch axes. Viewing that axis as N qubit axes of length 2,
    sigma_x on qubit l swaps the two halves of qubit axis l, sigma_y swaps
    them with factors -i (to |0>) and +i (to |1>), and J_z is the diagonal
    (N - 2 popcount(idx)) / 2. No dense operator is formed.
    """
    axis = axis % x.ndim
    d = x.shape[axis]
    head, tail = x.shape[:axis], x.shape[axis + 1 :]
    t = x.reshape(head + (2,) * num_qubits + tail)
    out = np.zeros((3,) + t.shape, dtype=complex)
    jx, jy = out[0], out[1]  # jy holds -i J_y until the final scaling
    for l in range(num_qubits):
        lo = (slice(None),) * (axis + l) + (0,)
        hi = (slice(None),) * (axis + l) + (1,)
        jx[lo] += t[hi]
        jx[hi] += t[lo]
        jy[lo] -= t[hi]
        jy[hi] += t[lo]
    jx *= 0.5
    jy *= 0.5j
    diag = (num_qubits - 2 * _popcounts(d)) / 2.0
    out[2] = (diag.reshape((d,) + (1,) * len(tail)) * x).reshape(t.shape)
    return out.reshape((3,) + x.shape)


@dataclass(frozen=True)
class SpinQfiMatrix:
    """Real symmetric 3x3 matrix M with QFI(J_n) = n.T @ M @ n for unit n."""

    matrix: np.ndarray
    num_qubits: int

    def __post_init__(self):
        mat = np.asarray(self.matrix, dtype=float)
        if mat.shape != (3, 3) or not np.array_equal(mat, mat.T):
            raise InvariantError("spin-QFI matrix must be symmetric 3x3")
        evals = np.linalg.eigvalsh(mat)
        if evals[0] < -1e-9:
            raise InvariantError(f"spin-QFI matrix has eigenvalue {evals[0]!r} < -1e-9")
        n = self.num_qubits
        if mat.trace() > n**2 + 2 * n + 1e-6:
            raise InvariantError("spin-QFI matrix trace exceeds the N^2 + 2N ceiling")
        mat = mat.copy()
        mat.setflags(write=False)
        object.__setattr__(self, "matrix", mat)

    def max_direction(self) -> tuple[float, np.ndarray]:
        """Largest eigenvalue and the corresponding unit direction."""
        evals, evecs = np.linalg.eigh(self.matrix)
        direction = evecs[:, -1]
        # fix the sign so equal inputs give identical directions
        pivot = np.argmax(np.abs(direction))
        if direction[pivot] < 0:
            direction = -direction
        return float(evals[-1]), direction

    def average(self) -> float:
        """Uniform Bloch-sphere average of the quadratic form (trace / 3)."""
        return float(self.matrix.trace() / 3.0)


def _check_budget(nbytes: int, what: str) -> None:
    if nbytes > MAX_DENSE_BYTES:
        raise ValueError(
            f"{what} needs about {nbytes / 2**20:.0f} MB, above the "
            f"{MAX_DENSE_BYTES / 2**20:.0f} MB budget of fisher.MAX_DENSE_BYTES"
        )


def _real_gram(x: np.ndarray) -> np.ndarray:
    """Re sum conj(x_i) x_j over the trailing axes of a (k, B, ...) stack,
    shape (B, k, k): the real dot products of the (re, im) views, as one
    real GEMM per batch member and with no copy of x."""
    flat = x.reshape(x.shape[:2] + (-1,)).view(float).swapaxes(0, 1)
    return flat @ flat.swapaxes(-1, -2)


def _qfi_batch(states: np.ndarray, apply, num_ops: int, zero_cut: float = ZERO_CUT) -> np.ndarray:
    """QFI matrices Gamma_ij of a (B, d) stack of amplitude vectors or a
    (B, d, d) stack of density matrices for ``num_ops`` generators G_i, shape
    (B, num_ops, num_ops); ``apply(x)`` returns the G_i x stacked as a complex
    (num_ops,) + x.shape array, with G_i acting on axis -2 of x.

    Only the support enters, as W = V_S sqrt(lam). A pure stack is its own
    support: W = psi and lam = 1, with no eigendecomposition. For a mixed
    stack, S holds the eigenvectors whose eigenvalue is above ``zero_cut``
    times the trace in some member of the batch, and a member's other
    eigenvalues count as 0. The pair weight (lam_a - lam_b)^2 / (lam_a +
    lam_b) equals lam_a + lam_b - 4 lam_a lam_b / (lam_a + lam_b), so with
    m_i = W^dag G_i W the pair sum 2 sum_ab w_ab Re (G_i)_ab (G_j)_ba becomes
    Gamma_ij = 4 Re <G_i W|G_j W> - 8 sum_ab Re(m_i,ab conj(m_j,ab)) / (lam_a + lam_b),
    which for a pure state is 4 Re Cov(G_i, G_j). G acts on the d x r block W
    alone, and no d x d pair table is built. A mixed stack with no imaginary
    part is diagonalised by real LAPACK, so W is real and each m_i is one
    real product with the (re, im) view of G_i W.
    """
    pure = states.ndim == 2
    if pure:
        b, d = states.shape
        w, lam = states[:, :, None], np.ones((b, 1))  # a view: never written
    else:
        b, d, _ = states.shape
        # eigenvectors, LAPACK's copy of one matrix and its complex and real
        # workspace (a real stack needs about half of this)
        _check_budget(16 * d * d * (b + 3), "the eigendecomposition")
        evals, vecs = np.linalg.eigh(_real_if_real(states))
        kept = evals > zero_cut * np.sum(evals, axis=-1, keepdims=True)
        first = d - int(kept.sum(axis=-1).max())  # eigenvalues ascend, so S is a suffix
        lam = np.where(kept, evals, 0.0)[:, first:]
        w = vecs[:, :, first:] * np.sqrt(lam)[:, None, :]
        del vecs
    r = lam.shape[1]
    # W, the G_i W, and one m_i before it moves into the space of G_i W
    _check_budget(16 * b * r * (d + num_ops * d + r), "the mixed QFI kernel")
    scale = lam[:, :, None] + lam[:, None, :]
    np.sqrt(np.divide(1.0, scale, out=scale, where=scale > 0), out=scale)  # 0 where lam_a + lam_b is
    gw = apply(w)  # (num_ops, B, d, r)
    gamma = 4.0 * _real_gram(gw)
    real = not np.iscomplexobj(w)
    w_dag = (w if real else np.conj(w, out=None if pure else w)).swapaxes(-1, -2)
    # m_i overwrites the start of G_i W, which nothing reads after it
    m = gw.reshape(num_ops, -1)[:, : b * r * r].reshape(num_ops, b, r, r)
    for i in range(num_ops):
        m[i] = (w_dag @ gw[i].view(float)).view(complex) if real else w_dag @ gw[i]
    m *= scale
    gamma -= 8.0 * _real_gram(m)
    upper = np.triu_indices(num_ops, 1)
    gamma[:, upper[1], upper[0]] = gamma[:, upper[0], upper[1]]  # exactly symmetric
    return gamma


def qfi(state, generator, zero_cut: float = ZERO_CUT) -> float:
    """Quantum Fisher information of a pure or mixed state for a Hermitian
    generator, from its support: the eigenvalues above ``zero_cut`` times the
    trace of a mixed state (``_qfi_batch``)."""
    g = _as_matrix(generator)
    batch = _as_batch(state)
    if g.shape != (batch.shape[1],) * 2:
        raise ValueError(f"dimension mismatch: state {batch.shape[1:]}, generator {g.shape}")
    return float(_qfi_batch(batch, lambda v: (g @ v)[None], 1, zero_cut)[0, 0, 0])


def _spin_gammas(batch: np.ndarray, num_qubits: int, zero_cut: float = ZERO_CUT) -> np.ndarray:
    """Spin-QFI matrices of a (B, d) pure or (B, d, d) mixed stack, (B, 3, 3)."""
    return _qfi_batch(batch, lambda v: _apply_spins(v, num_qubits, axis=-2), 3, zero_cut)


def qfi_matrix(state, zero_cut: float = ZERO_CUT) -> SpinQfiMatrix:
    """3x3 collective-spin QFI matrix of a pure or mixed state."""
    return SpinQfiMatrix(_spin_gammas(_as_batch(state), state.num_qubits, zero_cut)[0], state.num_qubits)


def qfi_max(state) -> tuple[float, np.ndarray]:
    """Largest QFI over collective spin directions and the optimal direction."""
    return qfi_matrix(state).max_direction()


def qfi_avg(state) -> float:
    """QFI averaged uniformly over collective spin directions."""
    return qfi_matrix(state).average()


def qfi_avg_montecarlo(state, num_directions: int, seed=None) -> float:
    """Monte-Carlo estimate of the direction-averaged QFI."""
    if num_directions < 1:
        raise ValueError("need at least one direction")
    gamma = qfi_matrix(state).matrix
    rng = np.random.default_rng(seed)
    dirs = rng.standard_normal((num_directions, 3))
    dirs /= np.linalg.norm(dirs, axis=1, keepdims=True)
    return float(np.mean(np.einsum("ki,ij,kj->k", dirs, gamma, dirs)))


# ---------------------------------------------------------------------------
# POVMs and the classical Fisher information of a concrete measurement
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Povm:
    """Positive operator valued measurement: PSD elements summing to identity."""

    elements: tuple

    def __post_init__(self):
        elems = tuple(np.asarray(e, dtype=complex) for e in self.elements)
        if not elems:
            raise InvariantError("POVM needs at least one element")
        d = elems[0].shape[0]
        total = np.zeros((d, d), dtype=complex)
        for e in elems:
            if e.shape != (d, d):
                raise InvariantError("POVM elements must share one square shape")
            h = _real_if_real(e)
            with np.errstate(invalid="ignore"):  # a NaN or inf entry fails the sum below
                if np.max(np.abs(h - h.conj().T)) > HERMITICITY_TOL:
                    raise InvariantError("POVM element is not Hermitian within 1e-10")
            if np.linalg.eigvalsh(h)[0] < -1e-9:
                raise InvariantError("POVM element is not positive semidefinite")
            total += e
        if not np.max(np.abs(total - np.eye(d))) <= 1e-9:  # NaN fails too
            raise InvariantError("POVM elements do not sum to the identity")
        frozen = []
        for e in elems:
            e = e.copy()
            e.setflags(write=False)
            frozen.append(e)
        object.__setattr__(self, "elements", tuple(frozen))

    @property
    def dim(self) -> int:
        return self.elements[0].shape[0]

    def __len__(self) -> int:
        return len(self.elements)


def parity_povm(num_qubits: int, axis: str = "x") -> Povm:
    """Two-outcome parity measurement (I +- sigma_axis^tensor(N)) / 2."""
    if axis not in PAULIS:
        raise ValueError(f"axis must be x, y, or z, got {axis!r}")
    op = _pauli_power(num_qubits, axis)
    eye = np.eye(2**num_qubits)
    return Povm(((eye + op) / 2, (eye - op) / 2))


def x_basis_povm(num_qubits: int) -> Povm:
    """Projective measurement in the sigma_x^tensor(N) eigenbasis: H^tensor(N)
    is (-1)^popcount(i & j) times 1/sqrt(2) multiplied in N times, as a kron
    chain rounds it (2^(-N/2) differs in the last bit)."""
    d = 2**num_qubits
    # the d rank-one d x d effects and the Povm's frozen copies of them
    _check_budget(2 * 16 * d**3, "the x-basis POVM")
    scale = math.prod([1.0 / np.sqrt(2.0)] * num_qubits)
    idx = np.arange(d, dtype=np.uint64)
    parity = np.bitwise_count(idx[:, None] & idx[None, :]) & 1
    basis = ((1.0 - 2.0 * parity) * scale).astype(complex)
    return Povm(tuple(np.outer(basis[:, i], basis[:, i].conj()) for i in range(d)))


def model_probabilities(state, generator, povm: Povm, thetas) -> np.ndarray:
    """Outcome probabilities P[t, mu] of the evolved state on a theta grid.

    In the eigenbasis of the generator (eigenvalues lambda, state w, effects
    E_mu), P[t, mu] = Re sum_g exp(-i theta_t g) C[g, mu], where C[g, mu]
    sums w_ab (E_mu)_ba over the pairs with lambda_a - lambda_b = g exactly.
    A collective J_z has 2N + 1 distinct gaps, any generator at most d^2; the
    grid is taken in blocks, so memory never grows as (grid size) * d^2.
    """
    if not isinstance(povm, Povm):
        raise TypeError("povm must be a Povm instance")
    g = _as_matrix(generator)
    rho = _state_matrix(state)
    if rho.shape != g.shape or povm.dim != g.shape[0]:
        raise ValueError("state, generator and POVM dimensions do not match")
    lam, v = np.linalg.eigh(g)
    w = v.conj().T @ rho @ v
    thetas = np.atleast_1d(np.asarray(thetas, dtype=float))
    # entry [b, a] of w.T * E_mu is w_ab (E_mu)_ba and carries the gap lambda_a - lambda_b
    gaps = (lam[None, :] - lam[:, None]).ravel()
    order = np.argsort(gaps, kind="stable")
    starts = np.flatnonzero(np.diff(gaps[order], prepend=-np.inf))
    terms = (w.T * (v.conj().T @ e @ v) for e in povm.elements)
    coeffs = np.array([np.add.reduceat(term.ravel()[order], starts) for term in terms])
    # about 2**16 phases exp(-i theta g) at a time, whatever the number of gaps
    blocks = np.array_split(thetas, max(1, thetas.size * starts.size // 2**16))
    phases = (np.exp(-1j * np.outer(block, gaps[order[starts]])) for block in blocks)
    return np.vstack([np.real(p @ coeffs.T) for p in phases])


def classical_fisher(state, generator, povm: Povm, theta: float, dtheta: float = 1e-5) -> float:
    """Fisher information of the POVM at theta via central differences.

    Outcomes with probability below 1e-12 are dropped; never exceeds the QFI
    (up to discretization error of the derivative).
    """
    if not 0.0 < dtheta < np.inf:
        raise ValueError(f"dtheta must be positive and finite, got {dtheta!r}")
    probs = model_probabilities(state, generator, povm, [theta, theta + dtheta, theta - dtheta])
    p0, pp, pm = probs[0], probs[1], probs[2]
    dp = (pp - pm) / (2.0 * dtheta)
    mask = p0 >= PROB_FLOOR
    return float(np.sum(dp[mask] ** 2 / p0[mask]))


# ---------------------------------------------------------------------------
# Local-direction optimization of the pure-state QFI
# ---------------------------------------------------------------------------


@functools.cache
def _sphere_probes() -> np.ndarray:
    """The interval ends and 21 interior probes, scored beside the quartic's
    roots; built on first use, since a first ``np.linspace`` call costs a
    process about 0.1 MB of resident memory."""
    probes = np.concatenate([[-1.0, 1.0], np.linspace(-0.999, 0.999, 21)])
    probes.setflags(write=False)
    return probes


def _companion_roots(coeffs: np.ndarray) -> np.ndarray:
    """Complex roots of (R, k + 1) polynomials with nonzero leading
    coefficients, (R, k): the eigenvalues of the companion matrices that
    ``np.roots`` builds, found by one batched ``eigvals``."""
    k = coeffs.shape[1] - 1
    companion = np.zeros((len(coeffs), k, k))
    companion[:, 1:, :-1] = np.eye(k - 1)
    companion[:, 0, :] = -coeffs[:, 1:] / coeffs[:, :1]
    return np.linalg.eigvals(companion)


def _quartic_roots(coeffs: np.ndarray) -> np.ndarray:
    """Complex roots of (R, 5) quartics with nonzero leading coefficients,
    (R, 4), in ``np.roots``' order: the roots of each polynomial stripped of
    its trailing zero coefficients, then one 0 per stripped coefficient."""
    if coeffs[:, 4].all():  # the usual case: nothing to strip
        return _companion_roots(coeffs)
    degree = 4 - np.argmax(coeffs[:, ::-1] != 0, axis=1)
    roots = np.zeros((len(coeffs), 4), dtype=complex)
    for k in set(degree.tolist()) - {0}:
        rows = degree == k
        roots[rows, :k] = _companion_roots(coeffs[rows, : k + 1])
    return roots


def _max_on_sphere(a: np.ndarray, c: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Row-wise argmax over unit n of -(n.a)^2 + 2 n.c (exact, via a quartic)
    for one (3,) vector ``a`` and (R, 3) stacks ``c`` and ``current``.

    With a = 0 a row goes along c, or keeps its current direction if c = 0
    too. Otherwise n = t a_hat + s p_hat, where p_hat is the unit part of c
    across a (any direction across a when c is parallel to a, and then t is
    the clipped vertex of the parabola in t). In general the stationary t
    solve a quartic, whose R instances share one companion eigenproblem; the
    best of its real roots in [-1, 1], the ends and 21 interior probes wins,
    ties going to the first candidate.
    """
    na = np.linalg.norm(a)
    if na < 1e-14:
        nc = np.linalg.norm(c, axis=-1, keepdims=True)
        moves = nc >= 1e-14
        return np.where(moves, c / np.where(moves, nc, 1.0), current)
    a_hat = a / na
    c_par = c @ a_hat
    c_perp_vec = c - c_par[:, None] * a_hat
    cp = np.linalg.norm(c_perp_vec, axis=-1)
    parallel = cp < 1e-14
    any_parallel = bool(parallel.any())
    if any_parallel:
        # across a: the basis vector a_hat leans on least, minus its part
        # along a; these rows take t from the parabola, not from the quartic
        probe = np.eye(3)[np.argmin(np.abs(a_hat))]
        probe = probe - np.dot(probe, a_hat) * a_hat
        c_perp_vec[parallel], cp[parallel] = probe, np.linalg.norm(probe)
    beta = na**2

    # stationary points satisfy (c_par - beta t)^2 (1 - t^2) = cp^2 t^2
    coeffs = np.empty((len(c), 5))
    coeffs[:, 0] = -(beta**2)
    coeffs[:, 1] = 2.0 * beta * c_par
    coeffs[:, 2] = beta**2 - c_par**2 - cp**2
    coeffs[:, 3] = -coeffs[:, 1]
    coeffs[:, 4] = c_par**2
    roots = _quartic_roots(coeffs)
    probes = _sphere_probes()
    cand = np.empty((len(c), 4 + probes.size))
    cand[:, :4] = roots.real
    cand[:, 4:] = probes
    g = -beta * cand * cand + 2.0 * c_par[:, None] * cand
    g += 2.0 * cp[:, None] * np.sqrt(np.maximum(0.0, 1.0 - cand * cand))
    g[:, :4][(np.abs(roots.imag) >= 1e-9) | (np.abs(roots.real) > 1.0)] = -np.inf
    t = cand[np.arange(len(c)), np.argmax(g, axis=1)]  # ties go to the first candidate
    if any_parallel:
        t[parallel] = np.clip(c_par[parallel] / beta, -1.0, 1.0)
    s = np.sqrt(np.maximum(0.0, 1.0 - t * t)) / cp
    return t[:, None] * a_hat + s[:, None] * c_perp_vec


def optimize_local_directions(
    psi: PureState, max_iters: int = 100, restarts: int = 10, seed=None
) -> tuple[float, np.ndarray]:
    """Maximize 4*Var of a one-direction-per-qubit generator over directions.

    Coordinate ascent: with every other qubit fixed, the objective restricted
    to one direction is a sphere-constrained quadratic that is maximized
    exactly, so the value never decreases. Restart 0 starts from the best
    collective direction, which guarantees the result is at least the
    collective optimum; ``restarts`` more start from random directions, drawn
    as one (restarts, N, 3) normal array (the numbers of that many (N, 3)
    draws in turn). All restarts advance in lock step on an (R, N, 3) array,
    and each qubit update solves the R sphere steps at once. A restart whose
    sweep gains less than 1e-10, or that has run ``max_iters`` sweeps, stops
    and is left out of later sweeps. The first restart with the largest value
    wins.
    """
    if not isinstance(psi, PureState):
        raise TypeError("local-direction optimization needs a pure state")
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    if max_iters < 1:
        raise ValueError(f"max_iters must be at least 1, got {max_iters}")
    n = psi.num_qubits
    amps = psi.amplitudes
    rng = np.random.default_rng(seed)
    # (N, 3, d) applications of the half-Paulis; fixed for the whole search
    half_paulis = 0.5 * np.stack([PAULIS[ax] for ax in "xyz"])
    paulis_psi = np.stack([_on_qubit(half_paulis, amps, l, n) for l in range(n)])
    paulis_dag = paulis_psi.conj().swapaxes(1, 2)
    bra = amps.conj()
    means = np.real(np.einsum("x,lix->li", bra, paulis_psi))

    def objective(h_psi):
        mean = np.real(h_psi @ bra)
        return 4.0 * (np.real(np.einsum("rx,rx->r", h_psi.conj(), h_psi)) - mean**2)

    _, collective_dir = qfi_max(psi)
    raw = rng.standard_normal((restarts, n, 3))
    raw /= np.linalg.norm(raw, axis=2, keepdims=True)
    dirs = np.concatenate([np.tile(collective_dir, (1, n, 1)), raw])
    h_psi = np.einsum("rli,lix->rx", dirs, paulis_psi)
    value = objective(h_psi)
    live = np.arange(len(dirs))  # the restarts still climbing
    for _ in range(max_iters):
        d, h = dirs[live], h_psi[live]
        for l in range(n):
            b_psi = h - d[:, l] @ paulis_psi[l]
            b_mean = np.real(b_psi @ bra)
            c = np.real(b_psi @ paulis_dag[l]) - means[l] * b_mean[:, None]
            d[:, l] = _max_on_sphere(means[l], c, d[:, l])
            h = b_psi + d[:, l] @ paulis_psi[l]
        new_value = objective(h)
        done = new_value - value[live] < 1e-10
        value[live] = np.where(done, np.maximum(value[live], new_value), new_value)
        dirs[live], h_psi[live] = d, h
        live = live[~done]
        if live.size == 0:
            break
    best = int(np.argmax(value))  # the first of equal values
    return float(value[best]), dirs[best]
