"""Quantum and classical Fisher information for multiqubit phase estimation.

The central objects are the quantum Fisher information (QFI) of a state for
a Hermitian phase generator, the 3x3 matrix whose quadratic form gives the
QFI for every collective spin direction, and its two scalar summaries: the
best collective direction (largest eigenvalue) and the uniform average over
the Bloch sphere (trace / 3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    PAULIS,
    InvariantError,
    PureState,
    _as_batch,
    _block_eigvals,
    _check_psd,
    _generator_matrix,
    _hermitian_part,
    _pauli_power,
    _popcounts,
    _real_if_real,
    _state_matrix,
    _x_blocks,
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
# Largest estimated working set, in bytes, of one eigendecomposition, one
# mixed-state QFI kernel call or one x-basis POVM; each is checked only where
# it runs, and above it the call raises ValueError (CLI exit 2) instead of
# swapping. A full-rank state at the 12-qubit cap needs 1.1 GB for its
# eigendecomposition and 1.3 GB for the kernel.
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
        value, direction = _top_directions(self.matrix[None])
        return float(value[0]), direction[0]

    def average(self) -> float:
        """Uniform Bloch-sphere average of the quadratic form (trace / 3)."""
        return float(self.matrix.trace() / 3.0)


def _top_directions(mats: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Largest eigenvalue of each (B, 3, 3) symmetric matrix and its unit
    eigenvector, (B,) and (B, 3); each vector's largest-magnitude entry is
    made positive, so equal inputs give identical directions."""
    evals, evecs = np.linalg.eigh(mats)
    dirs = evecs[:, :, -1]
    pivot = np.take_along_axis(dirs, np.argmax(np.abs(dirs), axis=1)[:, None], axis=1)
    return evals[:, -1], np.where(pivot < 0, -dirs, dirs)


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


def _qfi_batch(states: np.ndarray, apply, num_ops: int) -> np.ndarray:
    """QFI matrices Gamma_ij of a (B, d) stack of amplitude vectors or a
    (B, d, d) stack of density matrices for ``num_ops`` generators G_i, shape
    (B, num_ops, num_ops); ``apply(x)`` returns the G_i x stacked as a real or
    complex (num_ops,) + x.shape array, with G_i acting on axis -2 of x.

    Only the support enters, as W = V_S sqrt(lam). A pure stack is its own
    support: W = psi and lam = 1, with no eigendecomposition. For a mixed
    stack, S holds the eigenvectors whose eigenvalue is above ``ZERO_CUT``
    times the trace in some member of the batch, and a member's other
    eigenvalues count as 0. The eigenpairs come from LAPACK's full d x d
    eigendecomposition (``_spin_gammas`` reads real X-form stacks from their
    blocks). The pair weight (lam_a - lam_b)^2 / (lam_a + lam_b)
    equals lam_a + lam_b - 4 lam_a lam_b / (lam_a + lam_b), so with
    m_i = W^dag G_i W the pair sum 2 sum_ab w_ab Re (G_i)_ab (G_j)_ba becomes
    Gamma_ij = 4 Re <G_i W|G_j W> - 8 sum_ab Re(m_i,ab conj(m_j,ab)) / (lam_a + lam_b),
    which for a pure state is 4 Re Cov(G_i, G_j). G acts on the d x r block W
    alone, and no d x d pair table is built. A float64 mixed stack is
    diagonalised in real arithmetic, so W is real and each m_i is one real
    product with G_i W, or with its (re, im) view where G_i W is complex.
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
        evals, vecs = np.linalg.eigh(states)
        kept = evals > ZERO_CUT * np.sum(evals, axis=-1, keepdims=True)
        first = evals.shape[1] - int(kept.sum(axis=-1).max())  # eigenvalues ascend, so S is a suffix
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
        m[i] = (w_dag @ gw[i].view(float)).view(gw.dtype) if real else w_dag @ gw[i]
    m *= scale
    gamma -= 8.0 * _real_gram(m)
    upper = np.triu_indices(num_ops, 1)
    gamma[:, upper[1], upper[0]] = gamma[:, upper[0], upper[1]]  # exactly symmetric
    return gamma


def qfi(state, generator) -> float:
    """Quantum Fisher information of a pure or mixed state for a Hermitian
    generator, from its support: the eigenpairs of a mixed state whose
    eigenvalues lie above ``ZERO_CUT`` times its trace (``_qfi_batch``)."""
    g = _generator_matrix(generator)
    batch = _as_batch(state)
    if g.shape != (batch.shape[1],) * 2:
        raise ValueError(f"dimension mismatch: state {batch.shape[1:]}, generator {g.shape}")
    return float(_qfi_batch(batch, lambda v: (g @ v)[None], 1)[0, 0, 0])


def _pair_weight(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a - b)^2 / (a + b), and 0 where a + b is."""
    return np.divide((a - b) ** 2, a + b, out=np.zeros(np.broadcast(a, b).shape), where=a + b > 0)


def _spin_gammas(batch: np.ndarray, num_qubits: int) -> np.ndarray:
    """Spin-QFI matrices of a (B, d) pure or (B, d, d) mixed stack, (B, 3, 3).

    A real X-form stack of N >= 3 qubits is read from its (B, d/2) blocks
    (``core._x_blocks``) in O(B N d), others go to ``_qfi_batch``. Block j has
    eigenvalues lam_-+ (cut as in ``_qfi_batch``), eigenvectors rotated by
    theta_j = atan2(2c, p-q) / 2, and J_z = m_j sigma_z, m_j = N/2 - popcount j.
    Flipping qubit l >= 1 maps block j onto j xor 2^(N-1-l), and qubit 0 onto
    j xor (d/2 - 1) in swapped order (s_l = -1, else 1); from N = 3 no two
    flips join the same blocks. With w(a, b) = (a - b)^2 / (a + b), L (U) the
    sum of w over like (unlike) eigenvalue pairs of j and its partner j', and
    C, S = cos, sin 2theta: Gamma_xx,yy = 1/4 sum_(l, j) [L + U + (L - U)
    (s_l C_j C_j' +- S_j S_j')], Gamma_zz = 4 sum_j m_j^2 S_j^2 w(lam_+, lam_-),
    and the rest is exactly 0 (real J_x and imaginary J_y elements).
    """
    batch = _real_if_real(batch) if batch.ndim == 3 else batch  # evaluate's stacks are not validated
    blocks = _x_blocks(batch) if batch.ndim == 3 and num_qubits >= 3 else None
    if blocks is None:
        return _qfi_batch(batch, lambda v: _apply_spins(v, num_qubits, axis=-2), 3)
    p, q, c = blocks
    h = p.shape[-1]
    lam = np.stack(_block_eigvals(p, q, c))  # (2, B, d/2): lower, upper
    lam[lam <= ZERO_CUT * lam.sum(axis=(0, 2), keepdims=True)] = 0.0
    two_theta = np.arctan2(2 * c, p - q)
    cos, sin = np.cos(two_theta), np.sin(two_theta)
    masks = np.array([h - 1] + [1 << (num_qubits - 1 - l) for l in range(1, num_qubits)])
    partner = np.arange(h) ^ masks[:, None]  # (N, d/2): block j' of each (l, j)
    w = _pair_weight(lam[:, None, :, partner], lam[None, :, :, None])  # (2, 2, B, N, d/2)
    like, unlike = w[0, 0] + w[1, 1], w[0, 1] + w[1, 0]
    u = np.where(masks == h - 1, -1.0, 1.0)[:, None] * cos[:, partner] * cos[:, None]  # s_l C_j C_j', l = 0 alone swaps
    v = sin[:, partner] * sin[:, None]
    both, diff = (like + unlike).sum(axis=(1, 2)), like - unlike
    m = (num_qubits - 2 * _popcounts(h)) / 2
    gamma = np.zeros((len(p), 3, 3))
    gamma[:, 0, 0] = (both + (diff * (u + v)).sum(axis=(1, 2))) / 4
    gamma[:, 1, 1] = (both + (diff * (u - v)).sum(axis=(1, 2))) / 4
    gamma[:, 2, 2] = 4 * np.sum(m**2 * sin**2 * _pair_weight(lam[1], lam[0]), axis=-1)
    return gamma


def qfi_matrix(state) -> SpinQfiMatrix:
    """3x3 collective-spin QFI matrix of a pure or mixed state."""
    return SpinQfiMatrix(_spin_gammas(_as_batch(state), state.num_qubits)[0], state.num_qubits)


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
    """Positive operator valued measurement: PSD elements summing to identity,
    each held as the exact Hermitian part of its input."""

    elements: tuple

    def __post_init__(self):
        given = tuple(self.elements)
        if not given:
            raise InvariantError("POVM needs at least one element")
        shape = np.shape(given[0])
        square = len(shape) == 2 and shape[0] == shape[1]
        elems = []
        for e in given:
            if not square or np.shape(e) != shape:
                raise InvariantError("POVM elements must share one square shape")
            h = _hermitian_part(e, "POVM element")  # a new array: frozen with no copy
            _check_psd(h, "POVM element is not positive semidefinite")
            h.setflags(write=False)
            elems.append(h)
        if not np.max(np.abs(sum(elems) - np.eye(shape[0]))) <= 1e-9:
            raise InvariantError("POVM elements do not sum to the identity")
        object.__setattr__(self, "elements", tuple(elems))

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
    g = _generator_matrix(generator)
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
    if not math.isfinite(theta):
        raise ValueError(f"theta must be finite, got {theta!r}")
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


def _max_on_sphere(a: np.ndarray, c: np.ndarray, current: np.ndarray) -> np.ndarray:
    """Row-wise argmax over unit n of -(n.a)^2 + 2 n.c (exact, via a secular
    equation) for (R, 3) stacks ``a``, ``c`` and ``current``; a (3,) ``a`` is
    shared by every row.

    A row with a = 0 goes along c, or keeps its current direction if c = 0
    too. Otherwise n = t a_hat + s p_hat, where p_hat is the unit part of c
    across a. When c is parallel to a, p_hat is any direction across a and t
    is the clipped vertex of the parabola in t. In general this is a
    trust-region subproblem with matrix -a a.T (More and Sorensen, SIAM J.
    Sci. Stat. Comput. 4, 553 (1983)): n = (mu I + a a.T)^-1 c for the unique
    mu > 0 with c_par^2 / (|a|^2 + mu)^2 + c_perp^2 / mu^2 = 1. Newton's
    method on the concave 1/|n(mu)| - 1 climbs to that root from mu = c_perp,
    left of it, until no row's step moves mu.
    """
    a = np.broadcast_to(a, c.shape)
    na = np.linalg.norm(a, axis=-1)
    out = np.empty(c.shape)
    rows = slice(None)
    flat = na < 1e-14
    if flat.any():
        nc = np.linalg.norm(c[flat], axis=-1, keepdims=True)
        moves = nc >= 1e-14
        out[flat] = np.where(moves, c[flat] / np.where(moves, nc, 1.0), current[flat])
        rows = ~flat
        a, c, na = a[rows], c[rows], na[rows]
        if not len(c):
            return out
    a_hat = a / na[:, None]
    c_par = np.einsum("ri,ri->r", c, a_hat)
    c_perp_vec = c - c_par[:, None] * a_hat
    # once more: where c_perp << |c| the first pass leaves a part along a_hat
    c_perp_vec -= np.einsum("ri,ri->r", c_perp_vec, a_hat)[:, None] * a_hat
    cp = np.linalg.norm(c_perp_vec, axis=-1)
    parallel = cp < 1e-14
    any_parallel = bool(parallel.any())
    if any_parallel:
        # across a: the basis vector a_hat leans on least, minus its part
        # along a; these rows take t from the parabola, not from mu
        along = a_hat[parallel]
        probe = np.eye(3)[np.argmin(np.abs(along), axis=-1)]
        probe -= np.einsum("ri,ri->r", probe, along)[:, None] * along
        c_perp_vec[parallel], cp[parallel] = probe, np.linalg.norm(probe, axis=-1)
    beta = na**2

    mu = cp.copy()  # |n(c_perp)| >= 1, so the root lies to the right
    for _ in range(100):
        t, s = c_par / (beta + mu), cp / mu  # n(mu) along a_hat and p_hat
        q = t * t + s * s
        # a step that rounding turns to the left is not taken
        moved = mu + np.maximum(0.0, (np.sqrt(q) - 1.0) * q / (t * t / (beta + mu) + s * s / mu))
        if np.array_equal(moved, mu):
            break
        mu = moved
    else:
        raise InvariantError("the sphere step's secular equation took over 100 Newton passes")
    norm = np.sqrt(q)
    t, s = t / norm, s / norm
    if any_parallel:
        t[parallel] = np.clip(c_par[parallel] / beta[parallel], -1.0, 1.0)
        s[parallel] = np.sqrt(np.maximum(0.0, 1.0 - t[parallel] ** 2))
    out[rows] = t[:, None] * a_hat + (s / cp)[:, None] * c_perp_vec
    return out


def _local_directions_batch(
    amps: np.ndarray, num_qubits: int, seeds, restarts: int = 10
) -> tuple[np.ndarray, np.ndarray]:
    """``optimize_local_directions`` for every member of a (B, d) stack of
    amplitude vectors, member b searching from ``default_rng(seeds[b])``;
    the best values, (B,), and their directions, (B, N, 3).

    Gamma_loc of the whole stack is one ``_qfi_batch`` call, and the sum of
    its 3 x 3 blocks, the spin-QFI matrix, gives restart 0's start. A pure
    state's block [l, l] is I - 4 a_l a_l.T, a_l = <sigma^(l)> / 2, so qubit
    l's step maximizes -(n_l.a_l)^2 + 2 n_l.c_l, c_l = sum_{m != l}
    Gamma_loc[l, m] n_m / 4. All restarts advance in lock step, each on its
    state's Gamma_loc: a qubit update is the same numpy calls for any B and
    reads no array of length d.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    n = num_qubits
    size, per_state = len(amps), restarts + 1
    half_paulis = 0.5 * np.stack([PAULIS[ax] for ax in "xyz"])
    qubits = (amps.reshape(size, 2**l, 2, -1) for l in range(n))  # the qubits before l, qubit l, those after it
    means = np.stack([np.einsum("xhak,iab,xhbk->xi", q.conj(), half_paulis, q).real for q in qubits], axis=1)

    def apply(x):  # the sigma_i^(l) x / 2 of a (B, d, r) stack, as (3N, B, d, r)
        parts = (np.einsum("iab,xhbk->ixhak", half_paulis, x.reshape(size, 2**l, 2, -1)) for l in range(n))
        return np.concatenate([part.reshape((3,) + x.shape) for part in parts])

    gamma = _qfi_batch(amps, apply, 3 * n).reshape(size, n, 3, n, 3)
    coupling = (0.25 * gamma * (1.0 - np.eye(n))[:, None, :, None]).reshape(size, n, 3, 3 * n)
    _, collective_dirs = _top_directions(gamma.sum(axis=(1, 3)))
    gamma = gamma.reshape(size, 3 * n, 3 * n)
    owner = np.repeat(np.arange(size), per_state)  # the state of each restart
    dirs = np.empty((size, per_state, n, 3))
    dirs[:, 0] = collective_dirs[:, None]
    for b, seed in enumerate(seeds):
        raw = np.random.default_rng(seed).standard_normal((restarts, n, 3))
        dirs[b, 1:] = raw / np.linalg.norm(raw, axis=2, keepdims=True)
    dirs = dirs.reshape(size * per_state, n, 3)
    flat = dirs.reshape(len(dirs), -1)
    value = np.einsum("rx,rxy,ry->r", flat, gamma[owner], flat)
    live = np.arange(len(dirs))  # the restarts still climbing
    for _ in range(100):
        d, mine = dirs[live], owner[live]
        flat = d.reshape(len(d), -1)  # a view, which follows every update of d
        k, a = coupling[mine], means[mine]
        for l in range(n):
            d[:, l] = _max_on_sphere(a[:, l], np.einsum("rix,rx->ri", k[:, l], flat), d[:, l])
        new_value = np.einsum("rx,rxy,ry->r", flat, gamma[mine], flat)
        done = new_value - value[live] < 1e-10
        value[live] = np.where(done, np.maximum(value[live], new_value), new_value)
        dirs[live] = d
        live = live[~done]
        if live.size == 0:
            break
    best = np.argmax(value.reshape(size, per_state), axis=1)  # the first of equal values
    picked = np.arange(size) * per_state + best
    return value[picked], dirs[picked]


def optimize_local_directions(psi: PureState, restarts: int = 10, seed=None) -> tuple[float, np.ndarray]:
    """Maximize the QFI n.T Gamma_loc n of a one-direction-per-qubit
    generator (1/2) sum_l n_l . sigma^(l) over the directions n_l, where
    Gamma_loc is the 3N x 3N QFI matrix of the half-Paulis sigma_i^(l) / 2.

    Coordinate ascent: with every other qubit fixed, the form restricted to
    one direction is a sphere-constrained quadratic that is maximized
    exactly, so the value never decreases. Restart 0 starts from the best
    collective direction, which guarantees the result is at least the
    collective optimum; ``restarts`` more start from random directions,
    drawn from ``default_rng(seed)`` as one (restarts, N, 3) normal array
    (the numbers of that many (N, 3) draws in turn). A restart whose sweep
    gains less than 1e-10, or that has run 100 sweeps, stops and is left
    out of later sweeps. The first restart with the largest value wins.

    This is the one-state case of ``_local_directions_batch``, which
    ``table2 --mode local`` runs on the states of a whole chunk at once.
    """
    if not isinstance(psi, PureState):
        raise TypeError("local-direction optimization needs a pure state")
    values, dirs = _local_directions_batch(psi.amplitudes[None], psi.num_qubits, [seed], restarts)
    return float(values[0]), dirs[0]
