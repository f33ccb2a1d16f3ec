"""Constructors and samplers for the state families used across the package.

The CLI-addressable names are ``ghz:N``, ``dicke:N:k``, ``duer:N``,
``smolin:n``, ``psi_s4:+|-``, ``ghzdiag:file.json``, ``plus:N`` and
``ones:N``; ``parse_state_spec`` turns any of them (or a path to a state
JSON file) into a state object.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, InvariantError, PureState, load_state
from .core import _check_num_qubits, _pauli_power

__all__ = [
    "ghz",
    "dicke",
    "plus_state",
    "ones_state",
    "psi_s4",
    "GhzDiagonalParams",
    "ghz_diagonal",
    "bound_entangled_ghz_diagonal",
    "duer_state",
    "smolin_state",
    "ghz_basis_state",
    "random_pure_3qubit",
    "random_ghz_diagonal",
    "parse_state_spec",
]

REJECTION_BUDGET = 10_000


def ghz(num_qubits: int, phi: float = 0.0) -> PureState:
    """(|0...0> + e^{i phi} |1...1>) / sqrt(2)."""
    d = _check_num_qubits(num_qubits)
    amps = np.zeros(d, dtype=complex)
    amps[0] = 1.0 / np.sqrt(2.0)
    amps[d - 1] = np.exp(1j * phi) / np.sqrt(2.0)
    return PureState(num_qubits, amps)


def dicke(num_qubits: int, excitations: int) -> PureState:
    """Symmetric state with equal weight on all basis states of fixed excitation number."""
    d = _check_num_qubits(num_qubits)
    if not 0 <= excitations <= num_qubits:
        raise ValueError(f"excitation count must lie in 0..{num_qubits}, got {excitations}")
    weights = np.bitwise_count(np.arange(d, dtype=np.uint64)).astype(int)
    amps = np.where(weights == excitations, 1.0, 0.0).astype(complex)
    amps /= np.sqrt(math.comb(num_qubits, excitations))
    return PureState(num_qubits, amps)


def plus_state(num_qubits: int) -> PureState:
    """|+>^tensor(N), equal superposition of every basis state."""
    d = _check_num_qubits(num_qubits)
    return PureState(num_qubits, np.full(d, 1.0 / np.sqrt(d), dtype=complex))


def ones_state(num_qubits: int) -> PureState:
    """|1>^tensor(N)."""
    d = _check_num_qubits(num_qubits)
    amps = np.zeros(d, dtype=complex)
    amps[d - 1] = 1.0
    return PureState(num_qubits, amps)


def psi_s4(sign: str = "+") -> PureState:
    """4-qubit symmetric state whose spin-QFI matrix is isotropic (8 * identity).

    In the spin-(N/2) labeling |j=2, m> with m = 2 - excitations, the "+"
    branch is sqrt(1/3)|2,+2> + sqrt(2/3)|2,-1> and "-" swaps the signs of m.
    """
    if sign not in ("+", "-"):
        raise ValueError(f"sign must be '+' or '-', got {sign!r}")
    if sign == "+":
        parts = (dicke(4, 0), dicke(4, 3))  # m = +2 and m = -1
    else:
        parts = (dicke(4, 4), dicke(4, 1))  # m = -2 and m = +1
    amps = np.sqrt(1.0 / 3.0) * parts[0].amplitudes + np.sqrt(2.0 / 3.0) * parts[1].amplitudes
    return PureState(4, amps)


@dataclass(frozen=True)
class GhzDiagonalParams:
    """Diagonal weights and antidiagonal coherences of a 3-qubit X-form matrix.

    ``lambdas[j]`` is the (j+1)-th diagonal entry and ``mus[j]`` couples basis
    state j with its bit complement 7-j, for j = 0..3. Each 2x2 block
    [[lam_j, mu_j], [mu_j, lam_{7-j}]] must be positive semidefinite.
    """

    lambdas: tuple
    mus: tuple

    def __post_init__(self):
        lam = tuple(float(x) for x in self.lambdas)
        mus = tuple(float(x) for x in self.mus)
        if len(lam) != 8 or len(mus) != 4:
            raise ValueError("need 8 diagonal weights and 4 coherences")
        if min(lam) < 0:
            raise InvariantError("diagonal weights must be non-negative")
        if sum(lam) <= 0:
            raise InvariantError("diagonal weights must not all vanish")
        for j in range(4):
            if mus[j] ** 2 > lam[j] * lam[7 - j] + 1e-12:
                raise InvariantError(
                    f"block {j + 1} violates positivity: mu^2 = {mus[j] ** 2!r} "
                    f"> {lam[j] * lam[7 - j]!r}"
                )
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "mus", mus)

    @property
    def normalization(self) -> float:
        return sum(self.lambdas)


def ghz_diagonal(lambdas, mus=None) -> DensityMatrix:
    """Normalized 3-qubit density matrix from X-form weights."""
    params = lambdas if isinstance(lambdas, GhzDiagonalParams) else GhzDiagonalParams(
        tuple(lambdas), tuple(mus) if mus is not None else (0.0, 0.0, 0.0, 0.0)
    )
    mat = np.zeros((8, 8), dtype=complex)
    for j in range(8):
        mat[j, j] = params.lambdas[j]
    for j in range(4):
        mat[j, 7 - j] = params.mus[j]
        mat[7 - j, j] = params.mus[j]
    return DensityMatrix(3, mat / params.normalization)


def bound_entangled_ghz_diagonal(l2: float, l3: float, l4: float) -> DensityMatrix:
    """Three-qubit X-form state that stays PPT across every single-qubit cut.

    Entangled whenever l2 * l3 != l4; normalization is 2 + sum(l + 1/l).
    """
    if min(l2, l3, l4) <= 0:
        raise ValueError("block weights must be positive")
    lambdas = (1.0, l2, l3, l4, 1.0 / l4, 1.0 / l3, 1.0 / l2, 1.0)
    mus = (1.0, 0.0, 0.0, 0.0)
    return ghz_diagonal(GhzDiagonalParams(lambdas, mus))


def duer_state(num_qubits: int, phi: float = 0.0) -> DensityMatrix:
    """Bound entangled mixture of a GHZ projector and single-flip projectors."""
    if num_qubits < 3:
        raise ValueError("this family needs at least 3 qubits")
    n = num_qubits
    d = _check_num_qubits(n)
    mat = np.zeros((d, d), dtype=complex)
    mat[0, 0] = mat[d - 1, d - 1] = 0.5
    mat[0, d - 1] = 0.5 * np.exp(-1j * phi)
    mat[d - 1, 0] = 0.5 * np.exp(1j * phi)
    for l in range(n):
        single = 1 << (n - 1 - l)
        mat[single, single] += 0.5
        flipped = (d - 1) ^ single
        mat[flipped, flipped] += 0.5
    return DensityMatrix(n, mat / (n + 1))


def smolin_state(pairs: int) -> DensityMatrix:
    """Generalized Smolin state on N = 2 * pairs qubits.

    rho = (I + (-1)^pairs * (X^N + Y^N + Z^N)) / 2^N with X^N etc. the
    N-fold Pauli tensor powers.
    """
    if pairs < 2:
        raise ValueError("need at least 2 pairs of qubits")
    n = 2 * pairs
    d = _check_num_qubits(n)
    mat = np.eye(d, dtype=complex)
    sign = (-1) ** pairs
    for ax in "xyz":
        mat += sign * _pauli_power(n, ax)
    return DensityMatrix(n, mat / d)


def ghz_basis_state(bits, phi: float = 0.0) -> PureState:
    """(|b> + e^{i phi} |complement of b>) / sqrt(2) for a bit string b."""
    bits = [int(b) for b in bits]
    if any(b not in (0, 1) for b in bits):
        raise ValueError("bits must be 0 or 1")
    n = len(bits)
    d = _check_num_qubits(n)
    idx = 0
    for b in bits:
        idx = (idx << 1) | b
    amps = np.zeros(d, dtype=complex)
    amps[idx] += 1.0 / np.sqrt(2.0)
    amps[(d - 1) ^ idx] += np.exp(1j * phi) / np.sqrt(2.0)
    return PureState(n, amps)


def random_pure_3qubit(rng: np.random.Generator) -> PureState:
    """Haar-random 3-qubit pure state via inverse-CDF spherical coordinates.

    The hyperspherical angles have distribution function sin(alpha_i)^(2i),
    so alpha_i = arcsin(u^(1/(2i))) with u uniform; the phases are uniform.
    """
    u = rng.random(7)
    alphas = np.arcsin(u ** (1.0 / (2.0 * np.arange(1, 8))))
    phis = rng.uniform(0.0, 2.0 * np.pi, 7)
    sines = np.sin(alphas)
    cosines = np.cos(alphas)
    amps = np.empty(8, dtype=complex)
    amps[0] = cosines[6]
    # component k carries cos(alpha_{7-k}) times sin(alpha_{8-k})...sin(alpha_7)
    tails = np.cumprod(sines[::-1])
    cos_factors = np.append(cosines[5::-1], 1.0)
    amps[1:] = cos_factors * tails * np.exp(1j * phis[::-1])
    return PureState(3, amps)


def _x_form_violations(lambdas, mus) -> list[bool]:
    """Which of the four antidiagonal conditions the un-normalized weights break."""
    norm = sum(lambdas)
    out = []
    for k in range(4):
        rhs = sum(
            math.sqrt(max(0.0, lambdas[j] * lambdas[7 - j])) for j in range(4) if j != k
        )
        out.append(abs(mus[k]) > rhs + 1e-12 * norm)
    return out


def random_ghz_diagonal(rng: np.random.Generator, mode: str) -> DensityMatrix:
    """Rejection sampler over 3-qubit X-form states.

    ``dme_violating``
        symmetric diagonal pairs with uniform weights and signed coherences,
        kept only when the first antidiagonal condition is violated (the
        rejection concentrates the family around GHZ-like corner states);
    ``full_family``
        same base distribution, kept when at least one of the four
        antidiagonal conditions is violated;
    ``bound_entangled``
        PPT family with block weights uniform on (0.1, 10), rejecting the
        near-separable boundary |l2*l3 - l4| < 1e-3.
    """
    if mode in ("dme_violating", "full_family"):
        batch = 64
        for _ in range(REJECTION_BUDGET // batch + 1):
            lam = rng.random((batch, 4))
            mus = (2.0 * rng.random((batch, 4)) - 1.0) * lam
            totals = lam.sum(axis=1)
            rhs = totals[:, None] - lam  # sum of the other three pair weights
            viol = np.abs(mus) > rhs + 1e-12 * (2.0 * totals[:, None])
            hits = viol.any(axis=1) if mode == "full_family" else viol[:, 0]
            idx = int(np.argmax(hits))
            if hits[idx]:
                l, m = lam[idx], mus[idx]
                lambdas = (*l, l[3], l[2], l[1], l[0])
                return ghz_diagonal(GhzDiagonalParams(lambdas, tuple(m)))
        raise RuntimeError(f"rejection budget of {REJECTION_BUDGET} draws exhausted")
    if mode == "bound_entangled":
        for _ in range(REJECTION_BUDGET):
            l2, l3, l4 = 0.1 + 9.9 * rng.random(3)
            if abs(l2 * l3 - l4) >= 1e-3:
                return bound_entangled_ghz_diagonal(l2, l3, l4)
        raise RuntimeError(f"rejection budget of {REJECTION_BUDGET} draws exhausted")
    raise ValueError(f"unknown sampling mode {mode!r}")


def _load_ghz_diagonal_file(path: str) -> DensityMatrix:
    with open(path) as fh:
        data = json.load(fh)
    try:
        return ghz_diagonal(GhzDiagonalParams(tuple(data["lambdas"]), tuple(data["mus"])))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed X-form parameter file {path}: {exc}") from exc


def parse_state_spec(spec: str):
    """Resolve a CLI state name or JSON path to a state object."""
    if spec.endswith(".json") and os.path.exists(spec):
        return load_state(spec)
    head, _, rest = spec.partition(":")
    try:
        if head == "ghz":
            return ghz(int(rest))
        if head == "dicke":
            n, k = rest.split(":")
            return dicke(int(n), int(k))
        if head == "duer":
            return duer_state(int(rest))
        if head == "smolin":
            return smolin_state(int(rest))
        if head == "psi_s4":
            return psi_s4(rest)
        if head == "plus":
            return plus_state(int(rest))
        if head == "ones":
            return ones_state(int(rest))
        if head == "ghzdiag":
            return _load_ghz_diagonal_file(rest)
    except InvariantError:
        raise
    except (ValueError, TypeError) as exc:
        raise ValueError(f"bad state spec {spec!r}: {exc}") from exc
    raise ValueError(
        f"unknown state spec {spec!r}; expected ghz:N, dicke:N:k, duer:N, smolin:n, "
        "psi_s4:+|-, ghzdiag:file.json, plus:N, ones:N or a state JSON path"
    )
