"""Constructors and samplers for the state families used across the package.

The CLI-addressable names are ``ghz:N``, ``dicke:N:k``, ``duer:N``,
``smolin:n``, ``psi_s4:+|-``, ``ghzdiag:file.json``, ``plus:N`` and
``ones:N``; ``parse_state_spec`` turns any of them (or a path to a state
JSON file) into a state object.
"""

from __future__ import annotations

import itertools
import json
import math
import os
from dataclasses import dataclass

import numpy as np

from .core import DensityMatrix, InvariantError, PureState, load_state
from .core import _check_num_qubits, _pauli_power, _raise_first

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
_BLOCK = 256  # streams per lock-step rejection block


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
        _check_x_form(np.array(lam), np.array(mus))
        object.__setattr__(self, "lambdas", lam)
        object.__setattr__(self, "mus", mus)


def _x_form_sum(lam: np.ndarray) -> np.ndarray:
    """Sum of (..., 8) weights added left to right, as ``sum`` adds a tuple
    (``ndarray.sum`` adds pairwise and can differ in the last bit)."""
    total = lam[..., 0].copy()
    for j in range(1, 8):
        total += lam[..., j]
    return total


def _check_x_form(lam: np.ndarray, mus: np.ndarray) -> None:
    """Check (..., 8) weights and (..., 4) coherences: weights non-negative and
    not all zero, every block [[lam_j, mu_j], [mu_j, lam_{7-j}]] PSD within 1e-12."""
    _raise_first(np.min(lam, axis=-1) < 0, "diagonal weights must be non-negative")
    _raise_first(_x_form_sum(lam) <= 0, "diagonal weights must not all vanish")
    mu_sq = mus**2
    det = lam[..., :4] * lam[..., :3:-1]
    bad = mu_sq > det + 1e-12
    block = np.argmax(bad, axis=-1)[..., None]  # first failing block of each sample
    _raise_first(
        np.any(bad, axis=-1),
        "block {} violates positivity: mu^2 = {!r} > {!r}",
        block[..., 0] + 1,
        np.take_along_axis(mu_sq, block, -1)[..., 0],
        np.take_along_axis(det, block, -1)[..., 0],
    )


def _x_form_matrices(lam: np.ndarray, mus: np.ndarray) -> np.ndarray:
    """(..., 8, 8) X-form matrices from (..., 8) weights and (..., 4)
    coherences, divided by the sum of the weights."""
    mats = np.zeros(lam.shape[:-1] + (8, 8), dtype=complex)
    j = np.arange(8)
    mats[..., j, j] = lam
    mats[..., j[:4], j[:3:-1]] = mus
    mats[..., j[:3:-1], j[:4]] = mus
    return mats / _x_form_sum(lam)[..., None, None]


def ghz_diagonal(lambdas, mus=None) -> DensityMatrix:
    """Normalized 3-qubit density matrix from X-form weights."""
    params = lambdas if isinstance(lambdas, GhzDiagonalParams) else GhzDiagonalParams(
        tuple(lambdas), tuple(mus) if mus is not None else (0.0, 0.0, 0.0, 0.0)
    )
    return DensityMatrix(3, _x_form_matrices(np.array(params.lambdas), np.array(params.mus)))


def _bound_entangled_weights(l: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """X-form weights (..., 8) and coherences (..., 4) of the PPT family
    from its (..., 3) block weights (l2, l3, l4)."""
    one = np.ones(l.shape[:-1] + (1,))
    lam = np.concatenate((one, l, 1.0 / l[..., ::-1], one), axis=-1)
    mus = np.concatenate((one, np.zeros(l.shape[:-1] + (3,))), axis=-1)
    return lam, mus


def bound_entangled_ghz_diagonal(l2: float, l3: float, l4: float) -> DensityMatrix:
    """Three-qubit X-form state that stays PPT across every single-qubit cut.

    Entangled whenever l2 * l3 != l4; normalization is 2 + sum(l + 1/l).
    """
    if min(l2, l3, l4) <= 0:
        raise ValueError("block weights must be positive")
    lam, mus = _bound_entangled_weights(np.array([l2, l3, l4], dtype=float))
    return ghz_diagonal(GhzDiagonalParams(tuple(lam), tuple(mus)))


def duer_state(num_qubits: int, phi: float = 0.0) -> DensityMatrix:
    """Bound entangled mixture of a GHZ projector and single-flip projectors."""
    if num_qubits < 3:
        raise ValueError("this family needs at least 3 qubits")
    n = num_qubits
    d = _check_num_qubits(n)
    # real at phi = 0, so it is built and checked as a float matrix
    mat = np.zeros((d, d), dtype=complex if phi else float)
    mat[0, 0] = mat[d - 1, d - 1] = 0.5
    mat[0, d - 1] = 0.5 * np.exp(-1j * phi) if phi else 0.5
    mat[d - 1, 0] = 0.5 * np.exp(1j * phi) if phi else 0.5
    for l in range(n):
        single = 1 << (n - 1 - l)
        mat[single, single] += 0.5
        flipped = (d - 1) ^ single
        mat[flipped, flipped] += 0.5
    mat /= n + 1  # in place, so no unscaled copy is held while it is validated
    return DensityMatrix(n, mat)


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


def _random_pure_batch(rngs) -> np.ndarray:
    """(B, 8) Haar-random 3-qubit amplitudes, row k drawn from the k-th
    generator of the iterable ``rngs``, by inverse-CDF spherical coordinates.
    The stack is not validated; its caller does that once.

    The hyperspherical angles have distribution function sin(alpha_i)^(2i),
    so alpha_i = arcsin(u^(1/(2i))) with u uniform; the phases are 2 pi u.
    Each stream gives one ``random(14)``: 7 u's, then 7 for the phases (the
    numbers of ``random(7)`` and ``uniform(0, 2 pi, 7)`` in turn).
    """
    draws = np.fromiter((rng.random(14) for rng in rngs), dtype=np.dtype((float, 14)))
    u, phis = draws[:, :7], 2.0 * np.pi * draws[:, 7:]
    alphas = np.arcsin(u ** (1.0 / (2.0 * np.arange(1, 8))))
    sines = np.sin(alphas)
    cosines = np.cos(alphas)
    amps = np.empty((len(u), 8), dtype=complex)
    amps[:, 0] = cosines[:, 6]
    # component k carries cos(alpha_{7-k}) times sin(alpha_{8-k})...sin(alpha_7)
    tails = np.cumprod(sines[:, ::-1], axis=1)
    cos_factors = np.concatenate((cosines[:, 5::-1], np.ones((len(u), 1))), axis=1)
    amps[:, 1:] = cos_factors * tails * np.exp(1j * phis[:, ::-1])
    return amps


def random_pure_3qubit(rng: np.random.Generator) -> PureState:
    """Haar-random 3-qubit pure state (see ``_random_pure_batch``)."""
    return PureState(3, _random_pure_batch([rng])[0])


def _antidiagonal_violating(rngs, full: bool) -> np.ndarray:
    """(B, 8) rows (lam | mu) of X-form pair weights and signed coherences
    that violate the first (or, with ``full``, any) antidiagonal condition,
    row k from the k-th generator of the iterable ``rngs``.

    The rejection rounds run in lock step: each round draws 64 candidates
    from every stream without a hit, as one ``random`` call of 512 numbers
    (the 256 weights, then the 256 u's of the coherences), tests them all at
    once, and the streams that hit keep their first hit and drop out. Streams
    are taken in blocks of ``_BLOCK``, which bounds the working set and the
    number of generators alive at once.
    """
    rngs = iter(rngs)
    kept = []
    while block := list(itertools.islice(rngs, _BLOCK)):
        out = np.empty((len(block), 8))
        draws = np.empty((len(block), 2, 64, 4))
        active = np.arange(len(block))
        for _ in range(REJECTION_BUDGET // 64 + 1):
            if not active.size:
                break
            for k, i in enumerate(active.tolist()):
                block[i].random(out=draws[k])
            lam, u = draws[: active.size, 0], draws[: active.size, 1]
            # added left to right, as lam.sum(axis=-1) adds four terms
            totals = lam[..., 0] + lam[..., 1] + lam[..., 2] + lam[..., 3]
            if full:
                rhs = totals[..., None] - lam  # sum of the other three pair weights
                viol = np.abs((2.0 * u - 1.0) * lam) > rhs + 1e-12 * (2.0 * totals[..., None])
                hits = viol.any(axis=-1)
            else:
                hits = np.abs((2.0 * u[..., 0] - 1.0) * lam[..., 0]) > totals - lam[..., 0] + 1e-12 * (2.0 * totals)
            found = hits.any(axis=1)
            first = hits.argmax(axis=1)[found]
            lam, u = lam[found, first], u[found, first]
            out[active[found]] = np.concatenate((lam, (2.0 * u - 1.0) * lam), axis=-1)
            active = active[~found]
        if active.size:
            raise RuntimeError(f"rejection budget of {REJECTION_BUDGET} draws exhausted")
        kept.append(out)
    return np.concatenate(kept)


def _ppt_family_draws(rngs) -> np.ndarray:
    """(B, 3) block weights (l2, l3, l4) uniform on (0.1, 10), off the
    near-separable boundary |l2*l3 - l4| < 1e-3, row k from the k-th
    generator of the iterable ``rngs``: one ``random(3)`` per stream and
    attempt, where only the streams whose last draw was rejected draw again."""
    rngs = iter(rngs)
    kept = []
    while block := list(itertools.islice(rngs, _BLOCK)):
        out = np.empty((len(block), 3))
        active = np.arange(len(block))
        for _ in range(REJECTION_BUDGET):
            for i in active.tolist():
                block[i].random(out=out[i])
            l = out[active] = 0.1 + 9.9 * out[active]
            active = active[np.abs(l[:, 0] * l[:, 1] - l[:, 2]) < 1e-3]
            if not active.size:
                break
        else:
            raise RuntimeError(f"rejection budget of {REJECTION_BUDGET} draws exhausted")
        kept.append(out)
    return np.concatenate(kept)


def _random_ghz_diagonal_batch(rngs, mode: str) -> np.ndarray:
    """(B, 8, 8) X-form matrices with checked weights, matrix k drawn from the
    k-th generator of the iterable ``rngs`` (modes as in ``random_ghz_diagonal``).
    The stack is not validated as density matrices; its caller does that once."""
    if mode in ("dme_violating", "full_family"):
        kept = _antidiagonal_violating(rngs, full=mode == "full_family")
        lam = np.concatenate((kept[:, :4], kept[:, 3::-1]), axis=1)
        mus = kept[:, 4:]
    elif mode == "bound_entangled":
        lam, mus = _bound_entangled_weights(_ppt_family_draws(rngs))
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    _check_x_form(lam, mus)
    return _x_form_matrices(lam, mus)


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

    Each round of ``dme_violating`` and ``full_family`` draws 64 candidates.
    """
    return DensityMatrix(3, _random_ghz_diagonal_batch([rng], mode)[0])


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
