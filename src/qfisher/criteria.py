"""Entanglement classification from Fisher-information bounds and matrix tests.

A state of N qubits is k-producible when it mixes pure products whose
factors hold at most k qubits each. Both the optimal-direction QFI and the
direction-averaged QFI obey closed-form ceilings over the k-producible set,
so exceeding a ceiling certifies (k+1)-particle entanglement. The module
also carries the three-qubit antidiagonal matrix-element test, a GHZ
fidelity witness, and the machinery for white-noise robustness thresholds.
``evaluate`` decides them all for a stack of states at once.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    PAULI_X,
    PAULI_Y,
    PAULI_Z,
    InvariantError,
    PureState,
    _as_batch,
    _block_partial_transpose,
    _smallest_eigvals,
    _x_matrix,
    is_ppt,
)
from . import fisher, zoo
from .fisher import qfi_matrix, optimize_local_directions

__all__ = [
    "STRICT_MARGIN",
    "qfi_bound",
    "avg_qfi_bound",
    "entanglement_depth",
    "evaluate",
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


def entanglement_depth(value: float, num_qubits: int, which: str = "qfi") -> int:
    """Smallest producibility class whose bound the value does not exceed.

    A return of d proves d-particle entanglement; 1 means the value is
    compatible with fully separable states.
    """
    if not 0 <= value < np.inf:  # NaN fails too
        raise ValueError(f"Fisher information must be finite and non-negative, got {value}")
    bound = {"qfi": qfi_bound, "avg": avg_qfi_bound}.get(which)
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


_OTHER_PAIRS = np.array([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])


def _criterion(name: str, num_qubits: int) -> tuple[str, float | None]:
    """The shared quantity a criterion name is decided from, and its bound."""
    quantity, _, k = name.rpartition("_")
    if quantity in ("fq", "fq_avg") and k.isdecimal():
        if not 2 <= int(k) <= num_qubits:
            raise ValueError(f"criterion {name!r} needs k in 2..{num_qubits}")
        bound = qfi_bound if quantity == "fq" else avg_qfi_bound
        return quantity, bound(num_qubits, int(k) - 1)
    if name not in ("dme", "dme_family", "witness", "ppt_all_cuts"):
        raise ValueError(f"unknown criterion {name!r}")
    return ("dme" if name.startswith("dme") else name), None


def _margin(name: str, num_qubits: int, values: np.ndarray) -> np.ndarray:
    """Signed margins of a criterion decided by one number per state, > 0
    exactly where it detects: ``fq_k`` and ``fq_avg_k`` values above their
    bound, ``witness`` values below zero, each by more than ``STRICT_MARGIN``.
    Against a finite threshold t, x - t > 0 holds exactly when x > t."""
    quantity, bound = _criterion(name, num_qubits)
    if quantity == "witness":
        return -STRICT_MARGIN - values
    return values - (bound + STRICT_MARGIN)


def _antidiagonal(batch) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Both sides of the four antidiagonal conditions of a 3-qubit stack, or
    of the (B, 4) blocks (p, q, c) of a real X-form one, and their signed
    margins, each (B, 4); a margin above 0 is a violation.

    For pair j (0-based), lhs = |rho[j, 7-j]| and rhs sums
    sqrt(rho[i, i] rho[7-i, 7-i]) over the other pairs i. For a pure stack
    both reduce to the products |psi_j| |psi_{7-j}|.
    """
    if (batch[0].shape[1:] != (4,)) if isinstance(batch, tuple) else batch.shape[1:] not in ((8,), (8, 8)):
        raise ValueError("the antidiagonal test is defined for exactly 3 qubits")
    if isinstance(batch, tuple):
        p, q, c = batch
        lhs, terms = np.abs(c), np.sqrt(np.maximum(0.0, p) * np.maximum(0.0, q))
    elif batch.ndim == 2:
        mags = np.abs(batch)
        lhs = terms = mags[:, :4] * mags[:, 7:3:-1]
    else:
        lhs = np.abs(batch[:, np.arange(4), np.arange(7, 3, -1)])
        diag = np.maximum(0.0, np.real(np.diagonal(batch, axis1=1, axis2=2)))
        terms = np.sqrt(diag[:, :4] * diag[:, 7:3:-1])
    rhs = terms[:, _OTHER_PAIRS].sum(axis=2)
    return lhs, rhs, lhs - (rhs + 1e-12)  # the test's own margin, on matrix elements


def _ghz_fidelity(batch, num_qubits: int) -> np.ndarray:
    """<GHZ|rho|GHZ> of every member of a pure or mixed stack, or of the
    blocks (p, q, c) of a real X-form one, shape (B,)."""
    target = zoo.ghz(num_qubits).amplitudes
    if not isinstance(batch, tuple) and batch.ndim == 2:
        return np.abs(batch @ target.conj()) ** 2
    # GHZ lives on the first and last basis states; no other entry of rho enters
    ends = [0, target.size - 1]  # the pair of X-form block 0
    corner = _x_matrix(*(b[:, :1] for b in batch)) if isinstance(batch, tuple) else batch[:, ends][:, :, ends]
    return np.real(np.einsum("g,bgh,h->b", target[ends].conj(), corner, target[ends]))


def _margins(batch, num_qubits: int, names) -> dict[str, np.ndarray]:
    """Signed margins of the named criteria decided by one number, for every
    member of a (B, d) or (B, d, d) stack, or of the (B, d/2) blocks
    (p, q, c) of a real X-form one, assumed valid; one (B,) float array per
    name, > 0 exactly where ``evaluate`` flags the member:

    - ``fq_k`` / ``fq_avg_k``: the value less its bound plus
      ``STRICT_MARGIN``; ``witness``: -``STRICT_MARGIN`` less the value;
    - ``dme`` / ``dme_family``: lhs less rhs plus 1e-12, of pair 1 / the
      largest over the four pairs.

    ``ppt_all_cuts`` is a flag with no margin and raises ``ValueError``.
    """
    d = 2**num_qubits
    if not isinstance(batch, tuple) and (batch.ndim not in (2, 3) or batch.shape[1:] != (d,) * (batch.ndim - 1)):
        raise ValueError(f"expected a (B, {d}) or (B, {d}, {d}) stack, got shape {batch.shape}")
    quantities = {name: _criterion(name, num_qubits)[0] for name in names}
    needed = set(quantities.values())
    if "ppt_all_cuts" in needed:
        raise ValueError("ppt_all_cuts is decided by a matrix test, not by a margin")
    values, margins = {}, {}  # values go through _margin, margins are final
    if needed & {"fq", "fq_avg"}:
        gammas = fisher._spin_gammas(batch, num_qubits)
        if "fq" in needed:
            values["fq"] = np.linalg.eigvalsh(gammas)[:, -1]
        if "fq_avg" in needed:
            values["fq_avg"] = np.trace(gammas, axis1=1, axis2=2) / 3.0
    if "dme" in needed:
        pairs = _antidiagonal(batch)[2]
        # fmax skips a NaN pair, as any() of the pairs' flags does
        margins["dme"], margins["dme_family"] = pairs[:, 0], np.fmax.reduce(pairs, axis=1)
    if "witness" in needed:
        values["witness"] = 0.5 - _ghz_fidelity(batch, num_qubits)
    return {
        name: margins[name] if name in margins else _margin(name, num_qubits, values[quantity])
        for name, quantity in quantities.items()
    }


def evaluate(batch, num_qubits: int, names) -> dict[str, np.ndarray]:
    """Decide the named criteria for every member of a (B, d) stack of
    amplitude vectors or a (B, d, d) stack of density matrices, assumed
    valid; one (B,) bool array per name:

    - ``fq_k`` / ``fq_avg_k``: the largest eigenvalue / trace / 3 of the
      spin-QFI matrix Gamma exceeds ``qfi_bound`` / ``avg_qfi_bound`` of
      class k - 1 by more than ``STRICT_MARGIN`` (k-particle entanglement);
    - ``dme`` / ``dme_family``: antidiagonal pair 1 / any of the four pairs
      violated by more than 1e-12 (3 qubits);
    - ``witness``: 1/2 - <GHZ|rho|GHZ> below -``STRICT_MARGIN``;
    - ``ppt_all_cuts``: PPT across every single-qubit cut.

    All but ``ppt_all_cuts`` are their ``_margins`` above 0. Each shared
    quantity (Gamma, antidiagonal terms, fidelity, partial transposes) is
    computed at most once, and only if a name needs it. Any other name
    raises ``ValueError``.
    """
    return _evaluate(np.asarray(batch), num_qubits, names)


def _evaluate(batch, num_qubits: int, names) -> dict[str, np.ndarray]:
    """``evaluate`` of a stack, or of the (B, d/2) blocks (p, q, c) of real X-form states."""
    names = list(names)
    margins = _margins(batch, num_qubits, [name for name in names if name != "ppt_all_cuts"])
    flags = {name: margin > 0 for name, margin in margins.items()}
    if "ppt_all_cuts" in names:
        if isinstance(batch, tuple):  # each cut's blocks, decided in closed form as is_ppt decides them
            ppt = [_smallest_eigvals(None, _block_partial_transpose(*batch, [q])) >= -1e-9 for q in range(num_qubits)]
        else:
            rhos = batch[:, :, None] * batch[:, None, :].conj() if batch.ndim == 2 else batch
            ppt = [is_ppt(rhos, [q]) for q in range(num_qubits)]
        flags["ppt_all_cuts"] = np.logical_and.reduce(ppt)
    return {name: flags[name] for name in names}


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
    return dme_family(state)[pair - 1]


def dme_family(state) -> tuple[DmeResult, ...]:
    """All four antidiagonal-pair conditions; any violation is a detection."""
    lhs, rhs, margin = (x[0] for x in _antidiagonal(_as_batch(state, blocks=True)))
    return tuple(DmeResult(j + 1, bool(margin[j] > 0), float(lhs[j]), float(rhs[j])) for j in range(4))


def _witness_seesaw(states: np.ndarray, num_qubits: int, seeds, restarts: int) -> np.ndarray:
    """Best GHZ fidelity over product unitaries via per-qubit eigen-updates,
    for every member of a (B, d) stack of amplitude vectors or a (B, d, d)
    stack of density matrices, from ``restarts`` random starting points per
    member; one value per restart, (B, restarts).

    With all other factors frozen, the fidelity is a quadratic form in the
    quaternion coordinates of one factor, so each update is a 4x4
    eigenproblem and the fidelity never decreases: form[g, h] =
    Re <w_g|rho|w_h>, w_g = G_g^dagger V^dagger |GHZ>, for V the frozen
    factors u_m and G = (I, iX, iY, iZ). With qubit l left open,
    V^dagger |GHZ> = sum_a phi_a (x) |a>_l / sqrt(2), where the two product
    vectors phi_a = (x)_{m != l} u_m^dagger |a> are built from the columns of
    the frozen u_m^dagger. A pure state's overlaps <psi|w_g> then come from
    one contraction of phi with psi, and its form is Re o o^dagger, with no
    d x d projector and no stack of the w_g; a mixed state builds the (4, d)
    w from phi and keeps w rho w^dagger.

    Member b draws its starting points from ``default_rng(seeds[b])`` as one
    (restarts, N, 4) normal array, the numbers of that many (N, 4) draws in
    turn. The restarts of the whole stack advance in lock step on one
    (B restarts, N, 4) array of coordinates, each against the state it
    belongs to, and the updates of one qubit are one batched ``eigh``. A
    restart whose sweep gains less than 1e-12, or that has run 100 sweeps,
    stops and is left out of later sweeps.
    """
    gens_dag = np.stack([np.eye(2), -1j * PAULI_X, -1j * PAULI_Y, -1j * PAULI_Z])
    size, pure = len(states), states.ndim == 2
    xs = np.concatenate([np.random.default_rng(seed).standard_normal((restarts, num_qubits, 4)) for seed in seeds])
    xs /= np.linalg.norm(xs, axis=2, keepdims=True)
    owner = np.repeat(np.arange(size), restarts)  # the state of each restart

    best = np.full(size * restarts, -np.inf)
    live = np.arange(size * restarts)  # the restarts still climbing
    for _ in range(100):
        if live.size == 0:
            break
        x, mine, r = xs[live], owner[live], live.size
        if pure:
            bras = states[mine].conj()
        else:
            rhos = states if size == 1 else states[mine]  # one state broadcasts, with no copy per restart
        for l in range(num_qubits):
            cols = np.einsum("rmg,gja->rmaj", x, gens_dag)  # column a of u_m^dagger = sum_g x_g G_g^dagger
            phi = np.full((r, 2, 1), 1 / np.sqrt(2))
            for m in range(num_qubits):
                if m != l:
                    phi = (phi[..., None] * cols[:, m, :, None, :]).reshape(r, 2, -1)
            phi = phi.reshape(r, 2, 2**l, -1)  # the frozen qubits before and after l
            if pure:
                # o_g = <psi|w_g> from the overlaps of phi_a with psi at each
                # value b of qubit l; Re o_g conj(o_h) is the real dot of the
                # (re, im) views, so the form is exactly symmetric
                c = np.einsum("rahk,rhbk->rab", phi, bras.reshape(r, 2**l, 2, -1))
                o = np.ascontiguousarray(np.einsum("gba,rab->rg", gens_dag, c)).view(float).reshape(-1, 4, 2)
                form = o @ o.swapaxes(1, 2)
            else:
                w = np.einsum("gba,rahk->rghbk", gens_dag, phi).reshape(r, 4, -1)
                form = np.real(w.conj() @ rhos @ w.swapaxes(1, 2))
                form = (form + form.swapaxes(1, 2)) / 2
            evals, evecs = np.linalg.eigh(form)
            x[:, l] = evecs[:, :, -1]
            value = evals[:, -1]
        done = value - best[live] < 1e-12
        best[live] = np.where(done, np.maximum(best[live], value), value)
        xs[live] = x
        live = live[~done]
    return best.reshape(size, restarts)


def _optimized_witness(batch: np.ndarray, num_qubits: int, seeds, restarts: int) -> np.ndarray:
    """1/2 minus the larger of the identity-product GHZ fidelity and the
    best ``_witness_seesaw`` restart, for every member of a pure or mixed
    stack, (B,)."""
    values = _witness_seesaw(batch, num_qubits, seeds, restarts)
    return 0.5 - np.maximum(_ghz_fidelity(batch, num_qubits), values.max(axis=1, initial=-np.inf))


def ghz_witness(state, optimize_local_unitaries: bool = False, restarts: int = 20, seed=None) -> float:
    """GHZ-projector witness value 1/2 - fidelity; negative certifies genuine
    multipartite entanglement.

    With ``optimize_local_unitaries`` the fidelity is first maximized over
    products of single-qubit unitaries: the identity product and
    ``restarts`` random-restart coordinate ascents, run in lock step by
    ``_witness_seesaw``. Their starting points are one (restarts, N, 4)
    draw from ``default_rng(seed)``, the numbers of that many (N, 4) draws
    in turn, and each restart stops on its own convergence test. A pure
    state enters through its amplitudes, as overlaps <w_g|psi>, and never as
    a d x d projector. This is the one-state case of the stack form that
    ``table2 --mode local`` runs once per chunk. ``restarts=0`` leaves the
    identity product alone.
    """
    if restarts < 0:
        raise ValueError(f"restarts must be at least 0, got {restarts}")
    batch = _as_batch(state, blocks=not optimize_local_unitaries)  # the seesaw reads the matrix
    if not optimize_local_unitaries:
        return 0.5 - float(_ghz_fidelity(batch, state.num_qubits)[0])
    return float(_optimized_witness(batch, state.num_qubits, [seed], restarts)[0])


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
    if not 0 < ratio < np.inf:  # NaN fails too
        raise ValueError(f"ratio must be positive and finite, got {ratio}")
    if num_qubits < 1:
        raise ValueError("need at least one qubit")
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
    witness_value: float | None = None
    witness_optimized: float | None = None
    dme_any_violated: bool | None = None
    dme: tuple | None = None

    def to_dict(self) -> dict:
        """The fields in declaration order, the order of the JSON report."""
        return asdict(self)


def build_report(state, optimize_witness: bool = False, seed=0) -> CriterionReport:
    """Run every applicable criterion on one pure or mixed state."""
    gamma = qfi_matrix(state)  # raises TypeError for anything but a state
    n = state.num_qubits
    value_max, direction = gamma.max_direction()
    value_avg = gamma.average()
    depth_max = entanglement_depth(value_max, n, "qfi")
    depth_avg = entanglement_depth(value_avg, n, "avg")

    local_opt = None
    if isinstance(state, PureState):
        local_opt, _ = optimize_local_directions(state, seed=seed)
    dme = dme_family(state) if n == 3 else None
    witness_opt = ghz_witness(state, optimize_local_unitaries=True, seed=seed) if optimize_witness else None
    depth = max(depth_max, depth_avg)
    return CriterionReport(
        num_qubits=n,
        qfi_max=value_max,
        qfi_max_direction=tuple(float(x) for x in direction),
        qfi_avg=value_avg,
        qfi_matrix=tuple(tuple(float(x) for x in row) for row in gamma.matrix),
        depth_qfi=depth_max,
        depth_qfi_avg=depth_avg,
        entangled=depth >= 2,
        genuine_multipartite=depth >= n,
        qfi_local_opt=local_opt,
        dme=dme,
        dme_any_violated=None if dme is None else any(r.violated for r in dme),
        witness_value=ghz_witness(state),
        witness_optimized=witness_opt,
    )
