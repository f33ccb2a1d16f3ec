"""Real X-form states held as their 2 x 2 blocks, against dense references.

Every reference matrix here is built by the test itself, entry by entry, in
the arithmetic of a plain dense construction. The block states must equal it
bit for bit: their blocks, their lazily built ``matrix``, Gamma, the GHZ
fidelity, the antidiagonal terms, the PSD decision and the messages of a
broken block.
"""

import operator
import tracemalloc
from functools import reduce

import numpy as np
import pytest

import qfisher as qf
from qfisher import campaigns, core, criteria, fisher, zoo
from qfisher.core import PSD_TOL, DensityMatrix, InvariantError, _as_batch, _check_density_stack, _x_blocks, _x_matrix

# white-noise weights of the mixtures; from N = 11 a dense reference holds
# 32 or 128 MB, so those sizes check one state of each kind
WEIGHTS = (0.0, 0.05, 0.7, 1.0)


def dense(p, q, c):
    """The d x d float matrix of the blocks [[p_j, c_j], [c_j, q_j]] on (j, d-1-j)."""
    h = len(p)
    mat = np.zeros((2 * h, 2 * h))
    for j in range(h):
        mat[j, j], mat[2 * h - 1 - j, 2 * h - 1 - j] = p[j], q[j]
        mat[j, 2 * h - 1 - j] = mat[2 * h - 1 - j, j] = c[j]
    return mat


def seeded_blocks(seed, n, count):
    """``count`` normalised PSD blocks (p, q, c) of N qubits: member 0 has
    zero blocks, member 1 degenerate ones (p = q, c = 0), member 2 negative
    coherences only, the rest signed coherences up to the PSD bound."""
    rng = np.random.default_rng(seed)
    h = 2 ** (n - 1)
    out = []
    for k in range(count):
        p, q = rng.random(h), rng.random(h)
        c = rng.uniform(-1.0, 1.0, h) * np.sqrt(p * q)
        if k == 0:
            zero = rng.random(h) < 0.5
            p[zero] = q[zero] = c[zero] = 0.0
        elif k == 1:
            q, c = p.copy(), np.zeros(h)
        elif k == 2:
            c = -np.abs(c)
        total = p.sum() + q.sum()
        out.append((p / total, q / total, c / total))
    return out


def duer_reference(n):
    """The Dür state as a dense float matrix, projector by projector."""
    d = 2**n
    mat = np.zeros((d, d))
    mat[0, 0] = mat[d - 1, d - 1] = mat[0, d - 1] = mat[d - 1, 0] = 0.5
    for l in range(n):
        single = 1 << (n - 1 - l)
        mat[single, single] += 0.5
        mat[(d - 1) ^ single, (d - 1) ^ single] += 0.5
    return mat / (n + 1)


def smolin_reference(pairs):
    """(I + (-1)^pairs (X^N + Y^N + Z^N)) / 2^N from the Pauli tensor powers
    applied to basis indices: X^N flips every bit, Z^N is (-1)^popcount and
    Y^N = i^N X^N Z^N."""
    n = 2 * pairs
    d = 2**n
    idx = np.arange(d)
    z = (-1.0) ** np.array([bin(i).count("1") for i in range(d)])
    mat = np.eye(d, dtype=complex)
    mat[idx, idx] += (-1) ** pairs * z
    mat[(d - 1) ^ idx, idx] += (-1) ** pairs * (1 + 1j**n * z)
    assert not mat.imag.any()
    return mat.real / d


def mixture_reference(x, p):
    """p x x^T + (1 - p) I / d for a real vector x, or p rho + (1 - p) I / d
    for a real matrix rho, as a dense product and a diagonal shift."""
    mat = np.outer(x, x) if x.ndim == 1 else x.copy()
    mat *= p
    mat[np.diag_indices(len(mat))] += (1.0 - p) / len(mat)
    return mat


def assert_same_bits(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and np.array_equal(a, b) and np.array_equal(np.signbit(a), np.signbit(b))


def assert_block_state_matches(state, ref):
    """A block state against its dense reference matrix: the blocks, the
    lazily built matrix, Gamma, the GHZ fidelity and, at N = 3, the
    antidiagonal terms, each bit for bit against the dense stack paths."""
    n = state.num_qubits
    blocks = _as_batch(state, blocks=True)
    assert isinstance(blocks, tuple), "built dense"
    for got, want in zip(blocks, _x_blocks(ref[None])):
        assert_same_bits(got, want)
    assert_same_bits(fisher._spin_gammas(blocks, n), fisher._spin_gammas(ref[None], n))
    assert_same_bits(criteria._ghz_fidelity(blocks, n), criteria._ghz_fidelity(ref[None], n))
    if n == 3:
        for got, want in zip(criteria._margins(blocks, 3, ["dme", "dme_family"]).values(),
                             criteria._margins(ref[None], 3, ["dme", "dme_family"]).values()):
            assert_same_bits(got, want)
        assert criteria.dme_family(state) == criteria.dme_family(DensityMatrix(3, ref))
    assert state.matrix.dtype == np.float64 and np.array_equal(state.matrix, ref)
    assert not state.matrix.flags.writeable


class TestBlockStates:
    """Producers build real X-form states as blocks, equal to dense references."""

    @pytest.mark.parametrize("n", range(3, 13))
    def test_seeded_blocks(self, n):
        for p, q, c in seeded_blocks(100 + n, n, 4 if n <= 10 else 1):
            state = DensityMatrix._of_blocks(n, p, q, c)
            ref = dense(p, q, c)
            assert_block_state_matches(state, ref)
            if n <= 10:  # the dense state carries the same blocks
                dense_state = DensityMatrix(n, ref)
                assert_same_bits(qf.qfi_matrix(state).matrix, qf.qfi_matrix(dense_state).matrix)
                assert qf.ghz_witness(state) == qf.ghz_witness(dense_state)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_duer_and_its_mixtures(self, n):
        ref = duer_reference(n)
        assert_block_state_matches(qf.duer_state(n), ref)
        for p in WEIGHTS if n <= 10 else WEIGHTS[2:3]:
            assert_block_state_matches(qf.mix_with_identity(qf.duer_state(n), p), mixture_reference(ref, p))
        assert abs(qf.qfi_matrix(qf.duer_state(n)).matrix[2, 2] - n * n / (n + 1)) <= 1e-12 * n

    @pytest.mark.parametrize("n", range(3, 13))
    def test_ghz_mixtures(self, n):
        states = [qf.ghz(n), qf.ghz_basis_state([1, 0] + [1] * (n - 2)), qf.make_pure(n, np.r_[0.6, np.zeros(2**n - 2), -0.8])]
        for psi in states if n <= 10 else states[:1]:
            x = psi.amplitudes.real
            for p in WEIGHTS if n <= 10 else WEIGHTS[2:3]:
                assert_block_state_matches(qf.mix_with_identity(psi, p), mixture_reference(x, p))

    @pytest.mark.parametrize("pairs", range(2, 6))  # the complex reference at N = 12 would take 256 MB
    def test_smolin(self, pairs):
        assert_block_state_matches(qf.smolin_state(pairs), smolin_reference(pairs))

    def test_ghz_diagonal(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            lam = rng.random(8) * (rng.random(8) < 0.8)
            lam[0] += 0.1
            mus = rng.uniform(-1.0, 1.0, 4) * np.sqrt(lam[:4] * lam[:3:-1]) * (rng.random(4) < 0.8)
            ref = np.zeros((8, 8), dtype=complex)  # built and divided in complex arithmetic
            ref[np.arange(8), np.arange(8)] = lam
            ref[np.arange(4), np.arange(7, 3, -1)] = ref[np.arange(7, 3, -1), np.arange(4)] = mus
            ref /= reduce(operator.add, lam.tolist())  # left to right: from Python 3.12 sum() compensates
            assert_block_state_matches(qf.ghz_diagonal(lam, mus), ref.real)

    def test_other_states_stay_dense(self):
        assert _as_batch(qf.mix_with_identity(qf.dicke(4, 2), 0.5), blocks=True).ndim == 3
        assert _as_batch(qf.mix_with_identity(qf.ghz(4, phi=0.3), 0.5), blocks=True).ndim == 3
        assert _as_batch(qf.mix_with_identity(qf.ghz(2), 0.5), blocks=True).ndim == 3  # N = 2 keeps the general kernel
        assert _as_batch(qf.duer_state(4, phi=0.3), blocks=True).dtype == np.complex128

    def test_dense_input_carries_blocks(self, tmp_path):
        path = tmp_path / "duer.json"
        qf.save_state(qf.duer_state(6), path)
        loaded = qf.load_state(path)
        for got, want in zip(_as_batch(loaded, blocks=True), _as_batch(qf.duer_state(6), blocks=True)):
            assert_same_bits(got, want)

    def test_dense_input_finds_its_blocks_once(self, monkeypatch):
        # the blocks that the PSD test found are the ones the state keeps
        calls, find = [], core._x_blocks
        monkeypatch.setattr(core, "_x_blocks", lambda mats: calls.append(mats.shape) or find(mats))
        state = DensityMatrix(6, duer_reference(6))
        assert calls == [(64, 64)]
        for got, want in zip(_as_batch(state, blocks=True), _as_batch(qf.duer_state(6), blocks=True)):
            assert_same_bits(got, want)
            assert not got.flags.writeable
        assert DensityMatrix(2, np.diag([0.5, 0.0, 0.0, 0.5]))._blocks is None  # N = 2 keeps the general kernel


def vectorised_block_gammas(p, q, c, n):
    """The block kernel as one (2, 2, B, N, d/2) pair-weight table, summed at
    once: the reference that ``fisher._block_gammas``, which fills the same
    summands one flipped qubit at a time, must equal bit for bit."""
    h = p.shape[-1]
    lam = np.stack(qf.core._block_eigvals(p, q, c))
    lam[lam <= fisher.ZERO_CUT * lam.sum(axis=(0, 2), keepdims=True)] = 0.0
    two_theta = np.arctan2(2 * c, p - q)
    cos, sin = np.cos(two_theta), np.sin(two_theta)
    masks = np.array([h - 1] + [1 << (n - 1 - l) for l in range(1, n)])
    partner = np.arange(h) ^ masks[:, None]
    w = fisher._pair_weight(lam[:, None, :, partner], lam[None, :, :, None])
    like, unlike = w[0, 0] + w[1, 1], w[0, 1] + w[1, 0]
    u = np.where(masks == h - 1, -1.0, 1.0)[:, None] * cos[:, partner] * cos[:, None]
    v = sin[:, partner] * sin[:, None]
    both, diff = (like + unlike).sum(axis=(1, 2)), like - unlike
    m = (n - 2 * np.array([bin(j).count("1") for j in range(h)])) / 2
    gamma = np.zeros((len(p), 3, 3))
    gamma[:, 0, 0] = (both + (diff * (u + v)).sum(axis=(1, 2))) / 4
    gamma[:, 1, 1] = (both + (diff * (u - v)).sum(axis=(1, 2))) / 4
    gamma[:, 2, 2] = 4 * np.sum(m**2 * sin**2 * fisher._pair_weight(lam[1], lam[0]), axis=-1)
    return gamma


@pytest.mark.parametrize("n", range(3, 11))
def test_kernel_matches_the_vectorised_sum(n):
    stack = [np.stack(parts) for parts in zip(*seeded_blocks(300 + n, n, 6))]
    assert_same_bits(fisher._block_gammas(*stack, n), vectorised_block_gammas(*stack, n))


class TestBlockValidation:
    """A block state is checked as the dense check checks its matrix."""

    @staticmethod
    def messages(n, p, q, c):
        with pytest.raises(InvariantError) as dense_error:
            DensityMatrix(n, dense(p, q, c))
        with pytest.raises(InvariantError) as block_error:
            DensityMatrix._of_blocks(n, p, q, c)
        return str(block_error.value), str(dense_error.value)

    @pytest.mark.parametrize("n", [3, 6, 10])
    def test_broken_blocks_raise_the_dense_message(self, n):
        p, q, c = seeded_blocks(200 + n, n, 4)[3]
        for broken, expected in [
            ((np.where(np.arange(p.size) == 1, np.nan, p), q, c), "non-finite"),
            ((p, q, np.where(np.arange(p.size) == 2, np.inf, c)), "non-finite"),
            ((1.1 * p, q, c), "trace is"),
            ((p, q, c + np.where(np.arange(p.size) == 0, np.sqrt(p[0] * q[0]) + 1e-3, 0.0)), "smallest eigenvalue"),
        ]:
            block, dense_message = self.messages(n, *broken)
            assert block == dense_message and expected in block

    @pytest.mark.parametrize("n", [3, 6])
    def test_stack_messages_name_the_sample(self, n):
        stack = [np.stack(parts) for parts in zip(*seeded_blocks(600 + n, n, 6))]
        core._check_block_stack(*stack)
        for k, (part, j, value), expected in [
            (3, (0, 1, np.nan), "non-finite"),
            (2, (2, 0, -np.inf), "non-finite"),
            (4, (0, slice(None), None), "trace is"),
            (5, (2, 0, None), "smallest eigenvalue"),
        ]:
            broken = [b.copy() for b in stack]
            if expected == "trace is":
                broken[0][k] *= 1.1
            elif expected == "smallest eigenvalue":
                broken[2][k, 0] = np.sqrt(broken[0][k, 0] * broken[1][k, 0]) + 1e-3
            else:
                broken[part][k, j] = value
            with pytest.raises(InvariantError) as block_error:
                core._check_block_stack(*broken)
            with pytest.raises(InvariantError) as dense_error:
                _check_density_stack(_x_matrix(*broken))
            assert str(block_error.value) == str(dense_error.value)
            assert str(block_error.value).startswith(f"sample {k}: ") and expected in str(block_error.value)

    @pytest.mark.parametrize("scale, accepted", [(0.9, True), (1.1, False)])
    def test_psd_decision_at_the_tolerance(self, scale, accepted):
        # block 0, [[a, c], [c, a]], has eigenvalues a - c = -scale * PSD_TOL and a + c = 1/2
        h, low = 8, scale * PSD_TOL
        p = np.full(h, (0.5 + low) / (2 * h - 2))
        p[0] = (0.5 - low) / 2
        c = np.zeros(h)
        c[0] = (0.5 + low) / 2
        assert abs(2 * p.sum() - 1.0) <= 1e-15
        if accepted:
            DensityMatrix._of_blocks(4, p, p, c)
            _check_density_stack(dense(p, p, c))
        else:
            block, dense_message = self.messages(4, p, p, c)
            assert block == dense_message and "smallest eigenvalue" in block


def test_block_states_allocate_no_dense_matrix():
    """The spin-QFI matrix and GHZ witness of the Dür state at the 12-qubit
    cap and a white-noise GHZ(12) mixture allocate no 4096 x 4096 array (128
    MB): the whole run peaks under 1 MB."""
    qf.qfi_matrix(qf.duer_state(4)), qf.ghz_witness(qf.duer_state(4)), zoo.ghz(3)  # caches and imports
    tracemalloc.start()
    try:
        rho = qf.duer_state(12)
        gamma = qf.qfi_matrix(rho).matrix
        witness = qf.ghz_witness(rho)
        mixture = qf.mix_with_identity(qf.ghz(12), 0.5)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2**20, f"peak {peak / 2**20:.2f} MB"
    assert abs(gamma[2, 2] - 144 / 13) <= 1e-12 and abs(witness - (0.5 - 1 / 13)) <= 1e-15
    assert isinstance(_as_batch(mixture, blocks=True), tuple)


class TestBlockPartialTranspose:
    """A partial transpose of blocks is the ``_x_blocks`` of the dense one, bit for bit."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_matches_dense_partial_transpose(self, n):
        rng = np.random.default_rng(400 + n)
        # member 0 has zero blocks and member 1 zero coherences
        stack = tuple(np.stack(parts) for parts in zip(*seeded_blocks(400 + n, n, 5)))
        mats = _x_matrix(*stack)
        subsets = [[k] for k in range(n)]
        subsets += [rng.choice(n, size=rng.integers(1, n), replace=False).tolist() for _ in range(10)]
        seen = set()
        for subset in subsets:
            pt = qf.partial_transpose(mats, subset)  # complex, as every dense partial transpose
            assert not pt.imag.any()
            pt = pt.real
            pt_blocks = core._block_partial_transpose(*stack, subset)
            for got, want in zip(pt_blocks, _x_blocks(pt)):
                assert_same_bits(got, want)
            ppt = core._smallest_eigvals(None, pt_blocks) >= -1e-9
            assert np.array_equal(ppt, qf.is_ppt(mats, subset))
            assert np.array_equal(ppt, np.linalg.eigvalsh(pt)[:, 0] >= -1e-9)
            seen.update(ppt.tolist())
        assert seen == {True, False}

    def test_block_state_builds_no_matrix(self):
        rho, ref = qf.duer_state(8), duer_reference(8)
        for subset in ([0], [3], [7], [0, 1], [1, 4, 6], range(4)):
            assert qf.is_ppt(rho, subset) is qf.is_ppt(ref, subset) is (len(subset) == 1)
        assert "matrix" not in rho.__dict__

    @pytest.mark.parametrize("subset", [[], [0, 1, 2], [3], [-1]])
    def test_bad_subsets_raise_as_dense(self, subset):
        rho = qf.duer_state(3)
        with pytest.raises(ValueError) as block_error:
            qf.is_ppt(rho, subset)
        with pytest.raises(ValueError) as dense_error:
            qf.is_ppt(duer_reference(3), subset)
        assert str(block_error.value) == str(dense_error.value)

    def test_a_tuple_is_a_stack_of_matrices(self):
        # only a state's own blocks are read as blocks: a tuple of three
        # 4 x 4 matrices is a (3, 4, 4) stack, as any array-like is
        mats = (np.eye(4) / 4, qf.density_from_pure(qf.ghz(2)).matrix, np.diag([0.5, 0.0, 0.0, 0.5]))
        assert np.array_equal(qf.is_ppt(mats, [0]), [True, False, True])
        rhos, names = [_x_matrix(*blocks) for blocks in seeded_blocks(701, 3, 3)], ["witness", "fq_3", "ppt_all_cuts"]
        from_tuple, from_stack = criteria.evaluate(tuple(rhos), 3, names), criteria.evaluate(np.stack(rhos), 3, names)
        for name in names:
            assert np.array_equal(from_tuple[name], from_stack[name])


THREE_QUBIT_NAMES = ("dme", "dme_family", "witness", "fq_2", "fq_3", "fq_avg_2", "fq_avg_3", "ppt_all_cuts")


@pytest.mark.parametrize("mode", ["dme_violating", "full_family", "bound_entangled", "seeded"])
def test_evaluate_reads_blocks_as_their_matrices(mode):
    if mode == "seeded":
        blocks = tuple(np.stack(parts) for parts in zip(*seeded_blocks(500, 3, 64)))
    else:
        blocks = zoo._random_ghz_diagonal_batch(campaigns._streams(9, 0, 512), mode)
    mats = _x_matrix(*blocks)
    from_blocks, from_mats = criteria._evaluate(blocks, 3, THREE_QUBIT_NAMES), criteria.evaluate(mats, 3, THREE_QUBIT_NAMES)
    assert list(from_blocks) == list(THREE_QUBIT_NAMES)
    for name in THREE_QUBIT_NAMES:
        assert np.array_equal(from_blocks[name], from_mats[name]), name
    names = THREE_QUBIT_NAMES[:-1]
    for name, got, want in zip(names, criteria._margins(blocks, 3, names).values(), criteria._margins(mats, 3, names).values()):
        assert_same_bits(got, want)


def test_dme_family_reads_the_blocks():
    for k, mode in enumerate(["dme_violating", "full_family", "bound_entangled"] * 4):
        state = qf.random_ghz_diagonal(np.random.default_rng([11, k]), mode)
        dense = qf.DensityMatrix(3, _x_matrix(*state._blocks).astype(complex))
        assert qf.dme_family(state) == qf.dme_family(dense)  # lhs and rhs bit for bit
        assert "matrix" not in state.__dict__


def test_blocks_of_more_qubits_fail_the_antidiagonal_test():
    blocks = tuple(np.stack(parts) for parts in zip(*seeded_blocks(800, 4, 3)))
    with pytest.raises(ValueError, match="exactly 3 qubits"):
        criteria._evaluate(blocks, 4, ["dme"])


def test_campaign_chunks_build_no_dense_stack(monkeypatch):
    """``table3`` and the scan check, decide and PPT-test a chunk on its
    blocks: no (B, 8, 8) stack is built, transposed or searched for blocks."""
    counts = {mode: campaigns._table3_chunk(0, 300, 0, mode) for mode in ("dme_violating", "full_family")}
    counts["scan"] = campaigns._scan_chunk(0, 300, 0)

    def corner_only(p, q, c, build=core._x_matrix):  # the GHZ fidelity reads block 0 as a (B, 2, 2) stack
        assert p.shape[-1] == 1, f"built a dense stack from blocks of shape {p.shape}"
        return build(p, q, c)

    def dense_path(*args):
        raise AssertionError("a chunk took a dense path")

    for module in (core, criteria, fisher, zoo):
        monkeypatch.setattr(module, "_x_matrix", corner_only, raising=False)
        monkeypatch.setattr(module, "_x_blocks", dense_path, raising=False)
    monkeypatch.setattr(core, "partial_transpose", dense_path)
    for mode in ("dme_violating", "full_family"):
        assert np.array_equal(campaigns._table3_chunk(0, 300, 0, mode), counts[mode])
    assert np.array_equal(campaigns._scan_chunk(0, 300, 0), counts["scan"])
