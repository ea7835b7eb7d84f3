"""MPS builder, Born-sampling, and dense-oracle tests.

The dense oracle and the MPS path share gate draws, so identically seeded
streams must realize the same state; that makes per-outcome equality checks
exact rather than statistical.
"""

import gc
import itertools
import math
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from scipy import stats

from rmpslab import mps
from rmpslab.errors import PreconditionError, ShapeMismatchError, SizeLimitError
from rmpslab.weingarten import HAAR, gaussian

import oracles


def test_square_haar_gate_unitarity():
    # a square Haar gate (the Householder path) is unitary, down to q = 1
    rng = mps.stream(1)
    u = mps._gate_columns(64, 64, HAAR, mps.normals(rng))[0]
    assert np.abs(u @ u.conj().T - np.eye(64)).max() < 1e-12
    scalar = mps._gate_columns(1, 1, HAAR, mps.normals(rng))[0]
    assert abs(abs(scalar[0, 0]) - 1) < 1e-12


def successive(rng, n):
    """Normal source of n rows holding n successive draws of one stream."""
    return lambda size: rng.standard_normal((n, size))


def test_square_haar_gate_first_moment():
    # Haar moments of one entry at q = 4: E |U_00|^2 = 1/q, E |U_00|^4 =
    # 2/(q(q+1)), and E Re U_00 = 0, which fails without the R-diagonal
    # phase fix (LAPACK's real R diagonal gives U_00 a real part of one sign);
    # the n unitaries are n successive q x q gate draws of the stream, as one
    # stack (a square block keeps the per-matrix Householder QR)
    q, n = 4, 100_000
    rng = mps.stream(2)
    u00 = mps._gate_columns(q, q, HAAR, successive(rng, n))[:, 0, 0]
    abs2 = np.abs(u00) ** 2
    for vals, expected in ((abs2, 1 / q), (abs2**2, 2 / (q * (q + 1))), (u00.real, 0.0)):
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) < 3 * se


def test_tall_haar_gate_entry_moments():
    # the same moments for the (0, 0) entry of a 4 x 2 Haar isometry, which
    # comes from the Cholesky-QR path: one stack of n successive draws of a stream
    q, n = 4, 100_000
    rng = mps.stream(3)
    q00 = mps._gate_columns(q, 2, HAAR, successive(rng, n))[:, 0, 0]
    abs2 = np.abs(q00) ** 2
    for vals, expected in ((abs2, 1 / q), (abs2**2, 2 / (q * (q + 1))), (q00.real, 0.0)):
        se = vals.std(ddof=1) / np.sqrt(n)
        assert abs(vals.mean() - expected) < 3 * se


@pytest.mark.parametrize("q, ncols", [(512, 256), (200, 37), (8, 4), (4, 2), (3, 1)])
def test_tall_haar_gate_is_the_householder_gate(q, ncols):
    # a tall block (q >= 2 ncols) is factored by Cholesky-QR; its gate is the
    # phase-fixed Householder Q of the same block, to rounding
    rng, rng_ref = mps.stream(25, q), mps.stream(25, q)
    gates = mps._gate_columns(q, ncols, HAAR, successive(rng, 4))
    for gate in gates:
        block = ginibre_block(q, ncols, rng_ref)
        assert_gate_of_block(gate, block, None)
        full, rdiag = np.linalg.qr(block)
        full = full * (np.abs(np.diagonal(rdiag)) / np.diagonal(rdiag))
        assert np.abs(gate - full).max() <= 1e-14


@pytest.mark.parametrize("q, n", [(2, 1), (8, 4), (75, 37), (512, 256)])
def test_conj_gram_is_the_complex_product(q, n):
    # the Gram matrix read off one real product equals G^T conj(G), and it
    # is exactly Hermitian; the blocks are strided rows of one budget, as a
    # stacked normal source hands them out
    budget = mps.stream(28, q).standard_normal((3, 2 * q * n + 7))
    real = budget[:, 7:].reshape(3, q, 2 * n)
    block = real.view(complex)
    ref = block.mT @ block.conj()
    gram = mps._conj_gram(real)
    assert np.abs(gram - ref).max() <= 1e-13 * np.abs(ref).max()
    assert np.array_equal(gram, gram.mT.conj())


@pytest.mark.parametrize("n", [1, 32, 33, 37, 256])
def test_tril_solve_is_the_triangular_solve(n):
    # the blocked forward substitution against LAPACK's general solve, with
    # the Cholesky factors a tall gate produces, for the transposed block the
    # gates pass and for a contiguous right-hand side
    rng = mps.stream(29, n)
    block = rng.standard_normal((3, 2 * n, 2 * n)).view(complex)
    low = np.linalg.cholesky(mps._conj_gram(block.view(float)))
    for rhs in (block.mT, np.ascontiguousarray(block.mT)):
        x = mps._tril_solve(low, rhs)
        ref = np.linalg.solve(low, rhs)
        assert x.shape == rhs.shape and x.flags.c_contiguous
        assert np.abs(x - ref).max() <= 1e-13 * np.abs(ref).max()


def ginibre_block(q, ncols, rng):
    """The (q, ncols) complex Ginibre block a gate of ncols columns is made from."""
    return rng.standard_normal((q, 2 * ncols)).view(complex)


def assert_gate_of_block(gate, block, variance):
    """Gaussian: the scaled block, bit for bit.  Haar: Q^H Q = I and Q^H G upper
    triangular with a positive real diagonal, which pins the phase-fixed
    reduced QR of G uniquely."""
    assert gate.shape == block.shape
    if variance is not None:
        assert np.array_equal(gate, np.sqrt(variance / 2) * block)
        return
    assert np.abs(gate.conj().T @ gate - np.eye(gate.shape[1])).max() <= 1e-13
    r = gate.conj().T @ block
    assert np.abs(np.tril(r, -1)).max(initial=0.0) <= 1e-13
    assert np.abs(np.diagonal(r).imag).max() <= 1e-13
    assert np.diagonal(r).real.min() > 0


# (N_A, N_B, d, chi) of the staircase and (N_A, d, chi) of the glued draw tests
STAIRCASE_DRAWS = [(1, 1, 2, 1), (2, 3, 2, 4), (3, 2, 3, 5), (2, 2, 2, 64)]
GLUED_DRAWS = [(1, 2, 1), (1, 2, 3), (3, 2, 2), (2, 3, 4)]
DRAW_KINDS = [HAAR, gaussian(), gaussian(0.3, 0.7)]


@pytest.mark.parametrize("kind", DRAW_KINDS, ids=["haar", "gaussian", "gaussian-var"])
@pytest.mark.parametrize("case", STAIRCASE_DRAWS)
def test_staircase_draws_are_the_used_columns(case, kind):
    # gate j is made from a Ginibre block of only the r_(j-1) columns its
    # incoming auxiliary can carry (r_(-1) = 1); while d r_(j-1) < chi and j is
    # not the last gate it comes back as the R of its (chi, d r_(j-1)) matrix
    # M = U R, so R^H R = M^H M, and r_j = d r_(j-1); otherwise r_j = chi
    n_a, n_b, d, chi = case
    q = d * chi
    var = None if kind.is_haar else (kind.variance or 1.0 / q)
    rng, rng_ref = mps.stream(21, 4), mps.stream(21, 4)
    circuit = mps.Circuit("staircase", n_a, d, chi, n_b, kind)
    gates = [g[0] for g in mps.draw_staircase_gates(circuit, mps.normals(rng))]
    assert len(gates) == n_a + n_b - 1
    rank, used = 1, 0
    for j, gate in enumerate(gates):
        block = ginibre_block(q, rank, rng_ref)
        used += 2 * q * rank
        if d * rank >= chi or j == len(gates) - 1:
            assert_gate_of_block(gate, block, var)
            rank = chi
            continue
        assert gate.shape == (d * d * rank, rank)
        if kind.is_haar:
            assert np.abs(gate.conj().T @ gate - np.eye(rank)).max() <= 1e-13
            full, rdiag = np.linalg.qr(block)
            full = full * (np.abs(np.diagonal(rdiag)) / np.diagonal(rdiag))
        else:
            full = np.sqrt(var / 2) * block
        m = full.reshape(d, chi, rank).transpose(1, 0, 2).reshape(chi, d * rank)
        r = gate.reshape(d, d * rank, rank).transpose(1, 0, 2).reshape(d * rank, d * rank)
        assert np.abs(np.tril(r, -1)).max(initial=0.0) == 0.0
        gram = m.conj().T @ m
        assert np.abs(r.conj().T @ r - gram).max() <= 1e-13 * np.abs(gram).max()
        rank *= d
    rng_ref = mps.stream(21, 4)
    rng_ref.standard_normal(used)
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("kind", DRAW_KINDS, ids=["haar", "gaussian", "gaussian-var"])
@pytest.mark.parametrize("case", GLUED_DRAWS)
def test_glued_draws_are_the_used_columns(case, kind):
    # blocks: one column; edge glues: chi columns, (0, b) on the left and
    # (a, 0) on the right; middle glues whole
    n_a, d, chi = case
    var_a = var_b = None
    if not kind.is_haar:
        var_a = kind.variance or 1.0 / (d * chi * chi)
        var_b = kind.variance_b or 1.0 / (chi * chi)
    rng, rng_ref = mps.stream(22, 5), mps.stream(22, 5)
    blocks, glues = mps.draw_glued_gates(mps.Circuit("glued", n_a, d, chi, kind=kind),
                                         mps.normals(rng))
    assert len(blocks) == n_a and len(glues) == n_a + 1
    for v in blocks:
        assert_gate_of_block(v[0], ginibre_block(d * chi * chi, 1, rng_ref), var_a)
    for j, r in enumerate(glues):
        ncols = chi if j in (0, n_a) else chi * chi
        assert_gate_of_block(r[0], ginibre_block(chi * chi, ncols, rng_ref), var_b)
    assert rng.random() == rng_ref.random()


# (setup, N_A, d, chi, N_B) of the whole-circuit draw tests; staircase-wide has
# gates of 64 and 128 columns, wider than the base block of the triangular
# inverse behind tall Haar gates
CIRCUITS = {
    "staircase": ("staircase", 2, 2, 8, 3),
    "staircase-wide": ("staircase", 1, 2, 128, 9),
    "glued": ("glued", 3, 2, 2),
}


def draw_circuit(circuit, source):
    """Every gate stack of the circuit, in draw order."""
    if circuit.setup == "staircase":
        return mps.draw_staircase_gates(circuit, source)
    blocks, glues = mps.draw_glued_gates(circuit, source)
    return blocks + glues


@pytest.mark.parametrize("kind", DRAW_KINDS[:2], ids=["haar", "gaussian"])
@pytest.mark.parametrize("setup", list(CIRCUITS))
def test_normal_budget_is_what_a_build_draws(setup, kind):
    # a one-stream build consumes exactly normal_budget normals of its stream
    circuit = mps.Circuit(*CIRCUITS[setup], kind=kind)
    rng, rng_ref = mps.stream(26, 1), mps.stream(26, 1)
    draw_circuit(circuit, mps.normals(rng))
    rng_ref.standard_normal(circuit.normal_budget)
    assert rng.random() == rng_ref.random()


@pytest.mark.parametrize("kind", DRAW_KINDS[:2], ids=["haar", "gaussian"])
@pytest.mark.parametrize("setup", list(CIRCUITS))
def test_stacked_draws_are_the_one_stream_draws(setup, kind):
    # a stack drawn from one budget row per realization draws, bit for bit,
    # the gates each realization's stream draws alone
    circuit = mps.Circuit(*CIRCUITS[setup], kind=kind)
    reals = range(3, 8)
    budget = mps.stream_normals(24, reals, circuit.normal_budget)
    stacked = draw_circuit(circuit, mps._budget_source(budget))
    for i, r in enumerate(reals):
        gates = draw_circuit(circuit, mps.normals(mps.stream(24, r)))
        assert len(gates) == len(stacked)
        for gate, stack in zip(gates, stacked):
            assert np.array_equal(gate[0], stack[i])


def test_stream_normals_rows_are_the_streams():
    # row i is the first normals of stream(seed, realizations[i]), bit for bit,
    # and a stream yields the same normals however its draws are split
    reals = range(2, 40, 3)
    budget = mps.stream_normals(31, reals, 101)
    assert budget.shape == (len(reals), 101)
    for row, r in zip(budget, reals):
        assert np.array_equal(row, mps.stream(31, r).standard_normal(101))
        rng = mps.stream(31, r)
        parts = [rng.standard_normal(size) for size in (1, 40, 7, 53)]
        assert np.array_equal(row, np.concatenate(parts))
    assert mps.stream_normals(31, range(0), 5).shape == (0, 5)


def test_staircase_state_draws_only_the_used_normals():
    # one chi = 256 state of the criterion-3 circuit (N_A = 6, N_B = 14, d = 2):
    # gates on bonds of rank 1, 2, ..., 128, then 11 on 256, so
    # 2 x 512 x (255 + 11 x 256) = 3,144,704 normals, not 2 x 512 x (1 + 18 x 256)
    circuit = mps.Circuit("staircase", 6, 2, 256, 14, gaussian())
    assert circuit.normal_budget == 3_144_704
    rng, rng_ref = mps.stream(23), mps.stream(23)
    mps.draw_staircase_gates(circuit, mps.normals(rng))
    rng_ref.standard_normal(3_144_704)
    assert rng.random() == rng_ref.random()


def test_stream_reproducible_and_split():
    a = mps.stream(7, 3).standard_normal(4)
    b = mps.stream(7, 3).standard_normal(4)
    c = mps.stream(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


@pytest.mark.parametrize("name", ["seed", "realization"])
def test_stream_rejects_negative_key(name):
    with pytest.raises(ValueError, match=name):
        mps.stream(**{"seed": 0, "realization": 0, name: -1})
    seed, reals = (-1, range(2)) if name == "seed" else (0, range(-1, 2))
    with pytest.raises(ValueError, match=name):
        mps.stream_normals(seed, reals, 4)


@pytest.mark.parametrize("name", ["seed", "realization"])
def test_stream_rejects_a_key_past_64_bits(name):
    # a Philox key word holds [0, 2^64): the largest key draws, 2^64 is a
    # ValueError, not an OverflowError from the uint64 key
    top = {"seed": 0, "realization": 0, name: 2**64 - 1}
    mps.stream(**top).standard_normal(1)
    with pytest.raises(ValueError, match=name):
        mps.stream(**{**top, name: 2**64})
    seed, reals = (2**64, range(2)) if name == "seed" else (0, range(2**64 - 1, 2**64 + 1))
    with pytest.raises(ValueError, match=name):
        mps.stream_normals(seed, reals, 4)


def test_build_staircase_structure():
    state = mps.build_staircase(mps.Circuit("staircase", 3, 2, 4, 4), mps.stream(1))
    assert state.phys_dims == (2, 2, 2, 2, 2, 2, 4)
    assert state.roles == ("A",) * 3 + ("B",) * 4
    # the bond right of site j carries rank min(d^(j+1), chi)
    bonds = [min(2 ** (j + 1), 4) for j in range(6)]
    assert [t.shape for t in state.tensors] == list(
        zip([1] + bonds, state.phys_dims, bonds + [1])
    )
    assert oracles.norm_squared(state) == pytest.approx(1.0, abs=1e-10)


def test_build_glued_structure():
    circuit = mps.Circuit("glued", 3, 2, 2)
    state = mps.build_glued(circuit, mps.stream(2))
    assert state.phys_dims == (4, 2, 4, 2, 4, 2, 4)
    assert state.roles == ("B", "A", "B", "A", "B", "A", "B")
    assert circuit.n_b == 4
    assert oracles.norm_squared(state) == pytest.approx(1.0, abs=1e-10)


def test_build_validation():
    with pytest.raises(ShapeMismatchError):
        mps.Circuit("staircase", 0, 2, 2, 2)
    with pytest.raises(ShapeMismatchError):
        mps.Circuit("staircase", 2, 1, 2, 2)
    with pytest.raises(ShapeMismatchError):
        mps.Circuit("glued", 1, 2, 0)


def test_circuit_spec():
    # glued N_B resolves to N_A + 1 and no other value is accepted; the
    # derived shapes are those of the built state
    glued = mps.Circuit("glued", 2, 3, 2)
    assert glued == mps.Circuit("glued", 2, 3, 2, n_b=3)
    with pytest.raises(ValueError, match="N_B = N_A \\+ 1"):
        mps.Circuit("glued", 2, 3, 2, n_b=2)
    with pytest.raises(ValueError, match="unknown setup"):
        mps.Circuit("sequential", 2, 2, 2, 2)
    staircase = mps.Circuit("staircase", np.int64(2), np.int64(2), np.int64(4), np.int64(3))
    # numpy sizes are kept as Python ints, the resolved glued N_B too
    assert staircase == mps.Circuit("staircase", 2, 2, 4, 3)
    assert {type(v) for v in (staircase.n_a, staircase.d, staircase.chi, staircase.n_b)} == {int}
    assert type(mps.Circuit("glued", np.int64(2), 3, 2).n_b) is int
    for circuit in (glued, staircase):
        state = mps.build(circuit, mps.stream(0))
        dims = tuple(p for p, role in zip(state.phys_dims, state.roles) if role == "B")
        assert dims == circuit.outcome_dims
        assert circuit.outcome_cardinality == math.prod(dims)
        assert circuit.d_a == state.d_a
    # a fractional size is refused at construction, not truncated or left to
    # fail inside a draw
    for bad in (dict(n_b=2.5), dict(n_a=1.5), dict(d=2.0), dict(chi=4.5)):
        sizes = dict(n_a=2, d=2, chi=4, n_b=3) | bad
        with pytest.raises(ShapeMismatchError, match="must be an integer"):
            mps.Circuit("staircase", **sizes)


def no_dense_build(*args):
    raise AssertionError("dense state built")


@pytest.mark.parametrize(
    "setup,n_a,n_b,d,chi",
    [
        ("staircase", 2, 2, 1, 2),
        ("staircase", 2, 2, 2, 0),
        ("staircase", 0, 2, 2, 2),
        ("staircase", 2, 0, 2, 2),
        ("staircase", 2, None, 2, 2),
        ("glued", 0, None, 2, 2),
        ("glued", 1, None, 1, 2),
    ],
)
def test_oracle_validation(setup, n_a, n_b, d, chi, monkeypatch):
    # a circuit the oracle cannot take is refused before any dense state is built
    monkeypatch.setattr(mps, "_dense_amplitudes", no_dense_build)
    with pytest.raises(ShapeMismatchError):
        mps.oracle_frame_potentials(mps.Circuit(setup, n_a, d, chi, n_b), 0, 1, [(1, 0)])


@pytest.mark.parametrize(
    "setup,kwargs",
    [
        ("staircase", dict(n_a=2, n_b=2, d=2, chi=2)),
        ("staircase", dict(n_a=2, n_b=3, d=3, chi=2)),
        ("staircase", dict(n_a=1, n_b=1, d=2, chi=3)),
        ("glued", dict(n_a=2, d=2, chi=2)),
        ("glued", dict(n_a=3, d=2, chi=2)),
        # chi > d: the staircase bonds grow as min(d^(j+1), chi)
        *[
            ("staircase", dict(n_a=n_a, n_b=n_b, d=2, chi=chi, kind=kind))
            for kind in (HAAR, gaussian())
            for n_a, n_b, chi in ((2, 3, 4), (3, 2, 8), (1, 2, 8))
        ],
    ],
)
def test_mps_matches_oracle_per_outcome(setup, kwargs):
    seed = 11
    circuit = mps.Circuit(setup, **kwargs)
    kind = circuit.kind
    state = mps.build(circuit, mps.stream(seed))
    amps = mps._dense_amplitudes(circuit, mps.normals(mps.stream(seed)))[0]
    p = np.vecdot(amps, amps, axis=0).real
    norm = 1.0 if kind.is_haar else oracles.norm_squared(state)
    assert p.sum() == pytest.approx(norm, abs=1e-12)
    outcomes = np.array(list(np.ndindex(circuit.outcome_dims)))
    assert np.abs(mps._project_batch(state, outcomes) - amps.T).max() < 1e-12
    for zt, pz in zip(outcomes, p):
        assert oracles.born_probability(state, zt) == pytest.approx(pz, abs=1e-12)


# the batched-oracle tests: a staircase whose gates are rotated onto their
# output span (chi > d), its Gaussian twin, and a glued circuit
ORACLE_BATCH_CASES = [
    mps.Circuit("staircase", 2, 2, 4, 3, HAAR),
    mps.Circuit("staircase", 2, 2, 4, 3, gaussian()),
    mps.Circuit("glued", 2, 2, 2),
]


def mps_amplitudes(circuit, rng):
    """(D_A, D_B) projections of every outcome string onto the MPS of the circuit."""
    state = mps.build(circuit, rng)
    dims = [t.shape[1] for t, role in zip(state.tensors, state.roles) if role == "B"]
    outcomes = np.array(list(itertools.product(*map(range, dims))))
    return mps._project_batch(state, outcomes).T


@pytest.mark.parametrize(
    "case", ORACLE_BATCH_CASES, ids=["staircase", "staircase-gaussian", "glued"]
)
def test_batched_oracle_matches_mps_projection(case):
    # 70 realizations span two stacks of MAX_CHUNK_DRAWS; each one's dense
    # amplitudes are the MPS projections of the same stream's circuit, and its
    # frame potentials the direct double sum over pairs of outcomes
    seed, reals = 9, 70
    blocks = list(mps._oracle_blocks(case, seed, range(reals)))
    assert [len(b) for b in blocks] == [mps.MAX_CHUNK_DRAWS, reals - mps.MAX_CHUNK_DRAWS]
    amps = np.concatenate(blocks)
    refs = [mps_amplitudes(case, mps.stream(seed, r)) for r in range(reals)]
    for amp, ref in zip(amps, refs):
        assert np.abs(amp - ref).max() < 1e-12
    pairs = [(1, 0), (2, 0), (3, 0), (1, 1), (2, -1), (3, -2)]
    fp = mps.oracle_frame_potentials(case, seed, reals, pairs)
    assert fp.shape == (reals, len(pairs))
    for r in (0, 1, 63, 64, 69):
        cols = list(refs[r].T)
        p = [float(np.vdot(a, a).real) for a in cols]
        o2 = [[abs(np.vdot(a, b)) ** 2 for b in cols] for a in cols]
        for (k, n), got in zip(pairs, fp[r]):
            w = [pz**n for pz in p]
            direct = sum(
                w[z] * w[y] * o2[z][y] ** k for z in range(len(p)) for y in range(len(p))
            )
            assert got == pytest.approx(direct, rel=1e-12)


def test_oracle_takes_numpy_integer_counts():
    # a numpy count is a count, not a range of realizations
    circuit = mps.Circuit("staircase", 2, 2, 2, 2)
    pairs = [(1, 0), (2, -1)]
    want = mps.oracle_frame_potentials(circuit, 4, 3, pairs)
    assert want.shape == (3, len(pairs))
    assert np.array_equal(mps.oracle_frame_potentials(circuit, 4, np.int64(3), pairs), want)


def test_oracle_refuses_fractional_order_before_building(monkeypatch):
    # k = 1.5 was read as k = 1; it is refused before any dense state is built
    monkeypatch.setattr(mps, "_dense_amplitudes", no_dense_build)
    circuit = mps.Circuit("staircase", 2, 2, 2, 2)
    with pytest.raises(ValueError, match="must be an integer"):
        mps.oracle_frame_potentials(circuit, 0, 4, [(2, 0), (1.5, 0)])


@pytest.mark.parametrize("chi", [256, 32])
def test_project_batch_keeps_its_memory_bound(chi):
    # one forced-mode chunk of the criterion-3 circuit: the projection holds a
    # (draw, bond) stack, 64 x 256 entries at chi = 256, and one group of it
    # per outcome.  The peak stays near one CHUNK_ENTRIES block, and since
    # every product is a gemm the rows are the one-draw ones bit for bit
    state = mps.build_staircase(mps.Circuit("staircase", 6, 2, chi, 14), mps.stream(5))
    dims = [t.shape[1] for t, role in zip(state.tensors, state.roles) if role == "B"]
    outcomes = mps.stream(6).integers(0, dims, size=(64, len(dims)))
    tracemalloc.start()
    try:
        amps = mps._project_batch(state, outcomes)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * mps.CHUNK_ENTRIES * 16
    for i in (0, 1, 31, 32, 63):
        assert np.array_equal(amps[i], mps._project_batch(state, outcomes[i : i + 1])[0])


def test_born_product_state_deterministic():
    # |00...0> measured in its own basis: all-zero outcomes with probability 1
    e0 = np.zeros((1, 2, 1), dtype=complex)
    e0[0, 0, 0] = 1.0
    state = mps.MpsState([e0.copy(), e0.copy(), e0.copy()], ("A", "B", "B"))
    rec = oracles.born_sample(state, mps.stream(0))
    assert rec.outcomes == (0, 0)
    assert rec.probability == pytest.approx(1.0)
    assert np.allclose(rec.post_state, [1.0, 0.0])


@pytest.mark.parametrize(
    "roles", [("A", "B"), ("A", "B", "B", "B"), ("A", "X", "B")],
    ids=["one-short", "one-long", "unknown-role"],
)
def test_mps_state_refuses_roles_that_do_not_fit(roles):
    # the state checks its roles against its tensors, so no consumer meets a
    # state one site short or long, or a site neither kept nor measured
    e0 = np.zeros((1, 2, 1), dtype=complex)
    with pytest.raises(ShapeMismatchError, match="one role 'A' or 'B' per site"):
        mps.MpsState([e0, e0, e0], roles)


def test_born_refuses_a_state_with_no_measured_site():
    e0 = np.zeros((1, 2, 1), dtype=complex)
    e0[0, 0, 0] = 1.0
    with pytest.raises(PreconditionError, match="measured"):
        mps.BornSampler(mps.MpsState([e0, e0], ("A", "A")))


def test_born_probabilities_and_frequencies():
    circuit = mps.Circuit("staircase", 2, 2, 2, 2)
    state = mps.build_staircase(circuit, mps.stream(11))
    amps = mps._dense_amplitudes(circuit, mps.normals(mps.stream(11)))[0]
    exact = dict(zip(np.ndindex(circuit.outcome_dims), np.vecdot(amps, amps, axis=0).real))
    sampler = mps.BornSampler(state)
    chunk = mps.chunk_draws(state)
    rng = mps.stream(123, 5)
    n = 100_000
    # a batch consumes the stream exactly as successive single draws do
    counts = dict.fromkeys(exact, 0)
    for lo in range(0, n, chunk):
        batch = sampler.sample_batch(rng, min(chunk, n - lo))
        for outcomes, prob in zip(batch.outcomes.tolist(), batch.probabilities):
            counts[tuple(outcomes)] += 1
            assert abs(prob - exact[tuple(outcomes)]) <= 1e-10
    observed = np.array([counts[o] for o in exact])
    expected = np.array([n * exact[o] for o in exact])
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001


def test_born_post_state_matches_oracle_column():
    circuit = mps.Circuit("glued", 2, 2, 2)
    state = mps.build_glued(circuit, mps.stream(13))
    amps = mps._dense_amplitudes(circuit, mps.normals(mps.stream(13)))[0]
    sampler = mps.BornSampler(state)
    rng = mps.stream(77, 1)
    for _ in range(25):
        rec = oracles.sample(sampler, rng)
        col = amps[:, np.ravel_multi_index(rec.outcomes, circuit.outcome_dims)]
        col = col / np.linalg.norm(col)
        assert np.abs(rec.post_state - col).max() < 1e-10
        assert np.linalg.norm(rec.post_state) == pytest.approx(1.0, abs=1e-10)


# a draw count per state past the canonical threshold of every state built here
CANONICAL = 10**6


def gauge_transformed(state: mps.MpsState) -> mps.MpsState:
    """The same state with X X^-1 inserted on the bond left of its first B
    site, X = diag(0.5 .. 2): the amplitudes are unchanged, but the first B
    tensor is no longer right-canonical, so the right-canonical form has to
    gauge the sites instead of taking them as built."""
    i = state.roles.index("B")
    x = np.linspace(0.5, 2.0, state.tensors[i].shape[0])
    tensors = list(state.tensors)
    tensors[i - 1] = tensors[i - 1] * x
    tensors[i] = tensors[i] / x[:, None, None]
    return mps.MpsState(tensors, state.roles)


# (circuit, seed, draws, form, gauge-transformed) of the states the
# batched-sweep tests draw from: staircases, a glued chain, and a chi = 16
# staircase sampled past one MAX_SAMPLER_DRAWS chunk.  The form is the
# sampler's set-up: the staircases take the left-canonical form when told of
# CANONICAL draws and the right-canonical form otherwise, as built or, for a
# gauge-transformed copy of the state, gauged; the glued chain is gauged
STAIRCASE_4 = mps.Circuit("staircase", 3, 2, 4, 4)
STAIRCASE_16 = mps.Circuit("staircase", 2, 2, 16, 4)
BATCH_CASES = {
    "staircase": (STAIRCASE_4, 17, 40, "right-canonical", True),
    "glued": (mps.Circuit("glued", 3, 2, 2), 18, 40, "right-canonical", False),
    "staircase-chi16": (STAIRCASE_16, 19, 300, "right-canonical", True),
    "staircase-canonical": (STAIRCASE_4, 17, 40, "left-canonical", False),
    "staircase-chi16-canonical": (STAIRCASE_16, 19, 300, "left-canonical", False),
    "staircase-right-canonical": (STAIRCASE_4, 17, 40, "right-canonical", False),
    "staircase-chi16-right-canonical": (STAIRCASE_16, 19, 300, "right-canonical", False),
}
CASE_IDS = list(BATCH_CASES)


def exact_draws(circuit, seed):
    """The oracle's Born weight and normalized post-state by outcome string."""
    amps = mps._dense_amplitudes(circuit, mps.normals(mps.stream(seed)))[0].T
    p = np.vecdot(amps, amps).real
    return dict(zip(np.ndindex(circuit.outcome_dims), zip(p, amps / np.sqrt(p)[:, None])))


def batch_case(circuit, seed, form, transformed):
    """Sampler for the case plus the oracle's normalized posts and Born weights by outcome."""
    state = mps.build(circuit, mps.stream(seed))
    if transformed:
        state = gauge_transformed(state)
    sampler = mps.BornSampler(state, CANONICAL if form == "left-canonical" else 0)
    assert sampler.form == form
    return sampler, exact_draws(circuit, seed)


@pytest.mark.parametrize("case", BATCH_CASES.values(), ids=CASE_IDS)
def test_sample_batch_matches_successive_draws(case):
    # one batched sweep consumes the stream as n single draws do and returns
    # the same draws, each equal to the oracle's outcome weight and post-state
    circuit, seed, n, form, transformed = case
    sampler, exact = batch_case(circuit, seed, form, transformed)
    rng_batch, rng_single = mps.stream(5, 2), mps.stream(5, 2)
    batch = sampler.sample_batch(rng_batch, n)
    assert batch.outcomes.shape == (n, sampler.state.roles.count("B"))
    assert batch.probabilities.shape == (n,)
    assert batch.post_states.shape == (n, sampler.state.d_a)
    for i in range(n):
        rec = oracles.sample(sampler, rng_single)
        assert tuple(batch.outcomes[i]) == rec.outcomes
        assert abs(batch.probabilities[i] - rec.probability) < 1e-12
        assert np.abs(batch.post_states[i] - rec.post_state).max() < 1e-12
        p, post = exact[rec.outcomes]
        assert abs(batch.probabilities[i] - p) < 1e-12
        assert np.abs(batch.post_states[i] - post).max() < 1e-10
    assert rng_batch.random() == rng_single.random()


@pytest.mark.parametrize("case", BATCH_CASES.values(), ids=CASE_IDS)
def test_sample_batch_split_matches_whole(case):
    # batches of 13, then one whole chunk, then the rest draw what one batch
    # of all n does; at n = 300 the split crosses the 256-draw chunk boundary
    circuit, seed, n, form, transformed = case
    sampler, _ = batch_case(circuit, seed, form, transformed)
    chunk = mps.chunk_draws(sampler.state)
    bounds = sorted({0, 13, min(n, 13 + chunk), n})
    rng_split, rng_whole = mps.stream(6, 3), mps.stream(6, 3)
    parts = [sampler.sample_batch(rng_split, hi - lo) for lo, hi in zip(bounds, bounds[1:])]
    whole = sampler.sample_batch(rng_whole, n)
    split = mps.MeasurementBatch(*(np.concatenate(f) for f in zip(*parts)))
    assert np.array_equal(split.outcomes, whole.outcomes)
    assert np.abs(split.probabilities - whole.probabilities).max() < 1e-12
    assert np.abs(split.post_states - whole.post_states).max() < 1e-12
    assert rng_split.random() == rng_whole.random()


GUARD_CASES = ["staircase", "glued", "staircase-canonical", "staircase-right-canonical"]


@pytest.mark.parametrize("case", [BATCH_CASES[c] for c in GUARD_CASES], ids=GUARD_CASES)
@pytest.mark.parametrize(
    "scale,error,match",
    [
        (2.0, RuntimeError, "Born sweep inconsistency"),
        (0.0, PreconditionError, "vanishing marginal mass"),
    ],
)
def test_sample_batch_guards_catch_a_stale_environment(case, scale, error, match):
    # the left-canonical form checks the second B site from the right first
    # against the mass drawn at its right neighbour: scaling the operand it
    # reads breaks that agreement, zeroing it leaves no mass.  The
    # right-canonical form checks every site against the mass drawn left of
    # it, so scaling the same site's tensor, as built or gauged, trips it too
    circuit, seed, _, form, transformed = case
    sampler, _ = batch_case(circuit, seed, form, transformed)
    site = [i for i, role in enumerate(sampler.state.roles) if role == "B"][-2]
    steps = sampler._sweep.steps
    step = [s for _, s in steps].index(site)
    steps[step] = (steps[step][0] * scale, site)
    with pytest.raises(error, match=match):
        sampler.sample_batch(mps.stream(0), 8)


# staircase shapes where the forms must agree: D_A below and above chi, d = 3,
# and a single measured site
FORM_CIRCUITS = [
    mps.Circuit("staircase", 2, 2, 8, 3),
    mps.Circuit("staircase", 4, 2, 4, 3),
    mps.Circuit("staircase", 2, 3, 4, 3),
    mps.Circuit("staircase", 3, 2, 4, 1),
]
FORM_IDS = ["d_a-below-chi", "d_a-above-chi", "d3", "n_b1"]


@pytest.mark.parametrize("circuit", FORM_CIRCUITS, ids=FORM_IDS)
def test_gauged_and_built_forms_draw_alike(circuit):
    # a gauge-transformed copy of a staircase has the same amplitudes, and the
    # right-canonical form gauges it back: from one stream it draws the
    # outcomes the as-built state draws, and their weights and post-states
    # agree to rounding
    state = mps.build(circuit, mps.stream(21))
    gauged, built = mps.BornSampler(gauge_transformed(state)), mps.BornSampler(state)
    assert gauged.form == built.form == "right-canonical"
    operands = [op for op, _ in built._sweep.steps]
    assert all(a is b for a, b in zip(operands, state.tensors[built._first_b :]))
    rng_gauged, rng_built = mps.stream(8, 1), mps.stream(8, 1)
    a, b = gauged.sample_batch(rng_gauged, 200), built.sample_batch(rng_built, 200)
    assert np.array_equal(a.outcomes, b.outcomes)
    assert np.abs(a.probabilities - b.probabilities).max() < 1e-12
    assert np.abs(a.post_states - b.post_states).max() < 1e-12
    assert rng_gauged.random() == rng_built.random()


def kept_at_both_ends(seed: int) -> mps.MpsState:
    """A normalized state with random tensors in the A B A B A layout: kept
    sites before, between and after the measured ones."""
    rng = np.random.default_rng(seed)
    roles = ("A", "B", "A", "B", "A")
    bonds = [1, 3, 3, 3, 3, 1]
    tensors = [
        rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        + 1j * rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        for i in range(len(roles))
    ]
    tensors[0] /= np.sqrt(oracles.norm_squared(mps.MpsState(tensors, roles)))
    return mps.MpsState(tensors, roles)


def enumerated_draws(state: mps.MpsState):
    """The einsum oracle's Born weight and normalized post-state by outcome string."""
    dims = [t.shape[1] for t, role in zip(state.tensors, state.roles) if role == "B"]
    out = {}
    for z in np.ndindex(*dims):
        amp = oracles.projected_amplitude(state, z)
        p = float(np.vdot(amp, amp).real)
        out[z] = (p, amp / np.sqrt(p))
    return out


# the enumeration cases: the staircase shapes, two glued chains and the A B A
# B A layout, each with its state and exact draws by outcome
ENUM_CASES = [(c, 21) for c in FORM_CIRCUITS] + [
    (mps.Circuit("glued", 2, 2, 2), 21),
    (mps.Circuit("glued", 3, 2, 2), 21),
    (None, 3),
]
ENUM_IDS = FORM_IDS + ["glued-2", "glued-3", "kept-at-both-ends"]


@pytest.mark.parametrize("circuit,seed", ENUM_CASES, ids=ENUM_IDS)
def test_right_canonical_form_matches_enumeration(circuit, seed):
    # each draw's weight and post-state are the oracle's for its outcome, and
    # the outcomes follow the exact Born distribution (20,000 draws)
    if circuit is None:
        state = kept_at_both_ends(seed)
        exact = enumerated_draws(state)
    else:
        state = mps.build(circuit, mps.stream(seed))
        exact = exact_draws(circuit, seed)
    sampler = mps.BornSampler(state)
    assert sampler.form == "right-canonical"
    rng, chunk, n = mps.stream(8, 1), mps.chunk_draws(state), 20_000
    counts = dict.fromkeys(exact, 0)
    for lo in range(0, n, chunk):
        batch = sampler.sample_batch(rng, min(chunk, n - lo))
        for outcome, p, post in zip(*batch):
            p_exact, post_exact = exact[tuple(outcome.tolist())]
            assert abs(p - p_exact) < 1e-12
            assert np.abs(post - post_exact).max() < 1e-10
            counts[tuple(outcome.tolist())] += 1
    observed = np.array(list(counts.values()))
    expected = n * np.array([p for p, _ in exact.values()])
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001


def hand_built_staircase(seed: int) -> mps.MpsState:
    """A normalized state with random tensors in the staircase's A B B layout."""
    rng = np.random.default_rng(seed)
    shapes = [(1, 2, 2), (2, 2, 2), (2, 3, 1)]
    tensors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    tensors[0] /= np.sqrt(oracles.norm_squared(mps.MpsState(tensors, ("A", "B", "B"))))
    return mps.MpsState(tensors, ("A", "B", "B"))


def test_right_canonical_form_choice():
    # a staircase the builder made with Haar gates certifies its gauge and is
    # sampled as built; a gauge-transformed, a normalized Gaussian, a
    # hand-built and a glued state do not, and are gauged
    def as_built(sampler):
        sites = sampler.state.tensors[sampler._first_b :]
        assert sampler.form == "right-canonical"
        return all(a is b for (a, _), b in zip(sampler._sweep.steps, sites))

    for circuit in FORM_CIRCUITS:
        state = mps.build(circuit, mps.stream(4))
        assert as_built(mps.BornSampler(state))
        assert not as_built(mps.BornSampler(gauge_transformed(state)))
    gauss = mps.build(mps.Circuit("staircase", 2, 2, 4, 3, gaussian()), mps.stream(4))
    gauss.tensors[0] = gauss.tensors[0] / np.sqrt(oracles.norm_squared(gauss))
    assert abs(oracles.norm_squared(gauss) - 1.0) < 1e-12
    assert not as_built(mps.BornSampler(gauss))
    assert not as_built(mps.BornSampler(hand_built_staircase(5)))
    glued = mps.build(mps.Circuit("glued", 2, 2, 2), mps.stream(4))
    assert not as_built(mps.BornSampler(glued))


def test_right_canonical_certificate_is_as_strict_as_the_norm_check():
    # one B tensor scaled by 1 + 1e-7 moves <psi|psi> by 2e-7, past NORM_TOL:
    # the certificate fails, and the gauged state's norm check refuses it
    state = mps.build(mps.Circuit("staircase", 2, 2, 4, 3), mps.stream(4))
    state.tensors[3] = state.tensors[3] * (1 + 1e-7)
    with pytest.raises(PreconditionError, match="normalized"):
        mps.BornSampler(state)


@pytest.mark.parametrize("draws", [None, -5, 2.5, "300"])
def test_born_sampler_refuses_a_draw_count_that_is_not_a_count(draws):
    state = mps.build(mps.Circuit("staircase", 2, 2, 2, 2), mps.stream(0))
    with pytest.raises(ValueError, match="draws per state"):
        mps.BornSampler(state, draws)
    assert mps.BornSampler(state, np.int64(300)).form == "left-canonical"


def test_canonical_form_rule():
    # the left-canonical form from CANON_MIN_DRAWS = 256 draws per state, and
    # from CANON_DRAWS_PER_BOND = 4 per unit of region B's largest bond: 256
    # at bonds 8 and 32, 1,024 at bond 256; below it the right-canonical form.
    # So the staircase-draws benchmark shape (2,000 draws, bond 32) takes the
    # left-canonical form, and the staircase-states shape (20 draws, bond
    # 256) and criterion 3 (500 draws) the right-canonical one
    assert (mps.CANON_MIN_DRAWS, mps.CANON_DRAWS_PER_BOND) == (256, 4)
    for chi in (8, 32):
        state = mps.build(mps.Circuit("staircase", 6, 2, chi, 14), mps.stream(1))
        for draws, canonical in ((2000, True), (256, True), (255, False), (0, False)):
            form = mps.BornSampler(state, draws).form
            assert form == ("left-canonical" if canonical else "right-canonical")
    states_shape = mps.build(mps.Circuit("staircase", 6, 2, 256, 14), mps.stream(1))
    for draws, canonical in ((20, False), (500, False), (1023, False), (1024, True)):
        form = mps.BornSampler(states_shape, draws).form
        assert form == ("left-canonical" if canonical else "right-canonical")
    # a kept site right of a measured one (glued) takes the right-canonical form
    glued = mps.build(mps.Circuit("glued", 2, 2, 2), mps.stream(1))
    assert mps.BornSampler(glued, CANONICAL).form == "right-canonical"


@pytest.mark.parametrize(
    "setup, draws, form",
    [
        ("staircase", 0, "right-canonical"),
        ("glued", 0, "right-canonical"),
        ("staircase", CANONICAL, "left-canonical"),
    ],
    ids=["as-built", "gauged", "left-canonical"],
)
def test_dropped_sampler_is_freed_by_reference_counting(setup, draws, form):
    # a set-up stores data, not a closure over the sampler, so no reference
    # cycle keeps a dropped sampler (and its state) alive until the cyclic
    # collector runs
    state = mps.build(mps.Circuit(setup, 2, 2, 2, 3 if setup == "staircase" else None),
                      mps.stream(1))
    sampler = mps.BornSampler(state, draws)
    assert sampler.form == form
    sampler.sample_batch(mps.stream(2), 4)
    ref = weakref.ref(sampler)
    enabled = gc.isenabled()
    gc.disable()
    try:
        del sampler
        assert ref() is None
    finally:
        if enabled:
            gc.enable()


def test_singular_cut_takes_the_right_canonical_form():
    # a hand-built state whose second cut direction carries nothing has a
    # singular Gram at the cut, so no Cholesky factor: the sampler falls back
    # to the right-canonical form, whose Householder gauge needs no full
    # rank, and still draws exact Born weights
    rng = np.random.default_rng(5)
    shapes = [(1, 2, 2), (2, 2, 2), (2, 3, 1)]
    tensors = [rng.standard_normal(s) + 1j * rng.standard_normal(s) for s in shapes]
    tensors[0][:, :, 1] = 0.0
    tensors[0] /= np.sqrt(oracles.norm_squared(mps.MpsState(tensors, ("A", "B", "B"))))
    state = mps.MpsState(tensors, ("A", "B", "B"))
    sampler = mps.BornSampler(state, CANONICAL)
    assert sampler.form == "right-canonical"
    batch = sampler.sample_batch(mps.stream(2), 30)
    for outcome, p in zip(batch.outcomes, batch.probabilities):
        assert p == pytest.approx(oracles.born_probability(state, outcome), abs=1e-12)


def test_chunk_draws_bounds():
    # the sampler takes up to MAX_SAMPLER_DRAWS draws per chunk, fewer once a
    # draw's widest row (d chi = 512 at chi = 256) times the draws passes
    # CHUNK_ENTRIES; oracle stacks keep MAX_CHUNK_DRAWS realizations
    assert (mps.MAX_SAMPLER_DRAWS, mps.MAX_CHUNK_DRAWS) == (256, 64)
    for chi, want in ((32, 256), (256, 128)):
        circuit = mps.Circuit("staircase", 6, 2, chi, 14)
        state = mps.build(circuit, mps.stream(5))
        assert mps.chunk_draws(state) == want
    glued = mps.Circuit("glued", 6, 2, 3)
    assert mps.chunk_draws(mps.build(glued, mps.stream(0))) == 256
    stacks = mps._oracle_blocks(mps.Circuit("staircase", 2, 2, 2, 2), 0, range(100))
    assert [len(amps) for amps in stacks] == [64, 36]


def test_sample_batch_kept_sites_at_both_ends():
    # kept sites before, between and after the measured ones: each draw's
    # weight and post-state must match the einsum oracle's projection
    state = kept_at_both_ends(3)
    batch = mps.BornSampler(state).sample_batch(mps.stream(4), 30)
    for outcome, p, post in zip(*batch):
        amp = oracles.projected_amplitude(state, outcome)
        assert p == pytest.approx(oracles.born_probability(state, outcome), abs=1e-12)
        assert np.abs(post - amp / np.linalg.norm(amp)).max() < 1e-12


def test_born_rejects_unnormalized():
    # both set-ups check <psi|psi>: the right-canonical form as ||F||^2 after
    # gauging, the left-canonical form at its last Gram
    state = mps.build_staircase(mps.Circuit("staircase", 2, 2, 2, 2, gaussian()),
                                mps.stream(3))
    with pytest.raises(PreconditionError):
        oracles.born_sample(state, mps.stream(0))
    with pytest.raises(PreconditionError, match="normalized"):
        mps.BornSampler(state, CANONICAL)
    # a NaN entry makes <psi|psi> NaN, which no comparison with 1 passes
    state = mps.build_staircase(mps.Circuit("staircase", 2, 2, 2, 2), mps.stream(3))
    state.tensors[-2][0, 0, 0] = np.nan
    for draws in (0, CANONICAL):
        with pytest.raises(PreconditionError, match="nan"):
            mps.BornSampler(state, draws)


def test_gaussian_states_not_renormalized():
    circuit = mps.Circuit("staircase", 2, 2, 2, 2, gaussian())
    state = mps.build_staircase(circuit, mps.stream(3))
    nsq = oracles.norm_squared(state)
    assert abs(nsq - 1.0) > 1e-8  # generically unnormalized
    outcomes = np.ndindex(circuit.outcome_dims)
    total = sum(oracles.born_probability(state, z) for z in outcomes)
    assert total == pytest.approx(nsq, abs=1e-10)


def test_overlap():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert oracles.overlap(a, a) == pytest.approx(1.0)
    assert oracles.overlap(a, b) == 0.0
    assert oracles.overlap(np.array([1j, 0]), np.array([1j, 0])) == pytest.approx(1.0)
    with pytest.raises(ShapeMismatchError):
        oracles.overlap(np.ones(2), np.ones(3))


def test_oracle_purity_identity():
    # the oracle's Born probabilities sum to 1, and F^(1,0) is the purity of rho_A
    circuit = mps.Circuit("staircase", 2, 2, 2, 2)
    for seed in (9, 10):
        amps = mps._dense_amplitudes(circuit, mps.normals(mps.stream(seed)))[0]
        assert np.vecdot(amps, amps, axis=0).real.sum() == pytest.approx(1.0, abs=1e-12)
        rho = amps @ amps.conj().T
        f1 = mps.oracle_frame_potentials(circuit, seed, range(1), [(1, 0)])[0, 0]
        assert f1 == pytest.approx(float(np.trace(rho @ rho).real), abs=1e-10)


def test_generalized_frame_potential_zero_probability_outcome():
    # an outcome of probability 0 weighs 0, also at n = 1 - k < 0 where p^n
    # would diverge; the value is the Born sum over normalized post-states
    amps = np.array([[0.6, 0.0, 0.48], [0.0, 0.0, 0.64]], dtype=complex)
    p0, p2, o2 = 0.36, 0.64, 0.36
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = mps._frame_potentials(amps[None], [(2, -1)])[0, 0]
    assert val == pytest.approx(p0**2 + p2**2 + 2 * p0 * p2 * o2**2, rel=1e-12)


def test_oracle_size_caps(monkeypatch):
    # both caps refuse before any dense state is built
    monkeypatch.setattr(mps, "_dense_amplitudes", no_dense_build)
    with pytest.raises(SizeLimitError, match="oracle dimension"):
        mps.oracle_frame_potentials(mps.Circuit("staircase", 20, 2, 4, 10), 0, 1, [(1, 0)])
    with pytest.raises(SizeLimitError, match="outcome space"):
        # the full state fits, but the outcome space is too large to enumerate
        mps.oracle_frame_potentials(mps.Circuit("staircase", 2, 2, 2, 13), 0, 1, [(1, 0)])

