"""MPS builder, Born-sampling, and dense-oracle tests.

The dense oracle and the MPS path share gate draws, so identically seeded
streams must realize the same state; that makes per-outcome equality checks
exact rather than statistical.
"""

import itertools
import math
import tracemalloc
import warnings

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
    # one forced-mode chunk of the criterion-3 circuit: at chi = 256 one row's
    # gathered 256 x 256 B tensor alone is CHUNK_ENTRIES entries, so rows go one
    # by one; at chi = 32 the 64 rows go in two groups.  Either way the peak
    # stays near one CHUNK_ENTRIES block and the rows are the one-draw ones
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


# (circuit, seed, draws) of the states the batched-sweep tests draw from: a
# vector-mode (staircase) and a density-mode (glued) sweep, and a chi = 16
# staircase sampled past one MAX_SAMPLER_DRAWS chunk
BATCH_CASES = [
    (mps.Circuit("staircase", 3, 2, 4, 4), 17, 40),
    (mps.Circuit("glued", 3, 2, 2), 18, 40),
    (mps.Circuit("staircase", 2, 2, 16, 4), 19, 300),
]
BATCH_IDS = ["staircase", "glued", "staircase-chi16"]


def batch_case(circuit, seed):
    """Sampler for the case plus the oracle's normalized posts and Born weights by outcome."""
    state = mps.build(circuit, mps.stream(seed))
    amps = mps._dense_amplitudes(circuit, mps.normals(mps.stream(seed)))[0].T
    p = np.vecdot(amps, amps).real
    exact = dict(zip(np.ndindex(circuit.outcome_dims), zip(p, amps / np.sqrt(p)[:, None])))
    return mps.BornSampler(state), exact


@pytest.mark.parametrize("case", BATCH_CASES, ids=BATCH_IDS)
def test_sample_batch_matches_successive_draws(case):
    # one batched sweep consumes the stream as n single draws do and returns
    # the same draws, each equal to the oracle's outcome weight and post-state
    circuit, seed, n = case
    sampler, exact = batch_case(circuit, seed)
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


@pytest.mark.parametrize("case", BATCH_CASES, ids=BATCH_IDS)
def test_sample_batch_split_matches_whole(case):
    # batches of 13, then one whole chunk, then the rest draw what one batch
    # of all n does; at n = 300 the split crosses the 256-draw chunk boundary
    circuit, seed, n = case
    sampler, _ = batch_case(circuit, seed)
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


@pytest.mark.parametrize("case", BATCH_CASES[:2], ids=BATCH_IDS[:2])
@pytest.mark.parametrize(
    "scale,error,match",
    [
        (2.0, RuntimeError, "Born sweep inconsistency"),
        (0.0, PreconditionError, "vanishing marginal mass"),
    ],
)
def test_sample_batch_guards_catch_a_stale_environment(case, scale, error, match):
    # the second B site of the sweep is the first whose marginal is checked
    # against the mass drawn at its right neighbour: scaling the environment
    # it reads (vector mode: the traced left density; density mode: the
    # traced kernel) breaks that agreement, zeroing it leaves no mass
    circuit, seed, _ = case
    sampler, _ = batch_case(circuit, seed)
    site = [i for i, role in enumerate(sampler.state.roles) if role == "B"][-2]
    env = sampler._left if circuit.setup == "staircase" else sampler._kernel
    env[site] = env[site] * scale
    with pytest.raises(error, match=match):
        sampler.sample_batch(mps.stream(0), 8)


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
    # a state whose rightmost site is kept starts the sweep in density mode;
    # each draw's weight and post-state must match its exact projection
    rng = np.random.default_rng(3)
    roles = ("A", "B", "A", "B", "A")
    bonds = [1, 3, 3, 3, 3, 1]
    tensors = [
        rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        + 1j * rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        for i in range(len(roles))
    ]
    tensors[0] /= np.sqrt(oracles.norm_squared(mps.MpsState(tensors, roles)))
    state = mps.MpsState(tensors, roles)
    batch = mps.BornSampler(state).sample_batch(mps.stream(4), 30)
    amps = mps._project_batch(state, batch.outcomes)
    for outcome, p, post, amp in zip(*batch, amps):
        assert p == pytest.approx(oracles.born_probability(state, outcome), abs=1e-12)
        assert np.abs(post - amp / np.linalg.norm(amp)).max() < 1e-12


def test_born_rejects_unnormalized():
    state = mps.build_staircase(mps.Circuit("staircase", 2, 2, 2, 2, gaussian()),
                                mps.stream(3))
    with pytest.raises(PreconditionError):
        oracles.born_sample(state, mps.stream(0))


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

