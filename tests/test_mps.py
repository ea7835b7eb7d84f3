"""MPS builder, Born-sampling, and dense-oracle tests.

The statevector oracle and the MPS path share gate draws, so identically
seeded streams must realize the same state; that makes per-outcome equality
checks exact rather than statistical.
"""

import warnings

import numpy as np
import pytest
from scipy import stats

from rmpslab import mps
from rmpslab.errors import PreconditionError, ShapeMismatchError, SizeLimitError
from rmpslab.weingarten import HAAR, gaussian


def test_haar_unitary_unitarity():
    rng = mps.stream(1)
    u = mps.haar_unitary(64, rng)
    assert np.abs(u @ u.conj().T - np.eye(64)).max() < 1e-12
    scalar = mps.haar_unitary(1, rng)
    assert abs(abs(scalar[0, 0]) - 1) < 1e-12


def test_haar_unitary_first_moment():
    # E |U_00|^2 = 1/q for Haar; Monte-Carlo check at q = 4
    rng = mps.stream(2)
    n = 100_000
    vals = np.empty(n)
    for i in range(n):
        z = (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))) / np.sqrt(2)
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        vals[i] = abs((q / (d / np.abs(d))[None, :])[0, 0]) ** 2
    se = vals.std(ddof=1) / np.sqrt(n)
    assert abs(vals.mean() - 0.25) < 3 * se


def test_stream_reproducible_and_split():
    a = mps.stream(7, 3).standard_normal(4)
    b = mps.stream(7, 3).standard_normal(4)
    c = mps.stream(7, 4).standard_normal(4)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_build_staircase_structure():
    state, layout = mps.build_staircase(3, 4, 2, 4, HAAR, mps.stream(1))
    assert state.phys_dims == (2, 2, 2, 2, 2, 2, 4)
    assert layout.site_roles == ("A",) * 3 + ("B",) * 4
    assert [t.shape for t in state.tensors][0] == (1, 2, 4)
    assert all(t.shape[0] == 4 for t in state.tensors[1:])
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_build_glued_structure():
    state, layout = mps.build_glued(3, 2, 2, HAAR, mps.stream(2))
    assert state.phys_dims == (4, 2, 4, 2, 4, 2, 4)
    assert layout.site_roles == ("B", "A", "B", "A", "B", "A", "B")
    assert layout.n_b == 4
    assert state.norm_squared() == pytest.approx(1.0, abs=1e-10)


def test_build_validation():
    with pytest.raises(ShapeMismatchError):
        mps.build_staircase(0, 2, 2, 2)
    with pytest.raises(ShapeMismatchError):
        mps.build_staircase(2, 2, 1, 2)
    with pytest.raises(ShapeMismatchError):
        mps.build_glued(1, 2, 0)


@pytest.mark.parametrize(
    "setup,kwargs",
    [
        ("staircase", dict(n_a=2, n_b=2, d=2, chi=2)),
        ("staircase", dict(n_a=2, n_b=3, d=3, chi=2)),
        ("staircase", dict(n_a=1, n_b=1, d=2, chi=3)),
        ("glued", dict(n_a=2, d=2, chi=2)),
        ("glued", dict(n_a=3, d=2, chi=2)),
    ],
)
def test_mps_matches_oracle_per_outcome(setup, kwargs):
    seed = 11
    if setup == "staircase":
        state, layout = mps.build_staircase(kind=HAAR, rng=mps.stream(seed), **kwargs)
        ens = mps.statevector_oracle(
            setup, kwargs["n_a"], kwargs["n_b"], kwargs["d"], kwargs["chi"], HAAR, mps.stream(seed)
        )
    else:
        state, layout = mps.build_glued(kind=HAAR, rng=mps.stream(seed), **kwargs)
        ens = mps.statevector_oracle(
            setup, kwargs["n_a"], None, kwargs["d"], kwargs["chi"], HAAR, mps.stream(seed)
        )
    p = ens.probabilities
    assert p.sum() == pytest.approx(1.0, abs=1e-12)
    for z in range(ens.amplitudes.shape[1]):
        zt = ens.outcome_tuple(z)
        amp = mps.project_outcomes(state, layout, zt)
        assert np.abs(amp - ens.amplitudes[:, z]).max() < 1e-12
        assert mps.born_probability(state, layout, zt) == pytest.approx(float(p[z]), abs=1e-12)


def test_born_product_state_deterministic():
    # |00...0> measured in its own basis: all-zero outcomes with probability 1
    e0 = np.zeros((1, 2, 1), dtype=complex)
    e0[0, 0, 0] = 1.0
    state = mps.MpsState([e0.copy(), e0.copy(), e0.copy()])
    layout = mps.RegionLayout(("A", "B", "B"), "staircase", 1, 2)
    rec = mps.born_sample(state, layout, mps.stream(0))
    assert rec.outcomes == (0, 0)
    assert rec.probability == pytest.approx(1.0)
    assert np.allclose(rec.post_state, [1.0, 0.0])


def test_born_probabilities_and_frequencies():
    state, layout = mps.build_staircase(2, 2, 2, 2, HAAR, mps.stream(11))
    ens = mps.statevector_oracle("staircase", 2, 2, 2, 2, HAAR, mps.stream(11))
    exact = {ens.outcome_tuple(z): float(p) for z, p in enumerate(ens.probabilities)}
    sampler = mps.BornSampler(state, layout)
    rng = mps.stream(123, 5)
    n = 100_000
    counts = dict.fromkeys(exact, 0)
    for _ in range(n):
        rec = sampler.sample(rng)
        counts[rec.outcomes] += 1
        assert rec.probability == pytest.approx(exact[rec.outcomes], abs=1e-10)
    observed = np.array([counts[o] for o in exact])
    expected = np.array([n * exact[o] for o in exact])
    _, pvalue = stats.chisquare(observed, expected)
    assert pvalue > 0.001


def test_born_post_state_matches_oracle_column():
    state, layout = mps.build_glued(2, 2, 2, HAAR, mps.stream(13))
    ens = mps.statevector_oracle("glued", 2, None, 2, 2, HAAR, mps.stream(13))
    cols = {ens.outcome_tuple(z): z for z in range(ens.amplitudes.shape[1])}
    sampler = mps.BornSampler(state, layout)
    rng = mps.stream(77, 1)
    for _ in range(25):
        rec = sampler.sample(rng)
        col = ens.amplitudes[:, cols[rec.outcomes]]
        col = col / np.linalg.norm(col)
        assert np.abs(rec.post_state - col).max() < 1e-10
        assert np.linalg.norm(rec.post_state) == pytest.approx(1.0, abs=1e-10)


# (setup, N_A, N_B, d, chi, seed) of the states the batched-sweep tests draw from
BATCH_CASES = [("staircase", 3, 4, 2, 4, 17), ("glued", 3, None, 2, 2, 18)]


def batch_case(setup, n_a, n_b, d, chi, seed):
    """Sampler for the case plus the oracle's normalized posts and Born weights by outcome."""
    if setup == "staircase":
        state, layout = mps.build_staircase(n_a, n_b, d, chi, HAAR, mps.stream(seed))
    else:
        state, layout = mps.build_glued(n_a, d, chi, HAAR, mps.stream(seed))
    ens = mps.statevector_oracle(setup, n_a, n_b, d, chi, HAAR, mps.stream(seed))
    exact = {outcome: (p, post) for outcome, p, post in ens.triples()}
    return mps.BornSampler(state, layout), exact


@pytest.mark.parametrize("case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_sample_batch_matches_successive_draws(case):
    # one batched sweep consumes the stream as n single draws do and returns
    # the same draws, each equal to the oracle's outcome weight and post-state
    sampler, exact = batch_case(*case)
    n = 40
    rng_batch, rng_single = mps.stream(5, 2), mps.stream(5, 2)
    batch = sampler.sample_batch(rng_batch, n)
    assert batch.outcomes.shape == (n, sampler.layout.n_b)
    assert batch.probabilities.shape == (n,)
    assert batch.post_states.shape == (n, sampler.d_a)
    for i in range(n):
        rec = sampler.sample(rng_single)
        assert tuple(batch.outcomes[i]) == rec.outcomes
        assert abs(batch.probabilities[i] - rec.probability) < 1e-12
        assert np.abs(batch.post_states[i] - rec.post_state).max() < 1e-12
        p, post = exact[rec.outcomes]
        assert abs(batch.probabilities[i] - p) < 1e-12
        assert np.abs(batch.post_states[i] - post).max() < 1e-10
    assert rng_batch.random() == rng_single.random()


@pytest.mark.parametrize("case", BATCH_CASES, ids=[c[0] for c in BATCH_CASES])
def test_sample_batch_split_matches_whole(case):
    sampler, _ = batch_case(*case)
    rng_split, rng_whole = mps.stream(6, 3), mps.stream(6, 3)
    first = sampler.sample_batch(rng_split, 13)
    second = sampler.sample_batch(rng_split, 27)
    whole = sampler.sample_batch(rng_whole, 40)
    assert np.array_equal(np.concatenate([first.outcomes, second.outcomes]), whole.outcomes)
    assert rng_split.random() == rng_whole.random()


def test_sample_batch_kept_sites_at_both_ends():
    # a layout whose rightmost site is kept starts the sweep in density mode;
    # each draw's weight and post-state must match its exact projection
    rng = np.random.default_rng(3)
    roles = ("A", "B", "A", "B", "A")
    bonds = [1, 3, 3, 3, 3, 1]
    tensors = [
        rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        + 1j * rng.standard_normal((bonds[i], 2, bonds[i + 1]))
        for i in range(len(roles))
    ]
    tensors[0] /= np.sqrt(mps.MpsState(tensors).norm_squared())
    state = mps.MpsState(tensors)
    layout = mps.RegionLayout(roles, "custom", 3, 2)
    batch = mps.BornSampler(state, layout).sample_batch(mps.stream(4), 30)
    for outcome, p, post in zip(batch.outcomes, batch.probabilities, batch.post_states):
        amp = mps.project_outcomes(state, layout, outcome)
        assert p == pytest.approx(mps.born_probability(state, layout, outcome), abs=1e-12)
        assert np.abs(post - amp / np.linalg.norm(amp)).max() < 1e-12


def test_born_rejects_unnormalized():
    state, layout = mps.build_staircase(2, 2, 2, 2, gaussian(), mps.stream(3))
    with pytest.raises(PreconditionError):
        mps.born_sample(state, layout, mps.stream(0))


def test_gaussian_states_not_renormalized():
    state, layout = mps.build_staircase(2, 2, 2, 2, gaussian(), mps.stream(3))
    nsq = state.norm_squared()
    assert abs(nsq - 1.0) > 1e-8  # generically unnormalized
    total = sum(
        mps.born_probability(state, layout, mps.statevector_oracle(
            "staircase", 2, 2, 2, 2, gaussian(), mps.stream(3)).outcome_tuple(z))
        for z in range(4)
    )
    assert total == pytest.approx(nsq, abs=1e-10)


def test_overlap():
    a = np.array([1.0, 0.0])
    b = np.array([0.0, 1.0])
    assert mps.overlap(a, a) == pytest.approx(1.0)
    assert mps.overlap(a, b) == 0.0
    assert mps.overlap(np.array([1j, 0]), np.array([1j, 0])) == pytest.approx(1.0)
    with pytest.raises(ShapeMismatchError):
        mps.overlap(np.ones(2), np.ones(3))


def test_oracle_purity_identity():
    for seed in (9, 10):
        ens = mps.statevector_oracle("staircase", 2, 2, 2, 2, HAAR, mps.stream(seed))
        rho = ens.amplitudes @ ens.amplitudes.conj().T
        assert ens.frame_potential(1) == pytest.approx(float(np.trace(rho @ rho).real), abs=1e-10)


def test_generalized_frame_potential_zero_probability_outcome():
    # an outcome of probability 0 weighs 0, also at n = 1 - k < 0 where p^n
    # would diverge; the value is the Born sum over normalized post-states
    amps = np.array([[0.6, 0.0, 0.48], [0.0, 0.0, 0.64]], dtype=complex)
    ens = mps.ProjectedEnsemble(amps, (3,))
    p0, p2, o2 = 0.36, 0.64, 0.36
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        val = ens.frame_potential(2)
    assert val == pytest.approx(p0**2 + p2**2 + 2 * p0 * p2 * o2**2, rel=1e-12)


def test_oracle_triples_and_posts():
    ens = mps.statevector_oracle("staircase", 2, 2, 2, 2, HAAR, mps.stream(4))
    total = 0.0
    for outcome, p, post in ens.triples():
        assert len(outcome) == 2
        assert np.linalg.norm(post) == pytest.approx(1.0, abs=1e-10)
        total += p
    assert total == pytest.approx(1.0, abs=1e-12)


def test_oracle_size_caps():
    with pytest.raises(SizeLimitError):
        mps.statevector_oracle("staircase", 20, 10, 2, 4, HAAR, mps.stream(0))
    with pytest.raises(SizeLimitError):
        # the full state fits, but the outcome space is too large to enumerate
        mps.statevector_oracle("staircase", 2, 13, 2, 2, HAAR, mps.stream(0))


def test_dump_load_roundtrip(tmp_path):
    state, layout = mps.build_glued(2, 2, 2, HAAR, mps.stream(5))
    path = tmp_path / "state.npz"
    mps.dump_state(path, state, layout)
    state2, layout2 = mps.load_state(path)
    assert layout2 == layout
    for t1, t2 in zip(state.tensors, state2.tensors):
        assert np.array_equal(t1, t2)
