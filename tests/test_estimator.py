"""Monte-Carlo estimator tests: consistency with the exact engine, errors."""

import dataclasses
import math

import numpy as np
import pytest

from rmpslab import estimator as es
from rmpslab import mps
from rmpslab import replica as rp
from rmpslab.errors import PreconditionError, SizeLimitError
from rmpslab.weingarten import gaussian

import oracles

# oracle references draw their states from a stream of their own, independent
# of the Born runs they are compared with
ORACLE_SEED = 114


def tiny_born_config(**over):
    base = dict(
        setup="staircase", n_a=2, n_b=2, d=2, chi=2, k_max=2,
        pairs_per_state=40, realizations=200, seed=11,
    )
    base.update(over)
    return es.EnsembleConfig(**base)


def test_config_validation():
    with pytest.raises(PreconditionError):
        tiny_born_config(kind=gaussian())
    with pytest.raises(ValueError):
        tiny_born_config(setup="glued", n_b=5)
    with pytest.raises(ValueError):
        es.EnsembleConfig(setup="staircase", n_a=2, d=2, chi=2)  # missing N_B
    with pytest.raises(ValueError):
        tiny_born_config(pair_mode="both")
    # the circuit input rule holds at construction, not first inside a realization
    with pytest.raises(ValueError, match="need chi >= 1"):
        es.EnsembleConfig(setup="staircase", n_a=0, n_b=2, d=1, chi=0)
    cfg = es.EnsembleConfig(setup="glued", n_a=3, d=2, chi=2)
    assert cfg.n_b == 4
    assert cfg.outcome_cardinality == 4**4
    assert tiny_born_config().outcome_cardinality == 2 * 2


@pytest.mark.parametrize("mode", ["born", "forced"])
def test_config_refuses_runs_that_cannot_sample(mode):
    # a pool of one draw has no pair, a pool past MAX_POOLED_DRAWS would hold
    # too large a Gram matrix, and a kept region past the sampler's cap cannot
    # be sampled: all are refused before any state is built
    with pytest.raises(ValueError, match="pairs_per_state"):
        tiny_born_config(sampling_mode=mode, pair_mode="pooled", pairs_per_state=1)
    tiny_born_config(sampling_mode=mode, pair_mode="pooled", pairs_per_state=2)
    cap = es.MAX_POOLED_DRAWS
    assert cap == 2048
    with pytest.raises(SizeLimitError, match="--pairs"):
        tiny_born_config(sampling_mode=mode, pair_mode="pooled", pairs_per_state=cap + 1)
    tiny_born_config(sampling_mode=mode, pair_mode="pooled", pairs_per_state=cap)
    tiny_born_config(sampling_mode=mode, pairs_per_state=cap + 1)
    with pytest.raises(SizeLimitError, match="exceeds cap"):
        tiny_born_config(sampling_mode=mode, n_a=21)
    tiny_born_config(sampling_mode=mode, n_a=20)


def test_scaling_variable_property():
    cfg = es.EnsembleConfig(setup="staircase", n_a=6, n_b=14, d=2, chi=64)
    assert cfg.x == pytest.approx(0.5)
    cfg = es.EnsembleConfig(setup="glued", n_a=5, d=2, chi=10)
    assert cfg.x == pytest.approx(0.05)


def test_born_mean_matches_engine_m2():
    # E[u] = D_A * E[Tr rho_A^2] on the tiny instance
    cfg = tiny_born_config(realizations=300)
    ests = es.sample_moments(cfg)
    target = cfg.d_a * rp.frame_potential_chain(cfg, 1, 0).value
    assert abs(ests[0].mean - target) < 3.5 * ests[0].stderr
    assert ests[0].ratio_to_haar == pytest.approx(ests[0].mean)
    assert ests[0].ratio_to_first == pytest.approx(1.0)
    # u bounded by D_A, so all moment means must satisfy mean_k <= D_A^k
    for est in ests:
        assert 0 <= est.mean <= cfg.d_a**est.k


def test_ratio_conventions():
    # both normalizations are emitted: against k! (Haar) and against the
    # k-th power of the first moment
    ests = es.sample_moments(tiny_born_config(realizations=30, pairs_per_state=10))
    e1, e2 = ests
    assert e2.ratio_to_first == pytest.approx(e2.mean / e1.mean**2, rel=1e-12)
    assert e2.ratio_to_haar == pytest.approx(e2.mean / 2.0, rel=1e-12)


def test_bit_reproducibility_and_threads():
    cfg = tiny_born_config(realizations=20, pairs_per_state=10)
    a = es.sample_moments(cfg, threads=1)
    b = es.sample_moments(cfg, threads=1)
    c = es.sample_moments(cfg, threads=2)
    for x, y, z in zip(a, b, c):
        assert x.mean == y.mean == z.mean
        assert x.stderr == y.stderr == z.stderr


def test_pool_never_outgrows_the_work(monkeypatch):
    # a huge --threads starts no more workers than realizations (or CPUs),
    # and one worker runs in this process without a pool; the stand-in pool
    # records max_workers and maps in this process, so it starts no worker
    sizes = []

    class RecordingPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables, chunksize=1):
            return map(fn, *iterables)

    monkeypatch.setattr(es, "_process_pool", RecordingPool)
    cfg = tiny_born_config(realizations=3, pairs_per_state=4)
    serial = es.per_realization(es._pair_moments, cfg, 3, threads=1)
    assert sizes == []
    monkeypatch.setattr(es.os, "cpu_count", lambda: 64)
    pooled = es.per_realization(es._pair_moments, cfg, 3, threads=10**6)
    assert sizes == [3]
    monkeypatch.setattr(es.os, "cpu_count", lambda: 2)
    capped = es.per_realization(es._pair_moments, cfg, 3, threads=10**6)
    assert sizes == [3, 2]
    for got in (pooled, capped):
        assert all(np.array_equal(a, b) for a, b in zip(got, serial, strict=True))


def test_pooled_pairs():
    cfg = tiny_born_config(pair_mode="pooled", pairs_per_state=8, realizations=150)
    ests = es.sample_moments(cfg)
    assert ests[0].n_samples == 150 * 8 * 7
    target = cfg.d_a * rp.frame_potential_chain(cfg, 1, 0).value
    assert abs(ests[0].mean - target) < 4 * ests[0].stderr


def test_forced_pooled_pairs():
    # forced mode pools its draws too: every pair i < j of the pool is a
    # pair of independent uniform strings, so the mean stays unbiased
    cfg = tiny_born_config(
        sampling_mode="forced", pair_mode="pooled", pairs_per_state=8, realizations=150
    )
    ests = es.sample_moments(cfg)
    assert ests[0].n_samples == 150 * 8 * 7
    eng = rp.frame_potential_chain(cfg, 1, 0).value
    assert abs(ests[0].mean - eng) < 4 * ests[0].stderr
    independent = es.sample_moments(dataclasses.replace(cfg, pair_mode="independent"))
    assert independent[0].n_samples == 150 * 8
    assert all(a.mean != b.mean for a, b in zip(ests, independent, strict=True))


@pytest.mark.parametrize("pair_mode", ["independent", "pooled"])
@pytest.mark.parametrize("sampling_mode", ["born", "forced"])
def test_pair_overlaps_stream_contract(sampling_mode, pair_mode):
    # both modes draw in chunks of mps.chunk_draws and consume the stream as
    # one batch of all their draws does, here across a chunk boundary:
    # independent pair i is draws (2i, 2i + 1), pooled pairs are all i < j
    n, r = 300, 3
    cfg = tiny_born_config(pairs_per_state=n, sampling_mode=sampling_mode, pair_mode=pair_mode)
    count = 2 * n if pair_mode == "independent" else n
    rng = mps.stream(cfg.seed, r)
    state = mps.build(cfg, rng)
    assert mps.chunk_draws(state) < count
    if sampling_mode == "born":
        # told of the draws per state _pair_overlaps takes, so the same form
        draws = mps.BornSampler(state, count).sample_batch(rng, count).post_states
        scale = cfg.d_a
    else:
        z = rng.integers(0, cfg.outcome_dims, size=(count, cfg.n_b))
        draws = mps._project_batch(state, z)
        scale = 1
    if pair_mode == "independent":
        want = np.abs(np.vecdot(draws[0::2], draws[1::2])) ** 2
    else:
        want = (np.abs(draws.conj() @ draws.T) ** 2)[np.triu_indices(n, k=1)]
    got = es._pair_overlaps(cfg, r)
    assert got.shape == want.shape
    assert np.allclose(got, scale * want, rtol=1e-12, atol=1e-12 * scale)


def test_forced_matches_engine():
    glued = es.EnsembleConfig(
        setup="glued", n_a=3, d=2, chi=2, k_max=2,
        pairs_per_state=60, realizations=400, seed=6, sampling_mode="forced",
    )
    staircase = tiny_born_config(sampling_mode="forced", pairs_per_state=60, realizations=300)
    for cfg in (staircase, glued):
        ests = es.sample_moments(cfg)
        for k in (1, 2):
            eng = rp.frame_potential_chain(cfg, k, 0).value
            assert abs(ests[k - 1].mean - eng) < 3.5 * ests[k - 1].stderr


def test_forced_gaussian_matches_engine():
    cfg = es.EnsembleConfig(
        setup="staircase", n_a=1, n_b=2, d=2, chi=2, kind=gaussian(), k_max=1,
        pairs_per_state=50, realizations=400, seed=9, sampling_mode="forced",
    )
    ests = es.sample_moments(cfg)
    eng = rp.frame_potential_chain(cfg, 1, 0).value
    assert abs(ests[0].mean - eng) < 3.5 * ests[0].stderr


def test_forced_all_zero_outcomes_product_state():
    # forcing all-zero outcomes on |00...0> gives overlap 1 deterministically
    import numpy as np

    from rmpslab import mps

    e0 = np.zeros((1, 2, 1), dtype=complex)
    e0[0, 0, 0] = 1.0
    state = mps.MpsState([e0.copy(), e0.copy(), e0.copy()], ("A", "B", "B"))
    amp, other = mps._project_batch(state, np.array([(0, 0), (1, 0)]))
    assert abs(oracles.overlap(amp, amp)) == pytest.approx(1.0)
    assert np.linalg.norm(other) == 0.0


def test_jackknife_scaling():
    # doubling realizations shrinks the jackknife error by about sqrt(2)
    ratios = []
    for seed in (21, 22, 23):
        small = es.sample_moments(tiny_born_config(seed=seed, realizations=60))
        large = es.sample_moments(tiny_born_config(seed=seed, realizations=120))
        ratios.append(small[0].stderr / large[0].stderr)
    mean_ratio = float(np.mean(ratios))
    assert math.sqrt(2) * 0.8 < mean_ratio < math.sqrt(2) * 1.2


def test_haar_recovery_large_chi():
    # chi >> D_A: Born ratios E[u^k]/k! sit near Haar.  The exact reference at
    # this size is the oracle's D_A^k F^(k)/k!; the scaling limit setup1_ratio
    # is a D_A -> infinity law and leaves out the finite-D Haar factor
    # D_A^k/(D_A)_k (0.8 at k = 2 for D_A = 4)
    cfg = es.EnsembleConfig(
        setup="staircase", n_a=2, n_b=3, d=2, chi=64, k_max=2,
        pairs_per_state=60, realizations=120, seed=14,
    )
    ests = es.sample_moments(cfg)
    ks = range(1, cfg.k_max + 1)
    exact = mps.oracle_frame_potentials(
        cfg, ORACLE_SEED, 400, [(k, 1 - k) for k in ks]
    ) * np.array([cfg.d_a**k / math.factorial(k) for k in ks])
    ref = exact.mean(axis=0)
    ref_err = exact.std(axis=0, ddof=1) / math.sqrt(exact.shape[0])
    for est, mu, se in zip(ests, ref, ref_err):
        band = max(3.5 * math.hypot(est.ratio_stderr, se), 0.02)
        assert abs(est.ratio_to_haar - mu) < band
        assert abs(est.ratio_to_haar - 1.0) < 0.3  # x = 1/32 is already near Haar


def test_histogram_properties():
    cfg = es.EnsembleConfig(
        setup="staircase", n_a=2, n_b=3, d=2, chi=64, k_max=1,
        pairs_per_state=80, realizations=50, seed=8,
    )
    tab = es.overlap_histogram(cfg, bins=20, u_max=8.0)
    assert np.sum(tab.density * tab.bin_width) == pytest.approx(1.0, abs=1e-12)
    assert np.all(tab.density >= 0)
    # u <= D_A at finite D_A (coincident outcomes sit at exactly u = D_A), so
    # every bin starting above D_A is empty
    assert np.all(tab.density[tab.bin_centers - 0.5 * tab.bin_width > cfg.d_a] == 0)
    # exact reference: the oracle's Born-pair density of u = D_A |<z|z'>|^2
    # with weight p_z p_z', not Porter-Thomas exp(-u), its D_A -> infinity law
    expected = np.zeros(tab.density.size)
    n_oracle = 200
    for r in range(n_oracle):
        amps = mps._dense_amplitudes(cfg, mps.normals(mps.stream(ORACLE_SEED, r)))[0]
        ov = amps.conj().T @ amps
        p = np.diagonal(ov).real
        w = np.outer(p, p)
        u = cfg.d_a * np.abs(ov) ** 2 / w
        counts, _ = np.histogram(u, bins=tab.density.size, range=(0.0, 8.0), weights=w)
        expected += counts / (counts.sum() * tab.bin_width) / n_oracle
    sel = tab.error > 0
    dev = np.abs(tab.density - expected)[sel] / np.maximum(3 * tab.error[sel], 0.05)
    assert np.mean(dev < 1.0) > 0.8
