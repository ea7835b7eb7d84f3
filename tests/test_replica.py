"""Replica-chain engine tests: site weights, bonds, boundaries, contractions.

The binding correctness anchor is exact agreement with analytically known
random-state purities and with the dense statevector oracle; those pin the
outcome-count bookkeeping conventions.
"""

import math

import numpy as np
import pytest

from rmpslab import mps
from rmpslab import permutations as pg
from rmpslab import replica as rp
from rmpslab import theory as th
from rmpslab import weingarten as wg
from rmpslab.errors import ShapeMismatchError, SizeLimitError
from rmpslab.permutations import ReplicaShape
from rmpslab.weingarten import HAAR, gaussian

import oracles


def chain_spec(setup, k, n, n_a, n_b, d, chi, kind=HAAR):
    """The chain of the circuit; a glued circuit resolves its own N_B."""
    shape = ReplicaShape(n, k)
    if setup == "staircase":
        return rp.staircase_chain(mps.Circuit(setup, n_a, d, chi, n_b, kind), shape)
    return rp.glued_chain(mps.Circuit(setup, n_a, d, chi, kind=kind), shape)


def dense_contract(spec):
    """Whole-group reference for ``rp.contract``: the same walk and rescaling.

    Bonds are the dense matrices built from the eigh pseudo-inverse of the
    dense Gram matrix, not from the engine's class algebra (m <= 6).
    """
    m, chi = spec.shape.m, float(spec.chi)
    dense = {
        "A": lambda: rp.site_weight_A(spec.shape, spec.d),
        "B_staircase": lambda: rp.site_weight_B_staircase(spec.shape, spec.d),
        "B_glued": lambda: rp.site_weight_B_glued(spec.shape, spec.chi, spec.kind),
        "staircase_bulk": lambda: oracles.interaction_matrix(m, chi, spec.d, spec.kind),
        "glued_A_to_B": lambda: oracles.gram_matrix(m, chi),
    }
    resolved = {name: dense[name]() for name in {op for op in spec.ops if isinstance(op, str)}}
    vec, log_scale = np.asarray(spec.right_boundary, dtype=np.float64), spec.log_prefactor
    for op in reversed(spec.ops):
        op = resolved[op] if isinstance(op, str) else np.asarray(op, dtype=np.float64)
        vec = op @ vec if op.ndim == 2 else op * vec
        peak = np.max(np.abs(vec))
        if peak == 0.0:
            return rp.ChainValue(0.0, 0.0)
        vec, log_scale = vec / peak, log_scale + math.log(peak)
    return rp.ChainValue(float(np.dot(spec.left_boundary, vec)), log_scale)


def test_site_weight_A_values():
    for n, k, d in [(0, 1, 2), (1, 1, 2), (0, 2, 3)]:
        shape = ReplicaShape(n, k)
        w = rp.site_weight_A(shape, d)
        idx = oracles.group_index(shape.m)
        sig = pg.overlap_permutation(shape)
        assert w[idx[sig]] == pytest.approx(float(d) ** shape.m)
        for gs in oracles.ground_states(shape):
            assert w[idx[gs]] == pytest.approx(float(d) ** (shape.m - k))


@pytest.mark.parametrize("n,k", [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1)])
def test_factorized_minimum_distance_is_k(n, k):
    shape = ReplicaShape(n, k)
    sig = pg.overlap_permutation(shape)
    dists = pg.distances_from(shape.m, sig)[pg.factorized_mask(shape.m)]
    assert int(dists.min()) == k


def test_site_weight_B_staircase():
    shape = ReplicaShape(1, 1)
    w = rp.site_weight_B_staircase(shape, 3)
    idx = oracles.group_index(4)
    assert w[idx[oracles.identity(4)]] == 9.0
    assert w[idx[pg.overlap_permutation(shape)]] == 3.0
    assert int(np.sum(w == 9.0)) == 4  # ((m/2)!)^2 factorized entries


def test_site_weight_B_glued_gaussian_value():
    # factorized entry at chi = 3, m = 4: 3^4 / 3^8 = 3^-4
    shape = ReplicaShape(1, 1)
    w = rp.site_weight_B_glued(shape, 3, gaussian())
    idx = oracles.group_index(4)
    assert w[idx[oracles.identity(4)]] == pytest.approx(3.0**-4, rel=1e-14)
    # the gaussian glue-gate average is varsigma_B^(2m) times the identity,
    # bit for bit, at every m the engine takes
    for n, k in M_LE_6 + [(0, 4), (1, 3)]:
        shape = ReplicaShape(n, k)
        vec = np.where(pg.factorized_mask(shape.m), 3.0**4, 3.0**2)
        for kind, var in ((gaussian(), 1 / 9), (gaussian(0.3, 0.7), 0.7)):
            assert np.array_equal(rp.site_weight_B_glued(shape, 3, kind), var**shape.m * vec)


def test_site_weight_B_glued_haar_vs_dense_oracle():
    # explicit 24 x 24 Weingarten multiplication as the oracle
    shape = ReplicaShape(1, 1)
    chi = 2
    w = rp.site_weight_B_glued(shape, chi, HAAR)
    mask = pg.factorized_mask(4)
    vec = np.where(mask, float(chi) ** 4, float(chi) ** 2)
    oracle = oracles.weingarten_matrix(4, float(chi * chi)) @ vec
    assert np.abs(w - oracle).max() < 1e-14 * np.abs(oracle).max()


def test_site_weight_B_glued_haar_approaches_gaussian():
    # the gaussian weight is the large-q diagonal limit of W(q) v (q = chi^2):
    # factorized entries agree to 2/q; non-factorized entries are smaller by
    # 1/q, and in some of them the haar value is about -q^-4 against +q^-3,
    # so only the factorized entries and the vector as a whole converge
    shape = ReplicaShape(1, 1)
    w_h = rp.site_weight_B_glued(shape, 1000, HAAR)
    w_g = rp.site_weight_B_glued(shape, 1000, gaussian())
    mask = pg.factorized_mask(shape.m)
    assert np.abs(w_h[mask] / w_g[mask] - 1).max() < 1e-3
    assert np.abs(w_h - w_g).max() / np.abs(w_g).max() < 1e-3


def test_bond_matrix_locations():
    # the bond selectors' class vectors, densified: T(chi, d) tends to
    # d^-m times the identity as chi grows, and G(1) is all ones
    shape = ReplicaShape(1, 1)

    def bond(location, chi):
        spec = rp.ReplicaChainSpec(shape, HAAR, chi, 2, (location,), np.ones(24), np.ones(24))
        role, value_of = rp.SELECTORS[location]
        assert role == "bond"
        return oracles.densify_class_kernel(4, value_of(spec))

    t = bond("staircase_bulk", 10**6)
    assert np.abs(t - 2.0**-4 * np.eye(24)).max() < 1e-5 * 2.0**-4
    assert np.array_equal(bond("glued_A_to_B", 1), np.ones((24, 24)))


def test_glued_block_constant():
    # c_W at d chi^2 = 8, m = 4
    assert wg.weingarten_sum_constant(4, 8.0) == pytest.approx(1.0 / (8 * 9 * 10 * 11), rel=1e-12)


def test_contract_all_ones_counts_group():
    for shape in (ReplicaShape(0, 1), ReplicaShape(0, 2)):
        fac = math.factorial(shape.m)
        spec = rp.ReplicaChainSpec(
            shape=shape,
            kind=HAAR,
            chi=2,
            d=2,
            ops=(np.ones(fac), np.eye(fac), np.ones(fac)),
            left_boundary=np.ones(fac),
            right_boundary=np.ones(fac),
        )
        assert rp.contract(spec).value == pytest.approx(fac)


def test_contract_linearity():
    spec = rp.staircase_chain(mps.Circuit("staircase", 2, 2, 2, 2), ReplicaShape(1, 1))
    base = rp.contract(spec).value
    doubled = rp.ReplicaChainSpec(
        shape=spec.shape,
        kind=spec.kind,
        chi=spec.chi,
        d=spec.d,
        ops=(2.0 * rp.site_weight_A(spec.shape, 2),) + spec.ops[1:],
        left_boundary=spec.left_boundary,
        right_boundary=2.0 * spec.right_boundary,
        log_prefactor=spec.log_prefactor,
    )
    assert rp.contract(doubled).value == pytest.approx(4.0 * base, rel=1e-12)


def test_purity_formula_single_block():
    # staircase N_A = 1: E Tr rho_A^2 = (chi + d)/(d chi + 1), independent of N_B
    for d, chi in [(2, 2), (2, 4), (3, 5)]:
        target = (chi + d) / (d * chi + 1)
        for nb in (1, 2, 3):
            val = rp.frame_potential_chain(mps.Circuit("staircase", 1, d, chi, nb), 1, 0).value
            assert val == pytest.approx(target, rel=1e-12)


def test_purity_monotone_decrease_in_na():
    vals = [
        rp.frame_potential_chain(mps.Circuit("staircase", na, 2, 4, 3), 1, 0).value
        for na in range(2, 7)
    ]
    assert all(b < a for a, b in zip(vals, vals[1:]))
    assert vals[-1] > th.haar_frame_potential(1, 2**6)


def test_seed_free_determinism():
    a = rp.frame_potential_chain(mps.Circuit("staircase", 2, 2, 3, 3), 2, 0)
    b = rp.frame_potential_chain(mps.Circuit("staircase", 2, 2, 3, 3), 2, 0)
    assert a.mantissa == b.mantissa and a.log_scale == b.log_scale


def oracle_mc(circuit, pairs_kn, reals, seed):
    per = mps.oracle_frame_potentials(circuit, seed, reals, pairs_kn)
    mean = per.mean(axis=0)
    err = per.std(axis=0, ddof=1) / np.sqrt(reals)
    return mean, err


def test_engine_matches_oracle_small():
    pairs = [(1, 0), (2, 0), (1, 1)]
    for circuit, seed in ((mps.Circuit("staircase", 2, 2, 2, 2), 101),
                          (mps.Circuit("glued", 2, 2, 2), 404)):
        mean, err = oracle_mc(circuit, pairs, 3000, seed)
        for (k, n), mu, se in zip(pairs, mean, err):
            eng = rp.frame_potential_chain(circuit, k, n).value
            assert abs(eng - mu) < 4 * se


@pytest.mark.parametrize("kind", [HAAR, gaussian()], ids=["haar", "gaussian"])
def test_staircase_rank_limited_gates_in_law(kind):
    # at chi > d the staircase gates act only on the rank min(d^(j+1), chi)
    # of their input bond; the oracle on those draws must still average to
    # the exact chain (criterion 2 runs at chi = d and never compresses)
    pairs = [(1, 0), (2, 0), (1, 1)]
    for n_a, n_b, chi in ((2, 3, 4), (3, 2, 8)):
        circuit = mps.Circuit("staircase", n_a, 2, chi, n_b, kind)
        mean, err = oracle_mc(circuit, pairs, 10_000, 7)
        for (k, n), mu, se in zip(pairs, mean, err):
            eng = rp.frame_potential_chain(circuit, k, n).value
            assert abs(eng - mu) < 4 * se


def test_staircase_born_ratio_approaches_setup1_ratio():
    # at k = 1 the n = 0 chain is the Born moment, so D_A F^(1,0) is the Born
    # ratio; at x = 1 (chi = D_A / 2) it climbs to setup1_ratio = 4 from below
    # as 3.753, 3.948, 3.988 for N_A = 4, 6, 8, the deficit shrinking about
    # 4x per two sites (O(1/chi)), independent of N_B
    assert th.setup1_ratio(1, 1.0, 2) == pytest.approx(4.0)
    deficits = []
    for n_a in (4, 6, 8):
        chi = 2 ** (n_a - 1)
        ratios = {
            n_b: 2**n_a
            * rp.frame_potential_chain(mps.Circuit("staircase", n_a, 2, chi, n_b), 1, 0).value
            for n_b in (14, 30)
        }
        assert ratios[30] == pytest.approx(ratios[14], rel=1e-12)
        deficits.append(4.0 - ratios[14])
    assert deficits[-1] > 0
    assert all(a / b >= 3.5 for a, b in zip(deficits, deficits[1:]))


def test_staircase_leading_order_convergence():
    # the engine approaches the exact chi -> infinity value at the rate 1/chi:
    # r(chi) = F/F_lead - 1 halves when chi doubles, and the Richardson limit
    # 2 r(2 chi) - r(chi) vanishes.  chi r(chi) is about 3.9 (haar, 1|3),
    # 12.5 (gaussian, 1|3) and 9.4 (haar, 2|4), so a fixed bound at one chi
    # would test the size of the 1/chi term, not the leading order.
    def rel_dev(kind, n_a, n_b, chi):
        eng = rp.frame_potential_chain(mps.Circuit("staircase", n_a, 2, chi, n_b, kind), 1, 1)
        lead = th.leading_order_log(ReplicaShape(1, 1), 2, float(chi), n_a, n_b, "staircase", kind)
        return math.expm1(eng.log - lead)

    for kind, n_a, n_b in ((HAAR, 1, 3), (gaussian(), 1, 3), (HAAR, 2, 4)):
        r1, r2 = rel_dev(kind, n_a, n_b, 1024), rel_dev(kind, n_a, n_b, 2048)
        assert r1 / r2 == pytest.approx(2.0, abs=0.1)
        assert abs(2 * r2 - r1) < 1e-3


def test_glued_leading_order_convergence():
    # single-wall edge corrections decay as 1/chi
    for kind in (HAAR, gaussian()):
        eng = rp.frame_potential_chain(mps.Circuit("glued", 2, 2, 2048, kind=kind), 1, 1)
        lead = th.leading_order_log(ReplicaShape(1, 1), 2, 2048.0, 2, None, "glued", kind)
        assert abs(math.exp(eng.log - lead) - 1) < 0.01


def test_engine_vs_dense_m4():
    for setup, nb in (("staircase", 3), ("glued", None)):
        engine = rp.frame_potential_chain(mps.Circuit(setup, 2, 2, 3, nb, HAAR), 1, 1)
        dense = dense_contract(chain_spec(setup, 1, 1, 2, nb, 2, 3, HAAR))
        assert engine.value == pytest.approx(dense.value, rel=1e-10)


def test_engine_vs_dense_m6():
    # chi = 2 < m: the Gram matrices are singular, so both sides pseudo-invert
    for setup, nb in (("staircase", 3), ("glued", None)):
        engine = rp.frame_potential_chain(mps.Circuit(setup, 2, 2, 2, nb, HAAR), 3, 0)
        dense = dense_contract(chain_spec(setup, 3, 0, 2, nb, 2, 2, HAAR))
        assert engine.value == pytest.approx(dense.value, rel=1e-10)


def test_m8_bondless_chain_matches_direct_sum():
    # N_B = 1: no bond matvec needed, so the m = 8 weights are cheap to check
    shape = ReplicaShape(0, 4)
    d, chi = 2, 2
    weights = rp.site_weight_A(shape, d)
    r = float(chi) * np.where(pg.factorized_mask(8), float(chi), 1.0)
    direct = wg.weingarten_sum_constant(8, float(d * chi)) * float(np.dot(weights, r))
    val = rp.frame_potential_chain(mps.Circuit("staircase", 1, d, chi, 1), 4, 0)
    assert val.value == pytest.approx(direct, rel=1e-12)


@pytest.mark.slow
def test_m8_engine_matches_oracle():
    circuit = mps.Circuit("staircase", 1, 2, 2, 2, HAAR)
    eng = rp.frame_potential_chain(circuit, 4, 0)
    pairs = [(4, 0)]
    mean, err = oracle_mc(circuit, pairs, 20000, 17)
    assert abs(eng.value - mean[0]) < 4 * err[0]


def test_frame_potential_chain_validation():
    with pytest.raises(ValueError):
        rp.frame_potential_chain(mps.Circuit("staircase", 2, 2, 2, 2), 2, -1)
    with pytest.raises(SizeLimitError):
        rp.frame_potential_chain(mps.Circuit("staircase", 2, 2, 2, 2), 4, 1)
    # a fractional k or n is refused, not truncated (k = 1.5 read as F^(1,0))
    for k, n in ((1.5, 0), (1, 0.5)):
        with pytest.raises(ValueError, match="must be an integer"):
            rp.frame_potential_chain(mps.Circuit("staircase", 2, 2, 2, 2), k, n)

    def spec(*ops):
        return rp.ReplicaChainSpec(ReplicaShape(0, 1), HAAR, 2, 2, ops, np.ones(2), np.ones(2))

    # an unknown selector is refused when the chain is declared
    with pytest.raises(ValueError, match="unknown chain selector"):
        spec("A", "nowhere")
    # an explicit operand is a (2,) site or a (2, 2) bond at m = 2
    for bad in (np.ones(3), np.ones((2, 3)), np.ones((2, 2, 2))):
        with pytest.raises(ShapeMismatchError):
            spec("A", bad)


@pytest.mark.parametrize("setup", ["staircase", "glued"])
@pytest.mark.parametrize(
    "d,chi,n_a", [(2, 0, 2), (2, -1, 2), (1, 2, 2), (2, 2, 0)], ids=["chi0", "chi-1", "d1", "na0"]
)
def test_chain_builders_reject_bad_inputs(setup, d, chi, n_a):
    with pytest.raises(ValueError, match="need chi >= 1"):
        chain_spec(setup, 1, 0, n_a, 2, d, chi)


@pytest.mark.parametrize(
    "call",
    [
        lambda shape: rp.site_weight_B_glued(shape, 0),
        lambda shape: rp.site_weight_B_glued(shape, -1, gaussian()),
    ],
    ids=["glued-site-chi0", "glued-site-chi-1"],
)
def test_chain_weights_reject_bad_inputs(call):
    # the public weight functions take the chain builders' check, not a nan
    with pytest.raises(ValueError, match="need chi >= 1"):
        call(ReplicaShape(0, 1))


M_LE_6 = [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1)]


@pytest.mark.parametrize("kind", [HAAR, gaussian()], ids=["haar", "gaussian"])
@pytest.mark.parametrize("n,k", M_LE_6)
def test_reduced_matches_dense(n, k, kind):
    # the orbit-space engine against the dense whole-group reference
    for setup, n_a, n_b in (("staircase", 3, 4), ("staircase", 1, 1), ("glued", 3, None)):
        reduced = rp.frame_potential_chain(mps.Circuit(setup, n_a, 2, 3, n_b, kind), k, n)
        dense = dense_contract(chain_spec(setup, k, n, n_a, n_b, 2, 3, kind))
        assert abs(reduced.log - dense.log) <= 1e-12 * abs(dense.log)


@pytest.mark.parametrize("n,k", M_LE_6 + [(0, 4), (1, 3)])
def test_selector_vectors_invariant(n, k):
    shape = ReplicaShape(n, k)
    vectors = [
        rp.site_weight_A(shape, 2),
        rp.site_weight_B_staircase(shape, 2),
        rp.site_weight_B_glued(shape, 3, gaussian()),
        rp.staircase_chain(mps.Circuit("staircase", 1, 2, 3, 1), shape).right_boundary,
    ]
    if shape.m <= 6:
        vectors.append(rp.site_weight_B_glued(shape, 3, HAAR))
    for image in pg.symmetry_maps(shape):
        for v in vectors:
            assert np.array_equal(v[image], v)


@pytest.mark.parametrize("n,k", M_LE_6)
def test_weingarten_dressing_matches_dense(n, k):
    shape = ReplicaShape(n, k)
    chi = 3
    vec = np.where(pg.factorized_mask(shape.m), float(chi) ** 4, float(chi) ** 2)
    dense = oracles.weingarten_matrix(shape.m, float(chi * chi)) @ vec
    w = rp.site_weight_B_glued(shape, chi, HAAR)
    assert np.abs(w - dense).max() < 1e-12 * np.abs(dense).max()


def test_non_invariant_operands_raise():
    spec = rp.staircase_chain(mps.Circuit("staircase", 2, 2, 2, 2), ReplicaShape(1, 1))
    orbits = pg.chain_orbits(spec.shape)
    # an element that shares its orbit with its representative
    i = int(np.flatnonzero(orbits.reps[orbits.label] != np.arange(24))[0])
    site = rp.site_weight_A(spec.shape, 2).copy()
    site[i] *= 1.0 + 1e-9
    broken = rp.ReplicaChainSpec(
        shape=spec.shape,
        kind=spec.kind,
        chi=spec.chi,
        d=spec.d,
        ops=(site,) + spec.ops[1:],
        left_boundary=spec.left_boundary,
        right_boundary=spec.right_boundary,
        log_prefactor=spec.log_prefactor,
    )
    with pytest.raises(ValueError, match="not invariant"):
        rp.contract(broken)
    # the whole-group reference takes it
    assert math.isfinite(dense_contract(broken).log)
    bond = np.eye(24)
    bond[i, i] = 2.0
    with pytest.raises(ValueError, match="not invariant"):
        rp.contract(rp.ReplicaChainSpec(
            shape=spec.shape,
            kind=spec.kind,
            chi=spec.chi,
            d=spec.d,
            ops=("A", bond, "A"),
            left_boundary=spec.left_boundary,
            right_boundary=spec.right_boundary,
        ))


def test_bondless_chain_builds_no_kernel_table():
    # an m = 8 chain without bonds (N_B = 1) needs the orbits, never the
    # orbit-space count table, which is the costly part of a first bond
    before = pg.orbit_class_counts.cache_info().misses
    val = rp.frame_potential_chain(mps.Circuit("staircase", 1, 2, 2, 1), 1, 3)
    assert math.isfinite(val.log)
    assert pg.orbit_class_counts.cache_info().misses == before
