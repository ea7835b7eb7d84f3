"""Gram/Weingarten matrix tests: inverse identities, sum rules, bond kernels."""

import math
from fractions import Fraction

import numpy as np
import pytest

from rmpslab import mps
from rmpslab import permutations as pg
from rmpslab import replica as rp
from rmpslab import weingarten as wg

import oracles


def test_gram_small_values():
    g = oracles.gram_matrix(2, 3.0)
    assert np.allclose(g, [[9.0, 3.0], [3.0, 9.0]])
    g4 = oracles.gram_matrix(4, 3.0)
    assert np.allclose(np.diag(g4), 3.0**4)
    assert np.allclose(g4, g4.T)


def test_weingarten_hand_value_m2_q2():
    w = oracles.weingarten_matrix(2, 2.0)
    assert np.allclose(w, [[1 / 3, -1 / 6], [-1 / 6, 1 / 3]], atol=1e-14)


@pytest.mark.parametrize("m", [2, 4])
@pytest.mark.parametrize("q_mult", [1.0, 2.0])
def test_inverse_identity(m, q_mult):
    q = q_mult * m
    g = oracles.gram_matrix(m, q)
    w = oracles.weingarten_matrix(m, q)
    assert np.abs(w @ g - np.eye(g.shape[0])).max() < 1e-12


@pytest.mark.parametrize("m", [2, 3, 4])
def test_pseudoinverse_identities(m):
    for q in (1.0, 2.0, float(m), 2.0 * m):
        g = oracles.gram_matrix(m, q)
        w = oracles.weingarten_matrix(m, q)
        scale = np.abs(g).max()
        assert np.abs(g @ w @ g - g).max() < 1e-10 * scale
        assert np.abs(w @ g @ w - w).max() < 1e-10 * np.abs(w).max()


@pytest.mark.parametrize("m", [2, 3, 4])
def test_gram_positive_definite_integer_q(m):
    for q in (m, m + 1, 2 * m):
        vals = np.linalg.eigvalsh(oracles.gram_matrix(m, float(q)))
        assert np.all(vals > 0)


def test_sum_constant():
    assert wg.weingarten_sum_constant(2, 2.0) == pytest.approx(1 / 6, rel=1e-14)
    assert wg.weingarten_sum_constant(2, 2.0, wg.gaussian(0.25)) == pytest.approx(1 / 16)
    # consistency with explicit row sums
    for m in (2, 3, 4):
        for q in (float(m), 5.0):
            w = oracles.weingarten_matrix(m, q)
            rs = w.sum(axis=1)
            c = wg.weingarten_sum_constant(m, q)
            assert np.abs(rs - c).max() < 1e-10 * abs(c)


def test_row_sum_rule_m4_q5():
    w = oracles.weingarten_matrix(4, 5.0)
    target = 1.0 / (5 * 6 * 7 * 8)
    assert np.abs(w.sum(axis=1) - target).max() < 1e-12 * target


def test_interaction_large_chi_ferromagnetic():
    t = oracles.interaction_matrix(4, 1e6, 2, wg.HAAR)
    dm = 2.0**-4
    assert np.abs(t - dm * np.eye(24)).max() / dm < 1e-5


def test_interaction_gaussian_adjacency_coefficient():
    # chi d^m T equals 1 exactly on distance-1 pairs for the gaussian kind
    for chi in (10.0, 1000.0):
        t = oracles.interaction_matrix(4, chi, 2, wg.gaussian())
        mask = oracles.distance_matrix(4) == 1
        vals = (chi * 2.0**4) * t[mask]
        assert np.abs(vals - 1.0).max() < 1e-12


def richardson_coefficient(beta, d, m, pair_index):
    chis = [1e2, 1e3, 1e4]
    vals = []
    for chi in chis:
        t = oracles.interaction_matrix(m, chi, d, wg.HAAR)
        vals.append(d**m * t[0, pair_index] * chi**beta)
    h = np.array([1.0 / c for c in chis])
    coef = np.linalg.solve(np.vander(h, 3, increasing=True), vals)
    return coef[0]


def test_unitary_dressing_spot_check():
    # composite-wall coefficient ((d-1)/d)^beta on commuting-transposition pairs
    idx = oracles.group_index(4)
    c1 = richardson_coefficient(1, 2, 4, idx[(1, 0, 2, 3)])
    c2 = richardson_coefficient(2, 2, 4, idx[(1, 0, 3, 2)])
    assert abs(c1 - 0.5) < 1e-3
    assert abs(c2 - 0.25) < 1e-3


def test_interaction_row_expansion_bounded():
    # sum_pi T[sigma, pi] chi^dist stays bounded as chi grows
    dm = oracles.distance_matrix(4).astype(float)
    prev = None
    for chi in (1e2, 1e3, 1e4):
        t = oracles.interaction_matrix(4, chi, 2, wg.HAAR)
        row = np.sum(np.abs(t[0]) * chi**dm[0])
        if prev is not None:
            assert row < 1.5 * prev + 1.0
        prev = row


@pytest.mark.parametrize(
    "m,q", [(2, 2.0), (4, 2.0), (4, 8.0), (5, 3.0), (6, 2.0), (6, 5.0), (6, 7.0)]
)
def test_class_vectors_match_dense(m, q):
    wc = wg.weingarten_class_vector(m, q)
    wd = oracles.weingarten_matrix(m, q)
    dense = oracles.densify_class_kernel(m, wc)
    assert np.abs(dense - wd).max() < 1e-9 * np.abs(wd).max()


def _exact_weingarten(m: int, q: int) -> np.ndarray:
    """W(q) from the character sum in exact rationals: 1 / prod(q + c) on each
    irrep, 0 on the irreps whose product vanishes."""

    def inverse_product(contents):
        prod = math.prod(Fraction(q + c) for c in contents)
        return 1 / prod if prod else Fraction(0)

    return np.array([float(x) for x in oracles.exact_class_vector(m, inverse_product)])


@pytest.mark.parametrize("m,q", [(8, 2), (8, 4), (8, 7), (6, 2), (6, 3), (6, 4), (6, 5)])
def test_weingarten_exact_below_m(m, q):
    # at q < m the Gram kernel is singular; its pseudo-inverse drops the
    # irreps with more than q rows exactly, with no eigenvalue cut to round
    exact = _exact_weingarten(m, q)
    got = wg.weingarten_class_vector(m, float(q))
    assert np.abs(got - exact).max() <= 1e-15 * np.abs(exact).max()


def test_class_vectors_are_not_shared():
    # scaling a returned kernel in place leaves every later chain alone, and
    # the per-m tables behind the kernels cannot be written
    circuit = mps.Circuit("staircase", 2, 2, 4, 2)
    before = rp.frame_potential_chain(circuit, 2, 0).log
    v = wg.weingarten_class_vector(4, 8.0)
    v *= 2
    assert rp.frame_potential_chain(circuit, 2, 0).log == before
    for table in (*pg.irrep_table(4), pg.class_distance(4)):
        with pytest.raises(ValueError):
            table[0] = 0


def test_class_vector_row_sum_m8():
    _, sizes, _ = pg.conjugacy_classes(8)
    wc = wg.weingarten_class_vector(8, 16.0)
    target = wg.weingarten_sum_constant(8, 16.0)
    assert abs(float(np.dot(sizes, wc)) - target) < 1e-10 * target


def test_interaction_class_vector_matches_dense():
    for kind in (wg.HAAR, wg.gaussian()):
        t = oracles.interaction_matrix(4, 3.0, 2, kind)
        tc = oracles.densify_class_kernel(4, wg.interaction_class_vector(4, 3.0, 2, kind))
        assert np.abs(t - tc).max() < 1e-9 * np.abs(t).max()


def test_ensemble_kind_validation():
    with pytest.raises(ValueError):
        wg.EnsembleKind("unitary")
    with pytest.raises(ValueError):
        wg.gaussian(-1.0)
    # NaN passes a "<= 0" test, and an infinite variance makes every gate inf
    for variances in ((math.nan, None), (math.inf, None), (None, math.nan), (None, math.inf)):
        with pytest.raises(ValueError, match="finite"):
            wg.gaussian(*variances)
    assert wg.HAAR.is_haar
    assert not wg.gaussian().is_haar


def test_gate_variance_rule():
    # the gaussian default 1/q at each gate family's q, the overrides, and a
    # haar kind that ignores a variance it was given
    d, chi = 3, 5
    kind = wg.gaussian()
    assert kind.gate_variance(d * chi) == 1 / (d * chi)  # staircase gates
    assert kind.gate_variance(d * chi**2) == 1 / (d * chi**2)  # glued blocks
    assert kind.gate_variance(chi**2, glue=True) == 1 / chi**2  # glue gates
    assert wg.gaussian(0.3, 0.7).gate_variance(15) == 0.3
    assert wg.gaussian(0.3, 0.7).gate_variance(25, glue=True) == 0.7
    assert wg.gaussian(0.3).gate_variance(25, glue=True) == 1 / 25
    assert wg.gaussian(None, 0.7).gate_variance(15) == 1 / 15
    assert wg.EnsembleKind("haar", 0.3, 0.7).gate_variance(15) == 1 / 15
    assert wg.EnsembleKind("haar", 0.3, 0.7).gate_variance(25, glue=True) == 1 / 25


def test_dense_size_cap():
    from rmpslab.errors import SizeLimitError

    with pytest.raises(SizeLimitError):
        oracles.gram_matrix(8, 2.0)
