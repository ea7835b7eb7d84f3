"""Closed-form prediction tests: ratios, densities, confinement sums."""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rmpslab import theory as th
from rmpslab.errors import SizeLimitError
from rmpslab.permutations import ReplicaShape
from rmpslab.weingarten import HAAR, gaussian

import oracles


def test_haar_frame_potential():
    assert th.haar_frame_potential(1, 8) == pytest.approx(1 / 8)
    assert th.haar_frame_potential(2, 4) == pytest.approx(1 / 8)
    assert th.haar_frame_potential(3, 2**9) == pytest.approx(6 * 2.0**-27)


def test_setup1_ratio_values():
    assert th.setup1_ratio(1, 0.0, 2) == pytest.approx(1.0)
    assert th.setup1_ratio(3, 0.0, 5) == pytest.approx(1.0)
    # k = 1 collapses to 1 + x (d+1)/(d-1)
    for d in (2, 3, 5):
        for x in (0.1, 1.0, 5.0):
            assert th.setup1_ratio(1, x, d) == pytest.approx(1 + x * (d + 1) / (d - 1), rel=1e-12)
    # frozen value from the geometric sums: (1/2) sum 2^-j (3+j)^2 = 18
    assert th.setup1_ratio(2, 1.0, 2) == pytest.approx(18.0, rel=1e-12)
    # large-d limit (1+x)^k
    assert th.setup1_ratio(3, 0.5, 10**6) == pytest.approx(1.5**3, rel=1e-4)


def test_setup1_ratio_monotonicity():
    xs = np.linspace(0.0, 3.0, 13)
    for k in (1, 2, 3):
        vals = [th.setup1_ratio(k, x, 2) for x in xs]
        assert all(b > a for a, b in zip(vals, vals[1:]))
    for x in (0.25, 1.0, 4.0):
        vals = [th.setup1_ratio(k, x, 2) for k in (1, 2, 3, 4)]
        assert all(b > a for a, b in zip(vals, vals[1:]))


def test_setup1_pdf_properties():
    # Porter-Thomas recovery at x = 0
    for u in np.linspace(0, 10, 51):
        assert th.setup1_pdf(u, 0.0, 2) == pytest.approx(math.exp(-u), abs=1e-14)
    mass, _ = quad(lambda u: th.setup1_pdf(u, 1.0, 2), 0, np.inf, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-8)
    for k in (1, 2, 3, 4):
        mk, _ = quad(lambda u: u**k * th.setup1_pdf(u, 1.0, 2), 0, np.inf, limit=300)
        assert mk == pytest.approx(math.factorial(k) * th.setup1_ratio(k, 1.0, 2), rel=1e-6)


def test_series_stops_past_the_peak_or_raises():
    # a series whose terms have all underflowed to 0 is 0, not a non-falling
    # series: the staircase density far out in u; one that never falls raises
    assert th.setup1_pdf(1000.0, 0.0, 2) == 0.0
    assert th.setup1_pdf(1e4, 1.0, 2) == 0.0
    with pytest.raises(RuntimeError, match="100,000 terms"):
        th._series(lambda j: 1.0)


def test_setup2_ratio_values():
    assert th.setup2_ratio(1, 0.0, 2) == pytest.approx(1.0)
    assert th.setup2_ratio(1, 0.1, 2) == pytest.approx(math.exp(0.15), rel=1e-14)
    # log-linearity in x
    assert math.log(th.setup2_ratio(2, 0.6, 3)) == pytest.approx(
        2 * math.log(th.setup2_ratio(2, 0.3, 3)), rel=1e-12
    )


def test_setup2_generalized_ratio():
    # replica limit n = 1 - k collapses to the main formula
    for k in (1, 2, 3):
        for x in (0.0, 0.2, 1.0):
            for d in (2, 3):
                assert th.setup2_generalized_ratio(k, 1 - k, x, d) == pytest.approx(
                    th.setup2_ratio(k, x, d), rel=1e-14
                )
    assert th.setup2_generalized_ratio(2, 0, 0.0, 2) == pytest.approx(1.0)
    # frozen six-term exponents at m = 4 and m = 2
    assert th.setup2_excitation_exponent(2, 0, 2) == pytest.approx(22.0)
    assert th.setup2_excitation_exponent(1, 0, 2) == pytest.approx(1.5)
    assert th.setup2_generalized_ratio(2, 0, 0.05, 2) == pytest.approx(math.exp(1.1), rel=1e-12)


def test_setup2_pdf_properties():
    mass, _ = quad(lambda u: th.setup2_pdf(u, 0.05, 2), 0, np.inf, limit=200)
    assert mass == pytest.approx(1.0, abs=1e-6)
    for k in (1, 2, 3):
        mk, _ = quad(lambda u: u**k * th.setup2_pdf(u, 0.05, 2), 0, 200, limit=300)
        assert mk == pytest.approx(math.factorial(k) * th.setup2_ratio(k, 0.05, 2), rel=1e-5)
    for u in np.linspace(0, 10, 21):
        assert abs(th.setup2_pdf(u, 1e-6, 2) - math.exp(-u)) < 1e-4
    assert th.setup2_pdf(1.0, 0.0, 2) == pytest.approx(math.exp(-1.0))


def test_f_alpha_direct_vs_closed_light():
    for d in (2, 3):
        for alpha in (1, 2, 3):
            fd = th.f_alpha(alpha, d, "direct")
            fc = th.f_alpha(alpha, d, "closed")
            assert fd == pytest.approx(fc, rel=1e-10)
    assert th.f_alpha(0, 2, "direct") == 1.0
    assert th.f_alpha(0, 2, "closed") == 1.0
    # building-block identity: non-positive offsets sum to (d/(d-1))^alpha
    # (f_alpha with the measured-side excursion clamped off)
    for d in (2, 3, 5):
        a1 = sum(d ** -max(-e, 0) for e in range(-200, 1))
        assert a1 == pytest.approx(d / (d - 1), rel=1e-12)


def test_f_alpha_direct_cap():
    with pytest.raises(SizeLimitError):
        th.f_alpha(5, 2, "direct")
    assert th.f_alpha(5, 2, "closed") > 0
    with pytest.raises(ValueError):
        th.f_alpha(7, 2)


def test_series_matches_ratio():
    for k in (1, 2, 3, 4):
        for d in (2, 3):
            for x in (0.1, 1.0, 5.0):
                assert th.series_ratio_setup1(k, x, d) == pytest.approx(
                    th.setup1_ratio(k, x, d), rel=1e-10
                )
    # alpha = 0 term alone is 1; k = 1 gives 1 + x (d+1)/(d-1)
    assert th.series_ratio_setup1(1, 0.7, 3) == pytest.approx(1 + 0.7 * 2, rel=1e-12)


def test_scaling_variable():
    assert th.scaling_variable("staircase", HAAR, 2, 64.0, 6) == pytest.approx(0.5)
    assert th.scaling_variable("staircase", gaussian(), 2, 64.0, 6) == pytest.approx(1.0)
    assert th.scaling_variable("glued", HAAR, 2, 10.0, 5) == pytest.approx(0.05)


def test_leading_order_replica_limit():
    sh = ReplicaShape(0, 1)
    assert oracles.leading_order(sh, 2, 512.0, 4, 8, "staircase", HAAR) == pytest.approx(
        th.haar_frame_potential(1, 16), rel=1e-12
    )
    assert oracles.leading_order(sh, 2, 37.0, 5, 6, "glued", HAAR) == pytest.approx(
        th.haar_frame_potential(1, 32), rel=1e-12
    )


def test_leading_order_large_na_matches_ground_state_form():
    # at large N_A the factorized sum reduces to k! d^((m-k) N_A)
    sh = ReplicaShape(0, 2)
    n_a, n_b = 40, 41
    n_gates = n_a + n_b - 1
    full = th.leading_order_log(sh, 2, 100.0, n_a, n_b, "staircase", HAAR)
    trunc = (
        math.log(2)
        + (sh.m - sh.k) * n_a * math.log(2)
        + 2 * math.log(100.0)
        + 2 * (n_b - 1) * math.log(2)
        + sh.m * (n_gates - 1) * math.log(100.0)
        + sh.m * n_gates * math.log(1 / 200.0)
    )
    assert full == pytest.approx(trunc, abs=1e-6)


BAD_THEORY_CALLS = {
    "setup1_ratio-d1": (lambda: th.setup1_ratio(1, 0.5, 1), "d >= 2"),
    "setup1_pdf-d1": (lambda: th.setup1_pdf(0.5, 0.3, 1), "d >= 2"),
    "setup2_ratio-d1": (lambda: th.setup2_ratio(1, 0.5, 1), "d >= 2"),
    "setup2_pdf-d1": (lambda: th.setup2_pdf(0.5, 0.3, 1), "d >= 2"),
    "setup2_generalized_ratio-d1": (lambda: th.setup2_generalized_ratio(1, 0, 0.3, 1), "d >= 2"),
    "setup2_excitation_exponent-d1": (lambda: th.setup2_excitation_exponent(1, 0, 1), "d >= 2"),
    "f_alpha-d1": (lambda: th.f_alpha(2, 1), "d >= 2"),
    "leading_order_log-d1": (
        lambda: th.leading_order_log(ReplicaShape(0, 1), 1, 8.0, 2, 2, "staircase"), "d >= 2"
    ),
    "leading_order_log-chi0": (
        lambda: th.leading_order_log(ReplicaShape(0, 1), 2, 0.0, 2, 2, "staircase"), "chi > 0"
    ),
    "leading_order_log-na0": (
        lambda: th.leading_order_log(ReplicaShape(0, 1), 2, 8.0, 0, None, "glued"), "N_A >= 1"
    ),
    "haar_frame_potential-da0": (lambda: th.haar_frame_potential(1, 0), "D_A > 0"),
    "scaling_variable-d1": (lambda: th.scaling_variable("staircase", HAAR, 1, 64.0, 6), "d >= 2"),
    "scaling_variable-chi0": (lambda: th.scaling_variable("glued", HAAR, 2, 0.0, 6), "chi > 0"),
}


@pytest.mark.parametrize("call,match", BAD_THEORY_CALLS.values(), ids=BAD_THEORY_CALLS.keys())
def test_closed_forms_refuse_bad_sizes(call, match):
    # d = 1 used to give a ZeroDivisionError or a quiet number in most of
    # these, chi = 0 a math domain error
    with pytest.raises(ValueError, match=match):
        call()
