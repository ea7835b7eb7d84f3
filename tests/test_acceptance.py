"""Acceptance suite: one test per criterion, tolerances pinned here.

Monte-Carlo criteria (2, 3, 4) compare sampled estimates against exact
engine values or scaling-limit predictions.  Where a criterion compares a
finite-size measurement against an asymptotic closed form, the tolerance is
the statistical band plus the stated relative modeling allowance
(|measured - target| <= 3 stderr + 10% of target): at the pinned sizes the
closed forms carry documented finite-size offsets of a few percent, so a
bare 3-stderr band against the asymptote is not a meaningful check.  All
seeds are fixed; every run is deterministic.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad

from rmpslab import estimator as es
from rmpslab import mps
from rmpslab import replica as rp
from rmpslab import theory as th
from rmpslab import weingarten as wg
from rmpslab.permutations import ReplicaShape
from rmpslab.weingarten import HAAR

import oracles

pytestmark = pytest.mark.acceptance


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"[criterion {criterion}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def test_criterion_1_weingarten_identity_suite():
    """W(q) G(q) = 1 and the row-sum rule at 1e-10 for m in {2,4,6}."""
    worst_inv, worst_sum = 0.0, 0.0
    for m in (2, 4, 6):
        for q in (float(m), float(2 * m), 17.0):
            g = oracles.gram_matrix(m, q)
            w = oracles.weingarten_matrix(m, q)
            worst_inv = max(worst_inv, float(np.abs(w @ g - np.eye(g.shape[0])).max()))
            c = wg.weingarten_sum_constant(m, q)
            worst_sum = max(worst_sum, float(np.abs(w.sum(axis=1) - c).max() / abs(c)))
    _report(1, worst_inv < 1e-10 and worst_sum < 1e-10,
            f"max |WG-1| = {worst_inv:.2e}, max row-sum rel err = {worst_sum:.2e}")


def test_criterion_2_oracle_equivalence():
    """Replica contraction matches the statevector-oracle Monte-Carlo average
    over 10^4 Haar realizations within 3 jackknife standard errors."""
    pairs = [(1, 0), (2, 0), (1, 1)]
    reals = 10_000
    lines = []
    ok = True
    for setup, n_b, seed in (("staircase", 2, 20260809), ("glued", None, 20260810)):
        circuit = mps.Circuit(setup, 2, 2, 2, n_b)
        per = mps.oracle_frame_potentials(circuit, seed, reals, pairs)
        mean, err = es.jackknife_mean(per)
        for (k, n), mu, se in zip(pairs, mean, err):
            eng = rp.frame_potential_chain(circuit, k, n).value
            dev = abs(eng - mu) / se
            ok &= dev < 3.0
            lines.append(f"{setup}(k={k},n={n}): {dev:.2f} sigma")
    _report(2, ok, "; ".join(lines))


def test_criterion_3_haar_recovery():
    """Born sampling at chi = 4 D_A, N_A = 6: moment ratios reproduce the
    confined-wall prediction at x = 0.125 for k <= 3."""
    cfg = es.EnsembleConfig(
        setup="staircase", n_a=6, n_b=14, d=2, chi=256, k_max=3,
        pairs_per_state=250, realizations=60, seed=31,
    )
    assert cfg.x == pytest.approx(0.125)
    ests = es.sample_moments(cfg)
    ok = True
    lines = []
    for est in ests:
        target = th.setup1_ratio(est.k, cfg.x, cfg.d)
        band = 3.0 * est.ratio_stderr + 0.10 * target
        dev = abs(est.ratio_to_haar - target)
        ok &= dev < band
        lines.append(
            f"k={est.k}: {est.ratio_to_haar:.3f}+-{est.ratio_stderr:.3f} "
            f"vs {target:.3f} (|dev|={dev:.3f} < {band:.3f})"
        )
    _report(3, ok, "; ".join(lines))


def test_criterion_4_scaled_fig2a():
    """Staircase at x = 1 (N_A=6, chi=32, N_B=14), 100 x 1000 pairs: measured
    ratios reproduce the closed-sum values 4 and 18 within 3 stderr plus the
    10% modeling allowance (the finite-size deficit at this point is about
    -1% for k=1 and -11% for k=2, shrinking ~2x per N_A increment)."""
    cfg = es.EnsembleConfig(
        setup="staircase", n_a=6, n_b=14, d=2, chi=32, k_max=2,
        pairs_per_state=1000, realizations=100, seed=42,
    )
    assert cfg.x == pytest.approx(1.0)
    ests = es.sample_moments(cfg)
    targets = {1: 4.0, 2: 18.0}
    ok = True
    lines = []
    for est in ests:
        target = targets[est.k]
        band = 3.0 * est.ratio_stderr + 0.10 * target
        dev = abs(est.ratio_to_haar - target)
        ok &= dev < band
        lines.append(
            f"k={est.k}: {est.ratio_to_haar:.3f}+-{est.ratio_stderr:.3f} "
            f"vs {target} (|dev|={dev:.3f} < {band:.3f})"
        )
    _report(4, ok, "; ".join(lines))


def test_criterion_5_scaled_fig2c():
    """Glued engine ratios F(2,0)/F(1,0)^2, normalized by their leading
    orders, approach the excitation-exponent prediction with residuals
    dominated by the 1/sqrt(N_A) component over N_A in {16..100}."""
    x_nom, d = 0.05, 2
    e2 = th.setup2_excitation_exponent(2, 0, d)
    e1 = th.setup2_excitation_exponent(1, 0, d)
    nas = np.array([16, 25, 36, 49, 64, 81, 100])
    deltas = []
    for n_a in nas:
        chi = int(math.isqrt(int(n_a / x_nom)))
        x_act = n_a / chi**2
        circuit = mps.Circuit("glued", int(n_a), d, chi)
        f2 = rp.frame_potential_chain(circuit, 2, 0)
        f1 = rp.frame_potential_chain(circuit, 1, 0)
        lead2 = th.leading_order_log(ReplicaShape(0, 2), d, float(chi), int(n_a), None, "glued")
        lead1 = th.leading_order_log(ReplicaShape(0, 1), d, float(chi), int(n_a), None, "glued")
        rho = math.exp(f2.log - 2 * f1.log - (lead2 - 2 * lead1))
        deltas.append(rho - math.exp(x_act * (e2 - 2 * e1)))
    deltas = np.array(deltas)
    s = nas.astype(float) ** -0.5
    design = np.column_stack([s, np.ones_like(s)])
    coef, *_ = np.linalg.lstsq(design, deltas, rcond=None)
    fit = design @ coef
    r2 = 1 - np.sum((deltas - fit) ** 2) / np.sum((deltas - deltas.mean()) ** 2)
    shrink = deltas[-1] / deltas[0]
    # asymptotic coefficient check at exact x: delta sqrt(N_A) stabilizes
    tail = []
    for chi in (60, 200):
        n_a = int(round(x_nom * chi * chi))
        circuit = mps.Circuit("glued", n_a, d, chi)
        f2 = rp.frame_potential_chain(circuit, 2, 0)
        f1 = rp.frame_potential_chain(circuit, 1, 0)
        lead2 = th.leading_order_log(ReplicaShape(0, 2), d, float(chi), n_a, None, "glued")
        lead1 = th.leading_order_log(ReplicaShape(0, 1), d, float(chi), n_a, None, "glued")
        rho = math.exp(f2.log - 2 * f1.log - (lead2 - 2 * lead1))
        tail.append((rho - math.exp(x_nom * (e2 - 2 * e1))) * math.sqrt(n_a))
    stable = abs(tail[1] / tail[0] - 1.0) < 0.15
    ok = r2 > 0.9 and shrink < 0.7 and coef[0] > 0 and stable
    _report(
        5,
        ok,
        f"R^2 = {r2:.3f} (> 0.9), slope c = {coef[0]:.2f}, delta shrink = {shrink:.2f}, "
        f"delta*sqrt(N_A) at exact x: {tail[0]:.2f} -> {tail[1]:.2f}",
    )


def test_criterion_6_distribution_suite():
    """Both overlap densities normalize, reproduce k! ratio moments, and
    collapse to Porter-Thomas as x -> 0."""
    checks = []
    for x, d in ((1.0, 2), (0.3, 3)):
        mass, _ = quad(lambda u: th.setup1_pdf(u, x, d), 0, np.inf, limit=200)
        checks.append(abs(mass - 1) < 1e-6)
        for k in (1, 2, 3):
            mk, _ = quad(lambda u: u**k * th.setup1_pdf(u, x, d), 0, np.inf, limit=300)
            checks.append(abs(mk / (math.factorial(k) * th.setup1_ratio(k, x, d)) - 1) < 1e-5)
    for x, d in ((0.05, 2), (0.4, 2)):
        mass, _ = quad(lambda u: th.setup2_pdf(u, x, d), 0, np.inf, limit=200)
        checks.append(abs(mass - 1) < 1e-6)
        for k in (1, 2, 3):
            # the log-normal mixture has heavy tails; integrate to infinity
            mk, _ = quad(lambda u: u**k * th.setup2_pdf(u, x, d), 0, np.inf, limit=400)
            checks.append(abs(mk / (math.factorial(k) * th.setup2_ratio(k, x, d)) - 1) < 1e-5)
    us = np.linspace(0.0, 10.0, 201)
    sup1 = max(abs(th.setup1_pdf(u, 0.0, 2) - math.exp(-u)) for u in us)
    sup2 = max(abs(th.setup2_pdf(u, 1e-6, 2) - math.exp(-u)) for u in us)
    checks.append(sup1 < 1e-4)
    checks.append(sup2 < 1e-4)
    _report(6, all(checks), f"{sum(checks)}/{len(checks)} distribution checks, "
            f"PT sup-norms {sup1:.1e}/{sup2:.1e}")


def test_criterion_7_confinement_combinatorics():
    """Direct lattice sums equal the closed confinement coefficients, and the
    wall-number series equals the closed ratio, all to 1e-10."""
    worst_f, worst_s = 0.0, 0.0
    for d in (2, 3, 5):
        for alpha in (1, 2, 3, 4):
            fd = th.f_alpha(alpha, d, "direct")
            fc = th.f_alpha(alpha, d, "closed")
            worst_f = max(worst_f, abs(fd / fc - 1))
    for k in (1, 2, 3, 4):
        for d in (2, 3):
            for x in (0.1, 1.0, 5.0):
                worst_s = max(
                    worst_s,
                    abs(th.series_ratio_setup1(k, x, d) / th.setup1_ratio(k, x, d) - 1),
                )
    _report(7, worst_f < 1e-10 and worst_s < 1e-10,
            f"f_alpha rel err = {worst_f:.2e}, series rel err = {worst_s:.2e}")


def test_criterion_8_unitary_dressing():
    """Richardson-extrapolated chi^(-beta) coefficients of the dressed bond
    equal ((d-1)/d)^beta on commuting-transposition pairs at m = 4."""
    idx = oracles.group_index(4)
    pairs = {1: idx[(1, 0, 2, 3)], 2: idx[(1, 0, 3, 2)]}
    worst = 0.0
    lines = []
    for d in (2, 3):
        for beta in (1, 2):
            chis = [1e2, 1e3, 1e4]
            vals = []
            for chi in chis:
                t = oracles.interaction_matrix(4, chi, d, HAAR)
                vals.append(d**4 * t[0, pairs[beta]] * chi**beta)
            h = np.array([1.0 / c for c in chis])
            coef = np.linalg.solve(np.vander(h, 3, increasing=True), vals)
            target = ((d - 1) / d) ** beta
            worst = max(worst, abs(coef[0] - target))
            lines.append(f"d={d},beta={beta}: {coef[0]:.6f} vs {target:.6f}")
    _report(8, worst < 1e-3, f"max |dev| = {worst:.1e}; " + "; ".join(lines))
