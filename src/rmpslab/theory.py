"""Closed-form scaling-limit predictions for projected-ensemble frame potentials.

Two circuit geometries are covered.  In the staircase setup the measured
region sits to one side and domain walls are pinned near the interface by an
asymmetric confining potential; the frame-potential ratio is a discrete sum
over the wall position.  In the glued shallow setup walls are bound into
meson-like pairs and the ratio exponentiates.  The scaling variable is

    staircase (unitary):   x = (D_A / chi) (d - 1) / d
    staircase (gaussian):  x = D_A / chi
    glued (both):          x = N_A / chi^2

All ratios here are normalized against the asymptotic Haar frame potential
k! D_A^(-k).

The ratios and densities are limits D_A, chi -> infinity at fixed x.  At
finite D_A even Haar-random states differ from them: u = D_A |<psi|phi>|^2
has E[u^k]/k! = D_A^k / (D_A)_k (rising factorial; 0.8 at k = 2, D_A = 4)
and density ((D_A - 1)/D_A) (1 - u/D_A)^(D_A - 2) on [0, D_A] instead of
Porter-Thomas exp(-u).  The exact finite-size reference is the dense
oracle (``mps.oracle_frame_potentials``).
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np

from . import permutations as pg
from .errors import SizeLimitError
from .permutations import ReplicaShape
from .weingarten import HAAR, EnsembleKind

_REL_TOL = 1e-14


def _series(term) -> float:
    """sum_(j >= 0) term(j), stopped at the first term that is below the one
    before it and at or below _REL_TOL of the partial sum (so past the peak);
    raises RuntimeError past 100,000 terms."""
    total, prev = 0.0, np.inf
    for j in range(100001):
        t = term(j)
        total += t
        if t < prev and t <= _REL_TOL * total:
            return total
        prev = t
    raise RuntimeError("series failed to converge within 100,000 terms")


def _check_d(d: int) -> None:
    """Refuse a local dimension below 2: the closed forms hold for d >= 2."""
    if d < 2:
        raise ValueError(f"need d >= 2, got d={d}")


def haar_frame_potential(k: int, d_a: float) -> float:
    """Asymptotic Haar value k! D_A^(-k)."""
    if k < 1:
        raise ValueError(f"moment order k must be >= 1, got {k}")
    if d_a <= 0:
        raise ValueError(f"need D_A > 0, got {d_a}")
    return math.factorial(k) * float(d_a) ** (-k)


def scaling_variable(setup: str, kind: EnsembleKind, d: int, chi: float, n_a: int) -> float:
    """The confinement scaling variable x for a given geometry and ensemble."""
    _check_d(d)
    if chi <= 0:
        raise ValueError(f"need chi > 0, got chi={chi}")
    if setup == "staircase":
        d_a = float(d) ** n_a
        if kind.is_haar:
            return (d_a / chi) * (d - 1) / d
        return d_a / chi
    if setup == "glued":
        return n_a / chi**2
    raise ValueError(f"unknown setup {setup!r}")


def setup1_ratio(k: int, x: float, d: int) -> float:
    """Staircase frame-potential ratio: the discrete confined-wall sum.

    ((d-1)/d) sum_j d^(-j) (1 + x d/(d-1) + x j)^k, truncated once a term
    falls below 1e-14 of the partial sum (past the term peak).  This is
    the D_A, chi -> infinity limit at fixed x; it leaves out the finite-D Haar
    factor D_A^k / (D_A)_k (see the module docstring).
    """
    if k < 1 or x < 0:
        raise ValueError(f"need k >= 1 and x >= 0; got k={k}, x={x}")
    _check_d(d)
    base = 1.0 + x * d / (d - 1)
    return (d - 1) / d * _series(lambda j: d ** (-float(j)) * (base + x * j) ** k)


def setup1_pdf(u: float, x: float, d: int) -> float:
    """Overlap density for the staircase setup: a discrete mixture of exponentials.

    P(u; x) = ((d-1)/d) sum_j exp(-u / z_j) / z_j d^(-j) with
    z_j = 1 + x d/(d-1) + x j; reduces to Porter-Thomas exp(-u) at x = 0.
    This is the D_A, chi -> infinity limit at fixed x; at finite D_A the
    overlap density vanishes for u > D_A (see the module docstring).
    """
    if u < 0 or x < 0:
        raise ValueError(f"need u >= 0 and x >= 0; got u={u}, x={x}")
    _check_d(d)
    base = 1.0 + x * d / (d - 1)

    def term(j: int) -> float:
        z = base + x * j
        return d ** (-float(j)) * math.exp(-u / z) / z

    return (d - 1) / d * _series(term)


def setup2_ratio(k: int, x: float, d: int) -> float:
    """Glued-circuit frame-potential ratio: exp(x k (d - 1 - 1/d) + x k^2)."""
    if k < 1 or x < 0:
        raise ValueError(f"need k >= 1 and x >= 0; got k={k}, x={x}")
    _check_d(d)
    return math.exp(x * k * (d - 1.0 - 1.0 / d) + x * k * k)


def setup2_excitation_exponent(k: int, n: float, d: int) -> float:
    """Coefficient of x in the glued-circuit generalized ratio at m = 2(n+k).

    Sum of the six excitation channels: walls that hop toward the overlap
    pairing on an A site, walls through non-factorized states on an A site,
    bound factorized meson pairs, vacuum-to-vacuum double jumps, plus the two
    unitary dressing counterterms from the Weingarten expansions.
    """
    _check_d(d)
    m = 2.0 * (n + k)
    half = m / 2.0
    return (
        k * d
        + (m * (m - 1.0) / 2.0 - k - half * (half - 1.0)) / d
        + m * (half - 1.0) * (d + 3.0) / (d - 1.0)
        + k * (k - 1.0)
        - m * (m - 1.0) / (2.0 * d)
        - half * (half - 1.0)
    )


def setup2_generalized_ratio(k: int, n: float, x: float, d: int) -> float:
    """Glued ratio at general replica number n (n >= 0 or the limit value 1-k).

    At n = 1-k (m = 2) this collapses exactly to ``setup2_ratio``.
    """
    if x < 0:
        raise ValueError(f"need x >= 0, got {x}")
    if n < 0 and n != 1 - k:
        raise ValueError(f"replica number must be >= 0 or exactly 1-k, got n={n}")
    return math.exp(x * setup2_excitation_exponent(k, n, d))


def setup2_pdf(u: float, x: float, d: int) -> float:
    """Overlap density for the glued setup: exponential mixed over a log-normal.

    P(u; x) = int dw/sqrt(2 pi) exp(-w^2/2 - w s - mu) exp(-u e^(-s w - mu))
    with mu = x (d^2 - d - 1)/d and s = sqrt(2 x), evaluated by Gauss-Hermite
    quadrature (64 nodes, 128 for x > 1).  x = 0 degenerates to exp(-u).
    """
    if u < 0 or x < 0:
        raise ValueError(f"need u >= 0 and x >= 0; got u={u}, x={x}")
    _check_d(d)
    if x == 0:
        return math.exp(-u)
    mu = x * (d * d - d - 1.0) / d
    sig = math.sqrt(2.0 * x)
    t, w = _hermgauss(128 if x > 1 else 64)
    ww = math.sqrt(2.0) * t
    rate = np.exp(-sig * ww - mu)
    vals = rate * np.exp(-u * rate)
    return float(np.dot(w, vals) / math.sqrt(math.pi))


@lru_cache(maxsize=None)
def _hermgauss(nodes: int):
    t, w = np.polynomial.hermite.hermgauss(nodes)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


_DIRECT_ALPHA_CAP = 4


def f_alpha(alpha: int, d: int, mode: str = "closed") -> float:
    """Confined partition sum over alpha wall positions (both evaluation routes).

    closed: (d/(d-1))^(alpha-1) (1 + sum_{j>=1} d^(-j) (1 + j (d-1)/d)^alpha).
    direct: brute-force lattice sum of d^(-V) over all integer wall offsets
    ell_i from the interface with |ell_i| <= L_cut, the cutoff chosen so the
    geometric tail is below 1e-12; capped at alpha <= 4 where the full grid
    is still enumerable.  V is the confining cost: walls inside the
    unmeasured region pay their depth individually, walls in the measured
    region only the deepest excursion, V = sum_i max(-ell_i, 0) +
    max(0, max_i ell_i).
    """
    if not 0 <= alpha <= 6:
        raise ValueError(f"alpha must be in [0, 6], got {alpha}")
    _check_d(d)
    if mode not in ("closed", "direct"):
        raise ValueError(f"mode must be 'direct' or 'closed', got {mode!r}")
    if alpha == 0:
        return 1.0
    if mode == "closed":
        series = _series(lambda j: d ** (-float(j)) * (1.0 + j * (d - 1.0) / d) ** alpha)
        return (d / (d - 1.0)) ** (alpha - 1) * series
    if alpha > _DIRECT_ALPHA_CAP:
        raise SizeLimitError(
            f"direct lattice sum capped at alpha <= {_DIRECT_ALPHA_CAP} "
            f"((2L+1)^alpha grid); use closed mode"
        )
    return _f_alpha_direct(alpha, d)


def _direct_cutoff(alpha: int, d: int) -> int:
    # a configuration with max |ell_i| = M > L costs at least d^(-M) times a
    # confined sum over the remaining alpha-1 walls, so the tail is below
    # 2 alpha f_{alpha-1} d^(-L) d/(d-1); the closed form only scales the
    # cutoff, the lattice sum itself stays independent of it
    scale = f_alpha(alpha, d, mode="closed")
    prefac = 2.0 * alpha * f_alpha(alpha - 1, d, mode="closed") * d / (d - 1.0)
    L = 4
    while prefac * d ** (-float(L)) >= 1e-13 * max(1.0, scale):
        L += 1
    return L


def _f_alpha_direct(alpha: int, d: int) -> float:
    L = _direct_cutoff(alpha, d)
    ell = np.arange(-L, L + 1)
    a_cost = np.maximum(-ell, 0).astype(np.float64)  # per-wall cost inside A
    b_pos = np.maximum(ell, 0).astype(np.float64)  # excursion into B
    if alpha == 1:
        return float(np.sum(d ** -(a_cost + b_pos)))
    # accumulate over the last alpha-1 axes, then loop the first axis in blocks
    acc_a = a_cost.copy()
    acc_b = b_pos.copy()
    for _ in range(alpha - 2):
        acc_a = acc_a[:, None] + a_cost[None, :]
        acc_b = np.maximum(acc_b[:, None], b_pos[None, :])
        acc_a = acc_a.reshape(-1)
        acc_b = acc_b.reshape(-1)
    total = 0.0
    for i in range(ell.size):
        v = (a_cost[i] + acc_a) + np.maximum(b_pos[i], acc_b)
        total += float(np.sum(float(d) ** -v))
    return total


def series_ratio_setup1(k: int, x: float, d: int) -> float:
    """Staircase ratio rebuilt from the wall-number expansion.

    sum_{alpha=0}^{k} C(k, alpha) x^alpha f_alpha(alpha, d); identical to
    ``setup1_ratio`` by the binomial resummation.
    """
    if k > 6:
        raise SizeLimitError(f"series expansion implemented for k <= 6, got k={k}")
    return sum(
        math.comb(k, alpha) * x**alpha * f_alpha(alpha, d, mode="closed")
        for alpha in range(k + 1)
    )


def _log_factorized_sum(shape: ReplicaShape, d: int, n_a: int) -> float:
    """log sum over factorized permutations of d^((m - dist(sigma, pairing)) N_A).

    The chi -> infinity limit locks one common permutation along the chain;
    the measured-region boundary restricts it to the factorized set, each
    member weighted by its distance to the overlap pairing on all N_A kept
    sites.  For N_A >> 1 the k! minima at distance k dominate and the sum
    approaches k! d^((m-k) N_A); at small N_A the subleading factorized
    permutations are not negligible and the full sum is the honest limit.
    """
    m = shape.m
    sig_a = pg.overlap_permutation(shape)
    dists = pg.distances_from(m, sig_a)[pg.factorized_mask(m)].astype(np.float64)
    exps = (m - dists) * n_a * math.log(d)
    peak = float(np.max(exps))
    return peak + math.log(float(np.sum(np.exp(exps - peak))))


def leading_order_log(
    shape: ReplicaShape,
    d: int,
    chi: float,
    n_a: int,
    n_b: int | None,
    setup: str,
    kind: EnsembleKind = HAAR,
) -> float:
    """log of the exact chi -> infinity frame potential.

    Staircase: the common factorized permutation carries weight
    d^(m - dist) on each of the N_A kept sites (summed over the factorized
    set), d^2 on each of the N_B - 1 measured d-sites, chi^2 at the measured
    chi-leg, chi^m per bond, and one gate-average constant per gate
    (N_A + N_B - 1 gates).  Glued: the same factorized sum over blocks times
    chi^4 per measured chi^2-site and chi^m per bond, with gate constants
    varsigma_A^(2m) per block and varsigma_B^(2m) per glue gate.  At large
    N_A both reduce to the k!-degenerate ground-state expressions.
    """
    _check_d(d)
    if chi <= 0 or n_a < 1:
        raise ValueError(f"need chi > 0 and N_A >= 1; got chi={chi}, N_A={n_a}")
    m = shape.m
    logd, logchi = math.log(d), math.log(chi)
    log_fact_sum = _log_factorized_sum(shape, d, n_a)
    if setup == "staircase":
        if n_b is None or n_b < 1:
            raise ValueError("staircase leading order needs N_B >= 1")
        var = kind.gate_variance(d * chi)
        n_gates = n_a + n_b - 1
        return (
            log_fact_sum
            + 2.0 * logchi
            + 2 * (n_b - 1) * logd
            + m * (n_gates - 1) * logchi
            + m * n_gates * math.log(var)
        )
    if setup == "glued":
        var_a = kind.gate_variance(d * chi**2)
        var_b = kind.gate_variance(chi**2, glue=True)
        return (
            log_fact_sum
            + n_a * m * math.log(var_a)
            + (n_a + 1) * (m * math.log(var_b) + 4.0 * logchi)
            + 2.0 * m * n_a * logchi
        )
    raise ValueError(f"unknown setup {setup!r}")

