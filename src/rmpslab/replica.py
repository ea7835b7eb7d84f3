"""Exact circuit-averaged frame potentials as permutation-chain contractions.

Averaging the replicated circuit gate by gate turns the generalized frame
potential into a one-dimensional partition function over S_m variables, one
per gate: diagonal onsite weights (distance to the overlap pairing in region
A, a factorized-set indicator in region B), bond matrices coupling
neighboring permutations through the auxiliary space, and boundary vectors.

Chain groupings used here (pinned by exact agreement with the dense
statevector oracle at small sizes):

* staircase, N_A + N_B - 1 gates:

      F = c_W(d chi) * ones . D_1 T D_2 T ... T D_(gates) . r

  with T = W(d chi) G(chi), D_i the A/B site weights, r the measured
  chi-leg vector chi^2 (factorized) / chi (otherwise), and c_W the
  gate-average constant from the first gate's |0> inputs.  The outcome-count
  prefactor D_B is distributed as one factor d per measured d-site weight
  and the factor chi inside r.

* glued, alternating chain with all bonds G(chi):

      F = (c_W(d chi^2))^(N_A) * beta . G D_A G beta G D_A G ... D_A G . beta

  where beta is the Weingarten-dressed measured-site weight (one per glue
  gate, the two edge copies acting as boundary vectors).

Values are returned as (mantissa, log scale) pairs: chains underflow binary64
long before they stop being meaningful.

Every chain operator is invariant under the symmetry described in
``permutations.chain_orbits``, so ``contract`` works on its orbit space:
vectors hold one value per orbit and each bond is an (orbits x orbits)
matrix.  At m = 8 and n = 0 that is 95 values instead of 40,320, and a
contraction takes milliseconds.  The Weingarten dressing of the glue-site
and staircase boundary weights goes through the same reduced kernel.  The
dense (m <= 6) and matrix-free Cayley-walk paths survive as oracles behind
``contract(method=...)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import permutations as pg
from . import weingarten as wg
from .errors import ShapeMismatchError, SizeLimitError
from .permutations import ReplicaShape
from .weingarten import HAAR, EnsembleKind

MAX_CHAIN_M = 8
# explicit operands must be invariant under the chain symmetry to this relative size
INVARIANCE_TOL = 1e-12


@dataclass(frozen=True)
class ChainValue:
    """Scaled scalar: value = mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float

    @property
    def value(self) -> float:
        return self.mantissa * math.exp(self.log_scale)

    @property
    def log(self) -> float:
        """log of |value|."""
        if self.mantissa == 0.0:
            return -math.inf
        return math.log(abs(self.mantissa)) + self.log_scale

    @property
    def sign(self) -> float:
        return math.copysign(1.0, self.mantissa)

    def __float__(self) -> float:
        return self.value

    def ratio_log(self, other: "ChainValue") -> float:
        return self.log - other.log


def site_weight_A(shape: ReplicaShape, d: int) -> np.ndarray:
    """Onsite weight in region A: d^(m - dist(sigma, overlap pairing))."""
    sig_a = pg.overlap_permutation(shape)
    return float(d) ** (shape.m - pg.distances_from(shape.m, sig_a).astype(np.float64))


def site_weight_B_staircase(shape: ReplicaShape, d: int) -> np.ndarray:
    """Measured d-site weight: d^2 on factorized permutations, d otherwise.

    One factor d is the outcome sum, the second the site's share of the
    fixed-outcome prefactor D_B.
    """
    mask = pg.factorized_mask(shape.m)
    return np.where(mask, float(d) ** 2, float(d))


def _glued_measured_vector(shape: ReplicaShape, chi: int) -> np.ndarray:
    """chi^4 on factorized permutations, chi^2 otherwise (outcome sum x D_B share)."""
    mask = pg.factorized_mask(shape.m)
    return np.where(mask, float(chi) ** 4, float(chi) ** 2)


def site_weight_B_glued(shape: ReplicaShape, chi: int, kind: EnsembleKind = HAAR) -> np.ndarray:
    """Glue-gate measured-site weight, dressed by the Weingarten kernel.

    haar: sum_{sigma'} W_{sigma' sigma}(chi^2) [chi^4 1_F(sigma') + chi^2 (1 - 1_F)];
    gaussian: the diagonal replacement varsigma^(2m) [chi^4 1_F + chi^2 (1-1_F)]
    with varsigma^2 = 1/chi^2 unless overridden, exact for i.i.d. Gaussian
    glue gates (Wick's theorem makes their m-fold average diagonal).

    The gaussian kernel is the large-q diagonal limit of W(q), q = chi^2, but
    the two weights agree only on factorized entries, to 2/q.  Non-factorized
    entries are smaller by 1/q; in some of them the haar value is about -q^-4
    against the gaussian +q^-3.
    """
    vec = _glued_measured_vector(shape, chi)
    if kind.is_haar:
        return _weingarten_dressed(shape, float(chi) ** 2, vec)
    var = kind.variance_b if kind.variance_b is not None else 1.0 / chi**2
    return var**shape.m * vec


def _weingarten_dressed(shape: ReplicaShape, q: float, vec: np.ndarray) -> np.ndarray:
    """W(q) @ vec for an invariant vec, applied on the orbit space."""
    orbits = pg.chain_orbits(shape)
    kernel = pg.reduced_kernel(shape, wg.weingarten_class_vector(shape.m, q))
    return (kernel @ vec[orbits.reps])[orbits.label]


def _staircase_chi_leg_vector(shape: ReplicaShape, chi: int) -> np.ndarray:
    """Measured chi-leg weight chi (chi 1_F + (1 - 1_F)): outcome sum x D_B share."""
    mask = pg.factorized_mask(shape.m)
    return float(chi) * np.where(mask, float(chi), 1.0)


def bond_matrix(
    shape: ReplicaShape, chi: int, d: int, kind: EnsembleKind, location: str
) -> np.ndarray:
    """Dense bond matrix for a chain gap (m <= 6).

    staircase_bulk: the dressed interaction T(chi, d) = W(d chi) G(chi);
    glued_A_to_B: the bare Gram matrix G(chi) carried by each auxiliary leg
    (the glued A-gate constant c_W(d chi^2) is a scalar attached to the A
    site weight).
    """
    m = shape.m
    if location == "staircase_bulk":
        return wg.interaction_matrix(m, float(chi), d, kind)
    if location == "glued_A_to_B":
        return wg.gram_matrix(m, float(chi))
    raise ValueError(f"unknown bond location {location!r}")


def _bond_class_vector(
    shape: ReplicaShape, chi: int, d: int, kind: EnsembleKind, location: str
) -> np.ndarray:
    if location == "staircase_bulk":
        return wg.interaction_class_vector(shape.m, float(chi), d, kind)
    if location == "glued_A_to_B":
        return wg.gram_class_vector(shape.m, float(chi))
    raise ValueError(f"unknown bond location {location!r}")


def boundary_vectors(
    setup: str, shape: ReplicaShape, chi: int, d: int, kind: EnsembleKind = HAAR
) -> tuple[np.ndarray, np.ndarray]:
    """Boundary vectors of the replica chain.

    The left vector is all ones (the first gate's |0> inputs).  The
    staircase right vector absorbs the final gate average, the last measured
    d-site weight and the chi-leg:

        (v_R)_pi = d chi sum_{pi'} W_{pi pi'}(d chi) [d chi 1_F(pi') + (1 - 1_F(pi'))]

    (gaussian: the diagonal Weingarten replacement).  A chain terminated
    with this vector carries the bare Gram bond G(chi) on its last gap and
    one fewer explicit measured-site weight, so its site and bond counts are
    equal (the sites-first equal-count form of ``ReplicaChainSpec``):

        F = c_W(d chi) * ones . D_1 T ... T D_(gates - 1) G(chi) . v_R

    ``staircase_chain`` uses the equivalent grouping with the plain chi-leg
    vector instead, which also covers N_B = 1.  Glued boundaries are the
    measured-site weight ``site_weight_B_glued`` absorbed at each chain end.
    """
    m = shape.m
    fac = math.factorial(m)
    left = np.ones(fac)
    if setup == "glued":
        beta = site_weight_B_glued(shape, chi, kind)
        return left, beta.copy()
    if setup != "staircase":
        raise ValueError(f"unknown setup {setup!r}")
    q = float(d * chi)
    mask = pg.factorized_mask(m)
    inner = np.where(mask, q, 1.0)
    if kind.is_haar:
        return left, q * _weingarten_dressed(shape, q, inner)
    var = kind.variance if kind.variance is not None else 1.0 / q
    return left, q * var**m * inner


@dataclass(frozen=True)
class ReplicaChainSpec:
    """Declarative permutation-chain partition function.

    sites and bonds may be role/location selectors (resolved through the
    chain's shape, chi, d, kind) or explicit m!-vectors / matrices.  Sites
    and bonds interleave between the two boundary vectors, left to right;
    their counts differ by at most one:

    * one more site: sites first and last (``staircase_chain``);
    * equal counts: sites first, so a bond sits next to the right boundary
      (the dressed-right-vector grouping of ``boundary_vectors``);
    * one more bond: bonds first and last (``glued_chain``).

    The orbit-space contraction accepts an explicit operand only when it is
    invariant under the chain symmetry (a bond: when it maps invariant
    vectors to invariant vectors), to ``INVARIANCE_TOL`` relative.
    """

    shape: ReplicaShape
    kind: EnsembleKind
    chi: int
    d: int
    sites: tuple
    bonds: tuple
    left_boundary: np.ndarray
    right_boundary: np.ndarray
    log_prefactor: float = 0.0

    def __post_init__(self):
        if abs(len(self.sites) - len(self.bonds)) > 1:
            raise ShapeMismatchError(
                f"sites ({len(self.sites)}) and bonds ({len(self.bonds)}) counts "
                "must differ by at most 1"
            )
        fac = math.factorial(self.shape.m)
        for v in (self.left_boundary, self.right_boundary):
            if np.asarray(v).shape != (fac,):
                raise ShapeMismatchError(f"boundary vector length != {fac}")
        for ops, shape in ((self.sites, (fac,)), (self.bonds, (fac, fac))):
            for op in ops:
                if not isinstance(op, str) and np.shape(op) != shape:
                    raise ShapeMismatchError(
                        f"explicit chain operand has shape {np.shape(op)}, expected {shape}"
                    )


def _resolve_site(spec: ReplicaChainSpec, role: str) -> np.ndarray:
    if role == "A":
        return site_weight_A(spec.shape, spec.d)
    if role == "B_staircase":
        return site_weight_B_staircase(spec.shape, spec.d)
    if role == "B_glued":
        return site_weight_B_glued(spec.shape, spec.chi, spec.kind)
    raise ValueError(f"unknown site role {role!r}")


def _reduce_operand(orbits: pg.ChainOrbits, operand) -> np.ndarray:
    """An explicit m!-vector or m! x m! bond on the orbit space.

    A vector must be constant on every orbit.  A bond B must map invariant
    vectors to invariant vectors: its orbit sums sum_{tau in o} B[i, tau]
    must be constant on every orbit of i, and they form the reduced bond.
    """
    operand = np.asarray(operand, dtype=np.float64)
    if operand.ndim == 2:
        operand = operand @ (orbits.label[:, None] == np.arange(orbits.reps.size))
    reduced = operand[orbits.reps]
    if np.abs(operand - reduced[orbits.label]).max() > INVARIANCE_TOL * np.abs(operand).max():
        raise ValueError("explicit chain operand is not invariant under the chain symmetry")
    return reduced


def contract(spec: ReplicaChainSpec, method: str = "reduced") -> ChainValue:
    """Evaluate the chain right-to-left with per-step max-norm rescaling.

    method: 'reduced' (the engine) works on the orbit space of the chain
    symmetry: site weights act on the orbit representatives, each bond is
    the (orbits x orbits) ``pg.reduced_kernel``, and the closing product
    weighs each orbit by its size.  The rescaling is unchanged, since an
    invariant vector takes its maximum on a representative.  The oracles
    work on the whole group: 'dense' materializes bond matrices (m <= 6),
    'free' applies them as class kernels through Cayley-graph matvecs, at
    O((m!)^2) per bond.
    """
    m = spec.shape.m
    if m > MAX_CHAIN_M:
        raise SizeLimitError(f"replica count m={m} exceeds cap {MAX_CHAIN_M}")
    if method not in ("reduced", "dense", "free"):
        raise ValueError(f"unknown method {method!r}")
    if method == "dense" and m > pg.MAX_DENSE_M:
        raise SizeLimitError(f"dense contraction capped at m={pg.MAX_DENSE_M}, got {m}")
    orbits = pg.chain_orbits(spec.shape) if method == "reduced" else None

    def explicit(operand) -> np.ndarray:
        if orbits is not None:
            return _reduce_operand(orbits, operand)
        return np.asarray(operand, dtype=np.float64)

    # each selector is resolved once per call: a chain repeats a few
    # selectors many times
    resolved: dict[tuple[str, str], np.ndarray] = {}

    def site_of(s):
        if not isinstance(s, str):
            return explicit(s)
        if ("site", s) not in resolved:
            w = _resolve_site(spec, s)
            resolved["site", s] = w if orbits is None else w[orbits.reps]
        return resolved["site", s]

    def bond_of(b):
        if not isinstance(b, str):
            if method == "free":
                raise ValueError("matrix-free contraction needs selector bonds")
            return explicit(b)
        if ("bond", b) not in resolved:
            if method == "dense":
                op = bond_matrix(spec.shape, spec.chi, spec.d, spec.kind, b)
            else:
                op = _bond_class_vector(spec.shape, spec.chi, spec.d, spec.kind, b)
                if orbits is not None:
                    op = pg.reduced_kernel(spec.shape, op)
            resolved["bond", b] = op
        return resolved["bond", b]

    sites = [site_of(s) for s in spec.sites]
    bonds = [bond_of(b) for b in spec.bonds]
    if method == "free":

        def apply_bond(b, v):
            return pg.class_kernel_matvec(m, b, v)

    else:

        def apply_bond(b, v):
            return b @ v

    # interleave sites and bonds left to right, sites first unless bonds
    # outnumber them; the loop below applies them rightmost first
    ops: list[tuple[str, object]] = []
    if len(sites) >= len(bonds):
        for i, s in enumerate(sites):
            ops.append(("site", s))
            if i < len(bonds):
                ops.append(("bond", bonds[i]))
    else:
        for i, b in enumerate(bonds):
            ops.append(("bond", b))
            if i < len(sites):
                ops.append(("site", sites[i]))

    vec = explicit(spec.right_boundary)
    log_scale = spec.log_prefactor
    for kind_tag, op in reversed(ops):
        vec = op * vec if kind_tag == "site" else apply_bond(op, vec)
        peak = np.max(np.abs(vec))
        if peak == 0.0:
            return ChainValue(0.0, 0.0)
        vec = vec / peak
        log_scale += math.log(peak)
    left = explicit(spec.left_boundary)
    if orbits is not None:
        left = left * orbits.sizes
    mantissa = float(np.dot(left, vec))
    return ChainValue(mantissa, log_scale)


def staircase_chain(
    shape: ReplicaShape, d: int, chi: int, n_a: int, n_b: int, kind: EnsembleKind = HAAR
) -> ReplicaChainSpec:
    """Chain for the sequential circuit: N_A + N_B - 1 gates.

    Explicit weights for every gate site (N_A of type A, N_B - 1 measured
    d-sites), dressed bonds on every gap, the chi-leg vector on the right,
    and the first gate's average constant as a scalar prefactor.
    """
    if n_a < 1 or n_b < 1:
        raise ShapeMismatchError(f"need N_A >= 1 and N_B >= 1, got ({n_a}, {n_b})")
    m = shape.m
    n_gates = n_a + n_b - 1
    log_pref = math.log(wg.weingarten_sum_constant(m, float(d * chi), kind))
    return ReplicaChainSpec(
        shape=shape,
        kind=kind,
        chi=chi,
        d=d,
        sites=("A",) * n_a + ("B_staircase",) * (n_b - 1),
        bonds=("staircase_bulk",) * (n_gates - 1),
        left_boundary=np.ones(math.factorial(m)),
        right_boundary=_staircase_chi_leg_vector(shape, chi),
        log_prefactor=log_pref,
    )


def glued_chain(
    shape: ReplicaShape, d: int, chi: int, n_a: int, kind: EnsembleKind = HAAR
) -> ReplicaChainSpec:
    """Chain for the glued shallow circuit: alternating A blocks and glue sites.

    All 2 N_A gaps carry the bare Gram bond G(chi); the N_A + 1 measured-site
    weights appear as N_A - 1 interior sites plus the two boundaries; each
    block gate contributes the scalar c_W(d chi^2) (haar) or
    varsigma_A^(2m) (gaussian), accumulated in the prefactor.
    """
    if n_a < 1:
        raise ShapeMismatchError(f"need N_A >= 1, got {n_a}")
    m = shape.m
    if kind.is_haar:
        log_block = math.log(wg.weingarten_sum_constant(m, float(d * chi * chi), HAAR))
    else:
        var_a = kind.variance if kind.variance is not None else 1.0 / (d * chi**2)
        log_block = m * math.log(var_a)
    beta = site_weight_B_glued(shape, chi, kind)
    sites = []
    for i in range(n_a):
        sites.append("A")
        if i < n_a - 1:
            sites.append("B_glued")
    return ReplicaChainSpec(
        shape=shape,
        kind=kind,
        chi=chi,
        d=d,
        sites=tuple(sites),
        bonds=("glued_A_to_B",) * (2 * n_a),
        left_boundary=beta.copy(),
        right_boundary=beta.copy(),
        log_prefactor=n_a * log_block,
    )


def frame_potential_chain(
    setup: str,
    k: int,
    n: int,
    n_a: int,
    n_b: int | None,
    d: int,
    chi: int,
    kind: EnsembleKind = HAAR,
    method: str = "reduced",
) -> ChainValue:
    """Circuit-averaged generalized frame potential E_psi[F^(k, n)].

    n must be a non-negative integer (the replica limit n = 1 - k is an
    analytic continuation handled only by the closed forms in ``theory``).
    """
    if n < 0 or int(n) != n:
        raise ValueError(f"the chain contraction needs integer n >= 0, got n={n}")
    if chi < 1 or d < 2 or n_a < 1:
        raise ValueError(f"need chi >= 1, d >= 2, N_A >= 1; got chi={chi}, d={d}, N_A={n_a}")
    if setup == "staircase" and n_b is not None and n_b < 1:
        raise ValueError(f"the staircase chain needs N_B >= 1, got {n_b}")
    shape = ReplicaShape(int(n), int(k))
    if shape.m > MAX_CHAIN_M:
        raise SizeLimitError(f"m = 2(n+k) = {shape.m} exceeds cap {MAX_CHAIN_M}")
    if setup == "staircase":
        if n_b is None:
            raise ValueError("staircase chain needs N_B")
        spec = staircase_chain(shape, d, chi, n_a, n_b, kind)
    elif setup == "glued":
        spec = glued_chain(shape, d, chi, n_a, kind)
    else:
        raise ValueError(f"unknown setup {setup!r}")
    return contract(spec, method=method)


def generalized_frame_potential(config, method: str = "reduced") -> ChainValue:
    """Duck-typed wrapper: reads setup/n/N_A/N_B/d/chi/kind off a config object.

    The moment order is the config's k attribute when present, else k_max.
    """
    k = getattr(config, "k", None)
    if k is None:
        k = config.k_max
    return frame_potential_chain(
        config.setup,
        k,
        config.n,
        config.n_a,
        config.n_b,
        config.d,
        config.chi,
        config.kind,
        method=method,
    )
