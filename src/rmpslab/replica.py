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

The chain builders and ``frame_potential_chain`` take the circuit as one
``mps.Circuit``, which has already validated it, and the replica counts as a
``ReplicaShape``.  Values are returned as (mantissa, log scale) pairs: chains
underflow binary64 long before they stop being meaningful.

Every chain operator is invariant under the symmetry described in
``permutations.chain_orbits``, so ``contract`` works on its orbit space:
vectors hold one value per orbit and each bond is an (orbits x orbits)
matrix.  At m = 8 and n = 0 that is 95 values instead of 40,320, and a
contraction takes milliseconds.  The gate-average dressing of the glue-site
weights goes through the same reduced kernel, with one class vector per
ensemble kind (``wg.gate_average_class_vector``).
``contract`` is the one contraction path; a dense whole-group contraction
(m <= 6) serves the tests as its reference.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import permutations as pg
from . import weingarten as wg
from .errors import ShapeMismatchError, SizeLimitError
from .mps import Circuit, check_circuit
from .permutations import ReplicaShape
from .weingarten import HAAR, EnsembleKind

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


def site_weight_B_glued(shape: ReplicaShape, chi: int, kind: EnsembleKind = HAAR) -> np.ndarray:
    """Glue-gate measured-site weight, dressed by the glue-gate average:

        sum_{sigma'} W_{sigma' sigma}(chi^2) [chi^4 1_F(sigma') + chi^2 (1 - 1_F(sigma'))]

    with W the Weingarten kernel (haar) or varsigma^(2m) times the identity,
    varsigma^2 = 1/chi^2 unless overridden (gaussian).

    The gaussian kernel is the large-q diagonal limit of W(q), q = chi^2, but
    the two weights agree only on factorized entries, to 2/q.  Non-factorized
    entries are smaller by 1/q; in some of them the haar value is about -q^-4
    against the gaussian +q^-3.
    """
    check_circuit(chi)
    q = float(chi) ** 2
    # the undressed weight: outcome sum x D_B share
    vec = np.where(pg.factorized_mask(shape.m), float(chi) ** 4, q)
    orbits = pg.chain_orbits(shape)
    kernel = pg.reduced_kernel(shape, wg.gate_average_class_vector(shape.m, q, kind, glue=True))
    return (kernel @ vec[orbits.reps])[orbits.label]


def _staircase_chi_leg_vector(shape: ReplicaShape, chi: int) -> np.ndarray:
    """Measured chi-leg weight chi (chi 1_F + (1 - 1_F)): outcome sum x D_B share."""
    mask = pg.factorized_mask(shape.m)
    return float(chi) * np.where(mask, float(chi), 1.0)


# chain selectors: name -> (role, its value for a spec); a site resolves to
# its m!-vector, a bond to the class vector of its kernel
SELECTORS = {
    "A": ("site", lambda spec: site_weight_A(spec.shape, spec.d)),
    "B_staircase": ("site", lambda spec: site_weight_B_staircase(spec.shape, spec.d)),
    "B_glued": ("site", lambda spec: site_weight_B_glued(spec.shape, spec.chi, spec.kind)),
    # the dressed interaction T(chi, d) = W(d chi) G(chi)
    "staircase_bulk": (
        "bond",
        lambda spec: wg.interaction_class_vector(spec.shape.m, float(spec.chi), spec.d, spec.kind),
    ),
    # the bare Gram matrix G(chi) carried by each auxiliary leg (the glued
    # A-gate constant c_W(d chi^2) is part of the prefactor)
    "glued_A_to_B": ("bond", lambda spec: wg.gram_class_vector(spec.shape.m, float(spec.chi))),
}


@dataclass(frozen=True)
class ReplicaChainSpec:
    """Declarative permutation-chain partition function.

    ops lists the chain operators between the two boundary vectors, left to
    right.  Each is a key of ``SELECTORS`` (resolved through the chain's
    shape, chi, d, kind), an explicit (m!,) site weight or an explicit
    (m!, m!) bond.

    The orbit-space contraction accepts an explicit operand only when it is
    invariant under the chain symmetry (a bond: when it maps invariant
    vectors to invariant vectors), to ``INVARIANCE_TOL`` relative.
    """

    shape: ReplicaShape
    kind: EnsembleKind
    chi: int
    d: int
    ops: tuple
    left_boundary: np.ndarray
    right_boundary: np.ndarray
    log_prefactor: float = 0.0

    def __post_init__(self):
        fac = math.factorial(self.shape.m)
        for v in (self.left_boundary, self.right_boundary):
            if np.shape(v) != (fac,):
                raise ShapeMismatchError(f"boundary vector length != {fac}")
        for op in self.ops:
            if isinstance(op, str):
                if op not in SELECTORS:
                    raise ValueError(f"unknown chain selector {op!r}")
            elif np.shape(op) not in ((fac,), (fac, fac)):
                raise ShapeMismatchError(
                    f"explicit chain operand has shape {np.shape(op)}, "
                    f"expected ({fac},) or ({fac}, {fac})"
                )


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


def contract(spec: ReplicaChainSpec) -> ChainValue:
    """Evaluate the chain right-to-left with per-step max-norm rescaling.

    The contraction works on the orbit space of the chain symmetry: site
    weights act on the orbit representatives, each bond is the
    (orbits x orbits) ``pg.reduced_kernel``, and the closing product weighs
    each orbit by its size.  The rescaling is that of the whole group, since
    an invariant vector takes its maximum on a representative.
    """
    orbits = pg.chain_orbits(spec.shape)
    # each selector is resolved once per call: a chain repeats a few
    # selectors many times
    resolved: dict[str, np.ndarray] = {}
    for op in spec.ops:
        if isinstance(op, str) and op not in resolved:
            role, value_of = SELECTORS[op]
            value = value_of(spec)
            resolved[op] = (
                value[orbits.reps] if role == "site" else pg.reduced_kernel(spec.shape, value)
            )
    ops = [resolved[op] if isinstance(op, str) else _reduce_operand(orbits, op) for op in spec.ops]

    vec = _reduce_operand(orbits, spec.right_boundary)
    log_scale = spec.log_prefactor
    for op in reversed(ops):
        vec = op @ vec if op.ndim == 2 else op * vec
        peak = np.max(np.abs(vec))
        if peak == 0.0:
            return ChainValue(0.0, 0.0)
        vec = vec / peak
        log_scale += math.log(peak)
    left = _reduce_operand(orbits, spec.left_boundary) * orbits.sizes
    mantissa = float(np.dot(left, vec))
    return ChainValue(mantissa, log_scale)


def staircase_chain(circuit: Circuit, shape: ReplicaShape) -> ReplicaChainSpec:
    """Chain for the sequential circuit: N_A + N_B - 1 gates.

    Explicit weights for every gate site (N_A of type A, N_B - 1 measured
    d-sites), dressed bonds on every gap, all ones on the left (the first
    gate's |0> inputs), the plain measured chi-leg vector on the right, and
    the first gate's average constant as a scalar prefactor.  No gate
    average is folded into a boundary, so the same grouping covers N_B = 1,
    where no measured d-site is left.
    """
    m, d, chi, kind = shape.m, circuit.d, circuit.chi, circuit.kind
    log_pref = math.log(wg.weingarten_sum_constant(m, float(d * chi), kind))
    sites = ("A",) * circuit.n_a + ("B_staircase",) * (circuit.n_b - 1)
    return ReplicaChainSpec(
        shape=shape,
        kind=kind,
        chi=chi,
        d=d,
        ops=tuple(op for site in sites for op in (site, "staircase_bulk"))[:-1],
        left_boundary=np.ones(math.factorial(m)),
        right_boundary=_staircase_chi_leg_vector(shape, chi),
        log_prefactor=log_pref,
    )


def glued_chain(circuit: Circuit, shape: ReplicaShape) -> ReplicaChainSpec:
    """Chain for the glued shallow circuit: alternating A blocks and glue sites.

    All 2 N_A gaps carry the bare Gram bond G(chi); the N_A + 1 measured-site
    weights appear as N_A - 1 interior sites plus the two boundaries; each
    block gate contributes the scalar c_W(d chi^2) (haar) or
    varsigma_A^(2m) (gaussian), accumulated in the prefactor.
    """
    m, d, chi, kind = shape.m, circuit.d, circuit.chi, circuit.kind
    if kind.is_haar:
        log_block = math.log(wg.weingarten_sum_constant(m, float(d * chi * chi), HAAR))
    else:
        # m log(varsigma_A^2): log(weingarten_sum_constant) differs in the
        # last bits of log_scale, which the contract files record
        log_block = m * math.log(kind.gate_variance(d * chi**2))
    beta = site_weight_B_glued(shape, chi, kind)
    return ReplicaChainSpec(
        shape=shape,
        kind=kind,
        chi=chi,
        d=d,
        # G A G B G A G ... B G A G
        ops=(("B_glued", "glued_A_to_B", "A", "glued_A_to_B") * circuit.n_a)[1:],
        left_boundary=beta.copy(),
        right_boundary=beta.copy(),
        log_prefactor=circuit.n_a * log_block,
    )


def frame_potential_chain(circuit: Circuit, k: int, n: int) -> ChainValue:
    """Circuit-averaged generalized frame potential E_psi[F^(k, n)].

    k and n are replica counts (``ReplicaShape``): n must be a non-negative
    integer (the replica limit n = 1 - k is an analytic continuation handled
    only by the closed forms in ``theory``).
    """
    shape = ReplicaShape(n, k)
    # before any m!-vector is allocated: at m = 12 one is 3.8 GB
    if shape.m > pg.MAX_ENUM_M:
        raise SizeLimitError(f"m = 2(n+k) = {shape.m} exceeds cap {pg.MAX_ENUM_M}")
    chain = staircase_chain if circuit.setup == "staircase" else glued_chain
    return contract(chain(circuit, shape))
