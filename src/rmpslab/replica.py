"""Exact circuit-averaged frame potentials as permutation-chain contractions.

Averaging the replicated circuit gate by gate turns the generalized frame
potential into a one-dimensional partition function over S_m variables, one
per gate: diagonal onsite weights (distance to the overlap pairing in region
A, a factorized-set indicator in region B), bond matrices coupling
neighboring permutations through the auxiliary space.

Every chain is read between all-ones vectors, its boundary weights being its
first and last sites.  Chain groupings used here (pinned by exact agreement
with the dense statevector oracle at small sizes):

* staircase, N_A + N_B - 1 gates:

      F = c_W(d chi) * ones . D_1 T D_2 T ... T D_(gates) R . ones

  with T = W(d chi) G(chi), D_i the A/B site weights, R the measured
  chi-leg weight chi^2 (factorized) / chi (otherwise), and c_W the
  gate-average constant from the first gate's |0> inputs.  The outcome-count
  prefactor D_B is distributed as one factor d per measured d-site weight
  and the factor chi inside R.

* glued, alternating chain with all bonds G(chi):

      F = (c_W(d chi^2))^(N_A) * ones . beta G D_A G beta ... D_A G beta . ones

  where beta is the Weingarten-dressed measured-site weight (one per glue
  gate, the two edge copies acting as boundaries).

Both chains are written as runs of a repeated cell, so a spec's length does
not grow with N_A or N_B: the staircase as (D_A T)^(N_A) (D_B T)^(N_B - 2) D_B R
((D_A T)^(N_A - 1) D_A R at N_B = 1), the glued chain as (beta G D_A G)^(N_A) beta.

The chain builders and ``frame_potential_chain`` take the circuit as one
``mps.Circuit``, which has already validated it, and the replica counts as a
``ReplicaShape``.  Values are returned as (mantissa, log scale) pairs: chains
underflow binary64 long before they stop being meaningful.

Every chain operator is invariant under the symmetry described in
``permutations.chain_orbits``, so ``contract`` works on its orbit space:
vectors hold one value per orbit and each bond is an (orbits x orbits)
matrix.  At m = 8 and n = 0 that is 95 values instead of 40,320, and a
contraction takes milliseconds.  A run goes op by op while that is cheaper;
a long run on a narrow orbit space is fused into one cell matrix and applied
by binary powering (``_power_is_cheaper`` weighs about o^2 flops per matvec
against o^3/8 per matmul, o the orbit count, each plus a fixed overhead), so
a glued chain at N_A = 2^28 takes milliseconds at m <= 6 and about a second
at m = 8.  The gate-average dressing of the glue-site
weights goes through the same reduced kernel, with one class vector per
ensemble kind (``wg.gate_average_class_vector``).
``contract`` is the one contraction path; a dense whole-group contraction
(m <= 6) serves the tests as its reference.
"""

from __future__ import annotations

import math
import numbers
import sys
from dataclasses import dataclass

import numpy as np

from . import permutations as pg
from . import weingarten as wg
from .errors import SizeLimitError
from .mps import Circuit, check_circuit
from .permutations import ReplicaShape
from .weingarten import HAAR, EnsembleKind


@dataclass(frozen=True)
class ChainValue:
    """Scaled scalar: value = mantissa * exp(log_scale)."""

    mantissa: float
    log_scale: float

    @property
    def value(self) -> float:
        """The scalar as a float: +-inf past the float range, 0 below it."""
        try:
            return self.mantissa * math.exp(self.log_scale)
        except OverflowError:
            return math.copysign(math.inf, self.mantissa) if self.mantissa else 0.0

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
    check_circuit(1, d)
    m = shape.m
    # d^(m - dist) read from the m + 1 possible distances
    powers = float(d) ** np.arange(m, -1, -1.0)
    return powers[pg.distances_from(m, pg.overlap_permutation(shape))]


def site_weight_B_staircase(shape: ReplicaShape, d: int) -> np.ndarray:
    """Measured d-site weight: d^2 on factorized permutations, d otherwise.

    One factor d is the outcome sum, the second the site's share of the
    fixed-outcome prefactor D_B.
    """
    check_circuit(1, d)
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


# chain selectors: name -> (role, its value for a spec); a site resolves to
# its m!-vector, a bond to the class vector of its kernel
SELECTORS = {
    "A": ("site", lambda spec: site_weight_A(spec.shape, spec.d)),
    "B_staircase": ("site", lambda spec: site_weight_B_staircase(spec.shape, spec.d)),
    "B_glued": ("site", lambda spec: site_weight_B_glued(spec.shape, spec.chi, spec.kind)),
    # the staircase's measured chi leg chi (chi 1_F + (1 - 1_F)): outcome sum
    # x D_B share
    "chi_leg": (
        "site",
        lambda spec: spec.chi * np.where(pg.factorized_mask(spec.shape.m), float(spec.chi), 1.0),
    ),
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

    ops lists the chain entries left to right, each a key of ``SELECTORS``
    resolved through the chain's shape, chi, d, kind.  There are no boundary
    vectors: the first and last entries are the boundary sites, and the chain
    is read between all-ones vectors,
    F = exp(log_prefactor) * ones . ops[0] ... ops[-1] . ones.  A run
    ``(cell_ops, repeat)`` stands for the non-empty tuple of selectors
    ``cell_ops`` written ``repeat`` >= 0 times in a row; runs do not nest, and
    every tuple entry is read as a run.
    """

    shape: ReplicaShape
    kind: EnsembleKind
    chi: int
    d: int
    ops: tuple
    log_prefactor: float = 0.0

    def __post_init__(self):
        for entry in self.ops:
            if not isinstance(entry, tuple):
                _check_selector(entry)
                continue
            if len(entry) != 2:
                raise ValueError(f"a chain run is a (cell_ops, repeat) pair, got {entry!r}")
            cell, repeat = entry
            if isinstance(repeat, bool) or not isinstance(repeat, numbers.Integral) or repeat < 0:
                raise ValueError(f"a chain run repeats a non-negative integer count, got {repeat!r}")
            if not isinstance(cell, tuple) or not cell:
                raise ValueError("a chain run's cell is a non-empty tuple of operators")
            for op in cell:
                if isinstance(op, tuple):
                    raise ValueError("chain runs do not nest")
                _check_selector(op)


def _check_selector(op) -> None:
    if not (isinstance(op, str) and op in SELECTORS):
        raise ValueError(f"unknown chain selector {op!r}")


class _Vanished(Exception):
    """A chain product came out exactly zero."""


def _rescaled(x: np.ndarray, logs: list) -> np.ndarray:
    """x over its max-norm, whose log is appended to logs."""
    # the method skips np.max's dispatch, a third of a small chain step
    peak = np.abs(x).max()
    if peak == 0.0:
        raise _Vanished
    logs.append(math.log(peak))
    return x / peak


def _power_is_cheaper(cell_len: int, repeat: int, orbit_count: int) -> bool:
    """Cost estimate of a run: op by op, each step a matvec of about o^2
    flops plus about 4096 flops' worth of call overhead, against fusing the
    cell and binary powering, each product a matmul of about o^3/8 (BLAS
    speed) plus the same overhead.  The constants fit one BLAS thread on
    chains of 2 to 88 orbits: the 88-orbit staircase runs, repeated 6 and
    12 times, are faster op by op."""
    if repeat < 2:
        return False
    o2, o3 = orbit_count**2, orbit_count**3
    squarings = repeat.bit_length() - 1
    return repeat * cell_len * (o2 + 4096) > (cell_len + 2 * squarings) * (o3 / 8 + 4096)


def _apply_power(steps: list, repeat: int, vec: np.ndarray, logs: list) -> np.ndarray:
    """(steps[-1] ... steps[0])^repeat vec by binary powering; steps are a
    cell's reduced operands in the order they act.

    The fused cell and each square are rescaled by their max-norm.  terms
    holds the logs whose sum is the scale of the current square; doubling
    them is exact, so ``math.fsum`` of all terms is the exact sum of the
    computed logs."""
    terms: list = []
    mat = None
    for op in steps:
        if mat is None:
            mat = np.diag(op) if op.ndim == 1 else op
        else:
            mat = op @ mat if op.ndim == 2 else op[:, None] * mat
        mat = _rescaled(mat, terms)
    while True:
        if repeat & 1:
            vec = _rescaled(mat @ vec, logs)
            logs.extend(terms)
        repeat >>= 1
        if not repeat:
            return vec
        terms = [2.0 * t for t in terms]
        mat = _rescaled(mat @ mat, terms)


def contract(spec: ReplicaChainSpec) -> ChainValue:
    """Evaluate the chain right-to-left with max-norm rescaling.

    The contraction works on the orbit space of the chain symmetry: site
    weights act on the orbit representatives, and each bond is the
    (orbits x orbits) ``pg.reduced_kernel``.  The walk starts from the
    all-ones vector, and the closing product weighs each orbit by its size.
    The rescaling is that of the whole group, since an invariant vector
    takes its maximum on a representative.

    A run's operands are resolved and reduced once.  A run goes op by op,
    rescaling after every step, unless ``_power_is_cheaper`` says that
    fusing its cell into one orbit-space matrix and applying that by binary
    powering costs less; a run repeated 0 times resolves nothing.  The logs
    of all rescalings and the prefactor are added by ``math.fsum``.
    """
    orbits = pg.chain_orbits(spec.shape)
    # each selector is resolved once per call: a chain repeats a few
    # selectors many times
    resolved: dict[str, np.ndarray] = {}

    def reduced(op: str) -> np.ndarray:
        if op not in resolved:
            role, value_of = SELECTORS[op]
            value = value_of(spec)
            resolved[op] = (
                value[orbits.reps] if role == "site" else pg.reduced_kernel(spec.shape, value)
            )
        return resolved[op]

    vec = np.ones(orbits.reps.size)
    logs = [spec.log_prefactor]
    try:
        for entry in reversed(spec.ops):
            cell, repeat = entry if isinstance(entry, tuple) else ((entry,), 1)
            repeat = int(repeat)
            if repeat == 0:
                continue
            steps = [reduced(op) for op in reversed(cell)]
            if _power_is_cheaper(len(steps), repeat, orbits.reps.size):
                vec = _apply_power(steps, repeat, vec, logs)
                continue
            for _ in range(repeat):
                for op in steps:
                    vec = _rescaled(op @ vec if op.ndim == 2 else op * vec, logs)
    except _Vanished:
        return ChainValue(0.0, 0.0)
    return ChainValue(float(np.dot(orbits.sizes, vec)), math.fsum(logs))


def _gate_dim(dim: int, name: str) -> float:
    """A gate dimension as the float the chain reads, refused past the float range."""
    if dim > sys.float_info.max:
        raise SizeLimitError(f"gate dimension {name} exceeds the float range")
    return float(dim)


def staircase_chain(circuit: Circuit, shape: ReplicaShape) -> ReplicaChainSpec:
    """Chain for the sequential circuit: N_A + N_B - 1 gates.

    Weights for every gate site (N_A of type A, N_B - 1 measured d-sites),
    dressed bonds on every gap, the measured chi-leg weight as the last site
    (the all-ones start is the first gate's |0> inputs), and the first gate's
    average constant as a scalar prefactor.  No gate average is folded into a
    boundary, so the same grouping covers N_B = 1, where no measured d-site
    is left.
    """
    m, d, chi, kind = shape.m, circuit.d, circuit.chi, circuit.kind
    log_pref = math.log(wg.weingarten_sum_constant(m, _gate_dim(d * chi, "d chi"), kind))
    n_a, n_b = circuit.n_a, circuit.n_b
    if n_b == 1:
        # (A T)^(N_A - 1) A R
        ops = ((("A", "staircase_bulk"), n_a - 1), "A", "chi_leg")
    else:
        # (A T)^N_A (B T)^(N_B - 2) B R
        ops = (
            (("A", "staircase_bulk"), n_a),
            (("B_staircase", "staircase_bulk"), n_b - 2),
            "B_staircase",
            "chi_leg",
        )
    return ReplicaChainSpec(shape=shape, kind=kind, chi=chi, d=d, ops=ops, log_prefactor=log_pref)


def glued_chain(circuit: Circuit, shape: ReplicaShape) -> ReplicaChainSpec:
    """Chain for the glued shallow circuit: alternating A blocks and glue sites.

    All 2 N_A gaps carry the bare Gram bond G(chi); the N_A + 1 measured-site
    weights are the sites between and around them, the outer two being the
    chain's ends; each block gate contributes the scalar c_W(d chi^2) (haar)
    or varsigma_A^(2m) (gaussian), accumulated in the prefactor.
    """
    m, d, chi, kind = shape.m, circuit.d, circuit.chi, circuit.kind
    block = _gate_dim(d * chi * chi, "d chi^2")
    if kind.is_haar:
        log_block = math.log(wg.weingarten_sum_constant(m, block, HAAR))
    else:
        # m log(varsigma_A^2): log(weingarten_sum_constant) differs in the
        # last bits of log_scale, which the contract files record
        log_block = m * math.log(kind.gate_variance(block))
    return ReplicaChainSpec(
        shape=shape,
        kind=kind,
        chi=chi,
        d=d,
        # (B G A G)^N_A B
        ops=((("B_glued", "glued_A_to_B", "A", "glued_A_to_B"), circuit.n_a), "B_glued"),
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
