"""Exact MPS simulation of the two measured random-circuit architectures.

A ``Circuit`` (setup, N_A, N_B, d, chi, gate kind) describes one of them,
validated once at construction, and owns what follows: D_A, the measured-site
dimensions, the gate shapes and their normal budget.  The builders, gate
draws and dense oracle take a ``Circuit``.

Two builders produce an ``MpsState`` whose roles mark each site kept (A) or
measured (B) (``build`` picks by setup):

* ``build_staircase``: sequential gates from U(d chi) acting on (physical,
  auxiliary) pairs; sites 1..N_A are kept (region A), the remaining
  N_B - 1 physical sites plus the final exposed chi-dimensional auxiliary
  leg are measured (region B).
* ``build_glued``: two-layer shallow circuit; blocks from U(d chi^2) on
  (physical, left aux, right aux) triples, glued by U(chi^2) gates on
  adjacent auxiliary pairs (fresh |0> qudits complete the two edges), giving
  the alternating layout B A B ... A B with N_A + 1 measured chi^2 sites.

Tensor conventions (fixed so runs are reproducible per seed):

* MPS tensors have index order (left bond, physical, right bond).
* A staircase gate takes input (physical |0>, incoming auxiliary) with the
  incoming auxiliary as the column's fast index, and its output row (z, b)
  pairs the outgoing physical z with the outgoing auxiliary b, which becomes
  the right bond.  The first gate's auxiliary input is pinned to |0> (left
  bond dimension 1).
* A glued block gate row/column index order is (physical, left aux, right
  aux); a glue gate's is (left member, right member), and the fused measured
  index of the pair (u, v) is u*chi + v.
* Gates are drawn in circuit order: staircase left to right; glued blocks
  left to right, then glue gates left to right starting with the left edge.
* Each gate is drawn as the isometry of the columns its fresh |0> inputs
  select, from a complex Ginibre block of just those columns: a Haar gate
  is the phase-fixed reduced QR of the block, a Gaussian gate the scaled
  block.  Any k columns of a Haar unitary form a Haar k-isometry, so this is
  exact, and no entry is drawn that the circuit does not use.  A block at
  least twice as tall as wide (every staircase gate, the glued blocks and
  edge glues) is factored by Cholesky-QR, which is accurate for such a
  well-conditioned block and built from matrix products; a square one (the
  glued middle glues) keeps the Householder QR.  A Cholesky-QR gate's
  memory is already (column, row) order, which is the (left bond, physical,
  right bond) order of a staircase MPS tensor.
* Staircase bonds carry the rank a sequentially generated MPS can have: the
  bond right of site j has dimension min(d^(j+1), chi) (Schön et al., PRL
  95, 110503, 2005).  Gate j is drawn on its input bond's rank only, and
  while its output auxiliary spans fewer than chi directions (never for the
  last gate, whose output leg is measured) it is rotated onto an orthonormal
  basis of that span.  This is exact in law: the next gate restricted to the
  span is again a Haar isometry, or an i.i.d. Gaussian block of the same
  variance, independent of the earlier gates.

The Gaussian ensemble replaces every unitary with i.i.d. complex Gaussian
entries; such states are not normalized and are never silently renormalized.

The gate draws read their Ginibre blocks from a normal source (see
``NormalSource``) and return each gate as a stack over its rows, one circuit
realization per row.  The builders pass ``normals(rng)``, one stream drawn
gate by gate.  The gate shapes have one home (``Circuit.gate_shapes``), so
``Circuit.normal_budget`` is exactly the count a one-stream build consumes.

The dense oracle rebuilds the same circuits by dense gate application (an
independent code path sharing only the drawn gates) and enumerates the
projected ensemble exhaustively.  ``oracle_frame_potentials`` runs it on
stacks of up to MAX_CHUNK_DRAWS realizations, realization r drawn from
``stream(seed, r)``: its whole normal budget is row r of one
``stream_normals`` array, filled by one Philox re-keyed per row, which draws
the same numbers because Philox is counter-based (Salmon et al., SC'11).
Then one stacked draw per gate, batched dense products, and every (k, n)
frame potential from batched products with the overlap matrices.
"""

from __future__ import annotations

import numbers
from collections.abc import Callable
from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ShapeMismatchError, SizeLimitError
from .weingarten import HAAR, EnsembleKind

MAX_POST_DIM = 2**20
# the Born sampler refuses a state whose |<psi|psi> - 1| passes this
NORM_TOL = 1e-8
MAX_ORACLE_DIM = 2**24
_ORACLE_MAX_OUTCOMES = 4096
MAX_CHUNK_DRAWS = 64
MAX_SAMPLER_DRAWS = 256
CHUNK_ENTRIES = 2**16


def _check_key(seed: int, realization: int) -> None:
    for name, value in (("seed", seed), ("realization", realization)):
        if value < 0:
            raise ValueError(f"stream {name} must be >= 0, got {value}")


def stream(seed: int, realization: int = 0) -> np.random.Generator:
    """Counter-based RNG stream: Philox keyed by (master seed, realization).

    ``stream(seed, r)`` and row r of ``stream_normals(seed, range(n), size)``
    draw the same normals, however a caller splits its draws."""
    _check_key(seed, realization)
    key = np.array([seed, realization], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def stream_normals(seed: int, realizations: range, size: int) -> np.ndarray:
    """(len(realizations), size) array whose row i is
    ``stream(seed, realizations[i]).standard_normal(size)``, bit for bit.

    One Philox bit generator, built per call so that no two threads share it,
    is re-keyed through its state to (seed, r) with counter 0, which is the
    state ``stream(seed, r)`` starts in; each row is then one
    ``standard_normal`` call.
    """
    _check_key(seed, min(realizations, default=0))
    out = np.empty((len(realizations), size))
    bitgen = np.random.Philox(key=np.array([seed, 0], dtype=np.uint64))
    rng = np.random.Generator(bitgen)
    start = bitgen.state  # counter 0 and an empty buffer, as every stream starts
    for r, row in zip(realizations, out):
        start["state"]["key"][1] = r
        bitgen.state = start
        rng.standard_normal(out=row)
    return out


# size -> (rows, size) normals; row i of every request continues row i of the
# previous one, so each row is one circuit realization's stream
NormalSource = Callable[[int], np.ndarray]


def normals(rng: np.random.Generator) -> NormalSource:
    """The one-row normal source of a stream: each request is drawn from rng
    straight into the array the gate reads."""
    return lambda size: rng.standard_normal((1, size))


def _budget_source(budget: np.ndarray) -> NormalSource:
    """The normal source that hands out the columns of a (rows, budget) array
    of pre-drawn normals left to right, as views."""
    taken = 0

    def source(size: int) -> np.ndarray:
        nonlocal taken
        taken += size
        return budget[:, taken - size : taken]

    return source


def _gate_columns(
    q: int, ncols: int, kind: EnsembleKind, source: NormalSource, glue: bool = False
) -> np.ndarray:
    """ncols columns of one q x q random gate of the given kind per row of the
    source, as a (rows, q, ncols) stack (glue selects the glued glue-gate
    variance, see ``EnsembleKind.gate_variance``).

    Each row's 2 q ncols normals of ``source(2 q ncols)`` are its (q, ncols)
    complex Ginibre block G, read as ``row.reshape(q, 2 ncols).view(complex)``,
    so a gate consumes exactly 2 q ncols normals per row.  A Gaussian gate is
    G scaled to the variance.  A Haar gate is Q of the reduced QR of G with
    R's diagonal positive and real (Mezzadri, Notices AMS 54, 592, 2007):
    that makes the factorization unique and Q a Haar-distributed isometry.
    Every step factors each block on its own, so a gate does not depend on
    the other rows of the stack.

    A tall block (q >= 2 ncols) is factored by Cholesky-QR: G^H G = L L^H
    with L lower triangular and its diagonal positive, so R = L^H and
    Q = G L^-H, from BLAS-3 products only.  Its loss of orthogonality grows
    as kappa(G)^2 eps (Yamamoto et al., ETNA 44, 306, 2015), and a tall
    Ginibre block is well conditioned (kappa <~ 5.8 at q = 2 ncols, the
    Marchenko-Pastur edges).  The gate is returned as a transposed view of
    Q^T = conj(L^-1) G^T, so each gate's memory runs over (column, row): for a
    staircase gate that is already the (left bond, physical, right bond)
    order of its MPS tensor.  A square block is ill conditioned (kappa ~ q,
    with a heavy tail) and keeps the Householder QR with each column divided
    by the phase of its R diagonal entry.
    """
    draws = source(2 * q * ncols)
    block = draws.reshape(len(draws), q, 2 * ncols).view(complex)
    if not kind.is_haar:
        block *= np.sqrt(kind.gate_variance(q, glue) / 2.0)
        return block
    if q >= 2 * ncols:
        # G^T conj(G) = conj(L) conj(L)^H, so its Cholesky factor is conj(L)
        low = np.linalg.cholesky(block.mT @ block.conj())
        return (_tril_inverse(low) @ block.mT).mT
    qmat, rmat = np.linalg.qr(block)
    diag = np.diagonal(rmat, axis1=-2, axis2=-1)
    qmat /= (diag / np.abs(diag))[:, None, :]
    return qmat


def _tril_inverse(low: np.ndarray) -> np.ndarray:
    """Inverse of a (count, n, n) stack of lower-triangular matrices, by the
    2 x 2 block recursion [[A, 0], [C, D]]^-1 = [[A^-1, 0], [-D^-1 C A^-1, D^-1]]
    down to blocks of 32 or fewer (numpy has no triangular solve, and a full
    ``inv`` costs several times the products)."""
    n = low.shape[-1]
    if n <= 32:
        return np.tril(np.linalg.inv(low))
    h = n // 2
    a_inv = _tril_inverse(low[:, :h, :h])
    d_inv = _tril_inverse(low[:, h:, h:])
    out = np.zeros_like(low)
    out[:, :h, :h] = a_inv
    out[:, h:, h:] = d_inv
    out[:, h:, :h] = -(d_inv @ (low[:, h:, :h] @ a_inv))
    return out


def check_setup(setup: str) -> None:
    if setup not in ("staircase", "glued"):
        raise ValueError(f"unknown setup {setup!r}")


def check_circuit(chi: int, d: int = 2, n_a: int = 1, n_b: int = 1) -> None:
    """The one range rule of every circuit and chain weight: chi >= 1,
    d >= 2, N_A >= 1 and N_B >= 1.  ``Circuit`` applies it at construction;
    chain weights, which have no N_A or N_B, leave them at 1."""
    if chi < 1 or d < 2 or n_a < 1 or n_b < 1:
        got = f"chi={chi}, d={d}, N_A={n_a}, N_B={n_b}"
        raise ShapeMismatchError(f"need chi >= 1, d >= 2, N_A >= 1 and N_B >= 1; got {got}")


@dataclass(frozen=True)
class Circuit:
    """One measured random circuit, validated at construction.

    setup is "staircase" or "glued", n_a the kept sites N_A, d their
    dimension, chi the bond dimension and kind the gate ensemble.  n_b, the
    measured sites N_B, is required for the staircase; the glued layout fixes
    N_B = N_A + 1, which a None n_b resolves to.  The sizes are integers
    (numpy integers too, stored as Python ints) within ``check_circuit``.
    """

    setup: str
    n_a: int
    d: int
    chi: int
    n_b: int | None = None
    kind: EnsembleKind = HAAR

    def __post_init__(self):
        check_setup(self.setup)
        if self.setup == "glued":
            if self.n_b is None:
                object.__setattr__(self, "n_b", self.n_a + 1)
            elif self.n_b != self.n_a + 1:
                raise ValueError(f"glued layout fixes N_B = N_A + 1, got N_B={self.n_b!r}")
        for name, field in (("N_A", "n_a"), ("N_B", "n_b"), ("d", "d"), ("chi", "chi")):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral):
                raise ShapeMismatchError(f"{name} must be an integer, got {value!r}")
            # stored as a Python int, so hashes and JSON see one type whatever was given
            object.__setattr__(self, field, int(value))
        check_circuit(self.chi, self.d, self.n_a, self.n_b)

    @property
    def d_a(self) -> int:
        """Dimension D_A = d^N_A of the kept region."""
        return self.d**self.n_a

    @property
    def outcome_dims(self) -> tuple[int, ...]:
        """Dimensions of the N_B measured sites, left to right."""
        if self.setup == "staircase":
            return (self.d,) * (self.n_b - 1) + (self.chi,)
        return (self.chi * self.chi,) * self.n_b

    @property
    def outcome_cardinality(self) -> int:
        """Number of outcome strings D_B."""
        return prod(self.outcome_dims)

    @property
    def gate_shapes(self) -> list[tuple[int, int, bool]]:
        """(q, ncols, glue) of every gate block the circuit draws, in draw order.

        Staircase gate j is a (d chi) x r_(j-1) block: it acts on the rank
        r_(j-1) = min(d^j, chi) its incoming auxiliary leg can carry
        (r_(-1) = 1: the first input is |0>).  Glued: the N_A one-column
        blocks, then the glue gates, chi columns at each edge and chi^2 in
        the middle.
        """
        d, chi = self.d, self.chi
        if self.setup == "staircase":
            return [(d * chi, min(d**j, chi), False) for j in range(self.n_a + self.n_b - 1)]
        chi2 = chi * chi
        glue_cols = [chi] + [chi2] * (self.n_a - 1) + [chi]
        return [(d * chi2, 1, False)] * self.n_a + [(chi2, ncols, True) for ncols in glue_cols]

    @property
    def normal_budget(self) -> int:
        """Normals one realization of the circuit draws: 2 q ncols per gate."""
        return sum(2 * q * ncols for q, ncols, _ in self.gate_shapes)


def draw_staircase_gates(circuit: Circuit, source: NormalSource) -> list[np.ndarray]:
    """The N_A + N_B - 1 gates of the staircase circuit, in application order,
    each a stack over the source's rows (one circuit realization per row).

    Gate j is drawn as the r_(j-1) columns its fresh |0> physical input
    selects on the rank its incoming auxiliary leg can carry
    (``Circuit.gate_shapes``).  While r_j = d r_(j-1) < chi its
    chi-dimensional output auxiliary only spans r_j directions; writing the
    gate as M = U R with M the (chi, r_j) matrix of rows b, columns (z, a),
    the gate is returned as R, a (d r_j) x r_(j-1) matrix.  The last gate is
    never rotated: its output is the exposed chi leg, measured as it is.
    """
    d, chi = circuit.d, circuit.chi
    shapes = circuit.gate_shapes
    outs = [ncols for _, ncols, _ in shapes[1:]] + [chi]
    gates = []
    for (q, rank, _), out in zip(shapes, outs):
        gate = _gate_columns(q, rank, circuit.kind, source)
        if out < chi:
            count = len(gate)
            m = gate.reshape(count, d, chi, rank).transpose(0, 2, 1, 3)
            r = np.linalg.qr(m.reshape(count, chi, out), mode="r")
            gate = r.reshape(count, out, d, rank).transpose(0, 2, 1, 3)
            gate = gate.reshape(count, d * out, rank)
        gates.append(gate)
    return gates


def draw_glued_gates(
    circuit: Circuit, source: NormalSource
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(block gates, glue gates) for the glued circuit, in layer order, each a
    stack over the source's rows (one circuit realization per row).

    Gates are returned as the columns their fresh |0> inputs select: each
    block's column 0, a (d chi^2) x 1 isometry; the left-edge glue's columns
    (0, b) and the right-edge glue's columns (a, 0), chi^2 x chi each,
    indexed by b and a; middle glues whole.
    """
    gates = [
        _gate_columns(q, ncols, circuit.kind, source, glue)
        for q, ncols, glue in circuit.gate_shapes
    ]
    return gates[: circuit.n_a], gates[circuit.n_a :]


@dataclass
class MpsState:
    """Chain of (left bond, physical, right bond) tensors, one role per site:
    'A' kept, 'B' measured."""

    tensors: list[np.ndarray]
    roles: tuple[str, ...]

    def __post_init__(self):
        if len(self.roles) != len(self.tensors) or not set(self.roles) <= {"A", "B"}:
            raise ShapeMismatchError(
                f"need one role 'A' or 'B' per site, got {self.roles!r} for "
                f"{len(self.tensors)} sites"
            )
        for i in range(len(self.tensors) - 1):
            if self.tensors[i].shape[2] != self.tensors[i + 1].shape[0]:
                raise ShapeMismatchError(
                    f"bond mismatch between sites {i} and {i + 1}: "
                    f"{self.tensors[i].shape} vs {self.tensors[i + 1].shape}"
                )

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    @property
    def d_a(self) -> int:
        """Dimension D_A of the kept region."""
        return prod(p for p, role in zip(self.phys_dims, self.roles) if role == "A")


def build(circuit: Circuit, rng: np.random.Generator) -> MpsState:
    """The MPS of one realization of the circuit, drawn from rng."""
    if circuit.setup == "staircase":
        return build_staircase(circuit, rng)
    return build_glued(circuit, rng)


def build_staircase(circuit: Circuit, rng: np.random.Generator) -> MpsState:
    """Sequential random MPS on N_A + N_B sites (last site = exposed chi-leg)."""
    d, chi = circuit.d, circuit.chi
    gates = [g[0] for g in draw_staircase_gates(circuit, normals(rng))]
    # gate rows (z, b): outgoing physical and auxiliary, which becomes the
    # right bond; columns: the incoming auxiliary a, which becomes the left bond
    tensors = [
        np.ascontiguousarray(g.reshape(d, -1, g.shape[1]).transpose(2, 0, 1)) for g in gates
    ]
    tensors.append(np.eye(chi, dtype=complex).reshape(chi, chi, 1))
    return MpsState(tensors, ("A",) * circuit.n_a + ("B",) * circuit.n_b)


def build_glued(circuit: Circuit, rng: np.random.Generator) -> MpsState:
    """Glued shallow-circuit MPS: B A B ... A B with chi^2-dimensional B sites."""
    d, chi = circuit.d, circuit.chi
    blocks, glues = draw_glued_gates(circuit, normals(rng))
    blocks, glues = [v[0] for v in blocks], [r[0] for r in glues]
    chi2 = chi * chi
    # block rows (physical, left aux, right aux); glue rows: the fused pair,
    # columns (left member in, right member in), the edges' fresh |0> member
    # already selected: left edge (0, b) -> b, right edge (a, 0) -> a
    middle = [
        np.ascontiguousarray(r.reshape(chi2, chi, chi).transpose(1, 0, 2)) for r in glues[1:-1]
    ]
    right = np.ascontiguousarray(glues[-1].T)[:, :, None]
    tensors = [glues[0].reshape(1, chi2, chi)]
    for v, glue in zip(blocks, middle + [right]):
        tensors += [np.ascontiguousarray(v.reshape(d, chi, chi).transpose(1, 0, 2)), glue]
    return MpsState(tensors, ("B",) + ("A", "B") * circuit.n_a)


def _project_batch(state: MpsState, outcomes: np.ndarray) -> np.ndarray:
    """(count, D_A) unnormalized post-measurement amplitudes on region A, one
    row per row of a (count, N_B) array of in-range outcome strings (left to
    right over the B sites); a row's squared norm is its Born probability
    when the state is normalized.

    One left-to-right sweep of batched products per group of rows; returns
    (count, D_A).  The groups are ``_chunk_rows`` of the widest intermediate
    of one row (a gathered B tensor, or the open A index times the bond):
    at most MAX_CHUNK_DRAWS rows, and no group passes CHUNK_ENTRIES complex
    entries unless one row does.
    """
    width, d_a = 1, 1
    for t, role in zip(state.tensors, state.roles):
        l, p, r = t.shape
        if role == "B":
            width = max(width, l * r, d_a * r)
        else:
            d_a *= p
            width = max(width, d_a * r)
    step = _chunk_rows(width)
    out = np.empty((outcomes.shape[0], d_a), dtype=complex)
    for lo in range(0, len(out), step):
        rows = outcomes[lo : lo + step]
        count = len(rows)
        acc = np.ones((count, 1, 1), dtype=complex)  # (draw, open A index, current bond)
        j = 0
        for t, role in zip(state.tensors, state.roles):
            if role == "B":
                acc = acc @ t.transpose(1, 0, 2)[rows[:, j]]
                j += 1
            else:
                acc = (acc @ t.reshape(t.shape[0], -1)).reshape(count, -1, t.shape[2])
        out[lo : lo + count] = acc[:, :, 0]
    return out


def chunk_draws(state: MpsState) -> int:
    """Draws per chunk of the estimator's sampling core, Born sweeps and
    forced projections alike: at most MAX_SAMPLER_DRAWS, fewer where one
    draw's widest row (the region-A vector or a site's bond x physical slice)
    times the draw count would pass CHUNK_ENTRIES complex entries.
    """
    width = max([state.d_a] + [t.shape[0] * t.shape[1] for t in state.tensors[:-1]])
    return _chunk_rows(width, MAX_SAMPLER_DRAWS)


def _chunk_rows(width: int, cap: int = MAX_CHUNK_DRAWS) -> int:
    """Rows of width complex entries per chunk: at most cap (the oracle stack
    size MAX_CHUNK_DRAWS by default), and no more than CHUNK_ENTRIES entries
    together."""
    return max(1, min(cap, CHUNK_ENTRIES // width))


class MeasurementBatch(NamedTuple):
    """count measurements of region B, one row per draw.

    outcomes (count, N_B) left to right over the B sites; probabilities
    (count,) exact Born weights; post_states (count, D_A) normalized.
    """

    outcomes: np.ndarray
    probabilities: np.ndarray
    post_states: np.ndarray


class BornSampler:
    """Reusable Born-rule sampler for one fixed state.

    Per-state work: traced left environments for every site (as F^H F of
    the thin left factor F while F has no more rows than columns), the
    rightmost site's marginal (the same for every draw), the traced kernels
    and by-outcome copies of the B sites met in density mode and, when no
    kept site lies right of the first B site (staircase), the dense
    region-A map.

    ``sample_batch`` sweeps the B sites right to left once for a chunk of
    draws, carrying one projected right side per draw: a vector while no
    kept site lies to the right (staircase), a density otherwise (glued).
    Every step is a batched matrix product over the chunk (BLAS-3), and
    sampling right to left keeps the staircase cost at O(N chi^2) per draw
    instead of the O(N chi^3) of a left-to-right sweep.  Both modes run
    draw-major: the vectors are a (draw, bond) matrix, so each B site takes
    two plain products (the candidates, then their quadratic form with the
    traced left density, over the contiguous bond axis after one regrouping
    copy) and row-wise cumulative sums; the densities are a (draw, bond,
    bond) stack.  Memory grows with the chunk: a vector-mode site holds three
    arrays of count x d chi complex entries (the candidates, their
    draw-major copy and the half product), and the post-states take
    count x D_A.  Callers take ``chunk_draws`` draws per batch (at most
    MAX_SAMPLER_DRAWS = 256), which keeps each near 2^16 entries.

    The uniforms are drawn as ``rng.random((count, N_B))``, draw-major and
    in sweep order, so a batch consumes the stream exactly as ``count``
    successive single draws do.
    """

    def __init__(self, state: MpsState):
        roles = state.roles
        if "B" not in roles:
            raise PreconditionError("born sampling needs at least one measured (B) site")
        tensors = state.tensors
        # contiguous per-site views for the sweep
        self._flat = [np.ascontiguousarray(t.reshape(-1, t.shape[2])) for t in tensors]
        # left environments with everything to the left traced out; index
        # convention: env[bra bond, ket bond].  The one past the last site is
        # <psi|psi>, so the norm check costs no extra sweep.  While the left
        # factor F (the contracted sites as a (physical..., bond) matrix) has
        # no more rows than columns, env = F^H F is cheaper than the
        # two-product recurrence on env.
        self._left = [np.ones((1, 1), dtype=complex)]
        fac = self._left[0]
        for t, flat in zip(tensors, self._flat):
            if fac is not None:
                fac = (fac @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
                self._left.append(fac.conj().T @ fac)
                if fac.shape[0] > fac.shape[1]:
                    fac = None
                continue
            lt = (self._left[-1] @ t.reshape(t.shape[0], -1)).reshape(flat.shape)
            self._left.append(flat.conj().T @ lt)
        nsq = float(self._left.pop().real[0, 0])
        if abs(nsq - 1.0) > NORM_TOL:
            raise PreconditionError(
                f"born sampling needs a normalized state; <psi|psi> = {nsq!r}"
            )
        if state.d_a > MAX_POST_DIM:
            raise SizeLimitError(f"region-A dimension {state.d_a} exceeds cap {MAX_POST_DIM}")
        self.state = state
        b_sites = [i for i, r in enumerate(roles) if r == "B"]
        self._n_b = len(b_sites)
        self._first_b = b_sites[0]
        last_a = max((i for i, r in enumerate(roles) if r == "A"), default=-1)
        # A sites met in density mode: conj(t) as a (physical x right, left)
        # matrix; the rightmost A site is met in vector mode
        self._conj_pr = {
            i: np.ascontiguousarray(t.conj().reshape(t.shape[0], -1).T)
            for i, t in enumerate(tensors)
            if roles[i] == "A" and self._first_b < i < last_a
        }
        # B sites in density mode (left of a kept site): marginal
        # q[p] = sum_rs rho[r, s] K[p, r, s] with
        # K[p, r, s] = sum_ab left[b, a] t[a, p, r] conj(t[b, p, s]), stored as
        # a (r s, p) matrix, and t as a stack of (left, right) matrices by outcome
        self._kernel, self._by_z = {}, {}
        for i in b_sites:
            if i < last_a:
                t = tensors[i]
                lt = (self._left[i] @ t.reshape(t.shape[0], -1)).reshape(t.shape)
                k = lt.transpose(1, 2, 0) @ t.conj().transpose(1, 0, 2)
                self._kernel[i] = np.ascontiguousarray(k.reshape(t.shape[1], -1).T)
                self._by_z[i] = np.ascontiguousarray(t.transpose(1, 0, 2))
        # the rightmost site's marginal is the same for every draw
        self._last = None
        if roles[-1] == "B":
            t = tensors[-1]
            cand = (self._flat[-1] @ np.ones(1, dtype=complex)).reshape(t.shape[0], t.shape[1])
            q = np.einsum("bp,bp->p", cand.conj(), self._left[-1] @ cand).real
            q = np.clip(q, 0.0, None)
            # by outcome, so a draw's next vector is one contiguous row
            self._last = (np.ascontiguousarray(cand.T), q, np.cumsum(q), q.sum())
        self._region_a_map = None
        if last_a < self._first_b:
            acc = np.ones((1, 1), dtype=complex)
            for t in tensors[: self._first_b]:
                acc = (acc @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
            self._region_a_map = np.ascontiguousarray(acc.T)  # (bond at the A|B cut, D_A)

    def sample_batch(self, rng: np.random.Generator, count: int) -> MeasurementBatch:
        """count independent Born draws from one right-to-left sweep."""
        if count < 1:
            raise ValueError(f"need count >= 1, got {count}")
        tensors, roles = self.state.tensors, self.state.roles
        n = len(tensors)
        # row c holds draw c's uniforms; column s serves the s-th B site of
        # the sweep, which is the s-th B site from the right
        uniforms = rng.random((count, self._n_b))
        outcomes = np.empty((count, self._n_b), dtype=np.intp)
        draws = np.arange(count)
        prob = 1.0
        vec = np.ones((count, 1), dtype=complex)  # vector mode: (draw, right bond)
        rho = None  # density mode: (draw, ket right bond, bra right bond)
        mass_prev = None
        s = 0
        for i in range(n - 1, self._first_b - 1, -1):
            t = tensors[i]
            l, p = t.shape[0], t.shape[1]
            if roles[i] == "B":
                u = uniforms[:, s]
                if i == n - 1:
                    cand, q, cum, total = self._last
                    if total <= 0.0:
                        raise PreconditionError("vanishing marginal mass during Born sweep")
                    z = np.minimum(cum.searchsorted(u * total, side="right"), p - 1)
                    mass_prev = q[z]
                    vec = cand[z]
                else:
                    if rho is None:
                        # cand[c, p, l] = sum_r t[l, p, r] v[c, r], regrouped
                        # draw-major by one copy, then the quadratic form with
                        # the traced left density over the contiguous bond axis
                        cand = (vec @ self._flat[i].T).reshape(count, l, p).transpose(0, 2, 1)
                        cand = cand.reshape(count * p, l)
                        q = np.vecdot(cand, cand @ self._left[i].T).real.reshape(count, p)
                    else:
                        q = (rho.reshape(count, -1) @ self._kernel[i]).real
                    q = np.maximum(q, 0.0)
                    # the row-wise cumsum's last entry is the sequential sum
                    cum = q.cumsum(axis=1)
                    total = cum[:, -1]
                    if (total <= 0.0).any():
                        raise PreconditionError("vanishing marginal mass during Born sweep")
                    if mass_prev is not None:
                        bad = np.abs(total - mass_prev) > 1e-6 * np.maximum(mass_prev, 1e-300)
                        if bad.any():
                            c = int(np.argmax(bad))
                            raise RuntimeError(
                                f"Born sweep inconsistency at site {i}: "
                                f"{total[c]} vs {mass_prev[c]}"
                            )
                    # per row: the searchsorted(cumsum(q), u total, "right")
                    # index capped at p - 1, which is the count of the first
                    # p - 1 cumulative masses at or below u total
                    z = (cum[:, :-1] <= (u * total)[:, None]).sum(axis=1)
                    mass_prev = q[draws, z]
                    if rho is None:
                        vec = cand[draws * p + z]
                    else:
                        tz = self._by_z[i][z]
                        rho = tz @ rho @ tz.conj().transpose(0, 2, 1)
                prob = prob * (mass_prev / total)
                outcomes[:, -1 - s] = z
                s += 1
            elif rho is None:
                w = (vec @ self._flat[i].T).reshape(count, l, p)
                rho = w @ w.conj().transpose(0, 2, 1)
            else:
                rho = (self._flat[i] @ rho).reshape(count, l, -1) @ self._conj_pr[i]
        if rho is None:
            amp = vec @ self._region_a_map
        else:
            amp = _project_batch(self.state, outcomes)
        amp /= np.sqrt(np.vecdot(amp, amp).real)[:, None]
        return MeasurementBatch(outcomes, prob, amp)


# ---------------------------------------------------------------------------
# Dense statevector oracle
# ---------------------------------------------------------------------------


def _frame_potentials(amps: np.ndarray, pairs) -> np.ndarray:
    """(count, len(pairs)) generalized frame potentials of a (count, D_A, D_B)
    stack of projected ensembles: for each (k, n) of pairs,
    F^(k,n) = sum_(z,z') w_z |<a_z|a_z'>|^(2k) w_z' with w_z = p_z^n, p_z = |a_z|^2.

    p^n is taken only where p > 0: zero-probability outcomes weigh 0 even at
    n < 0 (and 1 at n = 0).  The D_B x D_B overlap blocks are formed for
    sub-blocks of the stack holding at most CHUNK_ENTRIES / 4 entries.  The
    callers have passed pairs through ``_check_orders``.
    """
    count, _, d_b = amps.shape
    ns = list(dict.fromkeys(n for _, n in pairs))
    ks = np.array([k for k, _ in pairs], dtype=int)
    cols = np.array([ns.index(n) for _, n in pairs], dtype=int)
    out = np.empty((count, len(pairs)))
    step = max(1, CHUNK_ENTRIES // 4 // (d_b * d_b))
    for lo in range(0, count, step):
        a = amps[lo : lo + step]
        ov = a.conj().transpose(0, 2, 1) @ a
        p = np.diagonal(ov, axis1=1, axis2=2).real
        w = np.zeros((len(a), d_b, len(ns)))
        for j, n in enumerate(ns):
            if n == 0:
                w[:, :, j] = 1.0
            else:
                np.power(p, float(n), out=w[:, :, j], where=p > 0)
        o2 = np.abs(ov)
        del ov, p  # free the complex block before the powers of |ov|^2
        o2 *= o2
        o2k = o2
        for k in range(1, ks.max(initial=0) + 1):
            if k > 1:
                o2k = o2k * o2
            sel = ks == k
            if sel.any():
                out[lo : lo + step, sel] = np.vecdot(w, o2k @ w, axis=-2)[:, cols[sel]]
    return out


def _check_orders(pairs) -> None:
    for k, _ in pairs:
        if not isinstance(k, numbers.Integral) or k < 1:
            raise ValueError(f"moment order k must be an integer >= 1, got {k!r}")


def _oracle_size(circuit: Circuit) -> int:
    """Dense state size D_A D_B of one oracle realization, after the size caps."""
    total = circuit.d_a * circuit.outcome_cardinality
    if total > MAX_ORACLE_DIM:
        raise SizeLimitError(f"oracle dimension {total} exceeds cap {MAX_ORACLE_DIM}")
    if circuit.outcome_cardinality > _ORACLE_MAX_OUTCOMES:
        raise SizeLimitError(
            f"outcome space {circuit.outcome_cardinality} too large for exhaustive enumeration"
        )
    return total


def _apply_gate(state: np.ndarray, gate: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply a (count, rows, cols) stack of gates to a (count, ...) stack of
    states, gate i to state i; axes count after the stack axis, and the gate
    rows/cols run over them in axis order."""
    axes = [1 + ax for ax in axes]
    rest = [ax for ax in range(state.ndim) if ax not in axes]
    perm = rest + axes
    moved = np.transpose(state, perm)
    flat = moved.reshape(state.shape[0], -1, gate.shape[2]) @ gate.transpose(0, 2, 1)
    return np.transpose(flat.reshape(moved.shape), np.argsort(perm))


def _dense_amplitudes(circuit: Circuit, source: NormalSource) -> np.ndarray:
    """(count, D_A, D_B) dense post-measurement amplitudes of one circuit
    realization per row of the normal source, by batched dense gate
    application.  Column z is the outcome string
    ``np.unravel_index(z, circuit.outcome_dims)``: mixed radix over the B
    sites, the first most significant.

    Shares the gate draws (and their order) with the MPS builders, so with an
    identically seeded stream the two paths realize the same state.  Each
    drawn isometry maps the legs it acts on from the fresh |0> inputs it
    already selects.
    """
    n_a, d, chi = circuit.n_a, circuit.d, circuit.chi
    if circuit.setup == "staircase":
        # rows: the physical legs so far, first most significant; columns: the
        # auxiliary leg, which each gate grows into (its physical leg, aux)
        gates = draw_staircase_gates(circuit, source)
        count = len(gates[0])
        state = np.ones((count, 1, 1), dtype=complex)
        for gate in gates:
            state = (state @ gate.transpose(0, 2, 1)).reshape(count, -1, gate.shape[1] // d)
        return state.reshape(count, circuit.d_a, -1)
    # axes after the stack axis: [eL, (l_i, a_i, r_i) per block ..., eR]
    blocks, glues = draw_glued_gates(circuit, source)
    count = len(blocks[0])
    # the blocks' outputs on their fresh inputs, as a product state on the
    # (l_i, a_i, r_i) axes
    state = np.ones((count, 1), dtype=complex)
    for v in blocks:
        lar = v.reshape(count, 1, d, chi, chi).transpose(0, 1, 3, 2, 4)
        state = (state[:, :, None, None, None] * lar).reshape(count, -1)
    state = state.reshape(count, *[chi, d, chi] * n_a)
    for j, r in enumerate(glues[1:-1], start=1):
        state = _apply_gate(state, r, (3 * j - 1, 3 * j))  # (r_j, l_{j+1})
    # edge glues map l_1 to (eL, l_1) and r_{N_A} to (r_{N_A}, eR)
    state = glues[0] @ state.reshape(count, chi, -1)
    state = state.reshape(count, -1, chi) @ glues[-1].transpose(0, 2, 1)
    state = state.reshape(count, *[chi] + [chi, d, chi] * n_a + [chi])
    # regroup: A axes first, then the measured pairs left to right
    a_axes = [3 * i - 1 for i in range(1, n_a + 1)]
    b_axes = [ax for j in range(n_a + 1) for ax in (3 * j, 3 * j + 1)]
    state = np.transpose(state, [0] + [1 + ax for ax in a_axes + b_axes])
    return state.reshape(count, circuit.d_a, -1)


def _oracle_blocks(circuit: Circuit, seed: int, realizations: range):
    """Dense amplitudes of each realization r in realizations, drawn from
    ``stream(seed, r)``, in order: (count, D_A, D_B) stacks of at most
    MAX_CHUNK_DRAWS realizations whose dense states together hold no more
    than CHUNK_ENTRIES entries.  Each stack draws its whole normal budget,
    one row per realization, in one ``stream_normals`` call."""
    step = _chunk_rows(_oracle_size(circuit))
    for lo in range(0, len(realizations), step):
        draws = stream_normals(seed, realizations[lo : lo + step], circuit.normal_budget)
        yield _dense_amplitudes(circuit, _budget_source(draws))


def oracle_frame_potentials(
    circuit: Circuit, seed: int, realizations: int | range, pairs
) -> np.ndarray:
    """Exact generalized frame potentials F^(k,n) of many circuit realizations.

    Returns a (realizations, len(pairs)) array: row i holds, for each (k, n)
    of pairs, the frame potential of the exhaustive projected ensemble of the
    realization r = realizations[i] (r = i when realizations is a count: a
    Python or numpy integer), drawn from ``stream(seed, r)``: the realization
    ``build(circuit, stream(seed, r))`` draws.
    The realizations are built and evaluated in stacks of up to
    MAX_CHUNK_DRAWS, starting at the first one.  Each k must be an integer
    >= 1; that is checked before any state is built.
    """
    _check_orders(pairs)
    reals = range(realizations) if isinstance(realizations, numbers.Integral) else realizations
    out = np.empty((len(reals), len(pairs)))
    lo = 0
    for amps in _oracle_blocks(circuit, seed, reals):
        out[lo : lo + len(amps)] = _frame_potentials(amps, pairs)
        lo += len(amps)
    return out
