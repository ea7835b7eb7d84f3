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
  well-conditioned block: its Gram matrix is one real product of the
  normals with themselves, of which BLAS forms one triangle (syrk), and Q
  is one blocked triangular solve against the Cholesky factor.  A square
  block (the glued middle glues) keeps the Householder QR.  A Cholesky-QR
  gate's memory is already (column, row) order, which is the (left bond,
  physical, right bond) order of a staircase MPS tensor.
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

``BornSampler`` draws Born-rule measurements of region B from one state,
a batch of draws per sweep: one sweep loop, with one uniform layout, fed by
two set-ups.  The general one sweeps left to right in the right-canonical
gauge, in which no environment is needed: a staircase built with Haar gates
is in that gauge as built (each site an isometry from its left bond), and any
other state (glued, hand-built) is brought into it by one LQ pass.  Told of
enough draws per state, the sampler brings the region B of a staircase into
the left-canonical gauge instead and sweeps it right to left, which is cheaper.
``_project_batch`` is the one projection of outcome strings onto region A,
for Born post-states and forced draws alike.

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
# the Born sampler takes the left-canonical set-up from this many draws per
# state, and at least CANON_DRAWS_PER_BOND per unit of region B's largest
# bond (see BornSampler)
CANON_MIN_DRAWS = 256
CANON_DRAWS_PER_BOND = 4


def _check_key(seed: int, *realizations: int) -> None:
    """Refuse a seed or realization that is not a Philox key word, [0, 2^64)."""
    for name, value in (("seed", seed), *(("realization", r) for r in realizations)):
        if not 0 <= value < 2**64:
            raise ValueError(f"stream {name} must be in [0, 2**64), got {value}")


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
    _check_key(seed, *realizations[:1], *realizations[-1:])
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
    Q = G L^-H.  Its loss of orthogonality grows as kappa(G)^2 eps (Yamamoto
    et al., ETNA 44, 306, 2015), and a tall Ginibre block is well conditioned
    (kappa <~ 5.8 at q = 2 ncols, the Marchenko-Pastur edges).  The Gram
    matrix conj(G^H G) comes from one real product of the block's real view
    with itself (``_conj_gram``, one triangle), its Cholesky factor is
    conj(L), and Q^T = conj(L)^-1 G^T is one blocked triangular solve
    (``_tril_solve``).  The gate is returned as the transposed view of that
    solve's output, so each gate's memory runs over (column, row): for a
    staircase gate that is already the (left bond, physical, right bond)
    order of its MPS tensor.  A square block is ill conditioned (kappa ~ q,
    with a heavy tail) and keeps the Householder QR with each column divided
    by the phase of its R diagonal entry.
    """
    draws = source(2 * q * ncols)
    real = draws.reshape(len(draws), q, 2 * ncols)
    block = real.view(complex)
    if not kind.is_haar:
        block *= np.sqrt(kind.gate_variance(q, glue) / 2.0)
        return block
    if q >= 2 * ncols:
        return _cholesky_qr(block)[1].mT
    qmat, rmat = np.linalg.qr(block)
    diag = np.diagonal(rmat, axis1=-2, axis2=-1)
    qmat /= (diag / np.abs(diag))[:, None, :]
    return qmat


def _cholesky_qr(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(conj(L), Q^T) of the Cholesky-QR G = Q L^H of each block G of a
    (count, rows, n) complex stack: G^H G = L L^H with L lower
    triangular, so G^T conj(G) = conj(L) conj(L)^H and Q^T = conj(L)^-1 G^T.
    The stack's last axis must be contiguous; Q^T is C-contiguous, and
    R = L^H is conj(L)^T."""
    low = np.linalg.cholesky(_conj_gram(block.view(float)))
    return low, _tril_solve(low, block.mT)


def _conj_gram(real: np.ndarray) -> np.ndarray:
    """G^T conj(G) for the (count, q, n) complex stack G = X + iY whose
    (count, q, 2n) real view (columns x_0, y_0, x_1, y_1, ...) is real.

    G^T conj(G) = X^T X + Y^T Y + i (Y^T X - X^T Y), and the four terms are
    the interleaved quarter-blocks of P = real^T real.  numpy runs a buffer
    times its own transpose as syrk, so P costs one triangle and no conj()
    copy is made; the result is exactly Hermitian."""
    sq = real.mT @ real
    gram = np.empty((len(real), sq.shape[-1] // 2, sq.shape[-1] // 2), complex)
    np.add(sq[:, ::2, ::2], sq[:, 1::2, 1::2], out=gram.real)
    np.subtract(sq[:, 1::2, ::2], sq[:, ::2, 1::2], out=gram.imag)
    return gram


def _tril_solve(low: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """low^-1 rhs for a (count, n, n) stack of lower-triangular low and a
    (count, n, m) stack rhs, as one C-contiguous (count, n, m) array.

    Blocked forward substitution (numpy has no triangular solve): each block
    row of at most 32 subtracts the rows already solved in one product, then
    takes the inverse of its diagonal block, so ``inv`` only sees 32 x 32."""
    out = np.empty(rhs.shape, np.result_type(low, rhs))
    n = low.shape[-1]
    for lo in range(0, n, 32):
        hi = min(lo + 32, n)
        rows = rhs[:, lo:hi] - low[:, lo:hi, :lo] @ out[:, :lo] if lo else rhs[:, :hi]
        np.matmul(np.tril(np.linalg.inv(low[:, lo:hi, lo:hi])), rows, out=out[:, lo:hi])
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


def _leading_factor(tensors: list[np.ndarray], first_b: int) -> np.ndarray:
    """The leading kept run (the sites before the first B site) contracted
    into a (its D_A, bond at the cut) matrix F; [[1]] when the run is empty."""
    acc = np.ones((1, 1), dtype=complex)
    for t in tensors[:first_b]:
        acc = (acc @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
    return acc


def _gemm(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b as one BLAS gemm, also for a single row of a: numpy hands a
    single row to gemv, whose sums round differently, so that row is doubled
    and the copy dropped.  A row's product then does not depend on the rows
    it shares a batch with."""
    if len(a) == 1:
        return (np.repeat(a, 2, axis=0) @ b)[:1]
    return a @ b


def _project_batch(state: MpsState, outcomes: np.ndarray) -> np.ndarray:
    """(count, D_A) unnormalized post-measurement amplitudes on region A, one
    row per row of a (count, N_B) array of in-range outcome strings (left to
    right over the B sites); a row's squared norm is its Born probability
    when the state is normalized.

    The sites after the leading kept run are contracted right to left into a
    (draw, open kept index, bond) stack.  A B site groups the draws by their
    outcome, and each group is one product with that outcome's (left, right)
    slice; a kept site is one product for all draws, and opens its physical
    index in front of those right of it.  The leading run's factor F
    (``_leading_factor``) multiplies last.  Every product is a gemm
    (``_gemm``), so a row's amplitude does not depend on the rows projected
    with it.  The rows go in groups of ``_chunk_rows`` of the widest stack
    row: at most MAX_SAMPLER_DRAWS, and no group passes CHUNK_ENTRIES complex
    entries unless one row does.
    """
    first_b = state.roles.index("B")
    kept = _leading_factor(state.tensors, first_b)
    sites = list(zip(state.tensors, state.roles))[first_b:][::-1]
    width, opened = state.d_a, 1
    for t, role in sites:
        opened *= t.shape[1] if role == "A" else 1
        width = max(width, opened * t.shape[0])
    step = _chunk_rows(width, MAX_SAMPLER_DRAWS)
    out = np.empty((len(outcomes), state.d_a), dtype=complex)
    for lo in range(0, len(out), step):
        rows = outcomes[lo : lo + step]
        count, j = rows.shape
        acc = np.ones((count, 1, 1), dtype=complex)
        for t, role in sites:
            l, p, r = t.shape
            if role == "A":
                acc = _gemm(acc.reshape(-1, r), t.reshape(l * p, r).T).reshape(count, -1, l, p)
                acc = acc.transpose(0, 3, 1, 2).reshape(count, -1, l)
                continue
            j -= 1
            # the draws by outcome: a stable sort, cut where the outcome changes
            order = np.argsort(rows[:, j], kind="stable")
            nxt = np.empty((count, acc.shape[1], l), dtype=complex)
            for group in np.split(order, np.flatnonzero(np.diff(rows[order, j])) + 1):
                tz = t[:, rows[group[0], j], :].T
                nxt[group] = _gemm(acc[group].reshape(-1, r), tz).reshape(len(group), -1, l)
            acc = nxt
        amp = _gemm(acc.reshape(-1, acc.shape[2]), kept.T).reshape(count, acc.shape[1], -1)
        out[lo : lo + count] = amp.transpose(0, 2, 1).reshape(count, -1)
    return out


def _right_gauge(
    sites: list[np.ndarray], kept: np.ndarray
) -> tuple[list[np.ndarray], np.ndarray]:
    """(sites, F) brought into the right-canonical gauge by one right-to-left
    Householder LQ pass: each site T, as an (l, p r) matrix with the factor
    from its right absorbed, is L Q by the QR of T^H, keeps Q (Q Q^H = 1) and
    hands L to its left neighbour; the last L is absorbed into F.  Householder
    QR needs no full rank, so a singular bond is factored too."""
    out = list(sites)
    carry = np.ones((1, 1), dtype=complex)
    for i in range(len(out) - 1, -1, -1):
        l, p, r = out[i].shape
        mat = (out[i].reshape(l * p, r) @ carry).reshape(l, -1)
        q, low = np.linalg.qr(mat.conj().T)  # mat = low^H q^H
        out[i] = np.ascontiguousarray(q.conj().T).reshape(-1, p, carry.shape[1])
        carry = low.conj().T
    return out, kept @ carry


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


def _check_norm(nsq: float) -> None:
    if not abs(nsq - 1.0) <= NORM_TOL:  # a NaN norm is refused too
        raise PreconditionError(f"born sampling needs a normalized state; <psi|psi> = {nsq!r}")


class _Sweep(NamedTuple):
    """What a ``BornSampler`` set-up stores, data only: no closure over the
    sampler, so a dropped sampler is freed by reference counting alone."""

    first: tuple  # (candidates, masses, cumulative masses, total) of the first pick
    steps: list  # per step in sweep order: (l, p, r) operand, site its guard names
    columns: np.ndarray  # the picks that are the B outcomes, left to right
    region_a_map: np.ndarray | None  # (bond, D_A); None: ``_project_batch``


class BornSampler:
    """Reusable Born-rule sampler for one fixed state, told how many draws
    per state its caller will take (``draws``, an integer >= 0; 0 when
    unknown).

    One sweep (``sample_batch``) serves both set-ups, which are the only
    form-specific code: each stores a ``_Sweep``.  A chunk of draws carries
    one (draw, bond) vector per draw from a first pick whose marginal is the
    same for every draw; each step is one batched matrix product over the
    chunk (BLAS-3), so a draw costs O(N chi^2), and picks from row-wise
    cumulative sums of its marginals.  The Born weight is the squared norm of
    the amplitude: the last vector times the region-A map, or the projection
    of the outcomes.  The leading kept run is the kept sites before the first B
    site (region A for the staircase, none for the glued layout), contracted
    into its map F (``_leading_factor``).  ``form`` names the set-up
    (canonical forms: Schollwöck, Ann. Phys. 326, 96, 2011):

    * "right-canonical", the general form.  Every site from the first B site
      on, kept or measured, is an isometry from its left bond (T T^H = 1 for
      T as an (l, p r) matrix), so every right environment is the identity,
      <psi|psi> = ||F||^2, and the chain is swept left to right with no
      environment at all (perfect sampling: Ferris and Vidal, PRB 85,
      165146, 2012).  A sequentially generated state (one isometry per site:
      Schön et al., PRL 95, 110503, 2005) is already in that gauge: the
      set-up certifies it and takes the tensors as built, which every Haar
      staircase passes.  Any other state (glued, Gaussian, gauge-transformed,
      hand-built, rank-deficient) is brought into it by one Householder LQ
      pass (``_right_gauge``), and the norm check then refuses it if it is
      not normalized.  The first pick is a kept string of the leading run
      from F's row masses, every later site is a step, and the B picks are
      the outcomes, projected by ``_project_batch`` as forced draws are.
    * "left-canonical", from max(CANON_MIN_DRAWS, CANON_DRAWS_PER_BOND x the
      largest bond after the cut) draws per state, while no kept site lies
      right of a measured one (the staircase).  Region B is brought into the
      left-canonical gauge by Cholesky-QR (``_canonical_setup``), so every
      left environment is the identity.  The sweep runs right to left: the
      first pick is the rightmost outcome, each B site left of it a step.
      A singular bond Gram, which only a hand-built state has, takes the
      right-canonical form instead.

    The left-canonical form has the cheaper sweep (d r^2 per site per draw,
    for bond r, against (d + 1) r^2 here with the projection) and the dearer
    set-up.  The threshold is measured: time of the left-canonical over the
    right-canonical form, one staircase state at N_A = 6, N_B = 14 through
    ``estimator._pair_overlaps`` (build included), one BLAS thread, medians
    of 5 (chi = 256) to 21 alternating runs:

        draws per state      64     128    256    512    1024   2048
        chi = 8             1.00   1.03   0.92   0.79   0.69   0.64
        chi = 32            1.13   1.10   1.00   0.87   0.76   0.68
        chi = 64              -    1.20   1.12   1.10   0.81     -
        chi = 128             -    1.27   1.17   1.01   0.85   0.77
        chi = 256           1.31     -    1.26   1.12   0.99   0.82

    So CANON_MIN_DRAWS = 256 holds at chi <= 32, and CANON_DRAWS_PER_BOND =
    4 moves the switch to 512 draws at chi = 128 and 1,024 at chi = 256.
    Set-up at chi = 8 / 32 / 256: right-canonical 0.34 / 0.71 / 47 ms
    (mostly the certificate), left-canonical 0.87 / 2.8 / 161 ms.  Memory:
    the right-canonical form stores F (D_A x r), plus a gauged copy of the
    sites when it had to gauge them; the left-canonical operands take d r^2
    per site, 24 MB at chi = 256.

    Memory also grows with the chunk: a sweep holds the candidates, count x
    p r complex entries at a step, the projection a (count, open kept index,
    bond) stack and one group of it, and the post-states count x D_A.
    Callers take ``chunk_draws`` draws per batch (at most MAX_SAMPLER_DRAWS =
    256), which keeps each near 2^16 entries.

    One uniform layout serves both forms: ``rng.random((count, 1 + S))``
    for S steps, draw-major, column 0 for the first pick and column s + 1
    for step s, so a batch consumes the stream exactly as ``count``
    successive single draws do.  The forms draw alike in law, not from one
    stream.
    """

    def __init__(self, state: MpsState, draws: int = 0):
        if not isinstance(draws, numbers.Integral) or draws < 0:
            raise ValueError(f"draws per state must be an integer >= 0, got {draws!r}")
        roles = state.roles
        if "B" not in roles:
            raise PreconditionError("born sampling needs at least one measured (B) site")
        if state.d_a > MAX_POST_DIM:
            raise SizeLimitError(f"region-A dimension {state.d_a} exceeds cap {MAX_POST_DIM}")
        self.state = state
        self._first_b = roles.index("B")
        if "A" not in roles[self._first_b :]:
            bond = max(t.shape[0] for t in state.tensors[self._first_b :])
            if draws >= max(CANON_MIN_DRAWS, CANON_DRAWS_PER_BOND * bond):
                try:
                    self._canonical_setup()
                    return
                except np.linalg.LinAlgError:
                    pass  # a rank-deficient bond: the right-canonical form instead
        self._right_canonical_setup()

    def _canonical_setup(self) -> None:
        """Region B in the left-canonical gauge; a singular Gram raises
        LinAlgError before any attribute is set.

        Cholesky-QR bond by bond (``_cholesky_qr``, as for the tall gates),
        Y = Q R with Q^H Q = 1: at the cut Y is the region-A map F, whose Q^T
        is the stored map, and at each B site Y is R t of the R left of it,
        with rows (outcome, left bond), so that its Q^T is the step's
        (right bond, outcome, left bond) operand."""
        tensors = self.state.tensors
        low, qt = _cholesky_qr(_leading_factor(tensors, self._first_b)[None])
        region_a_map = qt[0]  # (bond at the A|B cut, D_A)
        steps = []
        for i in range(self._first_b, len(tensors) - 1):
            t = tensors[i]
            y = (low[0].T @ t.transpose(1, 0, 2)).reshape(-1, t.shape[2])
            low, qt = _cholesky_qr(y[None])
            steps.append((qt[0].reshape(t.shape[2], t.shape[1], -1), i))
        # the first pick's candidates: the rightmost site's R t by outcome,
        # (R t)^T = t^T R^T, whose squared norms sum to the last Gram, <psi|psi>
        cand = tensors[-1][:, :, 0].T @ low[0]
        q = np.vecdot(cand.view(float), cand.view(float))
        _check_norm(float(q.sum()))
        # the sweep and its picks run right to left over the B sites
        columns = np.arange(len(steps) + 1)[::-1]
        self.form = "left-canonical"
        self._sweep = _Sweep((cand, q, np.cumsum(q), q.sum()), steps[::-1], columns, region_a_map)

    def _right_canonical_setup(self) -> None:
        """The sites from the first B site on in the right-canonical gauge,
        after a first pick among the rows of the leading run's map F.

        The certificate | ||F||^2 - 1 | + ||F||^2 sum_T ||T T^H - 1||_F <=
        NORM_TOL bounds |<psi|psi> - 1| (to first order in the defects), so a
        state that passes it is sampled as built; each T T^H is one
        one-triangle real Gram (``_conj_gram``) of the (p r, l) transpose.  A
        state that fails it (NaN too) is gauged by ``_right_gauge``, after
        which <psi|psi> = ||F||^2 exactly, and ``_check_norm`` reads it."""
        sites = self.state.tensors[self._first_b :]
        kept = _leading_factor(self.state.tensors, self._first_b)
        masses = np.vecdot(kept.view(float), kept.view(float))
        cum = np.cumsum(masses)
        defect = 0.0
        for t in sites:
            l = t.shape[0]
            gram = _conj_gram(np.ascontiguousarray(t.reshape(l, -1).T).view(float)[None])[0]
            gram.flat[:: l + 1] -= 1.0
            defect += float(np.linalg.norm(gram))
        if not abs(cum[-1] - 1.0) + cum[-1] * defect <= NORM_TOL:
            sites, kept = _right_gauge(sites, kept)
            masses = np.vecdot(kept.view(float), kept.view(float))
            cum = np.cumsum(masses)
        _check_norm(float(cum[-1]))
        steps = [(t, self._first_b + s) for s, t in enumerate(sites)]
        roles = self.state.roles[self._first_b :]
        columns = np.array([s + 1 for s, role in enumerate(roles) if role == "B"])
        self.form = "right-canonical"
        self._sweep = _Sweep((kept, masses, cum, cum[-1]), steps, columns, None)

    def sample_batch(self, rng: np.random.Generator, count: int) -> MeasurementBatch:
        """count independent Born draws from one sweep of the set-up's ``_Sweep``."""
        if count < 1:
            raise ValueError(f"need count >= 1, got {count}")
        (cand, masses, cum, total), steps, columns, region_a_map = self._sweep
        # row c holds draw c's uniforms: column 0 draws the first pick, column
        # s + 1 serves step s
        uniforms = rng.random((count, len(steps) + 1))
        picks = np.empty((count, len(steps) + 1), dtype=np.intp)
        draws = np.arange(count)
        z = np.minimum(cum.searchsorted(uniforms[:, 0] * total, side="right"), len(masses) - 1)
        # (draw, bond): the joint mass so far is its squared norm
        vec, mass_prev, picks[:, 0] = cand[z], masses[z], z
        for s, (op, site) in enumerate(steps):
            l, p, r = op.shape
            cand = (vec @ op.reshape(l, p * r)).reshape(count * p, r)
            q = np.vecdot(cand.view(float), cand.view(float)).reshape(count, p)
            z = _draw_outcomes(q, uniforms[:, s + 1], mass_prev, site)
            vec, mass_prev, picks[:, s + 1] = cand[draws * p + z], q[draws, z], z
        outcomes = picks[:, columns]
        amp = _project_batch(self.state, outcomes) if region_a_map is None else vec @ region_a_map
        prob = np.vecdot(amp, amp).real
        amp /= np.sqrt(prob)[:, None]
        return MeasurementBatch(outcomes, prob, amp)


def _draw_outcomes(
    q: np.ndarray, u: np.ndarray, mass_prev: np.ndarray, site: int
) -> np.ndarray:
    """One sweep step's pick per row of a (draw, outcome) marginal q, from a
    uniform per row; the row's total mass must be positive and agree with
    the mass drawn before it to 1e-6 relative, or the error names site."""
    # the row-wise cumsum's last entry is the sequential sum
    cum = q.cumsum(axis=1)
    total = cum[:, -1]
    if (total <= 0.0).any():
        raise PreconditionError("vanishing marginal mass during Born sweep")
    bad = np.abs(total - mass_prev) > 1e-6 * np.maximum(mass_prev, 1e-300)
    if bad.any():
        c = int(np.argmax(bad))
        raise RuntimeError(
            f"Born sweep inconsistency at site {site}: {total[c]} vs {mass_prev[c]}"
        )
    # per row: the searchsorted(cumsum(q), u total, "right") index capped at
    # p - 1, which is the count of the first p - 1 cumulative masses at or
    # below u total
    return (cum[:, :-1] <= (u * total)[:, None]).sum(axis=1)


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
        o2 = np.square(ov.real)
        o2 += np.square(ov.imag)
        del ov, p  # free the complex block before the powers of |ov|^2
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
