"""Exact MPS simulation of the two measured random-circuit architectures.

Two builders produce (state, layout) pairs:

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

The Gaussian ensemble replaces every unitary with i.i.d. complex Gaussian
entries; such states are not normalized and are never silently renormalized.

``statevector_oracle`` rebuilds the same circuit by dense gate application
(an independent code path sharing only the drawn gates) and enumerates the
projected ensemble exhaustively.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import prod
from typing import NamedTuple

import numpy as np

from .errors import PreconditionError, ShapeMismatchError, SizeLimitError
from .weingarten import HAAR, EnsembleKind

MAX_POST_DIM = 2**20
MAX_ORACLE_DIM = 2**24
_ORACLE_MAX_OUTCOMES = 4096
MAX_CHUNK_DRAWS = 64
CHUNK_ENTRIES = 2**16


def stream(seed: int, realization: int = 0) -> np.random.Generator:
    """Counter-based RNG stream: Philox keyed by (master seed, realization)."""
    key = np.array([seed, realization], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def haar_unitary(q: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed q x q unitary via QR of a complex Ginibre matrix.

    Each Q column is divided by the phase of the matching R diagonal entry,
    which makes the factorization unique and the distribution exactly Haar.
    """
    if q < 1:
        raise ValueError(f"dimension must be >= 1, got {q}")
    z = (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q))) / np.sqrt(2.0)
    qmat, rmat = np.linalg.qr(z)
    diag = np.diagonal(rmat)
    return qmat / (diag / np.abs(diag))[None, :]


def _gaussian_matrix(q: int, variance: float, rng: np.random.Generator) -> np.ndarray:
    scale = np.sqrt(variance / 2.0)
    return scale * (rng.standard_normal((q, q)) + 1j * rng.standard_normal((q, q)))


def draw_staircase_gates(
    n_a: int, n_b: int, d: int, chi: int, kind: EnsembleKind, rng: np.random.Generator
) -> list[np.ndarray]:
    """The N_A + N_B - 1 gates of the staircase circuit, in application order."""
    q = d * chi
    n_gates = n_a + n_b - 1
    if kind.is_haar:
        return [haar_unitary(q, rng) for _ in range(n_gates)]
    var = kind.variance if kind.variance is not None else 1.0 / q
    return [_gaussian_matrix(q, var, rng) for _ in range(n_gates)]


def draw_glued_gates(
    n_a: int, d: int, chi: int, kind: EnsembleKind, rng: np.random.Generator
) -> tuple[list[np.ndarray], list[np.ndarray]]:
    """(block gates, glue gates) for the glued circuit, in layer order."""
    if kind.is_haar:
        blocks = [haar_unitary(d * chi * chi, rng) for _ in range(n_a)]
        glues = [haar_unitary(chi * chi, rng) for _ in range(n_a + 1)]
        return blocks, glues
    var_a = kind.variance if kind.variance is not None else 1.0 / (d * chi**2)
    var_b = kind.variance_b if kind.variance_b is not None else 1.0 / chi**2
    blocks = [_gaussian_matrix(d * chi * chi, var_a, rng) for _ in range(n_a)]
    glues = [_gaussian_matrix(chi * chi, var_b, rng) for _ in range(n_a + 1)]
    return blocks, glues


@dataclass
class MpsState:
    """Chain of (left bond, physical, right bond) tensors."""

    tensors: list[np.ndarray]

    def __post_init__(self):
        for i in range(len(self.tensors) - 1):
            if self.tensors[i].shape[2] != self.tensors[i + 1].shape[0]:
                raise ShapeMismatchError(
                    f"bond mismatch between sites {i} and {i + 1}: "
                    f"{self.tensors[i].shape} vs {self.tensors[i + 1].shape}"
                )

    @property
    def n_sites(self) -> int:
        return len(self.tensors)

    @property
    def phys_dims(self) -> tuple[int, ...]:
        return tuple(t.shape[1] for t in self.tensors)

    def norm_squared(self) -> float:
        env = np.ones((1, 1), dtype=complex)
        for t in self.tensors:
            env = np.einsum("ab,apr,bps->rs", env, t.conj(), t, optimize=True)
        return float(env.real[0, 0])


@dataclass(frozen=True)
class RegionLayout:
    """Per-site role tags ('A' kept / 'B' measured) and the circuit family."""

    site_roles: tuple[str, ...]
    setup: str
    n_a: int
    n_b: int


@dataclass
class MeasurementRecord:
    """One projective measurement of region B.

    outcomes are listed left to right over the B sites; probability is the
    exact Born weight of the outcome string; post_state is the normalized
    dense post-measurement vector on region A.
    """

    outcomes: tuple[int, ...]
    probability: float
    post_state: np.ndarray


def build_staircase(
    n_a: int, n_b: int, d: int, chi: int, kind: EnsembleKind = HAAR, rng=None
) -> tuple[MpsState, RegionLayout]:
    """Sequential random MPS on N_A + N_B sites (last site = exposed chi-leg)."""
    if n_a < 1 or n_b < 1 or chi < 1 or d < 2:
        raise ShapeMismatchError(
            f"need N_A >= 1, N_B >= 1, chi >= 1, d >= 2; got ({n_a}, {n_b}, {d}, {chi})"
        )
    rng = rng if rng is not None else stream(0)
    gates = draw_staircase_gates(n_a, n_b, d, chi, kind, rng)
    tensors = []
    for i, gate in enumerate(gates):
        # rows (z, b): outgoing physical and auxiliary; columns (w, a): the
        # gate input, physical pinned to |0>, incoming auxiliary a
        g4 = gate.reshape(d, chi, d, chi)
        if i == 0:
            tensors.append(g4[:, :, 0, 0][None, :, :])
        else:
            tensors.append(np.ascontiguousarray(g4[:, :, 0, :].transpose(2, 0, 1)))
    tensors.append(np.eye(chi, dtype=complex).reshape(chi, chi, 1))
    roles = ("A",) * n_a + ("B",) * n_b
    return MpsState(tensors), RegionLayout(roles, "staircase", n_a, n_b)


def build_glued(
    n_a: int, d: int, chi: int, kind: EnsembleKind = HAAR, rng=None
) -> tuple[MpsState, RegionLayout]:
    """Glued shallow-circuit MPS: B A B ... A B with chi^2-dimensional B sites."""
    if n_a < 1 or chi < 1 or d < 2:
        raise ShapeMismatchError(f"need N_A >= 1, chi >= 1, d >= 2; got ({n_a}, {d}, {chi})")
    rng = rng if rng is not None else stream(0)
    blocks, glues = draw_glued_gates(n_a, d, chi, kind, rng)
    chi2 = chi * chi
    block_tensors = []
    for v in blocks:
        t = v[:, 0].reshape(d, chi, chi)  # (physical, left aux, right aux)
        block_tensors.append(np.ascontiguousarray(t.transpose(1, 0, 2)))
    glue_tensors = []
    for j, r in enumerate(glues):
        r3 = r.reshape(chi2, chi, chi)  # (fused pair, left-member in, right-member in)
        if j == 0:
            glue_tensors.append(r3[:, 0, :][None, :, :])  # left edge: fresh |0> member
        elif j == n_a:
            glue_tensors.append(np.ascontiguousarray(r3[:, :, 0].transpose(1, 0))[:, :, None])
        else:
            glue_tensors.append(np.ascontiguousarray(r3.transpose(1, 0, 2)))
    tensors = [glue_tensors[0]]
    for i in range(n_a):
        tensors.append(block_tensors[i])
        tensors.append(glue_tensors[i + 1])
    roles = ("B",) + ("A", "B") * n_a
    return MpsState(tensors), RegionLayout(roles, "glued", n_a, n_a + 1)


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with the first argument conjugated."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError(f"overlap: lengths {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def region_a_dim(state: MpsState, layout: RegionLayout) -> int:
    return prod(
        d for d, role in zip(state.phys_dims, layout.site_roles) if role == "A"
    )


def project_outcomes(
    state: MpsState, layout: RegionLayout, outcomes
) -> np.ndarray:
    """Unnormalized post-measurement amplitude vector on region A.

    outcomes lists one integer per B site, left to right.  The returned dense
    vector has squared norm equal to the Born probability when the global
    state is normalized.
    """
    outcomes = list(outcomes)
    dims = [t.shape[1] for t, role in zip(state.tensors, layout.site_roles) if role == "B"]
    if len(outcomes) != len(dims):
        raise ShapeMismatchError(f"expected {len(dims)} outcomes, got {len(outcomes)}")
    d_a = region_a_dim(state, layout)
    if d_a > MAX_POST_DIM:
        raise SizeLimitError(f"region-A dimension {d_a} exceeds cap {MAX_POST_DIM}")
    for z, dim in zip(outcomes, dims):
        if not 0 <= z < dim:
            raise ShapeMismatchError(f"outcome {z} out of range [0, {dim})")
    return _project_batch(state, layout, np.array([outcomes], dtype=np.intp))[0]


def _project_batch(state: MpsState, layout: RegionLayout, outcomes: np.ndarray) -> np.ndarray:
    """``project_outcomes`` for a (count, N_B) array of in-range outcome strings.

    One left-to-right sweep of batched products; returns (count, D_A).
    """
    count = outcomes.shape[0]
    acc = np.ones((count, 1, 1), dtype=complex)  # (draw, open A index, current bond)
    j = 0
    for t, role in zip(state.tensors, layout.site_roles):
        if role == "B":
            acc = acc @ t.transpose(1, 0, 2)[outcomes[:, j]]
            j += 1
        else:
            acc = (acc @ t.reshape(t.shape[0], -1)).reshape(count, -1, t.shape[2])
    return acc[:, :, 0]


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

    Per-state work: traced left environments for every site, the rightmost
    site's marginal (the same for every draw), the traced kernels of B sites
    met in density mode and, when no kept site lies right of the first B
    site (staircase), the dense region-A map.

    ``sample_batch`` sweeps the B sites right to left once for a chunk of
    draws, carrying one projected right side per draw: a vector while no
    kept site lies to the right (staircase), a density otherwise (glued).
    Every step is a batched matrix product over the chunk (BLAS-3), and
    sampling right to left keeps the staircase cost at O(N chi^2) per draw
    instead of the O(N chi^3) of a left-to-right sweep.  Memory grows with
    the chunk: about count x max(D_A, d chi) complex entries, which the
    chunk size ``chunk`` keeps near 2^16.  ``sample`` is the one-draw batch.

    The uniforms are drawn as ``rng.random((count, N_B))``, draw-major and
    in sweep order, so a batch consumes the stream exactly as ``count``
    successive single draws do.
    """

    def __init__(self, state: MpsState, layout: RegionLayout, norm_tol: float = 1e-8):
        if len(state.tensors) != len(layout.site_roles):
            raise ShapeMismatchError("layout does not match state length")
        nsq = state.norm_squared()
        if abs(nsq - 1.0) > norm_tol:
            raise PreconditionError(
                f"born sampling needs a normalized state; <psi|psi> = {nsq!r}"
            )
        d_a = region_a_dim(state, layout)
        if d_a > MAX_POST_DIM:
            raise SizeLimitError(f"region-A dimension {d_a} exceeds cap {MAX_POST_DIM}")
        self.state = state
        self.layout = layout
        self.d_a = d_a
        roles = layout.site_roles
        tensors = state.tensors
        # draws per batched sweep: at most MAX_CHUNK_DRAWS, fewer where one
        # draw's widest row (the region-A vector or a site's bond x physical
        # slice) times the draw count would pass CHUNK_ENTRIES complex entries
        width = max([d_a] + [t.shape[0] * t.shape[1] for t in tensors[:-1]])
        self.chunk = max(1, min(MAX_CHUNK_DRAWS, CHUNK_ENTRIES // width))
        b_sites = [i for i, r in enumerate(roles) if r == "B"]
        self._n_b = len(b_sites)
        self._first_b = b_sites[0]
        last_a = max((i for i, r in enumerate(roles) if r == "A"), default=-1)
        # left environments with everything to the left traced out; index
        # convention: env[bra bond, ket bond]
        self._left = [np.ones((1, 1), dtype=complex)]
        for t in tensors[:-1]:
            env = self._left[-1]
            self._left.append(np.einsum("ba,bzr,azs->rs", env, t.conj(), t, optimize=True))
        # contiguous per-site views for the sweep
        self._flat = [np.ascontiguousarray(t.reshape(-1, t.shape[2])) for t in tensors]
        self._by_z = [np.ascontiguousarray(t.transpose(1, 0, 2)) for t in tensors]
        # A sites met in density mode: conj(t) as a (physical x right, left)
        # matrix; the rightmost A site is met in vector mode
        self._conj_pr = {
            i: np.ascontiguousarray(t.conj().reshape(t.shape[0], -1).T)
            for i, t in enumerate(tensors)
            if roles[i] == "A" and self._first_b < i < last_a
        }
        # B sites in density mode: marginal q[p] = sum_rs rho[r, s] K[p, r, s]
        # with K[p, r, s] = sum_ab left[b, a] t[a, p, r] conj(t[b, p, s]),
        # stored as a (r s, p) matrix
        self._kernel = {}
        for i in b_sites:
            if i < last_a:
                t = tensors[i]
                lt = (self._left[i] @ t.reshape(t.shape[0], -1)).reshape(t.shape)
                k = lt.transpose(1, 2, 0) @ t.conj().transpose(1, 0, 2)
                self._kernel[i] = np.ascontiguousarray(k.reshape(t.shape[1], -1).T)
        # the rightmost site's marginal is the same for every draw
        self._last = None
        if roles[-1] == "B":
            t = tensors[-1]
            cand = (self._flat[-1] @ np.ones(1, dtype=complex)).reshape(t.shape[0], t.shape[1])
            q = np.einsum("bp,bp->p", cand.conj(), self._left[-1] @ cand).real
            q = np.clip(q, 0.0, None)
            self._last = (cand, q, np.cumsum(q), q.sum())
        self._region_a_map = None
        if last_a < self._first_b:
            acc = np.ones((1, 1), dtype=complex)
            for t in tensors[: self._first_b]:
                acc = (acc @ t.reshape(t.shape[0], -1)).reshape(-1, t.shape[2])
            self._region_a_map = np.ascontiguousarray(acc.T)  # (bond at the A|B cut, D_A)

    def sample(self, rng: np.random.Generator) -> MeasurementRecord:
        """One Born draw: the one-draw view of ``sample_batch``."""
        batch = self.sample_batch(rng, 1)
        return MeasurementRecord(
            tuple(batch.outcomes[0].tolist()),
            float(batch.probabilities[0]),
            batch.post_states[0],
        )

    def sample_batch(self, rng: np.random.Generator, count: int) -> MeasurementBatch:
        """count independent Born draws from one right-to-left sweep."""
        if count < 1:
            raise ValueError(f"need count >= 1, got {count}")
        tensors = self.state.tensors
        roles = self.layout.site_roles
        n = len(tensors)
        # row c holds draw c's uniforms; column s serves the s-th B site of
        # the sweep, which is the s-th B site from the right
        uniforms = rng.random((count, self._n_b))
        outcomes = np.empty((count, self._n_b), dtype=np.intp)
        draws = np.arange(count)
        prob = 1.0
        vec = np.ones((1, count), dtype=complex)  # vector mode: (right bond, draw)
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
                    vec = cand[:, z]
                else:
                    if rho is None:
                        # cand[l, p, c] = sum_r t[l, p, r] v[r, c], then the
                        # quadratic form with the traced left density
                        cand = self._flat[i] @ vec
                        lc = self._left[i] @ cand.reshape(l, p * count)
                        q = np.vecdot(cand.reshape(l, -1), lc, axis=0).real.reshape(p, count)
                    else:
                        q = (rho.reshape(count, -1) @ self._kernel[i]).real.T
                    q = np.maximum(q, 0.0)
                    total = q.sum(axis=0)
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
                    # per column: the searchsorted(cumsum(q), u total, "right") index
                    z = np.minimum((q.cumsum(axis=0) <= u * total).sum(axis=0), p - 1)
                    mass_prev = q[z, draws]
                    if rho is None:
                        vec = cand.reshape(l, p, count)[:, z, draws]
                    else:
                        tz = self._by_z[i][z]
                        rho = tz @ rho @ tz.conj().transpose(0, 2, 1)
                prob = prob * (mass_prev / total)
                outcomes[:, -1 - s] = z
                s += 1
            elif rho is None:
                w = (self._flat[i] @ vec).reshape(l, p, count).transpose(2, 0, 1)
                rho = w @ w.conj().transpose(0, 2, 1)
            else:
                rho = (self._flat[i] @ rho).reshape(count, l, -1) @ self._conj_pr[i]
        if rho is None:
            amp = vec.T @ self._region_a_map
        else:
            amp = _project_batch(self.state, self.layout, outcomes)
        amp /= np.sqrt(np.vecdot(amp, amp).real)[:, None]
        return MeasurementBatch(outcomes, prob, amp)


def born_sample(state: MpsState, layout: RegionLayout, rng: np.random.Generator) -> MeasurementRecord:
    """Draw one outcome string with its exact Born probability and post-state."""
    return BornSampler(state, layout).sample(rng)


def born_probability(state: MpsState, layout: RegionLayout, outcomes) -> float:
    """Exact Born probability of a given outcome string (normalized states)."""
    amp = project_outcomes(state, layout, outcomes)
    return float(np.vdot(amp, amp).real)


# ---------------------------------------------------------------------------
# Dense statevector oracle
# ---------------------------------------------------------------------------


@dataclass
class ProjectedEnsemble:
    """Exhaustive projected ensemble from the dense oracle.

    amplitudes[:, z] is the unnormalized post-measurement vector on A for
    outcome index z (mixed-radix over B sites, left to right, first site
    most significant).
    """

    amplitudes: np.ndarray  # (D_A, D_B) complex
    outcome_dims: tuple[int, ...]

    @property
    def probabilities(self) -> np.ndarray:
        return np.einsum("az,az->z", self.amplitudes.conj(), self.amplitudes).real

    def overlap_matrix(self) -> np.ndarray:
        return self.amplitudes.conj().T @ self.amplitudes

    def frame_potential(self, k: int) -> float:
        """Physical frame potential: Born-weighted k-th overlap moment."""
        return self.generalized_frame_potential(k, 1 - k)

    def generalized_frame_potential(self, k: int, n: float) -> float:
        if k < 1:
            raise ValueError(f"moment order k must be >= 1, got {k}")
        p = self.probabilities
        o2 = np.abs(self.overlap_matrix()) ** 2
        if n == 0:
            weights = np.ones_like(p)
        else:
            # p^n only where p > 0: zero-probability outcomes weigh 0 even at n < 0
            weights = np.zeros_like(p)
            np.power(p, float(n), out=weights, where=p > 0)
        return float(weights @ (o2**k) @ weights)

    def outcome_tuple(self, z: int) -> tuple[int, ...]:
        out = []
        for dim in reversed(self.outcome_dims):
            out.append(z % dim)
            z //= dim
        return tuple(reversed(out))

    def triples(self):
        """Iterate (outcome string, probability, normalized post-state)."""
        p = self.probabilities
        for z in range(self.amplitudes.shape[1]):
            amp = self.amplitudes[:, z]
            norm = np.linalg.norm(amp)
            post = amp / norm if norm > 0 else amp
            yield self.outcome_tuple(z), float(p[z]), post


def _apply_gate(state: np.ndarray, gate: np.ndarray, axes: tuple[int, ...]) -> np.ndarray:
    """Apply a gate to the given tensor axes (gate rows/cols in axis order)."""
    n = state.ndim
    rest = [ax for ax in range(n) if ax not in axes]
    perm = rest + list(axes)
    moved = np.transpose(state, perm)
    block = prod(moved.shape[len(rest) :])
    flat = moved.reshape(-1, block)
    flat = flat @ gate.T
    moved = flat.reshape(moved.shape)
    return np.transpose(moved, np.argsort(perm))


def statevector_oracle(
    setup: str,
    n_a: int,
    n_b: int | None,
    d: int,
    chi: int,
    kind: EnsembleKind = HAAR,
    rng=None,
) -> ProjectedEnsemble:
    """Dense end-to-end simulation of either circuit plus exhaustive projection.

    Shares the gate draws (and their order) with the MPS builders, so with an
    identically seeded stream the two paths realize the same state.
    """
    rng = rng if rng is not None else stream(0)
    if setup == "staircase":
        if n_b is None:
            raise ValueError("staircase oracle needs N_B")
        n_phys = n_a + n_b - 1
        total = d**n_phys * chi
        if total > MAX_ORACLE_DIM:
            raise SizeLimitError(f"oracle dimension {total} exceeds cap {MAX_ORACLE_DIM}")
        gates = draw_staircase_gates(n_a, n_b, d, chi, kind, rng)
        dims = [d] * n_phys + [chi]
        state = np.zeros(dims, dtype=complex)
        state[(0,) * (n_phys + 1)] = 1.0
        aux_axis = n_phys
        for i, gate in enumerate(gates):
            state = _apply_gate(state, gate, (i, aux_axis))
        amps = state.reshape(d**n_a, d ** (n_b - 1) * chi)
        outcome_dims = (d,) * (n_b - 1) + (chi,)
    elif setup == "glued":
        # axes: [eL, (l_i, a_i, r_i) per block ..., eR]
        total = d**n_a * chi ** (2 * n_a + 2)
        if total > MAX_ORACLE_DIM:
            raise SizeLimitError(f"oracle dimension {total} exceeds cap {MAX_ORACLE_DIM}")
        blocks, glues = draw_glued_gates(n_a, d, chi, kind, rng)
        dims = [chi] + [chi, d, chi] * n_a + [chi]
        state = np.zeros(dims, dtype=complex)
        state[(0,) * len(dims)] = 1.0

        def l_ax(i):  # left aux of block i (1-based)
            return 1 + 3 * (i - 1)

        def a_ax(i):
            return 2 + 3 * (i - 1)

        def r_ax(i):
            return 3 + 3 * (i - 1)

        e_left, e_right = 0, len(dims) - 1
        for i, v in enumerate(blocks, start=1):
            state = _apply_gate(state, v, (a_ax(i), l_ax(i), r_ax(i)))
        for j, r in enumerate(glues):
            if j == 0:
                pair = (e_left, l_ax(1))
            elif j == n_a:
                pair = (r_ax(n_a), e_right)
            else:
                pair = (r_ax(j), l_ax(j + 1))
            state = _apply_gate(state, r, pair)
        # regroup: A axes first, then the measured pairs left to right
        a_axes = [a_ax(i) for i in range(1, n_a + 1)]
        b_axes = [e_left, l_ax(1)]
        for j in range(1, n_a):
            b_axes += [r_ax(j), l_ax(j + 1)]
        b_axes += [r_ax(n_a), e_right]
        state = np.transpose(state, a_axes + b_axes)
        amps = state.reshape(d**n_a, chi ** (2 * n_a + 2))
        outcome_dims = (chi * chi,) * (n_a + 1)
    else:
        raise ValueError(f"unknown setup {setup!r}")
    if amps.shape[1] > _ORACLE_MAX_OUTCOMES:
        raise SizeLimitError(
            f"outcome space {amps.shape[1]} too large for exhaustive enumeration"
        )
    return ProjectedEnsemble(np.ascontiguousarray(amps), outcome_dims)


def dump_state(path, state: MpsState, layout: RegionLayout) -> None:
    """Debug dump of the tensor list (not a stability-guaranteed format)."""
    payload = {f"tensor_{i}": t for i, t in enumerate(state.tensors)}
    np.savez(
        path,
        n_sites=state.n_sites,
        site_roles=np.array(layout.site_roles),
        setup=np.array(layout.setup),
        n_a=layout.n_a,
        n_b=layout.n_b,
        **payload,
    )


def load_state(path) -> tuple[MpsState, RegionLayout]:
    data = np.load(path, allow_pickle=False)
    n = int(data["n_sites"])
    tensors = [data[f"tensor_{i}"] for i in range(n)]
    layout = RegionLayout(
        tuple(str(r) for r in data["site_roles"]),
        str(data["setup"]),
        int(data["n_a"]),
        int(data["n_b"]),
    )
    return MpsState(tensors), layout
