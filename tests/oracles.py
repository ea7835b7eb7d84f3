"""Dense references and one-call helpers for the tests (not collected as a
test module).

The library works on conjugacy classes and chain orbits and never builds an
m! x m! table.  These are the independent references it is checked against:
permutations as tuples in one-line notation (``p[i]`` is the image of ``i``,
canonical index = lexicographic rank), the dense distance tables, and the
dense Gram, Weingarten and bond matrices, the last from an eigh
pseudo-inverse of the dense Gram matrix rather than from the class algebra.
Enumeration follows ``permutations.MAX_ENUM_M``; dense tables stop at
m = ``MAX_DENSE_M``.

The helpers at the end (a chain's runs written out, one Born draw with its
record, one outcome's Born probability, a state's norm, a vector overlap, the
leading order of a frame potential) are thin wrappers over the library that
only the tests use.
"""

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from rmpslab import mps
from rmpslab import permutations as pg
from rmpslab import theory as th
from rmpslab.errors import ShapeMismatchError, SizeLimitError
from rmpslab.weingarten import HAAR, EnsembleKind

MAX_DENSE_M = 6
_EIG_REL_TOL = 1e-12


def _check_dense_m(m: int) -> None:
    if not 1 <= m <= MAX_DENSE_M:
        raise SizeLimitError(f"dense m! x m! matrices capped at m={MAX_DENSE_M}, got m={m}")


def _frozen(a: np.ndarray) -> np.ndarray:
    """Cached tables are shared by every caller, so none may write to them."""
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def enumerate_group(m: int) -> tuple[tuple[int, ...], ...]:
    """All m! permutations in lexicographic order of one-line notation."""
    pg._check_enum_m(m)
    return tuple(itertools.permutations(range(m)))


@lru_cache(maxsize=None)
def group_index(m: int) -> dict[tuple[int, ...], int]:
    """Map from permutation word to its canonical (lexicographic) index."""
    return {p: i for i, p in enumerate(enumerate_group(m))}


def identity(m: int) -> tuple[int, ...]:
    return tuple(range(m))


def compose(a, b) -> tuple[int, ...]:
    """Composition a after b: (a.b)[i] = a[b[i]]."""
    if len(a) != len(b):
        raise ShapeMismatchError(f"compose: mismatched sizes {len(a)} vs {len(b)}")
    return tuple(a[b[i]] for i in range(len(a)))


def inverse(a) -> tuple[int, ...]:
    inv = [0] * len(a)
    for i, v in enumerate(a):
        inv[v] = i
    return tuple(inv)


def cycle_count(a) -> int:
    """Number of cycles (fixed points included)."""
    seen = [False] * len(a)
    count = 0
    for start in range(len(a)):
        if seen[start]:
            continue
        count += 1
        j = start
        while not seen[j]:
            seen[j] = True
            j = a[j]
    return count


def transposition_distance(a, b) -> int:
    """Cayley-graph distance under all transpositions: m - cycles(a.b^{-1})."""
    if len(a) != len(b):
        raise ShapeMismatchError(f"distance: mismatched sizes {len(a)} vs {len(b)}")
    return len(a) - cycle_count(compose(a, inverse(b)))


def is_factorized(a) -> bool:
    """True iff a preserves the two replica groups (element of S_{m/2} x S_{m/2})."""
    m = len(a)
    if m % 2 != 0:
        raise ShapeMismatchError(f"factorized split needs even m, got {m}")
    half = m // 2
    return all(a[i] < half for i in range(half))


def ground_states(shape: pg.ReplicaShape) -> tuple[tuple[int, ...], ...]:
    """Factorized permutations at minimal distance k from the overlap permutation:
    the k! degenerate minima of the onsite A-weight on the factorized set."""
    sig_a = pg.overlap_permutation(shape)
    return tuple(
        p
        for p in enumerate_group(shape.m)
        if is_factorized(p) and transposition_distance(p, sig_a) == shape.k
    )


@lru_cache(maxsize=None)
def relative_index_matrix(m: int) -> np.ndarray:
    """Dense (m!, m!) table R[i, j] = index of sigma_i . sigma_j^{-1} (m <= 6)."""
    _check_dense_m(m)
    p, pinv = pg.perm_array(m), pg.inverse_array(m)
    out = np.empty((p.shape[0], p.shape[0]), dtype=np.int32)
    for i in range(p.shape[0]):
        # (sigma_i . sigma_j^{-1})[x] = sigma_i[sigma_j^{-1}[x]]
        out[i] = pg.rank_words(np.asarray(p[i])[pinv])
    return _frozen(out)


@lru_cache(maxsize=None)
def distance_matrix(m: int) -> np.ndarray:
    """Dense (m!, m!) transposition-distance table (m <= 6)."""
    return _frozen(pg.distance_to_identity(m)[relative_index_matrix(m)])


def adjacency_matrix(m: int, alpha: int) -> np.ndarray:
    """0/1 matrix marking permutation pairs at distance exactly alpha."""
    if not 0 <= alpha <= m - 1:
        raise ValueError(f"distance alpha={alpha} outside [0, {m - 1}]")
    return (distance_matrix(m) == alpha).astype(np.float64)


@lru_cache(maxsize=None)
def gram_matrix(m: int, q: float) -> np.ndarray:
    """Dense Gram matrix q^(m - dist) over the canonical enumeration (m <= 6)."""
    if q <= 0:
        raise ValueError(f"dimension q must be positive, got {q}")
    return _frozen(float(q) ** (m - distance_matrix(m).astype(np.float64)))


@lru_cache(maxsize=None)
def weingarten_matrix(m: int, q: float) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Gram matrix.

    Computed from the symmetric eigendecomposition of G(q)/q^m, dropping
    eigenvalues below 1e-12 of the largest; for integer q >= m the Gram
    matrix is invertible and this is the exact inverse.
    """
    vals, vecs = np.linalg.eigh(gram_matrix(m, q) / float(q) ** m)
    cut = _EIG_REL_TOL * np.max(np.abs(vals))
    inv_vals = np.where(np.abs(vals) > cut, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    return _frozen((vecs * inv_vals) @ vecs.T / float(q) ** m)


def interaction_matrix(m: int, chi: float, d: int, kind: EnsembleKind = HAAR) -> np.ndarray:
    """Bond matrix T(chi, d) = W(d chi) G(chi), or varsigma^(2m) G(chi) for Gaussians."""
    if kind.is_haar:
        return weingarten_matrix(m, d * chi) @ gram_matrix(m, chi)
    return kind.gate_variance(d * chi) ** m * gram_matrix(m, chi)


def densify_class_kernel(m: int, kernel_by_class: np.ndarray) -> np.ndarray:
    """Materialize a class kernel as a dense m! x m! matrix (m <= 6)."""
    class_of, _, _ = pg.conjugacy_classes(m)
    return np.asarray(kernel_by_class, dtype=np.float64)[class_of[relative_index_matrix(m)]]


def expand_runs(ops: tuple) -> tuple:
    """A chain's ops with every run (cell_ops, repeat) written out in full."""
    return tuple(
        op
        for entry in ops
        for op in (entry[0] * entry[1] if isinstance(entry, tuple) else (entry,))
    )


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


def sample(sampler: mps.BornSampler, rng) -> MeasurementRecord:
    """One Born draw: the one-draw view of ``sampler.sample_batch``."""
    batch = sampler.sample_batch(rng, 1)
    return MeasurementRecord(
        tuple(batch.outcomes[0].tolist()),
        float(batch.probabilities[0]),
        batch.post_states[0],
    )


def born_sample(state: mps.MpsState, rng) -> MeasurementRecord:
    """Draw one outcome string with its exact Born probability and post-state."""
    return sample(mps.BornSampler(state), rng)


def born_probability(state: mps.MpsState, outcomes) -> float:
    """Exact Born probability of a given outcome string (normalized states)."""
    amp = mps._project_batch(state, np.array([outcomes]))[0]
    return float(np.vdot(amp, amp).real)


def norm_squared(state: mps.MpsState) -> float:
    """<psi|psi> of an MPS by a left-to-right environment sweep."""
    env = np.ones((1, 1), dtype=complex)
    for t in state.tensors:
        env = np.einsum("ab,apr,bps->rs", env, t.conj(), t, optimize=True)
    return float(env.real[0, 0])


def overlap(a: np.ndarray, b: np.ndarray) -> complex:
    """<a|b> with the first argument conjugated."""
    a = np.asarray(a).ravel()
    b = np.asarray(b).ravel()
    if a.shape != b.shape:
        raise ShapeMismatchError(f"overlap: lengths {a.shape} vs {b.shape}")
    return complex(np.vdot(a, b))


def leading_order(shape, d, chi, n_a, n_b, setup, kind=HAAR) -> float:
    """exp of ``theory.leading_order_log``: the chi -> infinity frame potential."""
    return math.exp(th.leading_order_log(shape, d, chi, n_a, n_b, setup, kind))
