"""Gram and Weingarten matrices over S_m and the bond kernels built from them.

The Gram matrix G_{sigma,pi}(q) = q^(m - dist(sigma,pi)) collects the overlaps
of permutation states on m replicas of a q-dimensional space; the Weingarten
matrix W(q) is its Moore-Penrose pseudoinverse and plays the role of the Haar
average kernel.  The product T(chi, d) = W(d chi) G(chi) is the two-site bond
("interaction") matrix of the replica chain.

Two ensembles are supported everywhere: exact Haar unitaries, and the i.i.d.
complex Gaussian surrogate where W(q) collapses to varsigma^(2m) times the
identity (the large-q diagonal limit of the exact kernel).  That diagonal
form is exposed through the gaussian ensemble kind.  It is exact for
Gaussian gates, not an approximation to the Haar kernel entry by entry: the
dressed glue-site weights of the two kinds agree to 2/q only on factorized
permutations, while some non-factorized Haar entries are about -q^-4 where
the Gaussian ones are +q^-3 (subleading by 1/q either way).

Class-vector forms of the kernels (one value per conjugacy class) extend to
m = 8; the replica engine applies them on the orbit space of the chain
(``permutations.reduced_kernel``).  The class algebra they live in is
computed once per m (``permutations.class_structure_constants``).  Dense
matrices are capped at m <= 6 and serve the tests as references.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from . import permutations as pg

_EIG_REL_TOL = 1e-12


@dataclass(frozen=True)
class EnsembleKind:
    """Gate ensemble selector: exact Haar unitaries or i.i.d. complex Gaussians.

    variance is the Gaussian entry variance varsigma^2; None picks the
    context default (1/(d chi) for staircase gates, 1/(d chi^2) for glued
    block gates).  variance_b overrides the glued glue-gate family, default
    1/chi^2.  Both are ignored for the haar kind.
    """

    kind: str = "haar"
    variance: float | None = None
    variance_b: float | None = None

    def __post_init__(self):
        if self.kind not in ("haar", "gaussian"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "gaussian":
            if self.variance is not None and self.variance <= 0:
                raise ValueError("gaussian variance must be positive")
            if self.variance_b is not None and self.variance_b <= 0:
                raise ValueError("gaussian variance must be positive")

    @property
    def is_haar(self) -> bool:
        return self.kind == "haar"


HAAR = EnsembleKind("haar")


def gaussian(variance: float | None = None, variance_b: float | None = None) -> EnsembleKind:
    return EnsembleKind("gaussian", variance, variance_b)


def rising_factorial(q: float, m: int) -> float:
    """q (q+1) ... (q+m-1); equals sum over S_m of q^(number of cycles)."""
    out = 1.0
    for j in range(m):
        out *= q + j
    return out


@lru_cache(maxsize=None)
def gram_matrix(m: int, q: float) -> np.ndarray:
    """Dense Gram matrix q^(m - dist) over the canonical enumeration (m <= 6)."""
    if q <= 0:
        raise ValueError(f"dimension q must be positive, got {q}")
    g = float(q) ** (m - pg.distance_matrix(m).astype(np.float64))
    g.flags.writeable = False
    return g


@lru_cache(maxsize=None)
def weingarten_matrix(m: int, q: float) -> np.ndarray:
    """Moore-Penrose pseudoinverse of the Gram matrix.

    Computed from the symmetric eigendecomposition of G(q)/q^m, dropping
    eigenvalues below 1e-12 of the largest; for integer q >= m the Gram
    matrix is invertible and this is the exact inverse.
    """
    g_scaled = gram_matrix(m, q) / float(q) ** m
    vals, vecs = np.linalg.eigh(g_scaled)
    cut = _EIG_REL_TOL * np.max(np.abs(vals))
    inv_vals = np.where(np.abs(vals) > cut, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    w = (vecs * inv_vals) @ vecs.T / float(q) ** m
    w.flags.writeable = False
    return w


def weingarten_sum_constant(m: int, q: float, kind: EnsembleKind = HAAR) -> float:
    """Row sum of the Haar Weingarten matrix, or varsigma^(2m) for Gaussians.

    This constant is what a gate average contributes when its input legs are
    all contracted with replica |0> states.
    """
    if kind.is_haar:
        return 1.0 / rising_factorial(q, m)
    var = kind.variance if kind.variance is not None else 1.0 / q
    return var**m


def interaction_matrix(m: int, chi: float, d: int, kind: EnsembleKind = HAAR) -> np.ndarray:
    """Bond matrix T(chi, d) = W(d chi) G(chi), or its Gaussian diagonal surrogate.

    For the gaussian kind the Weingarten factor collapses to varsigma^(2m)
    times the identity with varsigma^2 = 1/(d chi) unless overridden, giving
    varsigma^(2m) G(chi).  As chi -> infinity both tend to d^(-m) times the
    identity: a strong ferromagnetic coupling between neighboring replicas.
    """
    if chi < 1:
        raise ValueError(f"bond dimension chi must be >= 1, got {chi}")
    if d < 2:
        raise ValueError(f"physical dimension d must be >= 2, got {d}")
    if kind.is_haar:
        return weingarten_matrix(m, d * chi) @ gram_matrix(m, chi)
    var = kind.variance if kind.variance is not None else 1.0 / (d * chi)
    return var**m * gram_matrix(m, chi)


# ---------------------------------------------------------------------------
# Class-vector forms (one value per conjugacy class of the relative
# permutation).  These agree entrywise with the dense kernels above and are
# the representation the replica engine consumes at every m.
# ---------------------------------------------------------------------------


def gram_class_vector(m: int, q: float) -> np.ndarray:
    """Gram kernel by conjugacy class: q^(m - dist(class))."""
    return float(q) ** (m - pg.class_distance(m).astype(np.float64))


@lru_cache(maxsize=None)
def weingarten_class_vector(m: int, q: float) -> np.ndarray:
    """Weingarten kernel by conjugacy class, valid up to m = 8.

    The m! x m! Gram matrix is convolution by a class function, so its
    pseudoinverse lives in the same commutative class algebra.  We build the
    compressed convolution operator on class functions, symmetrize it with
    the class sizes, and pseudoinvert the small (n_classes^2) matrix.
    """
    _, sizes, _ = pg.conjugacy_classes(m)
    scale = float(q) ** m
    conv = pg.class_convolution_matrix(m, gram_class_vector(m, q) / scale)
    root = np.sqrt(sizes.astype(np.float64))
    sym = conv * (root[:, None] / root[None, :])
    vals, vecs = np.linalg.eigh(sym)
    cut = _EIG_REL_TOL * np.max(np.abs(vals))
    inv_vals = np.where(np.abs(vals) > cut, 1.0 / np.where(vals == 0, 1.0, vals), 0.0)
    pinv_sym = (vecs * inv_vals) @ vecs.T
    # kernel = pinv applied to the delta at the identity, whose class vector
    # is e_0 (identity class has size one and, by sorted cycle-type
    # convention, id 0); undo the size symmetrization and the q^m scaling
    return (pinv_sym * (root[None, :] / root[:, None]))[:, 0] / scale


def interaction_class_vector(m: int, chi: float, d: int, kind: EnsembleKind = HAAR) -> np.ndarray:
    """Class-vector form of the bond matrix T(chi, d)."""
    if kind.is_haar:
        conv = pg.class_convolution_matrix(m, gram_class_vector(m, chi))
        return conv @ weingarten_class_vector(m, d * chi)
    var = kind.variance if kind.variance is not None else 1.0 / (d * chi)
    return var**m * gram_class_vector(m, chi)


def densify_class_kernel(m: int, kernel_by_class: np.ndarray) -> np.ndarray:
    """Materialize a class kernel as a dense m! x m! matrix (m <= 6)."""
    class_of, _, _ = pg.conjugacy_classes(m)
    return np.asarray(kernel_by_class, dtype=np.float64)[class_of[pg.relative_index_matrix(m)]]
