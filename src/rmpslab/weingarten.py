"""Gram and Weingarten kernels over S_m and the gate averages built from them.

The Gram kernel G_{sigma,pi}(q) = q^(m - dist(sigma,pi)) collects the overlaps
of permutation states on m replicas of a q-dimensional space; the Weingarten
kernel W(q) is its Moore-Penrose pseudoinverse and is the m-fold average of
a Haar gate from U(q).  The product T(chi, d) = W(d chi) G(chi) is the
two-site bond ("interaction") kernel of the replica chain.

Two ensembles are supported everywhere, and the one place they differ is the
gate average (``gate_average_class_vector``, and the bond kernel built from
it): W(q) for exact Haar unitaries, varsigma^(2m) times the identity for the
i.i.d. complex Gaussian surrogate.  The Gaussian form is the large-q diagonal
limit of W(q).  It is exact for Gaussian gates, not an approximation to the
Haar kernel entry by entry: the dressed glue-site weights of the two kinds
agree to 2/q only on factorized permutations, while some non-factorized Haar
entries are about -q^-4 where the Gaussian ones are +q^-3 (subleading by 1/q
either way).

Every kernel is a class vector (one value per conjugacy class of the
relative permutation), valid to m = 8; the replica engine applies them on
the orbit space of the chain (``permutations.reduced_kernel``).  The kernels
are central, so each acts on an irrep of S_m as one scalar, G(q) as the
product of q + c over the box contents c of its Young diagram and W(q) as
its inverse or 0 (Collins, IMRN 2003); those scalars times the character
table (``permutations.irrep_table``) give the class vector.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import permutations as pg


@dataclass(frozen=True)
class EnsembleKind:
    """Gate ensemble selector: exact Haar unitaries or i.i.d. complex Gaussians.

    ``gate_variance`` is the one rule for the Gaussian entry variance
    varsigma^2 of a gate from U(q): 1/q unless set.  variance sets it for
    the staircase gates and the glued block gates, variance_b for the glued
    glue gates.  Both are ignored for the haar kind.
    """

    kind: str = "haar"
    variance: float | None = None
    variance_b: float | None = None

    def __post_init__(self):
        if self.kind not in ("haar", "gaussian"):
            raise ValueError(f"unknown ensemble kind {self.kind!r}")
        if self.kind == "gaussian":
            for var in (self.variance, self.variance_b):
                if var is not None and not 0.0 < var < math.inf:
                    raise ValueError(f"gaussian variance must be positive and finite, got {var}")

    @property
    def is_haar(self) -> bool:
        return self.kind == "haar"

    def gate_variance(self, q: float, glue: bool = False) -> float:
        """varsigma^2 of a gate from U(q); glue selects the glued glue-gate family.

        The defaults are 1/(d chi) for staircase gates, 1/(d chi^2) for glued
        blocks and 1/chi^2 for glue gates.  For the haar kind this is 1/q,
        the large-q scale of its Weingarten kernel.
        """
        var = self.variance_b if glue else self.variance
        return var if var is not None and not self.is_haar else 1.0 / q


HAAR = EnsembleKind("haar")


def gaussian(variance: float | None = None, variance_b: float | None = None) -> EnsembleKind:
    return EnsembleKind("gaussian", variance, variance_b)


def rising_factorial(q: float, m: int) -> float:
    """q (q+1) ... (q+m-1); equals sum over S_m of q^(number of cycles)."""
    out = 1.0
    for j in range(m):
        out *= q + j
    return out


def weingarten_sum_constant(m: int, q: float, kind: EnsembleKind = HAAR) -> float:
    """Row sum of the Haar Weingarten matrix, or varsigma^(2m) for Gaussians.

    This constant is what a gate average contributes when its input legs are
    all contracted with replica |0> states.
    """
    if kind.is_haar:
        return 1.0 / rising_factorial(q, m)
    return kind.gate_variance(q) ** m


def gram_class_vector(m: int, q: float) -> np.ndarray:
    """Gram kernel by conjugacy class: q^(m - dist(class))."""
    return float(q) ** (m - pg.class_distance(m).astype(np.float64))


def _weingarten_eigenvalues(m: int, q: float) -> np.ndarray:
    """W(q) on each irrep: 1 / prod(q + c) over its box contents c, or 0 where
    the product vanishes (the irreps with more than q rows at integer q < m)."""
    prod = np.prod(q + pg.irrep_table(m)[1], axis=1)
    return np.divide(1.0, prod, out=np.zeros_like(prod), where=prod != 0)


def weingarten_class_vector(m: int, q: float) -> np.ndarray:
    """Weingarten kernel by conjugacy class, valid up to m = 8: the
    Moore-Penrose pseudoinverse of G(q), which acts on each irrep as
    prod(q + c), exact also at q < m where G(q) is singular."""
    return _weingarten_eigenvalues(m, q) @ pg.irrep_table(m)[0]


def gate_average_class_vector(
    m: int, q: float, kind: EnsembleKind = HAAR, glue: bool = False
) -> np.ndarray:
    """The m-fold average of a gate from U(q) as a class kernel.

    haar: the Weingarten vector W(q); gaussian: varsigma^(2m) on the
    identity class (class 0), exact for i.i.d. Gaussian gates because
    Wick's theorem makes their m-fold average diagonal.
    """
    if kind.is_haar:
        return weingarten_class_vector(m, q)
    out = np.zeros(pg.class_distance(m).size)
    out[0] = kind.gate_variance(q, glue) ** m
    return out


def interaction_class_vector(m: int, chi: float, d: int, kind: EnsembleKind = HAAR) -> np.ndarray:
    """Class-vector form of the bond kernel T(chi, d): the gate average at
    q = d chi times G(chi), so prod(chi + c) W(d chi) on each irrep for haar
    and varsigma^(2m) G(chi) for gaussian.

    As chi -> infinity both kinds tend to d^(-m) times the identity: a strong
    ferromagnetic coupling between neighboring replicas.
    """
    if not kind.is_haar:
        return kind.gate_variance(d * chi) ** m * gram_class_vector(m, chi)
    chars, contents = pg.irrep_table(m)
    return (np.prod(chi + contents, axis=1) * _weingarten_eigenvalues(m, d * chi)) @ chars
