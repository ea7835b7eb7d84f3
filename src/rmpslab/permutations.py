"""Symmetric-group combinatorics for the replica formalism.

Permutations of [0, m) are held in one-line ("word") notation: ``p[i]`` is
the image of ``i``, as a tuple or as a row of ``perm_array(m)``.  The
canonical index of a permutation is the lexicographic rank of its word, so
index 0 is always the identity.  All m!-indexed vectors elsewhere in the
package follow this order.

The replica degree of freedom is an element of S_m with m = 2(n+k) copies of
the state: replicas [0, n+k) form group 1 and [n+k, m) form group 2.
Enumeration is capped at m <= ``MAX_ENUM_M`` = 8.

The replica chain is contracted on the orbit space of its symmetry
(``chain_orbits``): every chain operator is invariant under sigma -> g sigma h
for the pairs (g, h) listed there, and under sigma -> sigma^-1.  A class
kernel acting on invariant vectors reduces to an (orbits x orbits) matrix
(``reduced_kernel``); at m = 8 that is 95 x 95 for n = 0 against 40,320 x
40,320.  No m! x m! table is built; the tests hold the dense references.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ShapeMismatchError, SizeLimitError

Perm = tuple[int, ...]

MAX_ENUM_M = 8


def _check_enum_m(m: int) -> None:
    if not 1 <= m <= MAX_ENUM_M:
        raise SizeLimitError(f"replica count m={m} outside enumerable range [1, {MAX_ENUM_M}]")


def cycle_type(a: Perm) -> tuple[int, ...]:
    """Sorted (descending) cycle lengths; labels the conjugacy class."""
    seen = [False] * len(a)
    lens = []
    for start in range(len(a)):
        if seen[start]:
            continue
        n, j = 0, start
        while not seen[j]:
            seen[j] = True
            j = a[j]
            n += 1
        lens.append(n)
    return tuple(sorted(lens, reverse=True))


@dataclass(frozen=True)
class ReplicaShape:
    """Replica bookkeeping: n auxiliary copies, k-th moment, m = 2(n+k) total.

    Replicas are laid out as four contiguous bundles [n | k | k | n]; the
    first n+k indices form group 1 and the rest group 2.
    """

    n: int
    k: int

    def __post_init__(self):
        for name, value in (("n", self.n), ("k", self.k)):
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"replica count {name} must be an integer, got {value!r}")
        if self.k < 1:
            raise ValueError(f"moment order k must be >= 1, got {self.k}")
        if self.n < 0:
            raise ValueError(f"auxiliary replica count n must be >= 0, got {self.n}")

    @property
    def m(self) -> int:
        return 2 * (self.n + self.k)

    @property
    def half(self) -> int:
        return self.n + self.k


def overlap_permutation(shape: ReplicaShape) -> Perm:
    """The boundary permutation encoding the 2k-fold overlap contraction on A.

    Acts as the identity on the first and last n replicas and exchanges the
    two middle k-blocks pairwise (replica n+j <-> replica n+k+j).  It is an
    involution made of k disjoint transpositions, hence at distance k from
    the identity.
    """
    n, k = shape.n, shape.k
    word = list(range(shape.m))
    for j in range(k):
        word[n + j], word[n + k + j] = word[n + k + j], word[n + j]
    return tuple(word)


@lru_cache(maxsize=None)
def perm_array(m: int) -> np.ndarray:
    """(m!, m) int8 array of all permutation words in canonical order.

    Built letter by letter: the words on s letters are, for each first
    letter f in turn, f followed by the words on s - 1 letters with the
    letters >= f shifted up by one, which keeps lexicographic order.
    """
    _check_enum_m(m)
    arr = np.zeros((1, 0), dtype=np.int8)
    for size in range(1, m + 1):
        firsts = np.repeat(np.arange(size, dtype=np.int8), len(arr))[:, None]
        rests = np.concatenate([arr + (arr >= f) for f in range(size)])
        arr = np.hstack([firsts, rests])
    arr.flags.writeable = False
    return arr


@lru_cache(maxsize=None)
def inverse_array(m: int) -> np.ndarray:
    """(m!, m) array of the inverse of each permutation, canonical order."""
    p = perm_array(m)
    inv = np.empty_like(p)
    rows = np.arange(p.shape[0])[:, None]
    inv[rows, p] = np.arange(m, dtype=np.int8)[None, :]
    inv.flags.writeable = False
    return inv


def _prefix_weights(m: int) -> np.ndarray:
    """Base-m place values of a word's first m - 1 letters (the last is implied)."""
    weights = np.zeros(m)
    weights[: m - 1] = float(m) ** np.arange(m - 2, -1, -1)
    return weights


@lru_cache(maxsize=None)
def _prefix_index(m: int) -> np.ndarray:
    """Table from the prefix code of a word to its canonical index.

    The code reads the first m - 1 letters as base-m digits, so it grows with
    lexicographic order and the table has m^(m-1) entries (2.1M uint16 at
    m = 8, whose 40,320 indices fit in 16 bits).
    """
    _check_enum_m(m)
    p = perm_array(m)
    table = np.zeros(m ** (m - 1), dtype=np.uint16)
    table[(p @ _prefix_weights(m)).astype(np.intp)] = np.arange(p.shape[0])
    table.flags.writeable = False
    return table


def rank_words(words: np.ndarray) -> np.ndarray:
    """Vectorized lexicographic rank of permutation words (m <= 8).

    words: (N, m) integer array, each row a permutation of [0, m).
    """
    m = words.shape[1]
    return _prefix_index(m)[(words @ _prefix_weights(m)).astype(np.intp)].astype(np.intp)


@lru_cache(maxsize=None)
def _cycle_lengths(m: int) -> np.ndarray:
    """(m!, m) array: length of the cycle through each point of each element."""
    words = perm_array(m)
    # element i's point x as the flat position i m + x, so that applying
    # every element to its own points is one gather
    offsets = np.arange(words.shape[0], dtype=np.int32)[:, None] * m
    step = (words + offsets).ravel()
    points = np.arange(step.size, dtype=np.int32)
    lengths = np.zeros(step.size, dtype=np.int8)
    image = step
    for r in range(1, m + 1):
        lengths[(image == points) & (lengths == 0)] = r
        image = step.take(image)
    lengths = lengths.reshape(words.shape)
    lengths.flags.writeable = False
    return lengths


@lru_cache(maxsize=None)
def distance_to_identity(m: int) -> np.ndarray:
    """Vector over the group: d(sigma, id) = m - cycles(sigma)."""
    # a cycle of length L contributes L points of weight 1/L
    cycles = np.rint((1.0 / _cycle_lengths(m)).sum(axis=1))
    out = (m - cycles).astype(np.int8)
    out.flags.writeable = False
    return out


def distances_from(m: int, sigma: Perm) -> np.ndarray:
    """Vector of d(sigma_j, sigma) over all group elements j (works up to m=8)."""
    if len(sigma) != m:
        raise ShapeMismatchError(f"distances_from: sigma has size {len(sigma)}, expected {m}")
    # d(p, sigma) = m - cycles(p . sigma^{-1}) and (p . sigma^{-1})[x] = p[sigma^{-1}[x]]
    words = perm_array(m)[:, np.argsort(sigma)]
    return distance_to_identity(m)[rank_words(words)]


@lru_cache(maxsize=None)
def factorized_mask(m: int) -> np.ndarray:
    """Boolean vector marking the ((m/2)!)^2 factorized permutations."""
    if m % 2 != 0:
        raise ShapeMismatchError(f"factorized split needs even m, got {m}")
    half = m // 2
    p = perm_array(m)
    mask = np.all(p[:, :half] < half, axis=1)
    mask.flags.writeable = False
    return mask


# ---------------------------------------------------------------------------
# Conjugacy classes and class kernels.
#
# Every bond matrix in the replica chain has entries depending only on the
# conjugacy class of sigma_i . sigma_j^{-1} (Gram matrices only through the
# cycle count, Weingarten matrices through the full cycle type).  Such a
# kernel is stored as one value per class and applied on the orbit space of
# the chain (``reduced_kernel``).
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def conjugacy_classes(m: int):
    """(class_of, sizes, types) with deterministic class ids.

    class_of: int8 vector mapping element index -> class id;
    sizes: class sizes; types: tuple of cycle types, sorted, one per class.
    """
    # the number of points on L-cycles, for each L, is the cycle type; read
    # those counts as base-(m+1) digits
    keys = ((m + 1) ** (_cycle_lengths(m).astype(np.int64) - 1)).sum(axis=1)
    _, first, key_id = np.unique(keys, return_index=True, return_inverse=True)
    found = [cycle_type(tuple(p)) for p in perm_array(m)[first].tolist()]
    types = sorted(found)
    class_of = np.array([types.index(t) for t in found], dtype=np.int8)[key_id]
    sizes = np.bincount(class_of, minlength=len(types)).astype(np.int64)
    class_of.flags.writeable = False
    sizes.flags.writeable = False
    return class_of, sizes, tuple(types)


@lru_cache(maxsize=None)
def class_distance(m: int) -> np.ndarray:
    """Transposition distance to the identity for each conjugacy class."""
    class_of, sizes, types = conjugacy_classes(m)
    return np.array([m - len(t) for t in types], dtype=np.int8)


@lru_cache(maxsize=None)
def class_representatives(m: int) -> tuple[int, ...]:
    """Index of the first group element in each conjugacy class."""
    class_of, _, types = conjugacy_classes(m)
    reps = []
    for c in range(len(types)):
        reps.append(int(np.argmax(class_of == c)))
    return tuple(reps)


@lru_cache(maxsize=None)
def _quotient_codes(m: int) -> np.ndarray:
    """(m!, m) matrix Q with Q[t] @ word(s) = prefix code of s . sigma_t^{-1}.

    (s . t^{-1})[j] = s[t^{-1}[j]], so the code sum_j w[j] s[t^{-1}[j]] equals
    sum_i w[t[i]] s[i]: the codes of s against every t are one matrix-vector
    product.
    """
    return _prefix_weights(m)[perm_array(m)]


def _class_counts(m: int, rows, label: np.ndarray, n_labels: int) -> np.ndarray:
    """counts[c, a, b] = #{t : label[t] = b, class(sigma_(rows[a]) . sigma_t^{-1}) = c}.

    Built one row at a time (one m!-vector of classes per row), so no
    (rows x m!) table is ever held.  Counts are at most m! <= 8!, which fits
    uint16.
    """
    class_of, _, types = conjugacy_classes(m)
    n_cls = len(types)
    codes, index, words = _quotient_codes(m), _prefix_index(m), perm_array(m)
    out = np.empty((n_cls, len(rows), n_labels), dtype=np.uint16)
    for a, row in enumerate(rows):
        cls = class_of[index[(codes @ words[row]).astype(np.intp)]].astype(np.intp)
        out[:, a, :] = np.bincount(cls * n_labels + label, minlength=n_cls * n_labels).reshape(
            n_cls, n_labels
        )
    out.flags.writeable = False
    return out


def _contract_counts(counts: np.ndarray, kernel_by_class: np.ndarray) -> np.ndarray:
    """sum_c f[c] counts[c], accumulated class by class (no float copy of counts)."""
    kernel_by_class = np.asarray(kernel_by_class, dtype=np.float64)
    if kernel_by_class.shape != counts.shape[:1]:
        raise ShapeMismatchError(
            f"class kernel has shape {kernel_by_class.shape}, expected ({counts.shape[0]},)"
        )
    out = np.zeros(counts.shape[1:])
    for f_c, n_c in zip(kernel_by_class, counts):
        out += f_c * n_c
    return out


@lru_cache(maxsize=None)
def class_structure_constants(m: int) -> np.ndarray:
    """N[e, c', c] = #{b in class c : class(rep_c' . b^{-1}) = e}, once per m."""
    class_of, _, types = conjugacy_classes(m)
    return _class_counts(m, class_representatives(m), class_of.astype(np.intp), len(types))


def class_convolution_matrix(m: int, kernel_by_class: np.ndarray) -> np.ndarray:
    """Matrix of convolution-by-f restricted to class functions.

    C[c', c] = sum over b in class c of f(rep_{c'} . b^{-1}); acting on class
    value vectors h it returns the values of the convolution f*h.  This is
    the compressed (n_classes x n_classes) form of the full m! x m! class
    kernel, exact because class functions form a commutative subalgebra.
    """
    return _contract_counts(class_structure_constants(m), kernel_by_class)


# ---------------------------------------------------------------------------
# The symmetry of the replica chain and its orbit space.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ChainOrbits:
    """Orbits of S_m under the symmetry of a replica chain.

    label[i] is the orbit of element i; reps[o] is the smallest element index
    in orbit o (increasing in o, so reps[0] = 0, the identity); sizes[o] is
    the number of elements in orbit o.
    """

    label: np.ndarray
    reps: np.ndarray
    sizes: np.ndarray


def symmetry_maps(shape: ReplicaShape) -> list[np.ndarray]:
    """Index maps i -> index of T(sigma_i) for generators T of the chain symmetry.

    T(sigma) = g sigma h with h = sigma_A g^-1 sigma_A, where g runs over
    adjacent transpositions inside each bundle of [n | k | k | n] and over
    the reflection i -> m-1-i, plus T(sigma) = sigma^-1.  g and h then lie in
    the same coset of the factorized set, so factorized masks are invariant;
    the class of sigma sigma_A^-1 (the A-site weight) is unchanged, and so is
    every class kernel K(sigma, tau) = f(class(sigma tau^-1)).
    """
    m, n, k = shape.m, shape.n, shape.k
    sig_a = np.array(overlap_permutation(shape))
    gens = []
    for lo, hi in ((0, n), (n, n + k), (n + k, n + 2 * k), (n + 2 * k, m)):
        for j in range(lo, hi - 1):
            g = np.arange(m, dtype=np.int8)
            g[j], g[j + 1] = j + 1, j
            gens.append(g)
    gens.append(np.arange(m, dtype=np.int8)[::-1])
    words, index, weights = perm_array(m), _prefix_index(m), _prefix_weights(m)
    maps = []
    for g in gens:
        h_inv = sig_a[g[sig_a]]
        # (g sigma h)[j] = g[sigma[h[j]]], whose prefix code is g[sigma] @ weights[h^-1]
        maps.append(index[(np.take(g, words) @ weights[h_inv]).astype(np.intp)])
    maps.append(rank_words(inverse_array(m)))
    return maps


@lru_cache(maxsize=None)
def chain_orbits(shape: ReplicaShape) -> ChainOrbits:
    """Orbit labels, representatives and sizes of the chain symmetry.

    Orbits are found by label propagation: every element takes the smallest
    label among its images under the generators, with pointer jumping, until
    nothing changes.  Orbit counts: 2, 8, 13, 26, 88, 88, 95, 510 for
    (n, k) = (0,1), (0,2), (1,1), (0,3), (1,2), (2,1), (0,4), (1,3).
    """
    maps = symmetry_maps(shape)
    label = np.arange(maps[0].size)
    while True:
        new = label
        for image in maps:
            new = np.minimum(new, new[image])
        new = new[new]
        if np.array_equal(new, label):
            break
        label = new
    reps = np.flatnonzero(label == np.arange(label.size))
    orbit = np.searchsorted(reps, label)
    out = ChainOrbits(orbit, reps, np.bincount(orbit))
    for arr in (out.label, out.reps, out.sizes):
        arr.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def orbit_class_counts(shape: ReplicaShape) -> np.ndarray:
    """N[c, a, b] = #{tau in orbit b : class(rep_a . tau^{-1}) = c}.

    Built once per shape: one m!-vector of classes per orbit representative.
    """
    orbits = chain_orbits(shape)
    return _class_counts(shape.m, orbits.reps, orbits.label, orbits.reps.size)


def reduced_kernel(shape: ReplicaShape, kernel_by_class: np.ndarray) -> np.ndarray:
    """Class kernel on the orbit space: K_red[a, b] = sum_{tau in b} f(class(rep_a tau^-1)).

    For an invariant vector x, (K x)[i] = (K_red @ x[reps])[label[i]].
    """
    return _contract_counts(orbit_class_counts(shape), kernel_by_class)
