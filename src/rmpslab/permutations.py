"""Symmetric-group combinatorics for the replica formalism.

Permutations of [0, m) are held in one-line ("word") notation: ``p[i]`` is
the image of ``i``, as a tuple or as a row of ``perm_array(m)``.  The
canonical index of a permutation is the lexicographic rank of its word, so
index 0 is always the identity.  All m!-indexed vectors elsewhere in the
package follow this order.

Words are ranked through two half tables (``_half_tables``): the words that
share their first h = m // 2 letters fill one block of (m - h)! consecutive
indices, so a rank is the block's start, looked up from the first h letters,
plus the offset inside the block, looked up from the last m - h letters.
Each table has at most m^(m - h) entries (4,096 at m = 8), and both lookup
codes come from one float32 matrix product, exact because every code is an
integer below 2^24.

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

import math
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


@lru_cache(maxsize=None)
def _half_tables(m: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(weights, front, back): the two half tables that rank a word.

    Lexicographic order sorts by the first h = m // 2 letters first, and each
    such prefix is followed by every arrangement of the other m - h letters:
    the words sharing a prefix fill one block of (m - h)! consecutive
    indices.  Inside the block those arrangements sort as the arrangements
    of their relative order do, so a word's offset is the rank of the
    relative order of its last m - h letters.  Reading each part's letters
    as base-m digits, rank = front[code of the first h letters] + back[code
    of the last m - h letters]; each table has at most m^(m - h) entries
    (4,096 at m = 8, against m^(m-1) for one table over the prefix of m - 1
    letters).

    weights is the (m, 2) float32 matrix with words @ weights = both codes.
    Every product and partial sum is an integer below m^(m - h) < 2^24,
    which float32 represents exactly, so the codes are exact in any
    summation order.
    """
    _check_enum_m(m)
    h = m // 2
    weights = np.zeros((m, 2), dtype=np.float32)
    weights[:h, 0] = float(m) ** np.arange(h - 1, -1, -1)
    weights[h:, 1] = float(m) ** np.arange(m - h - 1, -1, -1)
    words = perm_array(m)
    codes = (words.astype(np.float32) @ weights).astype(np.intp)
    index = np.arange(words.shape[0])
    offset = index % math.factorial(m - h)
    front = np.zeros(m**h, dtype=np.intp)
    back = np.zeros(m ** (m - h), dtype=np.intp)
    front[codes[:, 0]] = index - offset
    back[codes[:, 1]] = offset
    for arr in (weights, front, back):
        arr.flags.writeable = False
    return weights, front, back


def _rank_codes(m: int, codes: np.ndarray) -> np.ndarray:
    """Canonical indices from (N, 2) float half-table codes."""
    _, front, back = _half_tables(m)
    codes = codes.astype(np.intp)
    return front[codes[:, 0]] + back[codes[:, 1]]


def rank_words(words: np.ndarray) -> np.ndarray:
    """Vectorized lexicographic rank of permutation words (m <= 8).

    words: (N, m) integer array, each row a permutation of [0, m).  The words
    sharing their first h = m // 2 letters fill one block of (m - h)!
    consecutive ranks, so the rank is the block's start, front[code of the
    first half], plus the offset, back[code of the second half]
    (``_half_tables``).  Both codes come from one float32 (N, m) @ (m, 2)
    product, exact because every code is an integer below 2^24.
    """
    m = words.shape[1]
    weights = _half_tables(m)[0]
    return _rank_codes(m, np.asarray(words, dtype=np.float32) @ weights)


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
    # d(p, sigma) = m - cycles(p . sigma^{-1}); (p . sigma^{-1})[x] = p[sigma^{-1}[x]],
    # so its codes sum_x w[x] p[sigma^{-1}[x]] = sum_i w[sigma[i]] p[i]
    weights = _half_tables(m)[0][list(sigma)]
    codes = perm_array(m).astype(np.float32) @ weights
    return distance_to_identity(m)[_rank_codes(m, codes)]


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
# kernel is stored as one value per class (built from the character table,
# ``irrep_table``) and applied on the orbit space (``reduced_kernel``).
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
    # np.unique by hand, which may import numpy.ma: first is each key's first
    # element, key_id each element's key in sorted order
    order = np.argsort(keys, kind="stable")
    change = np.diff(keys[order], prepend=-1) != 0  # every key is >= 1
    first = order[np.flatnonzero(change)]
    key_id = np.empty_like(order)
    key_id[order] = np.cumsum(change) - 1
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
    out = np.array([m - len(t) for t in types], dtype=np.int8)
    out.flags.writeable = False
    return out


@lru_cache(maxsize=None)
def irrep_table(m: int) -> tuple[np.ndarray, np.ndarray]:
    """(characters, contents), one row per irrep of S_m.

    Irreps are labelled by the partitions of m, which are the cycle types, so
    the rows follow ``conjugacy_classes(m)``'s types.  characters[l, c] =
    dim_l chi_l(class c) / m!, by the Murnaghan-Nakayama rule on beta numbers:
    removing a rim hook of length r moves one bead of {l_i + len(l) - 1 - i}
    from b to a free b - r >= 0, with sign (-1)^(beads in between).  contents[l] holds the
    box contents (column - row) of diagram l.  A central kernel acting on
    irrep l as e[l] has the class vector e @ characters.
    """
    types = conjugacy_classes(m)[2]

    @lru_cache(maxsize=None)
    def character(beads: frozenset, parts: tuple) -> int:
        if not parts:
            return 1
        r = parts[0]
        return sum((-1) ** sum(b - r < c < b for c in beads)
                   * character(beads - {b} | {b - r}, parts[1:])
                   for b in beads if b >= r and b - r not in beads)

    beads = [frozenset(row + len(lam) - 1 - i for i, row in enumerate(lam)) for lam in types]
    chars = np.array([[character(b, mu) for mu in types] for b in beads], dtype=np.float64)
    chars *= chars[:, :1] / math.factorial(m)  # class 0, the identity, gives dim_l
    contents = np.array([[j - i for i, row in enumerate(lam) for j in range(row)]
                         for lam in types], dtype=np.float64)
    chars.flags.writeable = False
    contents.flags.writeable = False
    return chars, contents


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
    words, weights = perm_array(m), _half_tables(m)[0]
    maps = []
    for g in gens:
        h_inv = sig_a[g[sig_a]]
        # (g sigma h)[j] = g[sigma[h[j]]], whose codes are g[sigma] @ weights[h^-1]
        codes = np.take(g, words).astype(np.float32) @ weights[h_inv]
        maps.append(_rank_codes(m, codes))
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


# rows per product in ``orbit_class_counts``: wide enough for BLAS-3, while
# the (m!, 2 rows) float32 codes stay at 2.6 MB at m = 8
_COUNT_CHUNK = 8


@lru_cache(maxsize=None)
def orbit_class_counts(shape: ReplicaShape) -> np.ndarray:
    """N[c, a, b] = #{tau in orbit b : class(rep_a . tau^{-1}) = c}.

    Built once per shape, one m!-vector of classes per orbit representative,
    so no (orbits x m!) table is ever held.  s . t^{-1} is the inverse of
    t . s^{-1}, so both lie in one class, and (t . s^{-1})[x] = t[s^{-1}[x]]
    has the codes sum_i w[s[i]] t[i]: the codes of every t against a chunk
    of representatives are one (m!, m) @ (m, 2 rows) product.  Counts are at
    most m! <= 8!, which fits uint16.
    """
    m, orbits = shape.m, chain_orbits(shape)
    class_of, _, types = conjugacy_classes(m)
    n_cls, n_orb = len(types), orbits.reps.size
    words = perm_array(m)
    weights = _half_tables(m)[0]
    floats = words.astype(np.float32)
    # the class times n_orb, so one gather and one add give the bincount key
    class_key = class_of.astype(np.intp) * n_orb
    out = np.empty((n_cls, n_orb, n_orb), dtype=np.uint16)
    for lo in range(0, n_orb, _COUNT_CHUNK):
        chunk = orbits.reps[lo : lo + _COUNT_CHUNK]
        codes = floats @ weights[words[chunk]].transpose(1, 0, 2).reshape(m, -1)
        for j in range(chunk.size):
            key = class_key[_rank_codes(m, codes[:, 2 * j : 2 * j + 2])]
            key += orbits.label
            out[:, lo + j, :] = np.bincount(key, minlength=n_cls * n_orb).reshape(n_cls, n_orb)
    out.flags.writeable = False
    return out


def reduced_kernel(shape: ReplicaShape, kernel_by_class: np.ndarray) -> np.ndarray:
    """Class kernel on the orbit space: K_red[a, b] = sum_{tau in b} f(class(rep_a tau^-1)).

    For an invariant vector x, (K x)[i] = (K_red @ x[reps])[label[i]].
    """
    counts = orbit_class_counts(shape)
    kernel_by_class = np.asarray(kernel_by_class, dtype=np.float64)
    if kernel_by_class.shape != counts.shape[:1]:
        raise ShapeMismatchError(
            f"class kernel has shape {kernel_by_class.shape}, expected ({counts.shape[0]},)"
        )
    out = np.zeros(counts.shape[1:])
    for f_c, n_c in zip(kernel_by_class, counts):  # no float copy of the counts
        out += f_c * n_c
    return out
