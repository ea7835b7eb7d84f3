"""Symmetric-group module tests, with a BFS Cayley-graph oracle for distances."""

import itertools
import math
import os
import subprocess
import sys
from collections import deque
from pathlib import Path

import numpy as np
import pytest

from rmpslab import permutations as pg
from rmpslab.errors import ShapeMismatchError, SizeLimitError

import oracles


def bfs_cayley_distances(m):
    """Breadth-first distances from the identity under all transpositions."""
    start = tuple(range(m))
    dist = {start: 0}
    queue = deque([start])
    swaps = list(itertools.combinations(range(m), 2))
    while queue:
        cur = queue.popleft()
        for i, j in swaps:
            nxt = list(cur)
            nxt[i], nxt[j] = nxt[j], nxt[i]
            nxt = tuple(nxt)
            if nxt not in dist:
                dist[nxt] = dist[cur] + 1
                queue.append(nxt)
    return dist


def test_enumerate_counts_and_identity_first():
    assert oracles.enumerate_group(1) == ((0,),)
    assert len(oracles.enumerate_group(3)) == 6
    assert oracles.enumerate_group(3)[0] == (0, 1, 2)
    assert len(oracles.enumerate_group(4)) == 24
    words = oracles.enumerate_group(4)
    assert list(words) == sorted(words)


def test_enumerate_caps():
    with pytest.raises(SizeLimitError):
        oracles.enumerate_group(9)
    with pytest.raises(SizeLimitError):
        oracles.distance_matrix(7)


def test_group_axioms_exhaustive_s4():
    group = oracles.enumerate_group(4)
    e = oracles.identity(4)
    for a in group:
        assert oracles.compose(e, a) == a
        assert oracles.compose(a, oracles.inverse(a)) == e
    tau = (1, 0, 2, 3)
    assert oracles.inverse(tau) == tau


def test_compose_shape_error():
    with pytest.raises(ShapeMismatchError):
        oracles.compose((0, 1), (0, 1, 2))
    with pytest.raises(ShapeMismatchError):
        oracles.transposition_distance((0, 1), (0, 1, 2))


def test_distance_against_bfs_oracle():
    oracle = bfs_cayley_distances(4)
    e = oracles.identity(4)
    for word, dd in oracle.items():
        assert oracles.transposition_distance(word, e) == dd
    # product of two disjoint transpositions sits at distance 2
    assert oracles.transposition_distance(e, (1, 0, 3, 2)) == 2
    assert oracles.transposition_distance(e, (1, 0, 2, 3)) == 1
    assert oracles.transposition_distance(e, e) == 0


@pytest.mark.parametrize("m", [2, 3, 4, 5])
def test_metric_axioms(m):
    dm = oracles.distance_matrix(m).astype(np.int32)
    assert np.array_equal(dm, dm.T)
    assert np.all(np.diag(dm) == 0)
    off = dm[~np.eye(dm.shape[0], dtype=bool)]
    assert np.all(off > 0)
    # triangle inequality via min-plus composition
    through = np.min(dm[:, :, None] + dm[None, :, :], axis=1)
    assert np.all(dm <= through)


def test_left_invariance_exhaustive_s4():
    group = oracles.enumerate_group(4)
    dm = oracles.distance_matrix(4)
    idx = oracles.group_index(4)
    for gamma in group[:8]:
        for a in group:
            for b in group[::5]:
                lhs = dm[idx[oracles.compose(gamma, a)], idx[oracles.compose(gamma, b)]]
                assert lhs == dm[idx[a], idx[b]]


def test_replica_shape_counts_are_integers():
    # a fractional count was once taken as is (m = 3.0 at k = 1.5); numpy
    # integers stay accepted
    for n, k in ((0, 1.5), (0.5, 1), (0, 2.0)):
        with pytest.raises(ValueError, match="must be an integer"):
            pg.ReplicaShape(n, k)
    assert pg.ReplicaShape(np.int64(1), np.int32(2)).m == 6


def test_overlap_permutation_structure():
    assert pg.overlap_permutation(pg.ReplicaShape(0, 1)) == (1, 0)
    assert pg.overlap_permutation(pg.ReplicaShape(1, 1)) == (0, 2, 1, 3)
    for n, k in [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (0, 4), (1, 3), (2, 2), (3, 1)]:
        shape = pg.ReplicaShape(n, k)
        sig = pg.overlap_permutation(shape)
        assert oracles.compose(sig, sig) == oracles.identity(shape.m)
        assert oracles.transposition_distance(sig, oracles.identity(shape.m)) == k


def test_is_factorized():
    assert oracles.is_factorized((0, 1, 2, 3))
    assert not oracles.is_factorized(pg.overlap_permutation(pg.ReplicaShape(0, 1)))
    count = sum(oracles.is_factorized(p) for p in oracles.enumerate_group(4))
    assert count == 4  # (2!)^2
    assert int(pg.factorized_mask(4).sum()) == 4
    with pytest.raises(ShapeMismatchError):
        oracles.is_factorized((0, 2, 1))


@pytest.mark.parametrize(
    "n,k", [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1), (0, 4), (1, 3), (2, 2), (3, 1)]
)
def test_ground_states_count_and_distance(n, k):
    shape = pg.ReplicaShape(n, k)
    gs = oracles.ground_states(shape)
    assert len(gs) == math.factorial(k)
    sig = pg.overlap_permutation(shape)
    for p in gs:
        assert oracles.is_factorized(p)
        assert oracles.transposition_distance(p, sig) == k


def test_ground_state_structure_n1_k1():
    # the single minimum acts as the identity on the auxiliary replicas
    gs = oracles.ground_states(pg.ReplicaShape(1, 1))
    assert gs == (oracles.identity(4),)
    assert len(oracles.ground_states(pg.ReplicaShape(0, 1))) == 1


def test_adjacency_matrix():
    assert np.array_equal(oracles.adjacency_matrix(3, 0), np.eye(6))
    assert np.all(oracles.adjacency_matrix(3, 1).sum(axis=1) == 3)
    assert np.all(oracles.adjacency_matrix(4, 1).sum(axis=1) == 6)
    total = sum(oracles.adjacency_matrix(4, a) for a in range(4))
    assert np.array_equal(total, np.ones((24, 24)))


def test_distances_from_matches_pairwise():
    shape = pg.ReplicaShape(1, 1)
    sig = pg.overlap_permutation(shape)
    vec = pg.distances_from(4, sig)
    for i, p in enumerate(oracles.enumerate_group(4)):
        assert vec[i] == oracles.transposition_distance(p, sig)


@pytest.mark.parametrize("m", range(1, 9))
def test_rank_words_roundtrip(m):
    # m = 1 has an empty front half; m = 3, 5, 7 split unevenly
    words = np.array(oracles.enumerate_group(m), dtype=np.int8)
    assert np.array_equal(pg.rank_words(words), np.arange(math.factorial(m)))


def test_rank_words_int8_and_int64_agree():
    rng = np.random.default_rng(5)
    words = np.array([rng.permutation(8) for _ in range(500)])
    assert words.dtype == np.int64
    index = oracles.group_index(8)
    expected = [index[tuple(w)] for w in words.tolist()]
    assert pg.rank_words(words).tolist() == expected
    assert pg.rank_words(words.astype(np.int8)).tolist() == expected


# one (m!, m) float32 array at m = 8
_WORD_FLOATS_BYTES = math.factorial(8) * 8 * 4

_RANKING_MEMORY_SCRIPT = """
import tracemalloc
from rmpslab import permutations as pg
pg.perm_array(8)
tracemalloc.start()
pg.rank_words(pg.perm_array(8))
held = tracemalloc.get_traced_memory()[0]
pg.orbit_class_counts(pg.ReplicaShape(0, 4))
largest = max(trace.size for trace in tracemalloc.take_snapshot().traces)
print(held, largest)
"""


def test_ranking_tables_stay_small():
    # a fresh interpreter, so no earlier test has filled the caches: the first
    # m = 8 ranking keeps only its half tables (an m^(m-1) prefix table would
    # hold 4.2 MB), and the count table leaves no (m!, m) float array behind
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _RANKING_MEMORY_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    held, largest = map(int, proc.stdout.split())
    assert held < 500_000
    assert largest < _WORD_FLOATS_BYTES


@pytest.mark.parametrize("m", range(1, 9))
def test_conjugacy_classes_are_the_cycle_types(m):
    # each element's class is its cycle type's rank among the sorted types,
    # the first element of each class comes first, and sizes count them
    class_of, sizes, types = pg.conjugacy_classes(m)
    found = [pg.cycle_type(tuple(p)) for p in pg.perm_array(m).tolist()]
    assert types == tuple(sorted(set(found)))
    assert class_of.tolist() == [types.index(t) for t in found]
    assert sizes.tolist() == [found.count(t) for t in types]


_CONTRACT_IMPORTS_SCRIPT = """
import sys
from rmpslab import cli
code = cli.main(["contract", "--setup", "staircase", "--na", "1", "--nb", "2", "--d", "2",
                 "--chi", "4", "--k", "4", "--n", "0"])
print(code, "numpy.ma" in sys.modules)
"""


def test_contract_does_not_import_numpy_ma():
    # numpy.ma adds about 2 MB to a process; a contract run (class tables and
    # chains at m = 8) never needs it
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _CONTRACT_IMPORTS_SCRIPT],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-2:] == ["0", "False"]


@pytest.mark.parametrize("m", range(1, 9))
def test_irrep_table_is_the_character_table(m):
    # rows in the order of the class types: dim chi / m! from the diagram
    # rim-hook rule, and each diagram's box contents
    chars, contents = pg.irrep_table(m)
    types = pg.conjugacy_classes(m)[2]
    for lam, row, cont in zip(types, chars, contents):
        dim = oracles.character(lam, (1,) * m)
        want = [dim * oracles.character(lam, mu) / math.factorial(m) for mu in types]
        assert np.abs(row - want).max() < 1e-15
        assert sorted(cont) == sorted(j - i for i, r in enumerate(lam) for j in range(r))


@pytest.mark.parametrize("m", range(1, 9))
def test_character_orthogonality(m):
    _, sizes, _ = pg.conjugacy_classes(m)
    table = pg.irrep_table(m)[0]
    order = math.factorial(m)
    dims = np.sqrt(table[:, 0] * order)
    chars = table * order / dims[:, None]
    assert np.abs(dims - np.rint(dims)).max() < 1e-9
    assert np.abs(chars - np.rint(chars)).max() < 1e-9
    dims, chars = np.rint(dims).astype(np.int64), np.rint(chars).astype(np.int64)
    assert int(dims @ dims) == order
    # rows: sum over the group of chi_l chi_l' is m! delta; columns: sum over
    # irreps of chi_l(c) chi_l(c') is the centralizer order m! / |c| delta
    assert np.array_equal((chars * sizes) @ chars.T, order * np.eye(len(sizes), dtype=np.int64))
    assert np.array_equal(chars.T @ chars, np.diag(order // sizes))


def test_rank_words_matches_word_index_m8():
    rng = np.random.default_rng(2)
    words = np.array([rng.permutation(8) for _ in range(2000)], dtype=np.int8)
    index = oracles.group_index(8)
    assert pg.rank_words(words).tolist() == [index[tuple(w)] for w in words.tolist()]


@pytest.mark.parametrize(
    "n,k,count",
    [(0, 1, 2), (0, 2, 8), (1, 1, 13), (0, 3, 26), (1, 2, 88), (2, 1, 88), (0, 4, 95), (1, 3, 510)],
)
def test_chain_orbit_counts(n, k, count):
    shape = pg.ReplicaShape(n, k)
    orbits = pg.chain_orbits(shape)
    assert orbits.reps.size == count
    assert int(orbits.sizes.sum()) == math.factorial(shape.m)
    assert orbits.reps[0] == 0
    assert np.array_equal(orbits.label[orbits.reps], np.arange(count))
    # an orbit is closed under every generator
    for image in pg.symmetry_maps(shape):
        assert np.array_equal(orbits.label[image], orbits.label)


@pytest.mark.parametrize("n,k", [(0, 1), (0, 2), (1, 1), (0, 3), (1, 2), (2, 1)])
def test_class_kernels_commute_with_symmetry(n, k):
    # K(T sigma, T tau) = K(sigma, tau) for every generator T, entry by entry
    shape = pg.ReplicaShape(n, k)
    class_of, _, _ = pg.conjugacy_classes(shape.m)
    classes = class_of[oracles.relative_index_matrix(shape.m)]
    for image in pg.symmetry_maps(shape):
        assert np.array_equal(classes[np.ix_(image, image)], classes)


@pytest.mark.parametrize("n,k", [(0, 2), (1, 1), (0, 3), (1, 2), (2, 1)])
def test_reduced_kernel_matches_dense(n, k):
    rng = np.random.default_rng(3)
    shape = pg.ReplicaShape(n, k)
    orbits = pg.chain_orbits(shape)
    class_of, _, types = pg.conjugacy_classes(shape.m)
    f = rng.normal(size=len(types))
    x = rng.normal(size=orbits.reps.size)[orbits.label]
    dense = f[class_of[oracles.relative_index_matrix(shape.m)]] @ x
    reduced = pg.reduced_kernel(shape, f) @ x[orbits.reps]
    assert np.abs(reduced[orbits.label] - dense).max() < 1e-12 * np.abs(dense).max()


def test_reduced_kernel_m8_rows_match_direct_sums():
    # at m = 8 the O(m!) row sum sum_tau f(class(sigma_i tau^-1)) x[tau] is the
    # reference, for 50 random elements that are not orbit representatives
    rng = np.random.default_rng(4)
    shape = pg.ReplicaShape(0, 4)
    orbits = pg.chain_orbits(shape)
    class_of, _, types = pg.conjugacy_classes(8)
    f = rng.normal(size=len(types))
    x = rng.normal(size=orbits.reps.size)[orbits.label]
    reduced = pg.reduced_kernel(shape, f) @ x[orbits.reps]
    words, inverses = pg.perm_array(8), pg.inverse_array(8)
    others = np.setdiff1d(np.arange(words.shape[0]), orbits.reps)
    for i in rng.choice(others, size=50, replace=False):
        # (sigma_i tau^-1)[x] = sigma_i[tau^-1[x]]
        terms = f[class_of[pg.rank_words(words[i][inverses])]] * x
        assert abs(reduced[orbits.label[i]] - terms.sum()) <= 1e-12 * np.abs(terms).sum()
