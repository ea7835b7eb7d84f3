"""Monte-Carlo frame-potential estimation from sampled projected ensembles.

Born mode builds a normalized random MPS per realization, draws outcome
strings by the Born rule, and accumulates moments of the rescaled squared
overlap u = D_A |<psi(z)|psi(z')>|^2 between post-measurement states.
Forced mode draws outcome strings uniformly instead (no Born weighting, no
normalization), which estimates the n = 0 generalized frame potential and is
directly comparable to the exact replica contraction.

Both modes run one per-realization core, ``_pair_overlaps``: build the
state, take draws in chunks of ``mps.chunk_draws``, and form pairs either
from two fresh draws each ("independent", the unrestricted double sum,
coincidences included) or from all pairs among a pool of draws per state
("pooled", the measurements-per-state convention, which needs at least two
draws).  Moments, forced mode and histograms all read its pair overlaps.
Error bars come from a leave-one-realization-out jackknife: overlaps within
one state are correlated, realizations are independent.

An ``EnsembleConfig`` is an ``mps.Circuit`` plus its sampling fields, and
``sample_moments`` serves whichever sampling mode it holds.  Realizations
use the counter-based streams (seed, r), so results are bit-identical for a
fixed config regardless of worker count.
"""

from __future__ import annotations

import math
import numbers
import os
from dataclasses import dataclass

import numpy as np

from . import mps, theory
from .errors import PreconditionError, SizeLimitError

# a pooled realization holds all its draws' n x n complex Gram matrix at once
MAX_POOLED_DRAWS = 2048


@dataclass(frozen=True)
class EnsembleConfig(mps.Circuit):
    """One sampling experiment: the circuit (``mps.Circuit``, validated by
    its own rule) plus how it is sampled.  The counts and the seed are
    integers, stored as Python ints like the circuit sizes.  A pooled run
    needs 2 to MAX_POOLED_DRAWS draws per state, and D_A may not pass
    ``mps.MAX_POST_DIM``."""

    k_max: int = 3
    pairs_per_state: int = 100
    realizations: int = 100
    seed: int = 0
    sampling_mode: str = "born"
    pair_mode: str = "independent"

    def __post_init__(self):
        super().__post_init__()
        if self.sampling_mode not in ("born", "forced"):
            raise ValueError(f"unknown sampling mode {self.sampling_mode!r}")
        if self.sampling_mode == "born" and not self.kind.is_haar:
            raise PreconditionError("born mode needs normalized states (haar kind)")
        if self.pair_mode not in ("independent", "pooled"):
            raise ValueError(f"unknown pair mode {self.pair_mode!r}")
        for field in ("k_max", "pairs_per_state", "realizations", "seed"):
            value = getattr(self, field)
            if not isinstance(value, numbers.Integral):
                raise ValueError(f"{field} must be an integer, got {value!r}")
            object.__setattr__(self, field, int(value))
        if self.k_max < 1 or self.pairs_per_state < 1 or self.realizations < 2:
            raise ValueError("need k_max >= 1, pairs_per_state >= 1, realizations >= 2")
        mps._check_key(self.seed, self.realizations - 1)
        if self.pair_mode == "pooled" and self.pairs_per_state < 2:
            raise ValueError(
                f"pooled pairs need pairs_per_state (--pairs) >= 2, got {self.pairs_per_state}"
            )
        if self.pair_mode == "pooled" and self.pairs_per_state > MAX_POOLED_DRAWS:
            raise SizeLimitError(
                f"pooled pairs_per_state (--pairs) {self.pairs_per_state} exceeds cap "
                f"{MAX_POOLED_DRAWS}"
            )
        if self.d_a > mps.MAX_POST_DIM:
            raise SizeLimitError(f"D_A = {self.d_a} exceeds cap {mps.MAX_POST_DIM}")

    @property
    def x(self) -> float:
        return theory.scaling_variable(self.setup, self.kind, self.d, self.chi, self.n_a)


@dataclass(frozen=True)
class MomentEstimate:
    k: int
    mean: float
    stderr: float
    n_samples: int
    ratio_to_haar: float
    ratio_stderr: float
    ratio_to_first: float

    def __post_init__(self):
        if self.stderr < 0 or self.n_samples <= 0:
            raise ValueError("stderr must be >= 0 and n_samples > 0")


def _pair_overlaps(config: EnsembleConfig, r: int) -> np.ndarray:
    """Pair overlaps of realization r in draw order: u = D_A |<psi(z)|psi(z')>|^2
    between normalized Born post-states (born), or |<psi~(z)|psi~(z')>|^2
    between unnormalized projections of uniform strings (forced).

    Both modes draw in chunks of ``mps.chunk_draws``.  independent: pair i is
    draws (2i, 2i + 1), in chunks of whole pairs, so at most one chunk is
    held.  pooled: all pairs i < j among pairs_per_state draws, held at once
    (at most MAX_POOLED_DRAWS of them, which ``EnsembleConfig`` checks).  The
    Born sampler is told those draws per state, from which it picks its
    set-up (``mps.BornSampler``).  Forced strings are projected by
    ``mps._project_batch``, the projection that forms the right-canonical
    sampler's post-states.
    """
    rng = mps.stream(config.seed, r)
    state = mps.build(config, rng)
    chunk = mps.chunk_draws(state)
    n = config.pairs_per_state
    if config.sampling_mode == "born":
        draws = n if config.pair_mode == "pooled" else 2 * n
        sampler, scale = mps.BornSampler(state, draws), config.d_a

        def draw(count: int) -> np.ndarray:
            return sampler.sample_batch(rng, count).post_states

    else:
        dims, scale = np.array(config.outcome_dims), 1

        def draw(count: int) -> np.ndarray:
            z = rng.integers(0, dims, size=(count, dims.size))
            return mps._project_batch(state, z)

    if config.pair_mode == "pooled":
        posts = np.concatenate([draw(min(chunk, n - lo)) for lo in range(0, n, chunk)])
        u = scale * np.abs(posts.conj() @ posts.T) ** 2
        return u[np.triu_indices(n, k=1)]
    per_chunk = max(1, chunk // 2)
    out = np.empty(n)
    for lo in range(0, n, per_chunk):
        hi = min(n, lo + per_chunk)
        posts = draw(2 * (hi - lo))
        out[lo:hi] = scale * np.abs(np.vecdot(posts[0::2], posts[1::2])) ** 2
    return out


def _pair_moments(config: EnsembleConfig, r: int) -> np.ndarray:
    """Pair means of u^k for realization r, k = 1..k_max; forced mode
    rescales them by D_B^2, the unrestricted double sum over outcome pairs."""
    u = _pair_overlaps(config, r)
    moments = np.mean(u[:, None] ** np.arange(1, config.k_max + 1), axis=0)
    if config.sampling_mode == "forced":
        moments *= float(config.outcome_cardinality) ** 2
    return moments


def per_realization(worker, config, realizations: int, threads: int) -> list:
    """worker(config, r) for r = 0 .. realizations - 1, in realization order.

    The realizations run on a pool of min(threads, realizations, CPUs)
    processes, or in this process when that is 1, handed out in chunks of
    about a quarter of each worker's share, so that cheap realizations do not
    pay one round trip each.  Every realization draws from its own stream, so
    the results do not depend on threads.  The oracle subcommand maps fixed
    chunks of realizations the same way, worker(config, c) for chunk c.
    """
    reals = range(realizations)
    workers = min(threads, realizations, os.cpu_count() or 1)
    if workers <= 1:
        return [worker(config, r) for r in reals]
    chunk = max(1, realizations // (4 * workers))
    with _process_pool(workers) as pool:
        return list(pool.map(worker, [config] * realizations, reals, chunksize=chunk))


def _process_pool(workers: int):
    """A ``ProcessPoolExecutor``, imported here: the module brings in
    multiprocessing, sockets and logging, about 2 MB of memory that a
    contraction or a one-process run never uses."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def _collect(config: EnsembleConfig, threads: int = 1) -> np.ndarray:
    """(realizations, k_max) per-realization means, in realization order."""
    return np.array(per_realization(_pair_moments, config, config.realizations, threads))


def jackknife_mean(per_real: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Mean and leave-one-out jackknife standard error along axis 0."""
    per_real = np.atleast_2d(per_real)
    r = per_real.shape[0]
    mean = per_real.mean(axis=0)
    loo = (mean[None, :] * r - per_real) / (r - 1)
    err = np.sqrt((r - 1) / r * np.sum((loo - loo.mean(axis=0)) ** 2, axis=0))
    return mean, err


def _to_estimates(config: EnsembleConfig, per_real: np.ndarray) -> list[MomentEstimate]:
    mean, err = jackknife_mean(per_real)
    n_pairs = config.realizations * config.pairs_per_state
    if config.pair_mode == "pooled":
        n_pairs *= config.pairs_per_state - 1
    out = []
    for i, k in enumerate(range(1, config.k_max + 1)):
        fac = math.factorial(k)
        if config.sampling_mode == "born":
            ratio, ratio_err = mean[i] / fac, err[i] / fac
        else:
            haar = theory.haar_frame_potential(k, config.d_a)
            ratio, ratio_err = mean[i] / haar, err[i] / haar
        first = mean[0] ** k if mean[0] > 0 else np.nan
        out.append(
            MomentEstimate(
                k=k,
                mean=float(mean[i]),
                stderr=float(err[i]),
                n_samples=n_pairs,
                ratio_to_haar=float(ratio),
                ratio_stderr=float(ratio_err),
                ratio_to_first=float(mean[i] / first) if first == first else float("nan"),
            )
        )
    return out


def sample_moments(config: EnsembleConfig, threads: int = 1) -> list[MomentEstimate]:
    """Moment estimates for k = 1..k_max in the config's sampling mode.

    born: moments of u = D_A |<psi(z)|psi(z')>|^2; ratio_to_haar is
    mean(u^k)/k!, the frame-potential ratio against the asymptotic Haar
    value.  forced: the empirical mean of |<psi~(z)|psi~(z')>|^(2k) over
    uniform pairs, rescaled by the squared outcome-space cardinality, which
    reproduces the unrestricted double sum of the n = 0 generalized frame
    potential and is directly comparable to the replica contraction; here
    ratio_to_haar divides by k! D_A^(-k).  Both modes report ratio_to_first,
    the alternative normalization mean_k/mean_1^k.
    """
    return _to_estimates(config, _collect(config, threads))


@dataclass
class HistogramTable:
    bin_centers: np.ndarray
    density: np.ndarray
    error: np.ndarray
    bin_width: float
    n_in_range: int
    n_total: int


def overlap_histogram(
    config: EnsembleConfig, bins: int, u_max: float, threads: int = 1
) -> HistogramTable:
    """Density-normalized histogram of u from born-mode sampling.

    bins >= 1 uniform bins on [0, u_max], u_max finite and > 0, both checked
    before any sampling; densities are normalized over the in-range samples
    (total mass exactly 1), with per-bin Poisson errors.
    """
    if bins < 1:
        raise ValueError(f"need bins (--bins) >= 1, got {bins}")
    if not 0 < u_max < math.inf:
        raise ValueError(f"need a finite u_max (--umax) > 0, got {u_max}")
    if config.sampling_mode != "born":
        raise PreconditionError("overlap_histogram needs a born-mode config")
    samples = np.concatenate(
        per_realization(_pair_overlaps, config, config.realizations, threads)
    )
    counts, edges = np.histogram(samples, bins=bins, range=(0.0, u_max))
    width = edges[1] - edges[0]
    n_in = int(counts.sum())
    if n_in == 0:
        raise PreconditionError("no samples fell inside [0, u_max]")
    density = counts / (n_in * width)
    error = np.sqrt(counts) / (n_in * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return HistogramTable(centers, density, error, float(width), n_in, samples.size)
