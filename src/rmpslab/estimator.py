"""Monte-Carlo frame-potential estimation from sampled projected ensembles.

Born mode builds a normalized random MPS per realization, draws outcome
strings by the Born rule, and accumulates moments of the rescaled squared
overlap u = D_A |<psi(z)|psi(z')>|^2 between post-measurement states.
Forced mode draws outcome strings uniformly instead (no Born weighting, no
normalization), which estimates the n = 0 generalized frame potential and is
directly comparable to the exact replica contraction.

Pairs are formed either from two fresh draws each ("independent", the
unrestricted double sum, coincidences included) or from all ordered pairs
among a pool of draws per state ("pooled", the measurements-per-state
convention).  Error bars come from a leave-one-realization-out jackknife:
overlaps within one state are correlated, realizations are independent.

An ``EnsembleConfig`` is an ``mps.Circuit`` plus its sampling fields, and
``sample_moments`` serves whichever sampling mode it holds.  Realizations
use the counter-based streams (seed, r), so results are bit-identical for a
fixed config regardless of worker count.
"""

from __future__ import annotations

import math
import numbers
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import mps, theory
from .errors import PreconditionError, SizeLimitError


@dataclass(frozen=True)
class EnsembleConfig(mps.Circuit):
    """One sampling experiment: the circuit (``mps.Circuit``, validated by
    its own rule) plus how it is sampled.  The counts and the seed are
    integers, stored as Python ints like the circuit sizes."""

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


def _born_overlaps(config: EnsembleConfig, r: int) -> np.ndarray:
    """u = D_A |<psi(z)|psi(z')>|^2 for every pair of realization r, in draw order.

    independent: pair i is draws (2i, 2i + 1); draws arrive in chunks of
    whole pairs from one batched sweep each, so at most one chunk of
    post-states is held.  pooled: all unordered pairs i < j among
    pairs_per_state draws, which needs every post-state at once.
    """
    rng = mps.stream(config.seed, r)
    state, layout = mps.build(config, rng)
    sampler = mps.BornSampler(state, layout)
    n = config.pairs_per_state
    if config.pair_mode == "pooled":
        posts = np.concatenate(
            [
                sampler.sample_batch(rng, min(sampler.chunk, n - lo)).post_states
                for lo in range(0, n, sampler.chunk)
            ]
        )
        u = config.d_a * np.abs(posts.conj() @ posts.T) ** 2
        return u[np.triu_indices(n, k=1)]
    per_chunk = max(1, sampler.chunk // 2)
    out = np.empty(n)
    for lo in range(0, n, per_chunk):
        hi = min(n, lo + per_chunk)
        posts = sampler.sample_batch(rng, 2 * (hi - lo)).post_states
        out[lo:hi] = config.d_a * np.abs(np.vecdot(posts[0::2], posts[1::2])) ** 2
    return out


def _born_realization(config: EnsembleConfig, r: int) -> np.ndarray:
    """Pair means of u^k for one realization, k = 1..k_max."""
    u = _born_overlaps(config, r)
    return np.mean(u[:, None] ** np.arange(1, config.k_max + 1), axis=0)


def _forced_realization(config: EnsembleConfig, r: int) -> np.ndarray:
    """Per-pair means of D_B^2 |<psi~(z)|psi~(z')>|^(2k) with uniform z, z'.

    Pair i is outcome rows (2i, 2i + 1).  Each chunk's strings come from one
    ``rng.integers(0, dims, (2 pairs, N_B))`` and one batched projection,
    in whole pairs of the Born sampler's chunk ``mps.chunk_draws`` (up to
    ``mps.MAX_SAMPLER_DRAWS`` strings), which ``mps._project_batch`` runs in
    groups of at most ``mps.MAX_CHUNK_DRAWS`` rows.  The pair moments are
    summed chunk by chunk, so the chunk size sets their summation order.
    """
    rng = mps.stream(config.seed, r)
    state, layout = mps.build(config, rng)
    dims = np.array(config.outcome_dims)
    per_chunk = max(1, mps.chunk_draws(state, config.d_a) // 2)
    card = float(config.outcome_cardinality)
    ks = np.arange(1, config.k_max + 1)
    n = config.pairs_per_state
    sums = np.zeros(config.k_max)
    for lo in range(0, n, per_chunk):
        count = min(per_chunk, n - lo)
        z = rng.integers(0, dims, size=(2 * count, dims.size))
        amps = mps._project_batch(state, layout, z)
        v = np.abs(np.vecdot(amps[0::2], amps[1::2])) ** 2
        sums += (card**2 * v[:, None] ** ks).sum(axis=0)
    return sums / n


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
    with ProcessPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(worker, [config] * realizations, reals, chunksize=chunk))


def _collect(config: EnsembleConfig, threads: int = 1) -> np.ndarray:
    """(realizations, k_max) per-realization means, in realization order."""
    if config.d_a > mps.MAX_POST_DIM:
        raise SizeLimitError(f"D_A = {config.d_a} exceeds cap {mps.MAX_POST_DIM}")
    worker = _born_realization if config.sampling_mode == "born" else _forced_realization
    return np.array(per_realization(worker, config, config.realizations, threads))


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
    if config.pair_mode == "pooled" and config.sampling_mode == "born":
        n_pairs = config.realizations * config.pairs_per_state * (config.pairs_per_state - 1)
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


def forced_ratio(config: EnsembleConfig, k: int, threads: int = 1) -> tuple[float, float]:
    """Jackknife estimate of F^(k,0) / (F^(1,0))^k from one forced-mode run."""
    if not 1 <= k <= config.k_max:
        raise ValueError(f"need 1 <= k <= k_max, got k={k}")
    per_real = _collect(config, threads)
    f_k = per_real[:, k - 1]
    f_1 = per_real[:, 0]
    r = per_real.shape[0]
    full = f_k.mean() / f_1.mean() ** k
    loo = np.array(
        [
            (f_k.sum() - f_k[i]) / (r - 1) / ((f_1.sum() - f_1[i]) / (r - 1)) ** k
            for i in range(r)
        ]
    )
    err = math.sqrt((r - 1) / r * np.sum((loo - loo.mean()) ** 2))
    return float(full), float(err)


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

    Uniform bins on [0, u_max]; densities are normalized over the in-range
    samples (total mass exactly 1), with per-bin Poisson errors.
    """
    if config.sampling_mode != "born":
        raise PreconditionError("overlap_histogram needs a born-mode config")
    samples = np.concatenate(
        per_realization(_born_overlaps, config, config.realizations, threads)
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
