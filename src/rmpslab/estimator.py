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

Realizations use the counter-based streams (seed, r), so results are
bit-identical for a fixed config regardless of worker count.
"""

from __future__ import annotations

import hashlib
import json
import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass

import numpy as np

from . import mps, theory
from .errors import PreconditionError, SizeLimitError
from .weingarten import HAAR, EnsembleKind

# version of the sample/histogram CSV and JSON formats; 2 since the batched
# Born sweep, whose post-states and pair overlaps differ from the per-draw
# sweep's in the last bits
SCHEMA = 2


@dataclass(frozen=True)
class EnsembleConfig:
    """Full description of one sampling experiment."""

    setup: str
    n_a: int
    d: int
    chi: int
    n_b: int | None = None
    kind: EnsembleKind = HAAR
    k_max: int = 3
    n: int = 0
    pairs_per_state: int = 100
    realizations: int = 100
    seed: int = 0
    sampling_mode: str = "born"
    pair_mode: str = "independent"

    def __post_init__(self):
        if self.setup not in ("staircase", "glued"):
            raise ValueError(f"unknown setup {self.setup!r}")
        if self.setup == "glued":
            if self.n_b is not None and self.n_b != self.n_a + 1:
                raise ValueError("glued layout fixes N_B = N_A + 1")
        elif self.n_b is None:
            raise ValueError("staircase config needs N_B")
        if self.sampling_mode not in ("born", "forced"):
            raise ValueError(f"unknown sampling mode {self.sampling_mode!r}")
        if self.sampling_mode == "born" and not self.kind.is_haar:
            raise PreconditionError("born mode needs normalized states (haar kind)")
        if self.pair_mode not in ("independent", "pooled"):
            raise ValueError(f"unknown pair mode {self.pair_mode!r}")
        if self.k_max < 1 or self.pairs_per_state < 1 or self.realizations < 2:
            raise ValueError("need k_max >= 1, pairs_per_state >= 1, realizations >= 2")

    @property
    def d_a(self) -> int:
        return self.d**self.n_a

    @property
    def n_b_effective(self) -> int:
        return self.n_a + 1 if self.setup == "glued" else self.n_b

    @property
    def outcome_cardinality(self) -> int:
        if self.setup == "glued":
            return (self.chi**2) ** (self.n_a + 1)
        return self.d ** (self.n_b - 1) * self.chi

    @property
    def x(self) -> float:
        return theory.scaling_variable(self.setup, self.kind, self.d, self.chi, self.n_a)

    def build(self, rng):
        if self.setup == "glued":
            return mps.build_glued(self.n_a, self.d, self.chi, self.kind, rng)
        return mps.build_staircase(self.n_a, self.n_b, self.d, self.chi, self.kind, rng)


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
    state, layout = config.build(rng)
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
    """Per-pair means of D_B^2 |<psi~(z)|psi~(z')>|^(2k) with uniform z, z'."""
    rng = mps.stream(config.seed, r)
    state, layout = config.build(rng)
    dims = [t.shape[1] for t, role in zip(state.tensors, layout.site_roles) if role == "B"]
    card = float(config.outcome_cardinality)
    ks = np.arange(1, config.k_max + 1)
    sums = np.zeros(config.k_max)
    for _ in range(config.pairs_per_state):
        z1 = [int(rng.integers(dim)) for dim in dims]
        z2 = [int(rng.integers(dim)) for dim in dims]
        amp1 = mps.project_outcomes(state, layout, z1)
        amp2 = mps.project_outcomes(state, layout, z2)
        v = abs(mps.overlap(amp1, amp2)) ** 2
        sums += card**2 * v**ks
    return sums / config.pairs_per_state


def _per_realization(worker, config: EnsembleConfig, threads: int) -> list:
    """worker(config, r) for every realization r, in realization order."""
    reals = range(config.realizations)
    if threads <= 1:
        return [worker(config, r) for r in reals]
    with ProcessPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(worker, [config] * len(reals), reals))


def _collect(config: EnsembleConfig, threads: int = 1) -> np.ndarray:
    """(realizations, k_max) per-realization means, in realization order."""
    worker = _born_realization if config.sampling_mode == "born" else _forced_realization
    return np.array(_per_realization(worker, config, threads))


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
    """Born-mode moment estimates of u = D_A |<psi(z)|psi(z')>|^2, k = 1..k_max.

    ratio_to_haar is mean(u^k)/k!, the frame-potential ratio against the
    asymptotic Haar value; ratio_to_first is the alternative normalization
    mean(u^k)/mean(u)^k.
    """
    if config.sampling_mode != "born":
        raise PreconditionError("sample_moments needs a born-mode config")
    if config.d_a > mps.MAX_POST_DIM:
        raise SizeLimitError(f"D_A = {config.d_a} exceeds cap {mps.MAX_POST_DIM}")
    return _to_estimates(config, _collect(config, threads))


def forced_moments(config: EnsembleConfig, threads: int = 1) -> list[MomentEstimate]:
    """Uniform-outcome estimates of the n = 0 generalized frame potential.

    The empirical mean of |<psi~(z)|psi~(z')>|^(2k) over uniform pairs is
    rescaled by the squared outcome-space cardinality, reproducing the
    unrestricted double sum; directly comparable to the replica contraction
    at n = 0.  Here ratio_to_haar divides by k! D_A^(-k).
    """
    if config.sampling_mode != "forced":
        raise PreconditionError("forced_moments needs a forced-mode config")
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
    samples = np.concatenate(_per_realization(_born_overlaps, config, threads))
    counts, edges = np.histogram(samples, bins=bins, range=(0.0, u_max))
    width = edges[1] - edges[0]
    n_in = int(counts.sum())
    if n_in == 0:
        raise PreconditionError("no samples fell inside [0, u_max]")
    density = counts / (n_in * width)
    error = np.sqrt(counts) / (n_in * width)
    centers = 0.5 * (edges[:-1] + edges[1:])
    return HistogramTable(centers, density, error, float(width), n_in, samples.size)


# ---------------------------------------------------------------------------
# Machine-readable output
# ---------------------------------------------------------------------------


def config_dict(config: EnsembleConfig) -> dict:
    out = asdict(config)
    out["kind"] = {
        "kind": config.kind.kind,
        "variance": config.kind.variance,
        "variance_b": config.kind.variance_b,
    }
    return out


def config_hash(config: EnsembleConfig) -> str:
    payload = json.dumps(config_dict(config), sort_keys=True)
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


def write_moments_csv(path, config: EnsembleConfig, estimates: list[MomentEstimate]) -> None:
    lines = [f"# schema={SCHEMA} seed={config.seed} config={config_hash(config)}"]
    lines.append("k,mean,stderr,ratio,n_samples")
    for est in estimates:
        lines.append(
            f"{est.k},{est.mean!r},{est.stderr!r},{est.ratio_to_haar!r},{est.n_samples}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_histogram_csv(path, config: EnsembleConfig, table: HistogramTable) -> None:
    lines = [f"# schema={SCHEMA} seed={config.seed} config={config_hash(config)}"]
    lines.append("bin_center,density,error")
    for c, dens, err in zip(table.bin_centers, table.density, table.error):
        lines.append(f"{float(c)!r},{float(dens)!r},{float(err)!r}")
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def write_json_mirror(path, config: EnsembleConfig, payload: dict) -> None:
    doc = {
        "schema": SCHEMA,
        "config": config_dict(config),
        "config_hash": config_hash(config),
    }
    doc.update(payload)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
