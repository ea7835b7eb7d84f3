"""Span recorder that wraps rmpslab's functions from outside the package.

Every cross-module call in rmpslab goes through a module attribute
(``replica`` calls ``wg.interaction_matrix``, ``estimator`` calls
``mps.BornSampler``), and same-module calls look names up in the module
globals, so replacing those attributes reaches every call without editing
the program.  Spans (name, start, end, parent, info) stay in memory; the
runner writes them out when the run ends.
"""

from __future__ import annotations

import time

import numpy as np

# (module, attribute path, span name).  A target the program no longer has
# is listed in Tracer.missing and its metrics read 0.
TARGETS = [
    ("cli", "main", "cli.main"),
    ("estimator", "sample_moments", "estimator.moments"),
    ("estimator", "forced_moments", "estimator.moments"),
    ("estimator", "overlap_histogram", "estimator.histogram"),
    ("estimator", "jackknife_mean", "estimator.jackknife"),
    ("mps", "draw_staircase_gates", "mps.gates"),
    ("mps", "draw_glued_gates", "mps.gates"),
    ("mps", "build_staircase", "mps.build"),
    ("mps", "build_glued", "mps.build"),
    ("mps", "BornSampler.__init__", "mps.sampler_setup"),
    ("mps", "BornSampler.sample", "mps.sample"),
    ("mps", "project_outcomes", "mps.project"),
    ("mps", "overlap", "mps.overlap"),
    ("mps", "statevector_oracle", "mps.oracle"),
    ("mps", "ProjectedEnsemble.generalized_frame_potential", "mps.oracle_fp"),
    ("replica", "staircase_chain", "replica.spec"),
    ("replica", "glued_chain", "replica.spec"),
    ("replica", "contract", "replica.contract"),
    ("weingarten", "interaction_matrix", "weingarten.interaction_matrix"),
    ("weingarten", "weingarten_matrix", "weingarten.weingarten_matrix"),
    ("weingarten", "weingarten_class_vector", "weingarten.class_vector"),
    ("permutations", "class_kernel_matvec", "permutations.matvec"),
    ("permutations", "perm_array", "permutations.tables"),
    ("permutations", "transposition_tables", "permutations.tables"),
    ("permutations", "conjugacy_classes", "permutations.tables"),
    ("permutations", "relative_index_matrix", "permutations.tables"),
] + [
    ("theory", fn, "theory")
    for fn in (
        "haar_frame_potential", "scaling_variable", "setup1_ratio", "setup1_pdf",
        "setup2_ratio", "setup2_generalized_ratio", "setup2_pdf", "leading_order_log",
        "leading_order",
    )
]

LAYERS = ("cli", "estimator", "mps", "replica", "weingarten", "permutations", "theory")


def _chain_info(args, kwargs):
    """Replica count m and number of chain operations of a contract() call."""
    spec = args[0] if args else kwargs.get("spec")
    try:
        ops = getattr(spec, "ops", None)
        n_ops = len(ops) if ops is not None else len(spec.sites) + len(spec.bonds)
        return {"m": spec.shape.m, "ops": n_ops}
    except (AttributeError, TypeError):
        return None


class Tracer:
    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self.enabled = False
        self.missing: list[str] = []
        self._open: list[int] = []

    def install(self, modules: dict) -> None:
        for mod_name, path, name in TARGETS:
            owner = modules[mod_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part, None)
            fn = vars(owner).get(attr) if owner is not None else None
            if fn is None:
                self.missing.append(f"{mod_name}.{path}")
                continue
            setattr(owner, attr, self._wrap(fn, name))

    def _wrap(self, fn, name):
        spans, stack, tracer = self.spans, self._open, self
        info_fn = _chain_info if name == "replica.contract" else None
        cache_info = getattr(fn, "cache_info", None)
        clock = time.perf_counter

        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, None]
            stack.append(len(spans))
            spans.append(rec)
            misses = cache_info().misses if cache_info else 0
            rec[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
                if cache_info:
                    rec[4] = {"cold": cache_info().misses > misses}
                elif info_fn:
                    rec[4] = info_fn(args, kwargs)

        traced.__wrapped__ = fn
        return traced


def _layer(name: str) -> str:
    return name.split(".", 1)[0]


def summarize(spans, setup_range, job_range, n_jobs, traced_wall) -> dict[str, float]:
    """Per-layer metrics from the spans of n_jobs traced passes of the job.

    Times are per call unless the name says otherwise, counts per job pass,
    shares relative to traced_wall (the summed wall time of those passes).
    """
    n = len(spans)
    dur = np.array([s[2] - s[1] for s in spans]) if n else np.zeros(0)
    child = np.zeros(n)
    for s, d in zip(spans, dur):
        if s[3] >= 0:
            child[s[3]] += d
    self_t = dur - child
    lo, hi = job_range
    job = range(lo, hi)
    by_name: dict[str, list[int]] = {}
    for i in job:
        by_name.setdefault(spans[i][0], []).append(i)

    def durs(name, arr=dur):
        return arr[by_name.get(name, [])]

    def mean(x, scale):
        return float(x.mean()) * scale if x.size else 0.0

    def pct(x, q, scale):
        return float(np.percentile(x, q)) * scale if x.size else 0.0

    def calls(name):
        return len(by_name.get(name, [])) / n_jobs

    def outer(i):  # outermost span of its layer
        p = spans[i][3]
        return p < 0 or _layer(spans[p][0]) != _layer(spans[i][0])

    # one oracle realization = the dense build plus its frame-potential calls
    oracle: list[float] = []
    for i in job:
        if spans[i][0] == "mps.oracle":
            oracle.append(dur[i])
        elif spans[i][0] == "mps.oracle_fp" and oracle:
            oracle[-1] += dur[i]

    contract = by_name.get("replica.contract", [])
    by_m: dict[int, list[int]] = {}
    for i in contract:
        info = spans[i][4] or {}
        by_m.setdefault(info.get("m", 0), []).append(i)

    def op_ms(m):
        idx = by_m.get(m, [])
        ops = sum((spans[i][4] or {}).get("ops", 0) for i in idx)
        return float(dur[idx].sum()) / ops * 1e3 if ops else 0.0

    def cold_tables(rng):
        return sum(
            dur[i] for i in rng
            if spans[i][0] == "permutations.tables" and (spans[i][4] or {}).get("cold") and outer(i)
        )

    theory = np.array([dur[i] for i in job if spans[i][0] == "theory" and outer(i)])
    estimator_self = sum(self_t[i] for i in job if _layer(spans[i][0]) == "estimator")
    roots = sum(dur[i] for i in job if spans[i][3] < 0)
    wall = traced_wall if traced_wall > 0 else float("inf")

    out = {
        "mps.gates.ms": mean(durs("mps.gates"), 1e3),
        "mps.gates.calls": calls("mps.gates"),
        "mps.build.ms": mean(durs("mps.build", self_t), 1e3),
        "mps.sampler_setup.ms": mean(durs("mps.sampler_setup"), 1e3),
        "mps.sample.us_p50": pct(durs("mps.sample"), 50, 1e6),
        "mps.sample.us_p99": pct(durs("mps.sample"), 99, 1e6),
        "mps.sample.calls": calls("mps.sample"),
        "mps.project.us_p50": pct(durs("mps.project"), 50, 1e6),
        "mps.project.calls": calls("mps.project"),
        "mps.oracle.ms_p50": pct(np.array(oracle), 50, 1e3),
        "mps.oracle.calls": len(oracle) / n_jobs,
        "mps.overlap.us_p50": pct(durs("mps.overlap"), 50, 1e6),
        "estimator.self.s": estimator_self / n_jobs,
        "estimator.pairs": calls("mps.overlap"),
        "replica.spec.ms": mean(durs("replica.spec"), 1e3),
        "replica.chains": calls("replica.contract"),
        "replica.op.ms_m6": op_ms(6),
        "replica.op.ms_m8": op_ms(8),
        "weingarten.interaction_matrix.ms": mean(durs("weingarten.interaction_matrix"), 1e3),
        "weingarten.interaction_matrix.calls": calls("weingarten.interaction_matrix"),
        "weingarten.weingarten_matrix.ms": mean(durs("weingarten.weingarten_matrix"), 1e3),
        "weingarten.class_vector.ms": mean(durs("weingarten.class_vector"), 1e3),
        "permutations.matvec.s": float(durs("permutations.matvec").sum()) / n_jobs,
        "permutations.matvec.calls": calls("permutations.matvec"),
        "permutations.tables.ms": (cold_tables(range(*setup_range)) + cold_tables(job) / n_jobs)
        * 1e3,
        "theory.ms": mean(theory, 1e3),
        "theory.calls": theory.size / n_jobs,
        "cli.self.ms": mean(durs("cli.main", self_t), 1e3),
        "mps.sample.self_share": float(durs("mps.sample", self_t).sum()) / wall,
        "mps.gates_setup.share": float(durs("mps.gates").sum() + durs("mps.sampler_setup").sum())
        / wall,
        "weingarten.interaction_matrix.share": float(durs("weingarten.interaction_matrix").sum())
        / wall,
        "permutations.matvec.share": float(durs("permutations.matvec").sum()) / wall,
        "trace.unaccounted_share": 1.0 - roots / wall,
    }
    for m in (2, 4, 6, 8):
        out[f"replica.contract.ms_m{m}"] = mean(dur[by_m.get(m, [])], 1e3)
    return out
