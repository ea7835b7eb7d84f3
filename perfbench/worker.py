"""One benchmark process: import rmpslab, warm up, run a workload's job, check it.

Started by run.py in a fresh interpreter from the root of a checkout, with
BLAS pinned to one thread:

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Prints one JSON line.  ``ready_at`` (time.monotonic(), comparable across
processes) marks the end of set-up: ``import rmpslab`` plus the workload's
warm-up commands.  Without --setup-only it then repeats the job for about S
seconds and reports each pass's wall and CPU time.  With --trace 1 the
passes run traced, the spans are written to perfbench/out/ and the JSON
also carries the per-layer metrics.

Every command's CSV must be byte-identical across the passes of one run
(the determinism contract) and must pass its output check; a command that
raises, exits non-zero or fails either test counts as a failed operation.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import shutil
import sys
import tempfile
import time
import traceback
import warnings

import spans
from workloads import WORKLOADS, read_csv

ROOT = os.getcwd()
HERE = os.path.dirname(os.path.abspath(__file__))
OUT = os.path.join(HERE, "out")


def _import_program():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    import rmpslab
    from rmpslab import cli, estimator, mps, permutations, replica, theory, weingarten

    if not os.path.abspath(rmpslab.__file__).startswith(os.path.join(ROOT, "src") + os.sep):
        raise ImportError(f"rmpslab imported from {rmpslab.__file__}, not from {ROOT}/src")
    return {
        "cli": cli, "estimator": estimator, "mps": mps, "permutations": permutations,
        "replica": replica, "theory": theory, "weingarten": weingarten,
    }


class Runner:
    """Runs command lists through rmpslab.cli.main and keeps every output's bytes."""

    def __init__(self, cli, out_dir: str):
        self.cli = cli
        self.out_dir = out_dir

    def run(self, argvs: list[list[str]]) -> dict:
        paths = [os.path.join(self.out_dir, f"{i}.csv") for i in range(len(argvs))]
        status = []
        with contextlib.redirect_stdout(io.StringIO()):
            c0, t0 = time.process_time(), time.perf_counter()
            for argv, path in zip(argvs, paths):
                try:
                    status.append(self.cli.main([*argv, "--out", path]))
                except Exception:  # a crashing command is a failed operation
                    status.append(traceback.format_exc(limit=4))
            wall, cpu = time.perf_counter() - t0, time.process_time() - c0
        outputs = []
        for st, path in zip(status, paths):
            data = None
            if st == 0 and os.path.exists(path):
                with open(path, "rb") as fh:
                    data = fh.read()
            outputs.append((st, data))
        written = 0
        for name in os.listdir(self.out_dir):
            full = os.path.join(self.out_dir, name)
            written += os.path.getsize(full)
            os.remove(full)
        return {"wall": wall, "cpu": cpu, "outputs": outputs, "bytes": written}


class Ledger:
    """Counts operations and failures; checks each distinct output once."""

    def __init__(self, commands, refs):
        self.commands = commands
        self.refs = refs
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.first: list[bytes | None] = [None] * len(commands)
        self._verdict: dict[tuple[int, bytes], bool] = {}

    def fail(self, what: str) -> None:
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(what)

    def warmup(self, result) -> None:
        for st, _ in result["outputs"]:
            self.attempted += 1
            if st != 0:
                self.fail(f"warm-up: {st}")

    def job(self, result) -> None:
        for i, (st, data) in enumerate(result["outputs"]):
            self.attempted += 1
            argv = " ".join(self.commands[i].argv)
            if st != 0 or data is None:
                self.fail(f"{argv}: exit {st}")
                continue
            if self.first[i] is None:
                self.first[i] = data
            elif data != self.first[i]:
                self.fail(f"{argv}: CSV bytes differ between passes of one seed")
                continue
            if (i, data) not in self._verdict:
                try:
                    found = self.commands[i].check(read_csv(data.decode()), self.refs)
                except (KeyError, ValueError, IndexError) as exc:
                    found = [f"unreadable output: {exc!r}"]
                for p in found:
                    self.fail(f"{argv}: {p}")
                self._verdict[(i, data)] = not found
            elif not self._verdict[(i, data)]:
                self.fail(f"{argv}: check failed")


def _repeat(seconds: float, once) -> list:
    """Run once() until the time measured is within half a mean pass of seconds.

    At least one pass; a pass longer than seconds runs once.  Stopping at the
    nearest pass boundary keeps the measured time close to seconds whatever
    the pass length, so a 9 s pass in a 20 s run runs twice, not once.
    """
    passes = []
    t0 = time.perf_counter()
    while True:
        passes.append(once())
        elapsed = time.perf_counter() - t0
        if elapsed + elapsed / len(passes) / 2 >= seconds:
            return passes


def _layer_of(filename: str) -> str:
    parts = os.path.normpath(filename).split(os.sep)
    if len(parts) >= 2 and parts[-2] == "rmpslab":
        return os.path.splitext(parts[-1])[0]
    return "other"


def _cache_counts(modules) -> dict[str, tuple[int, int]]:
    """(hits, lookups) summed over the lru caches of each module."""
    out = {}
    for name, mod in modules.items():
        hits = lookups = 0
        for obj in vars(mod).values():
            if not hasattr(obj, "cache_info"):  # maybe wrapped by the tracer
                obj = getattr(obj, "__wrapped__", None)
            if hasattr(obj, "cache_info") and obj.__module__ == mod.__name__:
                ci = obj.cache_info()
                hits += ci.hits
                lookups += ci.hits + ci.misses
        out[name] = (hits, lookups)
    return out


def _environment() -> dict:
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        blas = None
    return {
        "numpy": np.__version__,
        "blas": blas,
        "threads_env": {
            k: os.environ.get(k) for k in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                           "MKL_NUM_THREADS")
        },
    }


def _traced_passes(args, runner, argvs, tracer, modules, setup_range):
    """Run the job traced; return the passes and the per-layer metrics.

    Also counts warnings per layer and lru-cache hits per module over the
    passes, and writes the spans to perfbench/out/.
    """
    caches0 = _cache_counts(modules)
    job_start = len(tracer.spans)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        passes = _repeat(args.seconds, lambda: runner.run(argvs))
    tracer.enabled = False
    caches1 = _cache_counts(modules)
    job_range = (job_start, len(tracer.spans))
    n = len(passes)
    layer = spans.summarize(tracer.spans, setup_range, job_range, n,
                            sum(p["wall"] for p in passes))
    layer["cli.bytes_written"] = passes[0]["bytes"]
    for name in spans.LAYERS:
        layer[f"{name}.warnings"] = sum(1 for w in caught if _layer_of(w.filename) == name) / n
    for name in ("weingarten", "permutations"):
        hits = caches1[name][0] - caches0[name][0]
        lookups = caches1[name][1] - caches0[name][1]
        layer[f"{name}.cache_hit_ratio"] = hits / lookups if lookups else 0.0
    path = os.path.join(OUT, f"spans-{args.workload}-seed{args.seed}.json")
    with open(path, "w", encoding="utf-8") as fh:
        json.dump({"setup": setup_range, "job": job_range, "spans": tracer.spans}, fh)
    return passes, layer


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    workload = WORKLOADS[args.workload]
    modules = _import_program()
    tracer = spans.Tracer()
    if args.trace:
        tracer.install(modules)
        tracer.enabled = True
    os.makedirs(OUT, exist_ok=True)
    out_dir = tempfile.mkdtemp(prefix=f"run-{os.getpid()}-", dir=OUT)
    try:
        runner = Runner(modules["cli"], out_dir)
        warm = runner.run(workload.warmup)
        ready_at = time.monotonic()
        setup_range = (0, len(tracer.spans))
        if args.setup_only:
            print(json.dumps({"ready_at": ready_at}))
            return 0

        with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
            refs = json.load(fh)
        commands = workload.commands(args.seed)
        argvs = [c.argv for c in commands]
        ledger = Ledger(commands, refs)
        ledger.warmup(warm)
        result = {"ready_at": ready_at}

        if args.trace:
            passes, result["per_layer"] = _traced_passes(args, runner, argvs, tracer, modules,
                                                         setup_range)
            result["trace_missing"] = tracer.missing
        else:
            passes = _repeat(args.seconds, lambda: runner.run(argvs))
        result["walls"] = [p["wall"] for p in passes]
        result["cpus"] = [p["cpu"] for p in passes]
        for p in passes:
            ledger.job(p)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    result.update(
        attempted=ledger.attempted,
        failed=ledger.failed,
        problems=ledger.problems,
        csv_sha256=[hashlib.sha256(b).hexdigest() if b else None for b in ledger.first],
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env=_environment(),
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
