"""rmpslab benchmark: one workload, one seed, one run.

From the root of a checkout:

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Every process runs with BLAS pinned to one thread.  With --trace 0 the run
measures set-up seven times (six set-up-only processes plus the measuring
one, each a fresh interpreter) and times the workload's job untraced for
about S seconds; the last line of standard output is the result with the
end-to-end metrics.  With --trace 1 one fresh process runs the job untraced
and another runs it traced, each for about S/2 seconds, and the result
carries the per-layer metrics; the gap between the two is the tracing
overhead.  The line before
the result records the environment, the per-pass timings and any failed
checks.  Exits non-zero without a result when the program cannot be
imported or a process does not finish in time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

from workloads import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def _worker_env() -> dict:
    env = dict(os.environ)
    env.update({k: "1" for k in THREAD_VARS})
    env["PYTHONHASHSEED"] = "0"  # the same dict and set layouts in every process
    env.pop("PYTHONPATH", None)
    return env


def _spawn(args, extra, root, deadline) -> tuple[float, dict]:
    """Run one worker; return (start time, its JSON line).  Raises on failure."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), *extra]
    started = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=root, env=_worker_env(), stdout=subprocess.PIPE)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker timed out: {' '.join(cmd)}")
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {' '.join(cmd)}")
    return started, json.loads(out.decode().strip().splitlines()[-1])


def _determinism(workload: str, seed: int, *runs: list) -> list[str]:
    """Commands whose CSV digest differs between processes or from an earlier run.

    Digests persist in perfbench/out/csv-sha256.json, so every run of one
    checkout is held to the bytes the first run with the same seed produced.
    """
    path = os.path.join(HERE, "out", "csv-sha256.json")
    try:
        with open(path, encoding="utf-8") as fh:
            store = json.load(fh)
    except (OSError, ValueError):
        store = {}
    bad = []
    for i, cmd in enumerate(WORKLOADS[workload].commands(seed)):
        k = " ".join(cmd.argv)
        for digests in runs:
            if digests[i] is not None and store.setdefault(k, digests[i]) != digests[i]:
                bad.append(k)
                break
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path + ".tmp", "w", encoding="utf-8") as fh:
        json.dump(store, fh, indent=0, sort_keys=True)
    os.replace(path + ".tmp", path)
    return bad


def _git_revision(root: str) -> str | None:
    try:
        res = subprocess.run(["git", "rev-parse", "HEAD"], cwd=root, capture_output=True,
                             text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return res.stdout.strip() if res.returncode == 0 else None


def _source_digest(root: str) -> str:
    src = os.path.join(root, "src", "rmpslab")
    h = hashlib.sha256()
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "rmpslab", "cli.py")):
        print("perfbench: run from a checkout root holding src/rmpslab", file=sys.stderr)
        return 2
    deadline = time.monotonic() + TIME_LIMIT_S
    env = {
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "threads_env_outer": {k: os.environ.get(k) for k in THREAD_VARS},
        "loadavg_before": os.getloadavg(),
        "git_revision": _git_revision(root),
        "source_sha256": _source_digest(root),
    }
    seconds = ["--seconds", str(args.seconds / 2 if args.trace else args.seconds)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_PROBES):
                started, probe = _spawn(args, ["--setup-only"], root, deadline)
                setups.append(probe["ready_at"] - started)
        started, res = _spawn(args, seconds, root, deadline)
        setups.append(res["ready_at"] - started)
        if args.trace:
            _, traced = _spawn(args, [*seconds, "--trace", "1"], root, deadline)
    except (RuntimeError, ValueError, IndexError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 3
    env["loadavg_after"] = os.getloadavg()
    env.update(res.pop("env"))

    runs = [res["csv_sha256"]]
    if args.trace:
        runs.append(traced["csv_sha256"])
        for k in ("attempted", "failed"):
            res[k] += traced[k]
        res["problems"] += traced["problems"]
    for k in _determinism(args.workload, args.seed, *runs):
        res["failed"] = min(res["attempted"], res["failed"] + 1)
        res["problems"].append(f"{k}: CSV bytes differ from another run with this seed")

    if args.trace:
        layer = traced.pop("per_layer")
        untraced_wall = statistics.fmean(res["walls"])
        layer["trace.overhead_share"] = (statistics.fmean(traced["walls"]) - untraced_wall) / (
            untraced_wall
        )
        metrics = {name: {"value": v, "unit": _unit(name)} for name, v in layer.items()}
        res["traced"] = traced
    else:
        metrics = {
            "wall_s": {"value": statistics.fmean(res["walls"]), "unit": "s"},
            "cpu_s": {"value": statistics.fmean(res["cpus"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MB"},
            "pass_ratio": {"value": 1.0 - res["failed"] / res["attempted"], "unit": "1"},
        }
    detail = {"workload": args.workload, "seed": args.seed, "setup_s": setups, **res, "env": env}
    print(json.dumps(detail))
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


def _unit(name: str) -> str:
    tail = name.rsplit(".", 1)[-1]
    for prefix, unit in (("ms", "ms"), ("us", "us"), ("s", "s")):
        if tail == prefix or tail.startswith(prefix + "_"):
            return unit
    if tail.endswith("share") or tail.endswith("ratio"):
        return "1"
    if tail == "bytes_written":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
