"""Command-line driver for reproducible experiments.

Subcommands cover the three computational routes: ``predict`` (closed
forms), ``contract`` (exact replica chains), ``sample``/``histogram``
(Monte-Carlo over sampled states) plus ``oracle`` (exhaustive dense
enumeration at tiny sizes).  Outputs are CSV (header row, one leading
``# schema=N seed=... config=...`` comment line) next to a JSON mirror with
the full resolved configuration; a ``*.manifest.json`` records tool version,
wall time and the emitted files.  N is 2 for the ``sample`` and
``histogram`` files (the batched Born sweep changed their last bits) and 1
for the others.  Data files are deterministic for fixed flags and seed;
files are written atomically and partial outputs are removed on failure.

Flags override an optional plain-text key=value config file (--config).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import os
import sys
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import __version__, estimator, mps, replica, theory
from .errors import PreconditionError, ShapeMismatchError, SizeLimitError
from .permutations import ReplicaShape
from .weingarten import HAAR, EnsembleKind, gaussian


def _kind_from_args(args) -> EnsembleKind:
    if args.kind == "haar":
        return HAAR
    return gaussian(getattr(args, "variance", None), getattr(args, "variance_b", None))


def _default_nb(args) -> int | None:
    if args.setup == "glued":
        return None
    if args.nb is not None:
        return args.nb
    return int(math.floor(args.na**1.5))


class _OutputSet:
    """Atomic multi-file output: all files land, or none do."""

    def __init__(self):
        self.written: list[str] = []

    def write_text(self, path: str, text: str) -> None:
        tmp = path + ".tmp"
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
        self.written.append(path)

    def cleanup(self) -> None:
        for path in self.written:
            try:
                os.remove(path)
            except OSError:
                pass


def _manifest(out: _OutputSet, path: str, args_dict: dict, wall_time: float) -> None:
    doc = {
        "schema": 1,
        "tool_version": __version__,
        "config": args_dict,
        "config_hash": hashlib.sha256(
            json.dumps(args_dict, sort_keys=True).encode()
        ).hexdigest()[:16],
        "wall_time_seconds": wall_time,
        "outputs": list(out.written),
    }
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)


def _csv_cell(v) -> str:
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _csv_text(header: str, rows, seed, cfg_hash: str) -> str:
    lines = [f"# schema=1 seed={seed} config={cfg_hash}", header]
    lines += [",".join(_csv_cell(v) for v in row) for row in rows]
    return "\n".join(lines) + "\n"


def _args_hash(args_dict: dict) -> str:
    return hashlib.sha256(json.dumps(args_dict, sort_keys=True).encode()).hexdigest()[:16]


def cmd_predict(args) -> int:
    xs = args.x if args.x else [0.0]
    rows = []
    if args.pdf:
        pdf = theory.setup1_pdf if args.setup == "staircase" else theory.setup2_pdf
        if args.u is not None:
            us = [args.u]
        else:
            us = list(np.linspace(0.0, args.umax, args.points))
        for x in xs:
            for u in us:
                rows.append((x, u, pdf(u, x, args.d)))
        header = "x,u,density"
        for row in rows:
            print(f"x={row[0]:g} u={row[1]:g} density={row[2]!r}")
    else:
        ratio = theory.setup1_ratio if args.setup == "staircase" else theory.setup2_ratio
        for x in xs:
            for k in range(1, args.k + 1):
                rows.append((x, k, ratio(k, x, args.d)))
        header = "x,k,ratio"
        for row in rows:
            print(f"x={row[0]:g} k={row[1]} ratio={row[2]!r}")
    if args.out:
        out = _OutputSet()
        args_dict = _public_args(args)
        out.write_text(args.out, _csv_text(header, rows, 0, _args_hash(args_dict)))
        _manifest(out, args.out + ".manifest.json", args_dict, 0.0)
    return 0


def cmd_contract(args) -> int:
    t0 = time.time()
    nb = _default_nb(args)
    kind = _kind_from_args(args)
    value = replica.frame_potential_chain(
        args.setup, args.k, args.n, args.na, nb, args.d, args.chi, kind, method=args.method
    )
    shape = ReplicaShape(args.n, args.k)
    lead_log = theory.leading_order_log(
        shape, args.d, float(args.chi), args.na, nb, args.setup, kind
    )
    ratio_to_leading = value.sign * math.exp(value.log - lead_log)
    print(f"F({args.k},{args.n}) mantissa={value.mantissa!r} log_scale={value.log_scale!r}")
    print(f"value={value.value!r}")
    print(f"ratio_to_leading_order={ratio_to_leading!r}")
    if args.out:
        out = _OutputSet()
        args_dict = _public_args(args)
        rows = [(args.k, args.n, value.mantissa, value.log_scale, ratio_to_leading)]
        out.write_text(
            args.out,
            _csv_text("k,n,mantissa,log_scale,ratio_to_leading", rows, 0, _args_hash(args_dict)),
        )
        _manifest(out, args.out + ".manifest.json", args_dict, time.time() - t0)
    return 0


def _estimator_config(args, mode: str) -> estimator.EnsembleConfig:
    return estimator.EnsembleConfig(
        setup=args.setup,
        n_a=args.na,
        n_b=_default_nb(args),
        d=args.d,
        chi=args.chi,
        kind=_kind_from_args(args),
        k_max=args.k,
        pairs_per_state=args.pairs,
        realizations=args.realizations,
        seed=args.seed,
        sampling_mode=mode,
        pair_mode=args.pair_mode,
    )


def cmd_sample(args) -> int:
    t0 = time.time()
    mode = "forced" if args.forced else "born"
    config = _estimator_config(args, mode)
    fn = estimator.forced_moments if args.forced else estimator.sample_moments
    estimates = fn(config, threads=args.threads)
    for est in estimates:
        print(
            f"k={est.k} mean={est.mean!r} stderr={est.stderr!r} "
            f"ratio={est.ratio_to_haar!r} n={est.n_samples}"
        )
    if args.out:
        out = _OutputSet()
        try:
            estimator.write_moments_csv(args.out, config, estimates)
            out.written.append(args.out)
            mirror = args.out + ".json"
            estimator.write_json_mirror(
                mirror,
                config,
                {
                    "moments": [
                        {
                            "k": e.k,
                            "mean": e.mean,
                            "stderr": e.stderr,
                            "ratio_to_haar": e.ratio_to_haar,
                            "ratio_to_first": e.ratio_to_first,
                            "n_samples": e.n_samples,
                        }
                        for e in estimates
                    ]
                },
            )
            out.written.append(mirror)
            _manifest(out, args.out + ".manifest.json", _public_args(args), time.time() - t0)
        except Exception:
            out.cleanup()
            raise
    return 0


def cmd_histogram(args) -> int:
    t0 = time.time()
    config = _estimator_config(args, "born")
    table = estimator.overlap_histogram(config, args.bins, args.umax, threads=args.threads)
    print(f"bins={args.bins} in_range={table.n_in_range} total={table.n_total}")
    if args.out:
        out = _OutputSet()
        try:
            estimator.write_histogram_csv(args.out, config, table)
            out.written.append(args.out)
            mirror = args.out + ".json"
            estimator.write_json_mirror(
                mirror,
                config,
                {
                    "bins": args.bins,
                    "u_max": args.umax,
                    "bin_width": table.bin_width,
                    "n_in_range": table.n_in_range,
                    "n_total": table.n_total,
                },
            )
            out.written.append(mirror)
            _manifest(out, args.out + ".manifest.json", _public_args(args), time.time() - t0)
        except Exception:
            out.cleanup()
            raise
    return 0


def _oracle_realization(payload) -> list[float]:
    setup, na, nb, d, chi, kmax, seed, r = payload
    ens = mps.statevector_oracle(setup, na, nb, d, chi, HAAR, mps.stream(seed, r))
    vals = []
    for k in range(1, kmax + 1):
        vals.append(ens.frame_potential(k))
        vals.append(ens.generalized_frame_potential(k, 0))
    return vals


def cmd_oracle(args) -> int:
    t0 = time.time()
    nb = _default_nb(args)
    payloads = [
        (args.setup, args.na, nb, args.d, args.chi, args.k, args.seed, r)
        for r in range(args.realizations)
    ]
    if args.threads > 1:
        with ProcessPoolExecutor(max_workers=args.threads) as pool:
            per_real = np.array(list(pool.map(_oracle_realization, payloads, chunksize=64)))
    else:
        per_real = np.array([_oracle_realization(p) for p in payloads])
    mean, err = estimator.jackknife_mean(per_real)
    rows = []
    for i, k in enumerate(range(1, args.k + 1)):
        rows.append((k, 1 - k, float(mean[2 * i]), float(err[2 * i])))
        if k > 1:  # at k = 1 the physical and n = 0 potentials coincide
            rows.append((k, 0, float(mean[2 * i + 1]), float(err[2 * i + 1])))
    for k, n, mu, se in rows:
        print(f"k={k} n={n} mean={mu!r} stderr={se!r}")
    if args.out:
        out = _OutputSet()
        args_dict = _public_args(args)
        out.write_text(
            args.out,
            _csv_text("k,n,mean,stderr", rows, args.seed, _args_hash(args_dict)),
        )
        _manifest(out, args.out + ".manifest.json", args_dict, time.time() - t0)
    return 0


def _public_args(args) -> dict:
    # outputs and worker counts do not affect results, so they stay out of
    # the hashed configuration (the manifest records file names separately)
    skip = {"func", "config", "out", "threads"}
    return {k: v for k, v in sorted(vars(args).items()) if k not in skip}


def _add_common(p: argparse.ArgumentParser, glued_ok: bool = True) -> None:
    p.add_argument("--setup", choices=["staircase", "glued"], required=True)
    p.add_argument("--na", type=int, required=True, help="number of kept sites N_A")
    p.add_argument("--nb", type=int, default=None,
                   help="measured sites N_B (staircase; default floor(N_A^1.5))")
    p.add_argument("--d", type=int, default=2, help="local physical dimension")
    p.add_argument("--chi", type=int, required=True, help="bond dimension")
    p.add_argument("--kind", choices=["haar", "gaussian"], default="haar")
    p.add_argument("--variance", type=float, default=None,
                   help="gaussian entry variance (main gate family)")
    p.add_argument("--variance-b", dest="variance_b", type=float, default=None,
                   help="gaussian entry variance (glued glue gates)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmpslab",
        description="Projected ensembles of random MPS: predictions, exact "
        "replica contractions, and Born-rule sampling.",
    )
    parser.add_argument("--version", action="version", version=f"rmpslab {__version__}")
    parser.add_argument("--config", default=None,
                        help="key=value config file; command-line flags override")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="closed-form ratios and overlap densities")
    p.add_argument("--setup", choices=["staircase", "glued"], required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--k", type=int, default=3, help="emit k = 1..k")
    p.add_argument("--x", type=float, action="append", help="scaling variable (repeatable)")
    p.add_argument("--pdf", action="store_true", help="emit overlap density instead of ratios")
    p.add_argument("--u", type=float, default=None, help="evaluate the pdf at one point")
    p.add_argument("--umax", type=float, default=10.0)
    p.add_argument("--points", type=int, default=101)
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("contract", help="exact replica-chain frame potential")
    _add_common(p)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--method", choices=["auto", "dense", "free"], default="auto")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_contract)

    p = sub.add_parser("sample", help="Monte-Carlo moment estimation")
    _add_common(p)
    p.add_argument("--k", type=int, default=3, help="highest moment order")
    p.add_argument("--pairs", type=int, required=True)
    p.add_argument("--realizations", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--forced", action="store_true", help="uniform outcomes (n = 0 moments)")
    p.add_argument("--pair-mode", dest="pair_mode",
                   choices=["independent", "pooled"], default="independent")
    p.add_argument("--threads", type=int, default=os.cpu_count())
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("oracle", help="exhaustive dense-statevector frame potentials")
    _add_common(p)
    p.add_argument("--k", type=int, default=2, help="highest moment order")
    p.add_argument("--realizations", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--threads", type=int, default=os.cpu_count())
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("histogram", help="overlap distribution from Born sampling")
    _add_common(p)
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--bins", type=int, required=True)
    p.add_argument("--umax", type=float, required=True)
    p.add_argument("--pairs", type=int, default=200)
    p.add_argument("--realizations", type=int, default=50)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--pair-mode", dest="pair_mode",
                   choices=["independent", "pooled"], default="independent")
    p.add_argument("--threads", type=int, default=os.cpu_count())
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_histogram)
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # one parser per process: a parser is a web of reference cycles, so one
    # per main() call leaves ~500 objects per call to the cyclic collector,
    # and peak memory grows with the number of calls
    return build_parser()


def _apply_config_file(parser: argparse.ArgumentParser, argv: list[str]) -> list[str]:
    """Prepend config-file entries as defaults (flags still override)."""
    if "--config" not in argv:
        return argv
    idx = argv.index("--config")
    if idx + 1 == len(argv):
        raise ValueError("--config needs a file path")
    path = argv[idx + 1]
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        raise ValueError(f"cannot read config file {path!r}: {exc.strerror}") from exc
    injected = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = line.partition("=")
        injected += [f"--{key.strip().replace('_', '-')}", value.strip()]
    # insert right after the subcommand so explicit flags (later) win
    for i, tok in enumerate(argv):
        if tok in ("predict", "contract", "sample", "oracle", "histogram"):
            return argv[: i + 1] + injected + argv[i + 1 :]
    return argv + injected


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        argv = _apply_config_file(parser, argv)
        args = parser.parse_args(argv)
        return args.func(args)
    except (SizeLimitError, ShapeMismatchError, PreconditionError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
