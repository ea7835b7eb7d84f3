"""Command-line driver for reproducible experiments.

Subcommands cover the three computational routes: ``predict`` (closed
forms), ``contract`` (exact replica chains), ``sample``/``histogram``
(Monte-Carlo over sampled states) plus ``oracle`` (exhaustive dense
enumeration at tiny sizes).

Every output file goes through ``write_outputs``: a CSV (one leading
``# schema=N seed=... config=...`` comment line, then a header row), for
``sample`` and ``histogram`` a JSON mirror holding the full resolved
configuration, and a ``*.manifest.json`` recording tool version, wall time
and the emitted files.  N comes from the per-subcommand ``SCHEMA`` table.
Sample and histogram files hash the resolved ``EnsembleConfig``; the others
hash the parsed flags.  Data files are byte-identical for fixed flags and
seed.  Each file is written to ``.tmp`` and renamed into place, and a failed
write removes whatever the run already wrote.

Every subcommand but ``predict`` builds one ``mps.Circuit`` from its flags
(``_circuit_fields``); sample and histogram extend it to an
``EnsembleConfig``.  Flags override an optional plain-text key=value config
file (--config).
Integer flags below their floor (``FLOORS``), circuit flags the run would
ignore (``_check_applicable``) and an ``--out`` in a directory that does not
exist (``_check_out``) are errors, reported before any work starts.
Bad input (usage errors too), failed writes and a run out of memory exit 1
with one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from dataclasses import asdict

import numpy as np

from . import __version__, estimator, mps, replica, theory
from .errors import PreconditionError, ShapeMismatchError, SizeLimitError
from .permutations import ReplicaShape
from .weingarten import HAAR, gaussian

# version of each subcommand's CSV and JSON mirror format: bump a subcommand's
# number whenever its data bytes change, and say why in CHANGES.md
SCHEMA = {"predict": 1, "contract": 5, "oracle": 7, "sample": 13, "histogram": 12}

# smallest accepted value of each integer flag, whichever subcommand has it
FLOORS = {
    "na": 1,
    "nb": 1,
    "d": 2,
    "chi": 1,
    "k": 1,
    "n": 0,
    "pairs": 1,
    "points": 1,
    "realizations": 2,
    "seed": 0,
    "threads": 1,
}


def _check_floors(args) -> None:
    for name, floor in FLOORS.items():
        value = getattr(args, name, None)
        if value is not None and value < floor:
            raise ValueError(f"--{name} must be >= {floor}, got {value}")


def _check_applicable(args) -> None:
    """Reject circuit flags the run would ignore: they would change only the
    file's config= hash, not its numbers."""
    if not hasattr(args, "kind"):
        return  # predict has no circuit
    if args.setup == "glued" and args.nb is not None:
        raise ValueError("--nb applies to --setup staircase only (glued N_B is N_A + 1)")
    if args.kind == "haar":
        for name in ("variance", "variance_b"):
            if getattr(args, name) is not None:
                raise ValueError(f"--{name.replace('_', '-')} applies to --kind gaussian only")
    elif args.command == "oracle":
        raise ValueError("oracle draws haar gates only; --kind gaussian does not apply")
    if args.setup == "staircase" and args.variance_b is not None:
        raise ValueError("--variance-b applies to --setup glued only (the glue gates)")


def _check_out(args) -> None:
    """Reject an --out whose directory does not exist before any work starts."""
    out = getattr(args, "out", None)
    if out and not os.path.isdir(os.path.dirname(out) or "."):
        raise ValueError(f"cannot write {out!r}: its directory does not exist")


def _circuit_fields(args) -> dict:
    """The ``mps.Circuit`` keywords of a run's flags; staircase N_B defaults
    to floor(N_A^1.5)."""
    n_b = args.nb
    if n_b is None and args.setup == "staircase":
        n_b = int(math.floor(args.na**1.5))
    kind = HAAR if args.kind == "haar" else gaussian(args.variance, args.variance_b)
    return dict(setup=args.setup, n_a=args.na, d=args.d, chi=args.chi, n_b=n_b, kind=kind)


def config_dict(config: estimator.EnsembleConfig) -> dict:
    """The resolved sampling configuration that sample and histogram files hash."""
    return asdict(config)


def _hash(doc: dict) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()[:16]


def _json_text(doc: dict) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def write_outputs(args, t0: float, header: str, rows, seed: int, hashed: dict,
                  mirror: dict | None = None) -> None:
    """Write ``args.out`` (CSV), its JSON mirror when given, then the manifest.

    The CSV header and the mirror carry ``SCHEMA[args.command]``, ``seed`` and
    the hash of ``hashed``; the mirror holds ``hashed`` in full plus the
    ``mirror`` payload.  Each file goes through ``<path>.tmp`` and
    ``os.replace``.  If any step fails, every file already written and the
    pending ``.tmp`` are removed before the error propagates; an ``OSError``
    is raised again naming the file that failed.
    """
    if not args.out:
        return
    schema, cfg_hash = SCHEMA[args.command], _hash(hashed)
    lines = [f"# schema={schema} seed={seed} config={cfg_hash}", header]
    lines += [
        ",".join(repr(float(v)) if isinstance(v, (float, np.floating)) else str(v) for v in row)
        for row in rows
    ]
    files = {args.out: "\n".join(lines) + "\n"}
    if mirror is not None:
        doc = {"schema": schema, "config": hashed, "config_hash": cfg_hash, **mirror}
        files[args.out + ".json"] = _json_text(doc)
    public = _public_args(args)
    manifest = {
        "schema": 1,
        "tool_version": __version__,
        "config": public,
        "config_hash": _hash(public),
        "wall_time_seconds": time.time() - t0,
        "outputs": list(files),
    }
    files[args.out + ".manifest.json"] = _json_text(manifest)
    written: list[str] = []
    try:
        for path, text in files.items():
            with open(path + ".tmp", "w", encoding="utf-8") as fh:
                fh.write(text)
            os.replace(path + ".tmp", path)
            written.append(path)
    except BaseException as exc:
        for stale in [*written, path + ".tmp"]:
            with contextlib.suppress(OSError):
                os.remove(stale)
        if isinstance(exc, OSError):
            # name the file being written, not its temporary
            raise OSError(exc.errno, exc.strerror, path) from exc
        raise


def cmd_predict(args) -> int:
    t0 = time.time()
    xs = args.x if args.x else [0.0]
    rows = []
    if args.pdf:
        pdf = theory.setup1_pdf if args.setup == "staircase" else theory.setup2_pdf
        if args.u is not None:
            us = [args.u]
        else:
            if not 0.0 <= args.umax < math.inf:
                raise ValueError(f"need a finite u_max (--umax) >= 0, got {args.umax}")
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
    write_outputs(args, t0, header, rows, 0, _public_args(args))
    return 0


def cmd_contract(args) -> int:
    t0 = time.time()
    circuit = mps.Circuit(**_circuit_fields(args))
    value = replica.frame_potential_chain(circuit, args.k, args.n)
    shape = ReplicaShape(args.n, args.k)
    lead_log = theory.leading_order_log(
        shape, args.d, float(args.chi), args.na, circuit.n_b, args.setup, circuit.kind
    )
    ratio_to_leading = replica.ChainValue(value.sign, value.log - lead_log).value
    print(f"F({args.k},{args.n}) mantissa={value.mantissa!r} log_scale={value.log_scale!r}")
    print(f"value={value.value!r}")
    print(f"ratio_to_leading_order={ratio_to_leading!r}")
    rows = [(args.k, args.n, value.mantissa, value.log_scale, ratio_to_leading)]
    write_outputs(args, t0, "k,n,mantissa,log_scale,ratio_to_leading", rows, 0, _public_args(args))
    return 0


def _estimator_config(args, k_max: int, mode: str) -> estimator.EnsembleConfig:
    return estimator.EnsembleConfig(
        **_circuit_fields(args),
        k_max=k_max,
        pairs_per_state=args.pairs,
        realizations=args.realizations,
        seed=args.seed,
        sampling_mode=mode,
        pair_mode=args.pair_mode,
    )


def cmd_sample(args) -> int:
    t0 = time.time()
    config = _estimator_config(args, args.k, "forced" if args.forced else "born")
    estimates = estimator.sample_moments(config, threads=args.threads)
    for est in estimates:
        print(
            f"k={est.k} mean={est.mean!r} stderr={est.stderr!r} "
            f"ratio={est.ratio_to_haar!r} n={est.n_samples}"
        )
    rows = [(e.k, e.mean, e.stderr, e.ratio_to_haar, e.n_samples) for e in estimates]
    moments = [
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
    write_outputs(args, t0, "k,mean,stderr,ratio,n_samples", rows, config.seed,
                  config_dict(config), {"moments": moments})
    return 0


def cmd_histogram(args) -> int:
    t0 = time.time()
    # a histogram has no moment order; k_max is only part of its config
    config = _estimator_config(args, 1, "born")
    table = estimator.overlap_histogram(config, args.bins, args.umax, threads=args.threads)
    print(f"bins={args.bins} in_range={table.n_in_range} total={table.n_total}")
    rows = zip(table.bin_centers, table.density, table.error)
    summary = {
        "bins": args.bins,
        "u_max": args.umax,
        "bin_width": table.bin_width,
        "n_in_range": table.n_in_range,
        "n_total": table.n_total,
    }
    write_outputs(args, t0, "bin_center,density,error", rows, config.seed,
                  config_dict(config), summary)
    return 0


def _oracle_chunk(job: tuple, c: int) -> np.ndarray:
    """Frame potentials of chunk c: realizations c MAX_CHUNK_DRAWS onwards, up
    to MAX_CHUNK_DRAWS of them, so the chunks do not depend on --threads."""
    circuit, seed, realizations, pairs = job
    lo = c * mps.MAX_CHUNK_DRAWS
    reals = range(lo, min(realizations, lo + mps.MAX_CHUNK_DRAWS))
    return mps.oracle_frame_potentials(circuit, seed, reals, pairs)


def cmd_oracle(args) -> int:
    t0 = time.time()
    pairs = []
    for k in range(1, args.k + 1):
        pairs.append((k, 1 - k))
        if k > 1:  # at k = 1 the physical and n = 0 potentials coincide
            pairs.append((k, 0))
    job = (mps.Circuit(**_circuit_fields(args)), args.seed, args.realizations, pairs)
    chunks = math.ceil(args.realizations / mps.MAX_CHUNK_DRAWS)
    per_real = np.concatenate(
        estimator.per_realization(_oracle_chunk, job, chunks, args.threads)
    )
    mean, err = estimator.jackknife_mean(per_real)
    rows = [(k, n, float(mu), float(se)) for (k, n), mu, se in zip(pairs, mean, err)]
    for k, n, mu, se in rows:
        print(f"k={k} n={n} mean={mu!r} stderr={se!r}")
    write_outputs(args, t0, "k,n,mean,stderr", rows, args.seed, _public_args(args))
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


class _Parser(argparse.ArgumentParser):
    """Usage errors raise ValueError; subcommand parsers take this class too."""

    def error(self, message):
        raise ValueError(f"{message} (see {self.prog} --help)")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
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


def _apply_config_file(argv: list[str]) -> list[str]:
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
    (commands,) = [a.choices for a in _parser()._actions if a.dest == "command"]
    # the store_true flags: a key naming one takes true (the bare flag) or false
    switches = {f for sub in commands.values() for a in sub._actions
                if a.nargs == 0 and a.const is True for f in a.option_strings}
    injected = []
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        key, _, value = (part.strip() for part in line.partition("="))
        flag = f"--{key.replace('_', '-')}"
        if flag not in switches:
            injected += [flag, value]
        elif value.lower() in ("true", "false"):
            injected += [flag] * (value.lower() == "true")
        else:
            raise ValueError(f"config key {key!r} takes true or false, got {value!r}")
    # insert right after the subcommand so explicit flags (later) win
    for i, tok in enumerate(argv):
        if tok in commands:
            return argv[: i + 1] + injected + argv[i + 1 :]
    return argv + injected


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _parser()
    try:
        argv = _apply_config_file(argv)
        args = parser.parse_args(argv)
        _check_floors(args)
        _check_applicable(args)
        _check_out(args)
        return args.func(args)
    except (SizeLimitError, ShapeMismatchError, PreconditionError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except MemoryError as exc:
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory",
              file=sys.stderr)
        return 1


if __name__ == "__main__":
    raise SystemExit(main())
