"""Workload definitions: fixed rmpslab command lines, warm-up calls and output checks.

A workload's job is a list of ``rmpslab`` command lines run in order through
``rmpslab.cli.main``.  The runner appends ``--out <file>`` to each; sampling
and oracle commands carry ``--threads 1`` so one process does all the work.
The benchmark seed is the only source of randomness: it becomes the
``--seed`` of every sampling command, so the same seed gives the same inputs.

Checks compare a command's CSV against references recorded at the commit
that defined the benchmark (``reference.json``, written by
``record_reference.py``), never against the program under test.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

D = 2
STAIRCASE = ["--setup", "staircase", "--na", "6", "--nb", "14", "--d", str(D)]
D_A_STAIRCASE = D**6
D_A_GLUED = D**6
ORACLE_REALIZATIONS = 2000
ORACLE_SHAPES = {
    "staircase": ["--setup", "staircase", "--na", "2", "--nb", "2", "--d", str(D), "--chi", "2"],
    "glued": ["--setup", "glued", "--na", "2", "--d", str(D), "--chi", "2"],
}

# Monte-Carlo band of acceptance criteria 3 and 4: 3 stderr + 10 % of the target.
BAND_STDERR = 3.0
BAND_REL = 0.10
# staircase-states has 4 states with 20 draws each: the per-state mean of u
# spreads by 33 %, and with the stderr itself estimated from 4 states the
# criterion band fails on 2 % of seeds (gamma-distributed simulation, 10^6
# trials).  A 40 % allowance brings that to 1e-4; it still catches a sampler
# that is off by half.
BAND_REL_FEW_STATES = 0.40
# Oracle means are checked against the exact engine within this many stderr.
# Four, not three: each small-circuits job makes four such checks, and at
# three stderr one seed in a hundred would fail by chance.
ORACLE_STDERR = 4.0
CHAIN_REL_TOL = 1e-10


def key(argv: list[str]) -> str:
    """Reference key of a command line."""
    return " ".join(argv)


def read_csv(text: str) -> list[dict[str, float]]:
    """Rows of an rmpslab data CSV (comment line skipped) as column -> float."""
    lines = [ln for ln in text.splitlines() if ln and not ln.startswith("#")]
    header = lines[0].split(",")
    return [dict(zip(header, map(float, ln.split(",")))) for ln in lines[1:]]


def chain_log(row: dict[str, float]) -> float:
    return math.log(abs(row["mantissa"])) + row["log_scale"]


def chain_value(row: dict[str, float]) -> float:
    return row["mantissa"] * math.exp(row["log_scale"])


def _band(problems, what, measured, stderr, target, n_stderr, rel):
    limit = n_stderr * stderr + rel * abs(target)
    if not abs(measured - target) <= limit:
        problems.append(f"{what}: {measured!r} vs {target!r} (|dev| > {limit!r})")


def _check_born(rows, refs, d_a, engine_cmd, closed_cmd, rel=BAND_REL) -> list[str]:
    """k = 1 against the engine (E[u] = D_A F^(1,0)) and, for the staircase,
    the closed form; k >= 2 by the power-mean inequality E[u^k] >= E[u]^k.

    The k >= 2 closed-form band is not applied: at N_A = 6 the staircase k = 2
    ratio sits 11 % below the closed form, so the band fails on several
    seeds in a hundred whatever the realization count.
    """
    problems = []
    by_k = {int(r["k"]): r for r in rows}
    first = by_k[1]
    for r in rows:
        if not all(math.isfinite(v) for v in r.values()) or r["stderr"] <= 0:
            problems.append(f"k={int(r['k'])}: non-finite value or zero stderr {r}")
    engine = d_a * chain_value(refs[key(engine_cmd)][0])
    _band(problems, "mean u vs D_A F^(1,0)", first["mean"], first["stderr"], engine,
          BAND_STDERR, rel)
    if closed_cmd is not None:
        target = refs[key(closed_cmd)][0]["ratio"]
        _band(problems, "k=1 ratio vs closed form", first["ratio"], first["stderr"], target,
              BAND_STDERR, rel)
    for k, r in by_k.items():
        if k > 1 and not r["mean"] >= first["mean"] ** k * (1 - 1e-12):
            problems.append(f"k={k}: mean {r['mean']!r} below mean_1^k")
    return problems


def _check_oracle(rows, refs, setup) -> list[str]:
    """n = 0 means against the exact chain; physical (n = 1 - k) rows positive."""
    problems = []
    for r in rows:
        k, n = int(r["k"]), int(r["n"])
        if not (math.isfinite(r["mean"]) and r["mean"] > 0 and r["stderr"] > 0):
            problems.append(f"oracle k={k} n={n}: bad row {r}")
        elif n == 0:
            exact = chain_value(refs[key(_oracle_engine(setup, k))][0])
            _band(problems, f"oracle k={k} n=0 vs engine", r["mean"], r["stderr"], exact,
                  ORACLE_STDERR, 0.0)
    return problems


def _check_chain(rows, refs, argv) -> list[str]:
    got, want = chain_log(rows[0]), chain_log(refs[key(argv)][0])
    if not abs(got - want) <= CHAIN_REL_TOL * max(1.0, abs(want)):
        return [f"log F = {got!r}, recorded {want!r}"]
    return []


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[[list[dict[str, float]], dict], list[str]]


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is stated in BENCHMARK.json and README.md."""

    name: str
    commands: Callable[[int], list[Command]]
    warmup: list[list[str]]


def _oracle_engine(setup: str, k: int) -> list[str]:
    return ["contract", *ORACLE_SHAPES[setup], "--k", str(k), "--n", "0"]


def _staircase_engine(chi: int) -> list[str]:
    return ["contract", *STAIRCASE, "--chi", str(chi), "--k", "1", "--n", "0"]


def _staircase_closed(chi: int) -> list[str]:
    x = D_A_STAIRCASE / chi * (D - 1) / D  # Haar staircase scaling variable
    return ["predict", "--setup", "staircase", "--d", str(D), "--k", "1", "--x", repr(x)]


GLUED_ENGINE = ["contract", "--setup", "glued", "--na", "6", "--d", str(D), "--chi", "3",
                "--k", "1", "--n", "0"]


def _staircase_sample(chi, k, pairs, realizations, seed, rel=BAND_REL) -> Command:
    argv = ["sample", *STAIRCASE, "--chi", str(chi), "--k", str(k), "--pairs", str(pairs),
            "--realizations", str(realizations), "--seed", str(seed), "--threads", "1"]
    engine, closed = _staircase_engine(chi), _staircase_closed(chi)
    return Command(
        argv, lambda rows, refs: _check_born(rows, refs, D_A_STAIRCASE, engine, closed, rel)
    )


def _glued_sample(seed: int) -> Command:
    argv = ["sample", "--setup", "glued", "--na", "6", "--d", str(D), "--chi", "3", "--k", "2",
            "--pairs", "200", "--realizations", "10", "--seed", str(seed), "--threads", "1"]
    return Command(argv, lambda rows, refs: _check_born(rows, refs, D_A_GLUED, GLUED_ENGINE, None))


def _oracle(setup: str, seed: int) -> Command:
    argv = ["oracle", *ORACLE_SHAPES[setup], "--k", "2", "--realizations",
            str(ORACLE_REALIZATIONS), "--seed", str(seed), "--threads", "1"]
    return Command(argv, lambda rows, refs: _check_oracle(rows, refs, setup))


def _contract(argv: list[str]) -> Command:
    return Command(argv, lambda rows, refs: _check_chain(rows, refs, argv))


def _chains_m6() -> list[list[str]]:
    out = []
    # acceptance criterion 5: glued, x = N_A / chi^2 near 0.05
    for n_a in (16, 25, 36, 49, 64, 81, 100):
        chi = math.isqrt(int(n_a / 0.05))
        for k in (1, 2):
            out.append(["contract", "--setup", "glued", "--na", str(n_a), "--d", str(D),
                        "--chi", str(chi), "--k", str(k), "--n", "0"])
    for k, n in ((3, 0), (2, 1), (1, 2)):
        for chi in (16, 32, 64):
            out.append(["contract", *STAIRCASE, "--chi", str(chi), "--k", str(k), "--n", str(n)])
    out.append(["contract", "--setup", "glued", "--na", "20", "--d", str(D), "--chi", "10",
                "--k", "3", "--n", "0"])
    return out


CHAINS_M8 = [["contract", "--setup", "staircase", "--na", "1", "--nb", "2", "--d", str(D),
              "--chi", "4", "--k", "4", "--n", "0"]]


def _shrunk(argv: list[str]) -> list[str]:
    """The same chain at N_A = 1 (and N_B = 2): it fills the same (m, q) caches."""
    out = list(argv)
    out[out.index("--na") + 1] = "1"
    if "--nb" in out:
        out[out.index("--nb") + 1] = "2"
    return out


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "staircase-draws",
            lambda seed: [_staircase_sample(32, 2, 1000, 4, seed)],
            [["sample", *STAIRCASE, "--chi", "32", "--k", "2", "--pairs", "1",
              "--realizations", "2", "--seed", "0", "--threads", "1"]],
        ),
        Workload(
            "staircase-states",
            lambda seed: [_staircase_sample(256, 3, 10, 4, seed, BAND_REL_FEW_STATES)],
            [["sample", "--setup", "staircase", "--na", "1", "--nb", "2", "--d", str(D),
              "--chi", "256", "--k", "3", "--pairs", "1", "--realizations", "2", "--seed", "0",
              "--threads", "1"]],
        ),
        Workload(
            "small-circuits",
            lambda seed: [
                _glued_sample(seed),
                _oracle("staircase", seed),
                _oracle("glued", seed),
            ],
            [["sample", "--setup", "glued", "--na", "1", "--d", str(D), "--chi", "3", "--k", "2",
              "--pairs", "1", "--realizations", "2", "--seed", "0", "--threads", "1"]]
            + [["oracle", *ORACLE_SHAPES[s], "--k", "2", "--realizations", "2", "--seed", "0",
                "--threads", "1"] for s in ORACLE_SHAPES],
        ),
        Workload(
            "chains-m6",
            lambda seed: [_contract(a) for a in _chains_m6()],
            [_shrunk(a) for a in _chains_m6()],
        ),
        Workload(
            "chains-m8",
            lambda seed: [_contract(a) for a in CHAINS_M8],
            [["contract", "--setup", "staircase", "--na", "1", "--nb", "1", "--d", str(D),
              "--chi", "4", "--k", "4", "--n", "0"]],
        ),
    )
}


def reference_commands() -> list[list[str]]:
    """Every command whose output a check reads from reference.json."""
    cmds = _chains_m6() + CHAINS_M8
    for chi in (32, 256):
        cmds += [_staircase_engine(chi), _staircase_closed(chi)]
    cmds.append(GLUED_ENGINE)
    for setup in ORACLE_SHAPES:
        cmds += [_oracle_engine(setup, k) for k in (1, 2)]
    return cmds
