"""CLI tests: documented invocations, determinism, manifest plumbing, errors."""

import contextlib
import io
import json
import math
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rmpslab import cli, estimator


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_predict_staircase_ratio(capsys):
    code, out, _ = run_cli(capsys, "predict", "--setup", "staircase", "--d", "2",
                           "--k", "2", "--x", "1")
    assert code == 0
    lines = out.strip().split("\n")
    assert any("k=2" in ln for ln in lines)
    val = float(lines[-1].split("ratio=")[1])
    assert val == pytest.approx(18.0, rel=1e-10)


def test_predict_glued_trivial(capsys):
    code, out, _ = run_cli(capsys, "predict", "--setup", "glued", "--d", "2",
                           "--k", "1", "--x", "0")
    assert code == 0
    assert float(out.strip().split("ratio=")[1]) == pytest.approx(1.0)


def test_predict_pdf_porter_thomas(capsys):
    code, out, _ = run_cli(capsys, "predict", "--pdf", "--setup", "staircase",
                           "--x", "0", "--d", "2", "--u", "1")
    assert code == 0
    assert float(out.strip().split("density=")[1]) == pytest.approx(math.exp(-1), rel=1e-12)


def test_contract_output_and_determinism(tmp_path, capsys):
    args = ["contract", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
            "--chi", "2", "--k", "1", "--n", "0"]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    code, stdout_a, _ = run_cli(capsys, *args, "--out", str(out_a))
    assert code == 0
    assert "mantissa" in stdout_a
    code, stdout_b, _ = run_cli(capsys, *args, "--out", str(out_b))
    assert code == 0
    assert stdout_a == stdout_b
    assert out_a.read_bytes() == out_b.read_bytes()
    value = float(stdout_a.split("value=")[1].split("\n")[0])
    assert value == pytest.approx(0.72, rel=1e-10)


# one small invocation per subcommand, with the schema and seed its files carry
SCHEMA_CASES = {
    "predict": (1, 0, ["predict", "--setup", "glued", "--pdf", "--x", "0.2", "--points", "5"]),
    "contract": (2, 0, ["contract", "--setup", "glued", "--na", "3", "--d", "2", "--chi", "3",
                        "--k", "2", "--n", "1"]),
    "oracle": (6, 3, ["oracle", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
                      "--chi", "2", "--realizations", "20", "--seed", "3", "--threads", "1"]),
    "sample": (9, 5, ["sample", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
                      "--chi", "2", "--k", "2", "--pairs", "4", "--realizations", "4",
                      "--seed", "5", "--threads", "1"]),
    "histogram": (8, 2, ["histogram", "--setup", "staircase", "--na", "2", "--nb", "2",
                         "--d", "2", "--chi", "4", "--bins", "4", "--umax", "4", "--pairs", "4",
                         "--realizations", "4", "--seed", "2", "--threads", "1"]),
}


@pytest.mark.parametrize("command", sorted(SCHEMA_CASES))
def test_output_is_schema_tagged_and_byte_stable(command, tmp_path, capsys):
    schema, seed, args = SCHEMA_CASES[command]
    out_a = tmp_path / "a.csv"
    out_b = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(out_a))[0] == 0
    # the second run spreads the realizations over two worker processes
    args_b = [*args[:-1], "2"] if "--threads" in args else args
    assert run_cli(capsys, *args_b, "--out", str(out_b))[0] == 0
    assert out_a.read_bytes() == out_b.read_bytes()
    assert out_a.read_text().startswith(f"# schema={schema} seed={seed} config=")
    mirror_a, mirror_b = tmp_path / "a.csv.json", tmp_path / "b.csv.json"
    assert mirror_a.exists() == (command in ("sample", "histogram"))
    if mirror_a.exists():
        assert mirror_a.read_bytes() == mirror_b.read_bytes()
        assert json.loads(mirror_a.read_text())["schema"] == schema
    # the dense and Cayley-walk contraction oracles are not reachable from the
    # command line
    with pytest.raises(SystemExit):
        cli.main([*args, "--method", "dense"])


def test_csv_and_json_outputs(tmp_path, capsys):
    out = tmp_path / "m.csv"
    code, _, _ = run_cli(
        capsys, "sample", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
        "--chi", "2", "--k", "2", "--pairs", "5", "--realizations", "10",
        "--seed", "11", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    assert lines[0].startswith("# schema=9 seed=11 config=")
    assert lines[1] == "k,mean,stderr,ratio,n_samples"
    assert len(lines) == 2 + 2
    doc = json.loads((tmp_path / "m.csv.json").read_text())
    assert doc["schema"] == 9
    assert doc["config"]["seed"] == 11
    assert doc["config"]["kind"]["kind"] == "haar"
    assert lines[0].endswith(f"config={doc['config_hash']}")


def test_numpy_sized_config_hashes_as_int():
    # numpy integer sizes, counts and seed are stored as Python ints, so the
    # config serializes and hashes exactly as the int-sized one does
    sizes = dict(n_a=2, n_b=2, d=2, chi=2, k_max=2, pairs_per_state=4, realizations=4, seed=5)
    for setup in ("staircase", "glued"):
        fields = sizes if setup == "staircase" else {**sizes, "n_b": None}
        plain = estimator.EnsembleConfig(setup=setup, **fields)
        numpy_sized = estimator.EnsembleConfig(
            setup=setup, **{k: v if v is None else np.int64(v) for k, v in fields.items()}
        )
        assert cli.config_dict(numpy_sized) == cli.config_dict(plain)
        assert cli._hash(cli.config_dict(numpy_sized)) == cli._hash(cli.config_dict(plain))
    with pytest.raises(ValueError, match="must be an integer"):
        estimator.EnsembleConfig(setup="staircase", **{**sizes, "pairs_per_state": 2.5})


def test_sample_emits_rows_and_mirror(tmp_path, capsys):
    out = tmp_path / "mom.csv"
    code, stdout, _ = run_cli(
        capsys, "sample", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
        "--chi", "2", "--k", "3", "--pairs", "5", "--realizations", "10",
        "--seed", "7", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    assert stdout.count("k=") == 3
    lines = out.read_text().strip().split("\n")
    assert lines[1] == "k,mean,stderr,ratio,n_samples"
    assert len(lines) == 5
    mirror = json.loads((tmp_path / "mom.csv.json").read_text())
    assert mirror["config"]["seed"] == 7
    assert len(mirror["moments"]) == 3
    manifest = json.loads((tmp_path / "mom.csv.manifest.json").read_text())
    assert manifest["schema"] == 1
    assert str(out) in manifest["outputs"]
    assert "wall_time_seconds" in manifest


def test_sample_byte_determinism(tmp_path, capsys):
    args = ["sample", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
            "--chi", "2", "--k", "2", "--pairs", "4", "--realizations", "8",
            "--seed", "3", "--threads", "1"]
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    assert run_cli(capsys, *args, "--out", str(a))[0] == 0
    assert run_cli(capsys, *args, "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.json").read_bytes() == (tmp_path / "b.csv.json").read_bytes()


def test_oracle_rows(tmp_path, capsys):
    out = tmp_path / "orc.csv"
    code, stdout, _ = run_cli(
        capsys, "oracle", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
        "--chi", "2", "--k", "2", "--realizations", "200", "--seed", "3",
        "--threads", "1", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")
    # evaluating the realizations in stacks moved the oracle's last digits
    assert lines[0].startswith("# schema=6 seed=3 config=")
    assert lines[1] == "k,n,mean,stderr"
    assert len(lines) == 2 + 3  # (1,0), (2,-1), (2,0)
    k1 = float(lines[2].split(",")[2])
    assert 0.5 < k1 < 0.9  # purity of the tiny staircase instance


@pytest.mark.parametrize("setup", ["staircase", "glued"])
def test_oracle_chunks_do_not_depend_on_threads(setup, tmp_path, capsys):
    # 150 realizations make three chunks of MAX_CHUNK_DRAWS; two workers split
    # them between processes and must write the same bytes as one
    shape = ["--nb", "2"] if setup == "staircase" else []
    args = ["oracle", "--setup", setup, "--na", "2", *shape, "--d", "2", "--chi", "2",
            "--k", "3", "--realizations", "150", "--seed", "8"]
    outs = []
    for threads in ("1", "2"):
        out = tmp_path / f"{threads}.csv"
        assert run_cli(capsys, *args, "--threads", threads, "--out", str(out))[0] == 0
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    assert len(outs[0].decode().strip().split("\n")) == 2 + 5  # (1,0), (k,1-k), (k,0)


def test_histogram_mass(tmp_path, capsys):
    out = tmp_path / "hist.csv"
    code, _, _ = run_cli(
        capsys, "histogram", "--setup", "staircase", "--na", "2", "--nb", "3", "--d", "2",
        "--chi", "16", "--bins", "12", "--umax", "8", "--pairs", "40",
        "--realizations", "10", "--seed", "1", "--threads", "1", "--out", str(out),
    )
    assert code == 0
    lines = out.read_text().strip().split("\n")[2:]
    centers = [float(ln.split(",")[0]) for ln in lines]
    dens = [float(ln.split(",")[1]) for ln in lines]
    width = centers[1] - centers[0]
    assert sum(d * width for d in dens) == pytest.approx(1.0, abs=1e-12)
    assert len(lines) == 12


def test_histogram_default_nb(capsys):
    # staircase N_B defaults to floor(N_A^1.5)
    code, out, _ = run_cli(
        capsys, "histogram", "--setup", "staircase", "--na", "2", "--d", "2",
        "--chi", "8", "--bins", "4", "--umax", "6", "--pairs", "10",
        "--realizations", "4", "--seed", "2", "--threads", "1",
    )
    assert code == 0


def test_histogram_has_no_moment_order(tmp_path, capsys):
    # a histogram has no k; the flag is refused instead of being hashed
    out = tmp_path / "hist.csv"
    with pytest.raises(SystemExit) as exc:
        cli.main(["histogram", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
                  "--chi", "4", "--bins", "4", "--umax", "4", "--pairs", "4",
                  "--realizations", "4", "--seed", "2", "--threads", "1", "--k", "3",
                  "--out", str(out)])
    assert exc.value.code != 0
    assert not list(tmp_path.iterdir())


def test_usage_error_exit_code(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["sample", "--setup", "staircase"])
    assert exc.value.code != 0


def test_size_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "contract", "--setup", "staircase", "--na", "2",
                           "--nb", "2", "--d", "2", "--chi", "2", "--k", "4", "--n", "1")
    assert code == 1
    assert "exceeds cap" in err


def test_config_file_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("setup=staircase\nd=2\nk=2\nx=1\n")
    code, out, _ = run_cli(capsys, "--config", str(cfg), "predict")
    assert code == 0
    assert "ratio=17.99" in out or "ratio=18.0" in out
    # explicit flag overrides the file value
    code, out, _ = run_cli(capsys, "--config", str(cfg), "predict", "--x", "0")
    assert code == 0
    assert float(out.strip().split("\n")[-1].split("ratio=")[1]) == pytest.approx(1.0)


def test_failed_run_leaves_no_partial_files(tmp_path, capsys):
    out = tmp_path / "never.csv"
    code, _, err = run_cli(
        capsys, "contract", "--setup", "staircase", "--na", "2", "--nb", "2",
        "--d", "2", "--chi", "2", "--k", "4", "--n", "1", "--out", str(out),
    )
    assert code == 1
    assert not os.path.exists(out)


WRITE_FAILURE_ARGS = {
    "contract": ["contract", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
                 "--chi", "2", "--k", "1", "--n", "0"],
    "sample": ["sample", "--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2",
               "--chi", "2", "--k", "2", "--pairs", "2", "--realizations", "2",
               "--seed", "0", "--threads", "1"],
}


@pytest.mark.parametrize(
    "command, blocked",
    [("contract", None), ("contract", ".manifest.json"),
     ("sample", None), ("sample", ".json"), ("sample", ".manifest.json")],
)
def test_failed_write_is_an_error_and_leaves_no_file(command, blocked, tmp_path, capsys):
    # blocked: a directory sits where the mirror or manifest should go;
    # None: the output's directory does not exist
    if blocked is None:
        out = tmp_path / "missing" / "x.csv"
    else:
        out = tmp_path / "x.csv"
        (tmp_path / ("x.csv" + blocked)).mkdir()
    code, _, err = run_cli(capsys, *WRITE_FAILURE_ARGS[command], "--out", str(out))
    assert code == 1
    assert "error:" in err
    assert "Traceback" not in err
    # the message names the file that failed, never its temporary
    assert repr(str(out) + (blocked or "")) in err
    assert ".tmp" not in err
    assert not list(tmp_path.rglob("*.csv")) and not list(tmp_path.rglob("*.tmp"))


def test_contract_bad_chi_is_an_error_not_a_traceback(capsys):
    code, _, err = run_cli(capsys, "contract", "--setup", "staircase", "--na", "2", "--nb", "2",
                           "--d", "2", "--chi", "0", "--k", "1", "--n", "0")
    assert code == 1
    assert "error:" in err and "chi" in err
    assert "Traceback" not in err


GLUED = ["--setup", "glued", "--na", "2", "--d", "2", "--chi", "2"]
STAIRCASE = ["--setup", "staircase", "--na", "2", "--nb", "2", "--d", "2", "--chi", "2"]
ORACLE = ["oracle", "--realizations", "2", "--threads", "1"]


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["contract", *GLUED, "--k", "1", "--n", "0", "--nb", "99"], "--nb"),
        (["sample", *GLUED, "--pairs", "1", "--realizations", "2", "--seed", "0", "--nb", "3"],
         "--nb"),
        (["contract", *STAIRCASE, "--k", "1", "--n", "0", "--variance", "0.5"], "--variance"),
        (["contract", *GLUED, "--k", "1", "--n", "0", "--variance-b", "0.5"], "--variance-b"),
        (["contract", *STAIRCASE, "--k", "1", "--n", "0", "--kind", "gaussian",
          "--variance-b", "0.5"], "--variance-b"),
        ([*ORACLE, *STAIRCASE, "--kind", "gaussian"], "--kind"),
        ([*ORACLE, *GLUED, "--kind", "gaussian"], "--kind"),
    ],
)
def test_inapplicable_flag_is_an_error(argv, flag, tmp_path, capsys):
    # a flag the run would ignore changes only the config= hash, so it is
    # refused before any work, on the command line and from a config file
    out = tmp_path / "x.csv"
    code, _, err = run_cli(capsys, *argv, "--out", str(out))
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and flag in lines[0]
    assert not list(tmp_path.iterdir())
    i = argv.index(flag)
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"{flag.lstrip('-')}={argv[i + 1]}\n")
    rest = argv[:i] + argv[i + 2:]
    code, _, err = run_cli(capsys, "--config", str(cfg), *rest)
    assert code == 1
    assert err.startswith("error:") and flag in err
    # without the flag the same run is accepted
    assert run_cli(capsys, *rest)[0] == 0


def test_config_without_path_is_an_error_not_a_traceback(tmp_path, capsys):
    code, _, err = run_cli(capsys, "predict", "--setup", "staircase", "--config")
    assert code == 1
    assert "error:" in err and "--config" in err
    assert "Traceback" not in err
    missing = tmp_path / "missing.cfg"
    code, _, err = run_cli(capsys, "--config", str(missing), "predict", "--setup", "staircase")
    assert code == 1
    assert "error:" in err and "missing.cfg" in err


SAMPLE = ["sample", *STAIRCASE, "--pairs", "4", "--realizations", "2", "--seed", "0",
          "--threads", "1"]
HISTOGRAM = ["histogram", *STAIRCASE, "--bins", "4", "--umax", "4", "--pairs", "4",
             "--realizations", "2", "--seed", "0", "--threads", "1"]


def with_flag(argv, flag, value):
    out = list(argv)
    out[out.index(flag) + 1] = value
    return out


def assert_refused_before_building(argv, word, tmp_path, capsys, monkeypatch):
    """The run exits 1 with one error: line naming word, writes no file and
    builds no state: the refusal comes before any sampling."""

    def never(*args):
        raise AssertionError("a state was built before the refusal")

    monkeypatch.setattr(estimator.mps, "build", never)
    code, _, err = run_cli(capsys, *argv, "--out", str(tmp_path / "x.csv"))
    assert code == 1
    lines = err.strip().splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:") and word in lines[0]
    assert not list(tmp_path.iterdir())


@pytest.mark.parametrize("argv", [SAMPLE, HISTOGRAM], ids=["sample", "histogram"])
def test_pooled_pairs_need_two_draws(argv, tmp_path, capsys, monkeypatch):
    argv = [*with_flag(argv, "--pairs", "1"), "--pair-mode", "pooled"]
    assert_refused_before_building(argv, "--pairs", tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize("argv", [SAMPLE, HISTOGRAM], ids=["sample", "histogram"])
def test_pooled_pairs_cap_is_refused_before_building(argv, tmp_path, capsys, monkeypatch):
    argv = [*with_flag(argv, "--pairs", "2049"), "--pair-mode", "pooled"]
    assert_refused_before_building(argv, "--pairs", tmp_path, capsys, monkeypatch)


@pytest.mark.parametrize(
    "flag, value",
    [("--bins", "0"), ("--bins", "-1"), ("--umax", "0"), ("--umax", "-1"), ("--umax", "nan"),
     ("--umax", "inf")],
)
def test_histogram_bad_range_is_refused_before_sampling(
    flag, value, tmp_path, capsys, monkeypatch
):
    # numpy would widen a zero-width range to [-0.5, 0.5] and bin it; the
    # other values would fail only after every realization was sampled
    argv = with_flag(HISTOGRAM, flag, value)
    assert_refused_before_building(argv, flag, tmp_path, capsys, monkeypatch)


def test_histogram_region_cap_is_refused_before_building(tmp_path, capsys, monkeypatch):
    argv = with_flag(HISTOGRAM, "--na", "21")
    assert_refused_before_building(argv, "exceeds cap", tmp_path, capsys, monkeypatch)


# smallest valid value of each integer flag of oracle, sample and predict
FLOORS = {"na": 1, "nb": 1, "d": 2, "chi": 1, "k": 1, "pairs": 1, "points": 1,
          "realizations": 2, "seed": 0, "threads": 1}
# valid tiny invocations at those floors
BELOW_FLOOR_BASE = {
    "predict": ["predict", "--setup", "staircase", "--pdf", "--d", "2", "--k", "1",
                "--points", "1"],
    "oracle": ["oracle", "--setup", "staircase", "--na", "1", "--nb", "1", "--d", "2",
               "--chi", "1", "--k", "1", "--realizations", "2", "--seed", "0", "--threads", "1"],
    "sample": ["sample", "--setup", "staircase", "--na", "1", "--nb", "1", "--d", "2",
               "--chi", "1", "--k", "1", "--pairs", "1", "--realizations", "2", "--seed", "0",
               "--threads", "1"],
}


@st.composite
def below_floor(draw):
    command = draw(st.sampled_from(sorted(BELOW_FLOOR_BASE)))
    argv = list(BELOW_FLOOR_BASE[command])
    flags = [i for i, tok in enumerate(argv) if tok.lstrip("-") in FLOORS]
    i = draw(st.sampled_from(flags))
    floor = FLOORS[argv[i].lstrip("-")]
    argv[i + 1] = str(draw(st.integers(min_value=floor - 2**40, max_value=floor - 1)))
    setup = draw(st.sampled_from(["staircase", "glued"]))
    if argv[i] != "--nb":
        argv[argv.index("--setup") + 1] = setup
        if setup == "glued" and "--nb" in argv:
            # a glued run refuses --nb, which would hide the floor check
            j = argv.index("--nb")
            del argv[j : j + 2]
    return argv


@settings(max_examples=60, deadline=None)
@given(below_floor())
def test_integer_flag_below_floor_is_an_error_not_a_traceback(argv):
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = cli.main(argv)
    assert code == 1
    assert "error:" in err.getvalue()
    assert "Traceback" not in err.getvalue()


@pytest.mark.parametrize("command", sorted(BELOW_FLOOR_BASE))
def test_integer_flags_at_floor_run(command, capsys):
    assert run_cli(capsys, *BELOW_FLOOR_BASE[command])[0] == 0
