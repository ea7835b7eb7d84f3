"""CLI tests: documented invocations, determinism, manifest plumbing, errors."""

import json
import math
import os

import pytest

from rmpslab import cli


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
    assert lines[1] == "k,n,mean,stderr"
    assert len(lines) == 2 + 3  # (1,0), (2,-1), (2,0)
    k1 = float(lines[2].split(",")[2])
    assert 0.5 < k1 < 0.9  # purity of the tiny staircase instance


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


def test_contract_bad_chi_is_an_error_not_a_traceback(capsys):
    code, _, err = run_cli(capsys, "contract", "--setup", "staircase", "--na", "2", "--nb", "2",
                           "--d", "2", "--chi", "0", "--k", "1", "--n", "0")
    assert code == 1
    assert "error:" in err and "chi" in err
    assert "Traceback" not in err


def test_config_without_path_is_an_error_not_a_traceback(tmp_path, capsys):
    code, _, err = run_cli(capsys, "predict", "--setup", "staircase", "--config")
    assert code == 1
    assert "error:" in err and "--config" in err
    assert "Traceback" not in err
    missing = tmp_path / "missing.cfg"
    code, _, err = run_cli(capsys, "--config", str(missing), "predict", "--setup", "staircase")
    assert code == 1
    assert "error:" in err and "missing.cfg" in err
