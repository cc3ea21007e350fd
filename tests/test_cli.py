"""Configuration validation, report determinism, exit codes, and the
compute subcommands of the command-line driver."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from qaffine.cli import ConfigError, Report, RunConfig, main, run_suite


def test_config_defaults():
    cfg = RunConfig()
    assert cfg.algebra == "sl2"
    assert cfg.suites == ("classical", "quantum", "coiso")
    cfg3 = RunConfig(algebra="sl3")
    assert cfg3.suites == ("classical",)


def test_config_rejects_bad_values():
    with pytest.raises(ConfigError):
        RunConfig(algebra="so5")
    with pytest.raises(ConfigError):
        RunConfig(m=4)
    with pytest.raises(ConfigError):
        RunConfig(hbar_order=1)
    with pytest.raises(ConfigError):
        RunConfig(scale="0")
    with pytest.raises(ConfigError):
        RunConfig(scale="x")
    with pytest.raises(ConfigError):
        RunConfig(suites=("classical", "bogus"))
    with pytest.raises(ConfigError):
        RunConfig(algebra="sl3", suites=("quantum",))


def test_report_shape_and_sorting():
    cfg = RunConfig(suites=("classical",))
    rep = Report(cfg)
    rep.record("z.last", "d", "pass", "0")
    rep.record("a.first", "d", "fail", "1 term", witness="x")
    js = rep.to_json()
    assert js["schema"].startswith("qaffine-report/")
    assert [c["id"] for c in js["checks"]] == ["a.first", "z.last"]
    assert js["summary"] == {"total": 2, "pass": 1, "fail": 1,
                             "inconclusive": 0}
    assert "timings_ms" not in js
    assert rep.failed
    assert rep.status_of("a.first") == "fail"


def test_timings_are_opt_in():
    cfg = RunConfig(suites=("classical",), timings=True)
    rep = Report(cfg)
    rep.record("a", "d", "pass", "0", wall=0.5)
    assert rep.to_json()["timings_ms"] == {"a": 500.0}


def test_quantum_suite_report_is_byte_identical():
    cfg = lambda: RunConfig(hbar_order=2, suites=("quantum",))
    first = run_suite(cfg()).dumps()
    second = run_suite(cfg()).dumps()
    assert first == second
    js = json.loads(first)
    assert js["summary"]["fail"] == 0
    assert all(c["status"] == "pass" for c in js["checks"])


def test_run_exit_codes(tmp_path, capsys):
    assert main(["run", "--algebra", "so5"]) == 2
    assert "config error" in capsys.readouterr().err
    out = tmp_path / "report.json"
    code = main(["run", "--algebra", "sl3", "--suite", "classical",
                 "--out", str(out)])
    assert code == 0
    js = json.loads(out.read_text())
    assert js["config"]["algebra"] == "sl3"
    assert js["summary"]["fail"] == 0


def test_env_overrides(tmp_path, monkeypatch):
    monkeypatch.setenv("QAFFINE_ALGEBRA", "sl3")
    monkeypatch.setenv("QAFFINE_SUITE", "classical")
    out = tmp_path / "report.json"
    assert main(["run", "--out", str(out)]) == 0
    js = json.loads(out.read_text())
    assert js["config"]["algebra"] == "sl3"
    assert js["config"]["suites"] == ["classical"]
    # explicit flags beat the environment
    monkeypatch.setenv("QAFFINE_ALGEBRA", "so5")
    assert main(["run", "--algebra", "sl3", "--suite", "classical",
                 "--out", str(out)]) == 0


def test_compute_cobracket(capsys):
    assert main(["compute", "cobracket", "sl2", "e"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["cobracket"]["terms"] == [[[0, 1], "1/2"], [[1, 0], "-1/2"]]


def test_python_m_qaffine_from_checkout(capsys):
    """`python -m qaffine` runs the same driver from a plain source tree."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    proc = subprocess.run(
        [sys.executable, "-m", "qaffine", "compute", "cobracket", "sl2", "e"],
        capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert main(["compute", "cobracket", "sl2", "e"]) == 0
    assert proc.stdout == capsys.readouterr().out


def test_compute_mix(capsys):
    assert main(["compute", "mix", "sl2", "2"]) == 0
    js = json.loads(capsys.readouterr().out)
    terms = {tuple(k): v for k, v in js["mix"]["terms"]}
    assert terms == {(0, 3): "1/4", (3, 0): "-1/4",
                     (1, 5): "1", (5, 1): "-1"}


def test_compute_twi_identity(capsys):
    assert main(["compute", "twi", "1", "--hbar-order", "2"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["twi"]["legs"] == 2
    assert js["twi"]["terms"] == [[[[0, 0, 0], [0, 0, 0]], ["1", "0"]]]


def test_compute_bracket_and_qmultiply(capsys):
    assert main(["compute", "bracket", "sl2", "mixed", "1:0,1:0",
                 "1:0,1:1"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert list(js["bracket"]["blocks"]) == ["2;2"]
    assert main(["compute", "qmultiply", "1:0", "1:1",
                 "--hbar-order", "2"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert list(js["qmultiply"]["blocks"]) == ["2"]


def test_compute_coiso_check(capsys):
    assert main(["compute", "coiso-check", "HE", "--hbar-order", "2",
                 "--degree-bound", "3"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["strong_coiso"]["status"] == "true"
    assert js["r_membership"]["status"] == "true"


def test_compute_bad_usage(capsys):
    assert main(["compute", "cobracket", "sl2"]) == 2
    assert main(["compute", "bracket", "sl3", "mixed", "1:0", "1:1"]) == 2
    assert main(["compute", "qmultiply", "1:7", "1:1"]) == 2


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2  # a subcommand is required
