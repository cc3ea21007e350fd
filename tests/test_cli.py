"""Configuration validation, report determinism, exit codes, and the
compute subcommands of the command-line driver."""

import collections
import hashlib
import json
import os
import subprocess
import sys
from fractions import Fraction
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
    assert main(["run", "--m", "2"]) == 2
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


def test_nonpositive_scale_is_named(capsys):
    for scale in ("0", "-1"):
        assert main(["run", "--scale", scale]) == 2
        assert "form scaling must be positive" in capsys.readouterr().err
    assert main(["run", "--scale", "x"]) == 2
    assert "bad form scaling 'x'" in capsys.readouterr().err


def test_report_shape_and_sorting():
    cfg = RunConfig(suites=("classical",))
    rep = Report(cfg)
    rep.record("z.last", "d", "pass", "0")
    rep.record("a.first", "d", "fail", "1 term", witness="x")
    js = rep.to_json()
    assert js["schema"].startswith("qaffine-report/")
    assert [c["id"] for c in js["checks"]] == ["a.first", "z.last"]
    assert js["summary"] == {"total": 2, "pass": 1, "fail": 1,
                             "inconclusive": 0, "error": 0}
    assert "timings_ms" not in js
    assert rep.failed
    assert {c["id"]: c["status"] for c in rep.checks}["a.first"] == "fail"


def test_unknown_status_is_rejected():
    rep = Report(RunConfig(suites=("classical",)))
    with pytest.raises(ValueError):
        rep.record("a", "d", "passed", "0")
    assert rep.checks == []


def test_exception_in_a_check_is_recorded_as_error(monkeypatch, capsys):
    import qaffine.liebialg

    def boom(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(qaffine.liebialg, "cybe_residual", boom)
    js = json.loads(run_suite(RunConfig(suites=("classical",))).dumps())
    assert js["schema"] == "qaffine-report/3"
    by_id = {c["id"]: c for c in js["checks"]}
    assert by_id["classical.cybe"]["status"] == "error"
    assert by_id["classical.cybe"]["witness"] == "RuntimeError: boom"
    assert len(by_id) == 9  # the run went on past the failing check
    assert js["summary"]["error"] == sum(
        c["status"] == "error" for c in js["checks"]) >= 1
    assert js["summary"]["total"] == sum(
        js["summary"][st] for st in ("pass", "fail", "inconclusive", "error"))
    # the report is still written, with its own exit code
    assert main(["run", "--suite", "classical"]) == 3
    out = json.loads(capsys.readouterr().out)
    assert out["checks"] == js["checks"]


def _hw_pair(a: int, na: int, b: int, nb: int):
    """The semi-invariant c_{a,V(na)} (x) c_{b,V(nb)} on SL2^2."""
    from qaffine.cgx import PWContext, hw_coefficient, pw_tensor
    from qaffine.liebialg import build_sl

    ctx = PWContext(build_sl(2))
    return pw_tensor([hw_coefficient(ctx, (na,), {a: Fraction(1)}),
                      hw_coefficient(ctx, (nb,), {b: Fraction(1)})])


def _classical_run(monkeypatch, bracket):
    """Run the sl2 classical suite with cgx.classical_bracket replaced by
    bracket(f, g, spec, real); return the checks by id and every call's
    arguments (kept alive, so their ids stay distinct)."""
    from qaffine import cgx

    real = cgx.classical_bracket
    calls = []

    def wrapped(f, g, spec):
        calls.append((f, g, spec))
        return bracket(f, g, spec, real)

    monkeypatch.setattr(cgx, "classical_bracket", wrapped)
    js = run_suite(RunConfig(suites=("classical",))).to_json()
    return {c["id"]: c for c in js["checks"]}, calls


def _outcome(check):
    return check["status"], check["residual"], check["witness"]


def test_classical_suite_brackets_each_pair_once(monkeypatch):
    checks, calls = _classical_run(
        monkeypatch, lambda f, g, spec, real: real(f, g, spec))
    assert all(c["status"] == "pass" for c in checks.values())
    assert len(calls) == 1380
    counts = collections.Counter(
        (id(f), id(g), id(spec)) for f, g, spec in calls)
    assert max(counts.values()) == 1


def test_agreement_and_grading_read_one_mixed_bracket_table(monkeypatch):
    F, G = _hw_pair(1, 1, 0, 2), _hw_pair(2, 2, 0, 1)

    def corrupt(f, g, spec, real):
        out = real(f, g, spec)
        if spec.kind == "mixed" and f == F and g == G:
            out = out + f
        return out

    checks, calls = _classical_run(monkeypatch, corrupt)
    assert _outcome(checks["classical.bracket-agreement"]) == (
        "fail", "mismatch", "[((1,), (2,)), ((2,), (1,))]")
    assert _outcome(checks["classical.grading"]) == (
        "fail", "off-block", "((1,), (2,))")
    assert checks["classical.jacobi"]["status"] == "pass"
    assert sum(spec.kind == "mixed" and f == F and g == G
               for f, g, spec in calls) == 1


def test_jacobi_fails_on_one_corrupted_inner_bracket(monkeypatch):
    Y, Z = _hw_pair(0, 1, 1, 1), _hw_pair(1, 1, 0, 1)

    def corrupt(f, g, spec, real):
        out = real(f, g, spec)
        if spec.kind == "mixed" and f == Y and g == Z:
            out = out + f
        return out

    checks, calls = _classical_run(monkeypatch, corrupt)
    assert _outcome(checks["classical.jacobi"]) == ("fail", "1 blocks", None)
    # once for the shared pair table, once for the Jacobi inner table
    assert sum(spec.kind == "mixed" and f == Y and g == Z
               for f, g, spec in calls) == 2


def test_grading_answers_every_pair_after_agreement_raises(monkeypatch):
    F, G = _hw_pair(1, 2, 0, 1), _hw_pair(1, 1, 2, 2)

    def boom(f, g, spec, real):
        if spec.kind == "product" and spec.m == 2 and f == F and g == G:
            raise RuntimeError("boom")
        return real(f, g, spec)

    checks, calls = _classical_run(monkeypatch, boom)
    assert _outcome(checks["classical.bracket-agreement"]) == (
        "error", "exception raised", "RuntimeError: boom")
    assert _outcome(checks["classical.grading"]) == ("pass", "0", None)
    # agreement reached every pair function in its first row; grading
    # brackets the pairs it had not reached, each pair once in all
    pairs = {id(h) for f, g, spec in calls
             if spec.kind == "product" and spec.m == 2 for h in (f, g)}
    assert len(pairs) == 25
    mixed = [(id(f), id(g)) for f, g, spec in calls
             if spec.kind == "mixed" and id(f) in pairs and id(g) in pairs]
    assert len(mixed) == len(set(mixed)) == 625


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


# sha256 of the exact stdout of `qaffine compute <args>`, exit code 0
PINNED_COMPUTE_OUTPUT = [
    (["bracket", "sl2", "product", "2:1", "3:2"],
     "19317a68fdc1a3c08d6ad207c334e6f92a36efc99097133a7cd082d8671d0e05"),
    (["bracket", "sl2", "mixed", "2:1,3:0", "3:2,1:1"],
     "54e0e76cdf1786868d10d14517a13879a555c72d4eb9b7801496c02ac8128a97"),
    (["bracket", "sl2", "mixed", "1:1,2:0,2:1", "2:0,1:1,3:2"],
     "ce2641ee1946082301e40378f4c06ff04c4b0194752471c0853de81b4b8dea14"),
    (["qmultiply", "2:1", "3:2", "--hbar-order", "2"],
     "7b8d15d7f525ac9059f519acb41a331298cc802215c52368b6572861c3a47072"),
    (["qmultiply", "2:1,1:0", "1:1,3:2", "--hbar-order", "2"],
     "8304ffd79ec06550e6a98e29a8b2514bb3307707320a9cca4f0599aad446a175"),
    (["qmultiply", "1:0,2:1,2:2", "2:1,1:1,1:0", "--hbar-order", "2"],
     "ef144cd22cf0bb06553305c6c5847a9daa213827bd61ccb6c70aa2ead3cd8e68"),
    (["qmultiply", "2:1", "3:2", "--hbar-order", "3"],
     "1f209f8ddd5329385ebde638bd59c3e0ec3af112a4090e3f389a2490cd3c0c81"),
    (["qmultiply", "2:1,1:0", "1:1,3:2", "--hbar-order", "3"],
     "4b6e82a3cb9199cee2dc67519d9f0c766643b0a297aadf1dfa59a3584aa64cab"),
    (["qmultiply", "1:0,2:1,2:2", "2:1,1:1,1:0", "--hbar-order", "3"],
     "ac26a5488b24ff7896df0c3b835570c5716704738d63eda967237ed187105688"),
    (["qmultiply", "2:1", "3:2", "--hbar-order", "4"],
     "a01f241b3338c536f7bd9f592d0c829fd146fd06ba01e10351091af1ef14e6bb"),
    (["qmultiply", "2:1,1:0", "1:1,3:2", "--hbar-order", "4"],
     "bf73dee20ed7e99c4ae58b3bb845d00bb40d9ca7a48620b1ce56d821549e868e"),
    (["qmultiply", "1:0,2:1,2:2", "2:1,1:1,1:0", "--hbar-order", "4"],
     "5c64d7fcbfa0dc6bdf93eb4accb83adee9d9b1c10076251de8f8700671e166d6"),
    # the windows (span and h bound) and witnesses of a failing and a
    # passing membership check
    (["coiso-check", "F", "--degree-bound", "2"],
     "eb1ec0c9c1c827bc685d9eb4efd9117d0a0f7babb3f3e4c2d42ab9bb2e69386b"),
    (["coiso-check", "HE", "--degree-bound", "2"],
     "d9e1a168914763c63376aa5d8e45e3b3e5f3aebf9a13e7ff0325fd7c3ddde04e"),
    # a false answer with a witness, and a window that is not a monomial span
    (["coiso-check", "HF", "--degree-bound", "2", "--hbar-order", "2"],
     "42272e08363493fbf98a3d429fef54168844dda576e798da80b2b04d20f6f6f6"),
    (["coiso-check", "EF", "--degree-bound", "1", "--hbar-order", "2"],
     "27596604bb2b0f6865ce7b5681141ee3f5fa4e2cb7085010455a9b00865e113e"),
    # the largest non-monomial window, at the default order 3
    (["coiso-check", "EF", "--degree-bound", "3"],
     "8404acc6f269c673bda2e6e042cc716327a359cec9d57fdb826a0c4ea50025b9"),
    # every sl3 generator's cobracket, and the sl3 mixed tensors
    (["cobracket", "sl3", "h1"],
     "16047574e344c31c5313c30a4d770269e832d6d4351064fe0c0eeeb63889cbf1"),
    (["cobracket", "sl3", "h2"],
     "16047574e344c31c5313c30a4d770269e832d6d4351064fe0c0eeeb63889cbf1"),
    (["cobracket", "sl3", "e1"],
     "9fca2abe141d53c646f9a84e659c303e830a491a162179ce70d010e2be8600d6"),
    (["cobracket", "sl3", "e2"],
     "e3994b17d65dfff2e0aa28e080497cae035a4a90ea931adf79c22900f9c173fb"),
    (["cobracket", "sl3", "e3"],
     "88e981769b82b433646fe213a500b04450944c4e5df8938a8b56355076afa492"),
    (["cobracket", "sl3", "f1"],
     "efbdd9d8304311d21cc10709e62ecc304161a71db5349084594e93a0ce4040b7"),
    (["cobracket", "sl3", "f2"],
     "aedb07e06cc45002411e77fa9e232bc8548eaf81bc25d9cc2c9247a425646f88"),
    (["cobracket", "sl3", "f3"],
     "43885515f6449841b4dd32b29da1c1ff7d05b72bc7df4a851c02690b436d0651"),
    (["mix", "sl3", "1"],
     "a7e80656d259d5f32b7feeecce0a1572ba50a587ec603fb0adf9a425c3ca77a9"),
    (["mix", "sl3", "2"],
     "23fcb8b229a293143871384cca1760ffb35dae3865686454fa6395b1ee72bed2"),
    (["mix", "sl3", "3"],
     "71d41e17d579ba70d12daa2ca5c87ad1375650f8040aa4519719345b30dff0b4"),
]


def test_compute_output_is_pinned(capsys):
    """Bracket (product m=1, mixed m=2, 3), qmultiply (m=1..3 at hbar
    orders 2..4), coiso-check (F and HE at degree bound 2, HF and EF at
    hbar order 2), and the sl3 cobrackets and mixed tensors print exactly
    the pinned bytes."""
    assert main(["compute", "bracket", "sl2", "product", "2:1", "3:2"]) == 0
    assert json.loads(capsys.readouterr().out) == {
        "bracket": {"blocks": {"5": [[3, 0, "-3/2"]]}, "m": 1}}
    for args, digest in PINNED_COMPUTE_OUTPUT:
        assert main(["compute"] + args) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, args


def test_coiso_run_output_is_pinned(capsys):
    """The coiso suite at degree bound 3 prints exactly the pinned bytes."""
    assert main(["run", "--suite", "coiso", "--degree-bound", "3"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "0af9061985a78ff68caf332b2f6e4d9d4617d3c19eee081dc569955987e4efa6")


def test_classical_and_default_run_outputs_are_pinned(capsys):
    """The sl2 classical suite and the default run print exactly the
    pinned bytes."""
    for argv, digest in (
            (["run", "--suite", "classical"],
             "e497db6798ed82b0b639b7b1abe65a281e54d51e8691a10a94bed69e5be957c1"),
            (["run"],
             "1d39f0b5ebaf7e4fc7ed53593b48776d3a2363e226a3d2c4a0ea9d808a8038b4")):
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, argv


def test_quantum_run_outputs_above_order_3_are_pinned(capsys):
    """The quantum suite at hbar orders 4 and 5 prints exactly the pinned
    bytes."""
    for order, digest in (
            ("4", "b10fc0fd25297edda87e19f010657eaf4aac07940949a475d2188c39f32eea8b"),
            ("5", "52555cf8d2a67de8d4e805dc270fce015050a0b92c13f0f1dd61c38a1762ed9c")):
        assert main(["run", "--suite", "quantum", "--hbar-order", order]) == 0
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest() == digest, order


def test_scaled_sl3_run_output_is_pinned(capsys):
    """A form scaling other than 1 goes through the sl3 structure constants
    (the lowering vectors carry 1/scale) and prints exactly the pinned
    bytes."""
    assert main(["run", "--algebra", "sl3", "--scale", "3/2"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "9f4c0c094847d1fd69ae1ab7d95c441f240c2f150d68ddda3c3680a6274816bd")


def test_compute_coiso_check(capsys):
    assert main(["compute", "coiso-check", "HE", "--hbar-order", "2",
                 "--degree-bound", "3"]) == 0
    js = json.loads(capsys.readouterr().out)
    assert js["strong_coiso"]["status"] == "true"
    assert js["r_membership"]["status"] == "true"


def test_degree_bound_must_be_positive(capsys, monkeypatch):
    for bound in ("0", "-1"):
        assert main(["compute", "coiso-check", "HE",
                     "--degree-bound", bound]) == 2
        assert "bounds must be positive" in capsys.readouterr().err
        assert main(["run", "--suite", "coiso",
                     "--degree-bound", bound]) == 2
        assert "bounds must be positive" in capsys.readouterr().err
    monkeypatch.setenv("QAFFINE_DEGREE_BOUND", "0")
    assert main(["compute", "coiso-check", "HE"]) == 2
    assert "bounds must be positive" in capsys.readouterr().err


def test_compute_bad_usage(capsys):
    assert main(["compute", "cobracket", "sl2"]) == 2
    assert main(["compute", "bracket", "sl3", "mixed", "1:0", "1:1"]) == 2
    assert main(["compute", "qmultiply", "1:7", "1:1"]) == 2
    capsys.readouterr()
    # digits that int() rejects are a usage error, not a traceback
    for argv in (["compute", "mix", "sl2", "\u00b2"],
                 ["compute", "twi", "\u00b3"],
                 ["compute", "cobracket", "sl2", "e\u00b2"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("config error: "), argv


def test_compute_above_the_dimension_bound_is_a_config_error(capsys):
    """An irrep above the dimension bound is a bad input, not a failed
    check: one line on stderr and exit 2, no traceback."""
    for argv in (["compute", "bracket", "sl2", "product", "70:0", "1:0"],
                 ["compute", "qmultiply", "70:0", "1:0"]):
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "config error: irrep (70,) exceeds dimension bound 64\n"


def test_help_exits_cleanly(capsys):
    assert main(["--help"]) == 0
    assert main([]) == 2  # a subcommand is required
