import os
import shutil
import subprocess
import sys

import workloads


def test_stream_is_seeded_distinct_and_covers_every_expression():
    a = workloads.compute_stream(7)
    assert [c.key() for c in a] == [c.key() for c in workloads.compute_stream(7)]
    assert [c.key() for c in a] != [c.key() for c in workloads.compute_stream(8)]
    assert len(a) >= 100 and len({c.key() for c in a}) == len(a)
    assert {c.expr for c in a} == {"cobracket", "mix", "bracket", "qmultiply",
                                   "twi", "coiso-check"}
    assert any(c.argv[2] == "sl3" for c in a if c.expr == "cobracket")
    for c in a:
        if c.expr == "coiso-check":
            assert not ("E" in c.argv[2] and "F" in c.argv[2])


def test_every_group_has_both_orders_of_both_expressions():
    groups = {}
    for c in workloads.compute_stream(3):
        if c.group >= 0:
            groups.setdefault(c.group, []).append(c)
    assert len(groups) == len(workloads.GROUP_WEIGHTS)
    for calls in groups.values():
        assert sorted(c.expr for c in calls) == ["bracket", "bracket",
                                                 "qmultiply", "qmultiply"]


def test_suite_checks():
    assert len(workloads.expected_checks("classical-sl2")) == 9
    assert len(workloads.expected_checks("quantum-k4")) == 6
    assert len(workloads.expected_checks("coiso-k3")) == 5


def test_refuses_to_run_without_sources(tmp_path):
    bench = os.path.dirname(os.path.abspath(workloads.__file__))
    shutil.copytree(bench, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "classical-sl2",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def test_determinism_store_compares_runs_of_one_seed(tmp_path, monkeypatch):
    import worker

    monkeypatch.setattr(worker, "OUT", str(tmp_path))
    assert worker.check_determinism("quantum-k4", 3, "in", "aaa", 0) == []
    assert worker.check_determinism("quantum-k4", 3, "in", "aaa", 1) == []
    assert worker.check_determinism("quantum-k4", 3, "in", "bbb", 1) == [
        "output differs from the untraced run of the same seed"]
    # other inputs (a changed stream or config) start afresh
    assert worker.check_determinism("quantum-k4", 3, "other", "bbb", 1) == []
