"""qaffine benchmark: time to a verified report, one-shot compute latency,
and a traced per-layer breakdown.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S]
                             [--trace 0|1]

Run from a plain checkout; the package need not be installed.  Each
workload runs in its own single-threaded process (``worker.py``).  With
``--trace 0`` the last line is a JSON object with the end-to-end metrics;
with ``--trace 1`` it carries the per-layer metrics of a traced run.
``--workload all`` runs every workload in turn and ends with one object
whose metric names are prefixed by the workload.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import speed  # noqa: E402
import stats  # noqa: E402
import workloads  # noqa: E402

SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # every run must end within three minutes


def child_env() -> Dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("QAFFINE_")}
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    env["PYTHONHASHSEED"] = "0"
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


def _worker(args: List[str], timeout: float) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py")] + args,
        cwd=ROOT, env=child_env(), capture_output=True, text=True,
        timeout=max(timeout, 1.0))


def measure_setup(workload: str, seed: int) -> List[Tuple[float, List[float]]]:
    """Time from process start to the first timed call (interpreter
    start-up, import, inputs) in several fresh processes, each with the
    durations of the speed probes that ran in it."""
    samples = []
    for _ in range(SETUP_SAMPLES):
        start = time.monotonic()
        done = _worker(["--workload", workload, "--seed", str(seed),
                        "--setup-only"], 60)
        if done.returncode != 0:
            raise RuntimeError("set-up failed:\n" + done.stderr)
        out = json.loads(done.stdout.strip().splitlines()[-1])
        samples.append((out["ready"] - start, out["probes"]))
    return samples


def setup_at_reference_speed(samples) -> float:
    """The median set-up time, each sample taken at the reference speed
    (``speed.py``)."""
    return stats.median([t * speed.mean_speed(probes) for t, probes in samples])


def end_to_end(res: Dict, setup_s: float) -> Dict[str, Dict]:
    """Time metrics at the reference speed (``speed.py``) from each unit's
    median over the rounds.  A unit is a check (plus the suite's time
    outside its checks) or a call.  The requests are the first
    ``res["requests"]`` units, or a suite's whole run_suite call."""
    units = stats.unit_medians([r["units"] for r in res["rounds"]])
    wall = sum(w for w, _ in units)
    n = res["requests"]
    lat = [wall] if n is None else [w for w, _ in units[:n]]
    _, tail = stats.tail(lat)
    m = {
        "setup_s": (setup_s, "s"),
        "wall_s": (wall, "s"),
        "cpu_s": (sum(c for _, c in units), "s"),
        "peak_rss_mb": (res["rss_mb"], "MB"),
        "calls_per_s": (len(lat) / wall, "calls/s"),
        "call_p50_ms": (stats.median(lat) * 1000.0, "ms"),
        "call_p90_ms": (tail * 1000.0, "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: int,
                 started: float) -> Dict:
    setup = None if trace else measure_setup(workload, seed)
    budget = DEADLINE_S - (time.monotonic() - started)
    try:
        done = _worker(["--workload", workload, "--seed", str(seed),
                        "--seconds", str(seconds), "--trace", str(trace)],
                       budget)
    except subprocess.TimeoutExpired:
        sys.stderr.write("%s: worker exceeded %.0f s\n" % (workload, budget))
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        sys.stderr.write("%s: worker failed\n%s" % (workload, done.stderr))
        return {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}
    res = json.loads(lines[-1])
    for op in res["failed_ops"]:
        sys.stderr.write("%s: failed: %s\n" % (workload, op))
    for problem in res["problems"]:
        sys.stderr.write("%s: incorrect: %s\n" % (workload, problem))
    if trace:
        metrics = {k: {"value": v, "unit": u}
                   for k, (v, u) in res["layers"].items()}
        print("%s: traced wall %.3f s, %d spans kept (%d dropped) in %s"
              % (workload, sum(r["wall"] for r in res["rounds"]),
                 res["spans"]["kept"], res["spans"]["dropped"],
                 res["spans"]["file"]))
    else:
        metrics = end_to_end(res, setup_at_reference_speed(setup))
        walls = [r["wall"] for r in res["rounds"]]
        print("%s: measured wall %.3f s per round (%s); the host ran at "
              "%.2f of the reference speed (%d probes, fastest %.1f us)" % (
                  workload, stats.median(walls),
                  " ".join("%.3f" % w for w in walls), res["probe"]["speed"],
                  res["probe"]["count"], res["probe"]["fastest_s"] * 1e6))
        p, _ = stats.tail([0.0] * (res["requests"] or 1))
        print("%s: %d request(s) in %d round(s); call_p90_ms is %s" % (
            workload, res["requests"] or 1, len(res["rounds"]),
            "the median (fewer than 40 samples)" if p is None
            else "p%g" % p))
    for name, m in metrics.items():
        print("%s: %s = %.6g %s" % (workload, name, m["value"], m["unit"]))
    print("%s: attempted %d, failed %d; output checks took %.2f s"
          % (workload, res["attempted"], res["failed"], res["untimed_s"]))
    return {"correct": not res["problems"], "attempted": res["attempted"],
            "failed": res["failed"], "metrics": metrics}


def main(argv: Optional[List[str]] = None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", default="all",
                   choices=workloads.WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "qaffine", "__init__.py")):
        sys.stderr.write("run.py: no qaffine sources under %s\n"
                         % os.path.join(ROOT, "src"))
        return 2

    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    for name in names:
        results[name] = run_workload(name, args.seed, args.seconds,
                                     args.trace, time.monotonic())
    if len(names) == 1:
        out = results[names[0]]
    else:
        out = {"correct": all(r["correct"] for r in results.values()),
               "attempted": sum(r["attempted"] for r in results.values()),
               "failed": sum(r["failed"] for r in results.values()),
               "metrics": {"%s.%s" % (n, k): v for n, r in results.items()
                           for k, v in r["metrics"].items()}}
    print(json.dumps(out))
    return 0 if all(r["metrics"] for r in results.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
