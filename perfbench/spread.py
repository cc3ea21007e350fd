"""Run-to-run spread of the end-to-end metrics.

    python3 perfbench/spread.py [--workload NAME]... [--seeds 1-10] [--seconds S]

Runs ``run.py`` once per seed and workload, one after another, and prints
for each metric the median and the quartile spread (third minus first
quartile, as a share of the median) next to the metric's bound from
BENCHMARK.json.  A spread above a third of the bound is marked.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time
from typing import Dict, List

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import stats  # noqa: E402
import workloads  # noqa: E402


def seed_range(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", action="append", choices=workloads.WORKLOADS)
    p.add_argument("--seeds", default="1-10")
    p.add_argument("--seconds", type=int, default=None)
    args = p.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    seconds = args.seconds or bench["run_seconds"]
    status = 0
    for name in args.workload or workloads.WORKLOADS:
        values: Dict[str, List[float]] = {}
        shares = set()
        for seed in seed_range(args.seeds):
            started = time.monotonic()
            done = subprocess.run(
                bench["command"] + ["--workload", name, "--seed", str(seed),
                                    "--seconds", str(seconds), "--trace", "0"],
                cwd=ROOT, capture_output=True, text=True)
            res = json.loads(done.stdout.strip().splitlines()[-1])
            if done.returncode or not res["correct"]:
                status = 1
            shares.add((res["failed"], res["attempted"]))
            for k, m in res["metrics"].items():
                values.setdefault(k, []).append(m["value"])
            print("%s seed %d (%.1f s): %s" % (
                name, seed, time.monotonic() - started, " ".join(
                    "%s=%.4g" % (k, m["value"])
                    for k, m in res["metrics"].items())), flush=True)
        print("%s: failed/attempted %s" % (name, sorted(shares)))
        for k, vs in values.items():
            if len(vs) < 2:
                continue
            spread = stats.quartile_spread(vs)
            mark = "  <-- above a third of the bound" \
                if spread > bounds[k] / 3 and k != "setup_s" else ""
            print("%s: %-12s median %10.4g  spread %.4f  bound %.2f%s" % (
                name, k, stats.median(vs), spread, bounds[k], mark), flush=True)
    return status


if __name__ == "__main__":
    sys.exit(main())
