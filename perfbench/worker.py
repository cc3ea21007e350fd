"""One workload in one single-threaded process.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/worker.py --workload NAME --seed N --setup-only

``run.py`` starts this process with ``src`` on ``PYTHONPATH``.  With
``--setup-only`` it imports qaffine, generates the inputs, prints the
monotonic clock and the host speed probes' durations (``speed.py``) and
exits, so the parent can time set-up from process start.  Otherwise it
runs the workload, checks the outputs and prints one
JSON object as its last line.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import resource
import sys
import time
from typing import Dict, List, Optional, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "out")
SETUP_PROBES = 10

import oracles  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402


def setup(workload: str, seed: int):
    import qaffine  # noqa: F401  (the whole package, as a user imports it)

    if workload == "compute-oneshot":
        return workloads.compute_stream(seed)
    return workloads.suite_config(workload, seed)


# -- captures used by the output checks ------------------------------------------


class Captures:
    """Keeps the few objects the output checks read back: the suite's Report
    (so a crashed suite still shows which checks ran), its PWContexts and
    Borel windows, and times each check (wall and CPU).  Each hook runs once
    per object built or check run, not per call inside a check."""

    def __init__(self):
        self.reports: List = []
        self.pw_contexts: List = []
        self.windows: List = []
        self.check_times: Dict[str, List[float]] = {}
        self._undo = []

    def clear(self):
        self.reports.clear()
        self.pw_contexts.clear()
        self.windows.clear()
        self.check_times.clear()

    def __enter__(self):
        from qaffine import cgx, cli, coiso

        def after_init(cls, sink):
            original = cls.__init__

            def init(obj, *args, **kwargs):
                original(obj, *args, **kwargs)
                sink.append(obj)

            self._undo.append((cls, "__init__", original))
            cls.__init__ = init

        after_init(cli.Report, self.reports)
        after_init(cgx.PWContext, self.pw_contexts)
        original = coiso.borel_subalgebra

        def borel(*args, **kwargs):
            window = original(*args, **kwargs)
            self.windows.append(window)
            return window

        self._undo.append((coiso, "borel_subalgebra", original))
        coiso.borel_subalgebra = borel

        run_check = cli._run_check

        def timed_check(report, check_id, *args, **kwargs):
            c0 = time.process_time()
            t0 = time.perf_counter()
            try:
                return run_check(report, check_id, *args, **kwargs)
            finally:
                self.check_times[check_id] = [t0, time.perf_counter(),
                                              time.process_time() - c0]

        self._undo.append((cli, "_run_check", run_check))
        cli._run_check = timed_check
        return self

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)


# -- suite workloads -----------------------------------------------------------------


def _classical_problems(caps: Captures) -> List[str]:
    from qaffine.liebialg import build_sl

    alg = build_sl(2)
    h, e, f = 0, alg.raise_index(0), alg.lower_index(0)
    problems: List[str] = []
    seen = set()
    for ctx in caps.pw_contexts:
        # The suite builds V(1)..V(8); every lookup here is a cache hit.
        for n in range(1, 9):
            rep = ctx.irrep((n,))
            problems += oracles.sl2_irrep_problems(
                n, rep.weights, rep.act[h], rep.act[e], rep.act[f])
            seen.add(n)
        for a in range(1, 4):
            for b in range(a, 4):
                problems += oracles.clebsch_gordan_problems(
                    a, b, ctx.cg((a,), (b,)).summands)
    if seen != set(range(1, 9)):
        problems.append("the classical suite built no sl2 context")
    return problems


def _quantum_problems(order: int) -> List[str]:
    from qaffine.que import UqContext, q_integer, r_matrix_sl2

    ctx = UqContext(order)
    problems = []
    for n in range(1, 7):
        got = list(q_integer(ctx, n).coeffs)
        if got != oracles.q_integer_expansion(n, order):
            problems.append("[%d]_q differs from its expansion" % n)
    R = r_matrix_sl2(ctx)
    r12, r13, r23 = R.embed(3, (0, 1)), R.embed(3, (0, 2)), R.embed(3, (1, 2))
    if r12 * r13 * r23 != r23 * r13 * r12:
        problems.append("R does not satisfy the quantum Yang-Baxter equation")
    return problems


def _coiso_problems(caps: Captures, order: int, degree_bound: int) -> List[str]:
    want = oracles.borel_window_rank(order, degree_bound)
    if not caps.windows:
        return ["the coiso suite built no Borel window"]
    return ["Borel window rank %d, expected %d" % (len(w.span), want)
            for w in caps.windows if len(w.span) != want]


def repeat_rounds(one_round, seconds: float,
                  traced: bool) -> Tuple[List[Dict], Optional[Dict]]:
    """Whole rounds until ``seconds`` have passed.  A traced run does one
    round: its figures are per-layer shares, and tracing slows it.  An
    untraced run keeps the host's speed probe running throughout and turns
    each round's timed units into times at the reference speed
    (``speed.py``)."""
    rounds: List[Dict] = []
    probe = contextlib.nullcontext() if traced else speed.SpeedProbe()
    started = time.perf_counter()
    with probe:
        while not rounds or not traced and \
                time.perf_counter() - started < seconds:
            rounds.append(one_round())
    for r in rounds:
        r["wall"] = r["t1"] - r["t0"]
    if traced:
        return rounds, None
    for r in rounds:
        r["units"] = [probe.scale(u[0], u[1], u[2]) if u else None
                      for u in r["units"]]
        if r.get("rest"):
            # the suite's time outside its checks
            whole = probe.scale(r["t0"], r["t1"], r["cpu"])
            ran = [u for u in r["units"] if u]
            r["units"].append([whole[i] - sum(u[i] for u in ran)
                               for i in (0, 1)])
    return rounds, {"count": len(probe.durations),
                    "fastest_s": min(probe.durations),
                    "speed": speed.mean_speed(probe.durations)}


def run_suite_workload(workload: str, cfg, seconds: float,
                       rec: Optional[spans.Recorder]) -> Dict:
    from qaffine.cli import run_suite

    expected = workloads.expected_checks(workload)
    caps = Captures()

    def one_round() -> Dict:
        caps.clear()  # only the last round's objects stay alive
        report, error = None, None
        c0 = time.process_time()
        t0 = time.perf_counter()
        try:
            if rec:
                rec.begin("cli.run_suite")
            try:
                report = run_suite(cfg)
            finally:
                if rec:
                    rec.end()
        except Exception as exc:  # a crashed suite is a result, not a stop
            error = "%s: %s" % (type(exc).__name__, exc)
        t1 = time.perf_counter()
        cpu = time.process_time() - c0
        # A suite that raised still left its partial Report behind.
        checks = caps.reports[-1].checks if caps.reports else []
        # One timed unit per expected check (None if it never ran); the
        # suite's time outside its checks is added as a last unit.
        units = [caps.check_times.get(cid) for cid in expected]
        return {"t0": t0, "t1": t1, "cpu": cpu, "units": units, "rest": True,
                "error": error,
                "statuses": {c["id"]: c["status"] for c in checks},
                "text": report.dumps() if report is not None else None}

    instr = spans.Instrumentation(rec) if rec else contextlib.nullcontext()
    with caps, instr:
        rounds, probe = repeat_rounds(one_round, seconds, rec is not None)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failed_ops: List[str] = []
    errors: List[str] = []
    problems: List[str] = []
    for i, r in enumerate(rounds):
        # An exception escaping run_suite fails the check that raised it and
        # every check it kept from running: none of them has a status.
        failed_ops += ["round %d: %s" % (i + 1, cid) for cid in expected
                       if r["statuses"].get(cid) != "pass"]
        if r["error"]:
            errors.append("round %d: run_suite raised %s" % (i + 1, r["error"]))
        extra = sorted(set(r["statuses"]) - set(expected))
        if extra:
            problems.append("unexpected checks: %s" % extra)
        if r["text"] != rounds[0]["text"]:
            problems.append("round %d report differs from round 1" % (i + 1))
    last = rounds[-1]
    if last["text"] is not None:
        _, order, degree_bound = workloads.SUITES[workload]
        if workload == "classical-sl2":
            problems += _classical_problems(caps)
        elif workload == "quantum-k4":
            problems += _quantum_problems(order)
        elif workload == "coiso-k3":
            problems += _coiso_problems(caps, order, degree_bound)
    return {
        "attempted": len(expected) * len(rounds),
        "failed": len(failed_ops),
        "failed_ops": failed_ops + errors,
        "problems": problems,
        "digest": hashlib.sha256((last["text"] or "").encode()).hexdigest(),
        "requests": None,  # the call is run_suite: one per round
        "rounds": [{"wall": r["wall"], "units": r["units"]} for r in rounds],
        "probe": probe,
        "rss_mb": rss,
    }


# -- compute-oneshot --------------------------------------------------------------------


def _call(argv: List[str]):
    from qaffine import cli

    buf = io.StringIO()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except Exception as exc:  # counts as a failed call
        return -1, "%s: %s" % (type(exc).__name__, exc)
    return rc, buf.getvalue()


def _stream_problems(stream, outputs) -> Dict[int, List[str]]:
    """Property checks per call index (a group failure marks every member)."""
    bad: Dict[int, List[str]] = {}

    def mark(indices, problems):
        if not problems:
            return
        for i in indices:
            bad.setdefault(i, []).extend(problems)

    parsed = {}
    for i, (call, (rc, text)) in enumerate(zip(stream, outputs)):
        if rc != 0:
            mark([i], ["exit %d: %s" % (rc, text.strip()[:200])])
            continue
        try:
            parsed[i] = json.loads(text)
        except ValueError:
            mark([i], ["output is not JSON"])
    groups: Dict[int, Dict] = {}
    coiso: Dict[str, List] = {}
    coiso_idx: Dict[str, List[int]] = {}
    for i, call in enumerate(stream):
        if i not in parsed:
            continue
        js = parsed[i]
        if call.expr in ("cobracket", "mix"):
            mark([i], oracles.antisymmetry_problems(
                oracles.lie_terms(js[call.expr])))
        elif call.expr == "twi":
            m, order = int(call.argv[2]), int(call.argv[4])
            mark([i], oracles.twist_problems(js["twi"], m, order))
        elif call.expr == "coiso-check":
            letters = "".join(sorted(call.argv[2]))
            coiso.setdefault(letters, []).append(
                (js["strong_coiso"]["status"], js["r_membership"]["status"]))
            coiso_idx.setdefault(letters, []).append(i)
        else:
            g = groups.setdefault(call.group, {})
            first = call.argv[-2] < call.argv[-1]
            g[(call.expr, first)] = (i, js)
    for letters, answers in coiso.items():
        mark(coiso_idx[letters],
             oracles.coiso_consistency_problems({letters: answers}))
    for gi, g in groups.items():
        members = [i for i, _ in g.values()]
        if len(g) != 4:
            mark(members, ["group %d incomplete" % gi])
            continue
        problems = oracles.bracket_group_problems(
            g[("bracket", True)][1]["bracket"],
            g[("bracket", False)][1]["bracket"],
            g[("qmultiply", True)][1]["qmultiply"],
            g[("qmultiply", False)][1]["qmultiply"])
        mark(members, problems)
    return bad


def run_compute_workload(stream, seconds: float,
                         rec: Optional[spans.Recorder]) -> Dict:
    def one_round() -> Dict:
        outputs, units = [], []
        c0 = time.process_time()
        t0 = time.perf_counter()
        for i, call in enumerate(stream):
            if rec:
                rec.set_request("call-%d" % i)
                rec.begin("cli.compute", "cli.compute." + call.expr)
            cs = time.process_time()
            s = time.perf_counter()
            outputs.append(_call(call.argv))
            units.append([s, time.perf_counter(), time.process_time() - cs])
            if rec:
                rec.end()
        if rec:
            rec.set_request(None)
        return {"t0": t0, "t1": time.perf_counter(),
                "cpu": time.process_time() - c0,
                "outputs": outputs, "units": units}

    instr = spans.Instrumentation(rec) if rec else contextlib.nullcontext()
    with instr:
        rounds, probe = repeat_rounds(one_round, seconds, rec is not None)
    rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    first = rounds[0]["outputs"]
    problems = ["round %d output differs from round 1" % (i + 1)
                for i, r in enumerate(rounds) if r["outputs"] != first]
    bad = _stream_problems(stream, first)
    text = "".join("%d\n%s" % out for out in first)
    return {
        "attempted": len(stream) * len(rounds),
        "failed": len(bad) * len(rounds),
        "failed_ops": ["%s: %s" % (stream[i], "; ".join(p))
                       for i, p in sorted(bad.items())],
        "problems": problems,
        "digest": hashlib.sha256(text.encode()).hexdigest(),
        "requests": len(stream),
        "rounds": [{"wall": r["wall"], "units": r["units"]} for r in rounds],
        "probe": probe,
        "rss_mb": rss,
    }


# -- determinism across traced and untraced runs ------------------------------------------


def source_digest() -> str:
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src", "qaffine")
    for name in sorted(os.listdir(src)):
        if name.endswith(".py"):
            with open(os.path.join(src, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def check_determinism(workload: str, seed: int, inputs: str, digest: str,
                      trace: int) -> List[str]:
    """The report (or the stream's outputs) for one seed must be byte-identical
    in every run, traced or not.  The first run of a seed on this source and
    these inputs records its digest; every later run compares with it."""
    store = os.path.join(OUT, "reports")
    os.makedirs(store, exist_ok=True)
    path = os.path.join(store, "%s-seed%d.json" % (workload, seed))
    key = hashlib.sha256((source_digest() + inputs).encode()).hexdigest()
    try:
        with open(path) as fh:
            seen = json.load(fh)
    except (OSError, ValueError):
        seen = None
    if seen and seen.get("key") == key:
        if seen["digest"] != digest:
            return ["output differs from the %s run of the same seed"
                    % ("traced" if seen["trace"] else "untraced")]
        return []
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"key": key, "digest": digest, "trace": trace}, fh)
    os.replace(tmp, path)
    return []


def describe_inputs(inputs) -> str:
    if isinstance(inputs, list):
        return json.dumps([c.argv for c in inputs])
    return json.dumps(inputs.to_json(), sort_keys=True)


def main(argv=None) -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    if args.setup_only:
        # The host's speed during set-up, and right after it.  The probe's
        # first run in a fresh process is cold and says nothing of the host.
        with speed.SpeedProbe() as probe:
            setup(args.workload, args.seed)
            ready = time.monotonic()
        probes = probe.durations[1:] + [speed.probe()
                                        for _ in range(SETUP_PROBES)]
        print(json.dumps({"ready": ready, "probes": probes}))
        return 0
    inputs = setup(args.workload, args.seed)

    rec = spans.Recorder() if args.trace else None
    started = time.perf_counter()
    if args.workload == "compute-oneshot":
        result = run_compute_workload(inputs, args.seconds, rec)
    else:
        result = run_suite_workload(args.workload, inputs, args.seconds, rec)
    result["untimed_s"] = time.perf_counter() - started - sum(
        r["wall"] for r in result["rounds"])
    result["problems"] += check_determinism(
        args.workload, args.seed, describe_inputs(inputs), result["digest"],
        args.trace)
    if rec:
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "spans-%s-seed%d.jsonl"
                            % (args.workload, args.seed))
        rec.write(path)
        result["spans"] = {"file": os.path.relpath(path, ROOT),
                           "kept": len(rec.s_name), "dropped": rec.dropped}
        result["layers"] = {k: [v, u] for k, (v, u) in rec.metrics().items()}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
