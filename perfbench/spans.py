"""Span recorder for the traced run.

The recorder wraps public functions and methods of the qaffine layers from
outside the program.  A wrapped function either opens a span (name, start,
end, parent span, request id) or only bumps a counter; the kernel's series
operations are counted, never spanned, because a span would cost more than
the call.  Spans are kept in compact arrays in memory and written out when
the run ends.

Self time of a layer is the duration of its spans minus the part covered by
their child spans.  It is accumulated while spans close, so the per-layer
numbers do not depend on how many spans are kept.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from typing import Callable, Dict, List, Optional, Tuple

LAYERS = ("cli", "kernel", "linalg", "liebialg", "cgx", "que", "coiso")

SPAN, COUNT = "span", "count"

# (module, attribute path, metric, mode).  A span metric's layer is the text
# before its first dot.  Each function is wrapped once and replaced in every
# qaffine namespace that holds it, since coiso and cgx bind que and linalg
# names at import time.
TARGETS: List[Tuple[str, str, str, str]] = [
    ("kernel", "TruncatedSeries.__init__", "kernel.series_new", COUNT),
    ("kernel", "TruncatedSeries.__mul__", "kernel.series_mul", COUNT),
    ("kernel", "TruncatedSeries.__rmul__", "kernel.series_mul", COUNT),
    ("kernel", "TruncatedSeries.__add__", "kernel.series_add", COUNT),
    ("kernel", "TruncatedSeries.__radd__", "kernel.series_add", COUNT),
    ("kernel", "TruncatedSeries.__sub__", "kernel.series_add", COUNT),
    ("kernel", "TruncatedSeries.__rsub__", "kernel.series_add", COUNT),
    ("kernel", "TruncatedSeries.__neg__", "kernel.series_add", COUNT),
    ("kernel", "TruncatedSeries.inv", "kernel.series_inv", COUNT),
    ("kernel", "TruncatedSeries.is_zero", "kernel.series_is_zero", COUNT),
    ("linalg", "EchelonSpan.add", "linalg.echelon_add", SPAN),
    ("linalg", "EchelonSpan.reduce", "linalg.echelon_reduce", SPAN),
    ("linalg", "EchelonSpan.contains", "linalg.echelon_reduce", SPAN),
    ("linalg", "EchelonSpan.coefficients", "linalg.echelon_reduce", SPAN),
    ("linalg", "rref", "linalg.dense", SPAN),
    ("linalg", "nullspace", "linalg.dense", SPAN),
    ("linalg", "solve", "linalg.dense", SPAN),
    ("linalg", "mat_inv", "linalg.dense", SPAN),
    ("cgx", "PWContext.irrep", "cgx.irrep", COUNT),
    ("cgx", "PWContext._build_irrep", "cgx.irrep_build", SPAN),
    ("cgx", "PWContext.cg", "cgx.cg", COUNT),
    ("cgx", "PWContext._decompose", "cgx.cg_build", SPAN),
    ("cgx", "pw_multiply", "cgx.pw_multiply", SPAN),
    ("cgx", "classical_bracket", "cgx.bracket", SPAN),
    ("que", "UqContext.__init__", "que.context", COUNT),
    ("que", "mono_mul", "que.mono_mul", COUNT),
    ("que", "UqElement.__mul__", "que.element_mul", SPAN),
    ("que", "UqTensor.__mul__", "que.tensor_mul", SPAN),
    ("que", "coproduct", "que.coproduct", SPAN),
    ("que", "coproduct_op", "que.coproduct", SPAN),
    ("que", "twi_m", "que.twist", SPAN),
    ("que", "twi_m_inductive", "que.twist", SPAN),
    ("que", "twist_condition_residuals", "que.twist", SPAN),
    ("que", "r_matrix_m", "que.twist", SPAN),
    ("que", "TwistedHopf.delta", "que.twist", SPAN),
    ("que", "QAffineContext._build_qcg", "que.qcg_build", SPAN),
    ("que", "q_multiply", "que.q_multiply", SPAN),
    ("que", "quantum_affine_multiply", "que.affine_multiply", SPAN),
    ("coiso", "HopfSubalgebra.__init__", "coiso.window", SPAN),
    ("coiso", "HopfSubalgebra.extend", "coiso.window", SPAN),
    ("coiso", "ideal_commutator", "coiso.ideal", SPAN),
    ("coiso", "strong_coiso_hopf", "coiso.membership", SPAN),
    ("coiso", "r_membership_hopf", "coiso.membership", SPAN),
    ("coiso", "strong_coiso_twisted", "coiso.membership", SPAN),
    ("coiso", "CharacterMonoid.product", "coiso.monoid.product", SPAN),
    ("coiso", "semi_invariants", "coiso.semi_invariants", SPAN),
    ("coiso", "quantum_section_check", "coiso.sections", SPAN),
    ("cli", "_run_check", "cli.check", SPAN),
    ("cli", "Report.dumps", "cli.report", SPAN),
]

# Every public module-level function of liebialg is one span metric: what
# matters there is how long requests spend in the Lie-bialgebra layer.
LIEBIALG_METRIC = "liebialg"

CHECK_IDS = (
    "classical.cybe", "classical.cobracket", "classical.twisting",
    "classical.coisotropy", "classical.projection",
    "classical.bracket-agreement", "classical.poisson-action",
    "classical.grading", "classical.jacobi",
    "quantum.algebra", "quantum.rmatrix", "quantum.twists",
    "quantum.rmatrix-m", "quantum.semiclassical", "quantum.factorization",
    "coiso.r-membership", "coiso.strong", "coiso.monoid",
    "coiso.semi-invariants", "coiso.sections",
)

EXPRESSIONS = ("cobracket", "mix", "bracket", "qmultiply", "twi",
               "coiso-check")


def self_times(spans: List[Tuple[str, float, float, int]]) -> Dict[str, float]:
    """Self time per layer from closed spans (name, start, end, parent index;
    parent -1 for a root).  A span's self time is its duration minus the
    durations of its direct children; the layer is the name's first part."""
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: Dict[str, float] = {}
    for i, (name, start, end, _) in enumerate(spans):
        layer = name.split(".", 1)[0]
        out[layer] = out.get(layer, 0.0) + (end - start) - covered[i]
    return out


class Recorder:
    """Spans and counters of one traced run."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter,
                 max_spans: int = 2_000_000):
        self.clock = clock
        self.max_spans = max_spans
        self.names: List[str] = []
        self._name_ids: Dict[str, int] = {}
        self.requests: List[str] = []
        self.request = -1
        self.s_name = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.s_parent = array("i")
        self.s_req = array("i")
        self.dropped = 0
        # open spans: [index or -1, metric, start, covered by children, name]
        self.stack: List[list] = []
        self.counts: Dict[str, int] = {}
        self.totals: Dict[str, float] = {}
        self.layer_self: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.maxima: Dict[str, float] = {}
        self._ctx_serial: Dict[int, int] = {}
        self._contexts = 0
        self._pairs: set = set()
        self._pairs_per_ctx: Dict[int, int] = {}

    # -- requests -------------------------------------------------------

    def set_request(self, label: Optional[str]) -> None:
        if label is None:
            self.request = -1
            return
        self.request = len(self.requests)
        self.requests.append(label)

    # -- spans ----------------------------------------------------------

    def _name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def begin(self, metric: str, name: Optional[str] = None) -> None:
        name = name or metric
        parent = self.stack[-1][0] if self.stack else -1
        if len(self.s_name) < self.max_spans:
            idx = len(self.s_name)
            self.s_name.append(self._name_id(name))
            self.s_start.append(0.0)
            self.s_end.append(0.0)
            self.s_parent.append(parent)
            self.s_req.append(self.request)
        else:
            idx = -1
            self.dropped += 1
        self.stack.append([idx, metric, self.clock(), 0.0, name])
        self.counts[name] = self.counts.get(name, 0) + 1
        if name != metric:
            self.counts[metric] = self.counts.get(metric, 0) + 1

    def end(self) -> None:
        now = self.clock()
        idx, metric, start, covered, name = self.stack.pop()
        dur = now - start
        if idx >= 0:
            self.s_start[idx] = start
            self.s_end[idx] = now
        self.totals[metric] = self.totals.get(metric, 0.0) + dur
        if name != metric:
            self.totals[name] = self.totals.get(name, 0.0) + dur
        layer = metric.split(".", 1)[0]
        self.layer_self[layer] += dur - covered
        if self.stack:
            self.stack[-1][3] += dur

    def count(self, metric: str, n: int = 1) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def peak(self, metric: str, value: float) -> None:
        if value > self.maxima.get(metric, 0):
            self.maxima[metric] = value

    # -- per-context distinct mono_mul pairs ----------------------------

    def new_context(self, ctx) -> None:
        # ids are reused only after the old context died, so re-serialising
        # on construction keeps the pair sets of distinct contexts apart.
        self._contexts += 1
        self._ctx_serial[id(ctx)] = self._contexts

    def mono_pair(self, ctx, m1, m2) -> None:
        serial = self._ctx_serial.get(id(ctx), -1)
        key = (serial, m1, m2)
        if key not in self._pairs:
            self._pairs.add(key)
            n = self._pairs_per_ctx.get(serial, 0) + 1
            self._pairs_per_ctx[serial] = n
            self.peak("que.mono_mul.cache_size", n)

    # -- output ---------------------------------------------------------

    def spans(self) -> List[Tuple[str, float, float, int]]:
        return [(self.names[self.s_name[i]], self.s_start[i], self.s_end[i],
                 self.s_parent[i]) for i in range(len(self.s_name))]

    def write(self, path: str) -> None:
        """One JSON line per span: name, start, end (seconds on the
        recorder's clock), parent index, request label."""
        with open(path, "w") as fh:
            fh.write(json.dumps({"spans": len(self.s_name),
                                 "dropped": self.dropped,
                                 "fields": ["name", "start", "end", "parent",
                                            "request"]}) + "\n")
            for i in range(len(self.s_name)):
                r = self.s_req[i]
                fh.write(json.dumps([
                    self.names[self.s_name[i]],
                    round(self.s_start[i], 7), round(self.s_end[i], 7),
                    self.s_parent[i],
                    self.requests[r] if r >= 0 else None]) + "\n")

    def metrics(self) -> Dict[str, Tuple[float, str]]:
        """The per-layer metrics, every one present (0 where the layer was
        not called)."""
        c = self.counts.get
        t = self.totals.get
        mx = self.maxima.get
        out: Dict[str, Tuple[float, str]] = {}
        for cid in CHECK_IDS:
            out["cli.check.%s.s" % cid] = (t("cli.check." + cid, 0.0), "s")
        for expr in EXPRESSIONS:
            out["cli.compute.%s.calls" % expr] = (
                c("cli.compute." + expr, 0), "count")
            out["cli.compute.%s.s" % expr] = (t("cli.compute." + expr, 0.0), "s")
        out["cli.report.s"] = (t("cli.report", 0.0), "s")
        out["cli.self_s"] = (self.layer_self["cli"], "s")
        for name in ("series_new", "series_mul", "series_add", "series_inv",
                     "series_is_zero"):
            out["kernel.%s.calls" % name] = (c("kernel." + name, 0), "count")
        adds = c("linalg.echelon_add", 0)
        grew = c("linalg.echelon_add.grew", 0)
        out["linalg.echelon_add.calls"] = (adds, "count")
        out["linalg.echelon_add.grew"] = (grew, "count")
        out["linalg.echelon_add.useful_ratio"] = (
            grew / adds if adds else 0.0, "ratio")
        out["linalg.echelon_add.s"] = (t("linalg.echelon_add", 0.0), "s")
        out["linalg.echelon_reduce.calls"] = (
            c("linalg.echelon_reduce", 0), "count")
        out["linalg.echelon_reduce.s"] = (
            t("linalg.echelon_reduce", 0.0), "s")
        out["linalg.echelon.max_rank"] = (mx("linalg.echelon.max_rank", 0),
                                          "count")
        out["linalg.dense.calls"] = (c("linalg.dense", 0), "count")
        out["linalg.dense.s"] = (t("linalg.dense", 0.0), "s")
        out["linalg.self_s"] = (self.layer_self["linalg"], "s")
        out["liebialg.calls"] = (c(LIEBIALG_METRIC, 0), "count")
        out["liebialg.s"] = (t(LIEBIALG_METRIC, 0.0), "s")
        out["liebialg.self_s"] = (self.layer_self["liebialg"], "s")
        out["cgx.irrep.calls"] = (c("cgx.irrep", 0), "count")
        out["cgx.irrep.builds"] = (c("cgx.irrep_build", 0), "count")
        out["cgx.irrep.build_s"] = (t("cgx.irrep_build", 0.0), "s")
        out["cgx.irrep.max_dim"] = (mx("cgx.irrep.max_dim", 0), "count")
        out["cgx.cg.calls"] = (c("cgx.cg", 0), "count")
        out["cgx.cg.builds"] = (c("cgx.cg_build", 0), "count")
        out["cgx.cg.build_s"] = (t("cgx.cg_build", 0.0), "s")
        for name in ("pw_multiply", "bracket"):
            out["cgx.%s.calls" % name] = (c("cgx." + name, 0), "count")
            out["cgx.%s.s" % name] = (t("cgx." + name, 0.0), "s")
        out["cgx.self_s"] = (self.layer_self["cgx"], "s")
        out["que.mono_mul.calls"] = (c("que.mono_mul", 0), "count")
        out["que.mono_mul.cache_size"] = (mx("que.mono_mul.cache_size", 0),
                                          "count")
        for name in ("element_mul", "tensor_mul", "coproduct"):
            out["que.%s.calls" % name] = (c("que." + name, 0), "count")
            out["que.%s.s" % name] = (t("que." + name, 0.0), "s")
        out["que.twist.s"] = (t("que.twist", 0.0), "s")
        out["que.qcg.builds"] = (c("que.qcg_build", 0), "count")
        out["que.qcg.build_s"] = (t("que.qcg_build", 0.0), "s")
        for name in ("q_multiply", "affine_multiply"):
            out["que.%s.calls" % name] = (c("que." + name, 0), "count")
            out["que.%s.s" % name] = (t("que." + name, 0.0), "s")
        out["que.self_s"] = (self.layer_self["que"], "s")
        out["coiso.window.builds"] = (c("coiso.window", 0), "count")
        out["coiso.window.s"] = (t("coiso.window", 0.0), "s")
        out["coiso.window.max_rank"] = (mx("coiso.window.max_rank", 0),
                                        "count")
        out["coiso.ideal.builds"] = (c("coiso.ideal", 0), "count")
        out["coiso.ideal.s"] = (t("coiso.ideal", 0.0), "s")
        out["coiso.membership.s"] = (t("coiso.membership", 0.0), "s")
        out["coiso.monoid.product.calls"] = (c("coiso.monoid.product", 0),
                                             "count")
        out["coiso.monoid.product.s"] = (t("coiso.monoid.product", 0.0), "s")
        out["coiso.semi_invariants.s"] = (t("coiso.semi_invariants", 0.0), "s")
        out["coiso.sections.s"] = (t("coiso.sections", 0.0), "s")
        out["coiso.self_s"] = (self.layer_self["coiso"], "s")
        return out


# -- wrappers -----------------------------------------------------------------


def _after(rec: Recorder, metric: str, args, result) -> None:
    """Counts that need the call's arguments or result."""
    if metric == "linalg.echelon_add":
        if result:
            rec.count("linalg.echelon_add.grew")
        rec.peak("linalg.echelon.max_rank", len(args[0]))
    elif metric == "cgx.irrep_build":
        rec.peak("cgx.irrep.max_dim", result.dim)
    elif metric == "coiso.window":
        window = result if result is not None else args[0]
        rec.peak("coiso.window.max_rank", len(window.span))


_NEEDS_AFTER = {"linalg.echelon_add", "cgx.irrep_build", "coiso.window"}


def _span_wrapper(rec: Recorder, fn, metric: str):
    after = metric in _NEEDS_AFTER
    stack = rec.stack

    def wrapper(*args, **kwargs):
        # A call nested directly in a span of the same metric (contains ->
        # reduce, nullspace -> rref, a liebialg helper calling another) is
        # part of the outer span.
        if stack and stack[-1][1] == metric:
            return fn(*args, **kwargs)
        rec.begin(metric)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.end()
        if after:
            _after(rec, metric, args, result)
        return result

    return wrapper


def _check_wrapper(rec: Recorder, fn):
    def wrapper(report, check_id, *args, **kwargs):
        outer = rec.request
        rec.set_request(check_id)
        rec.begin("cli.check", "cli.check." + check_id)
        try:
            return fn(report, check_id, *args, **kwargs)
        finally:
            rec.end()
            rec.request = outer

    return wrapper


def _count_wrapper(rec: Recorder, fn, metric: str):
    counts = rec.counts

    if metric == "que.mono_mul":
        def wrapper(ctx, m1, m2):
            counts[metric] = counts.get(metric, 0) + 1
            rec.mono_pair(ctx, m1, m2)
            return fn(ctx, m1, m2)
    elif metric == "que.context":
        def wrapper(self, *args, **kwargs):
            counts[metric] = counts.get(metric, 0) + 1
            rec.new_context(self)
            return fn(self, *args, **kwargs)
    else:
        def wrapper(*args, **kwargs):
            counts[metric] = counts.get(metric, 0) + 1
            return fn(*args, **kwargs)
    return wrapper


class Instrumentation:
    """Installs the wrappers into every qaffine namespace and removes them
    again on exit.  Use as a context manager around the traced region."""

    def __init__(self, rec: Recorder):
        self.rec = rec
        self._undo: List[Tuple[object, str, object]] = []

    def _modules(self):
        import qaffine  # noqa: F401  (loads every submodule)

        return {name: mod for name, mod in sys.modules.items()
                if name == "qaffine" or name.startswith("qaffine.")}

    def _replace_everywhere(self, modules, original, wrapper) -> None:
        for mod in modules.values():
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, attr, value))
                    setattr(mod, attr, wrapper)

    def __enter__(self) -> "Instrumentation":
        modules = self._modules()
        rec = self.rec
        targets = list(TARGETS)
        lie = modules["qaffine.liebialg"]
        for attr, value in sorted(vars(lie).items()):
            if (callable(value) and not attr.startswith("_")
                    and not isinstance(value, type)
                    and getattr(value, "__module__", None) == lie.__name__):
                targets.append(("liebialg", attr, LIEBIALG_METRIC, SPAN))
        for module, path, metric, mode in targets:
            owner = modules["qaffine." + module]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = vars(owner)[attr]
            if metric == "cli.check":
                wrapper = _check_wrapper(rec, original)
            elif mode == SPAN:
                wrapper = _span_wrapper(rec, original, metric)
            else:
                wrapper = _count_wrapper(rec, original, metric)
            wrapper.__wrapped__ = original
            wrapper.__name__ = getattr(original, "__name__", attr)
            if outer:
                # Class attribute: one object, shared by every importer.
                # Aliases such as __radd__ = __add__ get the same wrapper.
                self._undo.append((owner, attr, original))
                setattr(owner, attr, wrapper)
            else:
                self._replace_everywhere(modules, original, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, value in reversed(self._undo):
            setattr(owner, attr, value)
        self._undo.clear()
