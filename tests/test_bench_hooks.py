"""The traced benchmark (perfbench/spans.py) wraps program functions by
name.  Entering and leaving its instrumentation here makes a rename of a
hooked function, or two hooked names bound to one function, fail the
test suite instead of only the traced run."""

import importlib
import sys
from pathlib import Path

from qaffine import cgx
from qaffine.cli import main
from qaffine.liebialg import build_sl
from qaffine.que import UqContext, uq_gen

BENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _qaffine_namespaces():
    return {name: dict(vars(mod)) for name, mod in sys.modules.items()
            if name == "qaffine" or name.startswith("qaffine.")}


def _hooked(spans):
    """Every function the recorder wraps, looked up the way it does."""
    out = {}
    for module, path, _, _ in spans.TARGETS:
        owner = importlib.import_module("qaffine." + module)
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        out[(module, path)] = vars(owner)[attr]
    return out


def test_bench_hooks_wrap_and_restore(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(BENCH))
    import spans

    before = _qaffine_namespaces()
    hooked = _hooked(spans)
    rec = spans.Recorder()
    with spans.Instrumentation(rec):
        assert main(["compute", "bracket", "sl2", "product",
                     "1:0", "1:1"]) == 0
        assert main(["compute", "qmultiply", "1:0", "1:1",
                     "--hbar-order", "2"]) == 0
        # the element product is the tensor product, bound a second time
        # as UqElement.__mul__: one product is one element_mul span
        ctx = UqContext(2)
        counted = dict(rec.counts)
        uq_gen(ctx, "E") * uq_gen(ctx, "F")
        for metric, grew in (("que.element_mul", 1), ("que.tensor_mul", 0)):
            assert rec.counts.get(metric, 0) - counted.get(metric, 0) == grew
        # a bracket is one contraction and multiplies nothing through
        # pw_multiply, so the product hook is entered here; the lookup goes
        # through the module, where the recorder put its wrapper
        f = cgx.hw_coefficient(cgx.PWContext(build_sl(2)), (1,), {0: 1})
        cgx.pw_multiply(f, f)
    capsys.readouterr()
    # one call each: a function wrapped twice would count twice
    for metric in ("cgx.bracket", "que.q_multiply", "que.qcg_build"):
        assert rec.counts.get(metric) == 1, metric
    assert rec.counts.get("cgx.pw_multiply", 0) >= 1
    assert _qaffine_namespaces() == before
    assert _hooked(spans) == hooked
