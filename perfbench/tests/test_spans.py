from fractions import Fraction

import pytest

import spans


def test_self_time_hand_worked():
    # cli root 0..10 holds a linalg span 1..4, which holds a que span 2..3;
    # a second linalg span 5..6 sits directly under the root.
    recorded = [
        ("cli.run_suite", 0.0, 10.0, -1),
        ("linalg.echelon_add", 1.0, 4.0, 0),
        ("que.tensor_mul", 2.0, 3.0, 1),
        ("linalg.dense", 5.0, 6.0, 0),
    ]
    assert spans.self_times(recorded) == {"cli": 6.0, "linalg": 3.0, "que": 1.0}


class FakeClock:
    def __init__(self, times):
        self.times = list(times)

    def __call__(self):
        return self.times.pop(0)


def test_recorder_accumulates_the_same_self_time():
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 3, 4, 5, 6, 10]))
    rec.begin("cli.run_suite")
    rec.begin("linalg.echelon_add")
    rec.begin("que.tensor_mul")
    rec.end()
    rec.end()
    rec.begin("linalg.dense")
    rec.end()
    rec.end()
    want = spans.self_times(rec.spans())
    assert want == {"cli": 6.0, "linalg": 3.0, "que": 1.0}
    for layer, value in want.items():
        assert rec.layer_self[layer] == pytest.approx(value)
    assert rec.totals["linalg.echelon_add"] == 3.0
    assert rec.counts["linalg.echelon_add"] == 1


def test_span_cap_keeps_the_metrics():
    rec = spans.Recorder(clock=FakeClock([0, 1, 2, 4]), max_spans=1)
    rec.begin("cli.run_suite")
    rec.begin("cgx.bracket")
    rec.end()
    rec.end()
    assert len(rec.s_name) == 1 and rec.dropped == 1
    assert rec.layer_self["cgx"] == 1.0
    assert rec.layer_self["cli"] == 3.0


def test_instrumentation_counts_and_restores():
    from qaffine import coiso, linalg, que
    from qaffine.kernel import TruncatedSeries

    original = que.coproduct
    rec = spans.Recorder()
    with spans.Instrumentation(rec):
        # names bound at import time are wrapped too
        assert coiso.coproduct is que.coproduct
        assert coiso.coproduct is not original
        span = linalg.EchelonSpan()
        assert span.add({0: Fraction(1)})
        assert not span.add({0: Fraction(2)})
        assert span.contains({0: Fraction(3)})
        a = TruncatedSeries(2, [1, 1])
        (a * a - a).is_zero()
    assert que.coproduct is original and coiso.coproduct is original
    m = rec.metrics()
    assert m["linalg.echelon_add.calls"] == (2, "count")
    assert m["linalg.echelon_add.grew"] == (1, "count")
    assert m["linalg.echelon_add.useful_ratio"] == (0.5, "ratio")
    assert m["linalg.echelon.max_rank"] == (1, "count")
    # contains calls reduce: one span, not two
    assert m["linalg.echelon_reduce.calls"] == (1, "count")
    assert m["kernel.series_mul.calls"] == (1, "count")
    assert m["kernel.series_is_zero.calls"] == (1, "count")
    # a - b is counted as sub, neg and add
    assert m["kernel.series_add.calls"] == (3, "count")


def test_mono_mul_cache_size_is_per_context():
    from qaffine import que

    rec = spans.Recorder()
    with spans.Instrumentation(rec):
        for _ in range(2):
            ctx = que.UqContext(2)
            for m in ((0, 0, 1), (1, 0, 0), (0, 0, 1)):
                que.mono_mul(ctx, m, (1, 0, 0))
    m = rec.metrics()
    assert m["que.mono_mul.calls"][0] >= 6
    assert m["que.mono_mul.cache_size"] == (2, "count")


def test_every_per_layer_metric_is_reported():
    names = set(spans.Recorder().metrics())
    assert len(names) == 91
    assert "cli.check.classical.grading.s" in names
    assert "cli.compute.coiso-check.calls" in names
