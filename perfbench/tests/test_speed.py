import pytest

import speed


def probe_at(starts, durations):
    p = speed.SpeedProbe()
    p.starts, p.durations = list(starts), list(durations)
    return p


def test_mean_speed_is_the_mean_of_the_probe_speeds():
    ref = speed.REF_S
    # one probe at the reference speed, one at half of it
    assert speed.mean_speed([ref, 2 * ref]) == pytest.approx(0.75)


def test_scale_removes_the_probes_and_applies_their_speed():
    ref = speed.REF_S
    p = probe_at([0.0, 1.0, 2.0, 3.0], [2 * ref, 2 * ref, 2 * ref, 2 * ref])
    # [0.5, 2.5] holds the probes at 1 and 2; the host ran at half speed
    wall, cpu = p.scale(0.5, 2.5, cpu=1.5)
    assert wall == pytest.approx((2.0 - 4 * ref) * 0.5)
    assert cpu == pytest.approx((1.5 - 4 * ref) * 0.5)


def test_scale_of_a_short_interval_uses_the_nearest_probes(monkeypatch):
    ref = speed.REF_S
    p = probe_at([0.0, 1.0, 2.0], [ref, 4 * ref, ref])
    # nothing ran inside [1.2, 1.3]; the probes at 1 and 2 are its neighbours
    monkeypatch.setattr(speed, "NEAR", 1)
    wall, cpu = p.scale(1.2, 1.3, cpu=0.1)
    assert wall == pytest.approx(0.1 * (0.25 + 1.0) / 2)
    assert cpu == pytest.approx(wall)


def test_probe_runs_while_the_block_runs_and_stops_after():
    import time

    with speed.SpeedProbe() as p:
        end = time.perf_counter() + 0.1
        while time.perf_counter() < end:
            pass
    n = len(p.durations)
    assert n >= 3 and len(p.starts) == n
    time.sleep(0.05)
    assert len(p.durations) == n
