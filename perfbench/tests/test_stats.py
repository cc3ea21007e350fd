import pytest

import stats


def test_median_alone_below_forty_samples():
    values = list(range(1, 40))
    assert stats.tail(values) == (None, 20)


def test_no_percentile_without_ten_samples_beyond():
    # p90 of 99 samples is the 90th value, with only 9 beyond it
    values = list(range(1, 100))
    assert stats.tail(values) == (None, 50)


def test_p90_with_ten_beyond():
    values = list(range(1, 101))
    assert stats.tail(values) == (90.0, 90)
    assert stats.tail(list(reversed(values))) == (90.0, 90)


def test_highest_qualifying_percentile():
    assert stats.tail(list(range(1, 1001))) == (99.0, 990)
    assert stats.tail(list(range(1, 10001))) == (99.9, 9990)


def test_nearest_rank_percentile():
    assert stats.percentile([5, 1, 4, 2, 3], 50) == 3
    assert stats.percentile([5, 1, 4, 2, 3], 90) == 5
    assert stats.percentile([5, 1, 4, 2, 3], 1) == 1


def test_quartile_spread():
    # statistics.quantiles (exclusive) of 1..9: q1 = 2.5, q3 = 7.5; median 5
    assert stats.quartile_spread(range(1, 10)) == pytest.approx(1.0)
    assert stats.quartile_spread([2.0] * 10) == 0.0


def test_unit_medians_take_wall_and_cpu_apart_and_skip_missing_units():
    rounds = [[[3.0, 2.0], None, [1.0, 1.0]],
              [[1.0, 4.0], None, None],
              [[2.0, 3.0], None, [5.0, 3.0]]]
    assert stats.unit_medians(rounds) == [(2.0, 3.0), (0.0, 0.0), (3.0, 2.0)]
