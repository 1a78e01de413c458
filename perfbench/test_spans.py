"""Tests of the benchmark's own arithmetic on synthetic spans and results.

Run from the root of the checkout: python3 -m pytest perfbench/test_spans.py
"""
import math

import pytest

import layers
from spans import Recorder, fail_ratio, ks_ratio, median, self_times, tail_percentile, timing


def span(name, start, end, parent=-1, job=0, attrs=None):
    return [name, start, end, parent, job, attrs or {}]


def test_self_time_leaf_is_duration():
    assert self_times([span("a", 1.0, 3.5)]) == [2.5]


def test_self_time_back_to_back_children():
    spans = [span("p", 0.0, 10.0), span("c", 1.0, 3.0, 0), span("c", 3.0, 6.0, 0)]
    assert self_times(spans) == pytest.approx([5.0, 2.0, 3.0])


def test_self_time_nested_children_count_once():
    # the grandchild lies inside the child: only the child is subtracted from p
    spans = [span("p", 0.0, 10.0), span("c", 2.0, 8.0, 0), span("g", 3.0, 5.0, 1)]
    assert self_times(spans) == pytest.approx([4.0, 4.0, 2.0])


def test_self_time_overlapping_and_overhanging_children():
    # children that overlap are covered once; a child reaching past its
    # parent is clipped to the parent's interval
    spans = [span("p", 0.0, 10.0), span("c", 1.0, 4.0, 0), span("c", 3.0, 5.0, 0),
             span("c", 9.0, 12.0, 0)]
    assert self_times(spans)[0] == pytest.approx(10.0 - 4.0 - 1.0)


def test_self_times_partition_the_top_span():
    spans = [span("p", 0.0, 7.0), span("c", 1.0, 2.0, 0), span("c", 2.0, 4.0, 0),
             span("g", 2.5, 3.0, 2)]
    assert sum(self_times(spans)) == pytest.approx(7.0)


def test_median_odd_and_even():
    assert median([3.0, 1.0, 2.0]) == 2.0
    assert median([4.0, 1.0, 3.0, 2.0]) == 2.5


def test_tail_percentile_needs_ten_beyond():
    assert tail_percentile(list(range(19))) is None
    # 20 samples: the median (rank 10) leaves exactly 10 above it
    assert tail_percentile(list(range(1, 21))) == (50, 10)


def test_tail_percentile_picks_highest_with_ten_beyond():
    values = list(range(1, 101))
    assert tail_percentile(values) == (90, 90)
    values = list(range(1, 1001))
    assert tail_percentile(values) == (99, 990)


def test_tail_percentile_with_ragged_count():
    # 37 samples: p72 is rank ceil(26.64) = 27 with 10 above; p73 is rank 28
    p, value = tail_percentile(list(range(1, 38)))
    assert (p, value) == (72, 27)


def test_timing_reports_count_and_tail():
    out = timing([float(v) for v in range(1, 101)])
    assert out == {"median": 50.5, "count": 100, "p90": 90.0}
    assert "p50" not in timing([1.0, 2.0])


def test_ks_ratio_is_mean_of_batch_ratios():
    rows = 10_000
    threshold = 1.628 / math.sqrt(rows)
    assert ks_ratio([(threshold, rows), (2 * threshold, rows)]) == pytest.approx(1.5)
    assert ks_ratio([(0.5 * 1.628 / 10.0, 100)]) == pytest.approx(0.5)
    with pytest.raises(ValueError):
        ks_ratio([])


def test_fail_ratio_counts_against_attempted():
    assert fail_ratio(34, 4) == pytest.approx(4 / 34)
    assert fail_ratio(10, 0) == 0.0
    with pytest.raises(ValueError):
        fail_ratio(0, 0)


def test_recorder_nests_spans_and_keeps_job():
    class Owner:
        def outer(self):
            return self.inner() + 1

        def inner(self):
            return 1

    rec = Recorder()
    rec.install(Owner, "outer", "outer")
    rec.install(Owner, "inner", "inner", lambda a, k, r, e: {"result": r})
    rec.job = 7
    assert Owner().outer() == 2
    rec.uninstall()
    assert Owner().outer() == 2 and len(rec.spans) == 2
    outer, inner = rec.spans
    assert (outer[0], outer[3], outer[4]) == ("outer", -1, 7)
    assert (inner[0], inner[3], inner[5]) == ("inner", 0, {"result": 1})
    assert outer[1] <= inner[1] <= inner[2] <= outer[2]


def test_recorder_closes_span_on_exception():
    rec = Recorder()

    def boom():
        raise ValueError("guard exceeded")

    wrapped = rec.wrap("f", boom, lambda a, k, r, e: {"error": str(e)})
    with pytest.raises(ValueError):
        wrapped()
    assert rec.spans[0][2] is not None and rec.spans[0][5] == {"error": "guard exceeded"}


def test_per_layer_counts_setup_once_and_rounds_on_average():
    setup = [span("cauchy_mix.build", 0.0, 4.0, job=None)]
    rounds = [
        span("cauchy_mix.sample", 10.0, 13.0, job=0),
        span("cauchy_mix.cell", 10.5, 11.5, 0, job=0),
        span("rearrangement.ra_flatten", 10.6, 11.0, 1, job=0,
             attrs={"sweeps": 4, "converged": 1}),
        span("cauchy_mix.sample", 20.0, 22.0, job=1),
        span("cauchy_mix.cell", 20.5, 20.6, 3, job=1),
    ]
    out = layers.per_layer([setup, rounds], rounds=2)
    value = {name: metric["value"] for name, metric in out.items()}
    assert value["cauchy_mix.build.calls"] == 1 and value["cauchy_mix.build_s"] == 4.0
    assert value["cauchy_mix.sample_self_s"] == pytest.approx((2.0 + 1.9) / 2)
    assert value["cauchy_mix.cell.calls"] == 1.0
    assert value["cauchy_mix.cell.built"] == 0.5
    assert value["cauchy_mix.cell.hit_ratio"] == pytest.approx(0.5)
    assert value["cauchy_mix.cell_self_s"] == pytest.approx((0.6 + 0.1) / 2)
    assert value["rearrangement.ra_sweeps"] == 2.0
    assert value["rearrangement.ra_converged_ratio"] == 1.0
    assert value["discrete_mix.feasible_center.calls"] == 0
    assert set(out) == set(layers.METRICS)
