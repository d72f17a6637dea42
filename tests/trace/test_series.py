"""Counter time-series: bucketing, the merge algebra, rendering."""

from repro import telemetry
from repro.libc.builtins import _SMASHES_DETECTED
from repro.trace import SeriesSampler, merge_series, render_series

import pytest


def point(request, requests, cycles, **counters):
    return {
        "request": request,
        "requests": requests,
        "cycles": float(cycles).hex(),
        "counters": dict(counters),
    }


class TestSeriesSampler:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            SeriesSampler(0)

    def test_buckets_close_on_interval_and_tail(self):
        sampler = SeriesSampler(2)
        sampler.start(0.0)
        clock = 0.0
        for _ in range(5):
            _SMASHES_DETECTED.inc()
            clock += 10.0
            sampler.on_request(clock)
        points = sampler.finish(clock)
        assert [p["requests"] for p in points] == [2, 2, 1]
        assert [p["request"] for p in points] == [2, 4, 5]
        assert float.fromhex(points[0]["cycles"]) == 20.0
        assert float.fromhex(points[2]["cycles"]) == 10.0
        # Deltas, not absolutes: each bucket sees only its own ticks.
        assert points[0]["counters"]["canary_smashes_detected_total"] == 2
        assert points[2]["counters"]["canary_smashes_detected_total"] == 1

    def test_no_tail_point_when_aligned(self):
        sampler = SeriesSampler(3)
        sampler.start(0.0)
        for index in range(6):
            sampler.on_request(float(index + 1))
        assert len(sampler.finish(6.0)) == 2

    def test_counter_reads_never_register_an_instrument(self):
        # The sampler must read, never create: tracing cannot grow the
        # audited counter set of the run it observes.
        names_before = set(telemetry.registry().instruments())
        sampler = SeriesSampler(1)
        sampler.start(0.0)
        sampler.on_request(1.0)
        sampler.finish(1.0)
        assert set(telemetry.registry().instruments()) == names_before


class TestMergeSeries:
    def test_empty_is_identity(self):
        series = [point(2, 2, 20.0, fleet_requests_total=2)]
        assert merge_series([series, []]) == series
        assert merge_series([[], series]) == series
        assert merge_series([]) == []

    def test_bucketwise_fold(self):
        a = [point(2, 2, 20.0, fleet_requests_total=2),
             point(4, 2, 20.0, fleet_requests_total=2)]
        b = [point(2, 2, 30.0, fleet_requests_total=2,
                   canary_smashes_detected_total=1)]
        merged = merge_series([a, b])
        assert len(merged) == 2
        assert merged[0]["requests"] == 4
        assert float.fromhex(merged[0]["cycles"]) == 50.0
        assert merged[0]["counters"]["fleet_requests_total"] == 4
        assert merged[0]["counters"]["canary_smashes_detected_total"] == 1
        # The shorter slice simply doesn't contribute to later buckets.
        assert merged[1]["requests"] == 2

    def test_associative(self):
        a = [point(2, 2, 10.0, fleet_requests_total=2)]
        b = [point(2, 2, 12.0, fleet_requests_total=2),
             point(4, 2, 12.0, fleet_requests_total=2)]
        c = [point(2, 2, 14.0, fleet_requests_total=2)]
        left = merge_series([merge_series([a, b]), c])
        right = merge_series([a, merge_series([b, c])])
        assert left == right == merge_series([a, b, c])

    def test_merge_does_not_mutate_inputs(self):
        a = [point(2, 2, 10.0, fleet_requests_total=2)]
        b = [point(2, 2, 12.0, fleet_requests_total=2)]
        snapshot = [dict(p, counters=dict(p["counters"])) for p in a]
        merge_series([a, b])
        assert a == snapshot


class TestRenderSeries:
    def test_renders_rows_and_rates(self):
        text = render_series([
            point(2, 2, 700.0, canary_smashes_detected_total=1,
                  fleet_request_crashes_total=2, faults_delivered_total=3),
        ])
        assert "bucket" in text and "0" in text
        assert "0.500" in text  # 1 detection / 2 requests

    def test_renders_empty_series(self):
        assert "no series points" in render_series([])
