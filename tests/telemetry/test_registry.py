"""Instrument semantics: counters, gauges, histograms, the ring."""

import pytest

from repro import telemetry
from repro.telemetry.events import EventRing
from repro.telemetry.registry import (
    Counter,
    Gauge,
    Histogram,
    Registry,
)


class TestCounter:
    def test_monotonic_add(self):
        counter = Counter("c")
        counter.add()
        counter.add(4)
        assert counter.value == 5

    def test_negative_add_rejected(self):
        counter = Counter("c")
        with pytest.raises(ValueError, match="negative"):
            counter.add(-1)

    def test_reset(self):
        counter = Counter("c")
        counter.add(7)
        counter.reset()
        assert counter.snapshot() == 0


class TestGauge:
    def test_set_and_add_both_directions(self):
        gauge = Gauge("g")
        gauge.set(10)
        gauge.add(-3)
        assert gauge.value == 7


class TestHistogram:
    def test_bounds_must_ascend(self):
        with pytest.raises(ValueError, match="ascend"):
            Histogram("h", bounds=(10.0, 1.0))
        with pytest.raises(ValueError, match="ascend"):
            Histogram("h", bounds=())

    def test_bucket_placement_including_inf(self):
        histogram = Histogram("h", bounds=(10.0, 100.0))
        histogram.observe(5)      # <= 10
        histogram.observe(10)     # <= 10 (upper bounds are inclusive)
        histogram.observe(50)     # <= 100
        histogram.observe(1000)   # +Inf
        assert histogram.counts == [2, 1, 1]
        assert histogram.count == 4
        assert histogram.total == 1065

    def test_reset(self):
        histogram = Histogram("h", bounds=(1.0,))
        histogram.observe(2)
        histogram.reset()
        assert histogram.snapshot() == {
            "bounds": [1.0], "counts": [0, 0], "sum": 0.0, "count": 0,
        }


class TestRegistry:
    def test_lookup_returns_same_instrument(self):
        registry = Registry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_mismatch_rejected(self):
        registry = Registry()
        registry.counter("x")
        with pytest.raises(ValueError, match="already registered"):
            registry.gauge("x")

    def test_snapshot_and_delta(self):
        registry = Registry()
        registry.counter("a").add(2)
        registry.histogram("h", bounds=(10.0,)).observe(3)
        before = registry.snapshot()
        registry.counter("a").add(5)
        registry.counter("new").add(1)
        registry.histogram("h", bounds=(10.0,)).observe(100)
        delta = registry.delta(before)
        assert delta["a"] == 5
        assert delta["new"] == 1  # created after the snapshot: full value
        assert delta["h"] == {
            "bounds": [10.0], "counts": [0, 1], "sum": 100.0, "count": 1,
        }

    def test_generation_bumps_only_on_state_flips(self):
        registry = Registry()
        start = registry.generation
        registry.enable()           # already enabled: no bump
        assert registry.generation == start
        registry.disable()
        registry.disable()          # already disabled: no bump
        registry.enable()
        registry.reset()
        assert registry.generation == start + 3

    def test_reset_zeroes_but_keeps_structure(self):
        registry = Registry()
        registry.counter("a", "kept help").add(9)
        registry.reset()
        assert registry.counter("a").value == 0
        assert registry.counter("a").help == "kept help"

    def test_render_prometheus(self):
        registry = Registry()
        registry.counter("hits", "hits observed").add(3)
        histogram = registry.histogram("lat", bounds=(10.0, 100.0))
        histogram.observe(5)
        histogram.observe(50)
        histogram.observe(500)
        text = registry.render_prometheus()
        assert "# HELP hits hits observed" in text
        assert "# TYPE hits counter" in text
        assert "hits 3" in text
        # Buckets are cumulative, with the implicit +Inf last.
        assert 'lat_bucket{le="10"} 1' in text
        assert 'lat_bucket{le="100"} 2' in text
        assert 'lat_bucket{le="+Inf"} 3' in text
        assert "lat_sum 555" in text
        assert "lat_count 3" in text


class TestEventRing:
    def test_bounded_with_drop_accounting(self):
        ring = EventRing(capacity=3)
        for index in range(5):
            ring.emit("smash-detected", index=index)
        events = ring.events()
        assert len(events) == 3
        assert ring.dropped == 2
        # Oldest evicted; sequence numbers keep counting.
        assert [event.seq for event in events] == [2, 3, 4]

    def test_sampling_defaults_off(self):
        ring = EventRing()
        ring.emit_sampled("prologue-store")
        assert ring.events() == []
        assert ring.sampled_out == 1

    def test_sampling_keeps_one_in_n(self):
        ring = EventRing(sample_every=3)
        for _ in range(9):
            ring.emit_sampled("prologue-store")
        assert len(ring.events()) == 3
        assert ring.sampled_out == 6

    def test_clear(self):
        ring = EventRing(sample_every=1)
        ring.emit("degradation")
        ring.emit_sampled("rdrand-draw")
        ring.clear()
        assert ring.events() == []
        assert ring.dropped == 0 and ring.sampled_out == 0

    def test_to_json_shape(self):
        ring = EventRing()
        # A field named like a top-level key must survive untouched:
        # payload fields nest under "fields" instead of merging in.
        ring.emit("shadow-refresh", pid=4, kind="decoy", seq=99)
        payload = ring.to_json()
        assert payload["events"] == [
            {
                "seq": 0,
                "kind": "shadow-refresh",
                "fields": {"pid": 4, "kind": "decoy", "seq": 99},
            }
        ]
        assert payload["capacity"] == 512

    def test_event_json_roundtrip(self):
        from repro.telemetry.events import Event

        ring = EventRing()
        ring.emit("fork", pid=7, pages=3)
        restored = Event.from_json(ring.events()[0].to_json())
        assert restored == ring.events()[0]

    def test_sample_every_one_keeps_everything(self):
        ring = EventRing(sample_every=1)
        for index in range(5):
            ring.emit_sampled("prologue-store", index=index)
        assert [event.fields["index"] for event in ring.events()] == \
            [0, 1, 2, 3, 4]
        assert ring.sampled_out == 0

    def test_clear_resets_sampling_phase(self):
        # clear() is a full reset: the 1-in-N phase restarts too, so a
        # cleared ring samples exactly like a freshly constructed one —
        # anything less would make replayed campaigns diverge from fresh
        # ones in which events they keep.
        ring = EventRing(sample_every=3)
        ring.emit_sampled("prologue-store")   # counter 1: sampled out
        ring.emit_sampled("prologue-store")   # counter 2: sampled out
        ring.clear()
        assert ring.sampled_out == 0
        kept_after_clear = []
        for index in range(6):
            ring.emit_sampled("prologue-store", index=index)
            kept_after_clear.append(len(ring.events()))
        fresh = EventRing(sample_every=3)
        kept_fresh = []
        for index in range(6):
            fresh.emit_sampled("prologue-store", index=index)
            kept_fresh.append(len(fresh.events()))
        assert kept_after_clear == kept_fresh == [0, 0, 1, 1, 1, 2]

    def test_dropped_at_exact_capacity_boundary(self):
        ring = EventRing(capacity=4)
        for index in range(4):
            ring.emit("request", index=index)
        # Exactly full: nothing dropped yet.
        assert ring.dropped == 0
        assert [event.seq for event in ring.events()] == [0, 1, 2, 3]
        ring.emit("request", index=4)
        # One past capacity: exactly one dropped, oldest-first preserved.
        assert ring.dropped == 1
        assert [event.seq for event in ring.events()] == [1, 2, 3, 4]

    def test_emit_is_constant_time_when_full(self):
        # The old eviction (`del buffer[0]`) cost O(capacity) per emit;
        # the index-wrapped ring must not.  Emitting into a full ring of
        # 100_000 slots should cost about the same as into one of 100 —
        # under list-shifting it would be ~1000x slower.
        import time

        def emit_cost(capacity: int, emissions: int) -> float:
            ring = EventRing(capacity=capacity)
            for _ in range(capacity):     # pre-fill to capacity
                ring.emit("fill")
            start = time.perf_counter()
            for _ in range(emissions):
                ring.emit("hot", index=1)
            return time.perf_counter() - start

        emissions = 100_000
        small = emit_cost(100, emissions)
        large = emit_cost(100_000, emissions)
        assert large < small * 25, (
            f"emit into a full ring scales with capacity: "
            f"{large:.4f}s vs {small:.4f}s"
        )

    def test_capacity_must_be_positive(self):
        with pytest.raises(ValueError):
            EventRing(capacity=0)


class TestModuleHelpers:
    def test_count_noop_while_disabled(self):
        before = telemetry.snapshot()
        telemetry.disable()
        try:
            telemetry.count("canary_smashes_detected_total")
        finally:
            telemetry.enable()
        assert telemetry.delta(before).get(
            "canary_smashes_detected_total", 0
        ) == 0

    def test_event_noop_while_disabled(self):
        held = len(telemetry.ring().events())
        telemetry.disable()
        try:
            telemetry.event("degradation", reason="test")
        finally:
            telemetry.enable()
        assert len(telemetry.ring().events()) == held

    def test_canary_hooks_none_while_disabled(self):
        telemetry.disable()
        try:
            assert telemetry.canary_hooks() is None
        finally:
            telemetry.enable()
        assert telemetry.canary_hooks() is not None
