"""Declared instrument handles: the first-enabled-record rule.

Each test swaps in a fresh registry, so the handles it declares never
reach the process-wide registry the other tests read.
"""

import pytest

from repro import telemetry
from repro.telemetry import Registry


@pytest.fixture
def fresh(monkeypatch):
    registry = Registry()
    monkeypatch.setattr(telemetry, "_REGISTRY", registry)
    return registry


def test_disabled_records_create_nothing(fresh):
    count = telemetry.counter("probe_total", "probe counter")
    latency = telemetry.histogram("probe_cycles", (10.0,), "probe histogram")
    fresh.disable()
    count.inc()
    latency.observe(3)
    assert fresh.instruments() == []


def test_first_enabled_record_registers_with_help(fresh):
    count = telemetry.counter("probe_total", "probe counter")
    assert fresh.instruments() == []
    count.inc(2)
    count.inc()
    assert fresh.value("probe_total") == 3
    assert fresh.counter("probe_total").help == "probe counter"


def test_handle_keeps_its_instrument_across_reset(fresh):
    count = telemetry.counter("probe_total", "probe counter")
    count.inc(5)
    fresh.reset()
    count.inc()
    assert fresh.value("probe_total") == 1
    assert fresh.instruments() == [fresh.counter("probe_total")]


def test_histogram_handle_uses_its_declared_bounds(fresh):
    latency = telemetry.histogram("probe_cycles", (10.0, 100.0), "probe histogram")
    for value in (5, 50, 500):
        latency.observe(value)
    snap = fresh.snapshot()["probe_cycles"]
    assert snap["counts"] == [1, 1, 1]
    assert snap["count"] == 3


def test_unrecorded_handle_never_appears_in_a_snapshot(fresh):
    telemetry.counter("probe_total", "probe counter")
    assert "probe_total" not in fresh.snapshot()


def test_leader_counters_are_registered_at_import():
    names = {instrument.name for instrument in telemetry.registry().instruments()}
    assert {
        "canary_prologue_stores_total", "canary_epilogue_checks_total",
    } <= names
