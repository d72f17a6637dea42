"""SliceTracer: determinism, zero perturbation, causal structure."""

import json

import pytest

from repro import telemetry
from repro.fleet.campaign import run_fleet_slice
from repro.trace import SliceTracer, TraceConfig

SEED = 20180625
BUDGET = 120


def traced_slice(scheme="ssp", seed=SEED, budget=BUDGET, **config_kwargs):
    tracer = SliceTracer(
        scheme, seed, config=TraceConfig(series_interval=20, **config_kwargs)
    )
    record = run_fleet_slice(
        scheme, seed, request_budget=budget, tracer=tracer
    )
    return tracer, record


class TestTraceConfig:
    def test_roundtrip(self):
        config = TraceConfig(series_interval=7, ring_capacity=9,
                             transcript_limit=3, max_spans=11)
        assert TraceConfig.from_json(config.to_json()) == config

    @pytest.mark.parametrize("field", [
        "series_interval", "ring_capacity", "transcript_limit", "max_spans",
    ])
    def test_rejects_non_positive(self, field):
        with pytest.raises(ValueError):
            TraceConfig(**{field: 0})


class TestDeterminism:
    def test_tracing_does_not_perturb_the_slice(self):
        untraced = run_fleet_slice("ssp", SEED, request_budget=BUDGET)
        tracer, traced = traced_slice()
        # The tracer is a pure observer: the slice record — requests,
        # detections, breaches, cycles, audit — is byte-identical.
        assert traced.to_json() == untraced.to_json()
        assert traced.audit_divergences == []

    def test_two_runs_produce_identical_traces(self):
        first, _ = traced_slice()
        second, _ = traced_slice()
        assert json.dumps(first.trace.to_json(), sort_keys=True) == \
            json.dumps(second.trace.to_json(), sort_keys=True)

    def test_timestamps_are_guest_cycles_not_wall_clock(self):
        tracer, record = traced_slice()
        last_end = max(span.end_cycles for span in tracer.trace.spans)
        assert last_end == pytest.approx(record.cycles)
        assert tracer.clock == record.cycles


class TestCausalStructure:
    def test_requests_thread_to_their_session(self):
        tracer, _ = traced_slice()
        sessions = {
            span.span_id: span for span in tracer.trace.spans
            if span.category == "session"
        }
        requests = [
            span for span in tracer.trace.spans if span.category == "request"
        ]
        assert sessions and requests
        for span in requests:
            assert span.parent_id in sessions
        # Session spans cover their requests on the cycle timeline.
        for span in requests:
            parent = sessions[span.parent_id]
            assert parent.begin_cycles <= span.begin_cycles
            assert span.end_cycles <= parent.end_cycles

    def test_canary_lifecycle_rides_on_request_spans(self):
        tracer, record = traced_slice()
        requests = [
            span for span in tracer.trace.spans if span.category == "request"
        ]
        assert sum(1 for s in requests if s.args["smashed"]) == \
            record.detections
        assert any(s.args["epilogue_checks"] > 0 for s in requests)

    def test_breaches_surface_as_instants_and_bundles(self):
        tracer, record = traced_slice()
        assert record.breaches > 0  # ssp is breachable; the point of it
        breach_instants = [
            i for i in tracer.trace.instants if i.category == "breach"
        ]
        assert len(breach_instants) == record.breaches
        breach_bundles = [
            b for b in tracer.trace.bundles if b["trigger"] == "breach"
        ]
        assert len(breach_bundles) == record.breaches

    def test_fork_instants_match_workers_forked(self):
        tracer, _ = traced_slice()
        forks = [i for i in tracer.trace.instants if i.name == "fork"]
        assert forks
        assert all("shared_pages" in i.args for i in forks)

    def test_flight_recorder_tail_lands_in_the_trace(self):
        tracer, _ = traced_slice()
        kinds = [event["kind"] for event in tracer.trace.events]
        assert "slice-end" in kinds
        assert "request" in kinds
        assert len(kinds) <= tracer.config.ring_capacity


class TestBounds:
    def test_max_spans_bounds_memory_and_counts_drops(self):
        tracer, _ = traced_slice(max_spans=10)
        assert len(tracer.trace.spans) == 10
        assert tracer.trace.spans_dropped > 0

    def test_transcript_is_bounded(self):
        tracer, _ = traced_slice(transcript_limit=2)
        assert len(tracer.transcript()) <= 2

    def test_tracer_reads_never_register_an_instrument(self):
        # counter_value is a read; tracing must not grow the audited
        # instrument set (the audit would diverge otherwise — which
        # test_tracing_does_not_perturb_the_slice also proves end-to-end).
        before = set(telemetry.registry().instruments())
        traced_slice()
        after = set(telemetry.registry().instruments())
        assert after - before <= {"trace_bundles_captured_total"}
