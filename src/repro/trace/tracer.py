"""The slice tracer: causal spans from traffic session to outcome.

One :class:`SliceTracer` attaches to one booted
:class:`~repro.fleet.server.FleetServer` and observes the slice through
two hooks that already exist on the request path:

* the traffic driver announces each session (:meth:`begin_session`) and
  each breach (:meth:`on_breach`);
* the server's single bookkeeping funnel (``FleetServer._record``) calls
  :meth:`on_request` once per served request, and fork bookkeeping calls
  :meth:`on_fork` once per committed worker fork.

Everything else is *pulled* from deterministic state at those points:
canary lifecycle counters (prologue stores, epilogue checks, smashes)
are attributed to the request span as deltas since the previous request,
and supervisor decisions (breaker trips, parent heals) surface as
instants by comparing the supervisor's own counters between requests —
the tracer adds no new coupling to the decision paths it observes.

The off switch is structural: an unattached server has ``tracer = None``
and pays one ``is not None`` compare per *request* (never per
instruction), preserving the PR 4 invariant that telemetry off means
zero hot-path work.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..telemetry.events import EventRing
from .series import SeriesSampler
from .spans import Instant, SliceTrace, Span, request_span_id, session_key

#: Canary lifecycle counters attributed per request span.
_CANARY_COUNTERS = (
    "canary_prologue_stores_total",
    "canary_epilogue_checks_total",
    "canary_smashes_detected_total",
)


@dataclass(frozen=True)
class TraceConfig:
    """Tracing knobs; JSON round-trippable so shard workers inherit the
    exact configuration of the parent campaign (the jobs-N identity
    depends on every worker bucketing and bounding identically)."""

    #: Requests per time-series bucket (K of the periodic snapshots).
    series_interval: int = 100
    #: Flight-recorder ring capacity (last-N events in a bundle).
    ring_capacity: int = 64
    #: Session plans kept in the rolling traffic transcript.
    transcript_limit: int = 32
    #: Hard span bound per slice; excess spans are counted, not kept.
    max_spans: int = 100_000

    def __post_init__(self) -> None:
        if self.series_interval < 1:
            raise ValueError("series_interval must be >= 1")
        if self.ring_capacity < 1:
            raise ValueError("ring_capacity must be >= 1")
        if self.transcript_limit < 1:
            raise ValueError("transcript_limit must be >= 1")
        if self.max_spans < 1:
            raise ValueError("max_spans must be >= 1")

    def to_json(self) -> Dict[str, Any]:
        return {
            "series_interval": self.series_interval,
            "ring_capacity": self.ring_capacity,
            "transcript_limit": self.transcript_limit,
            "max_spans": self.max_spans,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "TraceConfig":
        return cls(**{key: int(value) for key, value in data.items()})


class SliceTracer:
    """Records one slice's causal timeline (see module docstring)."""

    def __init__(
        self,
        scheme: str,
        seed: int,
        *,
        config: Optional[TraceConfig] = None,
        chaos_seed: Optional[int] = None,
    ) -> None:
        self.config = config or TraceConfig()
        self.trace = SliceTrace(scheme=scheme, seed=seed, chaos_seed=chaos_seed)
        #: Per-slice flight recorder — deliberately NOT the process-wide
        #: ring: bundles must capture this slice's tail, not whatever a
        #: neighbouring slice in the same worker process emitted.
        self.ring = EventRing(capacity=self.config.ring_capacity)
        self.series = SeriesSampler(self.config.series_interval)
        self.clock = 0.0
        #: Everything a bundle needs to re-run this slice (traffic and
        #: supervision configs, request budget, chaos seed); set by
        #: ``run_fleet_slice`` before the driver starts.
        self.replay_identity: Dict[str, Any] = {}
        self._server = None
        self._session_index = -1
        self._session_key = session_key(seed, -1)
        self._session_kind = ""
        self._session_span: Optional[Span] = None
        self._session_requests = 0
        self._request_index = 0
        self._transcript: List[Dict[str, Any]] = []
        self._marks = {name: 0.0 for name in _CANARY_COUNTERS}
        self._seen_trips = 0
        self._seen_restarts = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self, server) -> "SliceTracer":
        """Adopt a booted server; the server's request funnel and fork
        bookkeeping start feeding this tracer."""
        self._server = server
        server.tracer = self
        for name in _CANARY_COUNTERS:
            self._marks[name] = telemetry.counter_value(name)
        supervisor = server.supervisor
        if supervisor is not None:
            self._seen_trips = supervisor.breaker.trips
            self._seen_restarts = supervisor.parent_restarts
        self.series.start(self.clock)
        self.ring.emit(
            "slice-start", scheme=self.trace.scheme, seed=self.trace.seed
        )
        return self

    def finalize(self, record) -> SliceTrace:
        """Close the timeline and fold the slice record in.

        Called after the audit, so an audit divergence found by
        ``_audit_slice`` triggers its post-mortem bundle here.
        """
        self._close_session()
        self.ring.emit(
            "slice-end", requests=record.requests, breaches=record.breaches
        )
        if record.audit_divergences:
            self._capture_bundle(
                "audit-divergence",
                detail="; ".join(record.audit_divergences[:3]),
            )
        trace = self.trace
        trace.requests = self._request_index
        trace.series = self.series.finish(self.clock)
        trace.events = [event.to_json() for event in self.ring.events()]
        return trace

    # -- driver hooks -----------------------------------------------------

    def begin_session(self, plan) -> None:
        """The traffic driver is about to serve session ``plan``."""
        self._close_session()
        self._session_index = plan.index
        self._session_key = session_key(self.trace.seed, plan.index)
        self._session_kind = plan.kind
        self._session_requests = 0
        self.trace.sessions += 1
        self._session_span = Span(
            name=f"session:{plan.kind}",
            category="session",
            span_id=request_span_id(self._session_key),
            parent_id="",
            begin_cycles=self.clock,
            end_cycles=self.clock,
            args={"index": plan.index, "planned_requests": plan.requests},
        )
        transcript = self._transcript
        transcript.append(plan.to_json())
        if len(transcript) > self.config.transcript_limit:
            del transcript[0]
        self.ring.emit(
            "session-begin", index=plan.index, session_kind=plan.kind,
            planned_requests=plan.requests,
        )

    def on_breach(self, kind: str) -> None:
        """The driver confirmed a breach (brute success / leak replay)."""
        self._instant(
            f"breach:{kind}", "breach",
            {"session": self._session_index, "kind": kind},
        )
        self.ring.emit(
            "breach", breach_kind=kind, session=self._session_index,
            request=self._request_index,
        )
        self._capture_bundle("breach", detail=kind)

    # -- server hooks -----------------------------------------------------

    def on_fork(self, child, forks: int) -> None:
        """One committed worker fork (called from the fork bookkeeping)."""
        args: Dict[str, Any] = {"forks": forks}
        if child is not None:
            args["pid"] = child.pid
            stats = child.memory.page_stats()
            args["shared_pages"] = stats["shared_pages"]
            args["private_pages"] = stats["private_pages"]
        self._instant("fork", "fork", args)

    def on_request(self, response) -> None:
        """One served request (called from the server's record funnel)."""
        begin = self.clock
        end = begin + response.cycles
        self.clock = end
        deltas: Dict[str, float] = {}
        for name in _CANARY_COUNTERS:
            now = telemetry.counter_value(name)
            deltas[name] = now - self._marks[name]
            self._marks[name] = now
        parent = self._session_span.span_id if self._session_span else ""
        request = self._request_index
        if len(self.trace.spans) < self.config.max_spans:
            self.trace.spans.append(Span(
                name=f"request:{self._session_kind or 'benign'}",
                category="request",
                span_id=request_span_id(self._session_key, request),
                parent_id=parent,
                begin_cycles=begin,
                end_cycles=end,
                args={
                    "request": request,
                    "outcome": response.outcome,
                    "crashed": response.crashed,
                    "smashed": response.smashed,
                    "signal": response.signal,
                    "prologue_stores": deltas["canary_prologue_stores_total"],
                    "epilogue_checks": deltas["canary_epilogue_checks_total"],
                },
            ))
        else:
            self.trace.spans_dropped += 1
        self.ring.emit(
            "request",
            request=request,
            session=self._session_index,
            session_kind=self._session_kind,
            outcome=response.outcome,
            crashed=response.crashed,
            smashed=response.smashed,
            cycles=response.cycles.hex(),
        )
        if response.outcome == "deadline":
            self._instant(
                "deadline-reap", "supervisor",
                {"request": request, "signal": response.signal},
            )
        elif response.outcome == "quarantined":
            self._instant("quarantined", "supervisor", {"request": request})
        if response.smashed:
            self._instant(
                "smash-detected", "canary",
                {"request": request, "session": self._session_index},
            )
        self._observe_supervisor(request)
        if self._session_span is not None:
            self._session_span.end_cycles = end
            self._session_requests += 1
        self._request_index = request + 1
        self.series.on_request(self.clock)

    # -- internals --------------------------------------------------------

    def _observe_supervisor(self, request: int) -> None:
        """Surface supervisor decisions by diffing its own bookkeeping —
        observation without coupling: the supervisor never learns the
        tracer exists."""
        server = self._server
        supervisor = server.supervisor if server is not None else None
        if supervisor is None:
            return
        trips = supervisor.breaker.trips
        if trips != self._seen_trips:
            self._seen_trips = trips
            self._instant(
                "breaker-trip", "supervisor",
                {"request": request, "trips": trips,
                 "window": supervisor.breaker.remaining},
            )
            self.ring.emit("crash-loop-trip", request=request, trips=trips)
            self._capture_bundle("crash-loop-trip", detail=f"trip {trips}")
        restarts = supervisor.parent_restarts
        if restarts != self._seen_restarts:
            self._seen_restarts = restarts
            self._instant(
                "parent-heal", "supervisor",
                {"request": request, "restarts": restarts},
            )
            self.ring.emit("parent-heal", request=request, restarts=restarts)

    def _instant(
        self, name: str, category: str, args: Dict[str, Any]
    ) -> None:
        parent = self._session_span.span_id if self._session_span else ""
        self.trace.instants.append(Instant(
            name=name, category=category, at_cycles=self.clock,
            parent_id=parent, args=args,
        ))

    def _close_session(self) -> None:
        span = self._session_span
        if span is None:
            return
        span.end_cycles = self.clock
        span.args["requests"] = self._session_requests
        if len(self.trace.spans) < self.config.max_spans:
            self.trace.spans.append(span)
        else:
            self.trace.spans_dropped += 1
        self._session_span = None

    def _capture_bundle(self, trigger: str, detail: str = "") -> None:
        from .bundle import build_bundle

        self.trace.bundles.append(build_bundle(self, trigger, detail))
        telemetry.count(
            "trace_bundles_captured_total",
            help="post-mortem bundles captured by slice tracers",
        )

    # -- bundle source material -------------------------------------------

    def transcript(self) -> List[Dict[str, Any]]:
        """The rolling traffic transcript (most recent sessions last)."""
        return [dict(plan) for plan in self._transcript]

    def supervisor_state(self) -> Dict[str, Any]:
        """Breaker/deadline/heal state at this moment (bundle section)."""
        server = self._server
        supervisor = server.supervisor if server is not None else None
        if supervisor is None:
            return {}
        breaker = supervisor.breaker
        return {
            "breaker_state": breaker.state,
            "breaker_streak": breaker.streak,
            "breaker_trips": breaker.trips,
            "breaker_remaining": breaker.remaining,
            "deadline_cycles": supervisor.config.deadline_cycles,
            "deadline_reaps": supervisor.deadline_reaps,
            "parent_restarts": supervisor.parent_restarts,
        }

    def fault_ledgers(self) -> Dict[str, Any]:
        """Fault-plane ledger tallies at this moment (bundle section)."""
        server = self._server
        plane = (
            getattr(server.kernel, "fault_plane", None)
            if server is not None else None
        )
        if plane is None:
            return {}
        return {
            "delivered": [list(entry) for entry in plane.delivered],
            "absorbed": [list(entry) for entry in plane.absorbed],
            "events": [
                {"kind": event.kind, "detail": event.detail}
                for event in plane.events
            ],
            "activity": plane.activity(),
        }

    def parent_digest(self) -> str:
        """Architectural-snapshot digest of the parent (bundle section)."""
        from ..machine.debug import snapshot_digest

        if self._server is None:
            return ""
        return snapshot_digest(self._server.parent)
