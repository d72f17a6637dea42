"""The span model: deterministic IDs, guest-cycle timestamps.

A span is one timed region on a slice's causal timeline — a traffic
session or a served request — and an instant is a zero-duration marker
(a fork, a supervisor decision, a breach).  Two rules make traces
shard- and replay-invariant:

* **IDs are pure functions.**  :func:`span_id` mixes
  ``(slice_seed, session_index, request_index)`` through a
  splitmix64-style finalizer — no global counter, no allocation order —
  so the same request gets the same ID in a serial run, under
  ``--jobs N``, and in a post-mortem replay.
* **Timestamps are guest cycles.**  The tracer advances a per-slice
  cycle clock by each response's simulated cycles; wall clock never
  appears.  Cycle floats serialize as ``float.hex()`` (the
  :class:`~repro.fleet.campaign.FleetSlice` convention) so traces are
  byte-stable across JSON round trips.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Dict, List

_MASK64 = (1 << 64) - 1

#: Splitmix64 finalizer constants (Steele et al.) — the same mixer the
#: traffic plane uses for per-session entropy seeds.
_MIX_1 = 0xBF58476D1CE4E5B9
_MIX_2 = 0x94D049BB133111EB
#: Per-argument salts so (a, b) and (b, a) never collide.
_SALTS = (0x9E3779B97F4A7C15, 0xC2B2AE3D27D4EB4F, 0x165667B19E3779F9)


def _mix64(value: int) -> int:
    value &= _MASK64
    value ^= value >> 30
    value = (value * _MIX_1) & _MASK64
    value ^= value >> 27
    value = (value * _MIX_2) & _MASK64
    value ^= value >> 31
    return value


def session_key(slice_seed: int, session_index: int) -> int:
    """The mixer state after a session's two leading ID parts.

    A tracer computes it once per session, so each request span pays
    for one mixing round instead of three (:func:`request_span_id`).
    """
    acc = _mix64((slice_seed * _SALTS[0]) & _MASK64)
    return _mix64(acc ^ ((session_index * _SALTS[1]) & _MASK64))


def request_span_id(key: int, request_index: int = -1) -> str:
    """:func:`span_id` from a :func:`session_key`."""
    acc = _mix64(key ^ ((request_index * _SALTS[2]) & _MASK64))
    return f"{acc or 1:016x}"


def span_id(
    slice_seed: int, session_index: int, request_index: int = -1
) -> str:
    """16-hex-digit span ID, pure in its arguments.

    ``request_index = -1`` names the session span itself; request spans
    pass their slice-local request ordinal.
    """
    return request_span_id(session_key(slice_seed, session_index), request_index)


@dataclass
class Span:
    """One timed region on the slice timeline."""

    name: str
    category: str
    span_id: str
    parent_id: str
    begin_cycles: float
    end_cycles: float
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "span_id": self.span_id,
            "parent_id": self.parent_id,
            "begin_cycles": self.begin_cycles.hex(),
            "end_cycles": self.end_cycles.hex(),
            "args": dict(self.args),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Span":
        return cls(
            name=data["name"],
            category=data["category"],
            span_id=data["span_id"],
            parent_id=data["parent_id"],
            begin_cycles=float.fromhex(data["begin_cycles"]),
            end_cycles=float.fromhex(data["end_cycles"]),
            args=dict(data["args"]),
        )


@dataclass
class Instant:
    """A zero-duration marker (fork, supervisor decision, breach)."""

    name: str
    category: str
    at_cycles: float
    parent_id: str = ""
    args: Dict[str, Any] = field(default_factory=dict)

    def to_json(self) -> Dict[str, Any]:
        return {
            "name": self.name,
            "category": self.category,
            "at_cycles": self.at_cycles.hex(),
            "parent_id": self.parent_id,
            "args": dict(self.args),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "Instant":
        return cls(
            name=data["name"],
            category=data["category"],
            at_cycles=float.fromhex(data["at_cycles"]),
            parent_id=data["parent_id"],
            args=dict(data["args"]),
        )


@dataclass
class SliceTrace:
    """Everything one traced slice produced (the shard-merge unit)."""

    scheme: str
    seed: int
    chaos_seed: Any = None
    sessions: int = 0
    requests: int = 0
    spans_dropped: int = 0
    spans: List[Span] = field(default_factory=list)
    instants: List[Instant] = field(default_factory=list)
    #: Flight-recorder tail at finalize (Event.to_json dicts).
    events: List[Dict[str, Any]] = field(default_factory=list)
    #: Periodic counter-delta points (see :mod:`repro.trace.series`).
    series: List[Dict[str, Any]] = field(default_factory=list)
    #: Post-mortem bundle payloads captured during the slice.
    bundles: List[Dict[str, Any]] = field(default_factory=list)

    def to_json(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "seed": self.seed,
            "chaos_seed": self.chaos_seed,
            "sessions": self.sessions,
            "requests": self.requests,
            "spans_dropped": self.spans_dropped,
            "spans": [span.to_json() for span in self.spans],
            "instants": [instant.to_json() for instant in self.instants],
            "events": [dict(event) for event in self.events],
            "series": [dict(point) for point in self.series],
            "bundles": [dict(bundle) for bundle in self.bundles],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SliceTrace":
        raw_chaos = data.get("chaos_seed")
        return cls(
            scheme=data["scheme"],
            seed=int(data["seed"]),
            chaos_seed=None if raw_chaos is None else int(raw_chaos),
            sessions=int(data["sessions"]),
            requests=int(data["requests"]),
            spans_dropped=int(data["spans_dropped"]),
            spans=[Span.from_json(span) for span in data["spans"]],
            instants=[
                Instant.from_json(instant) for instant in data["instants"]
            ],
            events=[dict(event) for event in data["events"]],
            series=[dict(point) for point in data["series"]],
            bundles=[dict(bundle) for bundle in data["bundles"]],
        )
