"""The fault plane: scheduled injection + the auditable-outcome ledger.

One :class:`FaultPlane` is attached to a :class:`~repro.kernel.kernel.Kernel`
and consulted by the hooked primitives — ``RdRandDevice.read``,
``TimeStampCounter.read``, ``Kernel.fork``, and the shadow-pair write
choke point (:func:`repro.faults.policy.tls_shadow_write`).  The plane
answers "does this attempt fault?" from its schedule and keeps three
ledgers the campaign classifier reads afterwards:

* ``delivered`` — faults actually injected (a window scheduled past the
  end of a run delivers nothing);
* ``absorbed``  — faults a degradation mechanism retried away, with
  behaviour left identical;
* ``events``    — explicit degradation events (retry budget exhausted,
  entropy quarantined, publish failed): the third legal outcome.

Plane decisions never draw from process entropy — stuck values come from
the schedule — so a faulted run consumes exactly the entropy stream of
its fault-free reference and replays bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from .policy import RDRAND_RETRY_LIMIT
from .schedule import FaultSchedule

_WORD_MASK = (1 << 64) - 1

_DELIVERED = telemetry.counter(
    "faults_delivered_total", "scheduled faults actually injected"
)
_ABSORBED = telemetry.counter(
    "faults_absorbed_total", "faults retried away with behaviour unchanged"
)
_DEGRADATION_EVENTS = telemetry.counter(
    "fault_degradation_events_total",
    "explicit degradation events on the plane ledger",
)


@dataclass
class DegradationEvent:
    """One explicit, auditable degradation."""

    kind: str
    detail: str = ""


class FaultPlane:
    """Deterministic fault injection driven by one :class:`FaultSchedule`."""

    def __init__(self, schedule: Optional[FaultSchedule] = None) -> None:
        self.schedule = schedule or FaultSchedule(scheme="none", events=[])
        #: Attempt counters, one stream per hooked primitive.
        self.rdrand_attempts = 0
        self.fork_attempts = 0
        self.tls_writes = 0
        self.tsc_reads = 0
        #: Ledgers (see module docstring).
        self.delivered: List[Tuple[str, str]] = []
        self.absorbed: List[Tuple[str, str]] = []
        self.events: List[DegradationEvent] = []

    # -- ledger ----------------------------------------------------------------

    def record_delivered(self, kind: str, detail: str = "") -> None:
        self.delivered.append((kind, detail))
        _DELIVERED.inc()

    def record_absorbed(self, kind: str, detail: str = "") -> None:
        self.absorbed.append((kind, detail))
        _ABSORBED.inc()

    def record_event(self, kind: str, detail: str = "") -> None:
        self.events.append(DegradationEvent(kind, detail))
        _DEGRADATION_EVENTS.inc()

    def event_kinds(self) -> "set[str]":
        return {event.kind for event in self.events}

    def activity(self) -> int:
        """Monotonic total of ledger entries (delivered + absorbed + events).

        The fleet supervisor samples this before and after each request:
        a change means the plane touched the request, which is exactly the
        attribution needed for the re-randomization-window stretch metric.
        """
        return len(self.delivered) + len(self.absorbed) + len(self.events)

    def delivered_counts(self) -> Dict[str, int]:
        counts: Dict[str, int] = {}
        for kind, _ in self.delivered:
            counts[kind] = counts.get(kind, 0) + 1
        return counts

    # -- rdrand ----------------------------------------------------------------

    def rdrand_verdict(self) -> Optional[Tuple]:
        """Consulted once per ``rdrand`` read attempt.

        Returns ``None`` (healthy), ``("fail",)`` (CF=0), or
        ``("stuck", value)`` (CF=1 with schedule-supplied output).
        """
        index = self.rdrand_attempts
        self.rdrand_attempts += 1
        for event in self.schedule.events:
            if event.kind == "rdrand-fail" and event.covers(index):
                return ("fail",)
            if event.kind == "rdrand-stuck" and event.covers(index):
                self.record_delivered("rdrand-stuck", f"attempt {index}")
                return ("stuck", event.value & _WORD_MASK)
        return None

    def note_rdrand_failure(self, kind: str, streak: int) -> None:
        """Device callback for every CF=0 result (injected or quarantine)."""
        if kind == "rdrand-fail":
            self.record_delivered(kind, f"streak {streak}")
        if streak == RDRAND_RETRY_LIMIT:
            self.record_event(
                "rdrand-exhausted", f"{streak} consecutive CF=0 reads"
            )

    def note_rdrand_recovered(self, streak: int) -> None:
        """Device callback when a CF=1 read ends a failure streak."""
        if streak < RDRAND_RETRY_LIMIT:
            self.record_absorbed(
                "rdrand-fail", f"retry succeeded after {streak} failure(s)"
            )

    # -- fork ------------------------------------------------------------------

    def fork_verdict(self) -> bool:
        """Consulted once per ``Kernel.fork`` attempt; True = EAGAIN."""
        index = self.fork_attempts
        self.fork_attempts += 1
        for event in self.schedule.events:
            if event.kind == "fork-eagain" and event.covers(index):
                self.record_delivered("fork-eagain", f"attempt {index}")
                return True
        return False

    # -- TLS shadow writes -----------------------------------------------------

    def tls_write_verdict(self) -> Optional[str]:
        """Consulted once per shadow-half write; "torn" = write lost."""
        index = self.tls_writes
        self.tls_writes += 1
        for event in self.schedule.events:
            if event.kind == "tls-torn" and event.covers(index):
                self.record_delivered("tls-torn", f"write {index}")
                return "torn"
        return None

    # -- rdtsc -----------------------------------------------------------------

    def rdtsc_observe(self, value: int) -> int:
        """Transform one ``rdtsc`` read according to the schedule."""
        index = self.tsc_reads
        self.tsc_reads += 1
        for event in self.schedule.events:
            if event.kind == "rdtsc-skew":
                if index == 0:
                    self.record_delivered("rdtsc-skew", f"delta {event.value:#x}")
                return (value + event.value) & _WORD_MASK
            if event.kind == "rdtsc-stuck" and event.covers(index):
                self.record_delivered("rdtsc-stuck", f"read {index}")
                return event.value & _WORD_MASK
        return value
