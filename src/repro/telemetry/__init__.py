"""Zero-slowdown telemetry plane (counters, events, canary tracing).

Public surface:

* :func:`registry` / :class:`Registry` — the process-wide instrument
  registry (:mod:`repro.telemetry.registry`).
* :func:`ring` / :class:`EventRing` — the canary lifecycle event stream
  (:mod:`repro.telemetry.events`).
* :func:`canary_sites` / :class:`CanarySite` — the one table of canary
  sites (group leaders and audited C0 stores) every interpreter tier
  observes, and :func:`canary_probe` — the one probe they observe them
  with (:mod:`repro.telemetry.markers`).
* Instrument declarations (:func:`counter`, :func:`histogram`) — each
  instrument is declared once, as a module-level handle in the module
  that records it, and recorded with ``handle.inc(delta)`` or
  ``handle.observe(value)``.  The handle creates its registry
  instrument on the first record made while telemetry is enabled.
* Event helpers (:func:`event`, :func:`sampled_event`).  Every record
  and event is a no-op when telemetry is disabled, and none is ever
  made per instruction on the fast path: the CPU records batched
  totals at run boundaries and only canary-site steps carry a wrapped
  probe.

The profiler lives in :mod:`repro.telemetry.profile`; it is imported
lazily (by the CLI and tests) because it pulls in the harness layer,
which would otherwise create an import cycle with the machine package.
"""

from __future__ import annotations

from typing import Dict, Tuple

from .events import EVENT_KINDS, Event, EventRing, ring
from .markers import (
    EPILOGUE_NOTES,
    NOTE_GROUPS,
    PROLOGUE_NOTES,
    CanarySite,
    canary_sites,
)
from .registry import (
    DEFAULT_BUCKETS,
    Counter,
    Gauge,
    Histogram,
    Registry,
    Snapshot,
    registry,
)

__all__ = [
    "Counter", "Gauge", "Histogram", "Registry", "Snapshot",
    "Event", "EventRing", "EVENT_KINDS", "DEFAULT_BUCKETS",
    "NOTE_GROUPS", "PROLOGUE_NOTES", "EPILOGUE_NOTES", "CanarySite",
    "canary_sites", "canary_probe",
    "registry", "ring", "enabled", "enable", "disable",
    "reset", "snapshot", "delta", "absorb", "counter", "histogram",
    "event", "sampled_event", "counter_value",
]

#: Bound once: handles and the canary probe record into these.
_REGISTRY = registry()
_RING = ring()


# ---------------------------------------------------------------------------
# global state helpers
# ---------------------------------------------------------------------------

def enabled() -> bool:
    return registry().enabled


def enable() -> None:
    registry().enable()


def disable() -> None:
    registry().disable()


def reset() -> None:
    """Zero every instrument and clear the event ring."""
    registry().reset()
    ring().clear()


def snapshot() -> Dict[str, object]:
    return registry().snapshot()


def delta(before: Dict[str, object]) -> Dict[str, object]:
    return registry().delta(before)


def absorb(worker_delta: "Snapshot | Dict[str, object]") -> None:
    """Fold a worker process's counter/histogram delta into this registry."""
    if not isinstance(worker_delta, Snapshot):
        worker_delta = Snapshot(worker_delta)
    registry().absorb(worker_delta)


# ---------------------------------------------------------------------------
# events and counter reads
# ---------------------------------------------------------------------------

def event(kind: str, **fields: object) -> None:
    """Record a rare lifecycle event (unconditional when enabled)."""
    if registry().enabled:
        ring().emit(kind, **fields)


def sampled_event(kind: str, **fields: object) -> None:
    """Record a high-frequency lifecycle event through the sampler."""
    if registry().enabled:
        ring().emit_sampled(kind, **fields)


def counter_value(name: str) -> float:
    """Current scalar value of a counter/gauge (0 when unregistered).

    A read, never a registration — the fleet tracer polls canary
    counters between requests with this, and an untraced run must not
    grow instruments it would otherwise never create.
    """
    return registry().value(name)


# ---------------------------------------------------------------------------
# instrument declarations
# ---------------------------------------------------------------------------

class _Handle:
    """One declared instrument, bound to the registry on first use.

    The registry instrument is created by the first record made while
    telemetry is enabled, and the reference is kept: the registry never
    drops an instrument (``reset`` zeroes it in place), so the handle
    stays valid across enable/disable/reset.  A handle nothing records
    into never appears in a snapshot.
    """

    __slots__ = ("name", "help", "_instrument")

    def __init__(self, name: str, help: str) -> None:
        self.name = name
        self.help = help
        self._instrument = None


class _CounterHandle(_Handle):
    __slots__ = ()

    def inc(self, delta: float = 1) -> None:
        """Add ``delta``; a no-op while telemetry is disabled."""
        if _REGISTRY.enabled:
            (self._instrument or self._register()).add(delta)

    def _register(self) -> Counter:
        self._instrument = _REGISTRY.counter(self.name, self.help)
        return self._instrument


class _HistogramHandle(_Handle):
    __slots__ = ("bounds",)

    def __init__(self, name: str, bounds: Tuple[float, ...], help: str) -> None:
        super().__init__(name, help)
        self.bounds = bounds

    def observe(self, value: float) -> None:
        """Observe one sample; a no-op while telemetry is disabled."""
        if _REGISTRY.enabled:
            (self._instrument or self._register()).observe(value)

    def _register(self) -> Histogram:
        self._instrument = _REGISTRY.histogram(self.name, self.bounds, self.help)
        return self._instrument


def counter(name: str, help: str) -> _CounterHandle:
    """Declare a counter; record with ``handle.inc(delta=1)``.

    Declared once, at module level, in the module that records it.
    """
    return _CounterHandle(name, help)


def histogram(
    name: str, bounds: Tuple[float, ...], help: str
) -> _HistogramHandle:
    """Declare a histogram; record with ``handle.observe(value)``."""
    return _HistogramHandle(name, bounds, help)


# ---------------------------------------------------------------------------
# the canary-site probe
# ---------------------------------------------------------------------------

#: The probe's leader counters, registered at import so every snapshot
#: lists them, at zero when no protected code ran.  The probe runs on
#: every executed canary site, so it adds to the instruments directly.
_LEADER_COUNTERS = {
    "prologue": counter(
        "canary_prologue_stores_total",
        "canary prologue regions executed (group leaders)",
    ),
    "epilogue": counter(
        "canary_epilogue_checks_total",
        "canary epilogue checks executed (group leaders)",
    ),
}
for _leader in _LEADER_COUNTERS.values():
    _leader._register()
del _leader

_LEADER_EVENTS = {"prologue": "prologue-store", "epilogue": "epilogue-check"}


def canary_probe(C, site: CanarySite) -> None:
    """Observe one executed canary site on CPU ``C``.

    The one probe of every interpreter tier: decoded site steps run it
    before their semantics, the slow loop calls it at the same point
    (after the charge and the cycle-limit check), and the trace-JIT
    side-exits at every site so no superblock runs one inline.

    A group leader bumps its counter (plus the sampled ring event) while
    telemetry is enabled; the check is made here, at run time, so
    decoded steps never depend on telemetry state.  An audited store is
    handed to ``C.watch(kind, instruction)`` when the CPU has a watch.
    """
    leader = site.leader
    if leader is not None and _REGISTRY.enabled:
        _LEADER_COUNTERS[leader]._instrument.value += 1
        if _RING.sample_every > 0:
            _RING.emit_sampled(
                _LEADER_EVENTS[leader],
                function=site.function, index=site.index,
            )
    store = site.store
    if store is not None:
        watch = C.watch
        if watch is not None:
            watch(store, site.instruction)
