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
* Recording helpers (:func:`count`, :func:`observe`, :func:`event`,
  :func:`machine_flush`) — every one is a no-op when telemetry is
  disabled, and none is ever called per instruction on the fast path:
  the CPU flushes batched totals at run boundaries and only canary-site
  steps carry a wrapped probe.

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
    "reset", "snapshot", "delta", "absorb", "count", "observe", "event",
    "sampled_event", "counter_value", "machine_flush", "jit_flush",
]

#: Run-cycle histogram buckets (simulated cycles per run-loop entry).
RUN_CYCLE_BUCKETS: Tuple[float, ...] = (
    1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
)


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
# cold-path recording helpers (kernel, devices, faults, libc, campaigns)
# ---------------------------------------------------------------------------

def count(name: str, delta: float = 1, help: str = "") -> None:
    """Increment a counter; no-op while telemetry is disabled."""
    reg = registry()
    if reg.enabled:
        reg.counter(name, help).add(delta)


def observe(
    name: str,
    value: float,
    bounds: Tuple[float, ...] = DEFAULT_BUCKETS,
    help: str = "",
) -> None:
    """Observe a histogram sample; no-op while telemetry is disabled."""
    reg = registry()
    if reg.enabled:
        reg.histogram(name, bounds, help).observe(value)


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
# machine hooks: batch-boundary flushes + the canary-site probe
# ---------------------------------------------------------------------------

class _MachineCounters:
    """Bound instrument references for the CPU's batch-boundary flush."""

    __slots__ = ("instructions", "cycles", "runs", "run_cycles")

    def __init__(self, reg: Registry) -> None:
        self.instructions = reg.counter(
            "machine_instructions_total", "instructions retired (both paths)"
        )
        self.cycles = reg.counter(
            "machine_cycles_total", "simulated cycles charged (DBI-scaled)"
        )
        self.runs = reg.counter(
            "machine_run_loops_total", "run-loop entries (calls, resumes)"
        )
        self.run_cycles = reg.histogram(
            "machine_run_cycles", RUN_CYCLE_BUCKETS,
            "simulated cycles per run-loop entry",
        )


class _JitCounters:
    """Bound instrument references for the fast loop's JIT flush."""

    __slots__ = ("entries", "side_exits")

    def __init__(self, reg: Registry) -> None:
        self.entries = reg.counter(
            "jit_block_entries_total", "superblock executions (JIT tier)"
        )
        self.side_exits = reg.counter(
            "jit_side_exits_total",
            "superblock side-exits into the generic step loop",
        )


_bound: Dict[type, object] = {}


def _instruments(bind):
    """``bind(registry())``, built once.

    The registry never drops an instrument (``reset`` zeroes in place),
    so bound references stay valid across enable/disable/reset.
    """
    instruments = _bound.get(bind)
    if instruments is None:
        instruments = _bound[bind] = bind(registry())
    return instruments


def machine_flush(cycles: float, instructions: int) -> None:
    """Flush one run loop's batched accounting into the registry.

    Called once per ``CPU._run_loop`` return — never per instruction —
    with the exact deltas the loop already computed for its own batched
    accounting, so telemetry-on and telemetry-off runs report identical
    ``CPU.cycles`` / ``instructions_executed``.
    """
    if not registry().enabled:
        return
    counters = _instruments(_MachineCounters)
    counters.instructions.value += instructions
    counters.cycles.value += cycles
    counters.runs.value += 1
    counters.run_cycles.observe(cycles)


def jit_flush(entries: int, side_exits: int) -> None:
    """Flush one run loop's batched JIT dispatch counts.

    Mirrors :func:`machine_flush`: called once per ``CPU._run_loop``
    return (and only when at least one superblock ran), never per
    block entry.
    """
    if not registry().enabled:
        return
    counters = _instruments(_JitCounters)
    counters.entries.value += entries
    counters.side_exits.value += side_exits


#: Bound once: the probe runs on every executed canary site.
_REGISTRY = registry()
_RING = ring()
#: The probe's leader counters, registered up front so every snapshot
#: lists them, at zero when no protected code ran.
_LEADER_COUNTERS = {
    "prologue": _REGISTRY.counter(
        "canary_prologue_stores_total",
        "canary prologue regions executed (group leaders)",
    ),
    "epilogue": _REGISTRY.counter(
        "canary_epilogue_checks_total",
        "canary epilogue checks executed (group leaders)",
    ),
}
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
        _LEADER_COUNTERS[leader].value += 1
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
