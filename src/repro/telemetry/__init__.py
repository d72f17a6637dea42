"""Zero-slowdown telemetry plane (counters, events, canary tracing).

Public surface:

* :func:`registry` / :class:`Registry` — the process-wide instrument
  registry (:mod:`repro.telemetry.registry`).
* :func:`ring` / :class:`EventRing` — the canary lifecycle event stream
  (:mod:`repro.telemetry.events`).
* :func:`canary_markers` — shared group-leader map both interpreter
  paths count from, and :func:`canary_store` / :func:`canary_stores` —
  the audited canary stores both paths hand a CPU's watch
  (:mod:`repro.telemetry.markers`).
* Recording helpers (:func:`count`, :func:`observe`, :func:`event`,
  :func:`machine_flush`, :func:`canary_hooks`) — every one is a no-op
  when telemetry is disabled, and none is ever called per instruction
  on the fast path: the CPU flushes batched totals at run boundaries
  and only decode-time canary group leaders carry a wrapped step.

The profiler lives in :mod:`repro.telemetry.profile`; it is imported
lazily (by the CLI and tests) because it pulls in the harness layer,
which would otherwise create an import cycle with the machine package.
"""

from __future__ import annotations

from typing import Dict, Optional, Tuple

from .events import EVENT_KINDS, Event, EventRing, ring
from .markers import (
    EPILOGUE_NOTES,
    NOTE_GROUPS,
    PROLOGUE_NOTES,
    canary_markers,
    canary_store,
    canary_stores,
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
    "NOTE_GROUPS", "PROLOGUE_NOTES", "EPILOGUE_NOTES", "canary_markers",
    "canary_store", "canary_stores",
    "registry", "ring", "enabled", "enable", "disable", "generation",
    "reset", "snapshot", "delta", "absorb", "count", "observe", "event",
    "sampled_event", "counter_value", "machine_flush", "jit_flush",
    "canary_hooks", "CanaryHooks",
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


def generation() -> int:
    """Registry state generation (decode caches key off this)."""
    return registry().generation


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
# machine hooks: batch-boundary flush + canary group-leader counting
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


_machine_cache: Tuple[int, Optional[_MachineCounters]] = (-1, None)


def _machine() -> Optional[_MachineCounters]:
    global _machine_cache
    reg = registry()
    cached_generation, cached = _machine_cache
    if cached_generation == reg.generation:
        return cached
    counters = _MachineCounters(reg) if reg.enabled else None
    _machine_cache = (reg.generation, counters)
    return counters


def machine_flush(cycles: float, instructions: int) -> None:
    """Flush one run loop's batched accounting into the registry.

    Called once per ``CPU._run_loop`` return — never per instruction —
    with the exact deltas the loop already computed for its own batched
    accounting, so telemetry-on and telemetry-off runs report identical
    ``CPU.cycles`` / ``instructions_executed``.
    """
    counters = _machine()
    if counters is None:
        return
    counters.instructions.value += instructions
    counters.cycles.value += cycles
    counters.runs.value += 1
    counters.run_cycles.observe(cycles)


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


_jit_cache: Tuple[int, Optional[_JitCounters]] = (-1, None)


def _jit() -> Optional[_JitCounters]:
    global _jit_cache
    reg = registry()
    cached_generation, cached = _jit_cache
    if cached_generation == reg.generation:
        return cached
    counters = _JitCounters(reg) if reg.enabled else None
    _jit_cache = (reg.generation, counters)
    return counters


def jit_flush(entries: int, side_exits: int) -> None:
    """Flush one run loop's batched JIT dispatch counts.

    Mirrors :func:`machine_flush`: called once per ``CPU._run_loop``
    return (and only when at least one superblock ran), never per
    block entry.
    """
    counters = _jit()
    if counters is None:
        return
    counters.entries.value += entries
    counters.side_exits.value += side_exits


class CanaryHooks:
    """Group-leader counting shared by both interpreter paths.

    The decoder calls :meth:`wrap` on leader steps (fast path: one extra
    closure on the handful of canary leaders, nothing on any other
    step); the slow loop calls :meth:`hit` when stepping onto a leader
    index.  Both funnel into the same two counters, so the paths agree
    exactly by construction.
    """

    __slots__ = ("prologues", "epilogues", "_ring")

    def __init__(self, reg: Registry) -> None:
        self.prologues = reg.counter(
            "canary_prologue_stores_total",
            "canary prologue regions executed (group leaders)",
        )
        self.epilogues = reg.counter(
            "canary_epilogue_checks_total",
            "canary epilogue checks executed (group leaders)",
        )
        self._ring = ring()

    def wrap(self, execute, marker: str, function: str, index: int):
        """Wrap a leader step closure with its counter bump.

        Steps are CPU-parametric (``execute(C)``), so the wrapper takes
        the CPU and forwards it.
        """
        counter = self.prologues if marker == "prologue" else self.epilogues
        event_kind = (
            "prologue-store" if marker == "prologue" else "epilogue-check"
        )
        event_ring = self._ring

        def counted(C) -> None:
            counter.value += 1
            if event_ring.sample_every > 0:
                event_ring.emit_sampled(
                    event_kind, function=function, index=index
                )
            execute(C)

        return counted

    def hit(self, marker: str, function: str, index: int) -> None:
        """Slow-path equivalent of an executed wrapped leader."""
        counter = self.prologues if marker == "prologue" else self.epilogues
        counter.value += 1
        if self._ring.sample_every > 0:
            self._ring.emit_sampled(
                "prologue-store" if marker == "prologue" else "epilogue-check",
                function=function,
                index=index,
            )


_hooks_cache: Tuple[int, Optional[CanaryHooks]] = (-1, None)


def canary_hooks() -> Optional[CanaryHooks]:
    """Current canary hooks, or ``None`` while telemetry is disabled."""
    global _hooks_cache
    reg = registry()
    cached_generation, cached = _hooks_cache
    if cached_generation == reg.generation:
        return cached
    hooks = CanaryHooks(reg) if reg.enabled else None
    _hooks_cache = (reg.generation, hooks)
    return hooks
