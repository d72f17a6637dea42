"""Fleet supervision: deadlines, crash-loop breakers, parent self-healing.

The fleet's availability story (paper §II-B: the parent must survive its
workers indefinitely) needs more than fork-per-connection — it needs the
machinery a production init system provides, rebuilt on *simulated*
state so supervised runs stay bit-identical to unsupervised maths:

* **Worker deadlines** — every worker gets a per-request budget in
  simulated cycles (``cpu.cycle_limit``); exceeding it is a typed
  ``deadline`` outcome delivered as SIGXCPU, never a hang.
* **Crash-loop breaker** — consecutive non-attack worker crashes (or
  degraded checkouts) trip a per-slice circuit: requests are quarantined
  fail-closed for a seeded exponential-backoff window counted in
  *requests*, then a half-open probe either closes the circuit or
  re-trips it with a doubled window.
* **Parent self-healing** — when the fault plane degrades the parent
  (entropy quarantined by the periodic health probe, a torn shadow-pair
  refresh failing closed), the supervisor restarts the parent from the
  machine image captured at boot and verifies via
  :func:`~repro.machine.debug.architectural_snapshot` that the
  re-randomization boundary replays exactly.  Restarts are bounded by
  :data:`~repro.faults.policy.PARENT_RESTART_BUDGET`.
* **Window-stretch attribution** — the plane's ledger is sampled around
  every request; requests the plane touched accumulate into a
  ``faulted`` bucket so reports can quote the re-randomization-window
  stretch (faulted mean cycles / clean mean cycles) per scheme.

Every decision derives from seeded simulated state — the breaker's
jitter comes from a slice-seeded PRNG, deadlines and backoff are counted
in simulated cycles and requests — so chaos campaigns replay and shard
bit-identically.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict, List, Optional

from .. import telemetry
from ..errors import DegradedError
from ..faults.policy import (
    ENTROPY_PROBE_INTERVAL,
    PARENT_RESTART_BUDGET,
    fork_with_retry,
    rdrand_selftest,
)
from ..machine.debug import architectural_snapshot, snapshot_divergences

#: Default per-request worker budget in simulated cycles.  Two orders of
#: magnitude above the slowest honest request (p99 < 1k cycles), so the
#: deadline only ever reaps runaways.
DEFAULT_DEADLINE_CYCLES = 250_000.0

#: Consecutive non-attack crashes that trip the breaker.
DEFAULT_CRASH_LOOP_THRESHOLD = 4

#: First backoff window (in quarantined requests) and its cap.
DEFAULT_BACKOFF_BASE = 8
DEFAULT_BACKOFF_CAP = 64

BREAKER_CLOSED = "closed"
BREAKER_OPEN = "open"
BREAKER_HALF_OPEN = "half-open"

_DEADLINE_REAPS = telemetry.counter(
    "fleet_deadline_reaps_total",
    "fleet workers reaped at the request cycle deadline",
)
_CRASH_LOOP_TRIPS = telemetry.counter(
    "fleet_crash_loop_trips_total",
    "crash-loop breaker trips across fleet slices",
)
_PARENT_RESTARTS = telemetry.counter(
    "fleet_parent_restarts_total",
    "fleet parents restarted from their boot image",
)


@dataclass(frozen=True)
class SupervisorConfig:
    """Supervision knobs; JSON round-trippable so shard workers inherit
    the exact configuration of the parent campaign."""

    deadline_cycles: float = DEFAULT_DEADLINE_CYCLES
    crash_loop_threshold: int = DEFAULT_CRASH_LOOP_THRESHOLD
    backoff_base: int = DEFAULT_BACKOFF_BASE
    backoff_cap: int = DEFAULT_BACKOFF_CAP
    parent_restart_budget: int = PARENT_RESTART_BUDGET
    entropy_probe_interval: int = ENTROPY_PROBE_INTERVAL

    def to_json(self) -> Dict[str, Any]:
        return {
            "deadline_cycles": self.deadline_cycles,
            "crash_loop_threshold": self.crash_loop_threshold,
            "backoff_base": self.backoff_base,
            "backoff_cap": self.backoff_cap,
            "parent_restart_budget": self.parent_restart_budget,
            "entropy_probe_interval": self.entropy_probe_interval,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "SupervisorConfig":
        return cls(
            deadline_cycles=float(data["deadline_cycles"]),
            crash_loop_threshold=int(data["crash_loop_threshold"]),
            backoff_base=int(data["backoff_base"]),
            backoff_cap=int(data["backoff_cap"]),
            parent_restart_budget=int(data["parent_restart_budget"]),
            entropy_probe_interval=int(data["entropy_probe_interval"]),
        )


class CrashLoopBreaker:
    """Per-slice circuit breaker over worker crashes.

    State machine: ``closed`` → (K consecutive crashes) → ``open`` for a
    backoff window counted in quarantined requests → ``half-open`` → one
    probe request either resets to ``closed`` or re-trips with a doubled
    window.  The jitter added to each window comes from a PRNG seeded on
    the slice seed alone, so the quarantine pattern is a pure function of
    the slice — shard- and resume-invariant.
    """

    def __init__(self, config: SupervisorConfig, seed: int) -> None:
        self._config = config
        self._seed = seed
        #: Seeded on the first trip: most slices never trip.
        self._rng: Optional[random.Random] = None
        self.state = BREAKER_CLOSED
        self.streak = 0
        self.trips = 0
        self.remaining = 0

    def _trip(self) -> None:
        self.trips += 1
        exponent = min(self.trips - 1, 16)
        window = min(self._config.backoff_cap, self._config.backoff_base << exponent)
        if self._rng is None:
            self._rng = random.Random(f"fleet-breaker-{self._seed}")
        self.remaining = window + self._rng.randrange(self._config.backoff_base)
        self.state = BREAKER_OPEN
        self.streak = 0
        _CRASH_LOOP_TRIPS.inc()

    def quarantines_next(self) -> bool:
        """Consume one admission decision; True = quarantine the request."""
        if self.state == BREAKER_OPEN:
            if self.remaining > 0:
                self.remaining -= 1
                return True
            self.state = BREAKER_HALF_OPEN
        return False

    def record_crash(self) -> None:
        if self.state == BREAKER_HALF_OPEN:
            self._trip()
            return
        self.streak += 1
        if self.streak >= self._config.crash_loop_threshold:
            self._trip()

    def record_success(self) -> None:
        self.state = BREAKER_CLOSED
        self.streak = 0


class FleetSupervisor:
    """The self-healing layer one :class:`~repro.fleet.server.FleetServer`
    runs under.  Attach with :meth:`attach`; the server then routes every
    request through :meth:`admit` / :meth:`checkout_worker` /
    :meth:`arm_deadline` / :meth:`observe`."""

    def __init__(
        self, config: Optional[SupervisorConfig] = None, *, seed: int = 0
    ) -> None:
        self.config = config or SupervisorConfig()
        self.seed = seed
        self.breaker = CrashLoopBreaker(self.config, seed)
        self.deadline_reaps = 0
        self.parent_restarts = 0
        self.restart_divergences: List[str] = []
        self.faulted_requests = 0
        self.faulted_cycles = 0.0
        self.clean_requests = 0
        self.clean_cycles = 0.0
        self._server = None
        self._plane = None
        self._boot_image: Optional[bytes] = None
        self._boot_reference: Optional[Dict[str, object]] = None
        self._boot_quarantined = False
        self._marker = 0
        self._since_probe = 0

    # -- lifecycle --------------------------------------------------------

    def attach(self, server) -> "FleetSupervisor":
        """Adopt a booted server.  Self-healing state (the boot image and
        its architectural reference) is captured only when a fault plane
        is armed: a fault-free parent can never degrade, so clean fleets
        pay nothing for the healing machinery."""
        self._server = server
        server.supervisor = self
        self._plane = getattr(server.kernel, "fault_plane", None)
        if self._plane is not None:
            self._boot_image = server.parent.snapshot()
            self._boot_reference = architectural_snapshot(server.parent)
            device = getattr(server.parent.cpu, "rdrand", None)
            self._boot_quarantined = bool(device is not None and device.quarantined)
        return self

    # -- admission --------------------------------------------------------

    def admit(self) -> bool:
        """One admission decision; False = quarantine (fail closed)."""
        return self.admit_session(1)

    def admit_session(self, legs: int = 1) -> bool:
        """One admission decision covering a ``legs``-request connection.

        A refused connection consumes one backoff slot per leg — the
        breaker's window is counted in requests, and a quarantined leak
        session still accounts for both of its requests.
        """
        admitted = not self.breaker.quarantines_next()
        if not admitted:
            for _ in range(legs - 1):
                self.breaker.quarantines_next()
        if self._plane is not None:
            self._marker = self._plane.activity()
        return admitted

    # -- worker checkout --------------------------------------------------

    def checkout_worker(self):
        """Fork one worker under the degradation budgets.

        Transient EAGAIN is absorbed by the policy retry loop; a
        :class:`DegradedError` (retry budget exhausted, torn shadow-pair
        refresh) triggers one parent heal and one more attempt.  Returns
        ``None`` when the checkout stays degraded — the caller fails
        closed with a quarantined response — and feeds the breaker, so a
        degrading parent backs off instead of burning its fork budget on
        every request.
        """
        try:
            return self._fork()
        except DegradedError:
            pass
        if self._heal("degraded fork"):
            try:
                return self._fork()
            except DegradedError:
                pass
        self.breaker.record_crash()
        return None

    def _fork(self):
        server = self._server
        child = fork_with_retry(server.parent)
        server.note_worker_forked(child)
        return child

    # -- self-healing -----------------------------------------------------

    def _heal(self, reason: str) -> bool:
        """Restart the parent from its boot image; verify exact replay."""
        if self._boot_image is None:
            return False
        if self.parent_restarts >= self.config.parent_restart_budget:
            return False
        server = self._server
        kernel = server.kernel
        kernel.reap(server.parent)
        restored = kernel.restore(self._boot_image)
        self.parent_restarts += 1
        _PARENT_RESTARTS.inc()
        divergences = snapshot_divergences(
            architectural_snapshot(restored), self._boot_reference
        )
        if divergences:
            self.restart_divergences.append(
                f"parent restart ({reason}) did not replay the "
                f"re-randomization boundary: {'; '.join(divergences[:3])}"
            )
        server.parent = restored
        return True

    # -- per-request observation ------------------------------------------

    def arm_deadline(self, child) -> None:
        limit = self.config.deadline_cycles
        if limit > 0:
            child.cpu.cycle_limit = min(child.cpu.cycle_limit, limit)

    def observe(self, response, *, in_attack_session: bool) -> None:
        """Classify one response and update breaker/health state.

        Mutates ``response.outcome`` (a SIGXCPU crash under an armed
        deadline becomes the typed ``deadline`` outcome).  Quarantined
        responses never re-feed the breaker — they are its *output* — and
        attack-session crashes never feed it either: a canary abort under
        attack is the defence working, not a crash loop.
        """
        if (
            response.outcome == "served"
            and response.crashed
            and response.signal == "SIGXCPU"
        ):
            response.outcome = "deadline"
            self.deadline_reaps += 1
            _DEADLINE_REAPS.inc()
        if response.outcome == "quarantined":
            return
        if self._plane is not None and not in_attack_session:
            # Window-stretch attribution over *benign* requests only:
            # attack requests (brute probes crash at the first wrong
            # byte) have a wildly different cycle profile that would
            # drown the faulted-vs-clean comparison in mix noise.
            # A quarantined device is deliberately NOT counted here: a
            # stuck DRBG weakens entropy without costing cycles, so
            # folding its (unstretched) requests in would only dilute
            # the starvation signal the metric exists to expose.
            faulted = self._plane.activity() != self._marker
            if faulted:
                self.faulted_requests += 1
                self.faulted_cycles += response.cycles
            else:
                self.clean_requests += 1
                self.clean_cycles += response.cycles
        self._maybe_probe()
        if in_attack_session:
            return
        if response.crashed:
            self.breaker.record_crash()
        else:
            self.breaker.record_success()

    def _maybe_probe(self) -> None:
        """Periodic parent entropy health probe (plane-armed only).

        Re-runs the boot self-test every ``entropy_probe_interval``
        requests; a probe that quarantines the device mid-traffic means
        the DRBG stuck *after* boot, and the supervisor heals by
        restoring the pre-quarantine boot image.  A parent that was
        already quarantined at boot is left alone — its fallback posture
        *is* the correct degraded state, and a restart would replay the
        same quarantine.
        """
        if self._plane is None:
            return
        interval = self.config.entropy_probe_interval
        if interval <= 0:
            return
        self._since_probe += 1
        if self._since_probe < interval:
            return
        self._since_probe = 0
        parent = self._server.parent
        device = getattr(parent.cpu, "rdrand", None)
        if device is None:
            return
        if not device.quarantined:
            rdrand_selftest(parent)
        if device.quarantined and not self._boot_quarantined:
            self._heal("entropy quarantined")

    # -- fail-closed response ---------------------------------------------

    def quarantine_response(self):
        """The typed fail-closed response for a refused request.

        Presented as a crash (zero cycles, no output): the byte-by-byte
        attack treats any non-crash as a confirmed guess, so an
        availability measure must never read as a breach.
        """
        from .server import FleetResponse

        return FleetResponse(
            crashed=True,
            smashed=False,
            output=b"",
            cycles=0.0,
            signal="",
            outcome="quarantined",
        )

    # -- slice bookkeeping ------------------------------------------------

    def finalize(self, record) -> None:
        """Copy supervision bookkeeping into a finished slice record."""
        record.breaker_trips = self.breaker.trips
        record.parent_restarts = self.parent_restarts
        record.faulted_requests = self.faulted_requests
        record.faulted_cycles = self.faulted_cycles
        record.clean_requests = self.clean_requests
        record.clean_cycles = self.clean_cycles
        record.audit_divergences.extend(self.restart_divergences)
