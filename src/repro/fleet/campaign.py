"""Fleet campaigns: a million-request attack mix, audited from counters.

A campaign is, per scheme, a contiguous range of **slices**: slice ``i``
boots its own :class:`~repro.fleet.server.FleetServer` under kernel seed
``base_seed + i`` and serves ``slice_requests`` requests of the traffic
mix scheduled by :mod:`repro.fleet.traffic`.  The slice is the shard
unit, exactly like a fuzz or chaos seed, so the PR 5 executor scales a
campaign across cores while the merged report stays bit-identical to a
serial run — and any slice replays in isolation from its seed.

Every number in the report is *proved* rather than asserted: a slice
records the telemetry counter deltas accumulated while it ran and
cross-checks its own bookkeeping against them (requests vs
``fleet_requests_total``, detections vs
``canary_smashes_detected_total``, worker forks vs
``kernel_forks_total``, crashes vs ``fleet_request_crashes_total``).  A
mismatch is an **audit divergence** — a correctness finding that the
CLI surfaces as exit 1 and ``bench_fleet`` as exit 2, never a warning.

Report metrics, all derived from deterministic simulated state:

* **detection rate** — canary-detected smashes per attack request;
* **time-to-detection** — 1-based global request index of the first
  detected smash (the paper's "how long does the fleet stay blind");
* **requests/sec** — served requests over simulated seconds
  (``cycles / CLOCK_HZ``), the throughput the telemetry plane observes;
* **tail latency** — p50/p95/p99 over the per-request cycle histogram
  (fixed buckets shared with the ``fleet_request_cycles`` instrument).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..attacks.byte_by_byte import byte_by_byte_attack
from ..attacks.leak import CanarySniffer
from ..attacks.payloads import PayloadBuilder, frame_map
from ..faults.plane import FaultPlane
from ..faults.schedule import FaultSchedule, generate_fleet_fault_schedule
from ..harness.metrics import CLOCK_HZ
from ..trace import (
    CampaignTrace,
    SliceTrace,
    SliceTracer,
    TraceConfig,
    build_lost_bundle,
)
from .server import (
    FLEET_BUFFER_SIZE,
    FLEET_VICTIM,
    LATENCY_BUCKETS_CYCLES,
    FleetServer,
)
from .supervisor import FleetSupervisor, SupervisorConfig
from .traffic import SESSION_KINDS, TrafficConfig, session_plan

#: Schemes the CLI and benches exercise by default: the brute-forceable
#: baseline, the paper's P-SSP family, and the leak-resilient OWF
#: variant — the Table-style comparison set for a service fleet.
DEFAULT_FLEET_SCHEMES: Tuple[str, ...] = (
    "ssp", "pssp", "pssp-nt", "pssp-owf",
)

#: Default campaign seed (shared with the attack trials).
DEFAULT_BASE_SEED = 20180625

#: Counter names a slice audit cross-checks its bookkeeping against.
AUDITED_COUNTERS: Tuple[str, ...] = (
    "fleet_requests_total",
    "fleet_request_crashes_total",
    "fleet_workers_forked_total",
    "kernel_forks_total",
    "canary_smashes_detected_total",
    "fleet_deadline_reaps_total",
    "fleet_crash_loop_trips_total",
    "fleet_parent_restarts_total",
)

#: Campaign-level counter audited by ``run_fleet`` itself (shard retries
#: are a parent-side decision, so it cannot be proven per slice).
RETRY_COUNTER = "fleet_slices_retried_total"


class LatencyLedger:
    """Bucketed per-request latency counts (merge-friendly integers)."""

    __slots__ = ("counts",)

    def __init__(self, counts: Optional[List[int]] = None) -> None:
        size = len(LATENCY_BUCKETS_CYCLES) + 1
        if counts is None:
            counts = [0] * size
        if len(counts) != size:
            raise ValueError(
                f"latency ledger needs {size} buckets, got {len(counts)}"
            )
        # Aliases (does not copy) a caller-owned list, so a slice's
        # ledger writes straight into ``FleetSlice.latency``.
        self.counts = counts

    def observe(self, cycles: float) -> None:
        for index, bound in enumerate(LATENCY_BUCKETS_CYCLES):
            if cycles <= bound:
                self.counts[index] += 1
                return
        self.counts[-1] += 1

    def merge(self, other: "LatencyLedger") -> None:
        for index, count in enumerate(other.counts):
            self.counts[index] += count

    @property
    def total(self) -> int:
        return sum(self.counts)

    def percentile(self, quantile: float) -> Optional[float]:
        """Upper bucket bound covering ``quantile`` of requests.

        ``None`` when the ledger is empty or the quantile lands in the
        unbounded overflow bucket.
        """
        total = self.total
        if total == 0:
            return None
        need = quantile * total
        cumulative = 0
        for index, bound in enumerate(LATENCY_BUCKETS_CYCLES):
            cumulative += self.counts[index]
            if cumulative >= need:
                return bound
        return None


@dataclass
class FleetSlice:
    """One server's share of the campaign: the replayable unit."""

    seed: int
    request_budget: int
    requests: int = 0
    benign_requests: int = 0
    attack_requests: int = 0
    sessions: Dict[str, int] = field(
        default_factory=lambda: {kind: 0 for kind in SESSION_KINDS}
    )
    detections: int = 0
    crashes: int = 0
    breaches: int = 0
    #: Breaches split by attack kind — the paper's story is that
    #: ``brute`` breaches vanish under re-randomization while ``leak``
    #: breaches survive every scheme but the OWF/GB variants.
    breaches_by_kind: Dict[str, int] = field(
        default_factory=lambda: {"brute": 0, "leak": 0}
    )
    #: 1-based request index (within the slice) of the first detected
    #: smash; ``None`` when the slice saw no detection.
    first_detection_request: Optional[int] = None
    cycles: float = 0.0
    latency: List[int] = field(
        default_factory=lambda: [0] * (len(LATENCY_BUCKETS_CYCLES) + 1)
    )
    #: Counter-vs-bookkeeping mismatches found by the slice audit.
    audit_divergences: List[str] = field(default_factory=list)
    #: Supervision outcomes (see :mod:`repro.fleet.supervisor`): workers
    #: reaped at the cycle deadline, requests quarantined fail-closed,
    #: breaker trips, parent restarts from the boot image.
    deadline_reaps: int = 0
    quarantined_requests: int = 0
    breaker_trips: int = 0
    parent_restarts: int = 0
    #: Re-randomization-window attribution: requests the fault plane
    #: touched vs requests it left alone, with their cycle totals.
    faulted_requests: int = 0
    clean_requests: int = 0
    faulted_cycles: float = 0.0
    clean_cycles: float = 0.0

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "request_budget": self.request_budget,
            "requests": self.requests,
            "benign_requests": self.benign_requests,
            "attack_requests": self.attack_requests,
            "sessions": dict(self.sessions),
            "detections": self.detections,
            "crashes": self.crashes,
            "breaches": self.breaches,
            "breaches_by_kind": dict(self.breaches_by_kind),
            "first_detection_request": self.first_detection_request,
            "cycles": self.cycles.hex(),
            "latency": list(self.latency),
            "audit_divergences": list(self.audit_divergences),
            "deadline_reaps": self.deadline_reaps,
            "quarantined_requests": self.quarantined_requests,
            "breaker_trips": self.breaker_trips,
            "parent_restarts": self.parent_restarts,
            "faulted_requests": self.faulted_requests,
            "clean_requests": self.clean_requests,
            "faulted_cycles": self.faulted_cycles.hex(),
            "clean_cycles": self.clean_cycles.hex(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FleetSlice":
        raw_first = data.get("first_detection_request")
        return cls(
            seed=int(data["seed"]),
            request_budget=int(data["request_budget"]),
            requests=int(data["requests"]),
            benign_requests=int(data["benign_requests"]),
            attack_requests=int(data["attack_requests"]),
            sessions={k: int(v) for k, v in data["sessions"].items()},
            detections=int(data["detections"]),
            crashes=int(data["crashes"]),
            breaches=int(data["breaches"]),
            breaches_by_kind={
                k: int(v) for k, v in data["breaches_by_kind"].items()
            },
            first_detection_request=(
                None if raw_first is None else int(raw_first)
            ),
            cycles=float.fromhex(data["cycles"]),
            latency=[int(c) for c in data["latency"]],
            audit_divergences=list(data["audit_divergences"]),
            deadline_reaps=int(data.get("deadline_reaps", 0)),
            quarantined_requests=int(data.get("quarantined_requests", 0)),
            breaker_trips=int(data.get("breaker_trips", 0)),
            parent_restarts=int(data.get("parent_restarts", 0)),
            faulted_requests=int(data.get("faulted_requests", 0)),
            clean_requests=int(data.get("clean_requests", 0)),
            faulted_cycles=float.fromhex(data.get("faulted_cycles", "0x0.0p+0")),
            clean_cycles=float.fromhex(data.get("clean_cycles", "0x0.0p+0")),
        )


class _SliceDriver:
    """Runs one slice's session loop against a booted server."""

    def __init__(
        self, server: FleetServer, config: TrafficConfig, budget: int
    ) -> None:
        self.server = server
        self.config = config
        self.budget = budget
        self.slice = FleetSlice(seed=0, request_budget=budget)
        self.latency = LatencyLedger(self.slice.latency)
        self._in_attack_session = False
        server.on_response = self._on_response

    # Every request — including the ones byte_by_byte_attack drives on
    # its own — lands here exactly once, so the slice's numbers come
    # from the same stream the telemetry counters count.
    def _on_response(self, response) -> None:
        record = self.slice
        record.requests += 1
        if self._in_attack_session:
            record.attack_requests += 1
        else:
            record.benign_requests += 1
        if response.crashed:
            record.crashes += 1
        if response.smashed:
            record.detections += 1
            if record.first_detection_request is None:
                record.first_detection_request = record.requests
        outcome = getattr(response, "outcome", "served")
        if outcome == "deadline":
            record.deadline_reaps += 1
        elif outcome == "quarantined":
            record.quarantined_requests += 1
        record.cycles += response.cycles
        self.latency.observe(response.cycles)

    def _set_attack(self, is_attack: bool) -> None:
        self._in_attack_session = is_attack
        self.server.in_attack_session = is_attack

    @property
    def remaining(self) -> int:
        return self.budget - self.slice.requests

    def run(self) -> FleetSlice:
        frame = frame_map(self.server.binary, self.server.handler)
        builder = PayloadBuilder(frame)
        tracer = self.server.tracer
        index = 0
        while self.remaining > 0:
            plan = session_plan(
                self.config, self.slice.seed, index,
                buffer_size=FLEET_BUFFER_SIZE,
            )
            index += 1
            if plan.kind == "leak" and self.remaining < 2:
                # A leak session is atomic (disclosure + exploit); there
                # is no budget left for both, so the campaign ends here.
                break
            self.slice.sessions[plan.kind] += 1
            if tracer is not None:
                tracer.begin_session(plan)
            self._set_attack(plan.is_attack)
            if plan.kind == "benign":
                for _ in range(min(plan.requests, self.remaining)):
                    self.server.handle_request(
                        builder.benign(plan.payload_length)
                    )
            elif plan.kind == "smash":
                self.server.handle_request(builder.smash())
            elif plan.kind == "brute":
                report = byte_by_byte_attack(
                    self.server, frame,
                    max_trials=min(plan.requests, self.remaining),
                )
                if report.success:
                    self.slice.breaches += 1
                    self.slice.breaches_by_kind["brute"] += 1
                    if tracer is not None:
                        tracer.on_breach("brute")
            elif plan.kind == "leak":
                if self._leak_session():
                    self.slice.breaches += 1
                    self.slice.breaches_by_kind["leak"] += 1
                    if tracer is not None:
                        tracer.on_breach("leak")
        self._set_attack(False)
        self.server.on_response = None
        return self.slice

    def _leak_session(self) -> bool:
        """One leak-and-replay connection: disclose, then exploit.

        Under supervision the connection is subject to the same admission
        and checkout rules as the accept loop; a refused or degraded
        checkout quarantines *both* legs of the session fail-closed.
        """
        server = self.server
        supervisor = server.supervisor
        if supervisor is not None:
            worker = (
                supervisor.checkout_worker()
                if supervisor.admit_session(2) else None
            )
            if worker is None:
                server._record(supervisor.quarantine_response())
                server._record(supervisor.quarantine_response())
                return False
            supervisor.arm_deadline(worker)
        else:
            worker = server.fork_worker()
        leak_frame = frame_map(server.binary, "leaky")
        with warnings.catch_warnings():
            # The sniffer's trace hook forces the slow interpreter loop;
            # that is the point — the disclosure costs one worker, and
            # the RuntimeWarning would drown campaign output otherwise.
            warnings.simplefilter("ignore", RuntimeWarning)
            sniffer = CanarySniffer(worker, "leaky", leak_frame)
        disclosed = worker.call("leaky", (0,))
        leaked = sniffer.disarm()
        server.account_worker_request(
            disclosed.crashed, disclosed.smashed, disclosed.cycles
        )

        target_frame = frame_map(server.binary, server.handler)
        builder = PayloadBuilder(target_frame)
        replay = {
            slot: leaked[leak_slot]
            for slot, leak_slot in zip(
                target_frame.canary_slots, leak_frame.canary_slots
            )
            if leak_slot in leaked
        }
        payload = builder.with_canaries(
            replay,
            new_return=worker.image.address_of("win"),
            new_rbp=worker.registers.read("rsp") - 0x200,
        )
        worker.stdin.clear()
        worker.feed_stdin(payload)
        exploit = worker.call(server.handler, (len(payload),))
        output = bytes(worker.stdout)
        server.account_worker_request(
            exploit.crashed, exploit.smashed, exploit.cycles, output
        )
        server.release_worker(worker)
        return b"PWNED" in output


def run_fleet_slice(
    scheme: str,
    seed: int,
    *,
    config: Optional[TrafficConfig] = None,
    request_budget: int = 1000,
    audit: bool = True,
    supervision: Optional[SupervisorConfig] = None,
    chaos_seed: Optional[int] = None,
    fault_schedule: Optional[FaultSchedule] = None,
    tracer: Optional[SliceTracer] = None,
) -> FleetSlice:
    """Boot one server and serve one slice of the traffic mix.

    Every slice runs under a :class:`FleetSupervisor` (deadlines and the
    crash-loop breaker are always armed; self-healing state is captured
    only when a fault plane is).  ``chaos_seed`` derives the slice's
    :class:`FaultSchedule` via :func:`generate_fleet_fault_schedule`;
    ``fault_schedule`` injects an explicit one (tests, ``repro serve``).

    With ``audit`` on (and telemetry enabled in this process), the
    slice's bookkeeping is cross-checked against the counter deltas it
    produced; mismatches land in ``audit_divergences``.

    ``tracer`` attaches a :class:`~repro.trace.SliceTracer` for the run;
    its replay identity is stamped here so every bundle it captures can
    re-run this exact slice.  (An explicit ``fault_schedule`` without a
    ``chaos_seed`` is outside the identity — bundles replay faithfully
    only for seed-derived schedules.)
    """
    config = config if config is not None else TrafficConfig()
    auditing = audit and telemetry.enabled()
    before = telemetry.snapshot() if auditing else {}
    if fault_schedule is None and chaos_seed is not None:
        fault_schedule = generate_fleet_fault_schedule(chaos_seed, seed, scheme)
    plane = FaultPlane(fault_schedule) if fault_schedule is not None else None
    server = FleetServer.boot(scheme, seed, fault_plane=plane)
    supervisor = FleetSupervisor(supervision, seed=seed).attach(server)
    if tracer is not None:
        tracer.replay_identity = {
            "traffic": config.to_json(),
            "request_budget": request_budget,
            "supervision": supervisor.config.to_json(),
            "chaos_seed": chaos_seed,
        }
        tracer.attach(server)
    driver = _SliceDriver(server, config, request_budget)
    driver.slice.seed = seed
    record = driver.run()
    supervisor.finalize(record)
    if auditing:
        delta = telemetry.delta(before)
        _audit_slice(record, server, delta)
    if tracer is not None:
        # After the audit, so an audit divergence freezes its bundle.
        tracer.finalize(record)
    return record


def _counter(delta: Dict[str, object], name: str) -> int:
    return int(delta.get(name, 0) or 0)


def _audit_slice(
    record: FleetSlice, server: FleetServer, delta: Dict[str, object]
) -> None:
    """Prove the slice's numbers from the telemetry counter deltas."""
    observed = {name: _counter(delta, name) for name in AUDITED_COUNTERS}
    expected = {
        "fleet_requests_total": record.requests,
        "fleet_request_crashes_total": record.crashes,
        "fleet_workers_forked_total": server.workers_forked,
        # Every fork this slice's kernel performed was a fleet worker.
        "kernel_forks_total": server.workers_forked,
        "canary_smashes_detected_total": record.detections,
        # Supervision outcomes: ticked by the supervisor, bookkept
        # independently by the driver/slice, proven equal here.
        "fleet_deadline_reaps_total": record.deadline_reaps,
        "fleet_crash_loop_trips_total": record.breaker_trips,
        "fleet_parent_restarts_total": record.parent_restarts,
    }
    for name, want in expected.items():
        got = observed[name]
        if got != want:
            record.audit_divergences.append(
                f"{name}: report says {want}, counters say {got}"
            )
    total = LatencyLedger(record.latency).total
    if total != record.requests:
        record.audit_divergences.append(
            f"latency ledger holds {total} samples for "
            f"{record.requests} requests"
        )


@dataclass
class FleetSchemeReport:
    """One scheme's campaign: ordered slices plus lost-shard accounting."""

    scheme: str
    base_seed: int
    request_budget: int
    slice_requests: int
    slices: List[FleetSlice] = field(default_factory=list)
    #: Slice seeds whose shard was lost to a crashed worker (after the
    #: retry budget) — surfaced, never silently dropped.
    lost: List[int] = field(default_factory=list)
    #: Slices that were re-queued after a shard worker died (counted per
    #: requeue per slice; audited against ``fleet_slices_retried_total``).
    slices_retried: int = 0
    #: Shards that needed more than one attempt: "first..last" seed
    #: range -> total attempts.  Empty on the happy path, so a resumed
    #: report stays byte-identical to an uninterrupted one.
    shard_attempts: Dict[str, int] = field(default_factory=dict)
    #: Campaign-level counter-vs-bookkeeping mismatches (retry audit).
    campaign_divergences: List[str] = field(default_factory=list)

    # -- aggregation (slices folded in seed order, always) ---------------

    @property
    def requests(self) -> int:
        return sum(s.requests for s in self.slices)

    @property
    def benign_requests(self) -> int:
        return sum(s.benign_requests for s in self.slices)

    @property
    def attack_requests(self) -> int:
        return sum(s.attack_requests for s in self.slices)

    @property
    def detections(self) -> int:
        return sum(s.detections for s in self.slices)

    @property
    def crashes(self) -> int:
        return sum(s.crashes for s in self.slices)

    @property
    def breaches(self) -> int:
        return sum(s.breaches for s in self.slices)

    @property
    def breaches_by_kind(self) -> Dict[str, int]:
        totals = {"brute": 0, "leak": 0}
        for s in self.slices:
            for kind, count in s.breaches_by_kind.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    @property
    def cycles(self) -> float:
        total = 0.0
        for s in self.slices:
            total += s.cycles
        return total

    @property
    def sessions(self) -> Dict[str, int]:
        totals = {kind: 0 for kind in SESSION_KINDS}
        for s in self.slices:
            for kind, count in s.sessions.items():
                totals[kind] = totals.get(kind, 0) + count
        return totals

    @property
    def detection_rate(self) -> float:
        """Canary-detected smashes per attack request."""
        if self.attack_requests == 0:
            return 0.0
        return self.detections / self.attack_requests

    @property
    def time_to_detection(self) -> Optional[int]:
        """Global 1-based request index of the first detected smash."""
        offset = 0
        for s in self.slices:
            if s.first_detection_request is not None:
                return offset + s.first_detection_request
            offset += s.requests
        return None

    @property
    def simulated_rps(self) -> float:
        """Requests per simulated second (``cycles / CLOCK_HZ``)."""
        if self.cycles <= 0:
            return 0.0
        return self.requests / (self.cycles / CLOCK_HZ)

    def latency_ledger(self) -> LatencyLedger:
        merged = LatencyLedger()
        for s in self.slices:
            merged.merge(LatencyLedger(s.latency))
        return merged

    @property
    def audit_divergences(self) -> List[str]:
        found = []
        for s in self.slices:
            found.extend(
                f"seed {s.seed}: {line}" for line in s.audit_divergences
            )
        found.extend(
            f"campaign: {line}" for line in self.campaign_divergences
        )
        return found

    # -- supervision aggregation -----------------------------------------

    @property
    def deadline_reaps(self) -> int:
        return sum(s.deadline_reaps for s in self.slices)

    @property
    def quarantined_requests(self) -> int:
        return sum(s.quarantined_requests for s in self.slices)

    @property
    def breaker_trips(self) -> int:
        return sum(s.breaker_trips for s in self.slices)

    @property
    def parent_restarts(self) -> int:
        return sum(s.parent_restarts for s in self.slices)

    def supervision_summary(self) -> Dict[str, Any]:
        """The supervision section: availability outcomes plus the
        re-randomization-window stretch (mean cycles of plane-touched
        requests over mean cycles of untouched ones — how much a faulted
        request widens the exposure window the paper's re-randomization
        is meant to shrink)."""
        faulted = sum(s.faulted_requests for s in self.slices)
        clean = sum(s.clean_requests for s in self.slices)
        faulted_cycles = 0.0
        clean_cycles = 0.0
        for s in self.slices:
            faulted_cycles += s.faulted_cycles
            clean_cycles += s.clean_cycles
        faulted_mean = faulted_cycles / faulted if faulted else None
        clean_mean = clean_cycles / clean if clean else None
        stretch = (
            faulted_mean / clean_mean
            if faulted_mean is not None and clean_mean else None
        )
        return {
            "deadline_reaps": self.deadline_reaps,
            "quarantined_requests": self.quarantined_requests,
            "breaker_trips": self.breaker_trips,
            "parent_restarts": self.parent_restarts,
            "slices_retried": self.slices_retried,
            "faulted_requests": faulted,
            "clean_requests": clean,
            "faulted_mean_cycles": faulted_mean,
            "clean_mean_cycles": clean_mean,
            "rerand_window_stretch": stretch,
        }

    def summary(self) -> Dict[str, Any]:
        """The per-scheme row every consumer (CLI, bench, CI) reads."""
        ledger = self.latency_ledger()
        return {
            "scheme": self.scheme,
            "requests": self.requests,
            "benign_requests": self.benign_requests,
            "attack_requests": self.attack_requests,
            "sessions": self.sessions,
            "detections": self.detections,
            "crashes": self.crashes,
            "breaches": self.breaches,
            "breaches_by_kind": self.breaches_by_kind,
            "detection_rate": self.detection_rate,
            "time_to_detection": self.time_to_detection,
            "simulated_rps": self.simulated_rps,
            "latency_cycles": {
                "p50": ledger.percentile(0.50),
                "p95": ledger.percentile(0.95),
                "p99": ledger.percentile(0.99),
            },
            "lost_slices": len(self.lost),
            "audit_divergences": len(self.audit_divergences),
        }

    def to_json(self) -> Dict[str, Any]:
        return {
            "scheme": self.scheme,
            "base_seed": self.base_seed,
            "request_budget": self.request_budget,
            "slice_requests": self.slice_requests,
            "slices": [s.to_json() for s in self.slices],
            "lost": list(self.lost),
            "slices_retried": self.slices_retried,
            "shard_attempts": dict(self.shard_attempts),
            "campaign_divergences": list(self.campaign_divergences),
            "summary": self.summary(),
            "supervision": self.supervision_summary(),
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FleetSchemeReport":
        return cls(
            scheme=data["scheme"],
            base_seed=int(data["base_seed"]),
            request_budget=int(data["request_budget"]),
            slice_requests=int(data["slice_requests"]),
            slices=[FleetSlice.from_json(s) for s in data["slices"]],
            lost=[int(seed) for seed in data.get("lost", [])],
            slices_retried=int(data.get("slices_retried", 0)),
            shard_attempts={
                k: int(v) for k, v in data.get("shard_attempts", {}).items()
            },
            campaign_divergences=list(data.get("campaign_divergences", [])),
        )


@dataclass
class FleetReport:
    """The whole campaign: one scheme report per requested scheme."""

    base_seed: int
    request_budget: int
    slice_requests: int
    config: TrafficConfig
    schemes: Tuple[str, ...]
    reports: List[FleetSchemeReport] = field(default_factory=list)
    #: The chaos stream seed; ``None`` = no fault injection.
    chaos_seed: Optional[int] = None
    #: Supervision knobs the campaign ran under.
    supervision: SupervisorConfig = field(default_factory=SupervisorConfig)
    #: The campaign's trace (``run_fleet(..., trace=...)``).  Carried on
    #: the object only — deliberately excluded from ``to_json`` so the
    #: committed report artifact stays byte-identical whether or not the
    #: run was traced; the trace has its own artifacts (``--trace-out``,
    #: ``--bundle-dir``).
    trace: Optional[CampaignTrace] = None

    @property
    def total_requests(self) -> int:
        return sum(report.requests for report in self.reports)

    @property
    def lost_slices(self) -> int:
        return sum(len(report.lost) for report in self.reports)

    @property
    def audit_divergences(self) -> List[str]:
        found = []
        for report in self.reports:
            found.extend(
                f"{report.scheme}: {line}"
                for line in report.audit_divergences
            )
        return found

    def scheme_report(self, scheme: str) -> FleetSchemeReport:
        for report in self.reports:
            if report.scheme == scheme:
                return report
        raise KeyError(scheme)

    def to_json(self) -> Dict[str, Any]:
        return {
            "base_seed": self.base_seed,
            "request_budget": self.request_budget,
            "slice_requests": self.slice_requests,
            "config": self.config.to_json(),
            "schemes": list(self.schemes),
            "chaos_seed": self.chaos_seed,
            "supervision": self.supervision.to_json(),
            "reports": [report.to_json() for report in self.reports],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "FleetReport":
        raw_chaos = data.get("chaos_seed")
        raw_supervision = data.get("supervision")
        return cls(
            base_seed=int(data["base_seed"]),
            request_budget=int(data["request_budget"]),
            slice_requests=int(data["slice_requests"]),
            config=TrafficConfig.from_json(data["config"]),
            schemes=tuple(data["schemes"]),
            chaos_seed=None if raw_chaos is None else int(raw_chaos),
            supervision=(
                SupervisorConfig() if raw_supervision is None
                else SupervisorConfig.from_json(raw_supervision)
            ),
            reports=[
                FleetSchemeReport.from_json(r) for r in data["reports"]
            ],
        )

    def render(self) -> str:
        lines = [
            f"fleet: {self.request_budget} request(s)/scheme, "
            f"slice {self.slice_requests}, base seed {self.base_seed}, "
            f"attack rate "
            f"{self.config.attack_numerator}/{self.config.attack_denominator}"
        ]
        if self.chaos_seed is not None:
            lines.append(
                f"  chaos: seed {self.chaos_seed} "
                "(seeded fault injection under traffic, supervised)"
            )
        header = (
            f"  {'scheme':16s} {'requests':>9s} {'detect':>8s} "
            f"{'rate':>7s} {'ttd':>7s} {'brute!':>7s} {'leak!':>6s} "
            f"{'rps':>12s} {'p99(cyc)':>9s}"
        )
        lines.append(header)
        for report in self.reports:
            row = report.summary()
            ttd = row["time_to_detection"]
            p99 = row["latency_cycles"]["p99"]
            by_kind = row["breaches_by_kind"]
            lines.append(
                f"  {row['scheme']:16s} {row['requests']:>9,d} "
                f"{row['detections']:>8,d} {row['detection_rate']:>7.3f} "
                f"{ttd if ttd is not None else '-':>7} "
                f"{by_kind['brute']:>7,d} {by_kind['leak']:>6,d} "
                f"{row['simulated_rps']:>12,.0f} "
                f"{p99 if p99 is not None else '-':>9}"
            )
            if self.chaos_seed is not None:
                sup = report.supervision_summary()
                stretch = sup["rerand_window_stretch"]
                lines.append(
                    f"    supervision: {sup['deadline_reaps']} deadline "
                    f"reap(s), {sup['quarantined_requests']} quarantined, "
                    f"{sup['breaker_trips']} breaker trip(s), "
                    f"{sup['parent_restarts']} parent restart(s), "
                    f"window stretch "
                    f"{f'{stretch:.3f}' if stretch is not None else '-'}"
                )
            for span, attempts in sorted(report.shard_attempts.items()):
                lines.append(
                    f"    shard seeds {span}: {attempts} attempt(s)"
                )
            for seed in report.lost:
                lines.append(f"    slice seed {seed}: LOST (worker crashed)")
        divergences = self.audit_divergences
        for line in divergences:
            lines.append(f"  AUDIT DIVERGENCE: {line}")
        lines.append(
            "FLEET REPORT AUDITED OK" if not divergences
            else f"{len(divergences)} audit divergence(s)"
        )
        return "\n".join(lines)


def _slice_budget(
    request_budget: int, slice_requests: int, index: int
) -> int:
    """Request budget of slice ``index`` (last slice takes the tail)."""
    start = index * slice_requests
    return max(0, min(slice_requests, request_budget - start))


def _fleet_unit(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign unit (see :mod:`repro.parallel.campaign`): serve one
    slice.  The record holds the slice and, when tracing, its trace —
    so a checkpointed slice keeps its spans and bundles."""
    tracer = None
    if config["trace"] is not None:
        tracer = SliceTracer(
            config["scheme"], seed,
            config=TraceConfig.from_json(config["trace"]),
            chaos_seed=config["chaos_seed"],
        )
    record = run_fleet_slice(
        config["scheme"], seed,
        config=TrafficConfig.from_json(config["traffic"]),
        request_budget=_slice_budget(
            config["request_budget"], config["slice_requests"],
            seed - config["base_seed"],
        ),
        audit=config["audit"],
        supervision=SupervisorConfig.from_json(config["supervision"]),
        chaos_seed=config["chaos_seed"],
        tracer=tracer,
    )
    return {
        "slice": record.to_json(),
        "trace": None if tracer is None else tracer.trace.to_json(),
    }


def run_fleet(
    request_budget: int,
    *,
    schemes: Tuple[str, ...] = DEFAULT_FLEET_SCHEMES,
    base_seed: int = DEFAULT_BASE_SEED,
    slice_requests: int = 1000,
    config: Optional[TrafficConfig] = None,
    jobs: int = 1,
    audit: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    chaos: bool = False,
    chaos_seed: Optional[int] = None,
    supervision: Optional[SupervisorConfig] = None,
    shard_retries: int = 1,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    trace: Optional[TraceConfig] = None,
) -> FleetReport:
    """Serve ``request_budget`` requests per scheme, sharded by slice.

    ``jobs > 1`` shards the slice range through the crash-tolerant
    executor; slices merge in seed order so the report is bit-identical
    to a serial run.  A shard whose worker dies is re-queued up to
    ``shard_retries`` times before its slices are listed in the scheme
    report's ``lost`` — the CLI maps a non-empty ``lost`` to the typed
    infrastructure exit code.

    ``chaos`` arms per-slice fault schedules derived from ``chaos_seed``
    (default: ``base_seed``); the stream is keyed per slice, so chaos
    campaigns replay and shard bit-identically too.

    ``checkpoint_path`` persists every completed slice (atomically, after
    each slice or shard); ``resume=True`` skips the slices a previous —
    possibly killed — run already completed, under any ``jobs`` value,
    and the finished report is byte-identical to an uninterrupted run.
    The checkpoint must come from the same campaign (seeds, budgets,
    traffic, schemes, chaos seed, supervision, audit, trace config), or
    :class:`~repro.errors.CampaignError` is raised.

    ``trace`` arms a :class:`~repro.trace.SliceTracer` per slice and
    collects the campaign's :class:`~repro.trace.CampaignTrace` on the
    returned report's ``trace`` attribute, slices in scheme × seed order
    under any ``jobs`` value, so the exported trace is byte-identical to
    a serial run.  Each slice's trace is checkpointed with the slice, so
    a resumed traced campaign exports the same trace as an
    uninterrupted one.
    """
    from ..parallel import Checkpoint, run_units

    if request_budget < 1:
        raise ValueError("request_budget must be >= 1")
    if slice_requests < 1:
        raise ValueError("slice_requests must be >= 1")
    if shard_retries < 0:
        raise ValueError("shard_retries must be >= 0")
    if resume and not checkpoint_path:
        raise ValueError("resume requires a checkpoint path")
    if trace is not None and not telemetry.enabled():
        # Span canary attribution reads counters; shard workers always
        # boot with telemetry on, so the serial path must match or the
        # jobs-N byte-identity guarantee breaks.
        telemetry.enable()
    config = config if config is not None else TrafficConfig()
    supervision = supervision if supervision is not None else SupervisorConfig()
    effective_chaos_seed = (
        (chaos_seed if chaos_seed is not None else base_seed) if chaos else None
    )
    # The audit decision is made once, here, and shipped to workers:
    # worker processes always boot with telemetry enabled, so auditing
    # must not silently differ between serial and sharded runs.
    audit = audit and telemetry.enabled()
    report = FleetReport(
        base_seed=base_seed,
        request_budget=request_budget,
        slice_requests=slice_requests,
        config=config,
        schemes=tuple(schemes),
        chaos_seed=effective_chaos_seed,
        supervision=supervision,
    )
    if trace is not None:
        report.trace = CampaignTrace(config=trace)
    num_slices = -(-request_budget // slice_requests)
    campaign = {
        "base_seed": base_seed,
        "request_budget": request_budget,
        "slice_requests": slice_requests,
        "traffic": config.to_json(),
        "audit": audit,
        "supervision": supervision.to_json(),
        "chaos_seed": effective_chaos_seed,
        "trace": None if trace is None else trace.to_json(),
    }
    checkpoint = None
    if checkpoint_path:
        checkpoint = Checkpoint(
            checkpoint_path, "fleet",
            {**campaign, "schemes": list(report.schemes)}, resume=resume,
        )

    for scheme in report.schemes:
        scheme_report = FleetSchemeReport(
            scheme=scheme, base_seed=base_seed,
            request_budget=request_budget, slice_requests=slice_requests,
        )
        before_scheme = telemetry.snapshot() if audit else {}
        result = run_units(
            _fleet_unit, {**campaign, "scheme": scheme}, base_seed, num_slices,
            jobs=jobs, shard_retries=shard_retries,
            checkpoint=checkpoint, prefix=f"{scheme}/",
            progress=(
                (lambda line, scheme=scheme: progress(f"{scheme}: {line}"))
                if progress else None
            ),
        )
        for record in result.records.values():
            scheme_report.slices.append(FleetSlice.from_json(record["slice"]))
            if report.trace is not None:
                report.trace.slices.append(SliceTrace.from_json(record["trace"]))
        for lost in result.lost:
            scheme_report.lost.extend(lost.seeds)
            if report.trace is not None:
                bundle = build_lost_bundle(scheme, list(lost.seeds), {
                    "traffic": config.to_json(),
                    "request_budget": slice_requests,
                    "supervision": supervision.to_json(),
                    "chaos_seed": effective_chaos_seed,
                })
                bundle["budgets"] = {
                    str(s): _slice_budget(
                        request_budget, slice_requests, s - base_seed
                    )
                    for s in lost.seeds
                }
                report.trace.lost_bundles.append(bundle)
        scheme_report.shard_attempts = result.shard_attempts
        scheme_report.slices_retried = result.retried
        if scheme_report.slices_retried:
            telemetry.count(
                RETRY_COUNTER,
                delta=scheme_report.slices_retried,
                help="fleet slices re-queued after a lost shard worker",
            )
        if audit:
            got = _counter(telemetry.delta(before_scheme), RETRY_COUNTER)
            if got != scheme_report.slices_retried:
                scheme_report.campaign_divergences.append(
                    f"{RETRY_COUNTER}: report says "
                    f"{scheme_report.slices_retried}, counters say {got}"
                )
        report.reports.append(scheme_report)
        if progress:
            row = scheme_report.summary()
            progress(
                f"{scheme}: {row['requests']} request(s), "
                f"{row['detections']} detection(s), "
                f"{row['breaches']} breach(es)"
            )
    return report
