"""The simulated accept loop: worker-per-connection over a warm parent.

:class:`FleetServer` is the production shape the paper's motivating
attack targets (§II-B, §VI-C): a long-lived parent process accepts
connections and forks one worker per connection; crashed workers are
replaced, the parent — and whatever canary material its address space
carries — lives on.  The parent itself boots through
:func:`repro.core.deploy.deploy`, which serves warm spawn images from
:mod:`repro.parallel.snapcache`, so fleet campaigns pay the loader once
per process, not once per slice.

Every request path funnels through one bookkeeping point so the
campaign classifier's numbers and the telemetry counters cannot drift:
:meth:`handle_request` for connection-per-request traffic (benign,
smash, and byte-by-byte probes), :meth:`account_worker_request` for
calls an attack drives directly on a checked-out worker (the leak
session's disclosure/exploit pair).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from .. import telemetry
from ..binfmt.elf import Binary
from ..core.deploy import build, deploy
from ..kernel.kernel import Kernel
from ..kernel.process import Process

#: Fixed request-latency buckets in simulated cycles.  Shared by the
#: telemetry histogram and the campaign report, so the report's tail
#: latency is reproducible from the counter plane alone.
LATENCY_BUCKETS_CYCLES: Tuple[float, ...] = (
    110.0, 120.0, 130.0, 145.0, 160.0, 180.0,
    200.0, 250.0, 350.0, 500.0, 1000.0,
)

_REQUESTS = telemetry.counter(
    "fleet_requests_total", "fleet requests served (all sessions)"
)
_REQUEST_CRASHES = telemetry.counter(
    "fleet_request_crashes_total",
    "fleet workers that crashed serving a request",
)
_REQUEST_CYCLES = telemetry.histogram(
    "fleet_request_cycles", LATENCY_BUCKETS_CYCLES,
    "simulated cycles per served fleet request",
)
_WORKERS_FORKED = telemetry.counter(
    "fleet_workers_forked_total", "fleet workers forked (one per connection)"
)

#: The fleet victim: the §VI-C forking-server handler (a read into a
#: fixed frame) plus the leak-and-replay trio (a disclosure-prone
#: function, an overflow target, and a hijack gadget), so one binary
#: serves every session kind in the traffic mix.
FLEET_VICTIM = """
int win() {
    puts("PWNED");
    return 1;
}

int leaky(int n) {
    char buf[32];
    buf[0] = 1;
    return buf[0];
}

int handler(int n) {
    char buf[64];
    read(0, buf, 4096);
    return 0;
}

int main() { return 0; }
"""

#: Buffer size of ``handler`` in :data:`FLEET_VICTIM` (benign payloads
#: must stay strictly inside it).
FLEET_BUFFER_SIZE = 64


@dataclass
class FleetResponse:
    """What the traffic driver observes from one served request.

    ``outcome`` is the supervision verdict: ``"served"`` (the worker
    ran), ``"deadline"`` (reaped at the cycle budget, presented as a
    SIGXCPU crash), or ``"quarantined"`` (refused fail-closed by the
    crash-loop breaker or a degraded checkout; presented as a crash so
    an availability measure can never read as an attack breach).
    """

    crashed: bool
    smashed: bool
    output: bytes
    cycles: float
    signal: str = ""
    outcome: str = "served"


class FleetServer:
    """A forking accept-loop server over one deployed scheme.

    Parameters mirror a deployment: the kernel owns process identity and
    entropy, ``binary`` is the protected build, ``scheme`` selects the
    runtime support installed on the parent (and therefore inherited by
    every forked worker).
    """

    def __init__(
        self,
        kernel: Kernel,
        binary: Binary,
        scheme: str,
        *,
        handler: str = "handler",
    ) -> None:
        self.kernel = kernel
        self.binary = binary
        self.scheme = scheme
        self.handler = handler
        self.parent, self.runtime = deploy(kernel, binary, scheme)
        self.requests_served = 0
        self.workers_forked = 0
        self.crashes = 0
        self.smashes_observed = 0
        self.cycles = 0.0
        #: Campaign bookkeeping hook: fires once per request, after the
        #: request's counters have been recorded.
        self.on_response: Optional[Callable[[FleetResponse], None]] = None
        #: Installed by :meth:`FleetSupervisor.attach`; None = raw server.
        self.supervisor = None
        #: Installed by :meth:`SliceTracer.attach`; None = untraced.  The
        #: whole cost of tracing-off is the ``is not None`` compare per
        #: request in :meth:`_record` — never per-instruction work.
        self.tracer = None
        #: Set by the traffic driver around attack sessions so the
        #: supervisor's breaker ignores expected canary aborts.
        self.in_attack_session = False

    @classmethod
    def boot(
        cls,
        scheme: str,
        seed: int,
        *,
        source: str = FLEET_VICTIM,
        fault_plane=None,
    ) -> "FleetServer":
        """Build + deploy a server in one step (CLI and test shorthand)."""
        kernel = Kernel(seed, fault_plane=fault_plane)
        binary = build(source, scheme, name="fleet")
        return cls(kernel, binary, scheme)

    # -- the accept loop -------------------------------------------------

    def handle_request(self, payload: bytes) -> FleetResponse:
        """Accept one connection: fork a worker, run the handler, reap."""
        supervisor = self.supervisor
        if supervisor is None:
            child = self.fork_worker()
        else:
            child = supervisor.checkout_worker() if supervisor.admit() else None
            if child is None:
                response = supervisor.quarantine_response()
                self._record(response)
                return response
            supervisor.arm_deadline(child)
        child.stdin.clear()
        child.feed_stdin(payload)
        result = child.call(self.handler, (len(payload),))
        response = FleetResponse(
            crashed=result.crashed,
            smashed=result.smashed,
            output=bytes(child.stdout),
            cycles=result.cycles,
            signal=result.signal,
        )
        self.kernel.reap(child)
        if supervisor is not None:
            supervisor.observe(response, in_attack_session=self.in_attack_session)
        self._record(response)
        return response

    def fork_worker(self) -> Process:
        """Fork a worker off the parent (the per-connection clone).

        Callers that drive the worker directly (leak sessions) must
        report each call through :meth:`account_worker_request` and
        :meth:`release_worker` the process when the session ends.
        """
        child = self.kernel.fork(self.parent)
        self.note_worker_forked(child)
        return child

    def note_worker_forked(self, child: Optional[Process] = None) -> None:
        """Bookkeeping for one successful worker fork (supervised
        checkouts fork through the policy retry wrapper and tick this
        themselves, so the count only ever covers committed forks)."""
        self.workers_forked += 1
        _WORKERS_FORKED.inc()
        if self.tracer is not None:
            self.tracer.on_fork(child, self.kernel.fork_count)

    def account_worker_request(
        self, crashed: bool, smashed: bool, cycles: float, output: bytes = b""
    ) -> FleetResponse:
        """Record one request served on a checked-out worker."""
        response = FleetResponse(crashed, smashed, output, cycles)
        self._record(response)
        return response

    def release_worker(self, worker: Process) -> None:
        """Reap a checked-out worker (connection closed)."""
        self.kernel.reap(worker)

    # -- bookkeeping -----------------------------------------------------

    def _record(self, response: FleetResponse) -> None:
        self.requests_served += 1
        self.cycles += response.cycles
        _REQUESTS.inc()
        _REQUEST_CYCLES.observe(response.cycles)
        if response.crashed:
            self.crashes += 1
            _REQUEST_CRASHES.inc()
        if response.smashed:
            self.smashes_observed += 1
        if self.on_response is not None:
            self.on_response(response)
        if self.tracer is not None:
            self.tracer.on_request(response)
