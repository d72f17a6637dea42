"""Graceful-degradation policy: budgets and hardened runtime helpers.

Every helper here enforces the same invariant: an environmental failure
is either *absorbed* within a bounded budget (behaviour identical, the
absorption recorded on the plane) or surfaces as a typed
:class:`~repro.errors.DegradedError` — never as a silently predictable
or half-written canary.

The helpers take the fault plane as an optional collaborator; with no
plane installed they are plain fast paths (one fork attempt, one clean
publish, a self-test that trivially passes), so production deployments
pay nothing for the chaos machinery.
"""

from __future__ import annotations

from .. import telemetry
from ..errors import DegradedError, TransientForkFailure

_DEGRADATIONS = telemetry.counter(
    "degradations_total", "DegradedError fail-closed aborts"
)
_QUARANTINES = telemetry.counter(
    "rdrand_quarantines_total", "devices quarantined by self-test"
)

#: Prologue/self-test budget: consecutive ``rdrand`` CF=0 results before
#: the hardened NT prologue abandons per-call draws and falls back to the
#: TLS shadow pair (with a ``nop`` pause between attempts, mirroring
#: Intel's recommended retry-with-backoff loop).
RDRAND_RETRY_LIMIT = 8

#: ``fork`` EAGAIN absorptions before the wrapper fails closed.
FORK_RETRY_LIMIT = 4

#: Write-verify-repair rounds for the two-word shadow-pair publish.
TLS_PUBLISH_ATTEMPTS = 3

#: Boot-time rdrand health probe: draws taken by the self-test.
SELFTEST_DRAWS = 8

#: Minimum distinct values among successful self-test draws; a stuck
#: DRBG returns one value forever, a healthy one collides with
#: probability ~2^-58 over eight 64-bit draws.
SELFTEST_MIN_DISTINCT = 3

#: Identical fresh-path canary values tolerated by the campaign auditor
#: before it declares the entropy source silently stuck.
AUDIT_REPEAT_THRESHOLD = 3

#: Fleet supervision: parent restarts from the boot image tolerated per
#: slice before the supervisor stops healing and fails closed (every
#: later request on the slice is quarantined by the breaker instead).
PARENT_RESTART_BUDGET = 4

#: Fleet supervision: served requests between parent entropy health
#: probes (a :func:`rdrand_selftest` re-run; armed only when a fault
#: plane is attached, so fault-free fleets never pay for it).
ENTROPY_PROBE_INTERVAL = 64


def tls_shadow_write(tls, slot: str, value: int, plane=None) -> bool:
    """Write one half of the shadow pair; return False when torn.

    All shadow-pair stores funnel through here so the plane has a single
    choke point for torn-write injection.  A torn write leaves the slot's
    previous contents in place (the preempted-before-store model).
    """
    verdict = plane.tls_write_verdict() if plane is not None else None
    if verdict == "torn":
        return False
    setattr(tls, slot, value)
    return True


def publish_shadow_pair(tls, c0: int, c1: int, *, plane=None) -> None:
    """Atomically-observable publish of the (C0, C1) shadow pair.

    The two halves cannot be written in one instruction, so publish is
    write-both / verify / repair, bounded by :data:`TLS_PUBLISH_ATTEMPTS`.
    Until the verify read-back succeeds the *old* pair stays the
    authoritative one as far as callers are concerned; a persistently
    torn publish fails closed with :class:`DegradedError` rather than
    leaving a mixed-generation pair observable.
    """
    for attempt in range(TLS_PUBLISH_ATTEMPTS):
        tls_shadow_write(tls, "shadow_c0", c0, plane)
        tls_shadow_write(tls, "shadow_c1", c1, plane)
        if tls.shadow_c0 == c0 and tls.shadow_c1 == c1:
            if attempt and plane is not None:
                plane.record_absorbed(
                    "tls-torn", f"publish repaired after {attempt} torn attempt(s)"
                )
            return
    if plane is not None:
        plane.record_event(
            "shadow-publish-failed",
            f"pair still torn after {TLS_PUBLISH_ATTEMPTS} attempts",
        )
    _DEGRADATIONS.inc()
    telemetry.event("degradation", reason="shadow-publish-failed")
    raise DegradedError(
        "shadow canary pair publish remained torn",
        policy=f"fail closed after {TLS_PUBLISH_ATTEMPTS} write-verify rounds",
    )


def fork_with_retry(parent):
    """``fork`` wrapper: absorb transient EAGAIN, never observe a stale pair.

    Retries :func:`Kernel.fork` up to :data:`FORK_RETRY_LIMIT` times.  The
    kernel unregisters a child whose fork hooks fail (see
    ``Kernel.fork``), so no retry — and no caller — can ever observe a
    half-initialised child or a child with the parent's stale shadow
    pair.  Exhausting the budget fails closed.

    Returns the child, or ``None`` to model the raw libc behaviour of
    surfacing ``-1``/EAGAIN to the program (the hardened implementation
    never does; the naive chaos mutant does).
    """
    kernel = parent.kernel
    plane = getattr(kernel, "fault_plane", None)
    last = None
    for attempt in range(FORK_RETRY_LIMIT):
        try:
            child = kernel.fork(parent)
        except TransientForkFailure as error:
            last = error
            continue
        if attempt and plane is not None:
            plane.record_absorbed(
                "fork-eagain", f"fork succeeded after {attempt} EAGAIN(s)"
            )
        return child
    if plane is not None:
        plane.record_event(
            "fork-exhausted", f"{FORK_RETRY_LIMIT} consecutive EAGAIN"
        )
    _DEGRADATIONS.inc()
    telemetry.event("degradation", reason="fork-exhausted")
    raise DegradedError(
        f"fork still EAGAIN after {FORK_RETRY_LIMIT} attempts",
        policy="fail closed instead of running without a fresh shadow pair",
    ) from last


def rdrand_selftest(process) -> bool:
    """Boot-time entropy health probe (NIST SP 800-90B-style startup test).

    Draws :data:`SELFTEST_DRAWS` samples from the process's rdrand device;
    too few distinct values (stuck DRBG) or too many CF=0 failures
    quarantine the device — every later read fails, so hardened NT
    prologues deterministically take their shadow-pair fallback instead
    of storing attacker-predictable stuck canaries.  Records an
    ``entropy-degraded`` event on the plane when it trips.
    """
    device = getattr(process.cpu, "rdrand", None)
    if device is None:
        return True
    samples = [device.read() for _ in range(SELFTEST_DRAWS)]
    distinct = {value for value, ok in samples if ok}
    failures = sum(1 for _, ok in samples if not ok)
    healthy = len(distinct) >= SELFTEST_MIN_DISTINCT and failures <= SELFTEST_DRAWS // 2
    if not healthy:
        device.quarantined = True
        _QUARANTINES.inc()
        telemetry.event(
            "rdrand-quarantine",
            distinct=len(distinct),
            failures=failures,
        )
        plane = getattr(process.kernel, "fault_plane", None)
        if plane is not None:
            plane.record_event(
                "entropy-degraded",
                f"self-test: {len(distinct)} distinct value(s), "
                f"{failures}/{SELFTEST_DRAWS} failures — rdrand quarantined",
            )
    return healthy
