"""Hardware devices the canary schemes rely on.

* :class:`TimeStampCounter` — backs ``rdtsc``; monotonically advances with
  consumed cycles, so successive reads differ (the nonce property
  P-SSP-OWF needs).
* :class:`RdRandDevice` — backs ``rdrand``; draws from the process's
  :class:`~repro.crypto.random.EntropySource`.

Both devices accept an optional fault ``plane``
(:class:`~repro.faults.plane.FaultPlane`) that can skew/freeze the TSC
and fail or stick ``rdrand`` on scheduled attempts.  Crucially, injected
failures and stuck reads consume **no** entropy — the stuck value comes
from the schedule — so a faulted run stays entropy-stream-aligned with
its fault-free reference and replays bit-identically.
"""

from __future__ import annotations

from .. import telemetry
from ..crypto.random import EntropySource

_WORD_MASK = (1 << 64) - 1

_DRAWS = telemetry.counter("rdrand_draws_total", "successful rdrand draws (CF=1)")
_FAILURES = telemetry.counter(
    "rdrand_failures_total", "rdrand CF=0 results (all causes)"
)
_RECOVERED_STREAKS = telemetry.counter(
    "rdrand_recovered_streaks_total", "CF=0 streaks ended by a successful read"
)


class TimeStampCounter:
    """A 64-bit counter advanced by executed cycles.

    ``base`` gives each boot a distinct epoch so two runs of the same
    program see different TSC values — the property the P-SSP-OWF nonce
    depends on.

    Advancement contract: the CPU's slow path calls :meth:`advance` once
    per instruction; the fast path batches several instructions into a
    single call.  Because advancement is plain modular addition, a batched
    sum lands on exactly the same counter value — and the fast loop always
    flushes its pending batch before any instruction that can *observe*
    the counter (``rdtsc``, native helpers), so readers never see a stale
    value.
    """

    _MASK = _WORD_MASK

    def __init__(self, base: int = 0, plane=None) -> None:
        self.value = base
        self.plane = plane

    def advance(self, cycles: int) -> None:
        """Advance by ``cycles`` (one instruction, or a batched run)."""
        self.value = (self.value + cycles) & self._MASK

    def read(self) -> int:
        """``rdtsc``: return the current counter (plane may skew/freeze it)."""
        if self.plane is not None:
            return self.plane.rdtsc_observe(self.value)
        return self.value


class RdRandDevice:
    """Hardware random number generator (``rdrand``).

    On real silicon ``rdrand`` may transiently fail (CF=0) or — after a
    DRBG defect — return stuck output with CF=1.  The fault ``plane``
    injects both deterministically; the legacy ``failure_rate`` knob
    (which *does* consume entropy to decide) is kept for the original
    retry-loop experiments.

    A device can be ``quarantined`` by the boot-time self-test
    (:func:`repro.faults.policy.rdrand_selftest`): every subsequent read
    fails with CF=0, forcing hardened prologues onto their shadow-pair
    fallback instead of consuming untrusted output.
    """

    def __init__(
        self, entropy: EntropySource, failure_rate: float = 0.0, plane=None
    ) -> None:
        self.entropy = entropy
        self.failure_rate = failure_rate
        self.plane = plane
        #: Count of successful draws (tests assert on re-randomization).
        self.draws = 0
        #: Consecutive CF=0 results; cleared by any successful read.
        self.failure_streak = 0
        #: Failure streaks that ended in a successful read (absorbed).
        self.recovered_streaks = 0
        #: Set by the entropy self-test: fail closed on every read.
        self.quarantined = False

    def _fail(self, kind: str) -> "tuple[int, bool]":
        self.failure_streak += 1
        if self.plane is not None:
            self.plane.note_rdrand_failure(kind, self.failure_streak)
        _FAILURES.inc()
        telemetry.event("rdrand-retry", cause=kind, streak=self.failure_streak)
        return 0, False

    def _end_streak(self) -> None:
        if self.failure_streak:
            self.recovered_streaks += 1
            if self.plane is not None:
                self.plane.note_rdrand_recovered(self.failure_streak)
            _RECOVERED_STREAKS.inc()
            self.failure_streak = 0

    def read(self) -> "tuple[int, bool]":
        """Return ``(value, ok)``; ``ok`` maps to the carry flag."""
        # Consult the schedule first so attempt indices advance even while
        # quarantined (replay alignment), then apply the quarantine.
        verdict = self.plane.rdrand_verdict() if self.plane is not None else None
        if self.quarantined:
            return self._fail("rdrand-quarantined")
        if verdict is not None:
            if verdict[0] == "fail":
                return self._fail("rdrand-fail")
            # Stuck DRBG: CF=1, schedule-supplied output, no entropy drawn.
            self._end_streak()
            self.draws += 1
            _DRAWS.inc()
            return verdict[1] & _WORD_MASK, True
        if self.failure_rate and self.entropy.randrange(10**6) < self.failure_rate * 10**6:
            _FAILURES.inc()
            return 0, False
        self._end_streak()
        self.draws += 1
        _DRAWS.inc()
        telemetry.sampled_event("rdrand-draw", draw=self.draws)
        return self.entropy.word(64), True
