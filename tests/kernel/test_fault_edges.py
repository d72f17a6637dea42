"""Kernel edge cases under fault injection.

Three interleavings the chaos campaign relies on but cannot easily pin
down individually: a fork whose child shadow-pair refresh tears
mid-publish, thread creation after the entropy source was quarantined,
and reaping a process that died to a typed degradation mid-run.
"""

from functools import partialmethod

import pytest

from repro.core.deploy import build, deploy
from repro.errors import DegradedError
from repro.faults.plane import FaultPlane
from repro.faults.schedule import FaultEvent, FaultSchedule
from repro.kernel.kernel import Kernel
from repro.machine.memory import Memory

SIMPLE = """
int main() { return 0; }
"""

FORKER = """
int main() {
    int pid;
    pid = fork();
    if (pid == 0) {
        return 7;
    }
    return 0;
}
"""


def spawn(source, scheme, *events, seed=9):
    plane = FaultPlane(FaultSchedule(scheme=scheme, events=list(events)))
    kernel = Kernel(seed, fault_plane=plane)
    binary = build(source, scheme, name="edge")
    process, _ = deploy(kernel, binary, scheme)
    return kernel, process, plane


class TestForkDuringShadowRefresh:
    def test_torn_child_refresh_rolls_the_fork_back_completely(self):
        kernel, parent, plane = spawn(SIMPLE, "pssp")
        # Open the torn window only now, so it hits the *child's* on-fork
        # shadow-pair refresh and not the parent's install-time publish.
        plane.schedule.events.append(
            FaultEvent("tls-torn", at=plane.tls_writes, count=48)
        )
        pids = set(kernel.processes)
        forks = kernel.fork_count
        pair = (parent.tls.shadow_c0, parent.tls.shadow_c1)
        with pytest.raises(DegradedError):
            kernel.fork(parent)
        # All-or-nothing: no half-initialised child stays registered and
        # the fork-cost metric does not count the aborted attempt.
        assert set(kernel.processes) == pids
        assert kernel.fork_count == forks
        assert "shadow-publish-failed" in plane.event_kinds()
        # The parent's pair is untouched and still binds its canary.
        assert (parent.tls.shadow_c0, parent.tls.shadow_c1) == pair
        assert parent.tls.shadow_c0 ^ parent.tls.shadow_c1 == parent.tls.canary

    def test_fork_succeeds_again_once_the_window_closes(self):
        kernel, parent, plane = spawn(SIMPLE, "pssp")
        plane.schedule.events.append(
            FaultEvent("tls-torn", at=plane.tls_writes, count=1)
        )
        child = kernel.fork(parent)
        assert child.pid in kernel.processes
        assert child.tls.shadow_c0 ^ child.tls.shadow_c1 == child.tls.canary

    def test_torn_refresh_under_cow_leaves_parent_pages_untouched(self):
        # The aborted child's shadow writes landed in *its* COW overlay:
        # rolling the fork back must leave the parent's page table — not
        # just its visible bytes — exactly as it was.
        kernel, parent, plane = spawn(SIMPLE, "pssp")
        kernel.fork(parent)  # freeze once so steady-state stats are clean
        before_bytes = {
            segment.name: segment.tobytes()
            for segment in parent.memory.segments()
        }
        before_stats = parent.memory.page_stats()
        plane.schedule.events.append(
            FaultEvent("tls-torn", at=plane.tls_writes, count=48)
        )
        with pytest.raises(DegradedError):
            kernel.fork(parent)
        assert parent.memory.page_stats() == before_stats
        assert {
            segment.name: segment.tobytes()
            for segment in parent.memory.segments()
        } == before_bytes

    def test_torn_refresh_rollback_is_identical_cow_vs_eager(self, monkeypatch):
        outcomes = []
        for eager in (False, True):
            if eager:
                monkeypatch.setattr(
                    Memory, "clone", partialmethod(Memory.clone, eager=True)
                )
            kernel, parent, plane = spawn(SIMPLE, "pssp")
            plane.schedule.events.append(
                FaultEvent("tls-torn", at=plane.tls_writes, count=48)
            )
            with pytest.raises(DegradedError):
                kernel.fork(parent)
            outcomes.append((
                parent.tls.shadow_c0,
                parent.tls.shadow_c1,
                sorted(kernel.processes),
                kernel.fork_count,
                plane.event_kinds(),
            ))
        assert outcomes[0] == outcomes[1]


class TestThreadAfterEntropyDegradation:
    def test_new_thread_still_gets_a_fresh_canary_bound_pair(self):
        # A DRBG stuck from boot: the hardened runtime's self-test must
        # quarantine rdrand during deploy...
        kernel, process, plane = spawn(
            SIMPLE,
            "pssp-nt-hardened",
            FaultEvent("rdrand-stuck", at=0, count=64, value=0x1D1D_1D1D),
        )
        assert "entropy-degraded" in plane.event_kinds()
        assert process.cpu.rdrand.quarantined
        # ...and thread creation afterwards must still produce a valid,
        # refreshed shadow pair (publish draws process entropy, not rdrand).
        thread = kernel.create_thread(process)
        assert thread.tls.canary == process.tls.canary
        assert thread.tls.shadow_c0 ^ thread.tls.shadow_c1 == thread.tls.canary
        assert thread.tls.shadow_c0 != process.tls.shadow_c0


class TestReapAfterDegradedDeath:
    def test_reaping_a_degraded_process_leaves_the_kernel_consistent(self):
        kernel, process, plane = spawn(
            FORKER, "pssp", FaultEvent("fork-eagain", at=0, count=64)
        )
        result = process.run()
        assert result.state == "crashed"
        assert isinstance(result.crash, DegradedError)
        assert "fork-exhausted" in plane.event_kinds()
        # The EAGAIN-exhausted fork registered no child at all.
        assert set(kernel.processes) == {process.pid}
        kernel.reap(process)
        assert process.pid not in kernel.processes
        kernel.reap(process)  # reap is idempotent
        assert kernel.processes == {}
