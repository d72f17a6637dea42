"""Fork builds the child from the parent's validated parts.

``Kernel.fork`` skips the general constructors: the child's memory is a
copy of the parent's segment table, its ``Process`` and ``CPU`` take
their fields straight from the parent, and its entropy generator is
seeded on first draw.  These tests hold that child to the one the
constructors would build — same attributes, same architectural state,
same entropy stream — so a field the template forgets (``entry``, say)
fails here even where no fleet digest notices.
"""

import pytest

from repro.core.deploy import build, deploy
from repro.crypto.random import EntropySource
from repro.faults.plane import FaultPlane
from repro.faults.schedule import FaultSchedule
from repro.fleet.server import FLEET_VICTIM
from repro.kernel.kernel import Kernel
from repro.kernel.process import Process
from repro.machine import jit
from repro.machine.debug import architectural_snapshot
from repro.machine.memory import Segment
from repro.machine.snapshot import restore_process, snapshot_process

SCHEMES = ("ssp", "pssp", "pssp-nt", "pssp-owf")


def constructor_fork(kernel, parent):
    """The child every constructor would build: each part made by its
    general constructor, then overwritten from the parent."""
    if kernel.fault_plane is not None:
        assert not kernel.fault_plane.fork_verdict()
    pid = kernel._next_pid
    kernel._next_pid += 1
    parent.cpu.flush_jit_cache()
    child = Process(
        kernel,
        pid,
        parent.name,
        parent.memory.clone(),
        parent.image,
        dict(parent.natives),
        parent.entropy.fork(),
        ppid=parent.pid,
        dbi_multiplier=parent.cpu.dbi_multiplier,
        cycle_limit=parent.cpu.cycle_limit,
        tsc_base=max(parent.cpu.tsc.value, kernel._elapse_wall_time()),
        fast=parent.cpu.fast,
        fault_plane=kernel.fault_plane,
    )
    child.entry = parent.entry
    child.binary = parent.binary
    child.preloads = list(parent.preloads)
    child.registers.gpr.update(parent.registers.gpr)
    child.registers.xmm.update(parent.registers.xmm)
    child.registers.fs_base = parent.registers.fs_base
    child.registers.rip = parent.registers.rip
    child.registers.zf = parent.registers.zf
    child.registers.sf = parent.registers.sf
    child.registers.cf = parent.registers.cf
    child.stdin = bytearray(parent.stdin)
    child.brk = parent.brk
    child.fork_hooks = list(parent.fork_hooks)
    child.thread_hooks = list(parent.thread_hooks)
    if hasattr(parent, "jmp_bufs"):
        child.jmp_bufs = dict(parent.jmp_bufs)
    kernel.processes[pid] = child
    kernel.fork_count += 1
    for hook in parent.fork_hooks:
        hook(child, parent)
    return child


def busy_parent(scheme, *, seed=11):
    """A parent with a fault plane, a jmp_buf, a thread and queued stdin."""
    plane = FaultPlane(FaultSchedule(scheme=scheme))
    kernel = Kernel(seed, fault_plane=plane)
    parent, _ = deploy(kernel, build(FLEET_VICTIM, scheme, name="fleet"), scheme)
    kernel.create_thread(parent)
    parent.jmp_bufs = {
        parent.brk: {
            "rip": ("main", 0), "rsp": 0, "rbp": 0,
            "stack_span": b"", "callee": {},
        }
    }
    parent.feed_stdin(b"queued")
    parent.registers.write("r12", 0x1234)
    return kernel, parent


def device_state(device):
    """A device's fields, less the entropy and plane each kernel owns."""
    return {k: v for k, v in vars(device).items() if k not in ("entropy", "plane")}


@pytest.mark.parametrize("scheme", SCHEMES)
class TestTemplateMatchesConstructors:
    def pair(self, scheme):
        kernel, parent = busy_parent(scheme)
        twin_kernel, twin_parent = busy_parent(scheme)
        return (
            kernel.fork(parent),
            constructor_fork(twin_kernel, twin_parent),
        )

    def test_same_process_and_cpu_fields(self, scheme):
        child, reference = self.pair(scheme)
        assert sorted(vars(child)) == sorted(vars(reference))
        assert sorted(vars(child.cpu)) == sorted(vars(reference.cpu))
        assert child.entry == reference.entry
        assert child.jmp_bufs == reference.jmp_bufs
        assert child.threads == [] and reference.threads == []
        assert child.fault_plane is not None
        assert child.cpu.fault_plane is child.fault_plane
        assert child.cpu.process is child
        for name in ("cycle_limit", "dbi_multiplier", "fast", "jit"):
            assert getattr(child.cpu, name) == getattr(reference.cpu, name)
        for name in ("tsc", "rdrand"):
            device = getattr(child.cpu, name)
            assert device_state(device) == device_state(getattr(reference.cpu, name))
            assert device.plane is child.fault_plane
        assert child.cpu.rdrand.entropy is child.entropy

    def test_same_architectural_state(self, scheme):
        child, reference = self.pair(scheme)
        assert architectural_snapshot(child) == architectural_snapshot(reference)
        assert child.stdin == reference.stdin == b"queued"
        assert child.brk == reference.brk

    def test_same_entropy_stream(self, scheme):
        child, reference = self.pair(scheme)
        assert child.entropy.seed == reference.entropy.seed
        assert child.entropy.draws == reference.entropy.draws
        assert [child.entropy.word() for _ in range(64)] == [
            reference.entropy.word() for _ in range(64)
        ]

    def test_same_run(self, scheme):
        child, reference = self.pair(scheme)
        for process in (child, reference):
            process.stdin.clear()
            process.feed_stdin(b"A" * 8)
        assert child.call("handler", (8,)) == reference.call("handler", (8,))
        assert architectural_snapshot(child) == architectural_snapshot(reference)


class TestClone:
    def test_segment_order_kept_with_thread_segments(self):
        kernel, parent = busy_parent("pssp")
        memory = parent.memory
        clone = memory.clone()
        names = [segment.name for segment in memory.segments()]
        assert "stack_t1" in names and "tls_t1" in names
        assert [segment.name for segment in clone.segments()] == names
        bases = [segment.base for segment in clone.segments()]
        assert bases == sorted(bases)
        for name in names:
            assert clone.segment(name) is not memory.segment(name)
            assert clone.segment(name).base == memory.segment(name).base
        assert clone.find(memory.segment("tls_t1").base).name == "tls_t1"

    def test_map_segment_on_a_clone_still_rejects_overlap(self):
        kernel, parent = busy_parent("ssp")
        clone = parent.memory.clone()
        stack = clone.segment("stack_t1")
        with pytest.raises(ValueError, match="overlaps stack_t1"):
            clone.map_segment(Segment("clash", stack.base + 8, 64))
        extra = clone.map_segment(Segment("extra", 0x10_0000_0000, 0x1000))
        assert clone.find(extra.base) is extra
        assert parent.memory.find(extra.base) is None


class TestLazyEntropy:
    def test_seed_drawn_at_fork_generator_seeded_on_first_draw(self):
        parent = EntropySource(5)
        twin = EntropySource(5)
        child = parent.fork()
        assert child.seed == twin.word(64)
        assert child._rng is None
        expected = EntropySource(child.seed)
        assert [child.word() for _ in range(64)] == [
            expected.word() for _ in range(64)
        ]
        assert child.draws == 64

    def test_snapshot_round_trips_a_child_that_never_drew(self):
        kernel = Kernel(3)
        parent, _ = deploy(kernel, build(FLEET_VICTIM, "ssp", name="fleet"), "ssp")
        child = kernel.fork(parent)
        assert child.entropy._rng is None
        image = snapshot_process(child)
        restored = restore_process(image)
        assert snapshot_process(restored) == image
        assert restored.entropy.seed == child.entropy.seed
        assert [restored.entropy.word() for _ in range(8)] == [
            child.entropy.word() for _ in range(8)
        ]


class TestJitFlag:
    def test_env_flip_reaches_new_spawns_and_forks_inherit(self, monkeypatch):
        binary = build(FLEET_VICTIM, "ssp", name="fleet")
        monkeypatch.setenv(jit.ENV_FLAG, "0")
        kernel = Kernel(1)
        cold, _ = deploy(kernel, binary, "ssp")
        assert cold.cpu.jit is False
        assert kernel.fork(cold).cpu.jit is False
        monkeypatch.setenv(jit.ENV_FLAG, "1")
        hot, _ = deploy(kernel, binary, "ssp")
        assert hot.cpu.jit is True
        assert kernel.fork(hot).cpu.jit is True
        # A fork runs on the tiers its parent was born with.
        assert kernel.fork(cold).cpu.jit is False

    def test_threads_run_on_their_process_tiers(self, monkeypatch):
        binary = build(FLEET_VICTIM, "ssp", name="fleet")
        monkeypatch.delenv(jit.ENV_FLAG, raising=False)
        kernel = Kernel(1)
        process, _ = deploy(kernel, binary, "ssp")
        monkeypatch.setenv(jit.ENV_FLAG, "0")
        assert process.cpu.jit is True
        assert kernel.fork(process).cpu.jit is True
        assert kernel.create_thread(process).cpu.jit is True

    def test_threads_of_a_cold_process_stay_cold(self, monkeypatch):
        binary = build(FLEET_VICTIM, "ssp", name="fleet")
        monkeypatch.setenv(jit.ENV_FLAG, "0")
        kernel = Kernel(1)
        process, _ = deploy(kernel, binary, "ssp")
        monkeypatch.setenv(jit.ENV_FLAG, "1")
        assert process.cpu.jit is False
        assert kernel.fork(process).cpu.jit is False
        assert kernel.create_thread(process).cpu.jit is False
