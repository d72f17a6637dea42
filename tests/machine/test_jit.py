"""Trace-JIT tier: superblock formation, exactness, and invalidation.

The JIT (``repro.machine.jit``) compiles hot straight-line runs of
decoded steps into single Python functions.  Its whole contract is
*observational equivalence*: with the tier on, off (``REPRO_JIT=0``),
or absent (the slow oracle), every run must produce bit-identical
architectural state — including mid-block faults, cycle-limit trips,
and every invalidation boundary (decode-cache flush, image patching,
snapshot restore, fork).
"""

import importlib.util
import sys
import warnings
from collections import OrderedDict
from pathlib import Path

import pytest

from repro import telemetry
from repro.core.deploy import build, deploy
from repro.errors import MachineFault
from repro.harness import metrics
from repro.kernel.kernel import Kernel
from repro.machine import jit
from repro.machine.cpu import NativeFunction
from repro.machine.debug import architectural_snapshot, snapshot_divergences
from repro.machine.snapshot import restore_process
from repro.workloads.spec import SPEC_PROGRAMS

#: Enough arrivals at a back-edge to cross the compile threshold.
HOT = jit.HOT_THRESHOLD * 4


def hot_loop(body: str, n: int = HOT) -> str:
    """A counted loop whose back-edge target gets hot."""
    return (
        "f:\n mov rax, 0\n mov rcx, 0\n"
        f".loop:\n{body}"
        f" inc rcx\n cmp rcx, {n}\n jne .loop\n ret\n"
    )


def run_config(asm, source, *, fast, jit_on, entry="f", args=()):
    """Run ``source`` on one interpreter configuration."""
    h = asm(source)
    h.cpu.fast = fast
    h.cpu.jit = jit_on
    fault = None
    value = None
    try:
        value = h.run(entry, args)
    except MachineFault as exc:
        fault = exc
    return h, value, fault


def assert_state_identical(a, b) -> None:
    """Full architectural-state comparison between two harness CPUs."""
    assert a.cpu.cycles == b.cpu.cycles
    assert a.cpu.instructions_executed == b.cpu.instructions_executed
    assert a.cpu.tsc.value == b.cpu.tsc.value
    assert a.cpu.registers.gpr == b.cpu.registers.gpr
    for flag in ("zf", "sf", "cf"):
        assert getattr(a.cpu.registers, flag) == getattr(b.cpu.registers, flag)


@pytest.fixture(scope="module")
def gate_workloads():
    """``benchmarks/bench_gates.py``'s timed workloads, by name."""
    path = Path(__file__).resolve().parents[2] / "benchmarks" / "bench_gates.py"
    spec = importlib.util.spec_from_file_location("bench_gates", path)
    gates = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = gates  # its dataclass looks the module up by name
    spec.loader.exec_module(gates)
    return {name: (scheme, template) for name, scheme, template, _, _ in gates.WORKLOADS}


def compiled_blocks(h, name="f"):
    """The non-None superblocks compiled for function ``name``."""
    decoded = h.cpu._decode_cache.get(name)
    if decoded is None:
        return {}
    return {
        index: sb
        for index, sb in decoded.jit_blocks.items()
        if sb is not None
    }


class TestSuperblockFormation:
    def test_hot_loop_compiles_and_matches_slow(self, asm):
        source = hot_loop(" add rax, 3\n")
        slow, slow_value, _ = run_config(asm, source, fast=False, jit_on=False)
        nojit, nojit_value, _ = run_config(asm, source, fast=True, jit_on=False)
        jitted, jit_value, _ = run_config(asm, source, fast=True, jit_on=True)
        assert slow_value == nojit_value == jit_value == 3 * HOT
        assert_state_identical(jitted, slow)
        assert_state_identical(nojit, slow)
        assert compiled_blocks(jitted), "hot back-edge never compiled"
        assert not compiled_blocks(nojit), "jit_on=False must stay cold"

    def test_cold_code_never_compiles(self, asm):
        source = hot_loop(" add rax, 1\n", n=jit.HOT_THRESHOLD // 2)
        jitted, _, _ = run_config(asm, source, fast=True, jit_on=True)
        assert not compiled_blocks(jitted)
        # ... but the profiler did count the arrivals.
        assert jitted.cpu._decode_cache["f"].jit_counts

    def test_repro_jit_env_disables_tier(self, asm, monkeypatch):
        monkeypatch.setenv(jit.ENV_FLAG, "0")
        assert not jit.jit_enabled()
        source = hot_loop(" add rax, 2\n")
        h = asm(source)  # CPU constructed after the env flip
        assert h.cpu.jit is False
        value = h.run("f")
        assert value == 2 * HOT
        assert not compiled_blocks(h)
        assert not h.cpu._decode_cache["f"].jit_counts

    def test_unconditional_jmp_is_inlined(self, asm):
        # The back-edge is an unconditional jmp; the trace walker follows
        # it instead of side-exiting, so one superblock spans the whole
        # loop body plus the head's exit test.
        source = (
            "f:\n mov rax, 0\n mov rcx, 0\n"
            f".head:\n cmp rcx, {HOT}\n je .done\n"
            " add rax, 5\n inc rcx\n jmp .head\n"
            ".done:\n ret\n"
        )
        slow, slow_value, _ = run_config(asm, source, fast=False, jit_on=False)
        jitted, jit_value, _ = run_config(asm, source, fast=True, jit_on=True)
        assert slow_value == jit_value == 5 * HOT
        assert_state_identical(jitted, slow)
        blocks = compiled_blocks(jitted)
        assert blocks
        # The body anchor (fallthrough of the je) stitched add/inc across
        # the jmp into the head's cmp/je: five steps, conditional terminal.
        spanning = max(sb.count for sb in blocks.values())
        assert spanning == 5
        widest = next(sb for sb in blocks.values() if sb.count == 5)
        assert widest.terminal

    def test_sync_step_ends_trace(self, asm):
        # rdtsc needs exact accounting, so the walk stops in front of it:
        # the block is non-terminal and side-exits back to the step loop.
        source = hot_loop(" add rbx, 7\n mov rdx, rbx\n rdtsc\n")
        slow, _, _ = run_config(asm, source, fast=False, jit_on=False)
        jitted, _, _ = run_config(asm, source, fast=True, jit_on=True)
        assert_state_identical(jitted, slow)
        blocks = compiled_blocks(jitted)
        assert blocks
        assert any(not sb.terminal for sb in blocks.values())

    def test_dbi_scaled_costs_reject_compilation(self, asm):
        # Non-integral step costs make batched accounting drift by ULPs;
        # such anchors must be rejected (cached as None), never compiled.
        source = hot_loop(" add rax, 3\n")
        jitted = asm(source)
        jitted.cpu.jit = True
        jitted.cpu.dbi_multiplier = 1.22
        slow = asm(source)
        slow.cpu.fast = False
        slow.cpu.dbi_multiplier = 1.22
        assert jitted.run("f") == slow.run("f")
        assert_state_identical(jitted, slow)
        decoded = jitted.cpu._decode_cache["f"]
        assert decoded.jit_blocks, "anchors must be probed and cached"
        assert all(sb is None for sb in decoded.jit_blocks.values())


class TestSuperblockExactness:
    def test_fault_mid_block_matches_slow(self, asm):
        # The stored-to address walks off the end of the heap while the
        # loop is compiled, so the fault fires *inside* a superblock at a
        # position > 0.  Recovery must leave the exact state the step
        # loop would have: rip on the faulting step, accounting through
        # it, and every preceding register effect applied.
        def faulting_source(h_probe):
            heap = h_probe.memory.segment("heap")
            start = heap.end - 8 * (HOT // 2)
            return (
                f"f:\n mov rax, 0\n mov rcx, 0\n mov rbx, {start}\n"
                ".loop:\n inc rax\n mov [rbx], rcx\n add rbx, 8\n"
                " inc rcx\n cmp rcx, 100000\n jne .loop\n ret\n"
            )

        probe = asm("f:\n ret\n")
        source = faulting_source(probe)
        slow, _, slow_fault = run_config(asm, source, fast=False, jit_on=False)
        jitted, _, jit_fault = run_config(asm, source, fast=True, jit_on=True)
        assert slow_fault is not None and jit_fault is not None
        assert type(slow_fault) is type(jit_fault)
        assert compiled_blocks(jitted), "loop must be hot before the fault"
        assert jitted.cpu.registers.rip == slow.cpu.registers.rip
        assert_state_identical(jitted, slow)

    def test_cycle_limit_trips_identically_on_hot_loop(self):
        source = """
        int main() {
            int i;
            i = 0;
            for (;;) {
                i = i + 1;
            }
            return i;
        }
        """
        outcomes = []
        for fast, jit_on in ((False, False), (True, False), (True, True)):
            kernel = Kernel(seed=7)
            binary = build(source, "none", name="spin")
            process, _ = deploy(
                kernel, binary, "none", cycle_limit=25_000, fast=fast
            )
            process.cpu.jit = jit_on
            result = process.run()
            assert result.signal == "SIGXCPU"
            if jit_on:
                decoded = process.cpu._decode_cache["main"]
                assert any(
                    sb is not None for sb in decoded.jit_blocks.values()
                ), "the spin loop must have compiled before the trip"
            outcomes.append(
                (
                    process.cpu.cycles,
                    process.cpu.tsc.value,
                    process.cpu.instructions_executed,
                    process.registers.rip,
                )
            )
        assert outcomes[0] == outcomes[1] == outcomes[2]

    def test_canary_smash_detected_identically_in_hot_loop(self):
        # The overflowing store loop runs long enough to compile; the
        # smash must abort with identical state down all three paths.
        source = """
        int victim(int n) {
            char buf[16];
            int i;
            for (i = 0; i < n; i = i + 1) {
                buf[i] = 65;
            }
            return 0;
        }
        int main() { return victim(120); }
        """
        snaps = []
        for fast, jit_on in ((False, False), (True, False), (True, True)):
            kernel = Kernel(seed=2018)
            binary = build(source, "pssp", name="smash")
            process, _ = deploy(kernel, binary, "pssp", fast=fast)
            process.cpu.jit = jit_on
            result = process.run()
            assert result.crashed and result.smashed
            snaps.append(architectural_snapshot(process))
        assert not snapshot_divergences(snaps[0], snaps[2])
        assert not snapshot_divergences(snaps[1], snaps[2])

    @pytest.mark.parametrize(
        "workload", ["alu_loop", "call_dense", "canary_heavy"]
    )
    def test_perf_gate_workload_identical_on_every_tier(
        self, gate_workloads, workload
    ):
        # The perf gate's workloads, re-entered on a warm process as the
        # gate does: slow ≡ fast ≡ JIT.
        scheme, template = gate_workloads[workload]
        source = template.replace("%ITER%", str(HOT * 2))
        snaps = []
        for fast, jit_on in ((False, False), (True, False), (True, True)):
            kernel = Kernel(seed=42)
            binary = build(source, scheme, name="bench")
            process, _ = deploy(kernel, binary, scheme, fast=fast)
            process.cpu.jit = jit_on
            assert not process.run().crashed
            assert not process.call("main").crashed
            snaps.append(architectural_snapshot(process))
        assert not snapshot_divergences(snaps[0], snaps[1])
        assert not snapshot_divergences(snaps[0], snaps[2])

    def test_spec_suite_slice_enters_superblocks_exactly(self, monkeypatch):
        # The JIT is worth about a third of spec-suite's host time; pin
        # how often a fixed slice of it runs compiled superblocks.
        monkeypatch.delenv(jit.ENV_FLAG, raising=False)
        telemetry.enable()
        before = telemetry.snapshot()
        for scheme in ("ssp", "pssp"):
            for program in SPEC_PROGRAMS[:8]:
                metrics.run_program(program.source, scheme, name=program.name)
        assert telemetry.delta(before)["jit_block_entries_total"] == 79024

    @pytest.mark.parametrize("scheme", ["none", "ssp", "pssp", "pssp-owf"])
    def test_call_dense_workload_identical(self, scheme):
        source = """
        int leaf(int n) {
            char buf[16];
            buf[0] = n;
            return buf[0] + 1;
        }
        int main() {
            int total; int i;
            total = 0;
            for (i = 0; i < 200; i = i + 1) {
                total = total + leaf(i - (i / 100) * 100);
            }
            return total - (total / 256) * 256;
        }
        """
        snaps = []
        for fast, jit_on in ((False, False), (True, True)):
            kernel = Kernel(seed=5)
            binary = build(source, scheme, name="calls")
            process, _ = deploy(kernel, binary, scheme, fast=fast)
            process.cpu.jit = jit_on
            result = process.run()
            assert not result.crashed
            snaps.append(architectural_snapshot(process))
        assert not snapshot_divergences(snaps[0], snaps[1])


class TestPeephole:
    """The optimiser is textual; assert directly on the generated source."""

    def _widest_block(self, h):
        blocks = compiled_blocks(h)
        assert blocks
        return max(blocks.values(), key=lambda sb: sb.count)

    def test_redundant_flag_stores_elided(self, asm):
        # inc rax / inc rbx / cmp all write zf+sf with no observer in
        # between: only the cmp's stores (live at the jne) survive.
        source = hot_loop(" inc rax\n inc rbx\n")
        slow, _, _ = run_config(asm, source, fast=False, jit_on=False)
        jitted, _, _ = run_config(asm, source, fast=True, jit_on=True)
        assert_state_identical(jitted, slow)
        sb = self._widest_block(jitted)
        assert sb.source.count("R.zf =") == 1
        assert sb.source.count("R.sf =") == 1

    def test_register_reads_forwarded(self, asm):
        # add reads rdx straight after the mov wrote it: the generated
        # code must reuse the stored temp, never re-read g['rdx'].
        source = hot_loop(" mov rdx, rcx\n add rdx, 3\n")
        slow, _, _ = run_config(asm, source, fast=False, jit_on=False)
        jitted, _, _ = run_config(asm, source, fast=True, jit_on=True)
        assert_state_identical(jitted, slow)
        sb = self._widest_block(jitted)
        writes = sb.source.count("g['rdx'] =")
        assert writes == 2
        # Every other mention would be a read that escaped forwarding.
        assert sb.source.count("g['rdx']") == writes

    def test_push_pop_pair_forwards_value(self, asm):
        # pop's value provably comes from the push: no stack re-read
        # (rd) is emitted, but the push's store (wr) stays so a fault in
        # between leaves the exact un-fused state.
        source = hot_loop(" push rcx\n pop rdx\n add rax, rdx\n")
        slow, slow_value, _ = run_config(asm, source, fast=False, jit_on=False)
        jitted, jit_value, _ = run_config(asm, source, fast=True, jit_on=True)
        assert slow_value == jit_value
        assert_state_identical(jitted, slow)
        sb = self._widest_block(jitted)
        assert "rd(" not in sb.source
        assert "wr(" in sb.source

    def test_memory_write_blocks_push_pop_pairing(self, asm):
        # An unpredictable store between push and pop may alias the
        # slot: the pop must re-read memory.
        source = hot_loop(
            " push rcx\n mov [rbp-32], rax\n pop rdx\n add rax, rdx\n"
        )
        slow, _, _ = run_config(asm, source, fast=False, jit_on=False)
        jitted, _, _ = run_config(asm, source, fast=True, jit_on=True)
        assert_state_identical(jitted, slow)
        sb = self._widest_block(jitted)
        assert "rd(" in sb.source


class TestTraceHookInteraction:
    """Satellite: mid-run trace-hook arming and the one-shot warning."""

    def _traced_source(self, n=HOT):
        # The native arms/disarms the trace hook when rcx == rdi, i.e.
        # mid-run, from inside simulated code.
        return (
            "f:\n mov rax, 0\n mov rcx, 0\n"
            ".loop:\n add rax, 2\n cmp rcx, rdi\n jne .skip\n"
            " call toggle_trace\n"
            f".skip:\n inc rcx\n cmp rcx, {n}\n jne .loop\n ret\n"
        )

    def _instrument(self, h, name="f"):
        """Wrap every compiled superblock to record entries + arm state."""
        entries = []
        decoded = h.cpu._decode_cache[name]
        for index, sb in decoded.jit_blocks.items():
            if sb is None:
                continue

            def wrapped(orig=sb.run, index=index, sb=sb):
                entries.append((index, h.cpu._trace is not None))
                return orig()

            sb.run = wrapped
        return entries

    def test_midrun_arm_stops_superblock_entries(self, asm):
        def toggle(cpu):
            cpu.trace = (lambda name, index, instruction: None)
            return 0

        h = asm(self._traced_source())
        h.cpu.jit = True
        h.cpu.natives["toggle_trace"] = NativeFunction("toggle_trace", toggle)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            # Warm run: rdi never matches, the loop gets hot and compiles.
            h.run("f", (HOT * 2,))
            entries = self._instrument(h)
            # Armed mid-run at iteration HOT//2: superblocks may run
            # before that dispatch, never after.
            h.cpu.trace = None
            h.run("f", (HOT // 2,))
        assert entries, "superblocks must have run before the arm"
        assert all(not armed for _, armed in entries), (
            "a superblock entered while the trace hook was armed"
        )
        assert h.cpu._trace is not None

    def test_disarm_resumes_superblock_entries(self, asm):
        def toggle(cpu):
            cpu.trace = None
            return 0

        h = asm(self._traced_source())
        h.cpu.jit = True
        h.cpu.natives["toggle_trace"] = NativeFunction("toggle_trace", toggle)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            h.run("f", (HOT * 2,))  # warm + compile
            entries = self._instrument(h)
            h.cpu.trace = lambda name, index, instruction: None
            # Armed at entry: the run starts on the slow loop; the
            # mid-run disarm is honoured by the *next* run (the loop
            # choice is made per run), so drive one more fast run.
            h.run("f", (HOT // 2,))
            armed_entries = list(entries)
            h.run("f", (HOT * 2,))
        assert not armed_entries, "no superblock may run while armed"
        assert entries, "superblock entries must resume after disarm"

    def test_trace_warning_fires_once(self, asm):
        h = asm(self._traced_source())
        hook = lambda name, index, instruction: None  # noqa: E731
        with pytest.warns(RuntimeWarning, match="slow interpreter"):
            h.cpu.trace = hook
        h.cpu.trace = None
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            h.cpu.trace = hook
        assert not caught, "the fast-path warning must be one-shot"


class TestInvalidation:
    """Every memory-sharing boundary drops superblocks; decodes stay."""

    def test_flush_jit_cache_keeps_decoded_steps(self, asm):
        source = hot_loop(" add rax, 1\n")
        h, _, _ = run_config(asm, source, fast=True, jit_on=True)
        decoded = h.cpu._decode_cache["f"]
        steps = decoded.steps
        h.cpu.flush_jit_cache()
        assert decoded.jit_blocks == {} and decoded.jit_counts == {}
        assert h.cpu._decode_cache["f"] is decoded
        assert decoded.steps is steps

    def test_restore_process_starts_cold_and_matches(self):
        source = """
        int hot(int n) {
            int i; int acc;
            acc = 0;
            for (i = 0; i < n; i = i + 1) { acc = acc + i * 3; }
            return acc - (acc / 256) * 256;
        }
        int main() { return hot(400); }
        """
        kernel = Kernel(seed=31)
        binary = build(source, "pssp", name="snap")
        process, _ = deploy(kernel, binary, "pssp", fast=True)
        process.cpu.jit = True
        process.run()
        assert any(
            sb is not None
            for decoded in process.cpu._decode_cache.values()
            for sb in decoded.jit_blocks.values()
        )
        image = process.snapshot()
        restored_jit = restore_process(image)
        restored_slow = restore_process(image)
        restored_jit.cpu.jit = True
        assert restored_jit.cpu._decode_cache == {}
        restored_slow.cpu.fast = False
        a = restored_jit.call("main")
        b = restored_slow.call("main")
        assert (a.exit_status, a.cycles, a.instructions) == (
            b.exit_status, b.cycles, b.instructions
        )
        assert not snapshot_divergences(
            architectural_snapshot(restored_jit),
            architectural_snapshot(restored_slow),
        )

    def test_fork_flushes_parent_superblocks(self):
        source = """
        int hot(int n) {
            int i; int acc;
            acc = 0;
            for (i = 0; i < n; i = i + 1) { acc = acc + i; }
            return acc - (acc / 256) * 256;
        }
        int main() { return hot(300); }
        """
        kernel = Kernel(seed=13)
        binary = build(source, "pssp", name="forker")
        process, _ = deploy(kernel, binary, "pssp", fast=True)
        process.cpu.jit = True
        process.run()
        assert any(
            sb is not None
            for decoded in process.cpu._decode_cache.values()
            for sb in decoded.jit_blocks.values()
        )
        # No superblock may outlive a memory-sharing boundary: the
        # parent's compiled code closes over pre-clone bound methods.
        kernel.fork(process)
        for decoded in process.cpu._decode_cache.values():
            assert decoded.jit_blocks == {}
            assert decoded.jit_counts == {}

    def test_forking_server_with_hot_handler_identical(self):
        source = """
        int handler(int n) {
            int i; int acc;
            acc = 0;
            for (i = 0; i < 80; i = i + 1) { acc = acc + n + i; }
            return acc - (acc / 256) * 256;
        }
        int main() {
            int pid; int i;
            for (i = 0; i < 3; i = i + 1) {
                pid = fork();
                if (pid == 0) {
                    return handler(i + 1);
                }
            }
            return handler(0);
        }
        """
        outcomes = []
        for fast, jit_on in ((False, False), (True, True)):
            kernel = Kernel(seed=99)
            binary = build(source, "pssp", name="server")
            process, _ = deploy(kernel, binary, "pssp", fast=fast)
            process.cpu.jit = jit_on
            result = process.run()
            children = [
                p for p in kernel.processes.values() if p.ppid == process.pid
            ]
            outcomes.append(
                (
                    result.state,
                    result.exit_status,
                    result.cycles,
                    result.instructions,
                    sorted((c.exit_status, c.cpu.cycles) for c in children),
                )
            )
        assert outcomes[0] == outcomes[1]


class TestTelemetryParity:
    def test_canary_counters_identical_with_jit(self):
        source = """
        int work(int n) {
            char buf[32];
            int i; int acc;
            acc = 0;
            for (i = 0; i < n; i = i + 1) {
                buf[i - (i / 31) * 31] = i;
                acc = acc + buf[i - (i / 31) * 31];
            }
            return acc - (acc / 256) * 256;
        }
        int main() {
            int i; int total;
            total = 0;
            for (i = 0; i < 30; i = i + 1) { total = total + work(40); }
            return total - (total / 256) * 256;
        }
        """
        deltas = []
        for fast, jit_on in ((False, False), (True, False), (True, True)):
            kernel = Kernel(seed=71)
            binary = build(source, "pssp-owf", name="parity")
            process, _ = deploy(kernel, binary, "pssp-owf", fast=fast)
            process.cpu.jit = jit_on
            before = telemetry.snapshot()
            result = process.run()
            delta = telemetry.delta(before)
            assert not result.crashed
            deltas.append(delta)
        for name in (
            "canary_prologue_stores_total",
            "canary_epilogue_checks_total",
            "machine_cycles_total",
            "machine_instructions_total",
        ):
            assert (
                deltas[0].get(name, 0)
                == deltas[1].get(name, 0)
                == deltas[2].get(name, 0)
            ), name

    def test_jit_counters_flow(self):
        source = """
        int main() {
            int i; int acc;
            acc = 0;
            for (i = 0; i < 300; i = i + 1) { acc = acc + i; }
            return acc - (acc / 256) * 256;
        }
        """
        kernel = Kernel(seed=3)
        binary = build(source, "none", name="counting")
        process, _ = deploy(kernel, binary, "none", fast=True)
        process.cpu.jit = True
        before = telemetry.snapshot()
        process.run()
        delta = telemetry.delta(before)
        assert delta.get("jit_blocks_compiled_total", 0) >= 1
        assert delta.get("jit_block_entries_total", 0) >= 1


class TestFactoryMemo:
    """Superblock factories are memoised by source text: CPUs that lower a
    block to the same source share one compiled factory, never a
    superblock."""

    @pytest.fixture
    def compiles(self, monkeypatch):
        """Count ``compile`` calls made by the JIT, from an empty memo."""
        calls = []

        def counting(source, *args):
            calls.append(source)
            return compile(source, *args)

        monkeypatch.setattr(jit, "_FACTORIES", OrderedDict())
        monkeypatch.setattr(jit, "compile", counting, raising=False)
        return calls

    def test_two_cpus_share_the_factory_not_the_superblock(
        self, asm, compiles
    ):
        # ``f(n)`` stores ``n`` words ending past the heap: n = HOT stays
        # inside, n = 3 * HOT faults mid-block once the loop is compiled.
        def source(h_probe):
            start = h_probe.memory.segment("heap").end - 8 * 2 * HOT
            return (
                f"f:\n mov rax, 0\n mov rcx, 0\n mov rbx, {start}\n"
                ".loop:\n inc rax\n mov [rbx], rcx\n add rbx, 8\n"
                " inc rcx\n cmp rcx, rdi\n jne .loop\n ret\n"
            )

        text = source(asm("f:\n ret\n"))
        before = telemetry.counter_value("jit_blocks_compiled_total")
        first, value, fault = run_config(
            asm, text, fast=True, jit_on=True, args=(HOT,)
        )
        assert fault is None and value == HOT
        assert len(compiles) == 1
        kept = harness_state(first)
        (block,) = compiled_blocks(first).values()
        second, _, fault = run_config(
            asm, text, fast=True, jit_on=True, args=(3 * HOT,)
        )
        assert fault is not None
        assert len(compiles) == 1, "the second CPU reused the factory"
        (other,) = compiled_blocks(second).values()
        assert other is not block and other.run is not block.run
        assert other.source == block.source
        assert telemetry.counter_value("jit_blocks_compiled_total") == (
            before + 2
        ), "every block still counts"
        assert other.fault_index > 0 and block.fault_index == 0
        assert harness_state(first) == kept
        slow, _, slow_fault = run_config(
            asm, text, fast=False, jit_on=False, args=(3 * HOT,)
        )
        assert type(slow_fault) is type(fault)
        assert second.cpu.registers.rip == slow.cpu.registers.rip
        assert_state_identical(second, slow)

    def test_memo_evicts_least_recently_used_at_its_bound(
        self, monkeypatch, compiles
    ):
        monkeypatch.setattr(jit, "FACTORY_MEMO_SIZE", 2)
        sources = [
            f"def _factory(k{n}):\n    def run():\n        pass\n"
            "    return run\n"
            for n in range(3)
        ]
        first = jit._factory_for(sources[0])
        jit._factory_for(sources[1])
        assert jit._factory_for(sources[0]) is first
        jit._factory_for(sources[2])
        assert list(jit._FACTORIES) == [sources[0], sources[2]]
        assert len(compiles) == 3
        jit._factory_for(sources[1])
        assert len(compiles) == 4, "the evicted source compiles again"
        assert list(jit._FACTORIES) == [sources[2], sources[1]]


def harness_state(h):
    """Registers, flags and accounting of one harness CPU."""
    cpu = h.cpu
    return (
        cpu.cycles, cpu.instructions_executed, cpu.tsc.value,
        dict(cpu.registers.gpr), cpu.registers.rip,
        tuple(getattr(cpu.registers, flag) for flag in ("zf", "sf", "cf")),
        bytes(h.memory.read(h.memory.segment("heap").end - 8 * 2 * HOT,
                            8 * 2 * HOT)),
    )
