"""The image-scoped decode cache shared across fork children and threads.

Decoded steps take their CPU as an argument, so one step list per
``(image, code_generation, dbi_multiplier, telemetry generation)`` serves
every CPU that runs on the image.  These tests pin the sharing (identity
of step lists, one decode per distinct function however many forks) and
every invalidation boundary a sharer must observe, then re-check the
fast ≡ slow contract over a fork chain.
"""

import pytest

from repro import telemetry
from repro.core.deploy import SCHEMES, build, deploy
from repro.isa.instructions import Imm, Instruction
from repro.kernel.kernel import Kernel
from repro.machine import decode as decode_module
from repro.machine.debug import architectural_snapshot, snapshot_divergences

SERVER = """
int handler(int n) {
    char buf[24];
    buf[0] = n;
    return buf[0] + 7;
}
int main() { return handler(1); }
"""

#: ``victim(n)`` writes ``n`` bytes into a 16-byte buffer: 64 smashes it.
VICTIM = """
int victim(int n) {
    char buf[16];
    int i;
    for (i = 0; i < n; i = i + 1) {
        buf[i] = 65;
    }
    return n;
}
int main() { return victim(4); }
"""


@pytest.fixture
def decodes(monkeypatch):
    """Record the ``Function`` of every ``FunctionDecoder.decode`` call."""
    seen = []
    original = decode_module.FunctionDecoder.decode

    def counting(self, function):
        seen.append(function)
        return original(self, function)

    monkeypatch.setattr(decode_module.FunctionDecoder, "decode", counting)
    return seen


def boot(source=SERVER, scheme="pssp", *, seed=11, fast=True):
    kernel = Kernel(seed=seed)
    process, _ = deploy(kernel, build(source, scheme, name="shared"), scheme, fast=fast)
    assert not process.run().crashed
    return kernel, process


def steps_of(process, name="handler"):
    return process.cpu._decode_cache[name].steps


class TestForkSharing:
    def test_children_reuse_parent_step_lists_by_identity(self):
        kernel, parent = boot()
        child = kernel.fork(parent)
        assert child.call("handler", (2,)).exit_status == 9
        assert steps_of(child) is steps_of(parent)
        assert child.cpu._decode_cache["handler"] is not (
            parent.cpu._decode_cache["handler"]
        ), "the view (and its JIT state) stays per CPU"

    def test_n_forks_cost_one_decode_per_distinct_function(self, decodes):
        kernel, parent = boot()
        warm = len(decodes)
        assert warm == len({id(function) for function in decodes})
        for n in range(8):
            child = kernel.fork(parent)
            assert child.call("handler", (n,)).exit_status == n + 7
        assert len(decodes) == warm

    def test_grandchildren_share_too(self, decodes):
        kernel, parent = boot()
        warm = len(decodes)
        child = kernel.fork(parent)
        grandchild = kernel.fork(child)
        assert grandchild.call("handler", (3,)).exit_status == 10
        assert steps_of(grandchild) is steps_of(parent)
        assert len(decodes) == warm

    def test_spawned_process_starts_cold(self):
        # Two boots of one binary clone the spawn image: separate images,
        # so nothing decoded in one process leaks into the other.
        _, first = boot(seed=3)
        _, second = boot(seed=3)
        assert first.image is not second.image
        assert steps_of(first, "main") is not steps_of(second, "main")


class TestInvalidationReachesEverySharer:
    def test_code_generation_bump_after_fork(self, decodes):
        kernel, parent = boot()
        child = kernel.fork(parent)
        child.call("handler", (1,))
        stale = steps_of(parent)
        handler = parent.image.function("handler")
        # The rewriter's patch path: re-register a function.
        parent.image.add_function(handler, replace=True)
        before = len(decodes)
        assert parent.call("handler", (1,)).exit_status == 8
        assert child.call("handler", (1,)).exit_status == 8
        assert steps_of(parent) is not stale
        assert steps_of(child) is steps_of(parent)
        assert len(decodes) == before + 1

    def test_flush_decode_cache_after_fork_reaches_the_parent(self):
        # A source of its own: the build and spawn-image caches share
        # Function bodies between boots, and this test patches one.
        kernel, parent = boot(SERVER + "int unshared() { return 0; }\n")
        child = kernel.fork(parent)
        assert child.call("handler", (1,)).exit_status == 8
        # Patch the shared body in place (same encoded length), then
        # flush through the *child*: the parent must not keep running
        # its stale steps.
        handler = parent.image.function("handler")
        position = next(
            index for index, instruction in enumerate(handler.body)
            if any(isinstance(o, Imm) and o.value == 7 for o in instruction.operands)
        )
        old = handler.body[position]
        operands = tuple(
            Imm(9) if isinstance(o, Imm) and o.value == 7 else o
            for o in old.operands
        )
        handler.body[position] = Instruction(old.op, operands, old.note)
        try:
            child.cpu.flush_decode_cache()
            assert parent.call("handler", (1,)).exit_status == 10
            assert child.call("handler", (1,)).exit_status == 10
            assert steps_of(child) is steps_of(parent)
            assert parent.image.shared_decodes, "refilled after the flush"
        finally:
            handler.body[position] = old

    def test_dbi_change_on_one_cpu_does_not_poison_another(self):
        kernel, parent = boot()
        child = kernel.fork(parent)
        child.cpu.dbi_multiplier = 2.0
        taxed = child.call("handler", (1,))
        plain = parent.call("handler", (1,))
        assert taxed.cycles == pytest.approx(2 * plain.cycles)
        assert steps_of(child) is not steps_of(parent)
        assert {key[0] for key in parent.image.shared_decodes} == {1.0, 2.0}
        # And against the oracle, on both CPUs.
        slow_kernel, slow_parent = boot(fast=False)
        slow_child = slow_kernel.fork(slow_parent)
        slow_child.cpu.dbi_multiplier = 2.0
        assert slow_child.call("handler", (1,)).cycles == taxed.cycles
        assert slow_parent.call("handler", (1,)).cycles == plain.cycles

    def test_telemetry_flip_rewraps_canary_leaders(self):
        kernel, parent = boot()
        child = kernel.fork(parent)

        def prologues(process):
            before = telemetry.snapshot()
            process.call("handler", (1,))
            return telemetry.delta(before).get("canary_prologue_stores_total", 0)

        assert prologues(child) == 1
        wrapped = steps_of(child)
        telemetry.disable()
        try:
            assert prologues(parent) == 0
            assert prologues(child) == 0
            assert steps_of(child) is steps_of(parent)
            assert steps_of(child) is not wrapped
        finally:
            telemetry.enable()
        assert prologues(parent) == 1
        assert prologues(child) == 1
        assert len(parent.image.shared_decodes) == 1, (
            "steps wrapped for a dead telemetry generation are dropped"
        )


class TestThreads:
    def test_threads_share_the_process_cache(self, decodes):
        kernel, process = boot()
        process.call("handler", (1,))
        warm = len(decodes)
        thread = kernel.create_thread(process)
        assert thread.call("handler", (4,)).exit_status == 11
        assert steps_of(thread) is steps_of(process)
        assert len(decodes) == warm


def _fork_chain(scheme: str, fast: bool):
    """Boot, fork a benign child, fork a grandchild off it that smashes."""
    kernel = Kernel(seed=23)
    binary = build(VICTIM, scheme, name="chain")
    parent, _ = deploy(kernel, binary, scheme, fast=fast)
    results = [parent.run()]
    child = kernel.fork(parent)
    results.append(child.call("victim", (8,)))
    grandchild = kernel.fork(child)
    results.append(grandchild.call("victim", (64,)))
    sibling = kernel.fork(parent)
    results.append(sibling.call("victim", (12,)))
    return [parent, child, grandchild, sibling], results


@pytest.mark.parametrize("scheme", sorted(SCHEMES))
def test_fast_equals_slow_over_a_smashing_fork_chain(scheme):
    fast_processes, fast_results = _fork_chain(scheme, True)
    slow_processes, slow_results = _fork_chain(scheme, False)
    for fast, slow in zip(fast_results, slow_results):
        assert (fast.state, fast.exit_status, fast.signal, fast.smashed) == (
            slow.state, slow.exit_status, slow.signal, slow.smashed
        )
        assert (fast.cycles, fast.instructions) == (slow.cycles, slow.instructions)
    assert fast_results[2].crashed, "the grandchild's overflow must fault"
    for fast, slow in zip(fast_processes, slow_processes):
        divergences = snapshot_divergences(
            architectural_snapshot(fast), architectural_snapshot(slow)
        )
        assert not divergences, divergences
    if SCHEMES[scheme].rewrite is None:
        # The chain ran on one shared image (rewritten schemes may patch
        # their image at load, which is fine either way).
        assert (
            fast_processes[2].cpu._decode_cache["victim"].steps
            is fast_processes[1].cpu._decode_cache["victim"].steps
        )
