"""The image-scoped decode cache shared across fork children and threads.

Decoded steps take their CPU as an argument, and a loaded image never
changes, so one step list per ``(image, dbi_multiplier)`` serves every
CPU that runs on the image.  These tests pin the sharing (identity of
step lists, one decode per distinct function however many forks) and
the store's lifetime across spawns, then re-check the fast ≡ slow
contract over a fork chain.
"""

import gc
import weakref

import pytest

from repro import telemetry
from repro.core.deploy import SCHEMES, build, deploy
from repro.errors import LinkError
from repro.isa.instructions import Imm, Instruction, Reg
from repro.kernel.kernel import Kernel
from repro.machine import decode as decode_module
from repro.machine.cpu import _DISPATCH
from repro.machine.debug import architectural_snapshot, snapshot_divergences
from repro.parallel.snapcache import image_cache

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


def template_of(process):
    """The cached spawn template that handed ``process`` its decode store."""
    (template,) = [
        entry.image for entry in image_cache()._entries.values()
        if entry.image._clone_decodes
        and entry.image._clone_decodes() is process.image.shared_decodes
    ]
    return template


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


class TestSpawnSharing:
    """Clones of one spawn image share a decode store while any is alive.

    Each test boots a source of its own, so no clone left over from
    another test (the spawn-image cache outlives a test) shares its store.
    """

    def test_live_spawns_share_one_store_and_its_decodes(self, decodes):
        source = SERVER + "int spawn_share() { return 0; }\n"
        _, first = boot(source, seed=3)
        warm = len(decodes)
        _, second = boot(source, seed=4)
        assert first.image is not second.image
        assert first.image.shared_decodes is second.image.shared_decodes
        assert steps_of(first, "main") is steps_of(second, "main")
        assert len(decodes) == warm, "the second spawn decoded nothing"
        assert second.call("handler", (2,)).exit_status == 9
        assert steps_of(second) is steps_of(first)

    def test_store_dies_with_the_last_clone(self, decodes):
        source = SERVER + "int spawn_die() { return 0; }\n"
        kernel, first = boot(source)
        cold = len(decodes)
        _, second = boot(source)
        store = weakref.ref(first.image.shared_decodes)
        template = template_of(first)
        del kernel, first, _, second
        gc.collect()
        assert store() is None
        _, third = boot(source)
        assert template_of(third) is template
        assert len(decodes) == 2 * cold, "the next spawn starts cold"

    def test_spawn_template_never_keeps_decodes_alive(self):
        source = SERVER + "int spawn_template() { return 0; }\n"
        _, process = boot(source)
        template = template_of(process)
        cached = [entry.image for entry in image_cache()._entries.values()]
        assert any(image is template for image in cached)
        assert not template.shared_decodes, "the template never runs"
        store = weakref.ref(process.image.shared_decodes)
        del process, _
        gc.collect()
        assert store() is None
        assert not template.shared_decodes


class TestInvalidationReachesEverySharer:
    def test_dbi_change_on_one_cpu_does_not_poison_another(self):
        kernel, parent = boot()
        child = kernel.fork(parent)
        child.cpu.dbi_multiplier = 2.0
        taxed = child.call("handler", (1,))
        plain = parent.call("handler", (1,))
        assert taxed.cycles == pytest.approx(2 * plain.cycles)
        assert steps_of(child) is not steps_of(parent)
        assert set(parent.image.shared_decodes) == {1.0, 2.0}
        # And against the oracle, on both CPUs.
        slow_kernel, slow_parent = boot(fast=False)
        slow_child = slow_kernel.fork(slow_parent)
        slow_child.cpu.dbi_multiplier = 2.0
        assert slow_child.call("handler", (1,)).cycles == taxed.cycles
        assert slow_parent.call("handler", (1,)).cycles == plain.cycles

    def test_telemetry_flip_keeps_the_shared_steps(self):
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
        finally:
            telemetry.enable()
        assert prologues(parent) == 1
        assert prologues(child) == 1
        assert steps_of(parent) is wrapped and steps_of(child) is wrapped


class TestDecodeOnce:
    def test_a_view_miss_decodes_once_per_multiplier(self, decodes):
        # A source of its own: no live clone of another test shares its store.
        kernel, parent = boot(SERVER + "int decode_once() { return 0; }\n")
        warm = len(decodes)
        assert warm
        first, second = kernel.fork(parent), kernel.fork(parent)
        first.cpu.dbi_multiplier = second.cpu.dbi_multiplier = 2.0
        assert first.call("handler", (1,)).exit_status == 8
        assert len(decodes) == warm + 1
        assert second.call("handler", (1,)).exit_status == 8
        assert len(decodes) == warm + 1, "the second CPU reused the decode"
        assert steps_of(second) is steps_of(first)
        assert steps_of(first) is not steps_of(parent)

    def test_a_view_lives_as_long_as_its_cpu(self):
        kernel, parent = boot()
        for n in range(64):
            assert parent.call("handler", (n,)).exit_status == n + 7
        view = parent.cpu._decode_cache["handler"]
        assert view.jit_blocks or view.jit_counts
        kernel.fork(parent)
        assert parent.cpu._decode_cache["handler"] is view
        assert not view.jit_blocks and not view.jit_counts, (
            "a fork drops the parent's JIT state, not its views"
        )
        assert parent.call("handler", (2,)).exit_status == 9
        assert parent.cpu._decode_cache["handler"] is view


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
    # The chain ran on one shared image.
    assert (
        fast_processes[2].cpu._decode_cache["victim"].steps
        is fast_processes[1].cpu._decode_cache["victim"].steps
    )


class TestStepMemo:
    """Straight-line steps are memoised process-wide by instruction value."""

    def test_equal_instructions_share_one_step_across_images(self, asm):
        source = "f:\n add rax, 1\n lea rbx, [rsp+8]\n ret\n"
        first, second = asm(source), asm(source)
        steps = [
            decode_module.FunctionDecoder(h.image, _DISPATCH)
            .decode(h.image.function("f"))
            .steps
            for h in (first, second)
        ]
        assert first.image is not second.image
        assert steps[0][0][0] is steps[1][0][0]
        assert steps[0][1][0] is steps[1][1][0]

    def test_symbol_operands_are_keyed_by_their_address(self, asm):
        h = asm("f:\n lea rax, g\n mov rbx, g\n lea rcx, nowhere\n ret\ng:\n ret\n")
        steps = decode_module.FunctionDecoder(h.image, _DISPATCH).decode(
            h.image.function("f")
        ).steps
        address = h.image.address_of("g")
        lea = decode_module._STEPS[("mov", (Reg("rax"), Imm(address)))]
        assert steps[0][0] is lea
        assert steps[1][0] is decode_module._STEPS[
            ("mov", (Reg("rbx"), Imm(address)))
        ]
        # An unresolvable symbol keeps the slow handler, which raises
        # when the step runs.
        assert steps[2][0] not in decode_module._STEPS.values()
        with pytest.raises(LinkError):
            steps[2][0](h.cpu)

    def test_one_record_per_value_and_multiplier(self, asm):
        h = asm("f:\n add rax, 1\n call g\n ret\ng:\n ret\n")
        decode_module.clear_step_memo()
        for dbi in (1.0, 2.56):
            decode_module.FunctionDecoder(h.image, _DISPATCH, dbi).decode(
                h.image.function("f")
            )
        add, call, ret = h.image.function("f").body
        plain, scaled = (decode_module._RECORDS[dbi] for dbi in (1.0, 2.56))
        # One lowered step, charged per multiplier.
        assert plain[add][0] is scaled[add][0]
        assert (plain[add][1:3], scaled[add][1:3]) == ((1, 1), (2.56, 2))
        # Control transfers resolve against their function and image.
        assert plain[call] is plain[ret] is decode_module._BOUND

    def test_seen_instructions_decode_without_lowering(self, monkeypatch):
        lowered = []
        original = decode_module.lower

        def counting(low, op, operands, pos):
            lowered.append(op)
            return original(low, op, operands, pos)

        monkeypatch.setattr(decode_module, "lower", counting)
        decode_module.clear_step_memo()
        kernel = Kernel(seed=11)
        images = [
            deploy(kernel, build(VICTIM, "pssp", name=name), "pssp")[0].image
            for name in ("first", "second")
        ]
        first, second = (image.function("victim") for image in images)
        assert first is not second
        decode_module.FunctionDecoder(images[0], _DISPATCH).decode(first)
        assert lowered
        lowered.clear()
        decoded = decode_module.FunctionDecoder(images[1], _DISPATCH).decode(second)
        assert lowered == []
        assert len(decoded.steps) == len(second.body)
