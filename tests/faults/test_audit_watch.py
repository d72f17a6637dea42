"""The canary auditor's watch: audited fast runs ≡ audited slow runs.

The chaos auditor observes canary stores through ``CPU.watch``, which
the canary probe feeds in every interpreter tier, so faulted chaos runs
take the default fast path.  The oracle is the slow loop, reached by
monkeypatching the campaign's ``deploy`` to ``fast=False``: every run,
its auditor state, its report and the probe's full call sequence must
be identical down the slow loop, the fast loop and the JIT-on fast loop.
"""

import functools
from typing import Dict, List

import pytest

from repro import telemetry
from repro.core.deploy import build, deploy
from repro.faults import campaign
from repro.faults.campaign import (
    CanaryAuditor,
    canned_invariant_cases,
    run_campaign,
    run_canned_case,
    run_chaos_case,
)
from repro.faults.plane import FaultPlane
from repro.faults.schedule import FaultSchedule, generate_fault_schedule
from repro.kernel.kernel import Kernel
from repro.machine.cpu import CPU
from repro.workloads.generator import generate_fuzz_program

#: Every scheme a chaos schedule can target (the CI chaos-smoke matrix).
CHAOS_SCHEMES = ("ssp", "pssp", "pssp-binary", "pssp-nt-hardened", "pssp-owf")
#: Scenarios ``generate_fault_schedule`` draws from (two need a fork).
SCHEDULE_KINDS = 10

#: One protected worker, reached from main, a thread and a forked child.
FORK_AND_THREAD = """
int worker(int arg) {
    char buf[16];
    buf[0] = arg;
    return buf[0];
}
int main() {
    int tid; int pid; int total;
    total = worker(1);
    pthread_create(&tid, 0, worker, 2);
    pid = fork();
    if (pid == 0) {
        return worker(3) & 0xff;
    }
    total = total + worker(4);
    return total & 255;
}
"""

#: A protected worker called often enough for its blocks to get hot.
HOT_CALLS = 200
HOT_LOOP = f"""
int worker(int arg) {{
    char buf[16];
    buf[0] = arg;
    return buf[0];
}}
int main() {{
    int i; int total;
    total = 0;
    for (i = 0; i < {HOT_CALLS}; i = i + 1) {{
        total = total + worker(i);
    }}
    return total & 255;
}}
"""


def _recording_probe(patch, calls: list) -> None:
    """Record every canary-probe call as ``(kind, function, index)``."""
    probe = telemetry.canary_probe

    def recording(C, site) -> None:
        calls.append((site.leader or site.store, site.function, site.index))
        probe(C, site)

    patch.setattr(telemetry, "canary_probe", recording)


def _audited(run, *, tier: str):
    """``run()`` down ``tier`` — ``"slow"`` (the oracle), ``"fast"`` (JIT
    off) or ``"jit"`` — recording every auditor and probe call."""
    auditors: List[CanaryAuditor] = []
    probes: list = []

    class Recording(CanaryAuditor):
        def __init__(self, plane) -> None:
            super().__init__(plane)
            auditors.append(self)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(campaign, "CanaryAuditor", Recording)
        _recording_probe(patch, probes)
        if tier == "slow":
            patch.setattr(campaign, "deploy", functools.partial(deploy, fast=False))
        patch.setenv("REPRO_JIT", "1" if tier == "jit" else "0")
        result = run()
    state = [
        (a.fresh_values, a.fallback_stores, a.zero_stores, a.fallback_mismatches)
        for a in auditors
    ]
    return result, state, probes


def _assert_fast_equals_slow(run):
    """Auditor state and probe calls of ``run``, identical on every tier."""
    slow, slow_state, slow_probes = _audited(run, tier="slow")
    for tier in ("fast", "jit"):
        result, state, probes = _audited(run, tier=tier)
        assert result.to_json() == slow.to_json(), tier
        assert state == slow_state, tier
        assert probes == slow_probes, tier
    return slow_state, slow_probes


@functools.lru_cache(maxsize=None)
def _schedule(seed: int) -> FaultSchedule:
    spec, _ = generate_fuzz_program(seed)
    return generate_fault_schedule(seed, spec)


def _seeds_by_kind(per_kind: int) -> Dict[str, List[int]]:
    """The first ``per_kind`` campaign seeds of every schedule kind."""
    kinds: Dict[str, List[int]] = {}
    seed = 2018
    while len(kinds) < SCHEDULE_KINDS or any(len(s) < per_kind for s in kinds.values()):
        seeds = kinds.setdefault(_schedule(seed).description, [])
        if len(seeds) < per_kind:
            seeds.append(seed)
        seed += 1
    return kinds


class TestAuditedFastEqualsSlow:
    @pytest.mark.parametrize(
        "case", canned_invariant_cases(), ids=lambda c: c.name
    )
    def test_canned_case(self, case):
        state, probes = _assert_fast_equals_slow(lambda: run_canned_case(case))
        assert probes
        if case.require_store:
            fresh, fallbacks = state[0][0], state[0][1]
            assert fresh or fallbacks

    def test_thirty_seeds_cover_every_schedule_kind(self):
        kinds = _seeds_by_kind(per_kind=3)
        assert len(kinds) == SCHEDULE_KINDS
        seen = leaders = 0
        for seeds in kinds.values():
            for seed in seeds:
                state, probes = _assert_fast_equals_slow(
                    lambda: run_chaos_case(seed)
                )
                seen += len(state[0][0]) + state[0][1]
                leaders += sum(
                    kind in ("prologue", "epilogue") for kind, _, _ in probes
                )
        assert seen, "no audited store in thirty seeds: the check is vacuous"
        assert leaders, "no group leader in thirty seeds: the check is vacuous"

    def test_fork_and_thread_reattach(self):
        def run(tier: str):
            kernel = Kernel(2018)
            binary = build(FORK_AND_THREAD, "pssp-nt-hardened", name="ft")
            probes: list = []
            with pytest.MonkeyPatch.context() as patch:
                _recording_probe(patch, probes)
                process, _ = deploy(
                    kernel, binary, "pssp-nt-hardened", fast=tier != "slow"
                )
                process.cpu.jit = tier == "jit"
                auditor = CanaryAuditor(
                    FaultPlane(FaultSchedule("pssp-nt-hardened"))
                )
                auditor.attach(process)
                result = process.run()
            assert result.state == "exited"
            return auditor.fresh_values, probes

        slow = run("slow")
        assert run("fast") == slow and run("jit") == slow
        # main, the thread, the forked child, and main again.
        fresh, probes = slow
        assert len(fresh) == 4 and all(fresh)
        assert sum(kind == "fresh" for kind, _, _ in probes) == 4


class TestWatchSemantics:
    def _spawn(self, source, *, fast=True, cycle_limit=50_000_000):
        kernel = Kernel(7)
        binary = build(source, "pssp-nt-hardened", name="w")
        process, _ = deploy(
            kernel, binary, "pssp-nt-hardened", fast=fast,
            cycle_limit=cycle_limit,
        )
        return process

    def _watched(self, process, note_cycles=False):
        seen = []
        cpu = process.cpu
        process.cpu.watch = lambda kind, instruction: seen.append(
            (cpu.cycles, cpu.registers.read("rax")) if note_cycles
            else cpu.registers.read("rax")
        )
        return seen

    def test_store_that_trips_the_cycle_limit_is_observed_identically(self):
        oracle = self._spawn(HOT_LOOP, fast=False)
        stores = self._watched(oracle, note_cycles=True)
        oracle.run()
        trip_cycles = stores[1][0]
        # Limit one cycle short of the second store: it trips on it.
        for limit, observed in ((trip_cycles - 1, 1), (trip_cycles, 2)):
            outcomes = []
            for fast in (True, False):
                process = self._spawn(HOT_LOOP, fast=fast, cycle_limit=limit)
                seen = self._watched(process)
                result = process.run()
                assert result.signal == "SIGXCPU"
                outcomes.append((
                    seen, process.cpu.cycles,
                    process.cpu.instructions_executed, process.registers.rip,
                ))
            assert outcomes[0] == outcomes[1]
            assert outcomes[0][0] == [value for _, value in stores[:observed]]

    def test_jit_sees_every_store_of_a_hot_loop(self):
        process = self._spawn(HOT_LOOP)
        process.cpu.jit = True
        assert process.cpu.fault_plane is None
        seen = self._watched(process)
        assert process.run().state == "exited"
        assert any(
            block is not None
            for view in process.cpu._decode_cache.values()
            for block in view.jit_blocks.values()
        ), "the loop must have compiled superblocks"
        oracle = self._spawn(HOT_LOOP, fast=False)
        expected = self._watched(oracle)
        oracle.run()
        assert len(seen) == HOT_CALLS and all(seen)
        assert seen == expected

    def test_watch_armed_over_compiled_superblocks_sees_every_store(self):
        def superblocks(process):
            return {
                (name, index): block
                for name, view in process.cpu._decode_cache.items()
                for index, block in view.jit_blocks.items()
                if block is not None
            }

        def rerun_watched(fast: bool):
            process = self._spawn(HOT_LOOP, fast=fast)
            process.cpu.jit = fast
            assert process.run().state == "exited"
            compiled = superblocks(process)
            invalidations = telemetry.counter_value("jit_invalidations_total")
            seen = self._watched(process)
            assert process.call("main").state == "exited"
            assert superblocks(process) == compiled, "arming flushes nothing"
            assert (
                telemetry.counter_value("jit_invalidations_total")
                == invalidations
            )
            return seen, compiled

        seen, compiled = rerun_watched(fast=True)
        assert compiled, "the loop must have compiled superblocks"
        expected, _ = rerun_watched(fast=False)
        assert len(seen) == HOT_CALLS and all(seen)
        assert seen == expected

    def test_run_campaign_never_enters_the_slow_loop(self, monkeypatch):
        entered = []
        slow = CPU._run_loop_slow

        def noting(cpu):
            entered.append(cpu)
            return slow(cpu)

        monkeypatch.setattr(CPU, "_run_loop_slow", noting)
        report = run_campaign(12)
        assert report.ok and len(report.runs) == 12
        assert entered == []


class TestAuditorHooks:
    def test_hooks_do_not_multiply_across_fork_generations(self):
        kernel = Kernel(3)
        binary = build(HOT_LOOP, "pssp-nt-hardened", name="h")
        root, _ = deploy(kernel, binary, "pssp-nt-hardened")
        CanaryAuditor(FaultPlane(FaultSchedule("pssp-nt-hardened"))).attach(root)
        fork_hooks, thread_hooks = len(root.fork_hooks), len(root.thread_hooks)
        process = root
        for _generation in range(5):
            process = kernel.fork(process)
            assert len(process.fork_hooks) == fork_hooks
            assert len(process.thread_hooks) == thread_hooks
            assert process.cpu.watch is not None
        thread = kernel.create_thread(process)
        assert len(thread.fork_hooks) == fork_hooks
        assert thread.cpu.watch is not None


@pytest.mark.slow
@pytest.mark.parametrize("scheme", CHAOS_SCHEMES)
def test_campaign_seeds_fast_equals_slow(scheme):
    """Extended oracle: seeds 2018..2317, the ones targeting ``scheme``."""
    seeds = [s for s in range(2018, 2318) if _schedule(s).scheme == scheme]
    assert seeds
    for seed in seeds:
        _assert_fast_equals_slow(lambda: run_chaos_case(seed))
