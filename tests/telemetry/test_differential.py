"""Telemetry's zero-perturbation contract, checked differentially.

Two claims, both enforced exactly:

* Enabling telemetry must not change a single cycle, instruction, or
  exit status of the simulated run (counters are flushed from the
  deltas the CPU computes anyway).
* Both interpreter paths must report identical counter deltas — the
  fast path counts canary group leaders through the canary probe its
  decoded site steps are wrapped with, the slow oracle calls the same
  probe on the same leaders at the same retire point.

Telemetry state is read at run time, never baked into decoded steps or
superblocks: flipping it switches the counts on every tier and
invalidates nothing.
"""

import warnings

import pytest

from repro import telemetry
from repro.core.deploy import build, deploy
from repro.kernel.kernel import Kernel

#: Canary-dense benign workload: 40 protected calls plus libc traffic.
SOURCE = """
int work(int n) {
    char buf[32];
    int i; int acc;
    acc = 0;
    for (i = 0; i < n; i = i + 1) {
        buf[i % 31] = i;
        acc = acc + buf[i % 31];
    }
    return acc;
}
int main() {
    int i; int total;
    total = 0;
    for (i = 0; i < 40; i = i + 1) { total = total + work(12); }
    return total & 255;
}
"""

SMASH_SOURCE = """
int victim() {
    char buf[16];
    int i;
    for (i = 0; i < 64; i = i + 1) { buf[i] = 65; }
    return 0;
}
int main() { return victim(); }
"""

#: Counters both paths must agree on, bit for bit.
PARITY_COUNTERS = (
    "machine_instructions_total",
    "machine_cycles_total",
    "canary_prologue_stores_total",
    "canary_epilogue_checks_total",
    "rdrand_draws_total",
    "canary_smashes_detected_total",
)


#: Interpreter tiers: the slow oracle, the decoded-step loop with the
#: JIT off, and the decoded-step loop with the JIT on.
TIERS = ("slow", "fast", "jit")


def _deploy(source, scheme, *, tier, seed=71):
    kernel = Kernel(seed)
    binary = build(source, scheme, name="telemetry-diff")
    process, _ = deploy(kernel, binary, scheme, fast=tier != "slow")
    process.cpu.jit = tier == "jit"
    return process


def _run(source, scheme, *, fast, seed=71):
    return _deploy(
        source, scheme, tier="fast" if fast else "slow", seed=seed
    ).run()


def _decodes(process):
    return {
        name: decoded
        for table in process.image.shared_decodes.values()
        for name, decoded in table.items()
    }


def _superblocks(process):
    return {
        (name, index): block
        for name, view in process.cpu._decode_cache.items()
        for index, block in view.jit_blocks.items()
        if block is not None
    }


@pytest.mark.parametrize("scheme", ["ssp", "pssp", "pssp-nt", "pssp-owf"])
def test_fast_and_slow_paths_report_identical_counters(scheme):
    before = telemetry.snapshot()
    fast_result = _run(SOURCE, scheme, fast=True)
    fast_delta = telemetry.delta(before)

    before = telemetry.snapshot()
    slow_result = _run(SOURCE, scheme, fast=False)
    slow_delta = telemetry.delta(before)

    assert fast_result.exit_status == slow_result.exit_status
    for name in PARITY_COUNTERS:
        assert fast_delta.get(name, 0) == slow_delta.get(name, 0), name
    # The workload actually exercised the counters under protection.
    if scheme != "none":
        assert fast_delta["canary_prologue_stores_total"] > 0
        assert fast_delta["canary_epilogue_checks_total"] > 0


@pytest.mark.parametrize("fast", [True, False])
def test_enabling_telemetry_is_bit_identical(fast):
    enabled = _run(SOURCE, "pssp", fast=fast)
    telemetry.disable()
    try:
        disabled = _run(SOURCE, "pssp", fast=fast)
    finally:
        telemetry.enable()
    assert enabled.cycles == disabled.cycles
    assert enabled.exit_status == disabled.exit_status
    assert enabled.state == disabled.state


@pytest.mark.parametrize("tier", TIERS)
def test_disabled_runs_record_nothing(tier):
    process = _deploy(SOURCE, "pssp", tier=tier)
    before = telemetry.snapshot()
    telemetry.disable()
    try:
        result = process.run()
    finally:
        telemetry.enable()
    delta = telemetry.delta(before)
    assert all(
        delta.get(name, 0) == 0 for name in PARITY_COUNTERS
    ), delta
    assert delta.get("jit_block_entries_total", 0) == 0, delta
    if tier == "jit":
        assert _superblocks(process), "the disabled run still compiled"
    assert result.exit_status == _run(SOURCE, "pssp", fast=False).exit_status


@pytest.mark.parametrize("tier", TIERS)
def test_telemetry_flips_keep_decodes_and_switch_counts(tier):
    """disable/enable/reset on one live CPU switch the counts and
    invalidate nothing: the image keeps the same ``DecodedFunction``
    objects, the CPU keeps its superblocks, and
    ``jit_invalidations_total`` does not move."""
    process = _deploy(SOURCE, "pssp", tier=tier)
    process.run()
    decodes = _decodes(process)
    blocks = _superblocks(process)
    invalidations = telemetry.counter_value("jit_invalidations_total")
    assert bool(decodes) == (tier != "slow")
    assert bool(blocks) == (tier == "jit")

    def prologues() -> int:
        before = telemetry.snapshot()
        process.call("work", (12,))
        return telemetry.delta(before).get("canary_prologue_stores_total", 0)

    assert prologues() == 1
    telemetry.disable()
    try:
        assert prologues() == 0
    finally:
        telemetry.enable()
    assert prologues() == 1
    assert telemetry.counter_value("jit_invalidations_total") == invalidations
    telemetry.reset()
    assert prologues() == 1
    assert telemetry.counter_value("jit_invalidations_total") == 0

    after = _decodes(process)
    assert after.keys() == decodes.keys()
    assert all(after[name] is decoded for name, decoded in decodes.items())
    compiled = _superblocks(process)
    assert all(compiled.get(key) is block for key, block in blocks.items())


def test_smash_increments_counter_and_emits_event():
    held = {event.seq for event in telemetry.ring().events()}
    before = telemetry.snapshot()
    result = _run(SMASH_SOURCE, "pssp", fast=True)
    assert result.smashed
    assert telemetry.delta(before)["canary_smashes_detected_total"] == 1
    fresh = [
        event for event in telemetry.ring().events()
        if event.seq not in held and event.kind == "smash-detected"
    ]
    assert fresh and fresh[-1].fields["function"] == "victim"


def test_sampled_leader_events_flow_when_armed():
    ring = telemetry.ring()
    # Filter by sequence number, not list position: when the bounded
    # ring is already full, new events evict old ones and the length
    # stays put.
    last_seq = max(
        (event.seq for event in ring.events()), default=-1
    )
    ring.sample_every = 10
    try:
        _run(SOURCE, "pssp", fast=True)
    finally:
        ring.sample_every = 0
    kinds = {
        event.kind for event in ring.events() if event.seq > last_seq
    }
    assert "prologue-store" in kinds or "epilogue-check" in kinds


class TestTraceWarning:
    def _process(self, fast):
        kernel = Kernel(71)
        binary = build(SOURCE, "pssp", name="telemetry-trace")
        process, _ = deploy(kernel, binary, "pssp", fast=fast)
        return process

    def test_trace_hook_on_fast_cpu_warns_once(self):
        process = self._process(fast=True)
        with pytest.warns(RuntimeWarning, match="slow interpreter"):
            process.cpu.trace = lambda name, index, instr: None
        # One-time: re-assigning does not warn again.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            process.cpu.trace = lambda name, index, instr: None
            assert process.cpu.trace is not None

    def test_no_warning_on_slow_cpu_or_clearing(self):
        process = self._process(fast=False)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            process.cpu.trace = lambda name, index, instr: None
            process.cpu.trace = None

    def test_trace_hook_still_forces_slow_loop_with_telemetry(self):
        """A traced run still matches the untraced one bit for bit."""
        reference = _run(SOURCE, "pssp", fast=True)
        process = self._process(fast=True)
        seen = []
        with pytest.warns(RuntimeWarning):
            process.cpu.trace = (
                lambda name, index, instr: seen.append(index)
            )
        result = process.run()
        assert seen  # the hook actually observed instructions
        assert result.cycles == reference.cycles
        assert result.exit_status == reference.exit_status
