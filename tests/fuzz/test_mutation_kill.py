"""Mutation-kill self-check: the oracle must catch planted bugs.

Each mutant injects one historically-plausible defect (wrong canary
slot, skipped epilogue check, wrong XOR half, neutered failure stub,
fork that forgets to re-randomize, drifting decode-cache costs, a
reversed ``sub`` in the shared straight-line lowering) into a different
layer of the tree.  A small seeded campaign must flag every
one — and must stay green on the unmutated tree — or the differential
oracle has silently rotted.
"""

import pytest

from repro.compiler.passes.pssp import PSSPPass
from repro.fuzz.mutants import (
    MUTANTS,
    kill_mutant,
    kill_report_ok,
    mutation_kill_report,
    planted,
    render_kill_report,
)

KILL_BUDGET = 2
BASE_SEED = 2018


class TestMutantInventory:
    def test_at_least_six_mutants_spanning_all_layers(self):
        assert len(MUTANTS) >= 6
        assert {mutant.layer for mutant in MUTANTS} == {
            "pass", "rewriter", "runtime",
        }

    def test_mutants_are_reversible(self):
        original = PSSPPass.emit_prologue
        by_name = {mutant.name: mutant for mutant in MUTANTS}
        with planted(by_name["pass-prologue-slot-off-by-one"]):
            assert PSSPPass.emit_prologue is not original
        assert PSSPPass.emit_prologue is original

    def test_undo_runs_even_when_the_body_raises(self):
        original = PSSPPass.emit_epilogue_check
        by_name = {mutant.name: mutant for mutant in MUTANTS}
        with pytest.raises(RuntimeError):
            with planted(by_name["pass-epilogue-check-skipped"]):
                raise RuntimeError("boom")
        assert PSSPPass.emit_epilogue_check is original


    def test_planting_clears_the_step_memo_on_both_edges(self):
        # Lowered steps and whole decode records are memoised process-wide
        # by instruction value; a lowering mutant must not be served
        # pre-mutant steps or records, nor leave its own behind.
        from types import SimpleNamespace

        from repro.isa.instructions import Function, Imm, Reg, ins
        from repro.machine import decode
        from repro.machine.cpu import _DISPATCH

        sub = ins("sub", Reg("rax"), Imm(1))
        function = Function("f", [sub])

        def rax_after(step):
            cpu = SimpleNamespace(gpr={"rax": 5}, registers=SimpleNamespace())
            step(cpu)
            return cpu.gpr["rax"]

        def results():
            decoded = decode.FunctionDecoder(None, _DISPATCH).decode(function)
            return (
                rax_after(decode._lowered_step(sub, None)),
                rax_after(decoded.steps[0][0]),
            )

        assert results() == (4, 4)
        by_name = {mutant.name: mutant for mutant in MUTANTS}
        with planted(by_name["runtime-lowering-sub-reversed"]):
            assert results() == ((1 - 5) % (1 << 64),) * 2
        assert results() == (4, 4)


class TestMutationKill:
    @pytest.mark.parametrize(
        "mutant", MUTANTS, ids=lambda mutant: mutant.name
    )
    def test_oracle_kills_mutant(self, mutant):
        verdict = kill_mutant(
            mutant, budget=KILL_BUDGET, base_seed=BASE_SEED
        )
        assert verdict.killed, (
            f"{mutant.name} ({mutant.layer}) survived: "
            f"expected {mutant.expected_signal}"
        )

    def test_live_pre_mutant_processes_do_not_hide_the_decoder(
        self, monkeypatch
    ):
        # Clones of one spawn image share decodes while any is alive.
        # Hold every process the clean campaign deploys, then plant the
        # decoder mutant: its campaign must decode afresh, not reuse the
        # held processes' clean steps.
        from repro.fuzz import run_fuzz
        from repro.kernel.kernel import Kernel

        held = []
        spawn = Kernel.spawn

        def holding(self, *args, **kwargs):
            process = spawn(self, *args, **kwargs)
            held.append(process)
            return process

        with monkeypatch.context() as patch:
            patch.setattr(Kernel, "spawn", holding)
            assert run_fuzz(
                KILL_BUDGET, base_seed=BASE_SEED, shrink=False, health=True
            ).ok
        assert held
        by_name = {mutant.name: mutant for mutant in MUTANTS}
        verdict = kill_mutant(
            by_name["runtime-decoder-cost-drift"],
            budget=KILL_BUDGET, base_seed=BASE_SEED,
        )
        assert verdict.killed, "a pre-mutant process served clean decodes"

    def test_baseline_stays_clean(self):
        # The flip side of killing mutants: no false positives without one.
        from repro.fuzz import run_fuzz

        report = run_fuzz(
            KILL_BUDGET, base_seed=BASE_SEED, shrink=False, health=True
        )
        assert report.ok, report.render()


@pytest.mark.fuzz
@pytest.mark.slow
class TestFullKillReport:
    def test_report_renders_and_passes(self):
        verdicts = mutation_kill_report(budget=3, base_seed=BASE_SEED)
        text = render_kill_report(verdicts)
        assert kill_report_ok(verdicts), text
        assert "MUTATION KILL OK" in text
        assert "baseline" in verdicts
