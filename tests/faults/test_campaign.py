"""Chaos campaigns: canned cases, replay, checkpointing, the auditor."""

from functools import partialmethod
from types import SimpleNamespace

import pytest

from repro.errors import CampaignError
from repro.faults.campaign import (
    CanaryAuditor,
    ChaosReport,
    canned_invariant_cases,
    replay_case,
    run_campaign,
    run_canned_case,
    run_chaos_case,
)
from repro.faults.chaos_mutants import (
    chaos_kill_report,
    chaos_kill_report_ok,
    render_chaos_kill_report,
)
from repro.faults.plane import FaultPlane
from repro.faults.policy import AUDIT_REPEAT_THRESHOLD
from repro.faults.schedule import FaultSchedule
from repro.machine.memory import Memory
from tests.test_persist import CutWrite, Killed

CASES = canned_invariant_cases()


class TestCannedCases:
    @pytest.mark.parametrize("case", CASES, ids=lambda c: c.name)
    def test_case_upholds_the_fault_outcome_invariant(self, case):
        run = run_canned_case(case)
        assert run.ok, run.render()
        assert run.outcome in set(case.schedule.expected) | {"identical"}

    def test_starved_rdrand_degrades_with_an_exhaustion_event(self):
        run = run_canned_case(next(c for c in CASES if c.name == "nt-rdrand-starved"))
        assert run.outcome == "degraded"
        assert "rdrand-exhausted" in run.events
        assert run.delivered.get("rdrand-fail", 0) > 0

    def test_stuck_drbg_is_quarantined_before_any_prologue_trusts_it(self):
        run = run_canned_case(next(c for c in CASES if c.name == "nt-entropy-stuck"))
        assert run.outcome == "degraded"
        assert "entropy-degraded" in run.events

    def test_transient_fork_burst_is_absorbed_invisibly(self):
        run = run_canned_case(next(c for c in CASES if c.name == "pssp-fork-eagain"))
        assert run.outcome == "identical"
        assert run.absorbed >= 1
        assert run.delivered.get("fork-eagain", 0) > 0

    def test_persistent_tear_fails_closed_at_install(self):
        run = run_canned_case(next(c for c in CASES if c.name == "pssp-torn-publish"))
        assert run.outcome == "degraded"
        assert "shadow-publish-failed" in run.events


class TestTwinReusesReferenceDecodes:
    """Both runs of a case spawn one image, and the reference process is
    still alive when the faulted twin deploys, so the twin decodes
    nothing the reference run already decoded."""

    #: ``ChaosRun.to_json()`` of each seed, recorded before the twin
    #: shared its reference run's decodes.
    EXPECTED = {
        2020: {
            "absorbed": 0, "case": "", "delivered": {"tls-flip": 1},
            "description": "post-install bit flip in a TLS shadow slot",
            "detail": "*** stack smashing detected ***: __stack_chk_fail "
                      "terminated (fortify_fail)",
            "events": [], "expected": ["detected", "identical"],
            "outcome": "detected",
            "replay": "python -m repro chaos --replay 2020",
            "scheme": "pssp-binary", "seed": 2020, "violations": [],
        },
        2021: {
            "absorbed": 1, "case": "", "delivered": {"rdrand-fail": 3},
            "description": "transient rdrand CF=0 burst within the retry "
                           "budget",
            "detail": "", "events": [], "expected": ["identical"],
            "outcome": "identical",
            "replay": "python -m repro chaos --replay 2021",
            "scheme": "pssp-nt-hardened", "seed": 2021, "violations": [],
        },
    }

    @pytest.mark.parametrize("seed", sorted(EXPECTED))
    def test_each_function_is_decoded_once(self, seed, monkeypatch):
        import gc

        from repro.core.deploy import build, deploy
        from repro.faults.campaign import CHAOS_CYCLE_LIMIT
        from repro.faults.schedule import generate_fault_schedule
        from repro.kernel.kernel import Kernel
        from repro.machine import decode as decode_module
        from repro.workloads.generator import generate_fuzz_program

        decoded = []
        original = decode_module.FunctionDecoder.decode
        monkeypatch.setattr(
            decode_module.FunctionDecoder, "decode",
            lambda self, function: decoded.append(function.name)
            or original(self, function),
        )
        spec, source = generate_fuzz_program(seed)
        scheme = generate_fault_schedule(seed, spec).scheme
        # No clone of this program's spawn image may outlive a step.
        gc.collect()
        kernel = Kernel(seed)
        process, _ = deploy(
            kernel, build(source, scheme, name="chaos"), scheme,
            cycle_limit=CHAOS_CYCLE_LIMIT,
        )
        process.run()
        reference = sorted(decoded)
        del kernel, process
        gc.collect()
        decoded.clear()
        run = run_chaos_case(seed)
        assert sorted(decoded) == reference
        assert run.to_json() == self.EXPECTED[seed]


class TestReplayDeterminism:
    @pytest.mark.parametrize("seed", [2018, 2024, 2031])
    def test_same_seed_reproduces_the_run_bit_identically(self, seed):
        assert replay_case(seed).to_json() == replay_case(seed).to_json()

    def test_chaos_run_json_round_trip(self):
        run = run_canned_case(CASES[0])
        clone = type(run).from_json(run.to_json())
        assert clone.to_json() == run.to_json()

    @pytest.mark.parametrize("seed", [2018, 2024])
    def test_replay_is_bit_identical_cow_vs_eager_fork(self, seed, monkeypatch):
        # Chaos clause 6: degradation handling must be invariant to the
        # fork implementation.  The COW page layer and the historical
        # deep copy must replay a case to the same bytes.
        cow = replay_case(seed).to_json()
        monkeypatch.setattr(
            Memory, "clone", partialmethod(Memory.clone, eager=True)
        )
        eager = replay_case(seed).to_json()
        assert cow == eager


class TestCampaign:
    def test_small_campaign_holds_the_invariant(self):
        report = run_campaign(6, base_seed=2018)
        assert report.ok, report.render()
        assert len(report.runs) == 6
        assert set(report.outcome_tally()) <= {"identical", "detected", "degraded"}

    def test_checkpoint_resume_skips_completed_seeds(self, tmp_path):
        checkpoint = str(tmp_path / "chaos.json")
        first = run_campaign(3, base_seed=2018, checkpoint_path=checkpoint)
        assert len(first.runs) == 3
        resumed = run_campaign(
            6, base_seed=2018, checkpoint_path=checkpoint, resume=True
        )
        assert len(resumed.runs) == 6
        seeds = [run.seed for run in resumed.runs]
        assert sorted(seeds) == list(range(2018, 2024))
        assert len(set(seeds)) == 6  # resume re-ran nothing

    def test_checkpoint_survives_a_kill_mid_dump(self, tmp_path):
        import json as real_json

        checkpoint = str(tmp_path / "chaos.json")
        run_campaign(3, base_seed=2018, checkpoint_path=checkpoint)
        with open(checkpoint, "rb") as handle:
            previous = handle.read()

        # The next checkpoint holds more units, so it dies partway in.
        with CutWrite(writes=0, offset=len(previous)).installed():
            with pytest.raises(Killed):
                run_campaign(
                    6, base_seed=2018, checkpoint_path=checkpoint, resume=True
                )

        with open(checkpoint, "rb") as handle:
            assert handle.read() == previous
        resumed = run_campaign(
            6, base_seed=2018, checkpoint_path=checkpoint, resume=True
        )
        uninterrupted = run_campaign(6, base_seed=2018)
        assert real_json.dumps(resumed.to_json()) == real_json.dumps(
            uninterrupted.to_json()
        )

    def test_resume_refuses_a_checkpoint_from_another_scheme_filter(
        self, tmp_path
    ):
        # Regression: resume used to stitch the ssp-filtered case for
        # seed 2019 into a pssp-filtered campaign that has no case.
        checkpoint = str(tmp_path / "chaos.json")
        first = run_campaign(
            6, base_seed=2018, schemes=("ssp",), checkpoint_path=checkpoint
        )
        assert [run.seed for run in first.runs] == [2019]
        assert run_campaign(6, base_seed=2018, schemes=("pssp",)).runs == []
        with pytest.raises(CampaignError, match="schemes"):
            run_campaign(
                6, base_seed=2018, schemes=("pssp",),
                checkpoint_path=checkpoint, resume=True,
            )

    def test_resume_never_reruns_a_recorded_infra_error(
        self, tmp_path, monkeypatch
    ):
        # Regression: resume used to re-run seeds recorded as infra
        # errors, so the report held seed 2018 as a run *and* an error.
        import json

        from repro.faults import campaign as chaos

        real = chaos.run_chaos_case

        def broken_reference(seed, **kwargs):
            if seed == 2018:
                raise CampaignError("reference run failed to deploy")
            return real(seed, **kwargs)

        checkpoint = str(tmp_path / "chaos.json")
        monkeypatch.setattr(chaos, "run_chaos_case", broken_reference)
        first = run_campaign(3, base_seed=2018, checkpoint_path=checkpoint)
        monkeypatch.undo()
        assert [seed for seed, _ in first.infra_errors] == [2018]
        resumed = run_campaign(
            3, base_seed=2018, checkpoint_path=checkpoint, resume=True
        )
        assert json.dumps(resumed.to_json()) == json.dumps(first.to_json())
        assert 2018 not in {run.seed for run in resumed.runs}

    def test_resume_never_reruns_a_filtered_out_seed(
        self, tmp_path, monkeypatch
    ):
        from repro.faults import campaign as chaos

        checkpoint = str(tmp_path / "chaos.json")
        run_campaign(
            6, base_seed=2018, schemes=("ssp",), checkpoint_path=checkpoint
        )
        derived = []
        real = chaos.generate_fault_schedule
        monkeypatch.setattr(
            chaos, "generate_fault_schedule",
            lambda seed, spec: derived.append(seed) or real(seed, spec),
        )
        resumed = run_campaign(
            6, base_seed=2018, schemes=("ssp",),
            checkpoint_path=checkpoint, resume=True,
        )
        assert [run.seed for run in resumed.runs] == [2019]
        assert derived == []  # every seed, skipped ones too, was done

    def test_deadline_stops_the_campaign_with_a_typed_flag(self):
        report = run_campaign(50, base_seed=2018, deadline=0.0)
        assert report.timed_out
        assert not report.ok
        assert len(report.runs) < 50

    def test_report_json_round_trip(self):
        report = run_campaign(2, base_seed=2018)
        clone = ChaosReport.from_json(report.to_json())
        assert clone.to_json() == report.to_json()
        assert {run.seed for run in clone.runs if not run.case} == {
            run.seed for run in report.runs if not run.case
        }

    def test_broken_scheme_surfaces_as_campaign_error(self):
        with pytest.raises(CampaignError):
            run_chaos_case(
                0,
                spec=CASES[0].spec,
                schedule=FaultSchedule(scheme="no-such-scheme"),
            )


def _auditor(events=()):
    plane = FaultPlane(FaultSchedule(scheme="pssp-nt-hardened"))
    for kind in events:
        plane.record_event(kind)
    return CanaryAuditor(plane)


def _observe_fresh(auditor, value):
    process = SimpleNamespace(
        cpu=SimpleNamespace(registers=SimpleNamespace(read=lambda _name: value))
    )
    auditor._observe(process, "fresh")


def _observe_fallback(auditor, value, shadow_c0):
    process = SimpleNamespace(
        cpu=SimpleNamespace(registers=SimpleNamespace(read=lambda _name: value)),
        tls=SimpleNamespace(shadow_c0=shadow_c0),
    )
    auditor._observe(process, "fallback")


class TestCanaryAuditor:
    def test_zero_canary_store_is_a_finding(self):
        auditor = _auditor()
        _observe_fresh(auditor, 0)
        assert any("zero canary" in f for f in auditor.findings())

    def test_repeated_fresh_value_without_an_event_is_a_finding(self):
        auditor = _auditor()
        for _ in range(AUDIT_REPEAT_THRESHOLD):
            _observe_fresh(auditor, 0x4242)
        assert any("repeated" in f for f in auditor.findings())

    def test_a_degradation_event_explains_the_repeats(self):
        auditor = _auditor(events=("entropy-degraded",))
        for _ in range(AUDIT_REPEAT_THRESHOLD):
            _observe_fresh(auditor, 0x4242)
        assert auditor.findings() == []

    def test_fallback_without_an_event_is_a_finding(self):
        auditor = _auditor()
        _observe_fallback(auditor, 0x77, shadow_c0=0x77)
        assert any("without a recorded" in f for f in auditor.findings())

    def test_fallback_mismatching_the_shadow_pair_is_a_finding(self):
        auditor = _auditor(events=("rdrand-exhausted",))
        _observe_fallback(auditor, 0x77, shadow_c0=0x88)
        assert any("!= TLS shadow C0" in f for f in auditor.findings())

    def test_require_store_flags_a_silent_case(self):
        auditor = _auditor()
        assert any(
            "no canary store" in f
            for f in auditor.findings(require_store=True)
        )
        assert auditor.findings() == []


class TestChaosMutationKill:
    def test_disabling_a_degradation_mechanism_is_caught(self):
        report = chaos_kill_report()
        assert chaos_kill_report_ok(report), render_chaos_kill_report(report)


@pytest.mark.fuzz
@pytest.mark.slow
class TestAcceptanceCampaign:
    """ISSUE acceptance: 200 seeded schedules, zero silent weak canaries."""

    def test_fault_outcome_invariant_over_200_programs(self):
        report = run_campaign(200, base_seed=2018)
        assert len(report.runs) == 200
        assert not report.infra_errors, report.render()
        assert not report.violating_runs, report.render()
        tally = report.outcome_tally()
        assert tally.get("identical", 0) > 0
        assert tally.get("degraded", 0) > 0
