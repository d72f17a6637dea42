"""`repro serve` / `repro fleet`: output, artifacts, and exit codes."""

import json

import pytest

from repro import cli
from repro.fleet.campaign import FleetReport, FleetSchemeReport, FleetSlice
from repro.fleet.traffic import TrafficConfig


class TestServe:
    def test_serve_prints_the_slice_and_exits_zero(self, capsys):
        code = cli.main([
            "serve", "--scheme", "pssp", "--requests", "200",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "scheme:          pssp" in out
        assert "requests:        200" in out
        assert "detections:" in out

    def test_serve_writes_a_replayable_slice_record(self, tmp_path, capsys):
        path = tmp_path / "slice.json"
        code = cli.main([
            "serve", "--scheme", "ssp", "--requests", "150",
            "--seed", "77", "--out", str(path),
        ])
        assert code == cli.EXIT_OK
        record = FleetSlice.from_json(json.loads(path.read_text()))
        assert record.seed == 77
        assert record.requests == 150

    def test_bad_attack_rate_is_a_usage_error(self, capsys):
        assert cli.main(["serve", "--attack-rate", "oops"]) \
            == cli.EXIT_USAGE


class TestFleet:
    def test_fleet_report_artifact_roundtrips(self, tmp_path, capsys):
        path = tmp_path / "fleet.json"
        code = cli.main([
            "fleet", "--budget", "200", "--slice", "100",
            "--schemes", "ssp,pssp", "--out", str(path),
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "AUDITED OK" in out
        report = FleetReport.from_json(json.loads(path.read_text()))
        assert report.schemes == ("ssp", "pssp")
        assert report.total_requests >= 396  # leak-atomic slack only

    def test_require_detections_flags_a_blind_scheme(self, capsys):
        # `none` has no canary: the campaign must end with 0 detections
        # and --require-detections must turn that into exit 1.
        code = cli.main([
            "fleet", "--budget", "100", "--slice", "100",
            "--schemes", "none", "--require-detections",
        ])
        err = capsys.readouterr().err
        assert code == cli.EXIT_VIOLATION
        assert "none" in err

    def test_unknown_scheme_is_a_usage_error(self, capsys):
        assert cli.main(["fleet", "--schemes", "nope"]) == cli.EXIT_USAGE

    def test_bad_attack_rate_is_a_usage_error(self, capsys):
        assert cli.main(["fleet", "--attack-rate", "1/0"]) == cli.EXIT_USAGE

    def _canned_report(self, *, lost=(), divergences=()):
        record = FleetSlice(seed=1, request_budget=10)
        record.requests = 10
        record.audit_divergences = list(divergences)
        scheme = FleetSchemeReport(
            scheme="pssp", base_seed=1, request_budget=10,
            slice_requests=10, slices=[record], lost=list(lost),
        )
        return FleetReport(
            base_seed=1, request_budget=10, slice_requests=10,
            config=TrafficConfig(), schemes=("pssp",), reports=[scheme],
        )

    def test_lost_slices_map_to_infrastructure_exit(
        self, monkeypatch, capsys
    ):
        import repro.fleet

        monkeypatch.setattr(
            repro.fleet, "run_fleet",
            lambda *a, **k: self._canned_report(lost=[2]),
        )
        code = cli.main(["fleet", "--budget", "10"])
        assert code == cli.EXIT_INFRASTRUCTURE

    def test_audit_divergence_maps_to_violation_exit(
        self, monkeypatch, capsys
    ):
        import repro.fleet

        monkeypatch.setattr(
            repro.fleet, "run_fleet",
            lambda *a, **k: self._canned_report(
                divergences=["fleet_requests_total: report says 10, "
                             "counters say 0"]
            ),
        )
        code = cli.main(["fleet", "--budget", "10"])
        assert code == cli.EXIT_VIOLATION


class TestChaosFlags:
    def test_chaos_seed_requires_chaos(self, capsys):
        code = cli.main([
            "fleet", "--budget", "100", "--chaos-seed", "7",
        ])
        assert code == cli.EXIT_USAGE
        assert "--chaos-seed requires --chaos" in capsys.readouterr().err

    def test_resume_requires_checkpoint(self, capsys):
        code = cli.main(["fleet", "--budget", "100", "--resume"])
        assert code == cli.EXIT_USAGE
        assert "--resume requires --checkpoint" in capsys.readouterr().err

    def test_negative_shard_retries_is_a_usage_error(self, capsys):
        code = cli.main([
            "fleet", "--budget", "100", "--shard-retries", "-1",
        ])
        assert code == cli.EXIT_USAGE

    def test_chaos_campaign_audits_ok_and_renders_supervision(self, capsys):
        code = cli.main([
            "fleet", "--budget", "200", "--slice", "100",
            "--schemes", "pssp", "--chaos", "--chaos-seed", "20180625",
        ])
        out = capsys.readouterr().out
        assert code == cli.EXIT_OK
        assert "chaos: seed 20180625" in out
        assert "supervision:" in out
        assert "AUDITED OK" in out

    def test_checkpoint_artifact_allows_noop_resume(self, tmp_path, capsys):
        ckpt = tmp_path / "ckpt.json"
        first = cli.main([
            "fleet", "--budget", "200", "--slice", "100",
            "--schemes", "pssp", "--checkpoint", str(ckpt),
        ])
        assert first == cli.EXIT_OK
        assert json.loads(ckpt.read_text())["kind"] == "fleet"
        again = cli.main([
            "fleet", "--budget", "200", "--slice", "100",
            "--schemes", "pssp", "--checkpoint", str(ckpt), "--resume",
        ])
        out = capsys.readouterr().out
        assert again == cli.EXIT_OK
        assert "AUDITED OK" in out
