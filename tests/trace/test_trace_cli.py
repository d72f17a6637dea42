"""CLI surface: ``repro trace``, ``repro postmortem``, fleet trace flags."""

import json

import pytest

from repro import cli
from repro.cli import EXIT_INFRASTRUCTURE, EXIT_OK, EXIT_USAGE, EXIT_VIOLATION


@pytest.fixture(scope="module")
def traced_artifacts(tmp_path_factory):
    """One ``repro trace`` run shared across tests (trace + bundles)."""
    root = tmp_path_factory.mktemp("trace-cli")
    trace_path = root / "trace.json"
    bundle_dir = root / "bundles"
    code = cli.main([
        "trace", "--scheme", "ssp", "--requests", "120",
        "--series-interval", "20",
        "--out", str(trace_path), "--bundle-dir", str(bundle_dir),
    ])
    assert code == EXIT_OK
    bundles = sorted(bundle_dir.glob("*.pmb"))
    assert bundles, "expected ssp to capture at least one breach bundle"
    return trace_path, bundles


class TestTraceCommand:
    def test_writes_parseable_perfetto_json(self, traced_artifacts, capsys):
        trace_path, _ = traced_artifacts
        data = json.loads(trace_path.read_text())
        assert data["traceEvents"]
        assert {"M", "X", "i"} == {e["ph"] for e in data["traceEvents"]}
        assert data["otherData"]["clock_hz"] > 0

    def test_series_table(self, capsys):
        code = cli.main([
            "trace", "--scheme", "ssp", "--requests", "100",
            "--series", "--series-interval", "25",
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "bucket" in out and "det/req" in out
        assert "ssp/slice-20180625" in out

    def test_rejects_bad_series_interval(self, capsys):
        code = cli.main([
            "trace", "--scheme", "ssp", "--requests", "50",
            "--series-interval", "0",
        ])
        assert code == EXIT_USAGE

    def test_rejects_bad_attack_rate(self, capsys):
        code = cli.main([
            "trace", "--scheme", "ssp", "--attack-rate", "nonsense",
        ])
        assert code == EXIT_USAGE


class TestPostmortemCommand:
    def test_replays_a_real_bundle_exactly(self, traced_artifacts, capsys):
        _, bundles = traced_artifacts
        code = cli.main(["postmortem", str(bundles[0])])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "POST-MORTEM REPLAY EXACT" in out

    def test_tampered_bundle_exits_violation(
        self, traced_artifacts, tmp_path, capsys
    ):
        _, bundles = traced_artifacts
        payload = json.loads(bundles[0].read_text())
        payload["events"][-1]["fields"]["requests"] = 424242
        tampered = tmp_path / "tampered.pmb"
        tampered.write_text(json.dumps(payload))
        code = cli.main(["postmortem", str(tampered)])
        out = capsys.readouterr().out
        assert code == EXIT_VIOLATION
        assert "REPLAY DIVERGENCE" in out

    def test_unreadable_bundle_exits_infrastructure(self, tmp_path, capsys):
        garbage = tmp_path / "garbage.pmb"
        garbage.write_text("{not a bundle")
        code = cli.main(["postmortem", str(garbage)])
        assert code == EXIT_INFRASTRUCTURE
        assert "infrastructure error" in capsys.readouterr().err


class TestFleetTraceFlags:
    def test_trace_out_with_checkpoint_resumes_byte_identically(
        self, tmp_path, capsys, monkeypatch
    ):
        from repro.errors import ShutdownRequested
        from repro.fleet import campaign as campaign_module

        def fleet(name, *extra):
            return cli.main([
                "fleet", "--budget", "200", "--slice", "100",
                "--schemes", "ssp",
                "--trace-out", str(tmp_path / f"{name}-trace.json"),
                "--bundle-dir", str(tmp_path / f"{name}-bundles"),
                "--out", str(tmp_path / f"{name}.json"), *extra,
            ])

        assert fleet("straight") == EXIT_OK
        checkpoint = ["--checkpoint", str(tmp_path / "ckpt.json")]
        real = campaign_module.run_fleet_slice
        served = []

        def interrupting(*args, **kwargs):
            if served:  # one slice checkpointed, then the signal lands
                raise ShutdownRequested("test interrupt")
            served.append(args)
            return real(*args, **kwargs)

        monkeypatch.setattr(campaign_module, "run_fleet_slice", interrupting)
        assert fleet("resumed", *checkpoint) == EXIT_INFRASTRUCTURE
        monkeypatch.undo()
        assert fleet("resumed", *checkpoint, "--resume") == EXIT_OK
        capsys.readouterr()
        for name in ("-trace.json", ".json"):
            assert (tmp_path / f"resumed{name}").read_bytes() == \
                (tmp_path / f"straight{name}").read_bytes()
        bundles = {
            name: sorted(p.name for p in (tmp_path / f"{name}-bundles").iterdir())
            for name in ("straight", "resumed")
        }
        assert bundles["resumed"] == bundles["straight"]

    def test_fleet_writes_trace_and_bundles(self, tmp_path, capsys):
        trace_path = tmp_path / "fleet-trace.json"
        bundle_dir = tmp_path / "bundles"
        code = cli.main([
            "fleet", "--budget", "100", "--slice", "100",
            "--schemes", "ssp",
            "--trace-out", str(trace_path),
            "--bundle-dir", str(bundle_dir),
        ])
        out = capsys.readouterr().out
        assert code == EXIT_OK
        assert "ssp/slice-20180625" in out
        data = json.loads(trace_path.read_text())
        assert data["traceEvents"]
        assert list(bundle_dir.glob("*.pmb"))
