"""Campaign tracing: jobs-N byte-identity, Perfetto export, lost shards."""

import json
import os
import signal

import pytest

from repro.errors import ShutdownRequested
from repro.fleet import campaign as campaign_module
from repro.fleet.campaign import run_fleet
from repro.parallel import campaign as engine_module
from repro.trace import (
    CampaignTrace,
    TraceConfig,
    replay_bundle,
    write_bundles,
    write_trace,
)

CONFIG = TraceConfig(series_interval=25)


def traced_fleet(jobs):
    return run_fleet(
        200, schemes=("ssp", "pssp"), slice_requests=100, jobs=jobs,
        trace=CONFIG,
    )


@pytest.fixture(scope="module")
def serial_and_sharded():
    return traced_fleet(1), traced_fleet(2)


class TestJobsIdentity:
    def test_trace_is_byte_identical_under_jobs(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        assert json.dumps(serial.trace.to_json(), sort_keys=True) == \
            json.dumps(sharded.trace.to_json(), sort_keys=True)

    def test_perfetto_export_is_byte_identical(self, serial_and_sharded):
        serial, sharded = serial_and_sharded
        assert json.dumps(serial.trace.perfetto(), sort_keys=True) == \
            json.dumps(sharded.trace.perfetto(), sort_keys=True)

    def test_report_artifact_is_unchanged_by_tracing(
        self, serial_and_sharded
    ):
        serial, _ = serial_and_sharded
        untraced = run_fleet(200, schemes=("ssp", "pssp"), slice_requests=100)
        # The trace rides on the object, never in the committed artifact.
        assert "trace" not in serial.to_json()
        assert json.dumps(serial.to_json(), sort_keys=True) == \
            json.dumps(untraced.to_json(), sort_keys=True)

    def test_slices_arrive_in_scheme_seed_order(self, serial_and_sharded):
        _, sharded = serial_and_sharded
        order = [(t.scheme, t.seed) for t in sharded.trace.slices]
        assert order == [
            ("ssp", 20180625), ("ssp", 20180626),
            ("pssp", 20180625), ("pssp", 20180626),
        ]


class TestPerfettoShape:
    def test_container_and_events(self, serial_and_sharded):
        serial, _ = serial_and_sharded
        data = serial.trace.perfetto()
        assert data["traceEvents"]
        assert data["otherData"]["clock_hz"] > 0
        assert data["otherData"]["slices"] == 4
        phases = {event["ph"] for event in data["traceEvents"]}
        assert phases == {"M", "X", "i"}
        processes = {
            event["args"]["name"] for event in data["traceEvents"]
            if event["name"] == "process_name"
        }
        assert processes == {
            "ssp/slice-20180625", "ssp/slice-20180626",
            "pssp/slice-20180625", "pssp/slice-20180626",
        }

    def test_campaign_trace_roundtrip(self, serial_and_sharded):
        serial, _ = serial_and_sharded
        restored = CampaignTrace.from_json(serial.trace.to_json())
        assert restored.to_json() == serial.trace.to_json()
        assert json.dumps(restored.perfetto(), sort_keys=True) == \
            json.dumps(serial.trace.perfetto(), sort_keys=True)


class TestCheckpointedTrace:
    def test_interrupted_traced_campaign_resumes_byte_identically(
        self, monkeypatch, tmp_path
    ):
        kwargs = dict(schemes=("ssp", "pssp"), slice_requests=100, trace=CONFIG)
        straight = run_fleet(300, **kwargs)
        real = campaign_module.run_fleet_slice
        served = []

        def interrupting(*args, **kw):
            # Stop mid-campaign: every ssp slice and one pssp slice done.
            if len(served) == 4:
                raise ShutdownRequested("test interrupt")
            served.append(args)
            return real(*args, **kw)

        monkeypatch.setattr(campaign_module, "run_fleet_slice", interrupting)
        path = str(tmp_path / "ckpt.json")
        with pytest.raises(ShutdownRequested):
            run_fleet(300, checkpoint_path=path, **kwargs)
        monkeypatch.undo()
        resumed = run_fleet(300, checkpoint_path=path, resume=True, **kwargs)

        for name, report in (("straight", straight), ("resumed", resumed)):
            write_trace(report.trace, str(tmp_path / f"{name}.json"))
            write_bundles(report.trace, str(tmp_path / f"{name}-bundles"))
        assert (tmp_path / "resumed.json").read_bytes() == \
            (tmp_path / "straight.json").read_bytes()
        assert _tree(tmp_path / "resumed-bundles") == \
            _tree(tmp_path / "straight-bundles")
        assert json.dumps(resumed.to_json()) == json.dumps(straight.to_json())


def _tree(directory):
    """``name -> bytes`` for every file under ``directory``."""
    if not directory.exists():
        return {}
    return {path.name: path.read_bytes() for path in directory.iterdir()}


# The pool pickles workers by reference, so the killer must live at
# import scope; the poison seed rides in through the shipped config.
_REAL_WORKER = engine_module._shard_worker


def _killer(config, seeds, attempt):
    if seeds[0] == config["_poison_seed"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_WORKER(config, seeds, attempt)


class TestWorkerLoss:
    def test_lost_shard_leaves_a_replayable_bundle(self, monkeypatch):
        from repro import parallel

        monkeypatch.setattr(engine_module, "_shard_worker", _killer)
        real_run_shards = parallel.run_shards

        def poisoned(worker, config, shards, **kwargs):
            return real_run_shards(
                worker, dict(config, _poison_seed=20180625), shards, **kwargs
            )

        monkeypatch.setattr("repro.parallel.run_shards", poisoned)
        report = run_fleet(
            200, schemes=("ssp",), slice_requests=100, jobs=2,
            shard_retries=0, trace=CONFIG,
        )
        assert report.lost_slices > 0
        lost = report.trace.lost_bundles
        # The poisoned shard always leaves a bundle; the pool break can
        # occasionally take an in-flight bystander shard with it, so the
        # count is >= 1, not == 1.
        assert lost
        assert all(b["trigger"] == "worker-lost" for b in lost)
        lost_seeds = [seed for b in lost for seed in b["seeds"]]
        assert 20180625 in lost_seeds
        # Every slice either traced or left a lost bundle — no holes.
        assert len(report.trace.slices) + len(lost_seeds) == 2
        # And each bundle re-runs its lost seeds clean.
        for bundle in lost:
            result = replay_bundle(bundle)
            assert result.ok, result.divergences
