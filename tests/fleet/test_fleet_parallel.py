"""Differential coverage: the fleet report is jobs- and cache-invariant.

The contract inherited from the PR 5 executor: for a given seed the
merged campaign report is *bit-identical* whether slices run serially,
across a process pool of any width, from warm spawn images, or from
cold boots — and a worker lost mid-campaign surfaces as typed data,
never as silently missing requests.

``jobs`` is passed straight to :func:`run_fleet` (not through the CLI's
``resolve_jobs``) so the pool is exercised even on single-core CI
runners.
"""

import json
import os
import signal

import pytest

from repro.core.deploy import SCHEMES
from repro.parallel import campaign as engine_module
from repro.fleet.campaign import run_fleet
from repro.fleet.traffic import TrafficConfig
from repro.parallel.snapcache import reset_image_cache


def fingerprint(report):
    return json.dumps(report.to_json(), sort_keys=True)


class TestJobsInvariance:
    @pytest.mark.parametrize("jobs", [2, 4])
    def test_pool_report_is_bit_identical_to_serial(self, jobs):
        serial = run_fleet(400, schemes=("pssp",), slice_requests=100)
        pooled = run_fleet(
            400, schemes=("pssp",), slice_requests=100, jobs=jobs
        )
        assert fingerprint(pooled) == fingerprint(serial)

    def test_multi_scheme_campaign_is_jobs_invariant(self):
        kwargs = dict(schemes=("ssp", "pssp"), slice_requests=100)
        serial = run_fleet(200, **kwargs)
        pooled = run_fleet(200, jobs=2, **kwargs)
        assert fingerprint(pooled) == fingerprint(serial)
        assert pooled.lost_slices == 0
        assert pooled.audit_divergences == []

    def test_pool_absorbs_worker_telemetry(self):
        from repro import telemetry

        before = telemetry.snapshot()
        report = run_fleet(
            200, schemes=("pssp",), slice_requests=100, jobs=2
        )
        delta = telemetry.delta(before)
        # The workers' counter deltas were folded back into this
        # process's registry, so the plane sees the whole campaign.
        assert delta.get("fleet_requests_total") == report.total_requests


# Module-level killer workers: the pool pickles submitted functions by
# reference, so they must live at import scope.  The seed to die on
# rides in through the (pickled) config dict, not a closure.

_REAL_FLEET_WORKER = engine_module._shard_worker


def _fleet_killer_always(config, seeds, attempt):
    if seeds[0] == config["_poison_seed"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_FLEET_WORKER(config, seeds, attempt)


def _fleet_killer_once(config, seeds, attempt):
    if attempt == 1 and seeds[0] == config["_poison_seed"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_FLEET_WORKER(config, seeds, attempt)


def _poison(monkeypatch, seed):
    """Inject a poison seed into the shard config run_fleet submits."""
    from repro import parallel

    real_run_shards = parallel.run_shards

    def poisoned_run_shards(worker, config, shards, **kwargs):
        return real_run_shards(
            worker, dict(config, _poison_seed=seed), shards, **kwargs
        )

    monkeypatch.setattr("repro.parallel.run_shards", poisoned_run_shards)


class TestWorkerLoss:
    def test_lost_shard_surfaces_as_lost_slices(self, monkeypatch):
        monkeypatch.setattr(
            engine_module, "_shard_worker", _fleet_killer_always
        )
        _poison(monkeypatch, 20180625)
        report = run_fleet(
            300, schemes=("pssp",), slice_requests=100, jobs=2
        )
        scheme = report.reports[0]
        # The poisoned shard's slices are listed as lost, never
        # silently missing from the request totals.
        assert 20180625 in scheme.lost
        assert len(scheme.slices) + len(scheme.lost) == 3
        assert report.lost_slices == len(scheme.lost)
        assert "LOST" in report.render()

    def test_one_crash_is_retried_and_the_payload_is_unchanged(
        self, monkeypatch
    ):
        serial = run_fleet(300, schemes=("pssp",), slice_requests=100)
        monkeypatch.setattr(
            engine_module, "_shard_worker", _fleet_killer_once
        )
        _poison(monkeypatch, 20180625)
        report = run_fleet(
            300, schemes=("pssp",), slice_requests=100, jobs=2
        )
        assert report.lost_slices == 0
        # The retry is visible in the report's health section...
        scheme = report.reports[0]
        assert scheme.slices_retried > 0
        assert any(
            attempts == 2 for attempts in scheme.shard_attempts.values()
        )
        assert scheme.campaign_divergences == []
        # ...but the measured payload is bit-identical to serial.
        assert _scrub_retry_health(report) == _scrub_retry_health(serial)


def _scrub_retry_health(report):
    """Fingerprint minus the retry-health fields (attempt bookkeeping
    legitimately differs between a clean run and a retried one)."""
    data = report.to_json()
    for scheme in data["reports"]:
        scheme.pop("slices_retried", None)
        scheme.pop("shard_attempts", None)
        scheme.get("supervision", {}).pop("slices_retried", None)
    return json.dumps(data, sort_keys=True)


class TestWarmVersusCold:
    @pytest.mark.parametrize("scheme", sorted(SCHEMES))
    def test_warm_image_and_cold_boot_reports_are_bit_identical(
        self, scheme, monkeypatch
    ):
        config = TrafficConfig(brute_trial_cap=40)
        kwargs = dict(
            schemes=(scheme,), slice_requests=40, config=config
        )
        reset_image_cache()
        warm = run_fleet(80, **kwargs)  # second slice hits the cache
        monkeypatch.setenv("REPRO_SNAPSHOT_CACHE", "0")
        reset_image_cache()
        try:
            cold = run_fleet(80, **kwargs)
        finally:
            monkeypatch.undo()
            reset_image_cache()
        assert fingerprint(cold) == fingerprint(warm)
        assert warm.audit_divergences == []
