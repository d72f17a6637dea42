"""Crash tolerance and accounting of the shard executor.

The worker functions live at module level so the process pool can pick
them up by reference; the deterministic ``attempt`` argument (1 on the
first try, 2 after the re-queue) lets them fail on exactly one attempt.
"""

import gc
import multiprocessing
import os
import signal
import time

import pytest

from repro.parallel import (
    STATUS_FAILED,
    STATUS_OK,
    STATUS_SKIPPED,
    plan_shards,
    run_shards,
)


def _double_worker(config, seeds, attempt):
    return [seed * 2 for seed in seeds]


def _flaky_worker(config, seeds, attempt):
    """Raise on the first attempt for the configured seed's shard."""
    if attempt == 1 and config["poison"] in seeds:
        raise RuntimeError(f"transient failure on {seeds}")
    return list(seeds)


def _always_raises(config, seeds, attempt):
    raise RuntimeError("permanent infrastructure failure")


def _suicidal_worker(config, seeds, attempt):
    """SIGKILL the worker process once — a real crash, not an exception."""
    if attempt == 1 and config["poison"] in seeds:
        os.kill(os.getpid(), signal.SIGKILL)
    return list(seeds)


def _sleepy_worker(config, seeds, attempt):
    time.sleep(config["sleep"])
    return list(seeds)


def _freeze_count_worker(config, seeds, attempt):
    """The worker's frozen-object count, after one crash on ``poison``."""
    if attempt == 1 and config.get("poison") in seeds:
        os.kill(os.getpid(), signal.SIGKILL)
    return gc.get_freeze_count()


class TestRunShards:
    def test_results_in_shard_order(self):
        shards = plan_shards(0, 8)
        outcomes, timed_out = run_shards(_double_worker, {}, shards, jobs=2)
        assert not timed_out
        assert [o.shard.index for o in outcomes] == [s.index for s in shards]
        assert all(o.status == STATUS_OK for o in outcomes)
        merged = [value for o in outcomes for value in o.value]
        assert merged == [seed * 2 for seed in range(8)]

    def test_on_result_sees_every_shard(self):
        seen = []
        shards = plan_shards(0, 6)
        run_shards(
            _double_worker, {}, shards, jobs=2,
            on_result=lambda outcome: seen.append(outcome.shard.index),
        )
        assert sorted(seen) == [s.index for s in shards]

    def test_worker_exception_retried_once_then_ok(self):
        shards = plan_shards(0, 4)
        outcomes, _ = run_shards(
            _flaky_worker, {"poison": 2}, shards, jobs=2,
        )
        assert all(o.status == STATUS_OK for o in outcomes)
        poisoned = [o for o in outcomes if 2 in o.shard.seeds]
        assert poisoned and poisoned[0].attempts == 2

    def test_persistent_exception_becomes_failed_outcome(self):
        shards = plan_shards(0, 3)
        outcomes, _ = run_shards(_always_raises, {}, shards, jobs=2)
        assert [o.status for o in outcomes] == [STATUS_FAILED] * 3
        assert all(o.attempts == 2 for o in outcomes)
        assert all("RuntimeError" in o.error for o in outcomes)

    def test_killed_worker_recovers_without_losing_shards(self):
        # A SIGKILL mid-shard breaks the whole pool; the executor must
        # rebuild it and still account for every planned shard.
        shards = plan_shards(0, 6)
        outcomes, _ = run_shards(
            _suicidal_worker, {"poison": 3}, shards, jobs=2,
        )
        assert len(outcomes) == len(shards)
        by_seed = {o.shard.seeds[0]: o for o in outcomes}
        assert by_seed[3].status == STATUS_OK  # retried after the crash
        assert by_seed[3].attempts == 2
        # Nothing was silently dropped: all seeds are in OK results.
        covered = sorted(
            seed for o in outcomes if o.ok for seed in o.value
        )
        assert covered == list(range(6))

    def test_timeout_kills_stuck_shard(self):
        shards = plan_shards(0, 1)
        outcomes, _ = run_shards(
            _sleepy_worker, {"sleep": 30.0}, shards, jobs=1,
            retries=0, timeout=0.5,
        )
        assert len(outcomes) == 1
        assert outcomes[0].status == STATUS_FAILED
        assert "timeout" in outcomes[0].error

    def test_deadline_skips_unstarted_shards(self):
        shards = plan_shards(0, 5)
        outcomes, timed_out = run_shards(
            _double_worker, {}, shards, jobs=2, deadline=0.0,
        )
        assert timed_out
        assert len(outcomes) == len(shards)
        assert all(o.status == STATUS_SKIPPED for o in outcomes)

    def test_rejects_bad_jobs(self):
        with pytest.raises(ValueError):
            run_shards(_double_worker, {}, plan_shards(0, 2), jobs=0)

    def test_empty_plan(self):
        outcomes, timed_out = run_shards(_double_worker, {}, [], jobs=2)
        assert outcomes == [] and not timed_out


@pytest.mark.skipif(
    multiprocessing.get_start_method() != "fork",
    reason="only fork-started workers inherit the parent's heap",
)
class TestHeapFreeze:
    def test_workers_inherit_a_frozen_heap_and_the_parent_thaws(self):
        # Shard 3 kills its worker once, so the rebuilt pool's workers
        # are forked frozen too.
        outcomes, _ = run_shards(
            _freeze_count_worker, {"poison": 3}, plan_shards(0, 6), jobs=2,
        )
        assert all(o.status == STATUS_OK for o in outcomes)
        assert min(o.value for o in outcomes) > 0
        assert gc.get_freeze_count() == 0

    def test_a_callers_own_freeze_is_left_alone(self):
        gc.freeze()
        try:
            frozen = gc.get_freeze_count()
            run_shards(_double_worker, {}, plan_shards(0, 4), jobs=2)
            # Not thawed, and nothing new frozen (frozen objects can still
            # be freed by reference counting).
            assert 0 < gc.get_freeze_count() <= frozen
        finally:
            gc.unfreeze()
