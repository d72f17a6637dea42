"""Resumable fleet campaigns: checkpoints, interrupts, requeued shards.

The contract: a campaign interrupted at *any* slice boundary — by an
exception, a SIGTERM, or a lost worker — resumes from its checkpoint
under *any* ``--jobs`` width and finishes with a report byte-identical
to an uninterrupted run.
"""

import json
import os
import signal
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError, ShutdownRequested
from repro.fleet import campaign as campaign_module
from repro.fleet.campaign import run_fleet, run_fleet_slice
from repro.parallel import campaign as engine_module

KWARGS = dict(schemes=("pssp",), slice_requests=100, chaos=True)


def fingerprint(report):
    return json.dumps(report.to_json(), sort_keys=True)


def _interrupt_after(monkeypatch, n):
    """Raise ShutdownRequested after ``n`` completed slices (serial)."""
    real = run_fleet_slice
    state = {"done": 0}

    def interrupting(*args, **kwargs):
        if state["done"] >= n:
            raise ShutdownRequested("test interrupt")
        state["done"] += 1
        return real(*args, **kwargs)

    monkeypatch.setattr(campaign_module, "run_fleet_slice", interrupting)


class TestCheckpoint:
    def test_checkpoint_written_after_every_slice(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_fleet(300, checkpoint_path=str(path), **KWARGS)
        data = json.loads(path.read_text())
        assert data["kind"] == "fleet"
        assert sorted(data["units"]) == [
            "pssp/20180625", "pssp/20180626", "pssp/20180627"
        ]

    def test_interrupted_campaign_resumes_byte_identically(
        self, monkeypatch, tmp_path
    ):
        path = tmp_path / "ckpt.json"
        straight = run_fleet(500, **KWARGS)
        _interrupt_after(monkeypatch, 2)
        with pytest.raises(ShutdownRequested):
            run_fleet(500, checkpoint_path=str(path), **KWARGS)
        monkeypatch.undo()
        done = json.loads(path.read_text())["units"]
        assert len(done) == 2  # partial progress persisted
        resumed = run_fleet(
            500, checkpoint_path=str(path), resume=True, **KWARGS
        )
        assert fingerprint(resumed) == fingerprint(straight)

    @pytest.mark.parametrize("resume_jobs", [1, 2, 3])
    def test_resume_is_jobs_agnostic(self, monkeypatch, tmp_path, resume_jobs):
        path = tmp_path / "ckpt.json"
        straight = run_fleet(400, **KWARGS)
        _interrupt_after(monkeypatch, 1)
        with pytest.raises(ShutdownRequested):
            run_fleet(400, checkpoint_path=str(path), **KWARGS)
        monkeypatch.undo()
        resumed = run_fleet(
            400, checkpoint_path=str(path), resume=True,
            jobs=resume_jobs, **KWARGS
        )
        assert fingerprint(resumed) == fingerprint(straight)

    def test_mismatched_checkpoint_is_a_typed_error(self, tmp_path):
        path = tmp_path / "ckpt.json"
        run_fleet(200, checkpoint_path=str(path), **KWARGS)
        with pytest.raises(CampaignError):
            # Different budget -> different campaign; refuse to mix.
            run_fleet(300, checkpoint_path=str(path), resume=True, **KWARGS)

    def test_resume_with_missing_checkpoint_starts_fresh(self, tmp_path):
        path = tmp_path / "absent.json"
        report = run_fleet(
            200, checkpoint_path=str(path), resume=True, **KWARGS
        )
        assert fingerprint(report) == fingerprint(run_fleet(200, **KWARGS))


# Runs ``repro`` with its argv, but parks the campaign right after the
# first checkpoint that holds a unit: it touches the ready file named by
# argv[1] and sleeps until a signal unwinds it.  A whole 10^4-request
# campaign finishes in well under a second, so without the pause a
# signal sent "after some progress" may find the run already done.
_PAUSE_AFTER_FIRST_SAVE = """
import sys, time
from pathlib import Path
from repro.cli import main
from repro.parallel import Checkpoint
ready = Path(sys.argv.pop(1))
real_save = Checkpoint.save
def save(self):
    real_save(self)
    if self.units and not ready.exists():
        ready.touch()
        time.sleep(60)
Checkpoint.save = save
sys.exit(main(sys.argv[1:]))
"""


class TestSignalShutdown:
    @pytest.mark.slow
    def test_sigterm_exits_typed_and_resume_is_byte_identical(self, tmp_path):
        ckpt = tmp_path / "ckpt.json"
        out_resumed = tmp_path / "resumed.json"
        out_straight = tmp_path / "straight.json"
        env = dict(os.environ)
        repo_src = os.path.join(os.path.dirname(campaign_module.__file__),
                                os.pardir, os.pardir)
        env["PYTHONPATH"] = os.path.abspath(repo_src) + (
            os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
        )
        ready = tmp_path / "ready"
        fleet_args = [
            "fleet",
            "--budget", "10000", "--slice", "100", "--schemes", "pssp",
            "--chaos", "--jobs", "2", "--checkpoint", str(ckpt),
        ]
        argv = [sys.executable, "-m", "repro"] + fleet_args
        proc = subprocess.Popen(
            [sys.executable, "-c", _PAUSE_AFTER_FIRST_SAVE, str(ready)]
            + fleet_args,
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        # Let it make some progress, then pull the plug.
        deadline = time.monotonic() + 60
        while time.monotonic() < deadline:
            if ready.exists() or proc.poll() is not None:
                break
            time.sleep(0.05)
        assert json.loads(ckpt.read_text())["units"]
        proc.send_signal(signal.SIGTERM)
        _, stderr = proc.communicate(timeout=60)
        assert proc.returncode == 3  # EXIT_INFRASTRUCTURE
        assert b"resume with --checkpoint" in stderr

        resumed = subprocess.run(
            argv + ["--resume", "--out", str(out_resumed)],
            env=env, capture_output=True, timeout=300,
        )
        assert resumed.returncode == 0, resumed.stderr.decode()
        straight = subprocess.run(
            [a for a in argv if a not in ("--checkpoint", str(ckpt))]
            + ["--out", str(out_straight)],
            env=env, capture_output=True, timeout=300,
        )
        assert straight.returncode == 0, straight.stderr.decode()
        assert out_resumed.read_bytes() == out_straight.read_bytes()


# -- requeued shards ----------------------------------------------------------

_REAL_FLEET_WORKER = engine_module._shard_worker


def _fleet_killer_once(config, seeds, attempt):
    if attempt == 1 and seeds[0] == config["_poison_seed"]:
        os.kill(os.getpid(), signal.SIGKILL)
    return _REAL_FLEET_WORKER(config, seeds, attempt)


class TestRequeuedShards:
    @given(poison_index=st.integers(0, 3))
    @settings(deadline=None, max_examples=4)
    def test_requeued_shard_payload_matches_first_attempt(
        self, poison_index
    ):
        """Property: whichever shard dies and is requeued, the slices it
        finally delivers are bit-identical to an undisturbed run."""
        from repro import parallel

        straight = run_fleet(400, **KWARGS)
        poison_seed = 20180625 + poison_index

        real_run_shards = parallel.run_shards

        def poisoned_run_shards(worker, config, shards, **kwargs):
            return real_run_shards(
                _fleet_killer_once,
                dict(config, _poison_seed=poison_seed), shards, **kwargs
            )

        original = parallel.run_shards
        parallel.run_shards = poisoned_run_shards
        try:
            retried = run_fleet(400, jobs=2, **KWARGS)
        finally:
            parallel.run_shards = original

        assert retried.lost_slices == 0
        scheme = retried.reports[0]
        assert scheme.campaign_divergences == []
        # Slice payloads are what the maths consumes: bit-identical.
        straight_slices = [s.to_json() for s in straight.reports[0].slices]
        retried_slices = [s.to_json() for s in scheme.slices]
        assert retried_slices == straight_slices
