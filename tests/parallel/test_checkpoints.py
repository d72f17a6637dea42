"""The one checkpoint format, through every campaign kind that resumes.

Chaos and fleet campaigns both persist progress with
:class:`repro.parallel.Checkpoint`.  For each of them:

* a kill at any byte of any checkpoint write leaves the previous file
  intact and no temp file, and resuming from it gives the uninterrupted
  report, byte for byte (the kill is cut into
  :func:`repro.persist.atomic_write`, by ``tests/test_persist.py``'s
  :class:`CutWrite`);
* a checkpoint written by a different campaign is refused with a typed
  :class:`~repro.errors.CampaignError`, and left untouched;
* a resumed run equals an uninterrupted one under ``jobs`` 1 and 2, in
  any combination.
"""

import json
import os
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import CampaignError
from repro.faults.campaign import CHAOS_CYCLE_LIMIT, run_campaign
from repro.fleet.campaign import run_fleet
from repro.trace import TraceConfig
from tests.test_persist import CutWrite, Killed

#: Each kind: its driver and a small campaign (at least four units).
CAMPAIGNS = {
    "chaos": (run_campaign, dict(budget=4, base_seed=2018)),
    "fleet": (run_fleet, dict(
        request_budget=300, schemes=("ssp", "pssp"), slice_requests=100,
        chaos=True,
    )),
}
KINDS = sorted(CAMPAIGNS)

_STRAIGHT = {}


def run(kind, **overrides):
    driver, kwargs = CAMPAIGNS[kind]
    return driver(**{**kwargs, **overrides})


def report_bytes(report):
    return json.dumps(report.to_json(), indent=2).encode()


def straight(kind):
    """The uninterrupted report (computed once per kind)."""
    if kind not in _STRAIGHT:
        _STRAIGHT[kind] = report_bytes(run(kind))
    return _STRAIGHT[kind]


def interrupted(kind, path, cut, **overrides):
    """Run ``kind`` checkpointing to ``path`` until ``cut`` kills it."""
    with cut.installed(), pytest.raises(Killed):
        run(kind, checkpoint_path=path, **overrides)


@pytest.mark.parametrize("kind", KINDS)
@given(writes=st.integers(1, 3), offset=st.integers(0, 1 << 20))
@settings(max_examples=6, deadline=None)
def test_kill_at_any_byte_of_a_checkpoint_write(kind, writes, offset):
    with tempfile.TemporaryDirectory() as directory:
        path = os.path.join(directory, "ckpt.json")
        cut = CutWrite(writes, offset)
        interrupted(kind, path, cut)
        with open(path, "rb") as handle:
            assert handle.read() == cut.last  # the previous file, intact
        assert os.listdir(directory) == ["ckpt.json"]  # and no temp file
        resumed = run(kind, checkpoint_path=path, resume=True)
        assert report_bytes(resumed) == straight(kind)


MISMATCHES = [
    ("chaos", dict(base_seed=2019)),
    ("chaos", dict(schemes=("pssp",))),
    ("chaos", dict(cycle_limit=CHAOS_CYCLE_LIMIT // 2)),
    ("chaos", dict(retries=0)),
    ("chaos", dict(audit=False)),
    ("fleet", dict(request_budget=400)),
    ("fleet", dict(schemes=("pssp",))),
    ("fleet", dict(chaos=False)),
    ("fleet", dict(trace=TraceConfig())),
]


@pytest.mark.parametrize(
    "kind, change", MISMATCHES,
    ids=[f"{kind}-{next(iter(change))}" for kind, change in MISMATCHES],
)
def test_resume_refuses_another_campaigns_checkpoint(tmp_path, kind, change):
    path = str(tmp_path / "ckpt.json")
    run(kind, checkpoint_path=path)
    before = (tmp_path / "ckpt.json").read_bytes()
    with pytest.raises(CampaignError, match="does not match this campaign"):
        run(kind, checkpoint_path=path, resume=True, **change)
    assert (tmp_path / "ckpt.json").read_bytes() == before


@pytest.mark.parametrize("kind", KINDS)
def test_unreadable_checkpoint_is_a_typed_error(tmp_path, kind):
    path = tmp_path / "ckpt.json"
    path.write_text('{"version": 2, "kind": ')
    with pytest.raises(CampaignError, match="unreadable checkpoint"):
        run(kind, checkpoint_path=str(path), resume=True)


@pytest.mark.parametrize("kind", KINDS)
@pytest.mark.parametrize("first_jobs, resume_jobs", [(1, 2), (2, 1), (2, 2)])
def test_resumed_equals_uninterrupted_under_jobs(
    tmp_path, kind, first_jobs, resume_jobs
):
    path = str(tmp_path / "ckpt.json")
    interrupted(kind, path, CutWrite(writes=2, offset=0), jobs=first_jobs)
    assert len(json.loads((tmp_path / "ckpt.json").read_text())["units"]) >= 2
    resumed = run(kind, checkpoint_path=path, resume=True, jobs=resume_jobs)
    assert report_bytes(resumed) == straight(kind)
