"""The one campaign engine: every seeded campaign runs its units here.

Fuzz, chaos, attack, fleet and the effectiveness grid are all loops
over a seed range whose iterations are independent.  Each kind supplies
a **unit function** with the contract ``unit(config, seed) -> record``:

* it is module-level, so a process pool pickles it by reference;
* ``config`` is plain data shared by every unit of the campaign;
* ``record`` is the unit's JSON-able result, and it depends only on
  ``(config, seed)`` — which is what lets the engine shard, retry,
  checkpoint and resume without changing a byte of the report.

:func:`run_units` runs the seeds ``[base_seed, base_seed + count)``.
``jobs=1`` calls the unit in-process, one seed after another.
``jobs>1`` partitions the range with :func:`~repro.parallel.plan_shards`
(a layout that depends only on the range, never on ``jobs``) and runs
the shards through :func:`~repro.parallel.run_shards` with one shared
shard worker, which returns the shard's records plus a single
telemetry delta; the deltas are merged in shard order and absorbed
here.  Both paths land records through the same code and return them
in seed order, so a report built from them is identical under any
``jobs``.  Shards lost after their retries are typed once, as
:class:`LostShard`; each campaign maps them onto its own report field.

Checkpoints have one format, owned by :class:`Checkpoint`::

    {"version": 2, "kind": "<campaign kind>", "identity": {...},
     "units": {"<unit key>": <record>, ...}}

The file is rewritten with :func:`repro.persist.atomic_write` after
every unit (``jobs=1``) or shard (``jobs>1``), so a kill at any instant
leaves the previous or the next complete file.
On resume the version, kind and identity must equal the running
campaign's, or :class:`~repro.errors.CampaignError` is raised.  A
checkpointed unit is done and never re-run; a lost shard's units are
never checkpointed, so a resume retries them.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import CampaignError
from ..persist import atomic_write
from .executor import STATUS_FAILED
from .sharding import plan_shards

#: Format marker for checkpoint files; bumped on incompatible change.
CHECKPOINT_VERSION = 2

#: ``unit(config, seed) -> JSON-able record``.
Unit = Callable[[Dict[str, Any], int], Any]


@dataclass(frozen=True)
class LostShard:
    """A shard whose worker was lost after every retry."""

    index: int
    seeds: Tuple[int, ...]
    attempts: int
    error: str


@dataclass
class UnitResults:
    """What :func:`run_units` hands back to a campaign."""

    #: ``seed -> record`` in seed order, checkpointed units included.
    records: Dict[int, Any] = field(default_factory=dict)
    lost: List[LostShard] = field(default_factory=list)
    #: Shards that needed more than one attempt, ``"first..last" ->
    #: attempts``; empty on serial and healthy parallel runs.
    shard_attempts: Dict[str, int] = field(default_factory=dict)
    #: Units run again because their shard was re-queued.
    retried: int = 0
    #: The deadline stopped the run; unstarted units are resumable.
    timed_out: bool = False


class Checkpoint:
    """A campaign's on-disk progress: identity header plus unit records.

    One file may back several :func:`run_units` calls (the fleet runs
    one per scheme); each call keys its units with its own prefix.
    ``identity`` must hold everything a record depends on, so records
    from another campaign can never be stitched into this one.
    """

    def __init__(
        self,
        path: str,
        kind: str,
        identity: Dict[str, Any],
        *,
        resume: bool = False,
    ) -> None:
        self.path = path
        # Through JSON, so tuples compare equal to a loaded file's lists.
        self.header = json.loads(json.dumps(
            {"version": CHECKPOINT_VERSION, "kind": kind, "identity": identity}
        ))
        self.units: Dict[str, Any] = self._load() if resume else {}

    def _load(self) -> Dict[str, Any]:
        """The saved units; ``{}`` when no checkpoint exists yet."""
        if not os.path.exists(self.path):
            return {}
        try:
            with open(self.path, "r", encoding="utf-8") as handle:
                data = json.load(handle)
            units = dict(data["units"])
            found = _header_fields(data)
        except (OSError, ValueError, TypeError, KeyError) as error:
            raise CampaignError(f"unreadable checkpoint {self.path}: {error!r}")
        wanted = _header_fields(self.header)
        for key in sorted(set(found) | set(wanted)):
            if found.get(key) != wanted.get(key):
                raise CampaignError(
                    f"checkpoint {self.path} does not match this campaign: "
                    f"{key} is {found.get(key)!r}, expected {wanted.get(key)!r}"
                )
        return units

    def save(self) -> None:
        """Atomic write: a kill can only ever leave the previous file."""
        atomic_write(self.path, json.dumps({**self.header, "units": self.units}))


def _header_fields(header: Dict[str, Any]) -> Dict[str, Any]:
    """``version``, ``kind`` and each ``identity.<key>`` of a header."""
    fields = {"version": header.get("version"), "kind": header.get("kind")}
    fields.update(
        (f"identity.{key}", value)
        for key, value in dict(header.get("identity") or {}).items()
    )
    return fields


def _shard_worker(config: Dict[str, Any], seeds, attempt: int):
    """Process-pool entry point shared by every campaign kind.

    Runs the shard's units and returns their records plus the one
    telemetry delta they accumulated, as plain data.
    """
    unit, unit_config = config["unit"], config["config"]
    before = telemetry.snapshot()
    records = [unit(unit_config, seed) for seed in seeds]
    return {"records": records, "telemetry": telemetry.delta(before)}


def run_units(
    unit: Unit,
    config: Dict[str, Any],
    base_seed: int,
    count: int,
    *,
    jobs: int = 1,
    shard_retries: int = 1,
    deadline: Optional[float] = None,
    checkpoint: Optional[Checkpoint] = None,
    prefix: str = "",
    on_record: Optional[Callable[[int, Any], None]] = None,
    progress: Optional[Callable[[str], None]] = None,
) -> UnitResults:
    """Run ``unit(config, seed)`` for every seed of the range.

    ``shard_retries`` re-queues a lost shard (``jobs > 1``) before it is
    reported in ``lost``.  ``deadline`` (wall-clock seconds) stops
    starting units once exceeded and sets ``timed_out``.
    ``checkpoint`` skips units it already holds (keys ``prefix +
    str(seed)``) and saves every new record.  ``on_record(seed,
    record)`` fires as each new record lands, in completion order.
    """
    result = UnitResults()
    seeds = range(base_seed, base_seed + max(0, count))
    done: Dict[int, Any] = {}
    if checkpoint is not None:
        for seed in seeds:
            key = f"{prefix}{seed}"
            if key in checkpoint.units:
                done[seed] = checkpoint.units[key]
        if done and progress:
            progress(f"resumed: {len(done)} unit(s) already done")

    def land(seed: int, record: Any) -> None:
        done[seed] = record
        if checkpoint is not None:
            checkpoint.units[f"{prefix}{seed}"] = record
        if on_record is not None:
            on_record(seed, record)

    if jobs <= 1:
        started = time.monotonic()
        for seed in seeds:
            if seed in done:
                continue
            if deadline is not None and time.monotonic() - started > deadline:
                result.timed_out = True
                break
            land(seed, unit(config, seed))
            if checkpoint is not None:
                checkpoint.save()
            if progress and (seed - base_seed + 1) % 25 == 0:
                progress(f"{seed - base_seed + 1}/{len(seeds)} unit(s) done")
    else:
        # Looked up on the package at call time, so instrumentation that
        # wraps ``repro.parallel.run_shards`` sees every campaign.
        from . import run_shards

        def on_result(outcome) -> None:
            if outcome.ok:
                for seed, record in zip(
                    outcome.shard.seeds, outcome.value["records"]
                ):
                    land(seed, record)
                if checkpoint is not None:
                    checkpoint.save()
            if progress:
                state = (
                    "done" if outcome.ok
                    else f"{outcome.status}: {outcome.error}"
                )
                progress(
                    f"shard {outcome.shard.index}: "
                    f"{len(outcome.shard)} unit(s) {state}"
                )

        outcomes, result.timed_out = run_shards(
            _shard_worker, {"unit": unit, "config": config},
            plan_shards(base_seed, count, skip=done),
            jobs=jobs, retries=shard_retries, deadline=deadline,
            on_result=on_result,
        )
        merged = telemetry.Snapshot()
        for outcome in outcomes:
            shard_seeds = outcome.shard.seeds
            if outcome.attempts > 1:
                span = f"{shard_seeds[0]}..{shard_seeds[-1]}"
                result.shard_attempts[span] = outcome.attempts
                result.retried += (outcome.attempts - 1) * len(shard_seeds)
            if outcome.ok:
                merged = merged.merge(
                    telemetry.Snapshot(outcome.value["telemetry"])
                )
            elif outcome.status == STATUS_FAILED:
                result.lost.append(LostShard(
                    outcome.shard.index, shard_seeds,
                    outcome.attempts, outcome.error,
                ))
        if merged:
            telemetry.absorb(merged)
    result.records = {seed: done[seed] for seed in sorted(done)}
    return result
