"""Crash-tolerant process-pool execution of campaign shards.

:func:`run_shards` drives a :class:`~concurrent.futures.ProcessPoolExecutor`
with three properties the campaigns rely on:

* **Bounded in-flight work** — at most ``2 × jobs`` shards are submitted
  at a time, so a huge campaign never materialises its whole work list
  in the pool's call queue (and deadline checks stay responsive).
* **No silent loss** — a shard whose worker crashes (the pool breaks),
  raises, or exceeds ``timeout`` seconds is re-queued exactly once; a
  second failure produces a ``failed`` outcome carrying the error, so
  every planned shard is accounted for in the result list.  A crashed
  pool is rebuilt and the remaining work continues.
* **Attributable blame** — a dead worker breaks the whole pool, which
  says nothing about *which* in-flight shard crashed it.  Rather than
  spend every bystander's retry on someone else's crash, an
  unattributable break refunds all the affected attempts and drops the
  executor into isolation (one shard in flight at a time) for the rest
  of the call; a crash in isolation is unambiguous and is charged to
  the one shard that caused it.
* **Canonical ordering** — results are returned sorted by shard index
  regardless of completion order; combined with the jobs-independent
  partition from :mod:`repro.parallel.sharding`, merging them in list
  order reproduces the serial campaign bit for bit.

Workers must be module-level functions (picklable by reference) with
the signature ``worker(config, seeds, attempt)`` returning a JSON-able
payload.  ``attempt`` is 1 on the first try and 2 on the re-queue, so
fault-injection tests can crash deterministically on one attempt only.
"""

from __future__ import annotations

import contextlib
import gc
import time
from concurrent.futures import FIRST_COMPLETED, Future, ProcessPoolExecutor, wait
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .sharding import Shard

#: Statuses a shard outcome can carry.
STATUS_OK = "ok"
STATUS_FAILED = "failed"  #: infra failure after the retry was spent
STATUS_SKIPPED = "skipped"  #: never started (campaign deadline hit)


@dataclass
class ShardOutcome:
    """Terminal state of one shard."""

    shard: Shard
    status: str = STATUS_OK
    value: Any = None
    attempts: int = 0
    error: str = ""

    @property
    def ok(self) -> bool:
        return self.status == STATUS_OK


@dataclass
class _InFlight:
    shard: Shard
    started: float
    future: Future = field(repr=False, default=None)  # type: ignore[assignment]


@contextlib.contextmanager
def _frozen_for_fork() -> Iterator[None]:
    """Freeze this process's heap across a fork of pool workers.

    A fork-started worker inherits the heap, frozen objects included, and
    keeps them in its permanent generation: its garbage collections
    neither traverse them nor copy their pages by touching GC headers.
    The parent thaws as soon as the fork is done.  A caller that froze
    its own heap is left alone (nothing is frozen or thawed here); the
    freeze only ever changes collection cost, never a result.
    """
    if gc.get_freeze_count():
        yield
        return
    gc.freeze()
    try:
        yield
    finally:
        gc.unfreeze()


def run_shards(
    worker: Callable[..., Any],
    config: Dict[str, Any],
    shards: Sequence[Shard],
    *,
    jobs: int,
    retries: int = 1,
    timeout: Optional[float] = None,
    deadline: Optional[float] = None,
    on_result: Optional[Callable[[ShardOutcome], None]] = None,
) -> Tuple[List[ShardOutcome], bool]:
    """Run ``worker(config, shard.seeds, attempt)`` over every shard.

    Returns ``(outcomes, timed_out)`` with one outcome per input shard,
    sorted by shard index.  ``retries`` is the number of re-queues a
    shard gets after a crash/timeout/exception before it is reported as
    ``failed``.  ``deadline`` (seconds of wall clock for the whole call)
    stops *submitting* new shards once exceeded — in-flight shards are
    allowed to finish, unstarted ones come back ``skipped`` so the
    caller can surface them as resumable.  ``on_result`` fires in
    completion order as each shard reaches a terminal state.
    """
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    if retries < 0:
        raise ValueError(f"retries must be >= 0, got {retries}")
    pending: List[Shard] = sorted(shards, key=lambda shard: shard.index)
    attempts: Dict[int, int] = {shard.index: 0 for shard in pending}
    outcomes: Dict[int, ShardOutcome] = {}
    in_flight: Dict[Future, _InFlight] = {}
    started = time.monotonic()
    timed_out = False
    isolated = False  #: one shard in flight at a time (post-crash mode)
    executor = ProcessPoolExecutor(max_workers=jobs)
    fresh = True  #: no submit to this pool yet, so no worker forked

    def submit(shard: Shard) -> Future:
        nonlocal fresh
        args = (worker, config, shard.seeds, attempts[shard.index])
        if not fresh:
            return executor.submit(*args)
        fresh = False
        # A fork-started pool forks all its workers on its first submit.
        with _frozen_for_fork():
            return executor.submit(*args)

    def finish(outcome: ShardOutcome) -> None:
        outcomes[outcome.shard.index] = outcome
        if on_result is not None:
            on_result(outcome)

    def settle_failure(shard: Shard, error: str) -> None:
        """Re-queue ``shard`` if it has retry budget left, else fail it."""
        if attempts[shard.index] <= retries:
            pending.insert(0, shard)
        else:
            finish(ShardOutcome(
                shard, status=STATUS_FAILED,
                attempts=attempts[shard.index], error=error,
            ))

    def refund(shard: Shard) -> None:
        """Re-queue ``shard`` without spending its attempt (bystander)."""
        attempts[shard.index] -= 1
        pending.insert(0, shard)

    def rebuild_pool() -> None:
        nonlocal executor, fresh
        executor.shutdown(wait=False, cancel_futures=True)
        executor = ProcessPoolExecutor(max_workers=jobs)
        fresh = True

    def kill_pool() -> None:
        """Terminate worker processes outright (stuck shard)."""
        processes = list(getattr(executor, "_processes", {}).values())
        for process in processes:
            process.terminate()
        rebuild_pool()

    try:
        while pending or in_flight:
            if (
                deadline is not None
                and time.monotonic() - started > deadline
                and pending
            ):
                timed_out = True
                for shard in pending:
                    finish(ShardOutcome(
                        shard, status=STATUS_SKIPPED,
                        attempts=attempts[shard.index],
                        error="campaign deadline exceeded before start",
                    ))
                pending = []
                if not in_flight:
                    break
            while pending and len(in_flight) < (1 if isolated else 2 * jobs):
                shard = pending.pop(0)
                attempts[shard.index] += 1
                entry = _InFlight(shard, time.monotonic())
                try:
                    entry.future = submit(shard)
                except BrokenProcessPool:
                    rebuild_pool()
                    settle_failure(shard, "process pool broke on submit")
                    continue
                in_flight[entry.future] = entry
            if not in_flight:
                continue

            wait_budget = 0.25 if (deadline is not None or timeout is not None) else None
            done, _ = wait(
                set(in_flight), timeout=wait_budget,
                return_when=FIRST_COMPLETED,
            )
            broken: List[_InFlight] = []
            for future in done:
                entry = in_flight.pop(future)
                try:
                    value = future.result()
                except BrokenProcessPool:
                    # The worker process died (killed, segfault, hard
                    # exit).  Blame is settled after the batch: the
                    # break marks every sibling future broken too, so
                    # this entry alone doesn't identify the culprit.
                    broken.append(entry)
                except BaseException as error:  # worker raised
                    settle_failure(entry.shard, repr(error))
                else:
                    finish(ShardOutcome(
                        entry.shard, status=STATUS_OK, value=value,
                        attempts=attempts[entry.shard.index],
                    ))
            if broken:
                # Everything still in flight rode the same dead pool:
                # those futures will never complete either.
                affected = broken + list(in_flight.values())
                in_flight.clear()
                rebuild_pool()
                if len(affected) == 1:
                    # Exactly one shard was riding the pool — the crash
                    # is attributable, spend its attempt.
                    settle_failure(
                        affected[0].shard,
                        "worker process crashed (pool broke)",
                    )
                else:
                    # Ambiguous blame: refund every bystander's attempt
                    # and re-run one shard at a time, where the next
                    # crash points at exactly one culprit.
                    isolated = True
                    for entry in reversed(affected):
                        refund(entry.shard)
            if not done and timeout is not None:
                now = time.monotonic()
                stuck = {
                    entry.future: entry for entry in in_flight.values()
                    if now - entry.started > timeout
                }
                if stuck:
                    # Running futures cannot be cancelled; kill the
                    # workers.  Only the overdue shards are charged —
                    # their siblings died as bystanders and are
                    # re-queued with their attempt refunded.
                    lost = list(in_flight.values())
                    in_flight.clear()
                    kill_pool()
                    for entry in lost:
                        if entry.future in stuck:
                            settle_failure(
                                entry.shard,
                                f"shard exceeded {timeout:.1f}s worker timeout",
                            )
                        else:
                            refund(entry.shard)
    finally:
        executor.shutdown(wait=False, cancel_futures=True)

    ordered = [outcomes[index] for index in sorted(outcomes)]
    return ordered, timed_out
