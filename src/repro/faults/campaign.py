"""Seeded chaos campaigns: inject faults, classify and audit the outcome.

One campaign case is (program seed → generated program, fault schedule,
scheme).  The case runs twice:

* **reference** — same scheme, same kernel seed, *no* fault plane.  The
  reference must exit cleanly (anything else is an infrastructure error,
  not a chaos finding — benign programs are the fuzzer's contract).
* **faulted** — a fresh kernel with a :class:`~repro.faults.plane.FaultPlane`
  carrying the schedule, with a :class:`CanaryAuditor` watching every
  canary store.  Both runs take the default (fast) interpreter path: the
  auditor observes through the CPU's canary-store watch, which the
  canary probe feeds in every interpreter tier, so auditing costs
  nothing on the steps it does not watch.

The fault-outcome invariant then demands one of three *auditable*
outcomes and nothing else:

==============  ==============================================================
``identical``   behaviour matches the reference; any delivered faults are
                explained by the absorption ledger
``detected``    the run ended in ``StackSmashDetected`` (a corrupted
                canary was *caught*)
``degraded``    a typed :class:`~repro.errors.DegradedError`, or identical
                behaviour with explicit degradation events on the ledger
==============  ==============================================================

Everything else — behaviour divergence without a typed error, an untyped
crash, or an auditor finding (zero, stuck, or unexplained canary) — is an
invariant violation.  Determinism is inherited from the fuzzer: one seed
reproduces the program, the kernel entropy, *and* the schedule, so
``python -m repro chaos --replay SEED`` is bit-identical.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..core.deploy import build, deploy
from ..errors import CampaignError, DegradedError
from ..fuzz.conformance import FUZZ_CYCLE_LIMIT, _fingerprint
from ..kernel.kernel import Kernel
from ..workloads.generator import (
    FunctionSpec,
    ProgramSpec,
    generate_fuzz_program,
    render_program,
)
from .plane import FaultPlane
from .policy import (
    AUDIT_REPEAT_THRESHOLD,
    FORK_RETRY_LIMIT,
    SELFTEST_DRAWS,
)
from .schedule import FaultEvent, FaultSchedule, generate_fault_schedule

#: Chaos programs share the fuzzer's per-program cycle budget: a faulted
#: run that livelocks dies with a fast, attributable SIGXCPU instead of
#: stalling the campaign (the per-program timeout).
CHAOS_CYCLE_LIMIT = FUZZ_CYCLE_LIMIT

#: Events that legitimise a fallback canary or a repeated fresh value.
_DEGRADED_EVENT_KINDS = frozenset({"rdrand-exhausted", "entropy-degraded"})

_CASES = telemetry.counter("chaos_cases_total", "chaos cases completed")
#: One counter per classified outcome (see :class:`ChaosRun`).
_OUTCOMES = {
    outcome: telemetry.counter(
        f"chaos_outcome_{outcome}_total", "chaos cases by outcome"
    )
    for outcome in ("identical", "detected", "degraded", "divergence")
}
_VIOLATIONS = telemetry.counter(
    "chaos_violations_total", "chaos invariant violations"
)


class CanaryAuditor:
    """Watch canary stores through the CPU's canary-store watch.

    The canary probe hands the watch (``CPU.watch``) every executed
    audited C0 store in :func:`repro.telemetry.canary_sites`, with its
    kind, in every interpreter tier, so the audited run keeps the fast
    path.  A fresh per-call draw must never be zero and must not
    silently repeat; a fallback load must match the TLS shadow pair and
    be explained by a degradation event.  The hooks :meth:`attach` registers on the root process are
    inherited by every forked child and new thread, and only set the
    newcomer's watch.
    """

    def __init__(self, plane: FaultPlane) -> None:
        self.plane = plane
        self.fresh_values: List[int] = []
        self.zero_stores = 0
        self.fallback_stores = 0
        self.fallback_mismatches: List[str] = []

    def attach(self, process) -> None:
        """Watch ``process`` and every process or thread it begets."""
        self._watch(process)
        process.fork_hooks.append(lambda child, parent: self._watch(child))
        process.thread_hooks.append(lambda thread, parent: self._watch(thread))

    def _watch(self, process) -> None:
        process.cpu.watch = lambda kind, instruction: self._observe(
            process, kind
        )

    def _observe(self, process, kind: str) -> None:
        if kind == "fresh":
            value = process.cpu.registers.read("rax")
            self.fresh_values.append(value)
            if value == 0:
                self.zero_stores += 1
        elif kind == "fallback":
            self.fallback_stores += 1
            value = process.cpu.registers.read("rax")
            expected = process.tls.shadow_c0
            if value != expected:
                self.fallback_mismatches.append(
                    f"fallback canary {value:#x} != TLS shadow C0 {expected:#x}"
                )

    def findings(self, *, require_store: bool = False) -> List[str]:
        """Auditor verdicts; non-empty = invariant violation."""
        problems: List[str] = []
        if self.zero_stores:
            problems.append(
                f"{self.zero_stores} zero canary store(s) on the fresh path "
                f"(predictable canary)"
            )
        counts = Counter(v for v in self.fresh_values if v)
        if counts:
            value, repeats = counts.most_common(1)[0]
            if (
                repeats >= AUDIT_REPEAT_THRESHOLD
                and not (_DEGRADED_EVENT_KINDS & self.plane.event_kinds())
            ):
                problems.append(
                    f"fresh canary {value:#x} repeated {repeats}x with no "
                    f"entropy-degraded event (silently stuck source)"
                )
        problems.extend(self.fallback_mismatches)
        if self.fallback_stores and not (
            _DEGRADED_EVENT_KINDS & self.plane.event_kinds()
        ):
            problems.append(
                "fallback canary used without a recorded exhaustion/"
                "degradation event"
            )
        if require_store and not self.fresh_values and not self.fallback_stores:
            problems.append(
                "no canary store observed in a case known to run protected "
                "prologues"
            )
        return problems


@dataclass
class ChaosRun:
    """Outcome of one fault schedule against one program."""

    seed: int
    scheme: str
    description: str
    outcome: str  #: identical | detected | degraded | divergence
    expected: Tuple[str, ...]
    violations: List[str] = field(default_factory=list)
    events: List[str] = field(default_factory=list)
    delivered: Dict[str, int] = field(default_factory=dict)
    absorbed: int = 0
    detail: str = ""
    case: str = ""  #: non-empty for canned (non-generated) cases

    @property
    def ok(self) -> bool:
        return not self.violations

    @property
    def replay_command(self) -> str:
        if self.case:
            return f"python -m repro chaos --self-check"
        return f"python -m repro chaos --replay {self.seed}"

    def to_json(self) -> Dict[str, Any]:
        return {
            "seed": self.seed,
            "scheme": self.scheme,
            "description": self.description,
            "outcome": self.outcome,
            "expected": list(self.expected),
            "violations": list(self.violations),
            "events": list(self.events),
            "delivered": dict(self.delivered),
            "absorbed": self.absorbed,
            "detail": self.detail,
            "case": self.case,
            "replay": self.replay_command,
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ChaosRun":
        return cls(
            seed=int(data["seed"]),
            scheme=data["scheme"],
            description=data.get("description", ""),
            outcome=data["outcome"],
            expected=tuple(data.get("expected", ())),
            violations=list(data.get("violations", [])),
            events=list(data.get("events", [])),
            delivered={k: int(v) for k, v in data.get("delivered", {}).items()},
            absorbed=int(data.get("absorbed", 0)),
            detail=data.get("detail", ""),
            case=data.get("case", ""),
        )

    def render(self) -> str:
        head = self.case or f"seed {self.seed}"
        line = (
            f"{head}: scheme={self.scheme} outcome={self.outcome} "
            f"(expected {'/'.join(self.expected)}) — {self.description}"
        )
        lines = [line]
        for violation in self.violations:
            lines.append(f"  VIOLATION: {violation}")
        return "\n".join(lines)


@dataclass
class ChaosReport:
    """Outcome of one chaos campaign."""

    budget: int
    base_seed: int
    runs: List[ChaosRun] = field(default_factory=list)
    infra_errors: List[Tuple[int, str]] = field(default_factory=list)
    timed_out: bool = False
    #: Shards that needed more than one attempt, ``"first..last" ->
    #: attempts`` (empty on serial and healthy parallel runs).
    shard_attempts: Dict[str, int] = field(default_factory=dict)

    @property
    def violating_runs(self) -> List[ChaosRun]:
        return [run for run in self.runs if not run.ok]

    @property
    def ok(self) -> bool:
        return (
            not self.violating_runs
            and not self.infra_errors
            and not self.timed_out
        )

    def outcome_tally(self) -> Dict[str, int]:
        tally: Dict[str, int] = {}
        for run in self.runs:
            tally[run.outcome] = tally.get(run.outcome, 0) + 1
        return tally

    def to_json(self) -> Dict[str, Any]:
        return {
            "budget": self.budget,
            "base_seed": self.base_seed,
            "timed_out": self.timed_out,
            "shard_attempts": dict(sorted(self.shard_attempts.items())),
            "infra_errors": [[seed, detail] for seed, detail in self.infra_errors],
            "runs": [run.to_json() for run in self.runs],
        }

    @classmethod
    def from_json(cls, data: Dict[str, Any]) -> "ChaosReport":
        return cls(
            budget=int(data["budget"]),
            base_seed=int(data["base_seed"]),
            runs=[ChaosRun.from_json(r) for r in data.get("runs", [])],
            infra_errors=[
                (int(seed), detail)
                for seed, detail in data.get("infra_errors", [])
            ],
            timed_out=bool(data.get("timed_out", False)),
            shard_attempts={
                str(span): int(attempts)
                for span, attempts in dict(data.get("shard_attempts", {})).items()
            },
        )

    def render(self) -> str:
        tally = ", ".join(
            f"{kind}×{count}" for kind, count in sorted(self.outcome_tally().items())
        )
        lines = [
            f"chaos: {len(self.runs)}/{self.budget} schedules, "
            f"base seed {self.base_seed}, outcomes: {tally or 'none'}"
        ]
        for span, attempts in sorted(self.shard_attempts.items()):
            lines.append(f"shard {span}: {attempts} attempt(s)")
        for run in self.violating_runs:
            lines.append(run.render())
            lines.append(f"  replay: {run.replay_command}")
        for seed, detail in self.infra_errors:
            lines.append(f"seed {seed}: INFRASTRUCTURE ERROR: {detail}")
        if self.timed_out:
            lines.append("campaign DEADLINE EXCEEDED (resume with --resume)")
        lines.append(
            "FAULT-OUTCOME INVARIANT OK" if self.ok
            else f"{len(self.violating_runs)} violating run(s), "
                 f"{len(self.infra_errors)} infrastructure error(s)"
        )
        return "\n".join(lines)


def _chaos_fingerprint(kernel, process, result) -> Dict[str, Any]:
    """Conformance fingerprint + waitpid-visible child outcomes.

    Reaped children leave ``kernel.processes``, so the base fingerprint
    alone cannot tell "fork absorbed the EAGAIN" from "fork surfaced -1
    and no child ever ran" when the parent ignores the pid.  The child
    results the kernel records on the parent close that blind spot.
    """
    fingerprint = _fingerprint(kernel, process, result)
    fingerprint["child_results"] = [
        (child_result.state, child_result.exit_status, child_result.signal)
        for _pid, child_result in getattr(process, "child_results", [])
    ]
    return fingerprint


def _apply_tls_flips(process, plane: FaultPlane) -> None:
    """Deliver post-install ``tls-flip`` events (one-shot bit flips)."""
    for event in plane.schedule.events:
        if event.kind != "tls-flip":
            continue
        slot = event.slot or "shadow_c0"
        tls = process.tls
        setattr(tls, slot, getattr(tls, slot) ^ (1 << event.bit))
        plane.record_delivered("tls-flip", f"{slot} bit {event.bit}")


def run_chaos_case(
    seed: int,
    *,
    spec: Optional[ProgramSpec] = None,
    schedule: Optional[FaultSchedule] = None,
    cycle_limit: int = CHAOS_CYCLE_LIMIT,
    audit: bool = True,
    require_store: bool = False,
    case: str = "",
) -> ChaosRun:
    """Run one (program, schedule) case and classify the outcome.

    ``spec``/``schedule`` default to the deterministic seed derivation —
    pass both to replay a canned or corpus case instead.  Raises
    :class:`CampaignError` for infrastructure problems (the reference run
    must exit cleanly); never raises for invariant violations.
    """
    if spec is None:
        spec, source = generate_fuzz_program(seed)
    else:
        source = render_program(spec)
    if schedule is None:
        schedule = generate_fault_schedule(seed, spec)
    scheme = schedule.scheme

    # Reference: same scheme, same kernel seed, no plane.  The faulted run
    # consumes the identical entropy stream (injection never draws from
    # process entropy), so this is the exact no-fault twin.
    try:
        kernel = Kernel(seed)
        binary = build(source, scheme, name="chaos")
        process, _ = deploy(kernel, binary, scheme, cycle_limit=cycle_limit)
        result = process.run()
    except Exception as error:
        raise CampaignError(f"reference run failed to deploy: {error!r}")
    if result.state != "exited":
        raise CampaignError(
            f"reference run did not exit cleanly: state={result.state} "
            f"signal={result.signal}"
        )
    reference = _chaos_fingerprint(kernel, process, result)

    plane = FaultPlane(schedule)
    auditor = CanaryAuditor(plane) if audit else None
    run = ChaosRun(
        seed=seed,
        scheme=scheme,
        description=schedule.description,
        outcome="",
        expected=schedule.expected,
        case=case,
    )
    try:
        kernel = Kernel(seed, fault_plane=plane)
        binary = build(source, scheme, name="chaos")
        process, _ = deploy(kernel, binary, scheme, cycle_limit=cycle_limit)
    except DegradedError as error:
        # Fail-closed at install time (e.g. a persistently torn publish).
        run.outcome = "degraded"
        run.detail = str(error)
    else:
        if auditor is not None:
            auditor.attach(process)
        _apply_tls_flips(process, plane)
        result = process.run()
        if result.smashed:
            run.outcome = "detected"
            run.detail = str(result.crash)
        elif isinstance(result.crash, DegradedError):
            run.outcome = "degraded"
            run.detail = str(result.crash)
        elif result.state == "exited":
            observed = _chaos_fingerprint(kernel, process, result)
            if observed == reference:
                run.outcome = "degraded" if plane.events else "identical"
            else:
                run.outcome = "divergence"
                run.detail = "; ".join(
                    f"{key}: {reference[key]!r} != {observed[key]!r}"
                    for key in reference
                    if reference[key] != observed[key]
                )
        else:
            run.outcome = "divergence"
            run.detail = (
                f"untyped crash: state={result.state} signal={result.signal} "
                f"crash={result.crash!r}"
            )

    run.events = sorted(plane.event_kinds())
    run.delivered = plane.delivered_counts()
    run.absorbed = len(plane.absorbed)

    if run.outcome == "divergence":
        run.violations.append(
            f"behaviour diverged without a typed outcome: {run.detail}"
        )
    elif run.outcome not in run.expected and run.outcome != "identical":
        run.violations.append(
            f"outcome {run.outcome!r} not among expected "
            f"{'/'.join(run.expected)} ({run.detail or 'no detail'})"
        )
    if auditor is not None:
        run.violations.extend(auditor.findings(require_store=require_store))
    return run


def _chaos_unit(config: Dict[str, Any], seed: int) -> Dict[str, Any]:
    """Campaign unit (see :mod:`repro.parallel.campaign`): one seed,
    with retries.

    The record's ``kind`` is ``"skip"`` when the scheme filter gates the
    seed, ``"run"`` for a completed case (``run`` holds it), or
    ``"infra"`` after the retry budget is spent on
    :class:`CampaignError` (``detail`` holds the last error).
    """
    spec = schedule = None
    if config["schemes"] is not None:
        spec, _ = generate_fuzz_program(seed)
        schedule = generate_fault_schedule(seed, spec)
        if schedule.scheme not in config["schemes"]:
            return {"kind": "skip", "run": None, "detail": ""}
    last_error = ""
    for _attempt in range(1 + max(0, config["retries"])):
        try:
            run = run_chaos_case(
                seed, spec=spec, schedule=schedule,
                cycle_limit=config["cycle_limit"], audit=config["audit"],
            )
        except CampaignError as error:
            last_error = str(error)
            continue
        _CASES.inc()
        _OUTCOMES[run.outcome].inc()
        if not run.ok:
            _VIOLATIONS.inc(len(run.violations))
        return {"kind": "run", "run": run.to_json(), "detail": ""}
    return {"kind": "infra", "run": None, "detail": last_error}


def run_campaign(
    budget: int = 50,
    *,
    base_seed: int = 2018,
    retries: int = 1,
    shard_retries: int = 1,
    deadline: Optional[float] = None,
    checkpoint_path: Optional[str] = None,
    resume: bool = False,
    schemes: Optional[Tuple[str, ...]] = None,
    cycle_limit: int = CHAOS_CYCLE_LIMIT,
    audit: bool = True,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
) -> ChaosReport:
    """Run ``budget`` seeded chaos cases (seeds ``base_seed + i``).

    * ``schemes`` — optional filter: only run the schedules targeting
      these schemes (the per-scheme CI smoke jobs).  Skipped seeds keep
      their place in the stream, so a filtered campaign's surviving
      cases are bit-identical to the same seeds in the full campaign.
    * ``retries`` — re-attempts per case on :class:`CampaignError` before
      recording an infrastructure error (never retried: invariant
      violations, which are deterministic findings).
    * ``shard_retries`` — re-queues per lost *shard* (``jobs > 1``)
      before its seeds are recorded as infrastructure errors; shards
      that needed more than one attempt land in
      ``report.shard_attempts``.
    * ``deadline`` — wall-clock budget in seconds; exceeding it stops the
      campaign with ``timed_out`` set (exit code 4 at the CLI).
    * ``checkpoint_path``/``resume`` — checkpoint written after every
      case (``jobs > 1``: after every shard); resuming skips every seed
      the checkpoint holds — run, infrastructure error or filtered out.
      The checkpoint's identity (base seed, scheme filter, cycle limit,
      retries, audit) must match this call, or :class:`CampaignError`
      is raised; the budget may grow.
    * ``jobs`` — process-pool width.  The shard plan depends only on the
      budget and the report is built in seed order, so any ``jobs``
      value produces a bit-identical report.  A shard whose worker dies
      is retried, then every seed it carried is recorded as an
      infrastructure error — never silently dropped, never
      checkpointed (a resume runs it again).
    """
    from ..parallel import Checkpoint, run_units

    config = {
        "schemes": sorted(set(schemes)) if schemes else None,
        "retries": retries,
        "cycle_limit": cycle_limit,
        "audit": audit,
    }
    checkpoint = None
    if checkpoint_path:
        checkpoint = Checkpoint(
            checkpoint_path, "chaos", {"base_seed": base_seed, **config},
            resume=resume,
        )

    def notice(seed: int, record: Dict[str, Any]) -> None:
        if record["kind"] == "infra":
            progress(f"seed {seed}: infrastructure error: {record['detail']}")
        elif record["kind"] == "run" and record["run"]["violations"]:
            progress(
                f"seed {seed}: "
                f"{len(record['run']['violations'])} violation(s)"
            )

    result = run_units(
        _chaos_unit, config, base_seed, budget,
        jobs=jobs, shard_retries=shard_retries, deadline=deadline,
        checkpoint=checkpoint, on_record=notice if progress else None,
        progress=progress,
    )
    report = ChaosReport(
        budget=budget, base_seed=base_seed, timed_out=result.timed_out,
        shard_attempts=result.shard_attempts,
    )
    for seed, record in result.records.items():
        if record["kind"] == "run":
            report.runs.append(ChaosRun.from_json(record["run"]))
        elif record["kind"] == "infra":
            report.infra_errors.append((seed, record["detail"]))
    for lost in result.lost:
        report.infra_errors.extend(
            (seed, f"worker lost shard {lost.index} after "
                   f"{lost.attempts} attempt(s): {lost.error}")
            for seed in lost.seeds
        )
    report.infra_errors.sort()
    if report.timed_out and progress:
        progress(f"deadline hit after {len(report.runs)} case(s)")
    return report


def replay_case(seed: int, *, audit: bool = True) -> ChaosRun:
    """Re-derive and re-run one campaign case bit-identically."""
    return run_chaos_case(seed, audit=audit)


# -- canned invariant cases ---------------------------------------------------
#
# Hand-written (program, schedule) pairs that deterministically reach each
# degradation path.  They back three consumers: the conformance contract's
# sixth clause, the chaos mutation self-check, and the corpus reproducers.


def _nt_spec() -> ProgramSpec:
    """A forkless program with several protected NT prologue executions."""
    worker = FunctionSpec(
        name="ntw", buffer_bytes=32, inner_iterations=3, ops=[0, 1]
    )
    return ProgramSpec(
        functions=[worker], main_calls=["ntw", "ntw"], outer_iterations=2
    )


def _fork_spec() -> ProgramSpec:
    """A program whose main loop forks a protected worker."""
    worker = FunctionSpec(
        name="fkw", buffer_bytes=16, inner_iterations=2, ops=[0]
    )
    return ProgramSpec(
        functions=[worker],
        main_calls=["fkw"],
        outer_iterations=1,
        use_fork=True,
        fork_callee="fkw",
    )


@dataclass
class ChaosCase:
    """One canned (program, schedule) invariant case."""

    name: str
    spec: ProgramSpec
    schedule: FaultSchedule
    #: The case is known to execute protected prologues, so the auditor
    #: must see at least one canary store.
    require_store: bool = False


def canned_invariant_cases() -> List[ChaosCase]:
    """The deterministic reproducers replayed on every fuzz/chaos run."""
    return [
        ChaosCase(
            name="nt-rdrand-starved",
            spec=_nt_spec(),
            schedule=FaultSchedule(
                scheme="pssp-nt-hardened",
                events=[
                    FaultEvent("rdrand-fail", at=SELFTEST_DRAWS, count=64)
                ],
                expected=("degraded",),
                description="rdrand starved after self-test: every prologue "
                            "must take the shadow-pair fallback",
            ),
            require_store=True,
        ),
        ChaosCase(
            name="nt-entropy-stuck",
            spec=_nt_spec(),
            schedule=FaultSchedule(
                scheme="pssp-nt-hardened",
                events=[
                    FaultEvent(
                        "rdrand-stuck", at=0, count=64,
                        value=0x5A5A_5A5A_5A5A_5A5B,
                    )
                ],
                expected=("degraded",),
                description="stuck DRBG from boot: the self-test must "
                            "quarantine rdrand before a prologue trusts it",
            ),
            require_store=True,
        ),
        ChaosCase(
            name="pssp-fork-eagain",
            spec=_fork_spec(),
            schedule=FaultSchedule(
                scheme="pssp",
                events=[
                    FaultEvent(
                        "fork-eagain", at=0, count=FORK_RETRY_LIMIT - 1
                    )
                ],
                expected=("identical",),
                description="transient fork EAGAIN burst one short of the "
                            "budget: the wrapper must absorb it",
            ),
        ),
        ChaosCase(
            name="pssp-torn-publish",
            spec=_nt_spec(),
            schedule=FaultSchedule(
                scheme="pssp",
                events=[FaultEvent("tls-torn", at=0, count=48)],
                expected=("degraded",),
                description="every shadow-half write torn: publish must fail "
                            "closed, never expose a mixed pair",
            ),
        ),
    ]


def run_canned_case(case: ChaosCase, *, seed: int = 0) -> ChaosRun:
    """Run one canned case (deterministic; ``seed`` picks the kernel)."""
    return run_chaos_case(
        seed,
        spec=case.spec,
        schedule=case.schedule,
        require_store=case.require_store,
        case=case.name,
    )
