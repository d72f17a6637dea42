"""Seeded differential fuzz campaigns with one-command replay.

Determinism is the contract: program ``i`` of a campaign is generated
from ``base_seed + i`` and *runs* under kernels seeded with the same
number, so ``python -m repro fuzz --replay SEED`` reproduces a failure
bit-for-bit — same program, same canaries, same cycle counts — without
shipping the failing binary around.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterable, List, Optional, Tuple

from .. import telemetry
from ..workloads.generator import ProgramSpec, generate_fuzz_program, render_program
from .conformance import (
    DEFAULT_FUZZ_SCHEMES,
    FUZZ_CYCLE_LIMIT,
    ConformanceFailure,
    applicable_schemes,
    check_source,
    fault_invariant_failures,
    scheme_health_failures,
)

#: Failure kinds that indicate broken infrastructure (a build or the
#: reference run fell over, or a parallel worker's slice was lost after
#: its retry) rather than a violated contract clause.  The CLI maps
#: "only these" to a distinct exit code.
INFRA_FAILURE_KINDS = frozenset({"build-error", "native-crash", "worker-lost"})
from .shrink import removed_features, shrink_spec


@dataclass
class FuzzFailure:
    """One failing program, before and after shrinking."""

    seed: int
    spec: ProgramSpec
    source: str
    failures: List[ConformanceFailure]
    shrunk_spec: Optional[ProgramSpec] = None
    shrunk_source: Optional[str] = None
    shrink_notes: List[str] = field(default_factory=list)

    @property
    def replay_command(self) -> str:
        return f"python -m repro fuzz --replay {self.seed}"

    def to_json(self) -> Dict[str, object]:
        """Artifact format (uploaded by the nightly CI job)."""
        return {
            "seed": self.seed,
            "replay": self.replay_command,
            "failures": [
                {
                    "kind": f.kind,
                    "scheme": f.scheme,
                    "path": f.path,
                    "detail": f.detail,
                }
                for f in self.failures
            ],
            "spec": self.spec.to_json(),
            "source": self.source,
            "shrunk_spec": self.shrunk_spec.to_json() if self.shrunk_spec else None,
            "shrunk_source": self.shrunk_source,
            "shrink_notes": self.shrink_notes,
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FuzzFailure":
        """Rebuild a failure from its artifact form (worker → parent)."""
        shrunk_spec = data.get("shrunk_spec")
        return cls(
            seed=int(data["seed"]),
            spec=ProgramSpec.from_json(data["spec"]),
            source=data["source"],
            failures=[
                ConformanceFailure(
                    kind=f["kind"], scheme=f["scheme"],
                    path=f["path"], detail=f["detail"],
                )
                for f in data.get("failures", [])
            ],
            shrunk_spec=ProgramSpec.from_json(shrunk_spec) if shrunk_spec else None,
            shrunk_source=data.get("shrunk_source"),
            shrink_notes=list(data.get("shrink_notes", [])),
        )

    def render(self) -> str:
        lines = [f"seed {self.seed}  ({self.replay_command})"]
        for failure in self.failures:
            lines.append(f"  {failure}")
        if self.shrunk_source and self.shrunk_source != self.source:
            notes = f" (dropped: {', '.join(self.shrink_notes)})" if self.shrink_notes else ""
            lines.append(f"  shrunk program{notes}:")
            lines.extend(f"    {line}" for line in self.shrunk_source.splitlines())
        return "\n".join(lines)


@dataclass
class FuzzReport:
    """Outcome of one campaign."""

    budget: int
    base_seed: int
    schemes: Tuple[str, ...]
    programs_checked: int = 0
    runs: int = 0  #: scheme × path executions performed
    skipped: Dict[str, int] = field(default_factory=dict)
    failures: List[FuzzFailure] = field(default_factory=list)
    health_failures: List[ConformanceFailure] = field(default_factory=list)
    #: Shards that needed more than one attempt, ``"first..last" ->
    #: attempts``.  First-attempt shards are never recorded, so a
    #: healthy parallel run stays bit-identical to a serial one.
    shard_attempts: Dict[str, int] = field(default_factory=dict)

    @property
    def ok(self) -> bool:
        return not self.failures and not self.health_failures

    @property
    def infra_only(self) -> bool:
        """True when every recorded failure is an infrastructure error.

        Lets the CLI distinguish "the contract was violated" (exit 1)
        from "the campaign could not run its checks" (exit 3).
        """
        kinds = {f.kind for f in self.health_failures}
        for failure in self.failures:
            kinds.update(f.kind for f in failure.failures)
        return bool(kinds) and kinds <= INFRA_FAILURE_KINDS

    def render(self) -> str:
        lines = [
            f"fuzz: {self.programs_checked}/{self.budget} programs, "
            f"{self.runs} scheme-path runs, base seed {self.base_seed}, "
            f"schemes: {', '.join(self.schemes)}"
        ]
        if self.skipped:
            gated = ", ".join(
                f"{scheme}×{count}" for scheme, count in sorted(self.skipped.items())
            )
            lines.append(f"gated by documented semantics: {gated}")
        for span, attempts in sorted(self.shard_attempts.items()):
            lines.append(f"shard {span}: {attempts} attempt(s)")
        for failure in self.health_failures:
            lines.append(f"health probe FAILED: {failure}")
        for failure in self.failures:
            lines.append(failure.render())
        lines.append(
            "CONFORMANCE OK" if self.ok
            else f"{len(self.failures)} failing program(s), "
                 f"{len(self.health_failures)} health failure(s)"
        )
        return "\n".join(lines)

    def to_json(self) -> Dict[str, object]:
        """Canonical plain-data form (the bit-identity tests compare this)."""
        return {
            "budget": self.budget,
            "base_seed": self.base_seed,
            "schemes": list(self.schemes),
            "programs_checked": self.programs_checked,
            "runs": self.runs,
            "skipped": dict(sorted(self.skipped.items())),
            "shard_attempts": dict(sorted(self.shard_attempts.items())),
            "failures": [f.to_json() for f in self.failures],
            "health_failures": [
                {
                    "kind": f.kind,
                    "scheme": f.scheme,
                    "path": f.path,
                    "detail": f.detail,
                }
                for f in self.health_failures
            ],
        }

    @classmethod
    def from_json(cls, data: Dict[str, object]) -> "FuzzReport":
        return cls(
            budget=int(data["budget"]),
            base_seed=int(data["base_seed"]),
            schemes=tuple(data["schemes"]),
            programs_checked=int(data["programs_checked"]),
            runs=int(data["runs"]),
            skipped=dict(data.get("skipped", {})),
            shard_attempts={
                str(span): int(attempts)
                for span, attempts in dict(data.get("shard_attempts", {})).items()
            },
            failures=[FuzzFailure.from_json(f) for f in data.get("failures", [])],
            health_failures=[
                ConformanceFailure(
                    kind=f["kind"], scheme=f["scheme"],
                    path=f["path"], detail=f["detail"],
                )
                for f in data.get("health_failures", [])
            ],
        )


def check_spec(
    spec: ProgramSpec,
    *,
    seed: int,
    schemes: Iterable[str] = DEFAULT_FUZZ_SCHEMES,
    cycle_limit: int = FUZZ_CYCLE_LIMIT,
) -> List[ConformanceFailure]:
    """Render a spec and run it through the conformance contract."""
    return check_source(
        render_program(spec),
        schemes=schemes,
        seed=seed,
        uses_fork=spec.uses_fork,
        uses_setjmp=spec.uses_setjmp,
        cycle_limit=cycle_limit,
    )


def _shrink_failure(
    failure: FuzzFailure,
    schemes: Tuple[str, ...],
    cycle_limit: int,
    max_checks: int,
) -> None:
    """Attach a minimised reproducer to ``failure`` (in place).

    A candidate counts as reproducing when it triggers a failure of the
    same *kind* for the same scheme — shrinking must not wander onto an
    unrelated bug and present it as the minimal form of this one.
    """
    target = {(f.kind, f.scheme) for f in failure.failures}

    def still_fails(candidate: ProgramSpec) -> bool:
        observed = check_spec(
            candidate, seed=failure.seed, schemes=schemes,
            cycle_limit=cycle_limit,
        )
        return any((f.kind, f.scheme) in target for f in observed)

    shrunk = shrink_spec(failure.spec, still_fails, max_checks=max_checks)
    failure.shrunk_spec = shrunk
    failure.shrunk_source = render_program(shrunk)
    failure.shrink_notes = removed_features(failure.spec, shrunk)


@dataclass
class SeedCheck:
    """The outcome of checking one seed — the unit of campaign work.

    Campaign units (:func:`_fuzz_unit`) and ``--replay`` both go
    through :func:`_check_one`, so the two paths cannot drift.
    """

    seed: int
    spec: ProgramSpec
    source: str
    selected: Tuple[str, ...]  #: schemes actually exercised
    gated: Tuple[str, ...]  #: schemes skipped by documented semantics
    failure: Optional[FuzzFailure] = None


def _check_one(
    seed: int,
    *,
    schemes: Tuple[str, ...] = DEFAULT_FUZZ_SCHEMES,
    cycle_limit: int = FUZZ_CYCLE_LIMIT,
    shrink: bool = False,
    max_shrink_checks: int = 40,
) -> SeedCheck:
    """Generate, run, and (optionally) shrink a single fuzz seed.

    Telemetry is counted here so every execution path reports the same
    numbers — a parallel worker's counts travel back to the parent as a
    snapshot delta and merge into the campaign totals.
    """
    spec, source = generate_fuzz_program(seed)
    selected, gated = applicable_schemes(
        schemes, uses_fork=spec.uses_fork, uses_setjmp=spec.uses_setjmp
    )
    failures = check_source(
        source,
        schemes=selected,
        seed=seed,
        uses_fork=spec.uses_fork,
        uses_setjmp=spec.uses_setjmp,
        cycle_limit=cycle_limit,
    )
    telemetry.count("fuzz_programs_total", help="fuzz programs checked")
    telemetry.count(
        "fuzz_runs_total", 2 * len(selected),
        help="fuzz executions (fast+slow per scheme)",
    )
    failure = None
    if failures:
        failure = FuzzFailure(seed, spec, source, failures)
        if shrink:
            _shrink_failure(failure, schemes, cycle_limit, max_shrink_checks)
        telemetry.count(
            "fuzz_failures_total", len(failures),
            help="conformance divergences found",
        )
    return SeedCheck(seed, spec, source, tuple(selected), tuple(gated), failure)


def _fuzz_unit(config: Dict[str, object], seed: int) -> Dict[str, object]:
    """Campaign unit (see :mod:`repro.parallel.campaign`): check one
    seed and return its outcome in artifact form."""
    check = _check_one(
        seed,
        schemes=tuple(config["schemes"]),
        cycle_limit=config["cycle_limit"],
        shrink=config["shrink"],
        max_shrink_checks=config["max_shrink_checks"],
    )
    return {
        "selected": list(check.selected),
        "gated": list(check.gated),
        "failure": check.failure.to_json() if check.failure else None,
    }


def run_fuzz(
    budget: int = 50,
    *,
    base_seed: int = 2018,
    schemes: Iterable[str] = DEFAULT_FUZZ_SCHEMES,
    shrink: bool = True,
    health: bool = True,
    cycle_limit: int = FUZZ_CYCLE_LIMIT,
    max_shrink_checks: int = 40,
    progress: Optional[Callable[[str], None]] = None,
    jobs: int = 1,
    shard_retries: int = 1,
) -> FuzzReport:
    """Run a deterministic campaign of ``budget`` generated programs.

    ``jobs > 1`` shards the seed range across a process pool; the shard
    plan depends only on the budget and results merge in seed order,
    so the report is bit-identical to a ``jobs=1`` run.  A shard whose
    worker dies is re-queued ``shard_retries`` times and then recorded
    as a ``worker-lost`` health failure — never silently dropped.
    Shards that needed more than one attempt land in
    ``report.shard_attempts``.
    """
    from ..parallel import run_units

    schemes = tuple(schemes)
    report = FuzzReport(budget=budget, base_seed=base_seed, schemes=schemes)

    if health:
        report.health_failures = scheme_health_failures(schemes, seed=base_seed)
        report.health_failures.extend(fault_invariant_failures(seed=base_seed))
        if report.health_failures and progress:
            progress(f"{len(report.health_failures)} scheme-health failure(s)")

    def notice(seed: int, record: Dict[str, object]) -> None:
        if record["failure"] is not None:
            progress(
                f"seed {seed}: {len(record['failure']['failures'])} failure(s)"
            )

    config = {
        "schemes": list(schemes),
        "cycle_limit": cycle_limit,
        "shrink": shrink,
        "max_shrink_checks": max_shrink_checks,
    }
    result = run_units(
        _fuzz_unit, config, base_seed, budget,
        jobs=jobs, shard_retries=shard_retries,
        on_record=notice if progress else None, progress=progress,
    )
    for record in result.records.values():
        for scheme in record["gated"]:
            report.skipped[scheme] = report.skipped.get(scheme, 0) + 1
        report.programs_checked += 1
        report.runs += 2 * len(record["selected"])
        if record["failure"] is not None:
            report.failures.append(FuzzFailure.from_json(record["failure"]))
    for lost in result.lost:
        report.health_failures.append(ConformanceFailure(
            kind="worker-lost",
            scheme="-",
            path="-",
            detail=(
                f"shard {lost.index} (seeds {lost.seeds[0]}..{lost.seeds[-1]}) "
                f"lost after {lost.attempts} attempt(s): {lost.error}"
            ),
        ))
    report.shard_attempts = result.shard_attempts
    return report


def replay_seed(
    seed: int,
    *,
    schemes: Iterable[str] = DEFAULT_FUZZ_SCHEMES,
    cycle_limit: int = FUZZ_CYCLE_LIMIT,
) -> Tuple[ProgramSpec, str, List[ConformanceFailure]]:
    """Regenerate the program for ``seed`` and re-run the contract."""
    check = _check_one(seed, schemes=tuple(schemes), cycle_limit=cycle_limit)
    failures = check.failure.failures if check.failure else []
    return check.spec, check.source, failures


def write_failure_artifacts(report: FuzzReport, directory: str) -> List[str]:
    """Write one JSON artifact per failing program; return the paths."""
    import os

    os.makedirs(directory, exist_ok=True)
    paths = []
    for failure in report.failures:
        path = os.path.join(directory, f"fuzz-failure-seed{failure.seed}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(failure.to_json(), handle, indent=2)
        paths.append(path)
    return paths
