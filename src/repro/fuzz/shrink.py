"""Structural shrinking of failing fuzz programs.

Shrinking operates on the :class:`~repro.workloads.generator.ProgramSpec`
IR rather than on MiniC text: every candidate is a *valid* spec by
construction (the call graph stays acyclic, libc ops keep their minimum
buffer), so the predicate never wastes runs on syntactically broken
programs.  Greedy first-improvement descent: apply the first candidate
transformation that still fails, restart the candidate list, stop at a
fixed point.
"""

from __future__ import annotations

from typing import Callable, Iterator, List

from ..workloads.generator import (
    _LIBC_MIN_BUFFER,
    FUZZ_BUFFER_SIZES,
    RECURSION_NAME,
    ProgramSpec,
)


def _clone(spec: ProgramSpec) -> ProgramSpec:
    return ProgramSpec.from_json(spec.to_json())


def _strip_function(spec: ProgramSpec, name: str) -> ProgramSpec:
    """Remove one function and every reference to it."""
    candidate = _clone(spec)
    candidate.functions = [f for f in candidate.functions if f.name != name]
    for function in candidate.functions:
        function.calls = [c for c in function.calls if c != name]
    candidate.main_calls = [c for c in candidate.main_calls if c != name]
    if candidate.fork_callee == name:
        candidate.fork_callee = ""
    if candidate.use_fork and not candidate.functions:
        candidate.use_fork = False
    return candidate


def _candidates(spec: ProgramSpec) -> Iterator[ProgramSpec]:
    """Yield progressively simpler variants, biggest cuts first."""
    # Feature flags: each is a whole subsystem (scheme gating changes!).
    if spec.use_fork:
        candidate = _clone(spec)
        candidate.use_fork = False
        yield candidate
    if spec.use_setjmp:
        candidate = _clone(spec)
        candidate.use_setjmp = False
        yield candidate
    if spec.recursion_depth:
        candidate = _clone(spec)
        candidate.recursion_depth = 0
        candidate.main_calls = [
            c for c in candidate.main_calls if c != RECURSION_NAME
        ]
        yield candidate

    # Whole functions (last first: nothing calls the last one).
    for function in reversed(spec.functions):
        yield _strip_function(spec, function.name)

    # Loop trip counts.
    if spec.outer_iterations > 1:
        candidate = _clone(spec)
        candidate.outer_iterations = 1
        yield candidate
    if spec.recursion_depth > 1:
        candidate = _clone(spec)
        candidate.recursion_depth = 1
        yield candidate

    # Main dispatch sites (keep at least one so main still does work).
    if len(spec.main_calls) > 1:
        for index in range(len(spec.main_calls)):
            candidate = _clone(spec)
            del candidate.main_calls[index]
            yield candidate

    # Per-function simplifications.
    for index, function in enumerate(spec.functions):
        if function.calls:
            candidate = _clone(spec)
            candidate.functions[index].calls = []
            yield candidate
        if function.libc_op:
            candidate = _clone(spec)
            candidate.functions[index].libc_op = ""
            yield candidate
        if function.inner_iterations:
            candidate = _clone(spec)
            candidate.functions[index].inner_iterations = 0
            candidate.functions[index].ops = []
            yield candidate
        if len(function.ops) > 1:
            candidate = _clone(spec)
            candidate.functions[index].ops = function.ops[:1]
            yield candidate
        if function.critical:
            candidate = _clone(spec)
            candidate.functions[index].critical = False
            yield candidate
        floor = _LIBC_MIN_BUFFER.get(function.libc_op, 0)
        smaller = [
            size
            for size in FUZZ_BUFFER_SIZES
            if floor <= size < function.buffer_bytes
        ]
        if smaller:
            candidate = _clone(spec)
            candidate.functions[index].buffer_bytes = max(smaller)
            yield candidate
    if spec.recursion_depth and spec.recursion_buffer:
        candidate = _clone(spec)
        candidate.recursion_buffer = 0
        yield candidate


def shrink_spec(
    spec: ProgramSpec,
    still_fails: Callable[[ProgramSpec], bool],
    *,
    max_checks: int = 200,
) -> ProgramSpec:
    """Greedily minimise ``spec`` while ``still_fails`` holds.

    ``still_fails`` re-runs the conformance check (same seed, same scheme
    set) and returns True when the candidate reproduces the failure.
    ``max_checks`` bounds total oracle invocations so shrinking a flaky
    or expensive failure cannot stall a campaign.
    """
    checks = 0
    improved = True
    current = spec
    while improved and checks < max_checks:
        improved = False
        for candidate in _candidates(current):
            checks += 1
            if still_fails(candidate):
                current = candidate
                improved = True
                break
            if checks >= max_checks:
                break
    return current


def removed_features(before: ProgramSpec, after: ProgramSpec) -> List[str]:
    """Human-readable list of what shrinking discarded."""
    notes = []
    if before.use_fork and not after.use_fork:
        notes.append("fork")
    if before.use_setjmp and not after.use_setjmp:
        notes.append("setjmp/longjmp")
    if before.recursion_depth and not after.recursion_depth:
        notes.append("recursion")
    dropped = len(before.functions) - len(after.functions)
    if dropped:
        notes.append(f"{dropped} function(s)")
    return notes
