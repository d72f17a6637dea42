"""Canary group-leader detection from instruction provenance notes.

Protection passes tag every instruction they emit with a ``note``
("pssp-prologue", "dcr-epilogue", ...).  Telemetry counts *dynamic*
prologue stores and epilogue checks, but instrumenting every tagged
instruction would (a) cost fast-path time on each of the 4-15
instructions per region and (b) over-count regions that mix several
notes (the hardened NT prologue interleaves "pssp-nt-hardened",
"…-hardened-c0", "…-fallback", "…-fallback-c0" in one region; the
binary rewriter splices "pssp-binary-prologue" into an "ssp-prologue"
region).

So each maximal run of same-group tagged instructions is one *region*
and only its first instruction — the **group leader** — is counted.
Every scheme enters its regions from the top (internal retry loops jump
back *past* the leader), so the leader executes exactly once per dynamic
prologue/epilogue, and both interpreter paths count the same leaders:
the fast path wraps the leader's step closure at decode time, the slow
path consults the same map per function.  That shared map is what makes
the fast/slow canary counters bit-identical by construction.

The same idea carries the chaos auditor's *canary-store watch*: one
predicate, :func:`canary_store`, picks the NT prologue's C0 stores; the
decoder wraps exactly those steps and the slow loop consults the same
per-function index set (:func:`canary_stores`), so both paths hand the
watch exactly the stores that execute.
"""

from __future__ import annotations

from typing import Dict, FrozenSet, Optional, Tuple

from ..isa.instructions import Mem, Reg

#: note -> (category, region group).  A new region starts whenever the
#: (category, group) pair changes between adjacent instructions; notes
#: rewritten into a host scheme's region (pssp-binary, the inline
#: ablation) share the host's group so the splice stays one region.
NOTE_GROUPS: Dict[str, Tuple[str, str]] = {
    # prologues -----------------------------------------------------------
    "ssp-prologue": ("prologue", "ssp"),
    "pssp-binary-prologue": ("prologue", "ssp"),
    "inline-prologue": ("prologue", "ssp"),
    "pssp-prologue": ("prologue", "pssp"),
    "pssp-nt-prologue": ("prologue", "pssp-nt"),
    "pssp-nt-hardened": ("prologue", "pssp-nt-hardened"),
    "pssp-nt-hardened-c0": ("prologue", "pssp-nt-hardened"),
    "pssp-nt-fallback": ("prologue", "pssp-nt-hardened"),
    "pssp-nt-fallback-c0": ("prologue", "pssp-nt-hardened"),
    "pssp-lv-prologue": ("prologue", "pssp-lv"),
    "pssp-owf-prologue": ("prologue", "pssp-owf"),
    "dynaguard-prologue": ("prologue", "dynaguard"),
    "dcr-prologue": ("prologue", "dcr"),
    # epilogues -----------------------------------------------------------
    "ssp-epilogue": ("epilogue", "ssp"),
    "pssp-binary-epilogue": ("epilogue", "ssp"),
    "inline-epilogue": ("epilogue", "ssp"),
    "pssp-epilogue": ("epilogue", "pssp"),
    "pssp-lv-epilogue": ("epilogue", "pssp-lv"),
    "pssp-lv-postwrite": ("epilogue", "pssp-lv-postwrite"),
    "pssp-owf-epilogue": ("epilogue", "pssp-owf"),
    "dynaguard-epilogue": ("epilogue", "dynaguard"),
    "dcr-epilogue": ("epilogue", "dcr"),
}

PROLOGUE_NOTES = frozenset(
    note for note, (category, _) in NOTE_GROUPS.items() if category == "prologue"
)
EPILOGUE_NOTES = frozenset(
    note for note, (category, _) in NOTE_GROUPS.items() if category == "epilogue"
)


def canary_markers(function) -> Dict[int, str]:
    """Map group-leader indices to ``"prologue"`` / ``"epilogue"``.

    ``function`` needs only a ``body`` of instructions carrying ``note``
    attributes (duck-typed so rewritten clones work too).
    """
    markers: Dict[int, str] = {}
    previous: Tuple[str, str] = ("", "")
    for index, instruction in enumerate(function.body):
        entry = NOTE_GROUPS.get(getattr(instruction, "note", ""))
        if entry is None:
            previous = ("", "")
            continue
        if entry != previous:
            markers[index] = entry[0]
        previous = entry
    return markers


_RAX = Reg("rax")


def canary_store(instruction) -> Optional[str]:
    """``"fresh"`` / ``"fallback"`` for an audited C0 store, else ``None``.

    Audited stores are the hardened NT prologue's per-call draw
    (``pssp-nt-hardened-c0``), its shadow-pair fallback
    (``pssp-nt-fallback-c0``), and the plain NT prologue's
    ``mov [mem], rax`` — the store the fallback-disabled mutant
    degenerates to.
    """
    if instruction.op != "mov":
        return None
    note = instruction.note
    if note == "pssp-nt-hardened-c0":
        return "fresh"
    if note == "pssp-nt-fallback-c0":
        return "fallback"
    if note == "pssp-nt-prologue":
        operands = instruction.operands
        if (
            len(operands) == 2
            and isinstance(operands[0], Mem)
            and operands[1] == _RAX
        ):
            return "fresh"
    return None


def canary_stores(function) -> FrozenSet[int]:
    """Indices of ``function``'s audited canary stores (see above)."""
    return frozenset(
        index for index, instruction in enumerate(function.body)
        if canary_store(instruction) is not None
    )
