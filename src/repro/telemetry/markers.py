"""Canary sites — group leaders and audited stores — from provenance notes.

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
prologue/epilogue.

The chaos auditor's audited **C0 stores** (the NT prologue's per-call
canary write and its fallback) are sites of the same kind: static,
picked out by note.  :func:`canary_sites` is the one table of both; it
maps each instruction index to a :class:`CanarySite`.  Every interpreter
tier observes the table's sites the same way, through the one probe
(:func:`repro.telemetry.canary_probe`): the decoder wraps each site
step with it, the slow loop calls it from the same table, and the JIT
side-exits at every site.  That shared table is what makes the
fast/slow canary counters and watched stores identical by construction.
"""

from __future__ import annotations

from typing import Dict, NamedTuple, Optional, Tuple

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


class CanarySite(NamedTuple):
    """One canary site: what the shared probe does at one instruction.

    ``leader`` is ``"prologue"`` / ``"epilogue"`` for a group leader
    (telemetry counts it), ``store`` is ``"fresh"`` / ``"fallback"`` for
    an audited C0 store (handed to the CPU's watch); an instruction can
    be both.  ``function`` and ``index`` locate it, ``instruction`` is
    the instruction itself.
    """

    function: str
    index: int
    instruction: object
    leader: Optional[str]
    store: Optional[str]


_RAX = Reg("rax")


def _store_kind(instruction) -> Optional[str]:
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


def canary_sites(function) -> Dict[int, CanarySite]:
    """Map ``function``'s instruction indices to their canary sites.

    ``function`` needs only a ``name`` and a ``body`` of instructions
    carrying ``note`` attributes (duck-typed so rewritten clones work
    too).  Indices that are neither a group leader nor an audited store
    are absent.
    """
    sites: Dict[int, CanarySite] = {}
    previous: Tuple[str, str] = ("", "")
    for index, instruction in enumerate(function.body):
        entry = NOTE_GROUPS.get(getattr(instruction, "note", ""))
        if entry is None:
            previous = ("", "")
            continue
        leader = entry[0] if entry != previous else None
        previous = entry
        store = _store_kind(instruction)
        if leader is not None or store is not None:
            sites[index] = CanarySite(
                function.name, index, instruction, leader, store
            )
    return sites
