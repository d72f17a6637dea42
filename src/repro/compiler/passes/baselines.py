"""Baseline schemes from the paper's Table I: DynaGuard and DCR.

Both take the approach P-SSP explicitly avoids — refreshing the *TLS*
canary on fork and then chasing down every stale canary in live stack
frames — so both need per-call bookkeeping describing where those
canaries are:

* **DynaGuard** (Petsios et al., ACSAC'15) appends each frame's canary
  address to a per-thread *canary address buffer* (CAB) in the prologue
  and pops it in the epilogue; the fork hook rewrites every recorded
  canary plus the TLS canary.
* **DCR** (Hawkins et al., CISRC'16) stores no side buffer: it embeds the
  word-distance to the *previous* canary inside the canary value itself
  (low 16 bits), forming an in-stack linked list headed from the TLS; the
  fork hook walks the list re-randomizing each node.  The embedding costs
  canary entropy — an honestly reproduced trade-off of the original.

Their fork-time runtimes live in :mod:`repro.core.baselines`; here are
the compiler passes with the per-call sequences whose cost Table I's
overhead columns reflect.
"""

from __future__ import annotations

from ...isa.instructions import REGS, Imm, Label, Mem, Sym
from ...machine.tls import (
    CANARY_OFFSET,
    DCR_LIST_HEAD_OFFSET,
    DYNAGUARD_CAB_BASE_OFFSET,
    DYNAGUARD_CAB_INDEX_OFFSET,
)
from .base import FramePlan
from .ssp import SSPPass


class DynaGuardPass(SSPPass):
    """SSP plus canary-address-buffer maintenance."""

    name = "dynaguard"

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        super().emit_prologue(function, plan)
        note = "dynaguard-prologue"
        slot = plan.canary_slots[0]
        function.emit("mov", REGS["rcx"], Mem(seg="fs", disp=DYNAGUARD_CAB_BASE_OFFSET),
                      note=note)
        function.emit("mov", REGS["rdx"], Mem(seg="fs", disp=DYNAGUARD_CAB_INDEX_OFFSET),
                      note=note)
        function.emit("lea", REGS["rax"], Mem(base="rbp", disp=-slot), note=note)
        function.emit("mov", Mem(base="rcx", index="rdx", scale=8), REGS["rax"],
                      note=note)
        function.emit("inc", REGS["rdx"], note=note)
        function.emit("mov", Mem(seg="fs", disp=DYNAGUARD_CAB_INDEX_OFFSET), REGS["rdx"],
                      note=note)
        function.emit("xor", REGS["rax"], REGS["rax"], note=note)

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "dynaguard-epilogue"
        function.emit("mov", REGS["rdx"], Mem(seg="fs", disp=DYNAGUARD_CAB_INDEX_OFFSET),
                      note=note)
        function.emit("dec", REGS["rdx"], note=note)
        function.emit("mov", Mem(seg="fs", disp=DYNAGUARD_CAB_INDEX_OFFSET), REGS["rdx"],
                      note=note)
        super().emit_epilogue_check(function, plan)

    def runtime(self):
        from ...core.baselines import DynaGuardRuntime

        return DynaGuardRuntime()


class DCRPass(SSPPass):
    """Dynamic Canary Randomization: offsets embedded in canary values.

    The stack canary is ``C ⊕ delta`` where ``delta`` is the word-distance
    to the previous canary (16-bit field).  The epilogue validates that
    the recovered delta's upper 48 bits are zero and pops the list head.
    """

    name = "dcr"

    #: Bits of the canary sacrificed for the embedded offset.
    OFFSET_BITS = 16

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "dcr-prologue"
        slot = plan.canary_slots[0]
        function.emit("mov", REGS["rax"], Mem(seg="fs", disp=CANARY_OFFSET), note=note)
        function.emit("mov", REGS["rcx"], Mem(seg="fs", disp=DCR_LIST_HEAD_OFFSET),
                      note=note)
        function.emit("lea", REGS["rdx"], Mem(base="rbp", disp=-slot), note=note)
        function.emit("mov", Mem(seg="fs", disp=DCR_LIST_HEAD_OFFSET), REGS["rdx"],
                      note=note)
        function.emit("sub", REGS["rcx"], REGS["rdx"], note=note)
        function.emit("shr", REGS["rcx"], Imm(3), note=note)
        function.emit("xor", REGS["rax"], REGS["rcx"], note=note)
        function.emit("mov", Mem(base="rbp", disp=-slot), REGS["rax"], note=note)
        function.emit("xor", REGS["rax"], REGS["rax"], note=note)

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "dcr-epilogue"
        slot = plan.canary_slots[0]
        ok = function.fresh_label("dcr_ok")
        function.emit("mov", REGS["rdx"], Mem(base="rbp", disp=-slot), note=note)
        function.emit("xor", REGS["rdx"], Mem(seg="fs", disp=CANARY_OFFSET), note=note)
        function.emit("mov", REGS["rcx"], REGS["rdx"], note=note)
        function.emit("shr", REGS["rcx"], Imm(self.OFFSET_BITS), note=note)
        function.emit("je", Label(ok), note=note)
        function.emit("call", Sym("__stack_chk_fail"), note=note)
        function.label_here(ok)
        # Pop the list: head = this_canary_address + delta * 8.
        function.emit("shl", REGS["rdx"], Imm(3), note=note)
        function.emit("lea", REGS["rcx"], Mem(base="rbp", disp=-slot), note=note)
        function.emit("add", REGS["rcx"], REGS["rdx"], note=note)
        function.emit("mov", Mem(seg="fs", disp=DCR_LIST_HEAD_OFFSET), REGS["rcx"],
                      note=note)

    def runtime(self):
        from ...core.baselines import DCRRuntime

        return DCRRuntime()
