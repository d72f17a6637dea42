"""The 64-bit global-buffer variant (paper §VII-C, Figure 6).

Addresses the instrumentation path's entropy loss without growing the
frame: the stack keeps a single 64-bit word ``C0`` (SSP-compatible
layout), while the matching ``C1 = C0 ⊕ C`` half lives in a per-thread
side buffer that fork clones along with the rest of the address space.
The prologue pushes a fresh ``C0``/``C1`` pair per call; the epilogue pops
the buffer and verifies ``C0 ⊕ C1 == C``.
"""

from __future__ import annotations

from ...isa.instructions import REGS, Label, Mem, Sym
from ...machine.tls import (
    CANARY_OFFSET,
    GLOBAL_BUFFER_BASE_OFFSET,
    GLOBAL_BUFFER_COUNT_OFFSET,
)
from .base import FramePlan
from .ssp import SSPPass


class GlobalBufferPass(SSPPass):
    """P-SSP with full-width canaries and a per-thread side buffer."""

    name = "pssp-gb"

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "pssp-gb-prologue"
        slot = plan.canary_slots[0]
        function.emit("rdrand", REGS["rax"], note=note)
        function.emit("mov", Mem(base="rbp", disp=-slot), REGS["rax"], note=note)
        function.emit("mov", REGS["rcx"], Mem(seg="fs", disp=CANARY_OFFSET), note=note)
        function.emit("xor", REGS["rcx"], REGS["rax"], note=note)
        function.emit("mov", REGS["rdx"], Mem(seg="fs", disp=GLOBAL_BUFFER_BASE_OFFSET),
                      note=note)
        function.emit("mov", REGS["r10"], Mem(seg="fs", disp=GLOBAL_BUFFER_COUNT_OFFSET),
                      note=note)
        function.emit("mov", Mem(base="rdx", index="r10", scale=8), REGS["rcx"],
                      note=note)
        function.emit("inc", REGS["r10"], note=note)
        function.emit("mov", Mem(seg="fs", disp=GLOBAL_BUFFER_COUNT_OFFSET), REGS["r10"],
                      note=note)
        function.emit("xor", REGS["rax"], REGS["rax"], note=note)
        function.emit("xor", REGS["rcx"], REGS["rcx"], note=note)

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "pssp-gb-epilogue"
        slot = plan.canary_slots[0]
        ok = function.fresh_label("gb_ok")
        function.emit("mov", REGS["r10"], Mem(seg="fs", disp=GLOBAL_BUFFER_COUNT_OFFSET),
                      note=note)
        function.emit("dec", REGS["r10"], note=note)
        function.emit("mov", Mem(seg="fs", disp=GLOBAL_BUFFER_COUNT_OFFSET), REGS["r10"],
                      note=note)
        function.emit("mov", REGS["rdx"], Mem(seg="fs", disp=GLOBAL_BUFFER_BASE_OFFSET),
                      note=note)
        function.emit("mov", REGS["rdi"], Mem(base="rdx", index="r10", scale=8),
                      note=note)
        function.emit("mov", REGS["rdx"], Mem(base="rbp", disp=-slot), note=note)
        function.emit("xor", REGS["rdx"], REGS["rdi"], note=note)
        function.emit("xor", REGS["rdx"], Mem(seg="fs", disp=CANARY_OFFSET), note=note)
        function.emit("je", Label(ok), note=note)
        function.emit("call", Sym("__stack_chk_fail"), note=note)
        function.label_here(ok)

    def runtime(self):
        from ...core.schemes import GlobalBufferRuntime

        return GlobalBufferRuntime()
