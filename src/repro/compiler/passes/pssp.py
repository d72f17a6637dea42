"""Compiler-based P-SSP (the paper's basic scheme, Code 3/4).

The prologue copies the TLS *shadow* canary pair ``(C0, C1)`` from
``fs:0x2a8``/``fs:0x2b0`` into the frame; the epilogue checks
``C0 ⊕ C1 == C`` against the unchanged TLS canary at ``fs:0x28``.

Re-randomization happens at fork/thread-creation time in the preload
library (``repro.libc.preload``), not here — the pass itself is as cheap
as SSP plus one extra copy, which is why the paper measures only 0.24 %
overhead.
"""

from __future__ import annotations

from ...isa.instructions import REGS, Label, Mem, Sym
from ...machine.tls import CANARY_OFFSET, SHADOW_C0_OFFSET, SHADOW_C1_OFFSET
from .base import FramePlan, ProtectionPass


class PSSPPass(ProtectionPass):
    """Polymorphic SSP, fork-time re-randomization (16-byte stack canary:
    ``C0`` at ``[rbp-8]``, ``C1`` at ``[rbp-16]``)."""

    name = "pssp"

    def canary_bytes(self, decl) -> int:
        return 16

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        c0_slot, c1_slot = plan.canary_slots[0], plan.canary_slots[1]
        function.emit("mov", REGS["rax"], Mem(seg="fs", disp=SHADOW_C0_OFFSET),
                      note="pssp-prologue")
        function.emit("mov", Mem(base="rbp", disp=-c0_slot), REGS["rax"],
                      note="pssp-prologue")
        function.emit("mov", REGS["rax"], Mem(seg="fs", disp=SHADOW_C1_OFFSET),
                      note="pssp-prologue")
        function.emit("mov", Mem(base="rbp", disp=-c1_slot), REGS["rax"],
                      note="pssp-prologue")
        function.emit("xor", REGS["rax"], REGS["rax"], note="pssp-prologue")

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        c0_slot, c1_slot = plan.canary_slots[0], plan.canary_slots[1]
        ok = function.fresh_label("pssp_ok")
        function.emit("mov", REGS["rdx"], Mem(base="rbp", disp=-c0_slot),
                      note="pssp-epilogue")
        function.emit("mov", REGS["rdi"], Mem(base="rbp", disp=-c1_slot),
                      note="pssp-epilogue")
        function.emit("xor", REGS["rdx"], REGS["rdi"], note="pssp-epilogue")
        function.emit("xor", REGS["rdx"], Mem(seg="fs", disp=CANARY_OFFSET),
                      note="pssp-epilogue")
        function.emit("je", Label(ok), note="pssp-epilogue")
        function.emit("call", Sym("__stack_chk_fail"), note="pssp-epilogue")
        function.label_here(ok)

    def runtime(self):
        from ...libc.preload import PSSPPreload

        return PSSPPreload(mode="compiler")
