"""Baseline SSP: the classic ``-fstack-protector`` pass.

Emits exactly the paper's Code 1/2 shape: the prologue copies the TLS
canary at ``%fs:0x28`` into ``[rbp-8]``; the epilogue xors the stack copy
against the TLS canary and calls ``__stack_chk_fail`` on mismatch.
"""

from __future__ import annotations

from ...isa.instructions import REGS, Label, Mem, Sym
from ...machine.tls import CANARY_OFFSET
from .base import FramePlan, ProtectionPass


class SSPPass(ProtectionPass):
    """Stack Smashing Protection (the paper's baseline and 'native'
    default — Debian compiles with ``-fstack-protector-strong``)."""

    name = "ssp"

    def canary_bytes(self, decl) -> int:
        return 8

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        function.emit("mov", REGS["rax"], Mem(seg="fs", disp=CANARY_OFFSET),
                      note="ssp-prologue")
        function.emit("mov", Mem(base="rbp", disp=-plan.canary_slots[0]), REGS["rax"],
                      note="ssp-prologue")
        function.emit("xor", REGS["rax"], REGS["rax"], note="ssp-prologue")

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        ok = function.fresh_label("ssp_ok")
        function.emit("mov", REGS["rdx"], Mem(base="rbp", disp=-plan.canary_slots[0]),
                      note="ssp-epilogue")
        function.emit("xor", REGS["rdx"], Mem(seg="fs", disp=CANARY_OFFSET),
                      note="ssp-epilogue")
        function.emit("je", Label(ok), note="ssp-epilogue")
        function.emit("call", Sym("__stack_chk_fail"), note="ssp-epilogue")
        function.label_here(ok)
