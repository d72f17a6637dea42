"""P-SSP-NT: per-call re-randomization, no TLS update (paper §IV-A, Code 7).

Every prologue draws a fresh ``C0`` with ``rdrand`` and stores
``C1 = C0 ⊕ C`` next to it; the epilogue is identical to P-SSP's.  No
preload library, no fork wrapper, no TLS layout change — the easiest
scheme to deploy, at the price of ~340 ``rdrand`` cycles per protected
call (Table V).

The plain pass trusts the ISA contract blindly: ``rdrand`` leaves CF=0
and ``rax = 0`` on failure, so a starved DRBG silently degrades the pair
to ``(0, C)`` — a *predictable* canary.  :class:`PSSPNTHardenedPass`
closes that hole with a bounded retry loop (``nop`` pause between
attempts, Intel's recommended shape) and a fail-closed fallback onto the
TLS shadow pair, which its runtime keeps initialised exactly like
compiler-mode P-SSP.
"""

from __future__ import annotations

from ...faults.policy import RDRAND_RETRY_LIMIT
from ...isa.instructions import REGS, Imm, Label, Mem
from ...machine.tls import CANARY_OFFSET, SHADOW_C0_OFFSET, SHADOW_C1_OFFSET
from .base import FramePlan
from .pssp import PSSPPass


class PSSPNTPass(PSSPPass):
    """Polymorphic SSP without TLS update: per-frame canaries."""

    name = "pssp-nt"

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        c0_slot, c1_slot = plan.canary_slots[0], plan.canary_slots[1]
        function.emit("rdrand", REGS["rax"], note="pssp-nt-prologue")
        function.emit("mov", Mem(base="rbp", disp=-c0_slot), REGS["rax"],
                      note="pssp-nt-prologue")
        function.emit("mov", REGS["rcx"], Mem(seg="fs", disp=CANARY_OFFSET),
                      note="pssp-nt-prologue")
        function.emit("xor", REGS["rcx"], REGS["rax"], note="pssp-nt-prologue")
        function.emit("mov", Mem(base="rbp", disp=-c1_slot), REGS["rcx"],
                      note="pssp-nt-prologue")
        function.emit("xor", REGS["rax"], REGS["rax"], note="pssp-nt-prologue")
        function.emit("xor", REGS["rcx"], REGS["rcx"], note="pssp-nt-prologue")

    def runtime(self):
        return None  # the whole point: no runtime support needed


class PSSPNTHardenedPass(PSSPNTPass):
    """P-SSP-NT with a degradation-aware prologue.

    Fresh path: up to :data:`RDRAND_RETRY_LIMIT` ``rdrand`` attempts
    (CF checked with ``jb``) before giving up on per-call entropy.
    Fallback path: load the TLS shadow pair — maintained by
    :class:`~repro.core.schemes.HardenedNTRuntime`'s preload — so the
    frame still carries an unpredictable, ``C``-bound pair.  Instruction
    notes distinguish the two stores ("…-hardened-c0" vs "…-fallback-c0")
    so the chaos auditor can tell a fresh draw from a fallback and flag
    any zero/stuck canary that slips through.
    """

    name = "pssp-nt-hardened"

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        c0_slot, c1_slot = plan.canary_slots[0], plan.canary_slots[1]
        note = "pssp-nt-hardened"
        retry = function.fresh_label("ntrh_retry")
        fresh_ok = function.fresh_label("ntrh_ok")
        done = function.fresh_label("ntrh_done")
        # rdx is free here: parameters are spilled to frame slots before
        # the protection prologue runs (codegen emits spills first).
        function.emit("mov", REGS["rdx"], Imm(RDRAND_RETRY_LIMIT), note=note)
        function.label_here(retry)
        function.emit("rdrand", REGS["rax"], note=note)
        function.emit("jb", Label(fresh_ok), note=note)
        function.emit("nop", note=note)  # pause-style backoff between attempts
        function.emit("dec", REGS["rdx"], note=note)
        function.emit("jne", Label(retry), note=note)
        # Retry budget exhausted: fail closed onto the TLS shadow pair.
        function.emit("mov", REGS["rax"], Mem(seg="fs", disp=SHADOW_C0_OFFSET),
                      note="pssp-nt-fallback")
        function.emit("mov", Mem(base="rbp", disp=-c0_slot), REGS["rax"],
                      note="pssp-nt-fallback-c0")
        function.emit("mov", REGS["rcx"], Mem(seg="fs", disp=SHADOW_C1_OFFSET),
                      note="pssp-nt-fallback")
        function.emit("mov", Mem(base="rbp", disp=-c1_slot), REGS["rcx"],
                      note="pssp-nt-fallback")
        function.emit("jmp", Label(done), note=note)
        function.label_here(fresh_ok)
        function.emit("mov", Mem(base="rbp", disp=-c0_slot), REGS["rax"],
                      note="pssp-nt-hardened-c0")
        function.emit("mov", REGS["rcx"], Mem(seg="fs", disp=CANARY_OFFSET),
                      note=note)
        function.emit("xor", REGS["rcx"], REGS["rax"], note=note)
        function.emit("mov", Mem(base="rbp", disp=-c1_slot), REGS["rcx"],
                      note=note)
        function.label_here(done)
        function.emit("xor", REGS["rax"], REGS["rax"], note=note)
        function.emit("xor", REGS["rcx"], REGS["rcx"], note=note)
        function.emit("xor", REGS["rdx"], REGS["rdx"], note=note)

    def runtime(self):
        from ...core.schemes import HardenedNTRuntime

        return HardenedNTRuntime()
