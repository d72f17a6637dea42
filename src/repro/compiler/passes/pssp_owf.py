"""P-SSP-OWF: exposure-resilient canaries via a one-way function
(paper §IV-C / §V-E3, Algorithm 3, Code 8/9).

The stack canary is ``AES-128(key = r12||r13, plaintext = rdtsc || ret)``:
a randomized MAC of the return address keyed by a register-resident
secret.  Leaking one frame's canary reveals nothing about the key, and a
canary copied into another frame (different return address) or replayed
later (different nonce) fails verification.

Frame storage: the 64-bit nonce at ``[rbp-8]`` and the 128-bit ciphertext
at ``[rbp-24 .. rbp-9]`` (24 canary bytes total).  The key registers
``r12``/``r13`` are reserved as global register variables and initialised
by the scheme's runtime at program start.
"""

from __future__ import annotations

from ...isa.instructions import REGS, Imm, Label, Mem, Sym
from .base import FramePlan, ProtectionPass


class PSSPOWFPass(ProtectionPass):
    """One-way-function canaries with AES-NI (simulated)."""

    name = "pssp-owf"

    def canary_bytes(self, decl) -> int:
        return 24

    def plan_frame(self, decl) -> FramePlan:
        plan = super().plan_frame(decl)
        if plan.protected:
            plan.owf_nonce_offset = plan.canary_slots[0]      # [rbp-8]
            plan.owf_cipher_offset = plan.canary_slots[2]     # [rbp-24]
        return plan

    def _mac(self, function, plan: FramePlan, note: str,
             nonce_reg: str = "rax") -> None:
        """Shared tail: pack plaintext/key into xmm and encrypt.

        Precondition: ``nonce_reg`` holds the 64-bit nonce.  The epilogue
        uses ``r11`` so the function's return value in ``rax`` survives.
        """
        function.emit("movq", REGS["xmm15"], REGS[nonce_reg], note=note)
        function.emit("movhps", REGS["xmm15"], Mem(base="rbp", disp=8), note=note)
        function.emit("movq", REGS["xmm1"], REGS["r13"], note=note)
        function.emit("punpckhdq", REGS["xmm1"], REGS["r12"], note=note)
        function.emit("call", Sym("AES_ENCRYPT_128"), note=note)

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "pssp-owf-prologue"
        function.emit("rdtsc", note=note)
        function.emit("shl", REGS["rdx"], Imm(32), note=note)
        function.emit("or", REGS["rax"], REGS["rdx"], note=note)
        function.emit("mov", Mem(base="rbp", disp=-plan.owf_nonce_offset),
                      REGS["rax"], note=note)
        self._mac(function, plan, note)
        function.emit("movdqu", Mem(base="rbp", disp=-plan.owf_cipher_offset),
                      REGS["xmm15"], note=note)

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        note = "pssp-owf-epilogue"
        ok = function.fresh_label("owf_ok")
        function.emit("mov", REGS["r11"],
                      Mem(base="rbp", disp=-plan.owf_nonce_offset), note=note)
        self._mac(function, plan, note, nonce_reg="r11")
        function.emit("comiss", REGS["xmm15"],
                      Mem(base="rbp", disp=-plan.owf_cipher_offset), note=note)
        function.emit("je", Label(ok), note=note)
        function.emit("call", Sym("__stack_chk_fail"), note=note)
        function.label_here(ok)

    def runtime(self):
        from ...core.schemes import OWFRuntime

        return OWFRuntime()
