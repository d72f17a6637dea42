"""Ablation variants of the paper's design choices.

These exist to *demonstrate why the paper's choices matter*, each paired
with a bench in ``benchmarks/``:

* :class:`NoNonceOWFPass` — P-SSP-OWF without the rdtsc nonce.  The paper
  warns (§IV-C) that omitting the nonce makes the canary a deterministic
  function of the return address, "subject to the byte-by-byte attack";
  the ablation bench shows exactly that.
* :func:`instrument_binary_inline` — the rewriter alternative the paper
  rejects: splice the full split-xor-compare into every epilogue instead
  of folding it into ``__stack_chk_fail``.  Semantically fine, but the
  epilogue grows, breaking address-layout preservation (functions must be
  relocated) and inflating code size — the bench quantifies it.
"""

from __future__ import annotations

from ..binfmt.elf import Binary
from ..compiler.passes.base import ProtectionPass
from ..compiler.passes.manager import available_passes, register_pass
from ..compiler.passes.pssp_owf import PSSPOWFPass
from ..isa.instructions import Imm, Label, Mem, Reg, Sym, ins
from ..machine.tls import CANARY_OFFSET, SHADOW_C0_OFFSET
from ..rewriter.matcher import find_epilogues, find_prologues
from ..rewriter.rewrite import RewriteError
from .deploy import SCHEMES, SchemeSpec
from .schemes import OWFRuntime, SchemeRuntime


class TlsHalfPass(ProtectionPass):
    """The §VII-C *rejected* design: keep C0 in the TLS, store only C1.

    "One might suggest to place C0 in the TLS as the TLS shadow canary
    and compute C1 in every function prologue so that only C1 is used as
    the stack canary. ... Unfortunately ... when the control flow of the
    child returns to its parent's code using stack frames created before
    forking, the parent's epilogue function does not have the proper TLS
    shadow canary (i.e. C0) to check and the program is doomed to crash."

    We implement it exactly to reproduce the crash the paper predicts —
    see ``tests/core/test_ablations.py``.
    """

    name = "pssp-tls-half"

    def canary_bytes(self, decl) -> int:
        return 8

    def emit_prologue(self, function, plan) -> None:
        if not plan.protected:
            return
        note = "tls-half-prologue"
        slot = plan.canary_slots[0]
        # C1 = C0 (TLS shadow) ^ C — only C1 goes on the stack.
        function.emit("mov", Reg("rax"), Mem(seg="fs", disp=SHADOW_C0_OFFSET),
                      note=note)
        function.emit("xor", Reg("rax"), Mem(seg="fs", disp=CANARY_OFFSET),
                      note=note)
        function.emit("mov", Mem(base="rbp", disp=-slot), Reg("rax"), note=note)
        function.emit("xor", Reg("rax"), Reg("rax"), note=note)

    def emit_epilogue_check(self, function, plan) -> None:
        if not plan.protected:
            return
        note = "tls-half-epilogue"
        slot = plan.canary_slots[0]
        ok = function.fresh_label("th_ok")
        function.emit("mov", Reg("rdx"), Mem(base="rbp", disp=-slot), note=note)
        function.emit("xor", Reg("rdx"), Mem(seg="fs", disp=SHADOW_C0_OFFSET),
                      note=note)
        function.emit("xor", Reg("rdx"), Mem(seg="fs", disp=CANARY_OFFSET),
                      note=note)
        function.emit("je", Label(ok), note=note)
        function.emit("call", Sym("__stack_chk_fail"), note=note)
        function.label_here(ok)


class TlsHalfRuntime(SchemeRuntime):
    """Runtime for the rejected variant: refresh the TLS C0 on fork.

    This is the step that dooms it: the child's new C0 no longer matches
    the C1 values sitting in frames inherited from the parent.
    """

    def _refresh(self, process) -> None:
        process.tls.shadow_c0 = process.entropy.word(64)

    def install(self, process) -> None:
        self._refresh(process)
        process.fork_hooks.append(lambda child, parent: self._refresh(child))


class NoNonceOWFPass(PSSPOWFPass):
    """P-SSP-OWF with the nonce zeroed: deliberately weakened.

    The stack canary degenerates to ``AES(key, 0 || ret)`` — fixed for a
    given call site across every fork, which restores the accumulation
    property the byte-by-byte attack needs.
    """

    name = "pssp-owf-nononce"

    def emit_prologue(self, function, plan) -> None:
        if not plan.protected:
            return
        note = "owf-nononce-prologue"
        function.emit("mov", Reg("rax"), Imm(0), note=note)  # no rdtsc!
        function.emit("mov", Mem(base="rbp", disp=-plan.owf_nonce_offset),
                      Reg("rax"), note=note)
        self._mac(function, plan, note)
        function.emit("movdqu", Mem(base="rbp", disp=-plan.owf_cipher_offset),
                      Reg("xmm15"), note=note)


def register_ablation_schemes() -> None:
    """Idempotently register the ablation passes and schemes."""
    from .schemes import PSSPRuntime

    if "pssp-owf-nononce" not in available_passes():
        register_pass("pssp-owf-nononce", NoNonceOWFPass)
    if "pssp-owf-nononce" not in SCHEMES:
        SCHEMES["pssp-owf-nononce"] = SchemeSpec(
            "pssp-owf-nononce", "pssp-owf-nononce", OWFRuntime
        )
    if "pssp-binary-inline" not in SCHEMES:
        SCHEMES["pssp-binary-inline"] = SchemeSpec(
            "pssp-binary-inline", "ssp", lambda: PSSPRuntime("binary"),
            rewrite=instrument_binary_inline,
        )
    if "pssp-tls-half" not in available_passes():
        register_pass("pssp-tls-half", TlsHalfPass)
    if "pssp-tls-half" not in SCHEMES:
        SCHEMES["pssp-tls-half"] = SchemeSpec(
            "pssp-tls-half", "pssp-tls-half", TlsHalfRuntime,
            fork_correct=False,  # the documented §VII-C rejection reason
        )


def instrument_binary_inline(binary: Binary, *, suffix: str = ".inline") -> Binary:
    """Rewrite SSP → P-SSP with the check inlined into every epilogue.

    Unlike :func:`repro.rewriter.rewrite.instrument_binary`, this variant
    makes no attempt at layout preservation: rewritten functions grow and
    would have to be relocated by a real tool.  Returns the instrumented
    binary; compare ``total_size()`` against the original to measure the
    inflation the paper's stub-folding trick avoids.
    """
    from ..machine.tls import SHADOW_C0_OFFSET

    result = binary.clone()
    result.name = binary.name + suffix
    result.protection = "pssp-binary-inline"
    for name, function in list(result.functions.items()):
        prologues = find_prologues(function)
        epilogues = find_epilogues(function)
        if not prologues or not epilogues:
            continue
        clone = function.copy()
        for match in prologues:
            destination = clone.body[match.index].operands[0]
            clone.body[match.index] = ins(
                "mov", destination, Mem(seg="fs", disp=SHADOW_C0_OFFSET),
                note="inline-prologue",
            )
        for match in sorted(epilogues, key=lambda m: m.load_index, reverse=True):
            load = clone.body[match.load_index]
            reg = load.operands[0]
            note = "inline-epilogue"
            # Full split-xor-fold-compare, inline (uses rcx/rsi as scratch).
            replacement = [
                ins("mov", Reg("rcx"), reg, note=note),
                ins("shr", Reg("rcx"), Imm(32), note=note),
                ins("shl", reg, Imm(32), note=note),
                ins("shr", reg, Imm(32), note=note),
                ins("xor", reg, Reg("rcx"), note=note),
                ins("mov", Reg("rcx"), Mem(seg="fs", disp=CANARY_OFFSET), note=note),
                ins("mov", Reg("rsi"), Reg("rcx"), note=note),
                ins("shr", Reg("rsi"), Imm(32), note=note),
                ins("xor", Reg("rcx"), Reg("rsi"), note=note),
                ins("shl", Reg("rcx"), Imm(32), note=note),
                ins("shr", Reg("rcx"), Imm(32), note=note),
                ins("cmp", reg, Reg("rcx"), note=note),
                ins("je", Label(match.ok_label), note=note),
                ins("call", Sym("__GI__fortify_fail"), note=note),
            ]
            old_span = match.call_index + 1 - match.xor_index
            clone.body[match.xor_index : match.call_index + 1] = replacement
            delta = len(replacement) - old_span
            for label_name, index in clone.labels.items():
                if index > match.xor_index:
                    clone.labels[label_name] = index + delta
        clone.protected = "pssp-binary-inline"
        result.functions[name] = clone
    if result.total_size() <= binary.total_size():
        raise RewriteError("inline variant unexpectedly failed to grow")
    return result
