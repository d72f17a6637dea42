"""P-SSP-LV: per-critical-local-variable canaries (paper §IV-B, Algorithm 2).

Each critical variable gets a distinct canary in the adjacent word just
*above* it (so overflowing the variable kills its own canary before
reaching anything else); the topmost canary sits at ``[rbp-8]`` guarding
the saved frame pointer and return address.  All but the last canary are
drawn with ``rdrand``; the last is computed so that the XOR of every
canary in the frame equals the TLS canary ``C`` — the epilogue (and the
optional post-write inspections) check exactly that collective property.

With ``m`` critical variables the prologue performs ``m - 1`` ``rdrand``
draws, matching the paper's Table V costs (2 variables ≈ one draw ≈
P-SSP-NT; 4 variables ≈ three draws ≈ 3×).

Variable selection follows §V-E2: variables declared with the MiniC
``critical`` qualifier are protected; when a function contains buffers
but marks none critical, every local array is treated as critical
(the paper's "compiler discovers sensitive local variables" option).
"""

from __future__ import annotations

from typing import List

from ...isa.instructions import REGS, Label, Mem, Sym
from ...machine.tls import CANARY_OFFSET
from ..ast_nodes import Declaration, FunctionDecl
from .base import FramePlan, ProtectionPass, _align


class PSSPLVPass(ProtectionPass):
    """Local-variable protection built on per-call re-randomization.

    Parameters
    ----------
    check_on_write:
        Also splice a canary inspection after calls to overflow-prone
        libc routines (``strcpy``, ``read``, ...), catching local-variable
        corruption before the function returns (§IV-B's "too late at
        function return" concern).
    """

    name = "pssp-lv"

    def __init__(self, check_on_write: bool = True) -> None:
        self.check_on_write = check_on_write

    # -- selection ----------------------------------------------------------

    def _critical_declarations(self, decl: FunctionDecl) -> List[Declaration]:
        declarations = decl.local_declarations()
        critical = [d for d in declarations if d.critical]
        if critical:
            return critical
        return [d for d in declarations if d.ctype.is_array]

    def should_protect(self, decl: FunctionDecl) -> bool:
        return bool(self._critical_declarations(decl))

    # -- layout ----------------------------------------------------------------

    def plan_frame(self, decl: FunctionDecl) -> FramePlan:
        plan = FramePlan(decl.name)
        plan.protected = self.should_protect(decl)
        if not plan.protected:
            return super().plan_frame(decl)
        critical = self._critical_declarations(decl)
        critical_names = {d.name for d in critical}
        cursor = 0
        # With a single critical variable, m canaries would mean m-1 = 0
        # random draws and the frame canary would be the TLS canary
        # verbatim — constant across forks, handing byte-by-byte right
        # back to the attacker.  Guarantee polymorphism by always keeping
        # at least two canaries (one rdrand-fresh): the extra top slot
        # doubles as the return-address guard.
        if len(critical) == 1:
            cursor += 8
            plan.canary_slots.append(cursor)
        # Interleave: canary above each critical variable, in declaration
        # order from the top of the frame downward.
        for declaration in critical:
            cursor += 8
            plan.canary_slots.append(cursor)
            size = _align(declaration.ctype.size, 8)
            cursor += size
            plan.add(declaration.name, declaration.ctype, cursor,
                     critical=True)
        for declaration in decl.local_declarations():
            if declaration.name in critical_names:
                continue
            size = _align(declaration.ctype.size, 8)
            cursor += size
            plan.add(declaration.name, declaration.ctype, cursor,
                     critical=False)
        for param in decl.params:
            cursor += 8
            plan.add(param.name, param.ctype, cursor, is_param=True)
        plan.frame_size = _align(cursor, 16)
        return plan

    # -- instrumentation ----------------------------------------------------------

    def emit_prologue(self, function, plan: FramePlan) -> None:
        if not plan.protected:
            return
        slots = plan.canary_slots
        count = len(slots)
        for j, slot in enumerate(slots[:-1]):
            function.emit("rdrand", REGS["rax"], note="pssp-lv-prologue")
            function.emit("mov", Mem(base="rbp", disp=-slot), REGS["rax"],
                          note="pssp-lv-prologue")
            if j == 0:
                function.emit("mov", REGS["rcx"], REGS["rax"],
                              note="pssp-lv-prologue")
            else:
                function.emit("xor", REGS["rcx"], REGS["rax"],
                              note="pssp-lv-prologue")
        # Last canary: computed so the XOR of all canaries equals C.
        function.emit("mov", REGS["rax"], Mem(seg="fs", disp=CANARY_OFFSET),
                      note="pssp-lv-prologue")
        if count > 1:
            function.emit("xor", REGS["rax"], REGS["rcx"], note="pssp-lv-prologue")
        function.emit("mov", Mem(base="rbp", disp=-slots[-1]), REGS["rax"],
                      note="pssp-lv-prologue")
        function.emit("xor", REGS["rax"], REGS["rax"], note="pssp-lv-prologue")
        function.emit("xor", REGS["rcx"], REGS["rcx"], note="pssp-lv-prologue")

    def _check(self, function, plan: FramePlan, note: str) -> None:
        slots = plan.canary_slots
        ok = function.fresh_label("lv_ok")
        function.emit("mov", REGS["rdx"], Mem(base="rbp", disp=-slots[0]), note=note)
        for slot in slots[1:]:
            function.emit("xor", REGS["rdx"], Mem(base="rbp", disp=-slot), note=note)
        function.emit("xor", REGS["rdx"], Mem(seg="fs", disp=CANARY_OFFSET), note=note)
        function.emit("je", Label(ok), note=note)
        function.emit("call", Sym("__stack_chk_fail"), note=note)
        function.label_here(ok)

    def emit_epilogue_check(self, function, plan: FramePlan) -> None:
        if plan.protected:
            self._check(function, plan, "pssp-lv-epilogue")

    def post_call_check(self, function, plan: FramePlan, callee: str) -> None:
        if not (plan.protected and self.check_on_write):
            return
        from ...libc.builtins import OVERFLOW_VECTORS

        if callee in OVERFLOW_VECTORS:
            self._check(function, plan, "pssp-lv-postwrite")
