"""Protection-pass framework.

The paper deploys P-SSP as an LLVM ``FunctionPass`` whose
``runOnFunction`` (a) decides whether a function needs protection (it has
a local buffer), (b) reserves canary storage in the frame, and (c) splices
prologue/epilogue instrumentation.  Our compiler mirrors that contract:

* :meth:`ProtectionPass.should_protect` — the per-function decision;
* :meth:`ProtectionPass.plan_frame` — frame layout, including canary
  slots (P-SSP-LV interleaves canaries between critical variables, so the
  pass owns layout, not the code generator);
* :meth:`ProtectionPass.emit_prologue` / :meth:`emit_epilogue_check` —
  the instrumentation sequences;
* :meth:`ProtectionPass.post_call_check` — optional canary inspection
  after overflow-prone libc calls (used by P-SSP-LV, §IV-B).

The three emission hooks receive the :class:`Function` the code
generator is filling and append to it directly (``emit``,
``fresh_label``, ``label_here``).

Frame-layout convention (addresses descending from the saved base
pointer): canary region first (``[rbp-8]`` downward), then arrays —
closest to the canaries, GCC ``-fstack-protector`` style, so a buffer
overflow reaches a canary before anything else — then scalars and spilled
parameters.  An offset ``o`` means the object's lowest byte lives at
``rbp - o``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional

from ...isa.instructions import Function
from ..ast_nodes import FunctionDecl, Type


@dataclass
class FrameVar:
    """One object with a slot in the frame."""

    name: str
    ctype: Type
    offset: int  # lowest byte at rbp - offset
    critical: bool = False
    is_param: bool = False


@dataclass
class FramePlan:
    """The layout a pass chose for one function's frame."""

    function: str
    vars: Dict[str, FrameVar] = field(default_factory=dict)
    #: Offsets of canary words (each 8 bytes at ``rbp - offset``), ordered
    #: from highest address (nearest the return address) downward.
    canary_slots: List[int] = field(default_factory=list)
    #: For P-SSP-OWF: offsets of (nonce, ciphertext) storage instead.
    owf_nonce_offset: int = 0
    owf_cipher_offset: int = 0
    frame_size: int = 0
    protected: bool = False

    def var(self, name: str) -> FrameVar:
        return self.vars[name]

    def add(self, name: str, ctype: Type, offset: int, **kw) -> FrameVar:
        frame_var = FrameVar(name, ctype, offset, **kw)
        self.vars[name] = frame_var
        return frame_var


def _align(value: int, boundary: int) -> int:
    return (value + boundary - 1) & ~(boundary - 1)


class ProtectionPass:
    """Base class: no protection.  Subclasses override the hooks."""

    #: Scheme identifier recorded on compiled functions and binaries.
    name = "none"

    def should_protect(self, decl: FunctionDecl) -> bool:
        """Default policy (matches ``-fstack-protector`` and the paper's
        ``runOnFunction``): protect iff the function has a local array."""
        return decl.has_buffer()

    def canary_bytes(self, decl: FunctionDecl) -> int:
        """Bytes reserved at the top of the frame for canaries."""
        return 0

    # -- layout ----------------------------------------------------------------

    def plan_frame(self, decl: FunctionDecl) -> FramePlan:
        """Standard layout: canaries, then arrays, then scalars/params."""
        plan = FramePlan(decl.name)
        plan.protected = self.should_protect(decl)
        cursor = 0
        if plan.protected:
            reserved = self.canary_bytes(decl)
            for slot in range(reserved // 8):
                cursor += 8
                plan.canary_slots.append(cursor)
            cursor = reserved
        declarations = decl.local_declarations()
        arrays = [d for d in declarations if d.ctype.is_array]
        scalars = [d for d in declarations if not d.ctype.is_array]
        for declaration in arrays:
            size = _align(declaration.ctype.size, 8)
            cursor += size
            plan.add(declaration.name, declaration.ctype, cursor,
                     critical=declaration.critical)
        for param in decl.params:
            cursor += 8
            plan.add(param.name, param.ctype, cursor, is_param=True)
        for declaration in scalars:
            cursor += 8
            plan.add(declaration.name, declaration.ctype, cursor,
                     critical=declaration.critical)
        plan.frame_size = _align(cursor, 16)
        return plan

    # -- instrumentation ----------------------------------------------------------

    def emit_prologue(self, function: Function, plan: FramePlan) -> None:
        """Emit instrumentation right after frame setup (``sub rsp, N``)."""

    def emit_epilogue_check(self, function: Function, plan: FramePlan) -> None:
        """Emit the check sequence immediately before ``leave; ret``.

        On mismatch the sequence must transfer control to
        ``__stack_chk_fail``; on success it must fall through.
        """

    def post_call_check(self, function: Function, plan: FramePlan, callee: str) -> None:
        """Optional inspection after a call to an overflow-prone routine."""

    # -- runtime side ----------------------------------------------------------------

    def runtime(self):
        """The matching runtime support object (preload library / hooks),
        or ``None`` when the scheme needs no runtime (SSP, P-SSP-NT).

        Implemented by schemes in :mod:`repro.core`; the compiler only
        carries it through so deployment stays one call.
        """
        return None

    def __repr__(self) -> str:
        return f"<{type(self).__name__} name={self.name!r}>"


class NoProtection(ProtectionPass):
    """Explicit no-op pass (compiles like ``-fno-stack-protector``)."""

    name = "none"

    def should_protect(self, decl: FunctionDecl) -> bool:
        return False
