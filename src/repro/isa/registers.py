"""Register file definition for the simulated x86-64-flavoured ISA.

The simulator models the registers the paper's code listings actually
touch: the sixteen general-purpose 64-bit registers, the ``xmm`` vector
registers used by the P-SSP-OWF prologue (Code 8/9), the ``fs`` segment
base that anchors Thread Local Storage, the instruction pointer, and the
flags needed by the canary-check compare/branch sequences.
"""

from __future__ import annotations

from typing import Dict, Tuple

#: General-purpose 64-bit registers.
GPRS: Tuple[str, ...] = (
    "rax", "rbx", "rcx", "rdx", "rsi", "rdi", "rbp", "rsp",
    "r8", "r9", "r10", "r11", "r12", "r13", "r14", "r15",
)

#: 128-bit vector registers (only the ones the paper's listings use, plus
#: a few spares so compiled code has scratch space).
XMMS: Tuple[str, ...] = tuple(f"xmm{i}" for i in range(16))

#: Registers that a callee must preserve (System V AMD64 ABI).  The paper
#: relies on r12/r13 being callee-saved to park the AES key there.
CALLEE_SAVED: Tuple[str, ...] = ("rbx", "rbp", "r12", "r13", "r14", "r15")

#: Registers a caller must assume are clobbered by a call.
CALLER_SAVED: Tuple[str, ...] = (
    "rax", "rcx", "rdx", "rsi", "rdi", "r8", "r9", "r10", "r11",
)

#: Integer-argument registers in ABI order.
ARG_REGS: Tuple[str, ...] = ("rdi", "rsi", "rdx", "rcx", "r8", "r9")

WORD_MASK = (1 << 64) - 1
XMM_MASK = (1 << 128) - 1


def is_gpr(name: str) -> bool:
    """True if ``name`` is a general-purpose register."""
    return name in _GPR_SET


def is_xmm(name: str) -> bool:
    """True if ``name`` is a vector register."""
    return name in _XMM_SET


_GPR_SET = frozenset(GPRS)
_XMM_SET = frozenset(XMMS)


class RegisterFile:
    """Mutable register state for one hardware thread.

    Values are stored as unsigned integers (64-bit for GPRs, 128-bit for
    xmm).  ``fs_base`` holds the TLS segment base used to resolve
    ``fs:[disp]`` operands.  Flags follow x86 naming: ``zf`` (zero),
    ``sf`` (sign), ``cf`` (carry).
    """

    __slots__ = ("gpr", "xmm", "fs_base", "rip", "zf", "sf", "cf")

    def __init__(self) -> None:
        self.gpr: Dict[str, int] = {name: 0 for name in GPRS}
        self.xmm: Dict[str, int] = {name: 0 for name in XMMS}
        self.fs_base = 0
        #: (function name, instruction index) program counter.
        self.rip: Tuple[str, int] = ("", 0)
        self.zf = False
        self.sf = False
        self.cf = False

    def read(self, name: str) -> int:
        """Read a register by name (GPR or xmm)."""
        if name in self.gpr:
            return self.gpr[name]
        return self.xmm[name]

    def write(self, name: str, value: int) -> None:
        """Write a register by name, masking to its width."""
        if name in self.gpr:
            self.gpr[name] = value & WORD_MASK
        else:
            self.xmm[name] = value & XMM_MASK

    def snapshot(self) -> "RegisterFile":
        """Deep copy, used by ``fork`` to duplicate CPU state."""
        clone = RegisterFile.__new__(RegisterFile)
        clone.gpr = dict(self.gpr)
        clone.xmm = dict(self.xmm)
        clone.fs_base = self.fs_base
        clone.rip = self.rip
        clone.zf = self.zf
        clone.sf = self.sf
        clone.cf = self.cf
        return clone

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        hot = {r: v for r, v in self.gpr.items() if v}
        return f"RegisterFile(rip={self.rip}, zf={self.zf}, {hot})"
