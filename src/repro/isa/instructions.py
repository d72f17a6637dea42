"""Instruction and operand model.

An :class:`Instruction` is a mnemonic plus operands; functions are lists of
instructions with a side table of label positions.  The operand model keeps
exactly the addressing modes the paper's listings use:

* register          — ``Reg("rax")``
* immediate         — ``Imm(0x10)``
* memory            — ``Mem(base="rbp", disp=-0x8)`` → ``-0x8(%rbp)``
* TLS memory        — ``Mem(seg="fs", disp=0x28)``   → ``%fs:0x28``
* jump label        — ``Label("out")``
* symbol            — ``Sym("__stack_chk_fail")`` for calls/lea

Instructions are value objects; rewriting tools build new ones rather than
mutating in place, except the binary rewriter which performs documented
in-place splices (that is its whole job).

The constructors that codegen, the protection passes and the rewriter use
(:meth:`Function.emit` and :func:`ins`) intern their results: each
distinct ``(op, operands, note)`` value is built once per process and
shared, with its operands, by every function that emits it.  Facts
derived from an instruction (encoded length, cycle cost, decoded step)
are then memoised once per value.  Direct ``Instruction(...)``
construction stays valid: equality is by value, so such an instruction
only misses out on the sharing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple, Union

from .registers import GPRS, XMMS, is_gpr, is_xmm


@dataclass(frozen=True)
class Reg:
    """A register operand."""

    name: str

    def __post_init__(self) -> None:
        if not (is_gpr(self.name) or is_xmm(self.name)):
            raise ValueError(f"unknown register {self.name!r}")

    def __str__(self) -> str:
        return f"%{self.name}"


#: One validated :class:`Reg` per register name.  Codegen and the
#: protection passes take their register operands from here, so the
#: name check runs once per register, not once per emitted operand.
REGS: Dict[str, Reg] = {name: Reg(name) for name in GPRS + XMMS}


@dataclass(frozen=True)
class Imm:
    """An immediate operand (unsigned or signed integer constant)."""

    value: int

    def __str__(self) -> str:
        return f"${self.value:#x}" if abs(self.value) > 9 else f"${self.value}"


@dataclass(frozen=True)
class Mem:
    """A memory operand: ``disp(base)`` or segment-relative ``seg:disp``.

    ``index``/``scale`` support indexed accesses emitted by the compiler
    for array subscripts: ``disp(base, index, scale)``.
    """

    base: Optional[str] = None
    disp: int = 0
    seg: Optional[str] = None
    index: Optional[str] = None
    scale: int = 1

    def __str__(self) -> str:
        prefix = f"%{self.seg}:" if self.seg else ""
        if self.base is None and self.index is None:
            return f"{prefix}{self.disp:#x}"
        inner = f"%{self.base}" if self.base else ""
        if self.index:
            inner += f",%{self.index},{self.scale}"
        disp = f"{self.disp:#x}" if self.disp else ""
        return f"{prefix}{disp}({inner})"


@dataclass(frozen=True)
class Label:
    """A branch target within the same function."""

    name: str

    def __str__(self) -> str:
        return self.name


@dataclass(frozen=True)
class Sym:
    """A linkable symbol: call target or address-of (via lea)."""

    name: str

    def __str__(self) -> str:
        return f"<{self.name}>"


Operand = Union[Reg, Imm, Mem, Label, Sym]

#: Mnemonics understood by the CPU.  Grouped for readability.
DATA_OPS = ("mov", "lea", "movzxb", "movb", "xchg")
STACK_OPS = ("push", "pop")
ALU_OPS = (
    "add", "sub", "xor", "or", "and", "shl", "shr", "sar",
    "imul", "idiv", "neg", "not", "inc", "dec",
)
CMP_OPS = ("cmp", "test")
FLOW_OPS = (
    "jmp", "je", "jne", "jl", "jle", "jg", "jge", "jb", "jae",
    "call", "ret", "leave", "nop", "hlt",
)
SPECIAL_OPS = ("rdrand", "rdtsc", "syscall")
XMM_OPS = ("movq", "movhps", "movdqu", "punpckhdq", "comiss", "pxor")

ALL_OPS = frozenset(
    DATA_OPS + STACK_OPS + ALU_OPS + CMP_OPS + FLOW_OPS + SPECIAL_OPS + XMM_OPS
)

CONDITIONAL_JUMPS = frozenset(("je", "jne", "jl", "jle", "jg", "jge", "jb", "jae"))

#: Instructions that may redirect the instruction pointer or stop the CPU.
#: The decode cache uses this to mark steps after which the fast loop must
#: re-derive its position from ``registers.rip`` instead of falling through.
CONTROL_TRANSFER_OPS = CONDITIONAL_JUMPS | frozenset(("jmp", "call", "ret", "hlt"))


@dataclass(frozen=True)
class Instruction:
    """One machine instruction: mnemonic + operand tuple.

    AT&T-flavoured printing is provided for human inspection; operand
    *order* in the tuple is Intel-style (destination first) because that is
    less error-prone to construct programmatically.
    """

    op: str
    operands: Tuple[Operand, ...] = ()
    #: Free-form provenance note ("ssp-prologue", "rewritten", ...) used by
    #: the pattern matcher and by tests; never affects execution.
    note: str = ""

    def __post_init__(self) -> None:
        if self.op not in ALL_OPS:
            raise ValueError(f"unknown mnemonic {self.op!r}")

    def __hash__(self) -> int:
        # Hashed once: every memo of derived facts is keyed by the
        # instruction, and an interned one is looked up many times.
        try:
            return self._hash
        except AttributeError:
            value = hash((self.op, self.operands, self.note))
            object.__setattr__(self, "_hash", value)
            return value

    def __reduce__(self):
        # Pickle the value only: a cached string hash is per-process.
        return Instruction, (self.op, self.operands, self.note)

    def __str__(self) -> str:
        if not self.operands:
            return self.op
        # Print destination last, AT&T style, matching the paper listings.
        ops = list(self.operands)
        if len(ops) >= 2:
            ops = ops[1:] + ops[:1]
        return f"{self.op} " + ",".join(str(o) for o in ops)


_INSTRUCTIONS: Dict[Tuple[str, Tuple[Operand, ...], str], Instruction] = {}
_OPERANDS: Dict[Operand, Operand] = {}


def _interned(op: str, operands: Tuple[Operand, ...], note: str) -> Instruction:
    """The process's one :class:`Instruction` equal to ``op operands``
    with ``note``, built on first request with interned operands."""
    key = (op, operands, note)
    instruction = _INSTRUCTIONS.get(key)
    if instruction is None:
        shared = tuple(_OPERANDS.setdefault(operand, operand) for operand in operands)
        instruction = _INSTRUCTIONS[key] = Instruction(op, shared, note)
    return instruction


def ins(op: str, *operands: Operand, note: str = "") -> Instruction:
    """Shorthand constructor: ``ins("mov", Reg("rax"), Imm(1))`` (interned)."""
    return _interned(op, operands, note)


@dataclass
class Function:
    """A named code object: instruction list plus label table.

    ``labels`` maps a label name to the index of the instruction it
    precedes (possibly ``len(body)`` for an end label).  ``protected``
    records which protection pass instrumented the function, for
    diagnostics and for the binary rewriter's pattern matcher.
    """

    name: str
    body: List[Instruction] = field(default_factory=list)
    labels: Dict[str, int] = field(default_factory=dict)
    protected: str = ""
    #: Source-level metadata: does the function contain a local buffer?
    has_buffer: bool = False
    #: Stack bytes reserved below the saved base pointer.
    frame_size: int = 0
    #: Compiler-provided layout facts (canary slots, buffer offsets...).
    #: The attack framework reads these the way a real adversary reads a
    #: disassembled binary — the paper assumes no binary secrecy.
    meta: Dict[str, object] = field(default_factory=dict)

    def label_here(self, name: str) -> None:
        """Define ``name`` at the current end of the body."""
        self.labels[name] = len(self.body)

    def emit(self, op: str, *operands: Operand, note: str = "") -> None:
        """Append an (interned) instruction."""
        self.body.append(_interned(op, operands, note))

    def fresh_label(self, hint: str = "L") -> str:
        """Reserve a label name unused in this function.

        The name is entered at index -1 until :meth:`label_here` places
        it, so a second ``fresh_label`` before then cannot collide.
        """
        i = len(self.labels)
        while f".{hint}{i}" in self.labels:
            i += 1
        name = f".{hint}{i}"
        self.labels[name] = -1
        return name

    def copy(self) -> "Function":
        """Shallow-ish copy: new body/label containers, shared instructions
        (instructions are immutable so sharing is safe)."""
        clone = Function(self.name, list(self.body), dict(self.labels))
        clone.protected = self.protected
        clone.has_buffer = self.has_buffer
        clone.frame_size = self.frame_size
        clone.meta = dict(self.meta)
        return clone

    def disassemble(self) -> str:
        """Pretty listing with labels interleaved, for docs and debugging."""
        by_index: Dict[int, List[str]] = {}
        for label, index in self.labels.items():
            by_index.setdefault(index, []).append(label)
        lines = [f"{self.name}:"]
        for i, instruction in enumerate(self.body):
            for label in by_index.get(i, ()):
                lines.append(f"{label}:")
            lines.append(f"    {instruction}")
        for label in by_index.get(len(self.body), ()):
            lines.append(f"{label}:")
        return "\n".join(lines)

    def __len__(self) -> int:
        return len(self.body)
