"""Byte-size model for instructions.

The paper's binary rewriter must *preserve the address layout*: it may not
make any rewritten sequence longer than the sequence it replaces (§V-C).
Code-expansion numbers (Table II) are byte counts.  Both require every
instruction to have a definite encoded length.

We do not reproduce real x86-64 encodings bit-for-bit; we use a faithful
*length* model (REX prefixes, ModRM, disp8/disp32, imm widths, segment
override prefixes) so that layout-preservation constraints and expansion
percentages behave like the real tool's.  ``encode`` emits deterministic
pseudo-bytes of exactly that length so binaries have real byte content.
"""

from __future__ import annotations

import hashlib
from functools import cache
from typing import Tuple

from ..errors import AssemblerError
from .instructions import Imm, Instruction, Label, Mem, Operand, Reg, Sym

#: Registers that need a REX.B/R prefix bit (encoded length +0, REX is
#: already counted for 64-bit ops; r8-r15 never add bytes beyond that).
_EXTENDED = frozenset(f"r{i}" for i in range(8, 16))


def _disp_bytes(disp: int) -> int:
    """disp8 vs disp32 as the real encoder would choose."""
    if disp == 0:
        return 0
    return 1 if -128 <= disp <= 127 else 4


def _imm_bytes(value: int) -> int:
    """imm8 / imm32 / imm64 widths."""
    if -128 <= value <= 127:
        return 1
    if -(1 << 31) <= value < (1 << 32):
        return 4
    return 8


def _mem_bytes(mem: Operand, instruction: Instruction) -> int:
    """ModRM + SIB + displacement + segment-override prefix.

    ``mem`` is the operand of an r/m-only form (``push``/``pop``, one-
    operand ALU ops) once a register has been ruled out; anything but a
    memory location has no encoding there.
    """
    if not isinstance(mem, Mem):
        raise AssemblerError(
            f"{instruction}: operand {mem} must be a register or a memory location"
        )
    size = 1  # ModRM
    if mem.index is not None or mem.base in ("rsp", "r12") or mem.base is None:
        size += 1  # SIB (indexed, rsp/r12 base, or disp32-absolute forms)
    if mem.base is None:
        size += 4  # absolute disp32 (with or without segment override)
    else:
        size += _disp_bytes(mem.disp)
    if mem.seg:
        size += 1  # 0x64/0x65 segment override prefix
    return size


@cache
def encoded_length(instruction: Instruction) -> int:
    """Return the modelled byte length of ``instruction``.

    Memoised per instruction value: loader layout, ``function_length``
    and the rewriter ask again for every (interned) instruction they see.
    """
    op = instruction.op
    ops = instruction.operands

    if op in ("ret", "leave", "nop", "hlt"):
        return 1
    if op == "rdtsc":
        return 2
    if op == "rdrand":
        return 4  # 0F C7 /6 with REX
    if op == "syscall":
        return 2

    if op == "push":
        target = ops[0]
        if isinstance(target, Reg):
            return 2 if target.name in _EXTENDED else 1
        if isinstance(target, Imm):
            return 1 + _imm_bytes(target.value) if _imm_bytes(target.value) > 1 else 2
        return 1 + _mem_bytes(target, instruction)  # push m64
    if op == "pop":
        target = ops[0]
        if isinstance(target, Reg):
            return 2 if target.name in _EXTENDED else 1
        return 1 + _mem_bytes(target, instruction)

    if op in ("call", "jmp") and ops and isinstance(ops[0], (Sym, Label)):
        return 5  # rel32
    if op == "call" or op == "jmp":
        return 2  # indirect through register
    if op in ("je", "jne", "jl", "jle", "jg", "jge", "jb", "jae"):
        return 2  # rel8; the assembler never emits rel32 branches

    # Two-operand forms: REX.W + opcode + addressing.
    size = 2  # REX.W prefix + opcode byte
    if op in ("movq", "movhps", "movdqu", "punpckhdq", "comiss", "pxor"):
        size += 1  # 0F escape byte for SSE
    if op in ("shl", "shr", "sar") and len(ops) == 2 and isinstance(ops[1], Imm):
        return size + 1 + 1  # ModRM + imm8
    if op in ("inc", "dec", "neg", "not") and ops:
        target = ops[0]
        if isinstance(target, Reg):
            return size + 1
        return size + _mem_bytes(target, instruction)

    for operand in ops:
        if isinstance(operand, Reg):
            continue  # register operands ride in ModRM, already counted
        if isinstance(operand, Mem):
            size += _mem_bytes(operand, instruction) - 1  # ModRM already counted once
            size += 1
        elif isinstance(operand, Imm):
            width = _imm_bytes(operand.value)
            size += 4 if width == 1 and op == "mov" else width
            # mov reg, imm uses at least imm32; movabs handled below
            if op == "mov" and width == 8:
                size += 4  # movabs imm64
        elif isinstance(operand, Sym):
            size += 4  # RIP-relative disp32 (lea sym)
    if ops and not any(isinstance(o, (Mem, Imm, Sym)) for o in ops):
        size += 1  # reg,reg ModRM
    return size


def function_length(body) -> int:
    """Total encoded bytes of an instruction sequence."""
    return sum(encoded_length(i) for i in body)


def encode(instruction: Instruction) -> bytes:
    """Deterministic pseudo-encoding of exactly ``encoded_length`` bytes.

    The bytes are a truncated hash of the printed instruction: stable,
    content-dependent, and collision-resistant enough for byte-level
    binary comparisons in tests.
    """
    length = encoded_length(instruction)
    digest = hashlib.blake2b(str(instruction).encode(), digest_size=32).digest()
    while len(digest) < length:
        digest += hashlib.blake2b(digest, digest_size=32).digest()
    return digest[:length]


def sequence_lengths(body) -> Tuple[int, ...]:
    """Per-instruction lengths, used by layout-preservation assertions."""
    return tuple(encoded_length(i) for i in body)
