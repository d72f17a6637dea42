"""Decode cache: lower :class:`Function` bodies into CPU-parametric steps.

The slow interpreter path re-answers the same questions for every dynamic
instruction: which handler implements the mnemonic, what it costs, what
operand kinds it has, and which addresses they resolve to.  For a given
(image, Function) pair almost all of those answers are static, so this
module answers them once per *static* instruction and captures the result
in a closure ("step"); the CPU's fast loop then just walks a step list.

Every step is a 5-tuple ``(execute, cycles, ticks, kind, next_rip)``:

* ``execute(C)`` — the instruction's semantics against CPU ``C``, with
  operand shapes (register names, pre-computed effective-address
  components, pre-masked immediates, resolved symbols) fixed at decode
  time and per-process state reached through ``C``;
* ``cycles``    — the DBI-scaled cycle charge (exactly what
  ``CPU.charge`` would have added to ``CPU.cycles``);
* ``ticks``     — the matching TSC advance (``int(cycles) or 1``),
  pre-computed so batched accounting lands on the slow path's values;
* ``kind``      — bit flags: :data:`CONTROL` (may redirect rip or stop
  the CPU) and :data:`SYNC` (observable accounting: the loop must flush
  pending cycles before executing — ``rdtsc``, and calls that may reach a
  native helper which ``charge()``\\ s);
* ``next_rip``  — the pre-built ``(function_name, index + 1)`` tuple the
  loop stores into ``registers.rip`` before executing, so faults, calls
  and return-address pushes observe exactly the same program counter as
  the slow path.

Steps close over the loaded image (symbol addresses, callee ``Function``
objects, ``resolve``) and the DBI multiplier, never over a CPU: ``C``
supplies the register file (``C.registers``, ``C.gpr``) and the memory
accessors (``C.read_word``, ``C.write_word``, ``C.read_byte``,
``C.write_byte``), which the CPU binds once at construction.  One
:class:`DecodedFunction` therefore serves every CPU that runs on the same
image — the booted parent, its fork children and its threads, and every
live unpatched clone of the same spawn image — until the image's
``code_generation`` moves (see ``CPU._decoded``).

Canary sites (:func:`repro.telemetry.canary_sites`: group leaders and
audited C0 stores) carry one extra wrapper that runs the shared
:func:`repro.telemetry.canary_probe` before the step.  The probe reads
the telemetry switch and the CPU's watch at run time, so no observation
state is baked into a step.

Mnemonics without a specialised compiler fall back to a closure over the
slow-path handler, which keeps semantics authoritative in one place: the
fast path can be *faster* but never *different*.  The differential test
(`tests/machine/test_fast_path_differential.py`) enforces that.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..errors import IllegalInstruction, InvalidJump
from ..isa.costs import step_cost
from ..isa.instructions import (
    CONTROL_TRANSFER_OPS,
    Function,
    Imm,
    Instruction,
    Label,
    Mem,
    Reg,
    Sym,
)
from ..isa.registers import GPRS
from .memory import EXIT_ADDRESS

WORD_MASK = (1 << 64) - 1
XMM_MASK = (1 << 128) - 1
SIGN_BIT = 1 << 63
TWO64 = 1 << 64

#: Step kind flags (see module docstring).
STRAIGHT = 0
CONTROL = 1
SYNC = 2


#: Register names the ``gpr`` dictionary holds; any other register operand
#: is an xmm register.
_GPRS = frozenset(GPRS)

Step = Tuple[Callable[[object], None], float, int, int, Tuple[str, int]]


def _probed(execute, site):
    """Wrap a canary-site step: run the shared probe, then the step.

    The probe is looked up on :mod:`repro.telemetry` at every call, never
    captured: decoded steps outlive the deploy that made them (they are
    shared by every live clone of a spawn image), so they must not pin
    module state that a caller may swap in between.
    """

    def probed(C) -> None:
        telemetry.canary_probe(C, site)
        execute(C)

    return probed


class DecodedFunction:
    """A function lowered to a step list, shared by every CPU on one image.

    :meth:`FunctionDecoder.decode` builds it and ``CPU._decoded`` files it
    in the image's shared store; each CPU then runs it through its own
    :class:`DecodedView`.  ``sites`` is the function's canary-site table
    (:func:`repro.telemetry.canary_sites`): every step it names is
    wrapped with the canary probe, and the trace-JIT side-exits there.
    """

    __slots__ = ("function", "steps", "sites")

    def __init__(
        self,
        function: Function,
        steps: List[Step],
        sites: Dict[int, telemetry.CanarySite],
    ) -> None:
        self.function = function
        self.steps = steps
        self.sites = sites


class DecodedView:
    """One CPU's handle on a shared :class:`DecodedFunction`.

    ``steps`` is the shared list itself, not a copy.  The trace-JIT tier
    (:mod:`repro.machine.jit`) hangs its per-CPU state here —
    ``jit_blocks`` maps dispatch indices to compiled superblocks (or
    ``None`` for rejected anchors) and ``jit_counts`` holds arrival counts
    for not-yet-hot anchors — because a superblock binds one CPU's
    accessors.  Every event that drops the CPU's views (``code_generation``
    bump, DBI change, explicit flush) drops the superblocks along with
    them.
    """

    __slots__ = ("function", "steps", "sites", "jit_blocks", "jit_counts")

    def __init__(self, decoded: DecodedFunction) -> None:
        self.function = decoded.function
        self.steps = decoded.steps
        self.sites = decoded.sites
        self.jit_blocks: dict = {}
        self.jit_counts: dict = {}


class FunctionDecoder:
    """Compiles :class:`Function` bodies into CPU-parametric step lists.

    A decoder is bound to one image and one DBI multiplier: besides the
    function itself, those are the only inputs its steps depend on.
    """

    def __init__(self, image, dispatch, dbi_multiplier: float = 1.0) -> None:
        self.image = image
        self.dbi_multiplier = dbi_multiplier
        self._dispatch = dispatch
        self._compilers = {
            "nop": self._c_nop,
            "hlt": self._c_hlt,
            "mov": self._c_mov,
            "movb": self._c_movb,
            "movzxb": self._c_movzxb,
            "lea": self._c_lea,
            "push": self._c_push,
            "pop": self._c_pop,
            "add": self._c_add,
            "sub": self._c_sub,
            "xor": self._c_xor,
            "or": self._c_or,
            "and": self._c_and,
            "shl": self._c_shl,
            "shr": self._c_shr,
            "sar": self._c_sar,
            "imul": self._c_imul,
            "inc": self._c_inc,
            "dec": self._c_dec,
            "neg": self._c_neg,
            "not": self._c_not,
            "cmp": self._c_cmp,
            "test": self._c_test,
            "jmp": self._c_jmp,
            "je": self._c_je,
            "jne": self._c_jne,
            "jl": self._c_jl,
            "jle": self._c_jle,
            "jg": self._c_jg,
            "jge": self._c_jge,
            "jb": self._c_jb,
            "jae": self._c_jae,
            "call": self._c_call,
            "ret": self._c_ret,
            "leave": self._c_leave,
        }

    # ------------------------------------------------------------------
    # entry point
    # ------------------------------------------------------------------

    def decode(self, function: Function) -> DecodedFunction:
        """Lower ``function`` into a :class:`DecodedFunction`.

        Every canary site's step is wrapped once with the canary probe,
        whatever the telemetry state or watch: the probe decides at run
        time, so the steps never need re-decoding when either changes.
        """
        dbi = self.dbi_multiplier
        name = function.name
        sites = telemetry.canary_sites(function)
        steps: List[Step] = []
        for index, instruction in enumerate(function.body):
            cycles, ticks = step_cost(instruction, dbi)
            compiled = None
            compiler = self._compilers.get(instruction.op)
            if compiler is not None:
                compiled = compiler(function, index, instruction)
            if compiled is None:
                compiled = self._generic(instruction)
            execute, kind = compiled
            site = sites.get(index)
            if site is not None:
                execute = _probed(execute, site)
            steps.append((execute, cycles, ticks, kind, (name, index + 1)))
        return DecodedFunction(function, steps, sites)

    # ------------------------------------------------------------------
    # fallback: wrap the slow-path handler
    # ------------------------------------------------------------------

    def _generic(self, instruction: Instruction):
        op = instruction.op
        handler = self._dispatch.get(op)
        if handler is None:

            def missing(C) -> None:
                raise IllegalInstruction(f"no semantics for {op!r}")

            return missing, STRAIGHT
        kind = STRAIGHT
        if op in CONTROL_TRANSFER_OPS:
            kind |= CONTROL
        if op in ("rdtsc", "call"):
            # rdtsc observes the TSC; an un-specialised call may reach a
            # native helper that charges cycles.  Both need exact state.
            kind |= SYNC

        def execute(C) -> None:
            handler(C, instruction)

        return execute, kind

    # ------------------------------------------------------------------
    # operand accessor compilation
    # ------------------------------------------------------------------

    def _ea(self, m: Mem) -> Optional[Callable[[object], int]]:
        """Compile an effective-address thunk, or ``None`` if not possible."""
        disp, base, index, scale = m.disp, m.base, m.index, m.scale
        if base is not None and base not in _GPRS:
            return None
        if index is not None and index not in _GPRS:
            return None
        if m.seg is not None:
            if m.seg != "fs":
                return None  # generic path raises IllegalInstruction at exec
            if base is None and index is None:
                return lambda C: (C.registers.fs_base + disp) & WORD_MASK
            if index is None:
                return lambda C: (
                    C.registers.fs_base + disp + C.gpr[base]
                ) & WORD_MASK
            if base is None:
                return lambda C: (
                    C.registers.fs_base + disp + C.gpr[index] * scale
                ) & WORD_MASK

            def fs_base_index(C) -> int:
                gpr = C.gpr
                return (
                    C.registers.fs_base + disp + gpr[base] + gpr[index] * scale
                ) & WORD_MASK

            return fs_base_index
        if base is not None and index is None:
            if disp == 0:
                return lambda C: C.gpr[base]
            return lambda C: (C.gpr[base] + disp) & WORD_MASK
        if base is not None:

            def base_index(C) -> int:
                gpr = C.gpr
                return (gpr[base] + gpr[index] * scale + disp) & WORD_MASK

            return base_index
        if index is not None:
            return lambda C: (C.gpr[index] * scale + disp) & WORD_MASK
        address = disp & WORD_MASK
        return lambda C: address

    def _read(self, operand, width: int = 8) -> Optional[Callable[[object], int]]:
        """Compile a read thunk mirroring ``CPU.read_operand``."""
        if isinstance(operand, Reg):
            name = operand.name
            if name in _GPRS:
                return lambda C: C.gpr[name]
            return lambda C: C.registers.xmm[name]
        if isinstance(operand, Imm):
            value = operand.value & WORD_MASK
            return lambda C: value
        if isinstance(operand, Mem):
            ea = self._ea(operand)
            if ea is None:
                return None
            if width == 8:
                return lambda C: C.read_word(ea(C))
            if width == 1:
                return lambda C: C.read_byte(ea(C))
            if width == 16:

                def read16(C) -> int:
                    address = ea(C)
                    read_word = C.read_word
                    return (read_word(address + 8) << 64) | read_word(address)

                return read16
            return None
        if isinstance(operand, Sym):
            image = self.image
            symbol = operand.name
            try:
                value = image.address_of(symbol)
            except Exception:
                # Unresolved now; defer (and fail) at execution time, like
                # the slow path does.
                return lambda C: image.address_of(symbol)
            return lambda C: value
        return None

    def _write(self, operand, width: int = 8) -> Optional[Callable[[object, int], None]]:
        """Compile a write thunk mirroring ``CPU.write_operand``."""
        if isinstance(operand, Reg):
            name = operand.name
            if name in _GPRS:

                def write_gpr(C, value: int) -> None:
                    C.gpr[name] = value & WORD_MASK

                return write_gpr

            def write_xmm(C, value: int) -> None:
                C.registers.xmm[name] = value & XMM_MASK

            return write_xmm
        if isinstance(operand, Mem):
            ea = self._ea(operand)
            if ea is None:
                return None
            if width == 8:
                return lambda C, value: C.write_word(ea(C), value & WORD_MASK)
            if width == 1:
                return lambda C, value: C.write_byte(ea(C), value & 0xFF)
            if width == 16:

                def write16(C, value: int) -> None:
                    address = ea(C)
                    write_word = C.write_word
                    write_word(address, value & WORD_MASK)
                    write_word(address + 8, (value >> 64) & WORD_MASK)

                return write16
            return None
        return None

    def _gpr_name(self, operand) -> Optional[str]:
        """The GPR name of a register operand, or ``None``."""
        if isinstance(operand, Reg) and operand.name in _GPRS:
            return operand.name
        return None

    # ------------------------------------------------------------------
    # data movement
    # ------------------------------------------------------------------

    def _c_nop(self, function, index, instruction):
        def execute(C) -> None:
            pass

        return execute, STRAIGHT

    def _c_hlt(self, function, index, instruction):
        def execute(C) -> None:
            C.running = False
            C.exit_status = C.gpr["rax"] & 0xFF

        return execute, CONTROL

    def _c_mov(self, function, index, instruction):
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            # Mirrors the slow handler: the destination-xmm case wins and
            # takes the *full* source register value (128-bit for xmm src).
            read = self._read(src)
            write = self._write(dst)
            if read is None or write is None:
                return None

            def execute_to_xmm(C) -> None:
                write(C, read(C))

            return execute_to_xmm, STRAIGHT
        if isinstance(src, Reg) and src.name.startswith("xmm"):
            source = src.name
            read = lambda C: C.registers.xmm[source] & WORD_MASK  # noqa: E731
        else:
            read = self._read(src)
        write = self._write(dst)
        if read is None or write is None:
            return None
        # Fuse the hottest shapes: gpr <- imm/gpr/mem.
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:
            if isinstance(src, Imm):
                value = src.value & WORD_MASK

                def execute(C) -> None:
                    C.gpr[dst_gpr] = value

                return execute, STRAIGHT
            src_gpr = self._gpr_name(src)
            if src_gpr is not None:

                def execute(C) -> None:
                    gpr = C.gpr
                    gpr[dst_gpr] = gpr[src_gpr]

                return execute, STRAIGHT

            def execute(C) -> None:
                C.gpr[dst_gpr] = read(C)

            return execute, STRAIGHT

        def execute(C) -> None:
            write(C, read(C))

        return execute, STRAIGHT

    def _c_movb(self, function, index, instruction):
        dst, src = instruction.operands
        read = self._read(src, width=1)
        if read is None:
            return None
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:

            def execute(C) -> None:
                gpr = C.gpr
                gpr[dst_gpr] = (gpr[dst_gpr] & ~0xFF) | (read(C) & 0xFF)

            return execute, STRAIGHT
        if isinstance(dst, Reg):
            return None  # xmm byte destination: defer to the slow handler
        write = self._write(dst, width=1)
        if write is None:
            return None

        def execute(C) -> None:
            write(C, read(C) & 0xFF)

        return execute, STRAIGHT

    def _c_movzxb(self, function, index, instruction):
        dst, src = instruction.operands
        read = self._read(src, width=1)
        write = self._write(dst)
        if read is None or write is None:
            return None

        def execute(C) -> None:
            write(C, read(C) & 0xFF)

        return execute, STRAIGHT

    def _c_lea(self, function, index, instruction):
        dst, src = instruction.operands
        write = self._write(dst)
        if write is None:
            return None
        if isinstance(src, Mem):
            ea = self._ea(src)
            if ea is None:
                return None
            dst_gpr = self._gpr_name(dst)
            if dst_gpr is not None:

                def execute(C) -> None:
                    C.gpr[dst_gpr] = ea(C)

                return execute, STRAIGHT

            def execute(C) -> None:
                write(C, ea(C))

            return execute, STRAIGHT
        if isinstance(src, Sym):
            read = self._read(src)
            if read is None:
                return None

            def execute(C) -> None:
                write(C, read(C))

            return execute, STRAIGHT
        return None  # slow path raises IllegalInstruction

    # ------------------------------------------------------------------
    # stack
    # ------------------------------------------------------------------

    def _c_push(self, function, index, instruction):
        read = self._read(instruction.operands[0])
        if read is None:
            return None

        def execute(C) -> None:
            gpr = C.gpr
            rsp = (gpr["rsp"] - 8) & WORD_MASK
            gpr["rsp"] = rsp
            C.write_word(rsp, read(C))

        return execute, STRAIGHT

    def _c_pop(self, function, index, instruction):
        target = instruction.operands[0]
        dst_gpr = self._gpr_name(target)
        if dst_gpr is not None:

            def execute(C) -> None:
                gpr = C.gpr
                rsp = gpr["rsp"]
                value = C.read_word(rsp)
                gpr["rsp"] = (rsp + 8) & WORD_MASK
                gpr[dst_gpr] = value

            return execute, STRAIGHT
        write = self._write(target)
        if write is None:
            return None

        def execute(C) -> None:
            gpr = C.gpr
            rsp = gpr["rsp"]
            value = C.read_word(rsp)
            gpr["rsp"] = (rsp + 8) & WORD_MASK
            write(C, value)

        return execute, STRAIGHT

    def _c_leave(self, function, index, instruction):
        def execute(C) -> None:
            gpr = C.gpr
            rbp = gpr["rbp"]
            gpr["rbp"] = C.read_word(rbp)
            gpr["rsp"] = (rbp + 8) & WORD_MASK

        return execute, STRAIGHT

    # ------------------------------------------------------------------
    # ALU
    # ------------------------------------------------------------------

    def _c_add(self, function, index, instruction):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        read = self._read(src)
        if dst_gpr is None or read is None:
            return None
        if isinstance(src, Imm):
            value = src.value & WORD_MASK

            def execute(C) -> None:
                gpr = C.gpr
                registers = C.registers
                result = gpr[dst_gpr] + value
                registers.cf = result > WORD_MASK
                result &= WORD_MASK
                gpr[dst_gpr] = result
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT

            return execute, STRAIGHT

        def execute(C) -> None:
            gpr = C.gpr
            registers = C.registers
            result = gpr[dst_gpr] + read(C)
            registers.cf = result > WORD_MASK
            result &= WORD_MASK
            gpr[dst_gpr] = result
            registers.zf = result == 0
            registers.sf = result >= SIGN_BIT

        return execute, STRAIGHT

    def _c_sub(self, function, index, instruction):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        read = self._read(src)
        if dst_gpr is None or read is None:
            return None

        def execute(C) -> None:
            gpr = C.gpr
            registers = C.registers
            a = gpr[dst_gpr]
            b = read(C)
            registers.cf = a < b
            result = (a - b) & WORD_MASK
            gpr[dst_gpr] = result
            registers.zf = result == 0
            registers.sf = result >= SIGN_BIT

        return execute, STRAIGHT

    def _c_xor(self, function, index, instruction):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        read = self._read(src)
        if dst_gpr is None or read is None:
            return None

        def execute(C) -> None:
            gpr = C.gpr
            registers = C.registers
            result = gpr[dst_gpr] ^ read(C)
            gpr[dst_gpr] = result
            registers.zf = result == 0
            registers.sf = result >= SIGN_BIT
            registers.cf = False

        return execute, STRAIGHT

    def _alu(self, instruction, combine):
        """Shared compiler for the rarer two-operand ALU ops."""
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        read = self._read(src)
        if dst_gpr is None or read is None:
            return None

        def execute(C) -> None:
            gpr = C.gpr
            registers = C.registers
            result = combine(gpr[dst_gpr], read(C)) & WORD_MASK
            gpr[dst_gpr] = result
            registers.zf = result == 0
            registers.sf = result >= SIGN_BIT

        return execute, STRAIGHT

    def _c_or(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a | b)

    def _c_and(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a & b)

    def _c_shl(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a << (b & 63))

    def _c_shr(self, function, index, instruction):
        return self._alu(instruction, lambda a, b: a >> (b & 63))

    def _c_sar(self, function, index, instruction):
        return self._alu(
            instruction,
            lambda a, b: ((a - TWO64 if a >= SIGN_BIT else a) >> (b & 63)) & WORD_MASK,
        )

    def _c_imul(self, function, index, instruction):
        return self._alu(
            instruction,
            lambda a, b: (a - TWO64 if a >= SIGN_BIT else a)
            * (b - TWO64 if b >= SIGN_BIT else b),
        )

    def _unary(self, instruction, transform, *, set_flags: bool = True):
        target = instruction.operands[0]
        dst_gpr = self._gpr_name(target)
        if dst_gpr is None:
            return None
        if set_flags:

            def execute(C) -> None:
                gpr = C.gpr
                registers = C.registers
                result = transform(gpr[dst_gpr]) & WORD_MASK
                gpr[dst_gpr] = result
                registers.zf = result == 0
                registers.sf = result >= SIGN_BIT

        else:

            def execute(C) -> None:
                gpr = C.gpr
                gpr[dst_gpr] = transform(gpr[dst_gpr]) & WORD_MASK

        return execute, STRAIGHT

    def _c_inc(self, function, index, instruction):
        return self._unary(instruction, lambda a: a + 1)

    def _c_dec(self, function, index, instruction):
        return self._unary(instruction, lambda a: a - 1)

    def _c_neg(self, function, index, instruction):
        return self._unary(instruction, lambda a: -a)

    def _c_not(self, function, index, instruction):
        return self._unary(instruction, lambda a: ~a, set_flags=False)

    # ------------------------------------------------------------------
    # compare / test
    # ------------------------------------------------------------------

    def _c_cmp(self, function, index, instruction):
        a_op, b_op = instruction.operands
        a_gpr = self._gpr_name(a_op)
        if a_gpr is not None and isinstance(b_op, Imm):
            b = b_op.value & WORD_MASK
            b_signed = b - TWO64 if b >= SIGN_BIT else b

            def execute(C) -> None:
                a = C.gpr[a_gpr]
                registers = C.registers
                registers.zf = a == b
                registers.sf = (a - TWO64 if a >= SIGN_BIT else a) < b_signed
                registers.cf = a < b

            return execute, STRAIGHT
        read_a = self._read(a_op)
        read_b = self._read(b_op)
        if read_a is None or read_b is None:
            return None

        def execute(C) -> None:
            a = read_a(C)
            b = read_b(C)
            registers = C.registers
            registers.zf = a == b
            registers.sf = (a - TWO64 if a >= SIGN_BIT else a) < (
                b - TWO64 if b >= SIGN_BIT else b
            )
            registers.cf = a < b

        return execute, STRAIGHT

    def _c_test(self, function, index, instruction):
        a_op, b_op = instruction.operands
        read_a = self._read(a_op)
        read_b = self._read(b_op)
        if read_a is None or read_b is None:
            return None

        def execute(C) -> None:
            result = read_a(C) & read_b(C)
            registers = C.registers
            registers.zf = result == 0
            registers.sf = result >= SIGN_BIT
            registers.cf = False

        return execute, STRAIGHT

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def _label_rip(self, function: Function, label: Label):
        """Resolve a label to its rip tuple, or a raising closure."""
        target = function.labels.get(label.name)
        if target is None:

            def missing(C) -> None:
                raise InvalidJump(f"{function.name}: no label {label.name}")

            return None, missing
        return (function.name, target), None

    def _c_jmp(self, function, index, instruction):
        target = instruction.operands[0]
        if isinstance(target, Label):
            rip, missing = self._label_rip(function, target)
            if missing is not None:
                return missing, CONTROL

            def execute(C) -> None:
                C.registers.rip = rip

            return execute, CONTROL
        if isinstance(target, Sym):
            callee = self.image.function(target.name)
            if callee is None:
                return None  # slow path raises InvalidJump at execution
            entry_rip = (callee.name, 0)

            def execute(C) -> None:
                C._current = callee
                C.registers.rip = entry_rip

            return execute, CONTROL
        return None  # indirect jmp: generic handler resolves dynamically

    def _conditional(self, function, instruction, condition):
        """Build a conditional-jump step from a flag-reading predicate."""
        target = instruction.operands[0]
        if not isinstance(target, Label):
            return None  # slow path raises InvalidJump when taken
        rip, missing = self._label_rip(function, target)
        if missing is not None:

            def execute_missing(C) -> None:
                if condition(C.registers):
                    missing(C)

            return execute_missing, CONTROL

        def execute(C) -> None:
            registers = C.registers
            if condition(registers):
                registers.rip = rip

        return execute, CONTROL

    def _c_je(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: r.zf)

    def _c_jne(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: not r.zf)

    def _c_jl(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: r.sf)

    def _c_jle(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: r.sf or r.zf)

    def _c_jg(self, function, index, instruction):
        return self._conditional(
            function, instruction, lambda r: not (r.sf or r.zf)
        )

    def _c_jge(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: not r.sf)

    def _c_jb(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: r.cf)

    def _c_jae(self, function, index, instruction):
        return self._conditional(function, instruction, lambda r: not r.cf)

    def _c_call(self, function, index, instruction):
        target = instruction.operands[0]
        if not isinstance(target, Sym):
            return None  # indirect call: generic handler resolves dynamically
        callee = self.image.function(target.name)
        if callee is None:
            # Native helper, or a symbol loaded later: resolve at runtime
            # through _call_symbol (which also charges native costs, hence
            # SYNC so accounting is exact when the handler observes it).
            symbol = target.name

            def execute_native(C) -> None:
                C._call_symbol(symbol)

            return execute_native, CONTROL | SYNC
        return_address = self.image.address_of(function.name, index + 1)
        entry_rip = (callee.name, 0)

        def execute(C) -> None:
            gpr = C.gpr
            rsp = (gpr["rsp"] - 8) & WORD_MASK
            gpr["rsp"] = rsp
            C.write_word(rsp, return_address)
            C._current = callee
            C.registers.rip = entry_rip

        return execute, CONTROL

    def _c_ret(self, function, index, instruction):
        resolve = self.image.resolve

        def execute(C) -> None:
            gpr = C.gpr
            rsp = gpr["rsp"]
            address = C.read_word(rsp)
            gpr["rsp"] = (rsp + 8) & WORD_MASK
            if address == EXIT_ADDRESS:
                C.running = False
                C.exit_status = gpr["rax"] & 0xFF
                return
            callee, target = resolve(address)
            C._current = callee
            C.registers.rip = (callee.name, target)

        return execute, CONTROL
