"""Decode cache: lower :class:`Function` bodies into CPU-parametric steps.

The slow interpreter path re-answers the same questions for every dynamic
instruction: which handler implements the mnemonic, what it costs, what
operand kinds it has, and which addresses they resolve to.  For a given
(image, Function) pair almost all of those answers are static, so this
module answers them once per *static* instruction and captures the result
in a closure ("step"); the CPU's fast loop then just walks a step list.

Every step is a 5-tuple ``(execute, cycles, ticks, kind, next_rip)``:

* ``execute(C)`` — the instruction's semantics against CPU ``C``, with
  operand shapes (register names, effective-address components, masked
  immediates, resolved symbols) fixed at decode time and per-process
  state reached through ``C``;
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

**One straight-line lowering.**  :func:`lower` turns one instruction into
Python source lines over a handful of names (``g`` the GPR dict, ``R``
the register file, ``rd``/``wr``/``rb``/``wb`` the memory accessors,
``M``/``S``/``T`` the word constants).  It is the single definition of
straight-line semantics for both fast tiers: a decoded step is that one
instruction's lines compiled into ``step(C)``, and a trace-JIT
superblock (:mod:`repro.machine.jit`) is a run of them compiled into one
function.  A step depends on nothing but the instruction's mnemonic and
operands — symbols are first resolved to the image's address, so
``lea r, sym`` lowers as an immediate move — so steps are memoised
process-wide by ``(op, operands)``.  Control transfers (``hlt``,
``jmp``, the conditional jumps, ``call``, ``ret``) keep small closure
compilers here, because they close over the function's labels and the
image's callees.

**One record per instruction value.**  Codegen and the passes intern
their instructions (:mod:`repro.isa.instructions`), so a process sees
few distinct values however many programs it builds.  An instruction's
``(execute, cycles, ticks, kind)`` record is memoised per DBI
multiplier, keyed by the instruction, unless its step depends on its
function or image: control transfers and symbol operands still resolve
at every decode.  Decoding a function whose instructions have all been
seen therefore lowers and costs nothing; it only wraps canary sites and
stamps each step's ``next_rip``.  :func:`clear_step_memo` drops both
memos.

Steps close over the loaded image (symbol addresses, callee ``Function``
objects, ``resolve``) and the DBI multiplier, never over a CPU: ``C``
supplies the register file (``C.registers``, ``C.gpr``) and the memory
accessors (``C.read_word``, ``C.write_word``, ``C.read_byte``,
``C.write_byte``), which the CPU binds once at construction.  One
:class:`DecodedFunction` therefore serves every CPU that runs on the same
image — the booted parent, its fork children and its threads, and every
live clone of the same spawn image — for as long as the image lives: a
loaded image never changes, so a step never goes stale (see
``CPU._decoded``).

Canary sites (:func:`repro.telemetry.canary_sites`: group leaders and
audited C0 stores) carry one extra wrapper that runs the shared
:func:`repro.telemetry.canary_probe` before the step.  The probe reads
the telemetry switch and the CPU's watch at run time, so no observation
state is baked into a step.

Mnemonics and operand shapes the lowering does not accept (xmm moves,
memory destinations of ALU ops, ``rdtsc``, ``idiv``, an unresolvable
symbol, ...) fall back to a closure over the slow-path handler, which
keeps semantics authoritative in one place: the fast path can be
*faster* but never *different*.  The differential tests
(`tests/machine/test_fast_path_differential.py`,
`tests/machine/test_lowering_differential.py`) enforce that.
"""

from __future__ import annotations

import re
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
SIGN_BIT = 1 << 63
TWO64 = 1 << 64

#: Step kind flags (see module docstring).
STRAIGHT = 0
CONTROL = 1
SYNC = 2

#: Lowered steps by ``(op, operands)`` with symbols resolved
#: (:func:`_lowered_step`), about 1.4 KB each.  Unbounded, because the
#: values a process sees are few: 327 keys for the SPEC-like suite under
#: two schemes, 125 for 100 chaos programs and 128 after 400 more.
#: Independent of the JIT's factory memo.
_STEPS: Dict[tuple, Optional[Callable]] = {}
#: Per DBI multiplier, each instruction's ``(execute, cycles, ticks,
#: kind)`` record, or :data:`_BOUND` for one whose step depends on its
#: function or image (a control transfer or a symbol operand).
_RECORDS: Dict[float, Dict[Instruction, object]] = {}
_BOUND = object()

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
    accessors.  The view lives as long as its CPU; the kernel empties
    its JIT state at a fork (``CPU.flush_jit_cache``).
    """

    __slots__ = ("function", "steps", "sites", "jit_blocks", "jit_counts")

    def __init__(self, decoded: DecodedFunction) -> None:
        self.function = decoded.function
        self.steps = decoded.steps
        self.sites = decoded.sites
        self.jit_blocks: dict = {}
        self.jit_counts: dict = {}


# ----------------------------------------------------------------------
# the straight-line lowering (shared by decoded steps and superblocks)
# ----------------------------------------------------------------------

_ATOM = re.compile(r"^(?:-?\d+|t\d+)$")


class Line:
    """One generated source line plus the facts the JIT's peephole needs."""

    __slots__ = ("code", "pos", "flag", "faultable", "barrier")

    def __init__(self, code, pos, flag=None, faultable=False, barrier=False):
        self.code = code
        self.pos = pos
        self.flag = flag
        self.faultable = faultable
        self.barrier = barrier


class Lowering:
    """Lowering state: lines, SSA temps, forwarding maps.

    A decoded step uses one per instruction; a superblock one per block,
    where the forwarding maps carry values from one instruction to the
    next.
    """

    def __init__(self) -> None:
        self.lines: List[Line] = []
        self._temp = 0
        #: Register forwarding map: gpr name -> temp/constant expression.
        self.fwd: Dict[str, str] = {}
        #: Pending push records for push/pop pairing:
        #: (slot temp, value expression) — cleared by anything that
        #: writes memory, touches rsp outside push/pop, or is opaque.
        self.push_stack: List[Tuple[str, str]] = []
        #: Closure constants for the generated factory (opaque closures,
        #: the terminal rip tuple).
        self.consts: Dict[str, object] = {}
        self.forwarded = 0

    def temp(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def emit(self, code, pos, flag=None, faultable=False, barrier=False):
        self.lines.append(Line(code, pos, flag, faultable, barrier))

    def atom(self, expr: str, pos: int) -> str:
        """Bind ``expr`` to a temp unless it is already re-readable."""
        if _ATOM.match(expr):
            return expr
        name = self.temp()
        self.emit(f"{name} = {expr}", pos)
        return name

    def rread(self, name: str) -> str:
        value = self.fwd.get(name)
        if value is not None:
            self.forwarded += 1
            return value
        return f"g[{name!r}]"

    def rwrite(self, name, expr, pos, *, stack_op=False):
        """Store ``expr`` into a register, keeping the forwarding map."""
        if _ATOM.match(expr):
            value = expr
        else:
            value = self.temp()
            self.emit(f"{value} = {expr}", pos)
        self.emit(f"g[{name!r}] = {value}", pos)
        self.fwd[name] = value
        if name == "rsp" and not stack_op:
            self.push_stack.clear()

    def mem_write_barrier(self) -> None:
        """An unpredictable store may alias a pushed slot."""
        self.push_stack.clear()

    def opaque(self, execute, pos: int) -> None:
        """Call the decoded step on the block's CPU (``C``, bound into the
        factory); a full barrier for everything."""
        name = f"e{pos}"
        self.consts[name] = execute
        self.fwd.clear()
        self.push_stack.clear()
        self.emit(f"{name}(C)", pos, faultable=True, barrier=True)


def _gpr_name(operand) -> Optional[str]:
    if isinstance(operand, Reg) and operand.name in _GPRS:
        return operand.name
    return None


def _ea_expr(low: Lowering, m: Mem) -> Optional[str]:
    disp, base, index, scale = m.disp, m.base, m.index, m.scale
    if base is not None and base not in _GPRS:
        return None
    if index is not None and index not in _GPRS:
        return None
    if m.seg is not None:
        if m.seg != "fs":
            return None  # the slow handler raises IllegalInstruction
        if base is None and index is None:
            return f"(R.fs_base + {disp}) & M"
        if index is None:
            return f"(R.fs_base + {disp} + {low.rread(base)}) & M"
        if base is None:
            return f"(R.fs_base + {disp} + {low.rread(index)} * {scale}) & M"
        return (
            f"(R.fs_base + {disp} + {low.rread(base)}"
            f" + {low.rread(index)} * {scale}) & M"
        )
    if base is not None and index is None:
        if disp == 0:
            return low.rread(base)
        return f"({low.rread(base)} + {disp}) & M"
    if base is not None:
        return f"({low.rread(base)} + {low.rread(index)} * {scale} + {disp}) & M"
    if index is not None:
        return f"({low.rread(index)} * {scale} + {disp}) & M"
    return str(disp & WORD_MASK)


def _read_expr(low: Lowering, operand, pos, width=8) -> Optional[str]:
    """Value expression for a source operand; may emit a load line."""
    if isinstance(operand, Reg):
        if operand.name in _GPRS:
            return low.rread(operand.name)
        return None  # xmm source
    if isinstance(operand, Imm):
        value = operand.value & WORD_MASK
        if width == 1:
            value &= 0xFF
        return str(value)
    if isinstance(operand, Mem):
        ea = _ea_expr(low, operand)
        if ea is None:
            return None
        name = low.temp()
        reader = "rd" if width == 8 else "rb"
        low.emit(f"{name} = {reader}({ea})", pos, faultable=True)
        return name
    return None  # an unresolved Sym, and anything else


# -- per-op lowering (False: not lowered; the caller falls back) ---------


def _l_nop(low, operands, pos) -> bool:
    return True


def _l_mov(low, operands, pos) -> bool:
    dst, src = operands
    if isinstance(dst, Reg) and dst.name.startswith("xmm"):
        return False
    if isinstance(src, Reg) and src.name.startswith("xmm"):
        return False
    dst_gpr = _gpr_name(dst)
    if dst_gpr is not None:
        value = _read_expr(low, src, pos)
        if value is None:
            return False
        low.rwrite(dst_gpr, value, pos)
        return True
    if isinstance(dst, Mem):
        ea = _ea_expr(low, dst)
        if ea is None:
            return False
        value = _read_expr(low, src, pos)
        if value is None:
            return False
        low.mem_write_barrier()
        low.emit(f"wr({ea}, {value})", pos, faultable=True)
        return True
    return False


def _l_movb(low, operands, pos) -> bool:
    dst, src = operands
    value = _read_expr(low, src, pos, width=1)
    if value is None:
        return False
    dst_gpr = _gpr_name(dst)
    if dst_gpr is not None:
        old = low.rread(dst_gpr)
        low.rwrite(dst_gpr, f"({old} & -256) | ({value} & 0xFF)", pos)
        return True
    if isinstance(dst, Mem):
        ea = _ea_expr(low, dst)
        if ea is None:
            return False
        low.mem_write_barrier()
        low.emit(f"wb({ea}, {value} & 0xFF)", pos, faultable=True)
        return True
    return False  # xmm byte destination: slow handler semantics


def _l_movzxb(low, operands, pos) -> bool:
    dst, src = operands
    value = _read_expr(low, src, pos, width=1)
    if value is None:
        return False
    dst_gpr = _gpr_name(dst)
    if dst_gpr is not None:
        low.rwrite(dst_gpr, f"{value} & 0xFF", pos)
        return True
    if isinstance(dst, Mem):
        ea = _ea_expr(low, dst)
        if ea is None:
            return False
        low.mem_write_barrier()
        low.emit(f"wr({ea}, ({value} & 0xFF))", pos, faultable=True)
        return True
    return False


def _l_lea(low, operands, pos) -> bool:
    dst, src = operands
    if not isinstance(src, Mem):
        return False  # a symbol source reaches a step as an immediate move
    dst_gpr = _gpr_name(dst)
    if dst_gpr is None:
        return False
    ea = _ea_expr(low, src)
    if ea is None:
        return False
    low.rwrite(dst_gpr, ea, pos)
    return True


def _l_push(low, operands, pos) -> bool:
    # The source is read before rsp moves (``push %rsp`` stores the old
    # rsp), and rsp is stored before the write that may fault.
    value = _read_expr(low, operands[0], pos)
    if value is None:
        return False
    value = low.atom(value, pos)
    slot = low.temp()
    low.emit(f"{slot} = ({low.rread('rsp')} - 8) & M", pos)
    low.rwrite("rsp", slot, pos, stack_op=True)
    low.emit(f"wr({slot}, {value})", pos, faultable=True)
    low.push_stack.append((slot, value))
    return True


def _l_pop(low, operands, pos) -> bool:
    dst_gpr = _gpr_name(operands[0])
    if dst_gpr is None:
        return False
    if low.push_stack:
        # Paired with a still-live push: the slot provably holds the
        # pushed temporary (no store/opaque/rsp write intervened), so
        # skip the re-read.  rsp still steps through the same values.
        slot, value = low.push_stack.pop()
        low.rwrite("rsp", f"({slot} + 8) & M", pos, stack_op=True)
        low.rwrite(dst_gpr, value, pos)
        return True
    slot = low.atom(low.rread("rsp"), pos)
    value = low.temp()
    low.emit(f"{value} = rd({slot})", pos, faultable=True)
    low.rwrite("rsp", f"({slot} + 8) & M", pos, stack_op=True)
    low.rwrite(dst_gpr, value, pos)
    return True


def _l_leave(low, operands, pos) -> bool:
    # rsp = rbp first, so a faulting load leaves rsp at rbp.
    base = low.atom(low.rread("rbp"), pos)
    low.rwrite("rsp", base, pos)
    value = low.temp()
    low.emit(f"{value} = rd({base})", pos, faultable=True)
    low.rwrite("rbp", value, pos)
    low.rwrite("rsp", f"({base} + 8) & M", pos)
    return True


def _alu_operands(low, operands, pos):
    dst, src = operands
    dst_gpr = _gpr_name(dst)
    if dst_gpr is None:
        return None
    value = _read_expr(low, src, pos)
    if value is None:
        return None
    return dst_gpr, value


def _l_add(low, operands, pos) -> bool:
    ops = _alu_operands(low, operands, pos)
    if ops is None:
        return False
    dst, src = ops
    raw = low.temp()
    low.emit(f"{raw} = {low.rread(dst)} + {src}", pos)
    low.emit(f"R.cf = {raw} > M", pos, flag="cf")
    low.rwrite(dst, f"{raw} & M", pos)
    result = low.fwd[dst]
    low.emit(f"R.zf = {result} == 0", pos, flag="zf")
    low.emit(f"R.sf = {result} >= S", pos, flag="sf")
    return True


def _l_sub(low, operands, pos) -> bool:
    ops = _alu_operands(low, operands, pos)
    if ops is None:
        return False
    dst, src = ops
    a = low.atom(low.rread(dst), pos)
    b = low.atom(src, pos)
    low.emit(f"R.cf = {a} < {b}", pos, flag="cf")
    low.rwrite(dst, f"({a} - {b}) & M", pos)
    result = low.fwd[dst]
    low.emit(f"R.zf = {result} == 0", pos, flag="zf")
    low.emit(f"R.sf = {result} >= S", pos, flag="sf")
    return True


def _l_xor(low, operands, pos) -> bool:
    ops = _alu_operands(low, operands, pos)
    if ops is None:
        return False
    dst, src = ops
    low.rwrite(dst, f"{low.rread(dst)} ^ {src}", pos)
    result = low.fwd[dst]
    low.emit(f"R.zf = {result} == 0", pos, flag="zf")
    low.emit(f"R.sf = {result} >= S", pos, flag="sf")
    low.emit("R.cf = False", pos, flag="cf")
    return True


def _simple_alu(template):
    """or/and/shl/shr-style ops: masked result, zf/sf only."""

    def lower_alu(low, operands, pos) -> bool:
        ops = _alu_operands(low, operands, pos)
        if ops is None:
            return False
        dst, src = ops
        a = low.atom(low.rread(dst), pos)
        b = low.atom(src, pos)
        low.rwrite(dst, template.format(a=a, b=b), pos)
        result = low.fwd[dst]
        low.emit(f"R.zf = {result} == 0", pos, flag="zf")
        low.emit(f"R.sf = {result} >= S", pos, flag="sf")
        return True

    return lower_alu


def _unary(template, *, flags=True):
    """inc/dec/neg/not on a GPR; ``not`` leaves the flags alone."""

    def lower_unary(low, operands, pos) -> bool:
        dst_gpr = _gpr_name(operands[0])
        if dst_gpr is None:
            return False
        a = low.atom(low.rread(dst_gpr), pos)
        low.rwrite(dst_gpr, template.format(a=a), pos)
        if flags:
            result = low.fwd[dst_gpr]
            low.emit(f"R.zf = {result} == 0", pos, flag="zf")
            low.emit(f"R.sf = {result} >= S", pos, flag="sf")
        return True

    return lower_unary


def _l_cmp(low, operands, pos) -> bool:
    a_op, b_op = operands
    a = _read_expr(low, a_op, pos)
    if a is None:
        return False
    b = _read_expr(low, b_op, pos)
    if b is None:
        return False
    a = low.atom(a, pos)
    b = low.atom(b, pos)
    low.emit(f"R.zf = {a} == {b}", pos, flag="zf")
    if isinstance(b_op, Imm):
        value = b_op.value & WORD_MASK
        signed = value - TWO64 if value >= SIGN_BIT else value
        low.emit(
            f"R.sf = ({a} - T if {a} >= S else {a}) < {signed}",
            pos, flag="sf",
        )
    else:
        low.emit(
            f"R.sf = ({a} - T if {a} >= S else {a})"
            f" < ({b} - T if {b} >= S else {b})",
            pos, flag="sf",
        )
    low.emit(f"R.cf = {a} < {b}", pos, flag="cf")
    return True


def _l_test(low, operands, pos) -> bool:
    a_op, b_op = operands
    a = _read_expr(low, a_op, pos)
    if a is None:
        return False
    b = _read_expr(low, b_op, pos)
    if b is None:
        return False
    result = low.atom(f"{a} & {b}", pos)
    low.emit(f"R.zf = {result} == 0", pos, flag="zf")
    low.emit(f"R.sf = {result} >= S", pos, flag="sf")
    low.emit("R.cf = False", pos, flag="cf")
    return True


#: The lowering's op table: every straight-line mnemonic it accepts.
LOWERINGS: Dict[str, Callable[[Lowering, tuple, int], bool]] = {
    "nop": _l_nop,
    "mov": _l_mov,
    "movb": _l_movb,
    "movzxb": _l_movzxb,
    "lea": _l_lea,
    "push": _l_push,
    "pop": _l_pop,
    "leave": _l_leave,
    "add": _l_add,
    "sub": _l_sub,
    "xor": _l_xor,
    "or": _simple_alu("({a} | {b}) & M"),
    "and": _simple_alu("({a} & {b}) & M"),
    "shl": _simple_alu("({a} << ({b} & 63)) & M"),
    "shr": _simple_alu("({a} >> ({b} & 63)) & M"),
    "sar": _simple_alu("(({a} - T if {a} >= S else {a}) >> ({b} & 63)) & M"),
    "imul": _simple_alu(
        "(({a} - T if {a} >= S else {a}) * ({b} - T if {b} >= S else {b})) & M"
    ),
    "inc": _unary("({a} + 1) & M"),
    "dec": _unary("({a} - 1) & M"),
    "neg": _unary("(-{a}) & M"),
    "not": _unary("(~{a}) & M", flags=False),
    "cmp": _l_cmp,
    "test": _l_test,
}


def lower(low: Lowering, op: str, operands: tuple, pos: int) -> bool:
    """Append ``op operands`` to ``low``; False (and nothing appended) if
    the lowering does not accept that shape."""
    handler = LOWERINGS.get(op)
    if handler is None:
        return False
    mark = len(low.lines)
    temp_mark = low._temp
    fwd_mark = dict(low.fwd)
    stack_mark = list(low.push_stack)
    ok = handler(low, operands, pos)
    if not ok:
        # Drop any partial emission (lines *and* forwarding state);
        # the caller's fallback redoes the instruction from scratch.
        del low.lines[mark:]
        low._temp = temp_mark
        low.fwd = fwd_mark
        low.push_stack = stack_mark
    return ok


# ----------------------------------------------------------------------
# lowered steps, memoised by instruction value
# ----------------------------------------------------------------------

#: CPU attributes the lowered code reads, bound once per step call.
_STEP_BINDINGS = (
    ("g", "gpr"), ("R", "registers"), ("rd", "read_word"),
    ("wr", "write_word"), ("rb", "read_byte"), ("wb", "write_byte"),
)
_BOUND_NAME = re.compile(r"\b(?:g|R|rd|wr|rb|wb)\b")
_MISSING = object()


def _step_key(instruction: Instruction, image) -> Optional[tuple]:
    """``(op, operands)`` with every symbol resolved to an immediate, or
    ``None`` while a symbol is unresolvable (the slow handler then
    raises at execution, as it would on the slow path)."""
    op, operands = instruction.op, instruction.operands
    if not any(isinstance(operand, Sym) for operand in operands):
        return op, operands
    resolved = []
    for operand in operands:
        if isinstance(operand, Sym):
            try:
                operand = Imm(image.address_of(operand.name))
            except Exception:
                return None
        resolved.append(operand)
    if op == "lea" and isinstance(operands[1], Sym):
        op = "mov"  # lea r, sym loads the symbol's address
    return op, tuple(resolved)


def _compile_step(low: Lowering) -> Callable[[object], None]:
    """Compile one instruction's lowered lines into ``step(C)``."""
    code = [line.code for line in low.lines]
    used = set(_BOUND_NAME.findall("\n".join(code)))
    body = [f"{name} = C.{attr}" for name, attr in _STEP_BINDINGS if name in used]
    body.extend(code)
    source = "def step(C):\n" + "".join(f"    {line}\n" for line in body or ["pass"])
    namespace: Dict[str, object] = {"M": WORD_MASK, "S": SIGN_BIT, "T": TWO64}
    exec(  # noqa: S102 - source is generated above from vetted templates
        compile(source, "<decoded step>", "exec"), namespace
    )
    return namespace["step"]


def _lowered_step(instruction: Instruction, image) -> Optional[Callable]:
    """The memoised lowered step for ``instruction``, or ``None`` when
    the lowering does not accept its shape."""
    key = _step_key(instruction, image)
    if key is None:
        return None
    step = _STEPS.get(key, _MISSING)
    if step is _MISSING:
        low = Lowering()
        step = _STEPS[key] = _compile_step(low) if lower(low, *key, 0) else None
    return step


def _by_value(instruction: Instruction) -> bool:
    """True when ``instruction``'s step depends on its value alone."""
    return instruction.op not in CONTROL_TRANSFER_OPS and not any(
        isinstance(operand, Sym) for operand in instruction.operands
    )


def clear_step_memo() -> None:
    """Forget every memoised step and decode record (for code that
    patches the lowering)."""
    _STEPS.clear()
    _RECORDS.clear()


class FunctionDecoder:
    """Compiles :class:`Function` bodies into CPU-parametric step lists.

    A decoder is bound to one image and one DBI multiplier: besides the
    function itself, those are the only inputs its steps depend on.
    """

    def __init__(self, image, dispatch, dbi_multiplier: float = 1.0) -> None:
        self.image = image
        self.dbi_multiplier = dbi_multiplier
        self._dispatch = dispatch
        self._control = {
            "hlt": self._c_hlt,
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
        records = _RECORDS.setdefault(self.dbi_multiplier, {})
        name = function.name
        sites = telemetry.canary_sites(function)
        steps: List[Step] = []
        for index, instruction in enumerate(function.body):
            record = records.get(instruction)
            if record is None:
                record = self._record(function, index, instruction)
                records[instruction] = record if _by_value(instruction) else _BOUND
            elif record is _BOUND:
                record = self._record(function, index, instruction)
            execute, cycles, ticks, kind = record
            site = sites.get(index)
            if site is not None:
                execute = _probed(execute, site)
            steps.append((execute, cycles, ticks, kind, (name, index + 1)))
        return DecodedFunction(function, steps, sites)

    def _record(self, function: Function, index: int, instruction: Instruction):
        """``(execute, cycles, ticks, kind)`` for one instruction."""
        op = instruction.op
        compiled = None
        compiler = self._control.get(op)
        if compiler is not None:
            compiled = compiler(function, index, instruction)
        elif op in LOWERINGS:
            step = _lowered_step(instruction, self.image)
            if step is not None:
                compiled = step, STRAIGHT
        if compiled is None:
            compiled = self._generic(instruction)
        execute, kind = compiled
        cycles, ticks = step_cost(instruction, self.dbi_multiplier)
        return execute, cycles, ticks, kind

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
    # control flow
    # ------------------------------------------------------------------

    def _c_hlt(self, function, index, instruction):
        def execute(C) -> None:
            C.running = False
            C.exit_status = C.gpr["rax"] & 0xFF

        return execute, CONTROL

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
