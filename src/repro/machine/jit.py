"""Trace-JIT tier: compile hot runs of decoded steps into superblocks.

The decode cache (:mod:`repro.machine.decode`) lowers each *static*
instruction to one bound closure; the fast loop still pays one Python
call plus loop bookkeeping per *dynamic* instruction.  This module adds
the next tier: when a control-transfer arrival point (a back-edge or
call target) gets hot, the straight-line run of decoded steps starting
there is compiled into a single **superblock** function — one Python
call per guest basic block — by lowering each step to plain source text
and ``exec``-ing the result with every name pre-bound through a closure.

Exactness contract (the reason this file is mostly checks):

* **Accounting** is batched at block granularity but must land on the
  slow path's values bit-for-bit.  Blocks are only compiled when every
  member step's cycle charge is integral (true for ``dbi_multiplier``
  1.0, where base costs are integers) so the batched float sum is
  exactly associative; DBI schemes (x1.22 / x2.56) simply never JIT.
* **Faults** may stop a block mid-flight.  Generated code maintains a
  block-position marker (``_i``) that is updated *only* before lines
  that can raise, and the block's caller re-creates the exact
  architectural state the step loop would have left: ``rip`` of the
  faulting step, accounting through it (the step loop charges before
  executing), and every register/memory effect of the preceding steps.
* **Side-exits** happen at canary group-leaders, watched canary stores
  (while the CPU has a ``watch``), SYNC steps (``rdtsc``,
  calls that can reach natives), block-size caps, and cycle-limit
  proximity; each returns to the generic step loop with architectural
  state indistinguishable from never having JIT-compiled at all.

The peephole pass is deliberately textual and order-preserving, in the
spirit of the mini32 exemplar ("if in doubt, leaves code unchanged"):

* **redundant flag recomputation** — a ``zf``/``sf``/``cf`` store is
  dropped only when the *same* flag is overwritten again before any
  line that can fault, any opaque closure call, or the end of the block
  (flags are architectural state at every one of those points);
* **read-after-write register forwarding** — register reads are
  replaced by the SSA temporary (or constant) last stored to that
  register; writes are never removed, and opaque calls clear the map;
* **push/pop pairing** — a ``pop`` whose value provably comes from a
  preceding ``push`` (no intervening memory write, opaque call, or
  stray ``rsp`` write) forwards the pushed temporary instead of
  re-reading the stack slot; the push's memory store and both ``rsp``
  updates are kept so a fault anywhere in between leaves the exact
  un-fused state.

``REPRO_JIT=0`` disables the tier entirely (the decode-cache fast path
is unchanged); the slow loop remains the semantic oracle either way.
"""

from __future__ import annotations

import os
import re
from typing import Dict, List, Optional, Tuple

from .. import telemetry
from ..isa.instructions import Imm, Label, Mem, Reg
from .decode import CONTROL, SYNC, DecodedView

WORD_MASK = (1 << 64) - 1
SIGN_BIT = 1 << 63
TWO64 = 1 << 64

#: Environment switch: ``REPRO_JIT=0`` disables superblock compilation.
ENV_FLAG = "REPRO_JIT"

#: Arrivals at a dispatch point before it is compiled.
HOT_THRESHOLD = 16
#: Blocks shorter than this lose to the step loop's own bookkeeping.
MIN_STEPS = 2
#: Cap on steps per superblock (bounds compile time and fault tables).
MAX_STEPS = 128

_ATOM = re.compile(r"^(?:-?\d+|t\d+)$")


def _jmp_target(function, instruction) -> Optional[int]:
    """Resolved index of an unconditional direct ``jmp label``, else None."""
    if instruction.op != "jmp":
        return None
    target = instruction.operands[0]
    if not isinstance(target, Label):
        return None
    return function.labels.get(target.name)


def jit_enabled() -> bool:
    """Whether new CPUs should profile and compile superblocks."""
    return os.environ.get(ENV_FLAG, "1") != "0"


class Superblock:
    """One compiled straight-line run of decoded steps.

    ``run()`` executes every member step (semantics identical to the
    step loop walking them one at a time); the caller then adds
    ``cycles``/``ticks``/``count`` to its batched accounting.  On any
    exception ``fault_index`` holds the block-relative position of the
    faulting step and the prefix arrays give the exact accounting and
    ``rip`` for the recovery path.
    """

    __slots__ = (
        "run", "cycles", "ticks", "count", "terminal", "end_index",
        "fault_index", "prefix_cycles", "prefix_ticks", "rips", "source",
    )

    def __init__(self) -> None:
        self.run = None
        self.cycles = 0
        self.ticks = 0
        self.count = 0
        self.terminal = False
        self.end_index = 0
        self.fault_index = 0
        self.prefix_cycles: List[int] = []
        self.prefix_ticks: List[int] = []
        self.rips: List[Tuple[str, int]] = []
        self.source = ""


class _Line:
    """One generated source line plus the facts the peephole needs."""

    __slots__ = ("code", "pos", "flag", "faultable", "barrier")

    def __init__(self, code, pos, flag=None, faultable=False, barrier=False):
        self.code = code
        self.pos = pos
        self.flag = flag
        self.faultable = faultable
        self.barrier = barrier


class _Lowering:
    """Per-block lowering state: lines, SSA temps, forwarding maps."""

    def __init__(self) -> None:
        self.lines: List[_Line] = []
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

    # -- emission helpers ----------------------------------------------

    def temp(self) -> str:
        self._temp += 1
        return f"t{self._temp}"

    def emit(self, code, pos, flag=None, faultable=False, barrier=False):
        self.lines.append(_Line(code, pos, flag, faultable, barrier))

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


class _Compiler:
    """Lowers one run of decoded steps to a superblock function."""

    def __init__(self, cpu, decoded: DecodedView) -> None:
        self.cpu = cpu
        self.decoded = decoded
        self.registers = cpu.registers
        self.gprs = cpu.registers.gpr

    # ------------------------------------------------------------------
    # operand expression helpers (mirror decode.FunctionDecoder exactly)
    # ------------------------------------------------------------------

    def _gpr_name(self, operand) -> Optional[str]:
        if isinstance(operand, Reg) and operand.name in self.gprs:
            return operand.name
        return None

    def _ea_expr(self, low: _Lowering, m: Mem) -> Optional[str]:
        disp, base, index, scale = m.disp, m.base, m.index, m.scale
        if base is not None and base not in self.gprs:
            return None
        if index is not None and index not in self.gprs:
            return None
        if m.seg is not None:
            if m.seg != "fs":
                return None
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

    def _read_expr(self, low: _Lowering, operand, pos, width=8) -> Optional[str]:
        """Value expression for a source operand; may emit a load line."""
        if isinstance(operand, Reg):
            if operand.name in self.gprs:
                return low.rread(operand.name)
            return None  # xmm source: opaque
        if isinstance(operand, Imm):
            value = operand.value & WORD_MASK
            if width == 1:
                value &= 0xFF
            return str(value)
        if isinstance(operand, Mem):
            ea = self._ea_expr(low, operand)
            if ea is None:
                return None
            name = low.temp()
            reader = "rd" if width == 8 else "rb"
            low.emit(f"{name} = {reader}({ea})", pos, faultable=True)
            return name
        return None  # Sym and anything else: opaque

    # ------------------------------------------------------------------
    # per-op lowering (returns False to fall back to the opaque closure)
    # ------------------------------------------------------------------

    def _lower(self, low: _Lowering, instruction, pos: int) -> bool:
        op = instruction.op
        handler = getattr(self, f"_l_{op}", None)
        if handler is None:
            return False
        mark = len(low.lines)
        temp_mark = low._temp
        fwd_mark = dict(low.fwd)
        stack_mark = list(low.push_stack)
        ok = handler(low, instruction, pos)
        if not ok:
            # Drop any partial emission (lines *and* forwarding state);
            # the opaque fallback redoes the step from scratch.
            del low.lines[mark:]
            low._temp = temp_mark
            low.fwd = fwd_mark
            low.push_stack = stack_mark
        return ok

    def _l_nop(self, low, instruction, pos) -> bool:
        return True

    def _l_mov(self, low, instruction, pos) -> bool:
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            return False
        if isinstance(src, Reg) and src.name.startswith("xmm"):
            return False
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:
            value = self._read_expr(low, src, pos)
            if value is None:
                return False
            low.rwrite(dst_gpr, value, pos)
            return True
        if isinstance(dst, Mem):
            ea = self._ea_expr(low, dst)
            if ea is None:
                return False
            value = self._read_expr(low, src, pos)
            if value is None:
                return False
            low.mem_write_barrier()
            low.emit(f"wr({ea}, {value})", pos, faultable=True)
            return True
        return False

    def _l_movb(self, low, instruction, pos) -> bool:
        dst, src = instruction.operands
        value = self._read_expr(low, src, pos, width=1)
        if value is None:
            return False
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:
            old = low.rread(dst_gpr)
            low.rwrite(dst_gpr, f"({old} & -256) | ({value} & 0xFF)", pos)
            return True
        if isinstance(dst, Reg):
            return False  # xmm byte destination: slow handler semantics
        if isinstance(dst, Mem):
            ea = self._ea_expr(low, dst)
            if ea is None:
                return False
            low.mem_write_barrier()
            low.emit(f"wb({ea}, {value} & 0xFF)", pos, faultable=True)
            return True
        return False

    def _l_movzxb(self, low, instruction, pos) -> bool:
        dst, src = instruction.operands
        value = self._read_expr(low, src, pos, width=1)
        if value is None:
            return False
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is not None:
            low.rwrite(dst_gpr, f"{value} & 0xFF", pos)
            return True
        if isinstance(dst, Mem):
            ea = self._ea_expr(low, dst)
            if ea is None:
                return False
            low.mem_write_barrier()
            low.emit(f"wr({ea}, ({value} & 0xFF))", pos, faultable=True)
            return True
        return False

    def _l_lea(self, low, instruction, pos) -> bool:
        dst, src = instruction.operands
        if not isinstance(src, Mem):
            return False  # symbol lea: keep the decode-time resolution
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is None:
            return False
        ea = self._ea_expr(low, src)
        if ea is None:
            return False
        low.rwrite(dst_gpr, ea, pos)
        return True

    # -- stack ----------------------------------------------------------

    def _l_push(self, low, instruction, pos) -> bool:
        src = instruction.operands[0]
        # rsp is decremented *before* the source is read (matters for a
        # memory source addressed off rsp) — mirror _c_push exactly.
        slot = low.temp()
        low.emit(f"{slot} = ({low.rread('rsp')} - 8) & M", pos)
        low.rwrite("rsp", slot, pos, stack_op=True)
        value = self._read_expr(low, src, pos)
        if value is None:
            return False
        value = low.atom(value, pos)
        low.emit(f"wr({slot}, {value})", pos, faultable=True)
        low.push_stack.append((slot, value))
        return True

    def _l_pop(self, low, instruction, pos) -> bool:
        target = instruction.operands[0]
        dst_gpr = self._gpr_name(target)
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

    def _l_leave(self, low, instruction, pos) -> bool:
        base = low.atom(low.rread("rbp"), pos)
        value = low.temp()
        low.emit(f"{value} = rd({base})", pos, faultable=True)
        low.rwrite("rbp", value, pos)
        low.rwrite("rsp", f"({base} + 8) & M", pos)
        return True

    # -- ALU -------------------------------------------------------------

    def _alu_operands(self, low, instruction, pos):
        dst, src = instruction.operands
        dst_gpr = self._gpr_name(dst)
        if dst_gpr is None:
            return None
        value = self._read_expr(low, src, pos)
        if value is None:
            return None
        return dst_gpr, value

    def _l_add(self, low, instruction, pos) -> bool:
        ops = self._alu_operands(low, instruction, pos)
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

    def _l_sub(self, low, instruction, pos) -> bool:
        ops = self._alu_operands(low, instruction, pos)
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

    def _l_xor(self, low, instruction, pos) -> bool:
        ops = self._alu_operands(low, instruction, pos)
        if ops is None:
            return False
        dst, src = ops
        low.rwrite(dst, f"{low.rread(dst)} ^ {src}", pos)
        result = low.fwd[dst]
        low.emit(f"R.zf = {result} == 0", pos, flag="zf")
        low.emit(f"R.sf = {result} >= S", pos, flag="sf")
        low.emit("R.cf = False", pos, flag="cf")
        return True

    def _simple_alu(self, low, instruction, pos, template) -> bool:
        """or/and/shl/shr-style ops: masked result, zf/sf only."""
        ops = self._alu_operands(low, instruction, pos)
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

    def _l_or(self, low, instruction, pos) -> bool:
        return self._simple_alu(low, instruction, pos, "({a} | {b}) & M")

    def _l_and(self, low, instruction, pos) -> bool:
        return self._simple_alu(low, instruction, pos, "({a} & {b}) & M")

    def _l_shl(self, low, instruction, pos) -> bool:
        return self._simple_alu(low, instruction, pos, "({a} << ({b} & 63)) & M")

    def _l_shr(self, low, instruction, pos) -> bool:
        return self._simple_alu(low, instruction, pos, "({a} >> ({b} & 63)) & M")

    def _l_sar(self, low, instruction, pos) -> bool:
        return self._simple_alu(
            low, instruction, pos,
            "(({a} - T if {a} >= S else {a}) >> ({b} & 63)) & M",
        )

    def _l_imul(self, low, instruction, pos) -> bool:
        return self._simple_alu(
            low, instruction, pos,
            "(({a} - T if {a} >= S else {a}) * ({b} - T if {b} >= S else {b})) & M",
        )

    def _unary(self, low, instruction, pos, template, *, flags=True) -> bool:
        target = instruction.operands[0]
        dst_gpr = self._gpr_name(target)
        if dst_gpr is None:
            return False
        a = low.atom(low.rread(dst_gpr), pos)
        low.rwrite(dst_gpr, template.format(a=a), pos)
        if flags:
            result = low.fwd[dst_gpr]
            low.emit(f"R.zf = {result} == 0", pos, flag="zf")
            low.emit(f"R.sf = {result} >= S", pos, flag="sf")
        return True

    def _l_inc(self, low, instruction, pos) -> bool:
        return self._unary(low, instruction, pos, "({a} + 1) & M")

    def _l_dec(self, low, instruction, pos) -> bool:
        return self._unary(low, instruction, pos, "({a} - 1) & M")

    def _l_neg(self, low, instruction, pos) -> bool:
        return self._unary(low, instruction, pos, "(-{a}) & M")

    def _l_not(self, low, instruction, pos) -> bool:
        return self._unary(low, instruction, pos, "(~{a}) & M", flags=False)

    # -- compare / test --------------------------------------------------

    def _l_cmp(self, low, instruction, pos) -> bool:
        a_op, b_op = instruction.operands
        a = self._read_expr(low, a_op, pos)
        if a is None:
            return False
        b = self._read_expr(low, b_op, pos)
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

    def _l_test(self, low, instruction, pos) -> bool:
        a_op, b_op = instruction.operands
        a = self._read_expr(low, a_op, pos)
        if a is None:
            return False
        b = self._read_expr(low, b_op, pos)
        if b is None:
            return False
        result = low.atom(f"{a} & {b}", pos)
        low.emit(f"R.zf = {result} == 0", pos, flag="zf")
        low.emit(f"R.sf = {result} >= S", pos, flag="sf")
        low.emit("R.cf = False", pos, flag="cf")
        return True


def _elide_redundant_flags(lines: List[_Line]) -> int:
    """Peephole rule 1: drop flag stores overwritten before any observer.

    A flag store is dead only when the same flag is written again with
    no possibly-faulting line, opaque call, or block end in between —
    flags are architectural state at every one of those points.
    """
    keep: List[_Line] = []
    elided = 0
    total = len(lines)
    for i, line in enumerate(lines):
        if line.flag is not None:
            dead = False
            for j in range(i + 1, total):
                other = lines[j]
                if other.faultable or other.barrier:
                    break
                if other.flag == line.flag:
                    dead = True
                    break
            if dead:
                elided += 1
                continue
        keep.append(line)
    lines[:] = keep
    return elided


def compile_superblock(cpu, decoded: DecodedView, anchor: int):
    """Compile the straight-line run at ``anchor``, or ``None`` to reject.

    Returns a :class:`Superblock` whose execution is observationally
    identical — state, accounting, faults — to the step loop walking
    ``decoded.steps[anchor:anchor + count]``.
    """
    function = decoded.function
    steps = decoded.steps
    body = function.body
    total = len(steps)
    # Side-exits: canary group leaders while telemetry counts them, and
    # audited canary stores while the CPU has a watch.  Both stay in
    # the step loop, whose wrapped steps count and watch them.
    exits = set()
    if telemetry.canary_hooks() is not None:
        exits.update(cpu._canary_markers(function))
    if cpu.watch is not None:
        exits.update(cpu._canary_stores(function))

    picked: List[int] = []
    picked_set = set()
    inlined = set()  # block positions of followed (not emitted) jmps
    terminal = False
    k = anchor
    while k < total and len(picked) < MAX_STEPS:
        if k in picked_set:
            break  # walked back into the trace: side-exit, re-dispatch
        if k in exits:
            break  # side-exit: leader or watched store stays in the step loop
        kind = steps[k][3]
        if kind & SYNC:
            break  # rdtsc / native-charging call need exact accounting
        if kind & CONTROL:
            # Trace formation: follow an unconditional intra-function
            # jmp (it cannot fault once the label resolves and cannot
            # mispredict), stitching the target's run into this block.
            # A jmp to an index already in the trace stays a terminal:
            # the block's own re-dispatch closes the loop.
            target = _jmp_target(function, body[k])
            if target is not None and target < total and target not in picked_set:
                picked.append(k)
                picked_set.add(k)
                inlined.add(len(picked) - 1)
                k = target
                continue
            picked.append(k)
            picked_set.add(k)
            terminal = True
            break
        picked.append(k)
        picked_set.add(k)
        k += 1
    if len(picked) < MIN_STEPS:
        telemetry.count(
            "jit_blocks_rejected_total",
            help="superblock candidates rejected (too short / non-integral)",
        )
        return None
    for index in picked:
        cycles = steps[index][1]
        if cycles != int(cycles):
            # Non-integral (DBI-scaled) step costs: batched float sums
            # would drift off the sequential fold by ULPs.  Reject.
            telemetry.count(
                "jit_blocks_rejected_total",
                help="superblock candidates rejected (too short / non-integral)",
            )
            return None

    sb = Superblock()
    low = _Lowering()
    compiler = _Compiler(cpu, decoded)
    for pos, index in enumerate(picked):
        execute, cycles, ticks, kind, next_rip = steps[index]
        sb.prefix_cycles.append(
            (sb.prefix_cycles[-1] if sb.prefix_cycles else 0) + int(cycles)
        )
        sb.prefix_ticks.append(
            (sb.prefix_ticks[-1] if sb.prefix_ticks else 0) + ticks
        )
        sb.rips.append(next_rip)
        if pos in inlined:
            # Followed jmp: pure control transfer, nothing to execute —
            # the next emitted line *is* its target.  Accounting for the
            # retired jmp is already in the prefix tables above.
            continue
        if kind & CONTROL:
            # Terminal: stage rip exactly as the step loop would before
            # executing (fallthrough for an untaken conditional, the
            # return-address base for a specialised call).
            low.consts["ripT"] = next_rip
            low.fwd.clear()
            low.push_stack.clear()
            low.emit("R.rip = ripT", pos)
            low.opaque(execute, pos)
            continue
        if not compiler._lower(low, body[index], pos):
            low.opaque(execute, pos)

    elided = _elide_redundant_flags(low.lines)

    sb.count = len(picked)
    sb.cycles = sb.prefix_cycles[-1]
    sb.ticks = sb.prefix_ticks[-1]
    sb.terminal = terminal
    sb.end_index = k
    sb.source = _assemble(low)
    sb.run = _bind(cpu, low, sb, function.name, anchor)

    telemetry.count(
        "jit_blocks_compiled_total",
        help="superblocks compiled from hot dispatch points",
    )
    if elided:
        telemetry.count(
            "jit_peephole_flags_elided_total", delta=elided,
            help="redundant flag stores removed by the peephole pass",
        )
    if low.forwarded:
        telemetry.count(
            "jit_peephole_reads_forwarded_total", delta=low.forwarded,
            help="register reads forwarded from prior writes",
        )
    return sb


def _assemble(low: _Lowering) -> str:
    """Render the lowered lines into the factory source."""
    faultable = any(line.faultable for line in low.lines)
    params = ["_sb", "C", "g", "R", "M", "S", "T", "rd", "wr", "rb", "wb"]
    params.extend(sorted(low.consts))
    out = [f"def _factory({', '.join(params)}):", "    def run():"]
    if not low.lines:
        out.append("        pass")
    elif faultable:
        out.append("        _i = 0")
        out.append("        try:")
        marker = 0
        for line in low.lines:
            if line.faultable and line.pos != marker:
                marker = line.pos
                out.append(f"            _i = {marker}")
            out.append(f"            {line.code}")
        out.append("        except BaseException:")
        out.append("            _sb.fault_index = _i")
        out.append("            raise")
    else:
        for line in low.lines:
            out.append(f"        {line.code}")
    out.append("    return run")
    return "\n".join(out) + "\n"


def _bind(cpu, low: _Lowering, sb: Superblock, name: str, anchor: int):
    """Exec the factory and bind every runtime name through its closure."""
    namespace: Dict[str, object] = {}
    exec(  # noqa: S102 - source is generated above from vetted templates
        compile(sb.source, f"<jit {name}+{anchor}>", "exec"), namespace
    )
    return namespace["_factory"](
        sb,
        cpu,
        cpu.gpr,
        cpu.registers,
        WORD_MASK,
        SIGN_BIT,
        TWO64,
        cpu.read_word,
        cpu.write_word,
        cpu.read_byte,
        cpu.write_byte,
        *(low.consts[key] for key in sorted(low.consts)),
    )
