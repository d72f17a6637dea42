"""Trace-JIT tier: compile hot runs of decoded steps into superblocks.

The decode cache (:mod:`repro.machine.decode`) lowers each *static*
instruction to one step; the fast loop still pays one Python call plus
loop bookkeeping per *dynamic* instruction.  This module adds the next
tier: when a control-transfer arrival point (a back-edge or call
target) gets hot, the straight-line run of decoded steps starting there
is compiled into a single **superblock** function — one Python call per
guest basic block — and ``exec``-ed with every name pre-bound through a
closure.  The source text of each instruction comes from the same
lowering (:func:`repro.machine.decode.lower`) that builds the decoded
steps, so the two tiers share one definition of straight-line
semantics; this module adds only trace formation, the peephole pass
and the block's fault bookkeeping.  An instruction the lowering does
not accept here (a symbol operand, an xmm move, a control transfer)
runs as an opaque call of its decoded step.

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
* **Side-exits** happen at every canary site (group leaders and audited
  C0 stores, whose decoded steps carry the canary probe), SYNC steps
  (``rdtsc``, calls that can reach natives), block-size caps, and
  cycle-limit proximity; each returns to the generic step loop with
  architectural state indistinguishable from never having JIT-compiled
  at all.  The exit set is static — it reads neither telemetry state
  nor the CPU's watch — so no superblock depends on observation state.

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

Compiling is memoised by source text.  The generated source names no
per-CPU value: the block's superblock, CPU, register file, memory
accessors and opaque step closures all arrive as arguments of its
``_factory``, and it is compiled under one fixed filename.  So
``compile`` + ``exec`` is a pure function of the text, and one factory
serves every CPU (and every run) that lowers a block to the same source;
each CPU still gets its own :class:`Superblock` and ``run`` closure.  The
memo is an LRU of :data:`FACTORY_MEMO_SIZE` entries: room for every
distinct block of the SPEC-like suite under two schemes (392), while a
stream of unique programs (the chaos campaign) keeps at most that many
code objects alive.
``jit_blocks_compiled_total`` still counts every block a CPU compiles.

A CPU's superblocks hang on its :class:`DecodedView` of each function.
Loaded code never changes, so no code event drops them; the kernel
drops a parent's superblocks when a fork COW-clones its memory
(``CPU.flush_jit_cache``, counted in ``jit_invalidations_total``).

``REPRO_JIT=0`` disables the tier entirely (the decoded steps still run,
one per instruction); the slow loop remains the semantic oracle either
way.
"""

from __future__ import annotations

import os
from collections import OrderedDict
from typing import Callable, Dict, List, Optional, Tuple

from .. import telemetry
from ..isa.instructions import Label
from .decode import (
    CONTROL,
    SIGN_BIT,
    SYNC,
    TWO64,
    WORD_MASK,
    DecodedView,
    Line,
    Lowering,
    lower,
)

#: Environment switch: ``REPRO_JIT=0`` disables superblock compilation.
ENV_FLAG = "REPRO_JIT"

#: Arrivals at a dispatch point before it is compiled.
HOT_THRESHOLD = 16
#: Blocks shorter than this lose to the step loop's own bookkeeping.
MIN_STEPS = 2
#: Cap on steps per superblock (bounds compile time and fault tables).
MAX_STEPS = 128
#: Superblock factories kept by :func:`_factory_for` (LRU, by source).
FACTORY_MEMO_SIZE = 512
_FACTORIES: "OrderedDict[str, Callable]" = OrderedDict()

_BLOCKS_COMPILED = telemetry.counter(
    "jit_blocks_compiled_total", "superblocks compiled from hot dispatch points"
)
_BLOCKS_REJECTED = telemetry.counter(
    "jit_blocks_rejected_total",
    "superblock candidates rejected (too short / non-integral)",
)
_FLAGS_ELIDED = telemetry.counter(
    "jit_peephole_flags_elided_total",
    "redundant flag stores removed by the peephole pass",
)
_READS_FORWARDED = telemetry.counter(
    "jit_peephole_reads_forwarded_total",
    "register reads forwarded from prior writes",
)


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


def _elide_redundant_flags(lines: List[Line]) -> int:
    """Peephole rule 1: drop flag stores overwritten before any observer.

    A flag store is dead only when the same flag is written again with
    no possibly-faulting line, opaque call, or block end in between —
    flags are architectural state at every one of those points.
    """
    keep: List[Line] = []
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
    # Side-exits: every canary site stays in the step loop, whose
    # wrapped step runs the canary probe.
    sites = decoded.sites

    picked: List[int] = []
    picked_set = set()
    inlined = set()  # block positions of followed (not emitted) jmps
    terminal = False
    k = anchor
    while k < total and len(picked) < MAX_STEPS:
        if k in picked_set:
            break  # walked back into the trace: side-exit, re-dispatch
        if k in sites:
            break  # side-exit: the site's probe runs in the step loop
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
        _BLOCKS_REJECTED.inc()
        return None
    for index in picked:
        cycles = steps[index][1]
        if cycles != int(cycles):
            # Non-integral (DBI-scaled) step costs: batched float sums
            # would drift off the sequential fold by ULPs.  Reject.
            _BLOCKS_REJECTED.inc()
            return None

    sb = Superblock()
    low = Lowering()
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
        instruction = body[index]
        if not lower(low, instruction.op, instruction.operands, pos):
            # Includes every instruction with a symbol operand: its step
            # holds the resolved address, so the block calls the step.
            low.opaque(execute, pos)

    elided = _elide_redundant_flags(low.lines)

    sb.count = len(picked)
    sb.cycles = sb.prefix_cycles[-1]
    sb.ticks = sb.prefix_ticks[-1]
    sb.terminal = terminal
    sb.end_index = k
    sb.source = _assemble(low)
    sb.run = _bind(cpu, low, sb)

    _BLOCKS_COMPILED.inc()
    if elided:
        _FLAGS_ELIDED.inc(elided)
    if low.forwarded:
        _READS_FORWARDED.inc(low.forwarded)
    return sb


def _assemble(low: Lowering) -> str:
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


def _factory_for(source: str):
    """The ``_factory`` that ``source`` defines, memoised by its text."""
    factory = _FACTORIES.get(source)
    if factory is not None:
        _FACTORIES.move_to_end(source)
        return factory
    namespace: Dict[str, object] = {}
    exec(  # noqa: S102 - source is generated above from vetted templates
        compile(source, "<jit superblock>", "exec"), namespace
    )
    factory = _FACTORIES[source] = namespace["_factory"]
    if len(_FACTORIES) > FACTORY_MEMO_SIZE:
        _FACTORIES.popitem(last=False)
    return factory


def _bind(cpu, low: Lowering, sb: Superblock):
    """Bind the block's factory to this CPU and superblock."""
    return _factory_for(sb.source)(
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
