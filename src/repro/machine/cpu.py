"""The simulated CPU.

Executes :class:`~repro.isa.instructions.Function` bodies against a
:class:`~repro.machine.memory.Memory`, with cycle accounting from
``repro.isa.costs``.  Control flow uses *real* return addresses: ``call``
pushes the byte address of the following instruction onto the simulated
stack, and ``ret`` pops a word and resolves it back to code through the
loaded image.  A corrupted return address therefore either faults
(:class:`~repro.errors.InvalidJump` → SIGSEGV) or — if the attacker wrote a
precise code address — successfully hijacks control flow, exactly the two
outcomes the attack experiments distinguish.

Flag semantics are simplified relative to real x86 (documented deviation):
``cmp a, b`` sets ``zf = (a == b)``, ``sf = (a < b signed)``,
``cf = (a < b unsigned)``; conditional jumps read those directly.  ALU ops
set ``zf``/``sf`` from their result, which is what the canary-check
``xor``/``je`` sequences rely on.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable, Dict, Optional, Sequence

from .. import telemetry
from ..errors import (
    CpuLimitExceeded,
    DivisionFault,
    IllegalInstruction,
    InvalidJump,
)
from ..isa.costs import instruction_cost
from ..isa.instructions import Function, Imm, Instruction, Label, Mem, Reg, Sym
from ..isa.registers import ARG_REGS, RegisterFile
from ..telemetry import CanarySite
from . import jit as _jit
from .decode import CONTROL, SYNC, DecodedView, FunctionDecoder
from .devices import RdRandDevice, TimeStampCounter
from .memory import EXIT_ADDRESS, Memory

WORD_MASK = (1 << 64) - 1
XMM_MASK = (1 << 128) - 1
SIGN_BIT = 1 << 63

#: Batched run-loop totals, recorded once per ``CPU._run_loop`` return.
_INSTRUCTIONS = telemetry.counter(
    "machine_instructions_total", "instructions retired (both paths)"
)
_CYCLES = telemetry.counter(
    "machine_cycles_total", "simulated cycles charged (DBI-scaled)"
)
_RUN_LOOPS = telemetry.counter(
    "machine_run_loops_total", "run-loop entries (calls, resumes)"
)
_RUN_CYCLES = telemetry.histogram(
    "machine_run_cycles", (1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9),
    "simulated cycles per run-loop entry",
)
_JIT_ENTRIES = telemetry.counter(
    "jit_block_entries_total", "superblock executions (JIT tier)"
)
_JIT_SIDE_EXITS = telemetry.counter(
    "jit_side_exits_total", "superblock side-exits into the generic step loop"
)
_JIT_INVALIDATIONS = telemetry.counter(
    "jit_invalidations_total",
    "compiled superblocks dropped by explicit flushes",
)


def _signed(value: int) -> int:
    """Interpret a 64-bit unsigned word as signed."""
    return value - (1 << 64) if value & SIGN_BIT else value


@dataclass
class NativeFunction:
    """A libc/helper routine implemented in host Python.

    ``handler(cpu) -> int`` reads its arguments from the ABI registers via
    ``cpu`` and returns the value to place in ``rax``.  ``cost`` is the
    simulated cycle charge per invocation.
    """

    name: str
    handler: Callable[["CPU"], int]
    cost: int = 30


class CPU:
    """One hardware thread executing simulated code.

    Parameters
    ----------
    memory:
        The process address space.
    image:
        Loaded code image, fixed once loaded; must provide
        ``function(name)``, ``address_of(name, index)``,
        ``resolve(address)`` and the ``shared_decodes`` store, a
        :class:`~repro.binfmt.loader.DecodeStore` (see
        :class:`repro.binfmt.loader.LoadedImage`).
    natives:
        Symbol table of :class:`NativeFunction` objects consulted when a
        ``call`` target is not simulated code.
    dbi_multiplier:
        Per-instruction cycle multiplier modelling PIN-style dynamic
        binary instrumentation (1.0 = native execution).
    fast:
        Use the decode-cache fast path (default).  ``fast=False`` keeps
        the original interpret-every-step loop, which serves as the
        differential-testing oracle: both paths must produce identical
        cycles, instruction counts, memory images and exit statuses.
        The fast path is also bypassed whenever a ``trace`` hook is
        installed, since tracing observes every single step; a canary-store
        ``watch`` keeps it.
    """

    def __init__(
        self,
        memory: Memory,
        image,
        natives: Optional[Dict[str, NativeFunction]] = None,
        *,
        registers: Optional[RegisterFile] = None,
        tsc: Optional[TimeStampCounter] = None,
        rdrand: Optional[RdRandDevice] = None,
        cycle_limit: int = 50_000_000,
        dbi_multiplier: float = 1.0,
        fast: bool = True,
    ) -> None:
        self._bind(
            memory,
            image,
            natives if natives is not None else {},
            registers or RegisterFile(),
            tsc or TimeStampCounter(),
            rdrand,
            cycle_limit,
            dbi_multiplier,
            fast,
            _jit.jit_enabled(),
        )

    def fork_twin(
        self,
        memory: Memory,
        natives: Dict[str, NativeFunction],
        registers: RegisterFile,
        tsc: TimeStampCounter,
        rdrand: RdRandDevice,
    ) -> "CPU":
        """A fork child's CPU: this CPU's fixed configuration over the
        child's own address space, natives, registers and devices.

        The image, cycle limit, DBI multiplier and both tier flags
        (``fast``, ``jit``) come straight from this CPU, so the child
        skips the constructor's defaults and its ``REPRO_JIT`` read: it
        runs on the tiers its parent was born with.  Run state, caches
        and observers (trace, watch, profiler) start empty, exactly as
        on a constructed CPU.
        """
        twin = CPU.__new__(CPU)
        twin._bind(
            memory, self.image, natives, registers, tsc, rdrand,
            self.cycle_limit, self.dbi_multiplier, self.fast, self.jit,
        )
        return twin

    def _bind(
        self,
        memory: Memory,
        image,
        natives: Dict[str, NativeFunction],
        registers: RegisterFile,
        tsc: TimeStampCounter,
        rdrand: Optional[RdRandDevice],
        cycle_limit: int,
        dbi_multiplier: float,
        fast: bool,
        jit: bool,
    ) -> None:
        """Set every field of a new CPU (the one list of them, shared by
        the constructor and :meth:`fork_twin`)."""
        self.memory = memory
        self.image = image
        self.natives = natives
        self.registers = registers
        #: Per-process state the decoded steps reach through their CPU
        #: argument, bound once here; ``registers`` and ``memory`` are
        #: never reassigned, so these never go stale.
        self.gpr = registers.gpr
        self.read_word = memory.read_word
        self.write_word = memory.write_word
        self.read_byte = memory.read_byte
        self.write_byte = memory.write_byte
        self.tsc = tsc
        self.rdrand = rdrand
        self.cycle_limit = cycle_limit
        self.dbi_multiplier = dbi_multiplier
        self.fast = fast
        #: Trace-JIT tier (repro.machine.jit): profile control-transfer
        #: arrivals on the fast path and compile hot straight-line runs
        #: into superblocks.  ``REPRO_JIT=0`` disables it at CPU birth;
        #: a fork child inherits its parent CPU's setting.
        self.jit = jit
        #: Fault-injection plane, set by the owning Process.  While armed
        #: the JIT stays out of the way: every step runs in the generic
        #: loop so injected faults land at the same points as ``fast=False``.
        self.fault_plane = None

        self.cycles = 0.0
        self.instructions_executed = 0
        self.running = False
        self.exit_status = 0
        self._trace: Optional[Callable[[str, int, Instruction], None]] = None
        self._trace_warned = False
        #: Optional canary-store watch, called as ``watch(kind,
        #: instruction)`` with ``kind`` ``"fresh"`` or ``"fallback"``.  The
        #: canary probe hands it every executed audited C0 store
        #: (:func:`repro.telemetry.canary_sites`), after the store's cycle
        #: charge and before its semantics, in every interpreter tier.
        #: Unlike :attr:`trace`, a watch keeps the fast path, and setting
        #: or clearing one invalidates nothing.
        self.watch: Optional[Callable[[str, Instruction], None]] = None
        #: Optional telemetry Profiler receiving enter/close at function
        #: switches (one ``is not None`` check per switch when absent).
        self.profiler = None
        self._current: Optional[Function] = None
        #: This CPU's views of the image's shared step lists: function
        #: name -> DecodedView (see _decoded).
        self._decode_cache: Dict[str, DecodedView] = {}
        #: Canary-site tables for the slow loop, keyed by function name.
        self._site_cache: Dict[str, Dict[int, CanarySite]] = {}

    @property
    def trace(self) -> Optional[Callable[[str, int, Instruction], None]]:
        """Optional per-instruction hook for tests/debugging.

        Installing a hook forces the slow interpreter loop — it observes
        every step.  For always-on observation that keeps the fast path,
        use the sampled telemetry event stream instead (see
        docs/observability.md); to observe canary stores, set
        ``watch``.
        """
        return self._trace

    @trace.setter
    def trace(
        self, hook: Optional[Callable[[str, int, Instruction], None]]
    ) -> None:
        if hook is not None and self.fast and not self._trace_warned:
            self._trace_warned = True
            warnings.warn(
                "installing a cpu.trace hook forces the slow interpreter "
                "loop; for low-overhead observation use the sampled "
                "telemetry event stream (repro.telemetry) instead, or "
                "set cpu.watch = hook(kind, instruction) to observe "
                "canary stores on the fast path",
                RuntimeWarning,
                stacklevel=2,
            )
        self._trace = hook

    # ------------------------------------------------------------------
    # operand access
    # ------------------------------------------------------------------

    def effective_address(self, mem: Mem) -> int:
        """Compute the virtual address a memory operand refers to."""
        address = mem.disp
        if mem.seg == "fs":
            address += self.registers.fs_base
        elif mem.seg is not None:
            raise IllegalInstruction(f"unsupported segment {mem.seg}")
        if mem.base is not None:
            address += self.registers.read(mem.base)
        if mem.index is not None:
            address += self.registers.read(mem.index) * mem.scale
        return address & WORD_MASK

    def read_operand(self, operand, *, width: int = 8) -> int:
        """Read an operand value (``width`` bytes for memory operands)."""
        if isinstance(operand, Reg):
            return self.registers.read(operand.name)
        if isinstance(operand, Imm):
            return operand.value & WORD_MASK
        if isinstance(operand, Mem):
            address = self.effective_address(operand)
            if width == 8:
                return self.memory.read_word(address)
            if width == 1:
                return self.memory.read_byte(address)
            if width == 16:
                low = self.memory.read_word(address)
                high = self.memory.read_word(address + 8)
                return (high << 64) | low
            raise IllegalInstruction(f"bad access width {width}")
        if isinstance(operand, Sym):
            return self.image.address_of(operand.name)
        raise IllegalInstruction(f"cannot read operand {operand!r}")

    def write_operand(self, operand, value: int, *, width: int = 8) -> None:
        """Write an operand (register or memory)."""
        if isinstance(operand, Reg):
            self.registers.write(operand.name, value)
            return
        if isinstance(operand, Mem):
            address = self.effective_address(operand)
            if width == 8:
                self.memory.write_word(address, value & WORD_MASK)
            elif width == 1:
                self.memory.write_byte(address, value & 0xFF)
            elif width == 16:
                self.memory.write_word(address, value & WORD_MASK)
                self.memory.write_word(address + 8, (value >> 64) & WORD_MASK)
            else:
                raise IllegalInstruction(f"bad access width {width}")
            return
        raise IllegalInstruction(f"cannot write operand {operand!r}")

    # ------------------------------------------------------------------
    # stack helpers
    # ------------------------------------------------------------------

    def push_word(self, value: int) -> None:
        """Decrement rsp and store a 64-bit word."""
        rsp = (self.registers.read("rsp") - 8) & WORD_MASK
        self.registers.write("rsp", rsp)
        self.memory.write_word(rsp, value & WORD_MASK)

    def pop_word(self) -> int:
        """Load a 64-bit word and increment rsp."""
        rsp = self.registers.read("rsp")
        value = self.memory.read_word(rsp)
        self.registers.write("rsp", (rsp + 8) & WORD_MASK)
        return value

    # ------------------------------------------------------------------
    # control flow
    # ------------------------------------------------------------------

    def _jump_to(self, function: Function, index: int) -> None:
        self._current = function
        self.registers.rip = (function.name, index)

    def _jump_label(self, label: Label) -> None:
        function = self._current
        assert function is not None
        if label.name not in function.labels:
            raise InvalidJump(f"{function.name}: no label {label.name}")
        self.registers.rip = (function.name, function.labels[label.name])

    def _call_symbol(self, name: str) -> None:
        target = self.image.function(name)
        if target is not None:
            function, index = self.registers.rip  # already advanced past call
            return_address = self.image.address_of(function, index)
            self.push_word(return_address)
            self._jump_to(target, 0)
            return
        native = self.natives.get(name)
        if native is not None:
            self.charge(native.cost)
            result = native.handler(self)
            if result is not None:
                self.registers.write("rax", result & WORD_MASK)
            return
        raise InvalidJump(f"call to unresolved symbol {name!r}")

    def _return(self) -> None:
        address = self.pop_word()
        if address == EXIT_ADDRESS:
            self.running = False
            self.exit_status = self.registers.read("rax") & 0xFF
            return
        function, index = self.image.resolve(address)
        self._jump_to(function, index)

    # ------------------------------------------------------------------
    # main loop
    # ------------------------------------------------------------------

    def charge(self, cycles: float) -> None:
        """Account simulated cycles (scaled by the DBI multiplier)."""
        scaled = cycles * self.dbi_multiplier
        self.cycles += scaled
        self.tsc.advance(int(scaled) or 1)
        if self.cycles > self.cycle_limit:
            raise CpuLimitExceeded(
                f"cycle limit {self.cycle_limit} exceeded at {self.registers.rip}"
            )

    def call_function(
        self,
        name: str,
        args: Sequence[int] = (),
        *,
        stack_pointer: Optional[int] = None,
    ) -> int:
        """Run ``name(args...)`` to completion and return its value (rax).

        Sets up the ABI registers, pushes the exit sentinel as the return
        address, and executes until the outermost ``ret``.
        """
        if len(args) > len(ARG_REGS):
            raise IllegalInstruction("more than six integer arguments")
        entry = self.image.function(name)
        if entry is None:
            native = self.natives.get(name)
            if native is None:
                raise InvalidJump(f"no such function {name!r}")
        for register, value in zip(ARG_REGS, args):
            self.registers.write(register, value)
        if stack_pointer is not None:
            self.registers.write("rsp", stack_pointer)
        if entry is None:
            native = self.natives[name]
            self.charge(native.cost)
            result = native.handler(self) or 0
            self.registers.write("rax", result & WORD_MASK)
            return result & WORD_MASK
        self.push_word(EXIT_ADDRESS)
        self._jump_to(entry, 0)
        self.running = True
        self._run_loop()
        return self.registers.read("rax")

    def _run_loop(self) -> None:
        """Execute until ``running`` drops; picks the fast or slow path.

        The trace hook observes every step, so tracing always uses the
        slow path — accounting is identical either way.  Telemetry sees
        one aggregate flush per invocation (the exact cycle/instruction
        deltas the loop computed anyway), never a per-instruction call.
        """
        start_cycles = self.cycles
        start_instructions = self.instructions_executed
        try:
            if self.fast and self._trace is None:
                self._run_loop_fast()
            else:
                self._run_loop_slow()
        finally:
            # The exact deltas the loop already computed, so telemetry-on
            # and telemetry-off runs report identical cycles.
            cycles = self.cycles - start_cycles
            _INSTRUCTIONS.inc(self.instructions_executed - start_instructions)
            _CYCLES.inc(cycles)
            _RUN_LOOPS.inc()
            _RUN_CYCLES.observe(cycles)

    def _canary_sites(self, function: Function) -> Dict[int, CanarySite]:
        """``function``'s canary-site table, cached by name."""
        sites = self._site_cache.get(function.name)
        if sites is None:
            sites = self._site_cache[function.name] = (
                telemetry.canary_sites(function)
            )
        return sites

    def _run_loop_slow(self) -> None:
        """The original interpret-every-step loop (differential oracle).

        Canary sites run the same probe, from the same site table, that
        the decoder wraps site steps with, after the charge/retire point
        the fast path's wrapped closures run at — so both paths count
        leaders and watch stores identically, by construction, including
        on a cycle-limit trip.
        """
        probe = telemetry.canary_probe
        profiler = self.profiler
        profiled: Optional[Function] = None
        sited: Optional[Function] = None
        sites: Dict[int, CanarySite] = {}
        try:
            while self.running:
                function = self._current
                name, index = self.registers.rip
                assert function is not None and function.name == name
                if index >= len(function.body):
                    raise InvalidJump(f"{name}: execution ran off the end")
                instruction = function.body[index]
                if self._trace is not None:
                    self._trace(name, index, instruction)
                if profiler is not None and function is not profiled:
                    profiled = function
                    profiler.enter(name, self.cycles)
                self.registers.rip = (name, index + 1)
                self.charge(instruction_cost(instruction))
                self.instructions_executed += 1
                if function is not sited:
                    sited = function
                    sites = self._canary_sites(function)
                if sites:
                    site = sites.get(index)
                    if site is not None:
                        probe(self, site)
                self._dispatch(instruction)
        finally:
            if profiler is not None:
                profiler.close(self.cycles)

    # -- decode-cache fast path ------------------------------------------

    def flush_jit_cache(self) -> None:
        """Drop compiled superblocks (and hotness counts), keep decodes.

        Called by the kernel at a COW ``clone()`` boundary — the
        superblocks would stay *correct* (they bind the surviving
        ``Memory`` object's accessors), but dropping them means no
        compiled code outlives a memory-sharing event.
        """
        dropped = 0
        for decoded in self._decode_cache.values():
            if decoded.jit_blocks:
                dropped += sum(
                    1 for block in decoded.jit_blocks.values()
                    if block is not None
                )
                decoded.jit_blocks.clear()
            if decoded.jit_counts:
                decoded.jit_counts.clear()
        if dropped:
            _JIT_INVALIDATIONS.inc(dropped)

    def _decoded(self, function: Function) -> DecodedView:
        """This CPU's view of ``function``'s shared step list.

        Steps take their CPU as an argument, so one decode serves every
        CPU that runs on the image: the booted parent, its fork children
        and its threads, and every live clone of the same spawn image.
        The image's ``shared_decodes`` store holds the step lists, keyed
        by ``dbi_multiplier``; a loaded image never changes, so a step
        list is decoded once and never goes stale.  This CPU keeps one
        :class:`DecodedView` per function — the shared step list plus its
        own trace-JIT state.  Telemetry state and the CPU's watch are
        read by the canary probe at run time, so neither is part of the
        key.
        """
        name = function.name
        view = self._decode_cache.get(name)
        if view is None:
            dbi = self.dbi_multiplier
            shared = self.image.shared_decodes.setdefault(dbi, {})
            decoded = shared.get(name)
            if decoded is None:
                decoder = FunctionDecoder(self.image, _DISPATCH, dbi)
                decoded = shared[name] = decoder.decode(function)
            view = self._decode_cache[name] = DecodedView(decoded)
        return view

    def _run_loop_fast(self) -> None:
        """Walk pre-decoded step lists with batched cycle accounting.

        Cycle/TSC/instruction totals are accumulated locally and flushed
        to ``self.cycles`` / ``self.tsc`` / ``instructions_executed``
        before anything can observe them: SYNC steps (``rdtsc``, calls
        that may charge native costs), faults (the ``finally``), the
        cycle-limit trip, and loop exit.  The limit check itself runs
        every instruction against the local accumulator, so the trip
        point is bit-identical to the slow path's.

        The cycle accumulator folds one step at a time (``total += c``)
        rather than summing a batch and adding it to the base: DBI-scaled
        costs (×1.22, ×2.56) are not exactly representable, so float
        addition is non-associative and batch-first summation drifts off
        the slow path's sequential ``charge`` fold by a few ULPs — caught
        by the conformance fuzzer on the DCR scheme.

        Above the step loop sits the trace-JIT tier (``repro.machine.
        jit``): every control-transfer arrival is a dispatch point where
        a hot anchor is compiled into a superblock and subsequent
        arrivals run one Python call for the whole straight-line block,
        with accounting batched at block granularity (exact, because
        blocks only compile when every member cost is integral).
        Side-exits — SYNC steps, canary sites, trace-hook arms, block
        ends — drop back into the step loop below with identical
        architectural state; faults mid-block reconstruct it from the
        block's prefix tables.
        """
        registers = self.registers
        tsc = self.tsc
        cycle_limit = self.cycle_limit
        cycle_total = self.cycles
        pending_ticks = 0
        pending_instructions = 0
        profiler = self.profiler
        jit_entries = 0
        jit_exits = 0
        try:
            while self.running:
                function = self._current
                assert function is not None
                decoded = self._decoded(function)
                steps = decoded.steps
                name = function.name
                if profiler is not None:
                    profiler.enter(name, cycle_total)
                blocks = (
                    decoded.jit_blocks
                    if self.jit and self.fault_plane is None
                    else None
                )
                index = registers.rip[1]
                count = len(steps)
                while True:
                    # -- JIT dispatch: one chance per control-transfer
                    # arrival.  A mid-run trace-hook arm is honoured here:
                    # the next side-exit lands on this check and no further
                    # superblock runs until the hook is removed.
                    if blocks is not None and self._trace is None:
                        sb = blocks.get(index, False)
                        if sb is False:
                            counts = decoded.jit_counts
                            hot = counts.get(index, 0) + 1
                            counts[index] = hot
                            sb = None
                            if hot >= _jit.HOT_THRESHOLD:
                                sb = _jit.compile_superblock(
                                    self, decoded, index
                                )
                                blocks[index] = sb
                        if (
                            sb is not None
                            and cycle_total + sb.cycles <= cycle_limit
                        ):
                            # (Blocks near the cycle limit fall through to
                            # the step loop, which trips at the exact
                            # instruction the slow path would.)
                            try:
                                sb.run()
                            except BaseException:
                                # Recreate the step loop's state at the
                                # faulting step: rip staged before execute,
                                # accounting charged through it.
                                k = sb.fault_index
                                cycle_total += sb.prefix_cycles[k]
                                pending_ticks += sb.prefix_ticks[k]
                                pending_instructions += k + 1
                                registers.rip = sb.rips[k]
                                raise
                            cycle_total += sb.cycles
                            pending_ticks += sb.ticks
                            pending_instructions += sb.count
                            jit_entries += 1
                            if sb.terminal:
                                if not self.running:
                                    break
                                if self._current is function:
                                    index = registers.rip[1]
                                    continue
                                break
                            jit_exits += 1
                            index = sb.end_index
                            # Re-dispatch: the side-exit index may anchor
                            # another compiled block (or close a loop back
                            # onto this one).  Unrunnable anchors fall
                            # through to the step loop below, so every
                            # iteration makes progress.
                            continue
                    # -- generic decoded-step loop (one control transfer)
                    while True:
                        if index >= count:
                            raise InvalidJump(
                                f"{name}: execution ran off the end"
                            )
                        execute, cycles, ticks, kind, next_rip = steps[index]
                        registers.rip = next_rip
                        cycle_total += cycles
                        pending_ticks += ticks
                        if cycle_total > cycle_limit:
                            # The finally clause flushes; instructions_executed
                            # excludes this instruction, matching charge().
                            raise CpuLimitExceeded(
                                f"cycle limit {cycle_limit} exceeded at "
                                f"{registers.rip}"
                            )
                        pending_instructions += 1
                        if kind == 0:
                            execute(self)
                            index += 1
                            continue
                        if kind & SYNC:
                            # Make accounting exact before the step can
                            # observe it (rdtsc, native charge), then re-sync
                            # afterwards because natives may have charged
                            # more cycles.
                            self.cycles = cycle_total
                            tsc.advance(pending_ticks)
                            self.instructions_executed += pending_instructions
                            pending_ticks = 0
                            pending_instructions = 0
                            try:
                                execute(self)
                            finally:
                                cycle_total = self.cycles
                        else:
                            execute(self)
                        if not (kind & CONTROL):
                            index += 1
                            continue
                        break
                    # -- after a CONTROL step
                    if not self.running:
                        break
                    if self._current is not function:
                        break
                    index = registers.rip[1]
        finally:
            self.cycles = cycle_total
            tsc.advance(pending_ticks)
            self.instructions_executed += pending_instructions
            if profiler is not None:
                profiler.close(cycle_total)
            if jit_entries:
                _JIT_ENTRIES.inc(jit_entries)
                _JIT_SIDE_EXITS.inc(jit_exits)

    # ------------------------------------------------------------------
    # instruction semantics
    # ------------------------------------------------------------------

    def _set_flags(self, result: int) -> None:
        result &= WORD_MASK
        self.registers.zf = result == 0
        self.registers.sf = bool(result & SIGN_BIT)

    def _dispatch(self, instruction: Instruction) -> None:
        op = instruction.op
        handler = _DISPATCH.get(op)
        if handler is None:
            raise IllegalInstruction(f"no semantics for {op!r}")
        handler(self, instruction)

    # Individual handlers (bound through _DISPATCH below). ---------------

    def _op_nop(self, instruction: Instruction) -> None:
        pass

    def _op_hlt(self, instruction: Instruction) -> None:
        self.running = False
        self.exit_status = self.registers.read("rax") & 0xFF

    def _op_mov(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            self.registers.write(dst.name, self.read_operand(src, width=8))
            return
        if isinstance(src, Reg) and src.name.startswith("xmm"):
            self.write_operand(dst, self.registers.read(src.name) & WORD_MASK)
            return
        self.write_operand(dst, self.read_operand(src))

    def _op_movb(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        value = self.read_operand(src, width=1) & 0xFF
        if isinstance(dst, Reg):
            old = self.registers.read(dst.name)
            self.registers.write(dst.name, (old & ~0xFF) | value)
        else:
            self.write_operand(dst, value, width=1)

    def _op_movzxb(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        self.write_operand(dst, self.read_operand(src, width=1) & 0xFF)

    def _op_lea(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        if isinstance(src, Mem):
            self.write_operand(dst, self.effective_address(src))
        elif isinstance(src, Sym):
            self.write_operand(dst, self.image.address_of(src.name))
        else:
            raise IllegalInstruction("lea needs a memory or symbol source")

    def _op_xchg(self, instruction: Instruction) -> None:
        a, b = instruction.operands
        va, vb = self.read_operand(a), self.read_operand(b)
        self.write_operand(a, vb)
        self.write_operand(b, va)

    def _op_push(self, instruction: Instruction) -> None:
        self.push_word(self.read_operand(instruction.operands[0]))

    def _op_pop(self, instruction: Instruction) -> None:
        self.write_operand(instruction.operands[0], self.pop_word())

    def _binary_alu(self, instruction: Instruction, combine) -> None:
        dst, src = instruction.operands
        result = combine(self.read_operand(dst), self.read_operand(src)) & WORD_MASK
        self.write_operand(dst, result)
        self._set_flags(result)

    def _op_add(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        a, b = self.read_operand(dst), self.read_operand(src)
        result = a + b
        self.registers.cf = result > WORD_MASK
        result &= WORD_MASK
        self.write_operand(dst, result)
        self._set_flags(result)

    def _op_sub(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        a, b = self.read_operand(dst), self.read_operand(src)
        self.registers.cf = a < b
        result = (a - b) & WORD_MASK
        self.write_operand(dst, result)
        self._set_flags(result)

    def _op_xor(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: a ^ b)
        self.registers.cf = False

    def _op_or(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: a | b)

    def _op_and(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: a & b)

    def _op_shl(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: a << (b & 63))

    def _op_shr(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: a >> (b & 63))

    def _op_sar(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: (_signed(a) >> (b & 63)) & WORD_MASK)

    def _op_imul(self, instruction: Instruction) -> None:
        self._binary_alu(instruction, lambda a, b: _signed(a) * _signed(b))

    def _op_idiv(self, instruction: Instruction) -> None:
        divisor = _signed(self.read_operand(instruction.operands[0]))
        if divisor == 0:
            raise DivisionFault("integer division by zero")
        dividend = _signed(self.registers.read("rax"))
        # x86 truncates toward zero; exact integer division, since a float
        # quotient is wrong once |dividend| > 2**53.  INT64_MIN / -1 wraps
        # to INT64_MIN (the hardware raises #DE there; not modelled).
        quotient = abs(dividend) // abs(divisor)
        if (dividend < 0) != (divisor < 0):
            quotient = -quotient
        remainder = dividend - quotient * divisor
        self.registers.write("rax", quotient & WORD_MASK)
        self.registers.write("rdx", remainder & WORD_MASK)

    def _op_neg(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        result = (-self.read_operand(target)) & WORD_MASK
        self.write_operand(target, result)
        self._set_flags(result)

    def _op_not(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        self.write_operand(target, (~self.read_operand(target)) & WORD_MASK)

    def _op_inc(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        result = (self.read_operand(target) + 1) & WORD_MASK
        self.write_operand(target, result)
        self._set_flags(result)

    def _op_dec(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        result = (self.read_operand(target) - 1) & WORD_MASK
        self.write_operand(target, result)
        self._set_flags(result)

    def _op_cmp(self, instruction: Instruction) -> None:
        a, b = (self.read_operand(o) for o in instruction.operands)
        self.registers.zf = a == b
        self.registers.sf = _signed(a) < _signed(b)
        self.registers.cf = a < b

    def _op_test(self, instruction: Instruction) -> None:
        a, b = (self.read_operand(o) for o in instruction.operands)
        self._set_flags(a & b)
        self.registers.cf = False

    # -- control flow ----------------------------------------------------

    def _op_jmp(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        if isinstance(target, Label):
            self._jump_label(target)
        elif isinstance(target, Sym):
            function = self.image.function(target.name)
            if function is None:
                raise InvalidJump(f"jmp to unresolved symbol {target.name!r}")
            self._jump_to(function, 0)
        else:
            function, index = self.image.resolve(self.read_operand(target))
            self._jump_to(function, index)

    def _conditional(self, instruction: Instruction, taken: bool) -> None:
        if taken:
            target = instruction.operands[0]
            if isinstance(target, Label):
                self._jump_label(target)
            else:
                raise InvalidJump("conditional jump needs a label target")

    def _op_je(self, i: Instruction) -> None:
        self._conditional(i, self.registers.zf)

    def _op_jne(self, i: Instruction) -> None:
        self._conditional(i, not self.registers.zf)

    def _op_jl(self, i: Instruction) -> None:
        self._conditional(i, self.registers.sf)

    def _op_jle(self, i: Instruction) -> None:
        self._conditional(i, self.registers.sf or self.registers.zf)

    def _op_jg(self, i: Instruction) -> None:
        self._conditional(i, not (self.registers.sf or self.registers.zf))

    def _op_jge(self, i: Instruction) -> None:
        self._conditional(i, not self.registers.sf)

    def _op_jb(self, i: Instruction) -> None:
        self._conditional(i, self.registers.cf)

    def _op_jae(self, i: Instruction) -> None:
        self._conditional(i, not self.registers.cf)

    def _op_call(self, instruction: Instruction) -> None:
        target = instruction.operands[0]
        if isinstance(target, Sym):
            self._call_symbol(target.name)
        else:
            address = self.read_operand(target)
            function, index = self.image.resolve(address)
            name, next_index = self.registers.rip
            self.push_word(self.image.address_of(name, next_index))
            self._jump_to(function, index)

    def _op_ret(self, instruction: Instruction) -> None:
        self._return()

    def _op_leave(self, instruction: Instruction) -> None:
        self.registers.write("rsp", self.registers.read("rbp"))
        self.registers.write("rbp", self.pop_word())

    # -- special -----------------------------------------------------------

    def _op_rdrand(self, instruction: Instruction) -> None:
        if self.rdrand is None:
            raise IllegalInstruction("rdrand executed with no RNG device")
        value, ok = self.rdrand.read()
        self.write_operand(instruction.operands[0], value)
        self.registers.cf = ok

    def _op_rdtsc(self, instruction: Instruction) -> None:
        value = self.tsc.read()
        self.registers.write("rax", value & 0xFFFF_FFFF)
        self.registers.write("rdx", (value >> 32) & 0xFFFF_FFFF)

    def _op_syscall(self, instruction: Instruction) -> None:
        raise IllegalInstruction("raw syscall: kernel services are native calls")

    # -- xmm ---------------------------------------------------------------

    def _op_movq(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            self.registers.write(dst.name, self.read_operand(src) & WORD_MASK)
        elif isinstance(src, Reg) and src.name.startswith("xmm"):
            self.write_operand(dst, self.registers.read(src.name) & WORD_MASK)
        else:
            raise IllegalInstruction("movq needs one xmm operand")

    def _op_movhps(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            high = self.read_operand(src) & WORD_MASK
            low = self.registers.read(dst.name) & WORD_MASK
            self.registers.write(dst.name, (high << 64) | low)
        elif isinstance(src, Reg) and src.name.startswith("xmm"):
            self.write_operand(dst, (self.registers.read(src.name) >> 64) & WORD_MASK)
        else:
            raise IllegalInstruction("movhps needs one xmm operand")

    def _op_movdqu(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        if isinstance(dst, Reg) and dst.name.startswith("xmm"):
            self.registers.write(dst.name, self.read_operand(src, width=16))
        elif isinstance(src, Reg) and src.name.startswith("xmm"):
            self.write_operand(dst, self.registers.read(src.name), width=16)
        else:
            raise IllegalInstruction("movdqu needs one xmm operand")

    def _op_punpckhdq(self, instruction: Instruction) -> None:
        # Simplified semantics matching the paper's key-packing usage:
        # xmm.high64 = src, xmm.low64 preserved.
        dst, src = instruction.operands
        if not (isinstance(dst, Reg) and dst.name.startswith("xmm")):
            raise IllegalInstruction("punpckhdq destination must be xmm")
        high = self.read_operand(src) & WORD_MASK
        low = self.registers.read(dst.name) & WORD_MASK
        self.registers.write(dst.name, (high << 64) | low)

    def _op_comiss(self, instruction: Instruction) -> None:
        # Simplified: full 128-bit equality compare setting ZF, matching the
        # paper's use of comiss to compare recomputed vs stored ciphertext.
        a, b = instruction.operands
        va = (
            self.registers.read(a.name)
            if isinstance(a, Reg) and a.name.startswith("xmm")
            else self.read_operand(a, width=16)
        )
        vb = (
            self.registers.read(b.name)
            if isinstance(b, Reg) and b.name.startswith("xmm")
            else self.read_operand(b, width=16)
        )
        self.registers.zf = va == vb

    def _op_pxor(self, instruction: Instruction) -> None:
        dst, src = instruction.operands
        if not (isinstance(dst, Reg) and dst.name.startswith("xmm")):
            raise IllegalInstruction("pxor destination must be xmm")
        value = (
            self.registers.read(src.name)
            if isinstance(src, Reg) and src.name.startswith("xmm")
            else self.read_operand(src, width=16)
        )
        self.registers.write(dst.name, self.registers.read(dst.name) ^ value)


_DISPATCH: Dict[str, Callable[[CPU, Instruction], None]] = {
    "nop": CPU._op_nop,
    "hlt": CPU._op_hlt,
    "mov": CPU._op_mov,
    "movb": CPU._op_movb,
    "movzxb": CPU._op_movzxb,
    "lea": CPU._op_lea,
    "xchg": CPU._op_xchg,
    "push": CPU._op_push,
    "pop": CPU._op_pop,
    "add": CPU._op_add,
    "sub": CPU._op_sub,
    "xor": CPU._op_xor,
    "or": CPU._op_or,
    "and": CPU._op_and,
    "shl": CPU._op_shl,
    "shr": CPU._op_shr,
    "sar": CPU._op_sar,
    "imul": CPU._op_imul,
    "idiv": CPU._op_idiv,
    "neg": CPU._op_neg,
    "not": CPU._op_not,
    "inc": CPU._op_inc,
    "dec": CPU._op_dec,
    "cmp": CPU._op_cmp,
    "test": CPU._op_test,
    "jmp": CPU._op_jmp,
    "je": CPU._op_je,
    "jne": CPU._op_jne,
    "jl": CPU._op_jl,
    "jle": CPU._op_jle,
    "jg": CPU._op_jg,
    "jge": CPU._op_jge,
    "jb": CPU._op_jb,
    "jae": CPU._op_jae,
    "call": CPU._op_call,
    "ret": CPU._op_ret,
    "leave": CPU._op_leave,
    "rdrand": CPU._op_rdrand,
    "rdtsc": CPU._op_rdtsc,
    "syscall": CPU._op_syscall,
    "movq": CPU._op_movq,
    "movhps": CPU._op_movhps,
    "movdqu": CPU._op_movdqu,
    "punpckhdq": CPU._op_punpckhdq,
    "comiss": CPU._op_comiss,
    "pxor": CPU._op_pxor,
}
