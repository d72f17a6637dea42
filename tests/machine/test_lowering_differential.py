"""Single-instruction differential: slow loop ≡ decoded step ≡ superblock.

Decoded steps and superblocks both come from one straight-line lowering
(:func:`repro.machine.decode.lower`); the slow loop's ``_op_*`` handlers
are the oracle.  Each example runs one instruction, followed by ``hlt``,
from one register and memory state on three tiers:

* the slow loop (``fast=False``);
* the decoded step (fast loop, trace-JIT off);
* a superblock (fast loop, trace-JIT on and hot at the first arrival, so
  ``[instruction, hlt]`` runs as one compiled block).

The full :func:`~repro.machine.debug.architectural_snapshot` and the
exception type must agree.  Operands cover every op the lowering
accepts, in every shape (including the ones it hands back to the slow
handler): GPRs and xmm registers, immediates at and beyond 2^63 and
negative, base/index/scale memory, ``fs:``-relative memory, and
resolvable and unresolvable symbols.  Registers point at mapped,
unmapped and page-straddling addresses.
"""

from types import SimpleNamespace
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro.binfmt.elf import Binary
from repro.binfmt.loader import load
from repro.isa.instructions import Function, Imm, Instruction, Mem, Reg, Sym
from repro.isa.registers import GPRS
from repro.machine import jit
from repro.machine.cpu import CPU
from repro.machine.debug import architectural_snapshot, snapshot_divergences
from repro.machine.decode import LOWERINGS
from repro.machine.devices import TimeStampCounter
from repro.machine.memory import (
    DATA_BASE,
    PAGE,
    STACK_TOP,
    TLS_BASE,
    standard_memory,
)

STACK_SIZE = 3 * PAGE
WORD = (1 << 64) - 1

#: Operand count of each lowered op.
ARITY = {op: 2 for op in LOWERINGS}
ARITY.update(
    nop=0, leave=0, push=1, pop=1, inc=1, dec=1, neg=1, **{"not": 1}
)

#: Register values: mapped words, unmapped addresses, words straddling
#: a page boundary (inside the stack, and off either end of a segment),
#: and plain integers.
ADDRESSES = [
    STACK_TOP - PAGE - 0x40,  # mapped, mid-stack
    STACK_TOP - PAGE - 4,  # straddles two mapped stack pages
    STACK_TOP - 4,  # straddles the stack's end
    STACK_TOP - STACK_SIZE,  # the stack's first word
    DATA_BASE,  # mapped data
    DATA_BASE - 4,  # straddles the data segment's start
    TLS_BASE + PAGE - 4,  # straddles the TLS segment's end
    0x1000,  # unmapped
    0,
]
NUMBERS = [1, 8, 63, 64, 0xFF, 1 << 63, WORD, (1 << 63) - 1]

registers = st.sampled_from(ADDRESSES + NUMBERS)
gprs = st.sampled_from(GPRS).map(Reg)
xmms = st.sampled_from(["xmm0", "xmm15"]).map(Reg)
immediates = st.one_of(
    st.sampled_from([0, 1, 8, 63, 0xFF, 0x100, 1 << 63, WORD, -1, -8, -(1 << 63)]),
    st.integers(-(1 << 70), 1 << 70),
).map(Imm)
memories = st.builds(
    Mem,
    base=st.none() | st.sampled_from(["rsp", "rbp", "rax", "rbx", "rdi"]),
    disp=st.sampled_from([0, 8, -8, 0xFFF, -PAGE, 4, STACK_TOP - 4, 1 << 63]),
    seg=st.sampled_from([None, None, None, "fs"]),
    index=st.none() | st.sampled_from(["rcx", "rsi", "rsp"]),
    scale=st.sampled_from([1, 2, 4, 8]),
)
symbols = st.sampled_from(["f", "blob", "nowhere"]).map(Sym)
operands = st.one_of(gprs, gprs, xmms, immediates, memories, memories, symbols)
#: One-operand forms the loader's encoding model can lay out.
targets = st.one_of(gprs, xmms, memories)
pushed = st.one_of(gprs, xmms, immediates, memories)


@st.composite
def instructions(draw):
    op = draw(st.sampled_from(sorted(LOWERINGS)))
    if ARITY[op] == 1:
        return Instruction(op, (draw(pushed if op == "push" else targets),))
    return Instruction(op, tuple(draw(operands) for _ in range(ARITY[op])))


def run_tier(instruction, state, tier):
    """Run ``instruction; hlt`` from ``state`` on one tier."""
    binary = Binary("lowering")
    binary.rodata["blob"] = bytes(range(1, 25))
    binary.add_function(Function("f", [instruction, Instruction("hlt")]))
    memory = standard_memory(
        stack_size=STACK_SIZE, heap_size=PAGE, data_size=2 * PAGE
    )
    for base in (STACK_TOP - STACK_SIZE, STACK_TOP - PAGE - 0x80):
        memory.write(base, bytes((i * 7 + 3) & 0xFF for i in range(0x100)))
    image = load(binary, memory)
    cpu = CPU(
        memory, image, {}, tsc=TimeStampCounter(1000), fast=tier != "slow"
    )
    cpu.jit = tier == "superblock"
    gpr_values, xmm_value, flags = state
    for name, value in zip(GPRS, gpr_values):
        cpu.registers.write(name, value)
    cpu.registers.write("xmm0", xmm_value)
    cpu.registers.write("xmm15", xmm_value >> 3)
    cpu.registers.fs_base = TLS_BASE
    cpu.registers.zf, cpu.registers.sf, cpu.registers.cf = flags
    function = image.function("f")
    cpu._current = function
    cpu.registers.rip = ("f", 0)
    cpu.running = True
    error = None
    with mock.patch.object(jit, "HOT_THRESHOLD", 1):
        try:
            cpu._run_loop()
        except Exception as exc:  # the type is compared across tiers
            error = type(exc)
    block = None
    if tier == "superblock":
        block = cpu._decode_cache["f"].jit_blocks.get(0)
        assert block is not None, "the instruction did not run in a superblock"
    process = SimpleNamespace(
        state="", exit_status=cpu.exit_status, crash=None, cpu=cpu,
        registers=cpu.registers, memory=memory, stdout=b"",
    )
    return architectural_snapshot(process), error, block


states = st.tuples(
    st.tuples(*[registers] * len(GPRS)),
    st.integers(0, (1 << 128) - 1),
    st.tuples(st.booleans(), st.booleans(), st.booleans()),
)

#: A state whose rsp and rbp point at a mid-stack word.
MAPPED = (
    tuple(STACK_TOP - PAGE - 0x40 for _ in GPRS), 1 << 100, (False, True, False)
)
#: The same with rbp unmapped, so ``leave``'s load faults.
RBP_UNMAPPED = (
    tuple(0x1000 if name == "rbp" else STACK_TOP - PAGE - 0x40 for name in GPRS),
    0, (True, False, True),
)


def assert_tiers_agree(instruction, state):
    """Run every tier; return the superblock the JIT tier compiled."""
    slow, slow_error, _ = run_tier(instruction, state, "slow")
    for tier in ("step", "superblock"):
        fast, fast_error, block = run_tier(instruction, state, tier)
        assert fast_error is slow_error, (tier, str(instruction))
        divergences = snapshot_divergences(fast, slow)
        assert not divergences, (tier, str(instruction), divergences)
    return block


@settings(derandomize=True, max_examples=1000, deadline=None)
@given(instruction=instructions(), state=states)
# push reads its source before rsp moves, and a faulting read leaves rsp
# alone; a faulting leave leaves rsp = rbp.
@example(Instruction("push", (Reg("rsp"),)), MAPPED)
@example(Instruction("push", (Mem(base="rsp", disp=8),)), MAPPED)
@example(Instruction("push", (Mem(disp=0x1000),)), MAPPED)  # unmapped
@example(Instruction("leave"), RBP_UNMAPPED)
def test_one_instruction_agrees_on_every_tier(instruction, state):
    assert_tiers_agree(instruction, state)


@pytest.mark.parametrize("op", sorted(LOWERINGS))
def test_every_lowered_op_is_inlined_in_the_superblock(op):
    """Each op's plain GPR/immediate shape is lowered into the block's
    own source, not called as an opaque step (``e0(C)``)."""
    shape = {0: (), 1: (Reg("rax"),), 2: (Reg("rax"), Imm(3))}[ARITY[op]]
    if op == "lea":
        shape = (Reg("rax"), Mem(base="rbx", disp=8))
    block = assert_tiers_agree(Instruction(op, shape), MAPPED)
    assert "e0(C)" not in block.source
