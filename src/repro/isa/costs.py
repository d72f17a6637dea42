"""Cycle-cost model.

Calibration targets come from the paper's own measurements:

* Table V — prologue+epilogue cycles: P-SSP ≈ 6, P-SSP-NT ≈ 343,
  P-SSP-LV ≈ 343 (2 vars) / 986 (4 vars), P-SSP-OWF ≈ 278.
  The paper attributes ~340 cycles to ``rdrand`` and ~272 to the AES pair,
  so we set RDRAND_COST = 337 and the AES helper call to 116 cycles, which
  lands each scheme in the right band *by executing its real instruction
  sequence*, not by table lookup.
* DynaGuard's PIN-based variant costs 156% (Table I): dynamic binary
  instrumentation is modelled as a per-instruction multiplier
  (:data:`DBI_MULTIPLIER`) applied by the machine when a process is run
  under DBI, matching how PIN taxes every instruction.

Plain ALU and move instructions cost 1 cycle; memory accesses add
:data:`MEM_ACCESS_COST` per memory operand — a deliberately simple in-order
model.  Absolute numbers are not meant to match an i7-4770K; ratios are.
"""

from __future__ import annotations

from functools import cache

from .instructions import Instruction, Mem

#: Extra cycles per memory operand touched.
MEM_ACCESS_COST = 1

#: ``rdrand`` latency (paper: "costs about 340 more CPU cycles").
RDRAND_COST = 337

#: ``rdtsc`` latency (documented ~24 cycles on Haswell).
RDTSC_COST = 24

#: Cost of one AES_ENCRYPT_128 helper invocation (call + 10 rounds).
AES_HELPER_COST = 116

#: PIN-style dynamic binary instrumentation multiplier: every instruction
#: executed under DBI costs this many times its native cycles.
DBI_MULTIPLIER = 2.56

_BASE_COSTS = {
    "nop": 1,
    "hlt": 1,
    "mov": 1,
    "movb": 1,
    "movzxb": 1,
    "lea": 1,
    "xchg": 2,
    "push": 2,
    "pop": 2,
    "add": 1,
    "sub": 1,
    "xor": 1,
    "or": 1,
    "and": 1,
    "shl": 1,
    "shr": 1,
    "sar": 1,
    "neg": 1,
    "not": 1,
    "inc": 1,
    "dec": 1,
    "imul": 3,
    "idiv": 22,
    "cmp": 1,
    "test": 1,
    "jmp": 2,
    "je": 1,
    "jne": 1,
    "jl": 1,
    "jle": 1,
    "jg": 1,
    "jge": 1,
    "jb": 1,
    "jae": 1,
    "call": 4,
    "ret": 4,
    "leave": 3,
    "rdrand": RDRAND_COST,
    "rdtsc": RDTSC_COST,
    "syscall": 80,
    "movq": 1,
    "movhps": 2,
    "movdqu": 2,
    "punpckhdq": 1,
    "comiss": 2,
    "pxor": 1,
}

#: Cycle costs charged when simulated code calls a native helper.
NATIVE_HELPER_COSTS = {
    "AES_ENCRYPT_128": AES_HELPER_COST,
}


@cache
def instruction_cost(instruction: Instruction) -> int:
    """Cycles consumed by one dynamic execution of ``instruction``.

    Instructions are immutable value objects, so the cost is memoised
    once per value — the slow loop calls this for every dynamic
    instruction.
    """
    cost = _BASE_COSTS[instruction.op]
    for operand in instruction.operands:
        if isinstance(operand, Mem):
            cost += MEM_ACCESS_COST
    return cost


def step_cost(instruction: Instruction, dbi_multiplier: float = 1.0):
    """Pre-scaled accounting for one dynamic execution of ``instruction``.

    Returns ``(cycles, ticks)`` where ``cycles`` is what ``CPU.charge``
    would add to ``CPU.cycles`` (the base cost scaled by the DBI
    multiplier) and ``ticks`` is the matching TSC advance
    (``int(cycles) or 1``).  The decode cache resolves this once per
    *static* instruction so the fast interpreter loop can batch cycle
    accounting without ever diverging from the slow path's numbers.
    """
    cost = instruction_cost(instruction)
    if dbi_multiplier == 1.0:
        # Base costs are positive integers, so int(cost) or 1 == cost.
        return cost, cost
    scaled = cost * dbi_multiplier
    return scaled, int(scaled) or 1


def sequence_cost(body) -> int:
    """Static straight-line cost of an instruction sequence.

    Useful for microbenchmarks (Table V) where the sequence executes once
    with no branching.
    """
    return sum(instruction_cost(i) for i in body)
