"""Architectural snapshots of simulated processes.

:func:`architectural_snapshot` is every observable the interpreter
tiers must agree on; :func:`snapshot_digest` hashes it for post-mortem
bundles, and :func:`snapshot_divergences` names the fields where two
snapshots differ.
"""

from __future__ import annotations

import hashlib
from typing import Dict, List

from ..kernel.process import Process


def architectural_snapshot(process: Process) -> Dict[str, object]:
    """Every observable the fast and slow interpreter paths must agree on.

    The decode-cache loop batches cycle/TSC accounting and specialises
    operand access, so its entire contract is "indistinguishable from the
    slow loop".  This snapshot *is* that contract, in one place: the
    differential tests and the conformance fuzzer (`repro.fuzz`) compare
    snapshots from a fast and a slow run of the same program and demand
    equality.
    """
    cpu = process.cpu
    registers = process.registers
    return {
        "state": process.state,
        "exit_status": process.exit_status,
        "signal": process.crash.signal if process.crash else "",
        "cycles": cpu.cycles,
        "tsc": cpu.tsc.value,
        "instructions": cpu.instructions_executed,
        "rip": registers.rip,
        "gpr": dict(registers.gpr),
        "xmm": dict(registers.xmm),
        "flags": (registers.zf, registers.sf, registers.cf),
        "memory": {
            segment.name: segment.tobytes()
            for segment in process.memory.segments()
        },
        "stdout": bytes(process.stdout),
    }


def snapshot_digest(process: Process) -> str:
    """Content hash of a process's architectural snapshot (hex sha256).

    A stable, canonical encoding of :func:`architectural_snapshot` —
    registers and flags as repr over sorted keys, floats through
    ``float.hex()`` so the digest survives JSON round trips, memory as
    raw segment bytes.  Post-mortem bundles store this instead of the
    snapshot itself (a full memory image per bundle would dwarf the
    flight-recorder payload) and replay proves equality by re-deriving
    the digest from the re-run slice.
    """
    snap = architectural_snapshot(process)
    digest = hashlib.sha256()

    def feed(label: str, payload: bytes) -> None:
        digest.update(label.encode())
        digest.update(len(payload).to_bytes(8, "little"))
        digest.update(payload)

    feed("state", repr(snap["state"]).encode())
    feed("exit_status", repr(snap["exit_status"]).encode())
    feed("signal", repr(snap["signal"]).encode())
    for key in ("cycles", "tsc", "instructions"):
        feed(key, float(snap[key]).hex().encode())  # type: ignore[arg-type]
    feed("rip", repr(snap["rip"]).encode())
    for bank in ("gpr", "xmm"):
        values = snap[bank]
        encoded = ";".join(
            f"{name}={values[name]!r}" for name in sorted(values)  # type: ignore[index]
        )
        feed(bank, encoded.encode())
    feed("flags", repr(snap["flags"]).encode())
    memory = snap["memory"]
    for name in sorted(memory):  # type: ignore[arg-type]
        feed(f"memory:{name}", bytes(memory[name]))  # type: ignore[index]
    feed("stdout", bytes(snap["stdout"]))  # type: ignore[arg-type]
    return digest.hexdigest()


def snapshot_divergences(fast: Dict[str, object], slow: Dict[str, object]) -> List[str]:
    """Human-readable field names where two snapshots disagree."""
    problems: List[str] = []
    for key in fast:
        if fast[key] == slow[key]:
            continue
        if key == "memory":
            fast_mem = fast[key]
            slow_mem = slow[key]
            names = set(fast_mem) | set(slow_mem)  # type: ignore[arg-type]
            for name in sorted(names):
                if fast_mem.get(name) != slow_mem.get(name):  # type: ignore[union-attr]
                    problems.append(f"memory[{name}]")
        else:
            problems.append(f"{key}: fast={fast[key]!r} slow={slow[key]!r}")
    return problems
