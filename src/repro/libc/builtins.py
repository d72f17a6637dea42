"""Simulated glibc: native functions callable from simulated code.

Every routine reads its arguments from the System V ABI registers and
returns its value in ``rax``.  The string/IO routines perform *unchecked*
writes into process memory — these are the overflow vectors the paper's
attacks exploit (``strcpy``, ``gets``, ``read``, ``memcpy``, ``sprintf``,
``strcat``; cf. §IV-B's list of "functions which may write data to a local
variable").

Cycle accounting: each native charges its base ``cost`` plus a per-byte
charge for bulk operations, so server workloads spend realistic fractions
of their time in libc relative to the instrumented prologues.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from .. import telemetry
from ..crypto.aes import encrypt_block
from ..errors import ProgramAbort, SegmentationFault, StackSmashDetected
from ..faults import policy as fault_policy
from ..isa.costs import AES_HELPER_COST
from ..isa.registers import ARG_REGS, CALLEE_SAVED
from ..machine.cpu import CPU, NativeFunction

#: Cycles charged per 8 copied/scanned bytes in bulk routines.
_BULK_COST_PER_WORD = 1

_SMASHES_DETECTED = telemetry.counter(
    "canary_smashes_detected_total", "__stack_chk_fail firings"
)


def _args(cpu: CPU, count: int) -> List[int]:
    return [cpu.registers.read(reg) for reg in ARG_REGS[:count]]


def _charge_bulk(cpu: CPU, nbytes: int) -> None:
    cpu.charge(max(1, nbytes // 8) * _BULK_COST_PER_WORD)


# ---------------------------------------------------------------------------
# memory / string routines
# ---------------------------------------------------------------------------


def _memcpy(cpu: CPU) -> int:
    dst, src, n = _args(cpu, 3)
    data = cpu.memory.read(src, n) if n else b""
    if n:
        cpu.memory.write(dst, data)
    _charge_bulk(cpu, n)
    return dst


def _memmove(cpu: CPU) -> int:
    # Reads fully before writing, so overlap is naturally handled.
    return _memcpy(cpu)


def _memset(cpu: CPU) -> int:
    dst, value, n = _args(cpu, 3)
    if n:
        cpu.memory.write(dst, bytes([value & 0xFF]) * n)
    _charge_bulk(cpu, n)
    return dst


def _memcmp(cpu: CPU) -> int:
    a, b, n = _args(cpu, 3)
    da = cpu.memory.read(a, n) if n else b""
    db = cpu.memory.read(b, n) if n else b""
    _charge_bulk(cpu, n)
    if da == db:
        return 0
    return 1 if da > db else (1 << 64) - 1


def _strlen(cpu: CPU) -> int:
    (s,) = _args(cpu, 1)
    length = len(cpu.memory.read_cstring(s))
    _charge_bulk(cpu, length)
    return length


def _strcpy(cpu: CPU) -> int:
    dst, src = _args(cpu, 2)
    data = cpu.memory.read_cstring(src) + b"\x00"
    cpu.memory.write(dst, data)  # unchecked: the classic overflow
    _charge_bulk(cpu, len(data))
    return dst


def _strncpy(cpu: CPU) -> int:
    dst, src, n = _args(cpu, 3)
    data = cpu.memory.read_cstring(src)[:n]
    padded = data + b"\x00" * (n - len(data))
    if padded:
        cpu.memory.write(dst, padded)
    _charge_bulk(cpu, n)
    return dst


def _strcat(cpu: CPU) -> int:
    dst, src = _args(cpu, 2)
    offset = len(cpu.memory.read_cstring(dst))
    data = cpu.memory.read_cstring(src) + b"\x00"
    cpu.memory.write(dst + offset, data)  # unchecked append
    _charge_bulk(cpu, offset + len(data))
    return dst


def _strcmp(cpu: CPU) -> int:
    a, b = _args(cpu, 2)
    da = cpu.memory.read_cstring(a)
    db = cpu.memory.read_cstring(b)
    _charge_bulk(cpu, min(len(da), len(db)) + 1)
    if da == db:
        return 0
    return 1 if da > db else (1 << 64) - 1


def _strchr(cpu: CPU) -> int:
    s, ch = _args(cpu, 2)
    data = cpu.memory.read_cstring(s)
    index = data.find(bytes([ch & 0xFF]))
    _charge_bulk(cpu, len(data))
    return s + index if index >= 0 else 0


def _atoi(cpu: CPU) -> int:
    (s,) = _args(cpu, 1)
    text = cpu.memory.read_cstring(s).decode("ascii", errors="replace").strip()
    sign = 1
    if text[:1] in ("+", "-"):
        sign = -1 if text[0] == "-" else 1
        text = text[1:]
    digits = ""
    for char in text:
        if not char.isdigit():
            break
        digits += char
    return (sign * int(digits or "0")) & ((1 << 64) - 1)


# ---------------------------------------------------------------------------
# stdio
# ---------------------------------------------------------------------------


def _read(cpu: CPU) -> int:
    fd, buf, count = _args(cpu, 3)
    process = cpu.process
    if fd != 0:
        return (1 << 64) - 1  # only stdin is readable
    take = min(count, len(process.stdin))
    if take:
        data = bytes(process.stdin[:take])
        del process.stdin[:take]
        cpu.memory.write(buf, data)  # unchecked: caller's count rules
    _charge_bulk(cpu, take)
    return take


def _gets(cpu: CPU) -> int:
    (buf,) = _args(cpu, 1)
    process = cpu.process
    newline = process.stdin.find(b"\n")
    if newline < 0:
        data = bytes(process.stdin)
        process.stdin.clear()
    else:
        data = bytes(process.stdin[:newline])
        del process.stdin[: newline + 1]
    cpu.memory.write(buf, data + b"\x00")  # no bound whatsoever
    _charge_bulk(cpu, len(data) + 1)
    return buf if data or newline >= 0 else 0


def _write(cpu: CPU) -> int:
    fd, buf, count = _args(cpu, 3)
    if fd not in (1, 2):
        return (1 << 64) - 1
    data = cpu.memory.read(buf, count) if count else b""
    cpu.process.stdout.extend(data)
    _charge_bulk(cpu, count)
    return count


def _puts(cpu: CPU) -> int:
    (s,) = _args(cpu, 1)
    data = cpu.memory.read_cstring(s)
    cpu.process.stdout.extend(data + b"\n")
    _charge_bulk(cpu, len(data) + 1)
    return len(data) + 1


def _format(cpu: CPU, fmt: bytes, values: List[int]) -> bytes:
    """Minimal printf-style formatter: %d %u %x %s %c %%."""
    out = bytearray()
    it = iter(values)
    i = 0
    while i < len(fmt):
        char = fmt[i]
        if char != ord("%") or i + 1 >= len(fmt):
            out.append(char)
            i += 1
            continue
        spec = chr(fmt[i + 1])
        i += 2
        if spec == "%":
            out.append(ord("%"))
        elif spec == "d":
            value = next(it, 0)
            signed = value - (1 << 64) if value & (1 << 63) else value
            out.extend(str(signed).encode())
        elif spec == "u":
            out.extend(str(next(it, 0)).encode())
        elif spec == "x":
            out.extend(format(next(it, 0), "x").encode())
        elif spec == "c":
            out.append(next(it, 0) & 0xFF)
        elif spec == "s":
            out.extend(cpu.memory.read_cstring(next(it, 0)))
        else:
            out.extend(b"%" + spec.encode())
    return bytes(out)


def _printf(cpu: CPU) -> int:
    values = _args(cpu, 6)
    fmt = cpu.memory.read_cstring(values[0])
    rendered = _format(cpu, fmt, values[1:])
    cpu.process.stdout.extend(rendered)
    _charge_bulk(cpu, len(rendered))
    return len(rendered)


def _sprintf(cpu: CPU) -> int:
    values = _args(cpu, 6)
    buf = values[0]
    fmt = cpu.memory.read_cstring(values[1])
    rendered = _format(cpu, fmt, values[2:]) + b"\x00"
    cpu.memory.write(buf, rendered)  # unchecked: overflow vector
    _charge_bulk(cpu, len(rendered))
    return len(rendered) - 1


def _snprintf(cpu: CPU) -> int:
    values = _args(cpu, 6)
    buf, limit = values[0], values[1]
    fmt = cpu.memory.read_cstring(values[2])
    rendered = _format(cpu, fmt, values[3:])
    clipped = rendered[: max(0, limit - 1)] + b"\x00" if limit else b""
    if clipped:
        cpu.memory.write(buf, clipped)
    _charge_bulk(cpu, len(clipped))
    return len(rendered)


# ---------------------------------------------------------------------------
# allocator
# ---------------------------------------------------------------------------


def _malloc(cpu: CPU) -> int:
    (size,) = _args(cpu, 1)
    process = cpu.process
    heap = cpu.memory.segment("heap")
    aligned = (size + 15) & ~15
    if process.brk + aligned > heap.end:
        return 0
    address = process.brk
    process.brk += aligned
    return address


def _calloc(cpu: CPU) -> int:
    count, size = _args(cpu, 2)
    total = count * size
    cpu.registers.write(ARG_REGS[0], total)
    address = _malloc(cpu)
    if address:
        cpu.memory.write(address, b"\x00" * total)
    return address


def _free(cpu: CPU) -> int:
    return 0  # bump allocator: free is a no-op


def _realloc(cpu: CPU) -> int:
    old, size = _args(cpu, 2)
    cpu.registers.write(ARG_REGS[0], size)
    address = _malloc(cpu)
    if address and old:
        # We do not track block sizes; copy conservatively.
        data = cpu.memory.read(old, min(size, 256))
        cpu.memory.write(address, data)
    return address


# ---------------------------------------------------------------------------
# process control
# ---------------------------------------------------------------------------


def _exit(cpu: CPU) -> int:
    (status,) = _args(cpu, 1)
    cpu.running = False
    cpu.exit_status = status & 0xFF
    cpu.registers.write("rax", status & 0xFF)
    return status & 0xFF


def _abort(cpu: CPU) -> int:
    raise ProgramAbort("abort() called")


def _getpid(cpu: CPU) -> int:
    return cpu.process.pid


def _rand(cpu: CPU) -> int:
    return cpu.process.entropy.word(31)


def _time(cpu: CPU) -> int:
    return cpu.tsc.read() >> 20  # coarse "seconds"


def _fork(cpu: CPU) -> int:
    """glibc ``fork``: clone and run the child to completion first.

    The child resumes right after this call with ``rax = 0``; its result
    is recorded on the parent (``child_results``) so forking servers can
    observe crashes, mirroring ``waitpid`` status collection.

    Cloning goes through :func:`repro.faults.policy.fork_with_retry`:
    transient EAGAIN from the kernel is absorbed within a bounded budget,
    and budget exhaustion fails closed (``DegradedError`` abort) instead
    of running on without a refreshed shadow pair.  A ``None`` child
    models the raw libc path of surfacing ``-1`` to the program (only the
    naive chaos mutant takes it).
    """
    parent = cpu.process
    child = fault_policy.fork_with_retry(parent)
    if child is None:
        return (1 << 64) - 1  # -1: EAGAIN surfaced to the program
    child.registers.write("rax", 0)
    result = child.continue_execution()
    if not hasattr(parent, "child_results"):
        parent.child_results = []
    parent.child_results.append((child.pid, result))
    parent.kernel.reap(child)
    return child.pid


def _waitpid(cpu: CPU) -> int:
    pid, status_ptr, _options = _args(cpu, 3)
    parent = cpu.process
    results = getattr(parent, "child_results", [])
    for child_pid, result in results:
        if pid in (child_pid, (1 << 64) - 1, 0):
            if status_ptr:
                code = 0 if result.state == "exited" else 0x8B
                cpu.memory.write_word(status_ptr, code)
            return child_pid
    return (1 << 64) - 1


def _pthread_create(cpu: CPU) -> int:
    """pthread_create(thread_out, attr, start_routine, arg) — synchronous.

    The thread runs to completion immediately (deterministic schedule);
    its context persists on ``process.threads``.
    """
    thread_out, _attr, start_routine, arg = _args(cpu, 4)
    process = cpu.process
    thread = process.kernel.create_thread(process)
    function, index = cpu.image.resolve(start_routine)
    if index != 0:
        raise SegmentationFault(start_routine, "thread start mid-function")
    thread.call(function.name, (arg,))
    if thread_out:
        cpu.memory.write_word(thread_out, len(process.threads))
    return 0


def _pthread_join(cpu: CPU) -> int:
    return 0  # threads already ran to completion


# ---------------------------------------------------------------------------
# non-local control flow (setjmp/longjmp)
# ---------------------------------------------------------------------------


def _setjmp(cpu: CPU) -> int:
    """Save the resumption context keyed by the jmp_buf address.

    Stack unwinding is the compatibility hazard the paper holds against
    DynaGuard/DCR (§III-D): a longjmp skips the epilogues of every
    unwound frame, so any per-call canary bookkeeping those epilogues
    were supposed to pop is silently leaked.
    """
    (buf,) = _args(cpu, 1)
    process = cpu.process
    if not hasattr(process, "jmp_bufs"):
        process.jmp_bufs = {}
    rsp = cpu.registers.read("rsp")
    rbp = cpu.registers.read("rbp")
    # Snapshot the caller's pending stack span [rsp, rbp): our stack-machine
    # code generator parks expression temporaries there, where a register
    # allocator would have used callee-saved registers — which real setjmp
    # preserves.  Deeper calls reuse those slots, so longjmp must restore
    # them along with the register file.
    span = b""
    if rsp < rbp and rbp - rsp <= 0x10000:
        span = cpu.memory.read(rsp, rbp - rsp)
    process.jmp_bufs[buf] = {
        "rip": cpu.registers.rip,  # already advanced past the call
        "rsp": rsp,
        "rbp": rbp,
        "stack_span": span,
        "callee": {r: cpu.registers.read(r) for r in CALLEE_SAVED},
    }
    return 0


def _longjmp(cpu: CPU) -> int:
    """Unwind straight back to the matching setjmp — no epilogues run."""
    buf, value = _args(cpu, 2)
    state = getattr(cpu.process, "jmp_bufs", {}).get(buf)
    if state is None:
        raise SegmentationFault(buf, "longjmp with unset jmp_buf")
    cpu.registers.write("rsp", state["rsp"])
    cpu.registers.write("rbp", state["rbp"])
    if state["stack_span"]:
        cpu.memory.write(state["rsp"], state["stack_span"])
    for register, saved in state["callee"].items():
        cpu.registers.write(register, saved)
    name, index = state["rip"]
    function = cpu.image.function(name)
    cpu._current = function
    cpu.registers.rip = (name, index)
    return value if value else 1


# ---------------------------------------------------------------------------
# stack protection runtime
# ---------------------------------------------------------------------------


def _stack_chk_fail(cpu: CPU) -> int:
    name, _ = cpu.registers.rip
    _SMASHES_DETECTED.inc()
    telemetry.event("smash-detected", function=name)
    raise StackSmashDetected(function=name)


def _fortify_fail(cpu: CPU) -> int:
    name, _ = cpu.registers.rip
    _SMASHES_DETECTED.inc()
    telemetry.event("smash-detected", function=name, detail="fortify_fail")
    raise StackSmashDetected(function=name, detail="fortify_fail")


def _aes_encrypt_128(cpu: CPU) -> int:
    """The AES helper the P-SSP-OWF prologue/epilogue calls (Code 8/9).

    Key in ``xmm1``, plaintext in ``xmm15``; ciphertext replaces ``xmm15``.
    """
    key = cpu.registers.read("xmm1").to_bytes(16, "little")
    plaintext = cpu.registers.read("xmm15").to_bytes(16, "little")
    ciphertext = encrypt_block(key, plaintext)
    cpu.registers.write("xmm15", int.from_bytes(ciphertext, "little"))
    # Output travels in xmm15 only; rax (a caller's live return value when
    # this is invoked from an epilogue) must stay untouched.
    return None


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

_TABLE: Dict[str, "tuple[Callable[[CPU], int], int]"] = {
    "memcpy": (_memcpy, 12),
    "memmove": (_memmove, 14),
    "memset": (_memset, 10),
    "memcmp": (_memcmp, 12),
    "strlen": (_strlen, 10),
    "strcpy": (_strcpy, 12),
    "strncpy": (_strncpy, 12),
    "strcat": (_strcat, 14),
    "strcmp": (_strcmp, 12),
    "strchr": (_strchr, 10),
    "atoi": (_atoi, 15),
    "read": (_read, 60),
    "gets": (_gets, 60),
    "recv": (_read, 70),
    "write": (_write, 60),
    "puts": (_puts, 30),
    "printf": (_printf, 40),
    "sprintf": (_sprintf, 35),
    "snprintf": (_snprintf, 35),
    "malloc": (_malloc, 25),
    "calloc": (_calloc, 30),
    "free": (_free, 10),
    "realloc": (_realloc, 30),
    "exit": (_exit, 20),
    "abort": (_abort, 20),
    "getpid": (_getpid, 15),
    "rand": (_rand, 20),
    "time": (_time, 15),
    "fork": (_fork, 2500),
    "waitpid": (_waitpid, 200),
    "pthread_create": (_pthread_create, 5000),
    "pthread_join": (_pthread_join, 100),
    "setjmp": (_setjmp, 30),
    "longjmp": (_longjmp, 40),
    "__stack_chk_fail": (_stack_chk_fail, 5),
    "__GI__fortify_fail": (_fortify_fail, 5),
    "AES_ENCRYPT_128": (_aes_encrypt_128, AES_HELPER_COST),
    # Kernel-service aliases used by *simulated* glibc stubs in statically
    # linked binaries (the stubs themselves are what Dyninst hooks).
    "__libc_fork_syscall": (_fork, 2500),
    "__libc_stack_chk_abort": (_stack_chk_fail, 5),
}


def build_natives(extra: Optional[Dict[str, NativeFunction]] = None) -> Dict[str, NativeFunction]:
    """Construct a fresh native symbol table (one per process family).

    ``extra`` entries override the defaults — the mechanism behind
    native-level ``LD_PRELOAD`` interposition.
    """
    natives = {
        name: NativeFunction(name, handler, cost)
        for name, (handler, cost) in _TABLE.items()
    }
    if extra:
        natives.update(extra)
    return natives


#: Names whose write targets can overflow a stack buffer — the compiler's
#: P-SSP-LV pass inserts post-call canary inspections after these (§V-E2).
OVERFLOW_VECTORS = frozenset(
    ("memcpy", "memmove", "memset", "strcpy", "strncpy", "strcat", "read", "recv", "gets", "sprintf")
)
