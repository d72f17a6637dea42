"""Versioned, deterministic machine images: snapshot/restore + warm spawn.

Two layers share one content-addressed container format:

* **Process snapshots** — :func:`snapshot_process` serializes a quiescent
  process's complete architectural state (registers, CPU accounting,
  devices, entropy stream, kernel bookkeeping, and every memory page)
  into bytes; :func:`restore_process` rebuilds a process that is
  bit-identical per :func:`repro.machine.debug.architectural_snapshot`,
  including across a subsequent fork/re-randomization boundary (the
  kernel's entropy stream and wall-TSC epoch are part of the image).
* **Spawn images** — :func:`prepare_spawn_image` captures the machine
  state right after ``load()`` and *before* any seed-dependent draw, so
  one image serves every seed: :meth:`repro.kernel.kernel.Kernel.spawn`
  can clone the frozen memory (COW, O(1)) and reuse the laid-out code
  instead of re-laying-out the binary per spawn.  This is what the
  campaign workers boot from (:mod:`repro.parallel.snapcache`).

Image format (version :data:`SNAPSHOT_VERSION`)::

    PSSPSNAP <version> <kind>\\n
    <header-length-in-bytes>\\n
    <canonical JSON header>\\n
    <page blob>

The header is ``json.dumps(..., sort_keys=True)`` — deterministic across
CPython 3.10–3.12 — and lists unique pages as ``[sha256, length]`` pairs
in digest order; the blob concatenates each unique page exactly once in
that order.  Content addressing means the hundreds of zero pages in a
fresh address space serialize once, and two segments sharing COW pages
share them in the image too.  Floats are stored as ``float.hex()``
strings so cycle accounting round-trips bit-exactly.
"""

from __future__ import annotations

import hashlib
import json
from typing import Dict, List, Optional, Tuple

from ..binfmt import serialize
from ..binfmt.loader import LoadedImage, load
from ..errors import LinkError, SnapshotError
from .memory import CODE_BASE, Memory, Segment

#: Bump on any incompatible change to the header layout or page packing.
SNAPSHOT_VERSION = 1

_MAGIC = b"PSSPSNAP"

#: Process states an image can be taken in (a running CPU holds live
#: host-side frames; a crashed process is gone for good).
_QUIESCENT = ("ready", "exited")


# ---------------------------------------------------------------------------
# container packing
# ---------------------------------------------------------------------------

def _pack(kind: str, header: Dict[str, object], pages: Dict[str, bytes]) -> bytes:
    document = dict(header)
    document["version"] = SNAPSHOT_VERSION
    document["kind"] = kind
    ordered = sorted(pages)
    document["pages"] = [[digest, len(pages[digest])] for digest in ordered]
    body = json.dumps(document, sort_keys=True).encode("utf-8")
    prefix = b"%s %d %s\n%d\n" % (
        _MAGIC, SNAPSHOT_VERSION, kind.encode("ascii"), len(body)
    )
    blob = b"".join(pages[digest] for digest in ordered)
    return prefix + body + b"\n" + blob


def _unpack(data: bytes, kind: str) -> Tuple[Dict[str, object], Dict[str, bytes]]:
    try:
        first_end = data.index(b"\n")
        magic, version, found_kind = data[:first_end].split(b" ")
        second_end = data.index(b"\n", first_end + 1)
        body_length = int(data[first_end + 1 : second_end])
    except ValueError:
        raise SnapshotError("not a machine image (bad container framing)") from None
    if magic != _MAGIC:
        raise SnapshotError(f"bad image magic {magic!r}")
    if int(version) != SNAPSHOT_VERSION:
        raise SnapshotError(
            f"unsupported image version {int(version)} "
            f"(this build reads version {SNAPSHOT_VERSION})"
        )
    if found_kind.decode("ascii") != kind:
        raise SnapshotError(
            f"image kind {found_kind.decode('ascii')!r} is not {kind!r}"
        )
    body_start = second_end + 1
    try:
        header = json.loads(
            data[body_start : body_start + body_length].decode("utf-8")
        )
    except (UnicodeDecodeError, json.JSONDecodeError):
        raise SnapshotError("truncated or corrupt image header") from None
    cursor = body_start + body_length + 1
    pages: Dict[str, bytes] = {}
    for digest, length in header["pages"]:
        page = data[cursor : cursor + length]
        if len(page) != length:
            raise SnapshotError("truncated image: page blob too short")
        if hashlib.sha256(page).hexdigest() != digest:
            raise SnapshotError(f"corrupt image: page {digest[:12]} digest mismatch")
        pages[digest] = page
        cursor += length
    return header, pages


# ---------------------------------------------------------------------------
# memory <-> page table
# ---------------------------------------------------------------------------

def _collect_segments(
    memory: Memory, pages: Dict[str, bytes]
) -> List[Dict[str, object]]:
    """Freeze ``memory`` and describe its segments against a shared
    content-addressed page store (pages serialize once per content)."""
    memory.freeze()
    segments = []
    for segment in memory.segments():
        digests = []
        for index in range(segment.page_count):
            page = bytes(segment.page(index))
            digest = hashlib.sha256(page).hexdigest()
            pages.setdefault(digest, page)
            digests.append(digest)
        segments.append({
            "name": segment.name,
            "base": segment.base,
            "size": segment.size,
            "readable": segment.readable,
            "writable": segment.writable,
            "executable": segment.executable,
            "pages": digests,
        })
    return segments


def _restore_memory(
    segments: List[Dict[str, object]], pages: Dict[str, bytes]
) -> Memory:
    """Rebuild a memory whose pages alias the image's frozen bytes."""
    memory = Memory()
    for desc in segments:
        segment = Segment.__new__(Segment)
        segment.name = desc["name"]
        segment.base = desc["base"]
        segment.size = desc["size"]
        segment.readable = desc["readable"]
        segment.writable = desc["writable"]
        segment.executable = desc["executable"]
        segment._source = tuple(pages[digest] for digest in desc["pages"])
        segment._private = {}
        memory.map_segment(segment)
    return memory


def _load_binaries(header: Dict[str, object]):
    """The image's serialized binary and preloads.  An embedded binary in
    another :mod:`~repro.binfmt.serialize` format version is a
    version-mismatched image, not a link failure."""
    try:
        return (
            serialize.loads(header["binary"].encode("utf-8")),
            [serialize.loads(p.encode("utf-8")) for p in header["preloads"]],
        )
    except LinkError as error:
        raise SnapshotError(f"unreadable embedded binary: {error}") from None


def _rebuild_image(binary, preloads, segments, code_base: int) -> LoadedImage:
    """Re-run the deterministic loader layout to regain a LoadedImage.

    ``load()`` writes rodata into the data segment as a side effect; the
    restored memory already holds those bytes, so the layout runs against
    a scratch memory with the data segment at the recorded base (the
    cursor walks from the base, making every symbol address come out
    identical to the original load).
    """
    data = next(desc for desc in segments if desc["name"] == "data")
    scratch = Memory()
    scratch.map_segment(Segment("data", data["base"], data["size"]))
    return load(binary, scratch, preloads=preloads, code_base=code_base)


# ---------------------------------------------------------------------------
# scalar state helpers
# ---------------------------------------------------------------------------

def _entropy_state(entropy) -> Dict[str, object]:
    version, internal, gauss = entropy._gen().getstate()
    return {
        "seed": entropy.seed,
        "draws": entropy.draws,
        "state": [
            version,
            list(internal),
            None if gauss is None else float(gauss).hex(),
        ],
    }


def _restore_entropy(doc: Dict[str, object]):
    from ..crypto.random import EntropySource

    entropy = EntropySource(0)
    entropy.seed = doc["seed"]
    entropy.draws = doc["draws"]
    version, internal, gauss = doc["state"]
    entropy._gen().setstate((
        version,
        tuple(internal),
        None if gauss is None else float.fromhex(gauss),
    ))
    return entropy


def _registers_state(registers) -> Dict[str, object]:
    return {
        "gpr": dict(registers.gpr),
        "xmm": dict(registers.xmm),
        "fs_base": registers.fs_base,
        "rip": list(registers.rip),
        "flags": [registers.zf, registers.sf, registers.cf],
    }


def _apply_registers(registers, doc: Dict[str, object]) -> None:
    registers.gpr.update(doc["gpr"])
    registers.xmm.update(doc["xmm"])
    registers.fs_base = doc["fs_base"]
    registers.rip = tuple(doc["rip"])
    registers.zf, registers.sf, registers.cf = doc["flags"]


def _jmp_bufs_state(process) -> Dict[str, object]:
    out = {}
    for buf, state in getattr(process, "jmp_bufs", {}).items():
        out[str(buf)] = {
            "rip": list(state["rip"]),
            "rsp": state["rsp"],
            "rbp": state["rbp"],
            "stack_span": bytes(state["stack_span"]).hex(),
            "callee": dict(state["callee"]),
        }
    return out


def _apply_jmp_bufs(process, doc: Dict[str, object]) -> None:
    if not doc:
        return
    process.jmp_bufs = {
        int(buf): {
            "rip": tuple(state["rip"]),
            "rsp": state["rsp"],
            "rbp": state["rbp"],
            "stack_span": bytes.fromhex(state["stack_span"]),
            "callee": dict(state["callee"]),
        }
        for buf, state in doc.items()
    }


# ---------------------------------------------------------------------------
# process snapshot / restore
# ---------------------------------------------------------------------------

def snapshot_process(process, *, include_kernel: bool = True) -> bytes:
    """Serialize a quiescent process into a deterministic image.

    The image embeds the binary and preload objects (via
    :mod:`repro.binfmt.serialize`), every memory page (content-addressed),
    the full register/CPU/device state, the process entropy stream, and —
    with ``include_kernel`` — the owning kernel's entropy/pid/TSC
    bookkeeping, so forks performed after a restore replay bit-identically
    to forks of the original.
    """
    if process.threads:
        raise SnapshotError(
            f"pid {process.pid} has live threads; thread contexts share the "
            "address space and cannot be captured in a process image"
        )
    if process.state not in _QUIESCENT:
        raise SnapshotError(
            f"pid {process.pid} is {process.state}; only ready/exited "
            "processes can be snapshotted"
        )
    binary = getattr(process, "binary", None)
    if binary is None:
        raise SnapshotError(
            f"pid {process.pid} has no binary (not spawned by a kernel)"
        )
    preloads = list(getattr(process, "preloads", ()))
    cpu = process.cpu
    pages: Dict[str, bytes] = {}
    header: Dict[str, object] = {
        "name": process.name,
        "pid": process.pid,
        "ppid": process.ppid,
        "scheme": getattr(binary, "protection", "") or "none",
        "entry": process.entry,
        "state": process.state,
        "exit_status": process.exit_status,
        "binary": serialize.dumps(binary).decode("utf-8"),
        "preloads": [serialize.dumps(p).decode("utf-8") for p in preloads],
        "code_base": process.image.code_base,
        "segments": _collect_segments(process.memory, pages),
        "registers": _registers_state(process.registers),
        "cpu": {
            "cycles": float(cpu.cycles).hex(),
            "instructions": cpu.instructions_executed,
            "cycle_limit": cpu.cycle_limit,
            "dbi_multiplier": float(cpu.dbi_multiplier).hex(),
            "fast": cpu.fast,
            "tsc": cpu.tsc.value,
            "rdrand": {
                "draws": cpu.rdrand.draws,
                "failure_rate": float(cpu.rdrand.failure_rate).hex(),
                "failure_streak": cpu.rdrand.failure_streak,
                "recovered_streaks": cpu.rdrand.recovered_streaks,
                "quarantined": cpu.rdrand.quarantined,
            },
        },
        "entropy": _entropy_state(process.entropy),
        "brk": process.brk,
        "stdin": bytes(process.stdin).hex(),
        "stdout": bytes(process.stdout).hex(),
        "jmp_bufs": _jmp_bufs_state(process),
    }
    if include_kernel:
        kernel = process.kernel
        header["kernel"] = {
            "entropy": _entropy_state(kernel.entropy),
            "next_pid": kernel._next_pid,
            "fork_count": kernel.fork_count,
            "wall_tsc": kernel._wall_tsc,
        }
    return _pack("process", header, pages)


def restore_process(
    data: bytes,
    *,
    kernel=None,
    natives: Optional[dict] = None,
    adopt_kernel_state: Optional[bool] = None,
):
    """Rebuild a process from :func:`snapshot_process` bytes.

    ``kernel`` receives the process (a fresh one is created when omitted).
    ``adopt_kernel_state`` replays the image's kernel bookkeeping
    (entropy stream, next pid, fork counter, wall-TSC epoch) onto that
    kernel — the default when the kernel was created here, opt-in when
    restoring into a caller's kernel — which is what makes post-restore
    forks bit-identical to post-snapshot forks of the original.
    """
    from ..kernel.kernel import Kernel
    from ..kernel.process import Process

    header, pages = _unpack(data, "process")
    if adopt_kernel_state is None:
        adopt_kernel_state = kernel is None
    if kernel is None:
        kernel = Kernel(0)
    kernel_doc = header.get("kernel")
    if adopt_kernel_state:
        if kernel_doc is None:
            raise SnapshotError(
                "image carries no kernel state (snapshot with include_kernel)"
            )
        kernel.entropy = _restore_entropy(kernel_doc["entropy"])
        kernel._next_pid = kernel_doc["next_pid"]
        kernel.fork_count = kernel_doc["fork_count"]
        kernel._wall_tsc = kernel_doc["wall_tsc"]

    binary, preloads = _load_binaries(header)
    memory = _restore_memory(header["segments"], pages)
    image = _rebuild_image(binary, preloads, header["segments"], header["code_base"])

    if natives is None:
        from ..libc.builtins import build_natives

        natives = build_natives()

    cpu_doc = header["cpu"]
    if adopt_kernel_state:
        # Resuming the image's kernel timeline: the process keeps its
        # original pid and the adopted next_pid stays untouched, so a
        # re-snapshot is bit-identical and later spawns replay exactly.
        pid = header["pid"]
    else:
        # Grafting into a live kernel: allocate a fresh pid (the
        # original may already be taken).
        pid = kernel._next_pid
        kernel._next_pid += 1
    process = Process(
        kernel,
        pid,
        header["name"],
        memory,
        image,
        dict(natives),
        _restore_entropy(header["entropy"]),
        ppid=header["ppid"],
        dbi_multiplier=float.fromhex(cpu_doc["dbi_multiplier"]),
        cycle_limit=cpu_doc["cycle_limit"],
        tsc_base=cpu_doc["tsc"],
        fast=cpu_doc["fast"],
        fault_plane=kernel.fault_plane,
    )
    process.entry = header["entry"]
    process.binary = binary
    process.preloads = preloads
    process.state = header["state"]
    process.exit_status = header["exit_status"]
    process.brk = header["brk"]
    process.stdin = bytearray(bytes.fromhex(header["stdin"]))
    process.stdout = bytearray(bytes.fromhex(header["stdout"]))
    _apply_registers(process.registers, header["registers"])
    cpu = process.cpu
    cpu.cycles = float.fromhex(cpu_doc["cycles"])
    cpu.instructions_executed = cpu_doc["instructions"]
    rdrand_doc = cpu_doc["rdrand"]
    cpu.rdrand.draws = rdrand_doc["draws"]
    cpu.rdrand.failure_rate = float.fromhex(rdrand_doc["failure_rate"])
    cpu.rdrand.failure_streak = rdrand_doc["failure_streak"]
    cpu.rdrand.recovered_streaks = rdrand_doc["recovered_streaks"]
    cpu.rdrand.quarantined = rdrand_doc["quarantined"]
    _apply_jmp_bufs(process, header["jmp_bufs"])
    kernel.processes[pid] = process

    _reattach_runtime(process, header["scheme"])
    return process


def _reattach_runtime(process, scheme: str) -> None:
    """Re-register the scheme runtime's fork/thread hooks.

    Hooks are live callables and cannot be serialized; every runtime
    exposes ``reattach`` — hook registration *without* the install-time
    entropy draws or TLS writes, whose effects are already in the image.
    """
    from ..core.deploy import get_scheme

    runtime = get_scheme(scheme or "none").make_runtime()
    if runtime is not None:
        runtime.reattach(process)


# ---------------------------------------------------------------------------
# spawn images (seed-free warm boot)
# ---------------------------------------------------------------------------

class SpawnImage:
    """A machine image captured after ``load()``, before any entropy draw.

    Everything in it is seed-independent, so one image serves every
    kernel seed: spawning from it clones the frozen memory (COW) and
    shallow-clones the code layout, then proceeds through the exact same
    canary draw and constructor sequence as a cold spawn — bit-identical
    by construction.
    """

    __slots__ = ("binary", "preloads", "memory", "image", "code_base", "stack_size")

    def __init__(self, binary, preloads, memory, image, code_base, stack_size):
        self.binary = binary
        self.preloads = preloads
        self.memory = memory
        self.image = image
        self.code_base = code_base
        self.stack_size = stack_size

    def instantiate(self) -> Tuple[Memory, LoadedImage]:
        """A private (COW) memory and an image clone for one new process."""
        return self.memory.clone(eager=False), self.image.clone()


def prepare_spawn_image(
    binary,
    *,
    preloads=(),
    stack_size: int = 0x40000,
    code_base: int = CODE_BASE,
) -> SpawnImage:
    """Lay ``binary`` out once and freeze the result for reuse."""
    from ..machine.tls import TLS_MIN_SIZE
    from .memory import standard_memory

    preloads = list(preloads)
    memory = standard_memory(
        stack_size=stack_size, tls_size=max(TLS_MIN_SIZE, 0x1000)
    )
    image = load(binary, memory, preloads=preloads, code_base=code_base)
    memory.freeze()
    return SpawnImage(binary, preloads, memory, image, code_base, stack_size)


def dump_spawn_image(image: SpawnImage) -> bytes:
    """Serialize a spawn image (for the cross-run warm-image cache)."""
    pages: Dict[str, bytes] = {}
    header = {
        "binary": serialize.dumps(image.binary).decode("utf-8"),
        "preloads": [serialize.dumps(p).decode("utf-8") for p in image.preloads],
        "code_base": image.code_base,
        "stack_size": image.stack_size,
        "segments": _collect_segments(image.memory, pages),
    }
    return _pack("spawn-image", header, pages)


def load_spawn_image(data: bytes) -> SpawnImage:
    """Deserialize :func:`dump_spawn_image` bytes."""
    header, pages = _unpack(data, "spawn-image")
    binary, preloads = _load_binaries(header)
    memory = _restore_memory(header["segments"], pages)
    image = _rebuild_image(
        binary, preloads, header["segments"], header["code_base"]
    )
    return SpawnImage(
        binary, preloads, memory, image, header["code_base"],
        header["stack_size"],
    )
