"""The kernel: process creation, fork, and thread spawning.

Responsibilities that matter to the paper's experiments:

* **spawn (execve)** — build a fresh address space, map the binary plus any
  ``LD_PRELOAD`` objects, draw a brand-new TLS canary (the dynamic loader's
  job on Linux), and run constructors (which is where the P-SSP preload's
  ``setup_p-ssp`` initialises the shadow canary).
* **fork** — clone memory (TLS *and* the whole stack, inherited frames
  included) and registers; then run the parent's registered fork hooks on
  the child.  The hooks model the preload library's wrapped ``fork``:
  vanilla SSP has no hooks, P-SSP refreshes the child's *shadow* canary,
  RAF-SSP refreshes the child's TLS canary itself (which is what breaks
  its correctness), DynaGuard/DCR walk their canary lists.  The child is
  built from the parent's already-validated parts, not through the
  general constructors: the COW memory clone copies the segment table
  as it stands, the process and CPU take their fields from the parent
  (:meth:`Process.forked_child`), and the child's entropy stream, drawn
  from the parent's at fork time, seeds its generator on first use.
* **threads** — a new register file, stack, and TLS block sharing the
  process memory, with thread hooks mirroring the wrapped
  ``pthread_create``.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

from .. import telemetry
from ..binfmt.elf import Binary
from ..binfmt.loader import load
from ..crypto.random import EntropySource, terminator_free_word
from ..errors import KernelError, TransientForkFailure
from ..machine.cpu import NativeFunction
from ..machine.memory import (
    ASLR_SLIDE_PAGES,
    CODE_BASE,
    PAGE,
    Segment,
    standard_memory,
)
from ..machine.tls import TLS_MIN_SIZE
from .process import Process

#: Virtual-address strides for per-thread stacks and TLS blocks.
_THREAD_STACK_STRIDE = 0x100000
_THREAD_TLS_STRIDE = 0x1000

_SPAWNS = telemetry.counter("kernel_spawns_total", "processes created (execve)")
_IMAGE_SPAWNS = telemetry.counter(
    "kernel_image_spawns_total", "processes booted from a warmed spawn image"
)
_FORKS = telemetry.counter("kernel_forks_total", "successful forks")
_THREADS = telemetry.counter("kernel_threads_total", "threads created")


class Kernel:
    """Owner of all simulated processes.

    Parameters
    ----------
    seed:
        Root seed; every process derives its entropy from this, so a whole
        experiment (attack campaign, benchmark run) replays identically.
    fault_plane:
        Optional :class:`~repro.faults.plane.FaultPlane`; when set, every
        process's devices and this kernel's ``fork`` consult it for
        scheduled fault injection.
    """

    def __init__(self, seed: Optional[int] = None, *, fault_plane=None) -> None:
        self.entropy = EntropySource(seed)
        self.fault_plane = fault_plane
        self.processes: Dict[int, Process] = {}
        self._next_pid = 100
        #: Total forks performed (the attack-cost metric in §VI-C).
        self.fork_count = 0
        #: Wall-clock TSC epoch: real time keeps flowing between forks, so
        #: two children forked at different moments observe different
        #: timestamp counters (the property P-SSP-OWF's nonce relies on).
        self._wall_tsc = self.entropy.word(40)

    def _elapse_wall_time(self) -> int:
        """Advance the global TSC epoch by a fork/accept-loop interval."""
        self._wall_tsc += 20_000 + self.entropy.randrange(100_000)
        return self._wall_tsc

    # -- process creation --------------------------------------------------------

    def spawn(
        self,
        binary: Binary,
        *,
        preloads: Iterable[Binary] = (),
        natives: Optional[Dict[str, NativeFunction]] = None,
        dbi_multiplier: float = 1.0,
        cycle_limit: int = 50_000_000,
        stack_size: int = 0x40000,
        run_constructors: bool = True,
        aslr: bool = False,
        fast: bool = True,
        image: Optional["SpawnImage"] = None,
    ) -> Process:
        """execve: create a process from ``binary``.

        ``natives`` is the host-implemented symbol table (libc).  Preload
        binaries interpose simulated symbols; native interposition is done
        by mutating the natives dict before spawning.

        ``aslr`` randomizes segment bases and the code load address per
        spawn (§VII-B: complementary to canaries — an attacker who must
        *guess* a gadget address on top of guessing the canary).

        ``image`` is an optional warmed
        :class:`~repro.machine.snapshot.SpawnImage` for the same binary,
        preloads, and stack size: the address space is then COW-cloned
        from the frozen post-load state instead of being rebuilt, which
        skips the whole layout/rodata pass.  Spawn images are captured
        before any entropy draw, so the image path consumes the kernel
        entropy stream identically to a cold spawn and produces a
        bit-identical process.  Incompatible with ``aslr`` (a slid
        layout is per-spawn by definition).
        """
        preloads = list(preloads)
        if image is not None and not aslr:
            memory, loaded = image.instantiate()
            _IMAGE_SPAWNS.inc()
            return self._finish_spawn(
                binary, preloads, memory, loaded,
                natives=natives, dbi_multiplier=dbi_multiplier,
                cycle_limit=cycle_limit, run_constructors=run_constructors,
                fast=fast,
            )
        aslr_entropy = self.entropy.fork() if aslr else None
        memory = standard_memory(
            stack_size=stack_size,
            tls_size=max(TLS_MIN_SIZE, 0x1000),
            aslr=aslr_entropy,
        )
        code_base = CODE_BASE
        if aslr_entropy is not None:
            code_base += aslr_entropy.randrange(ASLR_SLIDE_PAGES) * PAGE
        loaded = load(binary, memory, preloads=preloads, code_base=code_base)
        return self._finish_spawn(
            binary, preloads, memory, loaded,
            natives=natives, dbi_multiplier=dbi_multiplier,
            cycle_limit=cycle_limit, run_constructors=run_constructors,
            fast=fast,
        )

    def _finish_spawn(
        self,
        binary: Binary,
        preloads: List[Binary],
        memory,
        image,
        *,
        natives,
        dbi_multiplier: float,
        cycle_limit: int,
        run_constructors: bool,
        fast: bool,
    ) -> Process:
        """The seed-consuming half of spawn, shared by cold and image boots."""
        pid = self._next_pid
        self._next_pid += 1
        process = Process(
            self,
            pid,
            binary.name,
            memory,
            image,
            dict(natives or {}),
            self.entropy.fork(),
            dbi_multiplier=dbi_multiplier,
            cycle_limit=cycle_limit,
            tsc_base=self._elapse_wall_time(),
            fast=fast,
            fault_plane=self.fault_plane,
        )
        process.entry = binary.entry
        process.binary = binary
        #: Recorded for snapshot/restore: rebuilding the code layout needs
        #: the preload set that shaped it (interposition order).
        process.preloads = preloads
        self.processes[pid] = process

        # The dynamic loader draws the stack guard before anything runs.
        process.tls.canary = terminator_free_word(process.entropy)
        _SPAWNS.inc()

        if run_constructors:
            for source in (*preloads, binary):
                for constructor in source.constructors:
                    result = process.call(constructor)
                    if result.crashed:
                        raise KernelError(
                            f"constructor {constructor} crashed: {result.crash}"
                        )
        return process

    # -- fork -------------------------------------------------------------------

    def fork(self, parent: Process) -> Process:
        """Clone ``parent`` into a new child process.

        The child gets a deep copy of the address space (TLS canary and
        all existing stack frames included — the heart of the byte-by-byte
        attack surface) and a snapshot of the registers.  Fork hooks
        registered on the parent (by a preload library) then run against
        the child.
        """
        if parent.state == "crashed":
            # A crashed process is gone; forking it is harness misuse.
            # (An *exited* Process object may still be forked: server
            # harnesses fork fresh workers off a parent whose last call
            # returned.)
            raise KernelError(f"cannot fork crashed pid {parent.pid}")
        if self.fault_plane is not None and self.fault_plane.fork_verdict():
            raise TransientForkFailure(
                "fork: resource temporarily unavailable (EAGAIN)"
            )
        pid = self._next_pid
        self._next_pid += 1
        # The COW clone below freezes the parent's private pages; drop
        # the parent CPU's compiled superblocks so no JIT code outlives
        # a memory-sharing boundary.  The child shares the parent's
        # image, and with it the decoded step lists; only its JIT
        # state starts cold.
        parent.cpu.flush_jit_cache()
        child = parent.forked_child(
            pid,
            parent.memory.clone(),
            parent.entropy.fork(),
            tsc_base=max(parent.cpu.tsc.value, self._elapse_wall_time()),
            fault_plane=self.fault_plane,
        )
        self.processes[pid] = child
        self.fork_count += 1
        # Fork is all-or-nothing: if a hook fails (e.g. the preload's
        # shadow-pair refresh fails closed), unregister the child so no
        # retry or caller can observe a half-initialised process carrying
        # the parent's stale pair.
        try:
            for hook in parent.fork_hooks:
                hook(child, parent)
        except Exception:
            self.processes.pop(pid, None)
            self.fork_count -= 1
            raise
        # Counted only after the hooks commit: the counter is monotonic,
        # so it must track forks that stayed registered (== fork_count).
        _FORKS.inc()
        return child

    # -- threads -------------------------------------------------------------------

    def create_thread(self, process: Process, *, stack_size: int = 0x20000) -> Process:
        """pthread_create: a new execution context sharing ``process`` memory.

        The thread receives its own stack segment and TLS block; the TLS
        block is initialised as glibc does — same canary ``C`` as every
        other thread in the process — then thread hooks run (the preload's
        wrapped ``pthread_create`` refreshes the shadow canary there).
        """
        tid = len(process.threads) + 1
        main_stack = process.memory.segment("stack")
        stack_top = main_stack.base - _THREAD_STACK_STRIDE * (tid - 1) - PAGE
        process.memory.map_segment(
            Segment(f"stack_t{tid}", stack_top - stack_size, stack_size)
        )
        tls_base = process.registers.fs_base + _THREAD_TLS_STRIDE * tid
        process.memory.map_segment(Segment(f"tls_t{tid}", tls_base, _THREAD_TLS_STRIDE))

        thread = Process(
            self,
            process.pid,  # same pid: threads share the process identity
            f"{process.name}/t{tid}",
            process.memory,  # shared, NOT cloned
            process.image,
            process.natives,
            process.entropy.fork(),
            ppid=process.ppid,
            dbi_multiplier=process.cpu.dbi_multiplier,
            cycle_limit=process.cpu.cycle_limit,
            tsc_base=process.cpu.tsc.value,
            fast=process.cpu.fast,
            fault_plane=self.fault_plane,
        )
        # Like a fork child, a thread runs on its process's tiers, not
        # on whatever REPRO_JIT reads now.
        thread.cpu.jit = process.cpu.jit
        thread.entry = process.entry
        thread.binary = getattr(process, "binary", None)
        thread.registers.fs_base = tls_base
        thread.registers.write("rsp", stack_top - 0x100)
        thread.registers.write("rbp", stack_top - 0x100)
        thread.fork_hooks = list(process.fork_hooks)
        thread.thread_hooks = list(process.thread_hooks)
        # Carve a private heap arena so malloc in the thread cannot race
        # the process allocator (the simulator runs threads sequentially).
        thread.brk = process.brk
        process.brk += 0x10000

        # glibc: every thread's TLS starts with the same stack guard.
        thread.tls.canary = process.tls.canary
        thread.tls.shadow_c0 = process.tls.shadow_c0
        thread.tls.shadow_c1 = process.tls.shadow_c1

        process.threads.append(thread)
        # Mirror fork's all-or-nothing hook contract: a failed thread hook
        # (shadow refresh failing closed) must not leave a half-initialised
        # thread context registered.
        try:
            for hook in process.thread_hooks:
                hook(thread, process)
        except Exception:
            process.threads.pop()
            raise
        _THREADS.inc()
        return thread

    # -- snapshot/restore ---------------------------------------------------------

    def restore(self, image: bytes, *, natives: Optional[dict] = None) -> Process:
        """Rebuild a process from :func:`repro.machine.snapshot.snapshot_process`
        bytes, adopting the image's kernel bookkeeping (entropy stream,
        pid counter, wall-TSC epoch) so subsequent forks replay
        bit-identically to forks of the snapshotted original."""
        from ..machine.snapshot import restore_process

        return restore_process(
            image, kernel=self, natives=natives, adopt_kernel_state=True
        )

    # -- teardown -------------------------------------------------------------------

    def reap(self, process: Process) -> None:
        """Forget a terminated process (frees its memory on the host).

        Its CPU's back-reference, and its threads', ends here: without
        that loop every reaped worker would wait for the cyclic GC.
        """
        self.processes.pop(process.pid, None)
        process.cpu.process = None
        for thread in process.threads:
            thread.cpu.process = None
