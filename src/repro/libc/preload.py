"""The P-SSP preload shared library (paper §V-A).

The paper ships a ~16 KB position-independent shared object
(``libpoly_canary.so``, ~358 source lines) that is ``LD_PRELOAD``-ed into
victims.  It exports three overrides:

* ``setup_p-ssp`` — a ``constructor`` that initialises the TLS shadow
  canary (Algorithm 1) before ``main`` runs;
* ``fork`` — wraps glibc's fork and refreshes the *child's* shadow canary
  after the TLS is cloned (the parent's is untouched, and the TLS canary
  ``C`` itself is never changed — the paper's key compatibility claim);
* ``pthread_create`` — ditto for new threads.

In the simulator the wrapper behaviour is expressed as install-time setup
plus fork/thread hooks on the process, which the kernel invokes exactly
where the wrapped libc calls would run.

``mode`` selects the shadow format: ``"compiler"`` stores the 64-bit pair
at ``fs:0x2a8``/``fs:0x2b0`` (Code 3), ``"binary"`` stores the packed
2×32-bit word at ``fs:0x2a8`` so instrumented prologues stay
layout-identical to SSP (§V-C).
"""

from __future__ import annotations

from .. import telemetry
from ..core.rerandomize import re_randomize, re_randomize_packed32
from ..errors import ProtectionError
from ..faults import policy as fault_policy
from ..kernel.process import Process

#: Metadata reported by the paper for the real artifact.
SO_NAME = "libpoly_canary.so"
SO_SIZE_BYTES = 16 * 1024
SO_SOURCE_LINES = 358

_SHADOW_REFRESHES = telemetry.counter(
    "shadow_refreshes_total", "TLS shadow pair publishes"
)
_FORK_RERANDOMIZATIONS = telemetry.counter(
    "fork_rerandomizations_total", "child shadow pairs refreshed after fork"
)


class PSSPPreload:
    """Runtime support for P-SSP (basic scheme)."""

    def __init__(self, mode: str = "compiler") -> None:
        if mode not in ("compiler", "binary"):
            raise ProtectionError(f"unknown preload mode {mode!r}")
        self.mode = mode

    # -- the three exported overrides -------------------------------------------

    def setup(self, process: Process) -> None:
        """``setup_p-ssp``: initialise the shadow canary for one thread.

        The pair is two separate TLS words, so the store goes through the
        verified publish path: write both halves, read back, repair a torn
        write within a bounded budget, and fail closed
        (:class:`~repro.errors.DegradedError`) rather than leave a
        mixed-generation pair observable.
        """
        tls = process.tls
        if self.mode == "compiler":
            c0, c1 = re_randomize(process.entropy, tls.canary)
        else:
            c0, c1 = re_randomize_packed32(process.entropy, tls.canary), 0
        fault_policy.publish_shadow_pair(
            tls, c0, c1, plane=getattr(process, "fault_plane", None)
        )
        _SHADOW_REFRESHES.inc()
        telemetry.event("shadow-refresh", pid=process.pid, mode=self.mode)

    def on_fork(self, child: Process, parent: Process) -> None:
        """Wrapped ``fork``: refresh only the *child's* shadow canary.

        The TLS canary ``C`` is deliberately left alone, so frames the
        child inherited from the parent still verify — no consistency
        walk needed (contrast DynaGuard/DCR).
        """
        _FORK_RERANDOMIZATIONS.inc()
        telemetry.event(
            "fork-rerandomize", child=child.pid, parent=parent.pid
        )
        self.setup(child)

    def on_thread(self, thread: Process, process: Process) -> None:
        """Wrapped ``pthread_create``: fresh shadow canary per thread."""
        self.setup(thread)

    # -- deployment ---------------------------------------------------------------

    def install(self, process: Process) -> None:
        """Equivalent of ``LD_PRELOAD`` + constructor execution."""
        self.setup(process)
        process.fork_hooks.append(self.on_fork)
        process.thread_hooks.append(self.on_thread)

    def reattach(self, process: Process) -> None:
        """Re-register hooks on a restored process.

        No ``setup``: the shadow pair (and the entropy the constructor
        consumed) are already in the restored TLS/entropy state, so a
        second publish would desynchronise the replay.
        """
        process.fork_hooks.append(self.on_fork)
        process.thread_hooks.append(self.on_thread)

    def preload_binaries(self):
        """Simulated code this preload interposes (none for compiler mode;
        the binary mode's ``__stack_chk_fail`` replacement is produced by
        :func:`repro.rewriter.stack_chk.build_stack_chk_binary`)."""
        if self.mode == "binary":
            from ..rewriter.stack_chk import build_stack_chk_binary

            return [build_stack_chk_binary()]
        return []
