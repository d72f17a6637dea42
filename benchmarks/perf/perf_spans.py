"""Outside-in host-time spans around the public calls of each layer.

The benchmark never edits program code: it replaces a layer's public
function or method with a wrapper that times the call and hands it on.
Every wrapper shares one span stack, so a layer's *self* time is its
calls' duration minus the part covered by spans opened inside them
(``compile_source`` inside ``BuildCache.get_or_build`` counts as
``compiler``, not as ``parallel.buildcache``).

An untraced round installs only the wrapper on its op root (the call
the per-op latency samples come from).  A traced round installs every
layer.  ``install`` returns a function that puts the originals back.
"""

from __future__ import annotations

import importlib
import json
import os
import time
from typing import Callable, Dict, List, Optional, Tuple

#: Layer names are module names.  ``unattributed`` is derived, not wrapped.
LAYERS = (
    "compiler",
    "parallel.buildcache",
    "parallel.snapcache",
    "kernel.spawn",
    "kernel.fork",
    "machine.memory",
    "libc.preload",
    "kernel.reap",
    "machine.decode",
    "machine.jit",
    "machine.cpu.fast",
    "machine.cpu.slow",
    "libc.builtins",
    "crypto.aes",
    "fleet.server",
    "fleet.supervisor",
    "telemetry",
    "faults.campaign",
    "harness.metrics",
    "parallel.executor",
)


class SpanTable:
    """Per-process span totals, kept in memory until the round ends."""

    def __init__(self) -> None:
        self.self_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.total_s: Dict[str, float] = dict.fromkeys(LAYERS, 0.0)
        self.calls: Dict[str, int] = dict.fromkeys(LAYERS, 0)
        #: Child time accumulated by each open span, innermost last.
        self.stack: List[float] = []
        #: Host time of every op-root call, in milliseconds.
        self.op_ms: List[float] = []
        #: Distinct ``Function`` objects decoded (held, so ids stay unique).
        self.decoded: Dict[int, object] = {}
        #: Inclusive ``run_fleet_slice`` time spent in pool workers.
        self.slice_s = 0.0
        #: Host-speed probes taken between ops: (ops done before it, seconds).
        self.probes: List[Tuple[int, float]] = []
        #: Host time spent in those probes.
        self.probe_spent_s = 0.0
        #: Called after every op outside its timing (the host-speed
        #: pacer), or None.
        self.after_op: Optional[Callable[[], None]] = None
        #: Process the totals belong to (a forked worker starts afresh).
        self.pid = os.getpid()

    def reset(self, *, keep_decoded: bool = False) -> None:
        """Zero every total in place (the wrappers hold these objects)."""
        for layer in LAYERS:
            self.self_s[layer] = 0.0
            self.total_s[layer] = 0.0
            self.calls[layer] = 0
        self.stack.clear()
        self.op_ms.clear()
        if not keep_decoded:
            self.decoded.clear()
        self.slice_s = 0.0
        self.probes.clear()
        self.probe_spent_s = 0.0

    def span(
        self,
        layer: str,
        fn: Callable,
        *,
        op: bool = False,
        pick: Optional[Callable[[object], str]] = None,
    ) -> Callable:
        """Wrap ``fn`` as a span of ``layer`` (or of ``pick(first arg)``)."""
        stack = self.stack
        self_s = self.self_s
        total_s = self.total_s
        calls = self.calls
        op_ms = self.op_ms
        perf = time.perf_counter

        def wrapper(*args, **kwargs):
            name = layer if pick is None else pick(args[0])
            stack.append(0.0)
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
                self_s[name] += elapsed - child
                total_s[name] += elapsed
                calls[name] += 1
                if op:
                    op_ms.append(elapsed * 1e3)
                    # Every op root is an outermost span, so what runs
                    # here lands in no layer's self time.
                    if self.after_op is not None:
                        self.after_op()

        return wrapper

    def to_json(self) -> Dict[str, object]:
        return {
            "self_s": dict(self.self_s),
            "total_s": dict(self.total_s),
            "calls": dict(self.calls),
            "op_ms": list(self.op_ms),
            "probes": list(self.probes),
            "probe_spent_s": self.probe_spent_s,
            "decoded": len(self.decoded),
            "slice_s": self.slice_s,
        }


def _cpu_tier(process) -> str:
    cpu = process.cpu
    return (
        "machine.cpu.fast" if cpu.fast and cpu.trace is None
        else "machine.cpu.slow"
    )


def install(
    table: SpanTable,
    *,
    root: str,
    traced: bool,
    worker_log: Optional[str] = None,
) -> Callable[[], None]:
    """Wrap the op root ``root`` and, when ``traced``, every layer.

    With ``worker_log`` (a directory), each pool worker appends one line
    of span totals there per ``run_fleet_slice`` it serves; a line
    covers exactly that slice.  Returns the undo function.
    """
    import repro.parallel as parallel
    from repro import telemetry
    from repro.faults import campaign as chaos
    from repro.fleet import campaign as fleet
    from repro.fleet.server import FleetServer
    from repro.fleet.supervisor import FleetSupervisor
    from repro.harness import metrics
    from repro.kernel.kernel import Kernel
    from repro.kernel.process import Process
    from repro.libc.preload import PSSPPreload
    from repro.machine import jit
    from repro.machine.decode import FunctionDecoder
    from repro.machine.memory import Memory
    from repro.parallel import buildcache, snapcache

    # ``repro.core`` re-exports the function ``deploy`` under the name of
    # its module, so the module is fetched by its full name.
    deploy = importlib.import_module("repro.core.deploy")
    undo: List[Callable[[], None]] = []

    def patch(owner, attr: str, replacement) -> None:
        original = owner.__dict__[attr]
        setattr(owner, attr, replacement)
        undo.append(lambda: setattr(owner, attr, original))

    def wrap(owner, attr: str, layer: str, **kwargs) -> None:
        patch(owner, attr, table.span(layer, getattr(owner, attr), **kwargs))

    def restore() -> None:
        while undo:
            undo.pop()()

    roots = {
        "fleet.server": (FleetServer, "handle_request"),
        "faults.campaign": (chaos, "run_chaos_case"),
        "harness.metrics": (metrics, "run_program"),
    }
    for layer, (owner, attr) in roots.items():
        if traced or layer == root:
            wrap(owner, attr, layer, op=layer == root)

    if worker_log is not None:
        run_fleet_slice = fleet.run_fleet_slice
        parent = table.pid

        def logged_slice(*args, **kwargs):
            pid = os.getpid()
            if pid != parent:
                # Drop what the worker inherited or ran between slices,
                # so each line covers exactly one slice.
                table.reset(keep_decoded=table.pid == pid)
                table.pid = pid
            start = time.perf_counter()
            try:
                return run_fleet_slice(*args, **kwargs)
            finally:
                if pid != parent:
                    table.slice_s += time.perf_counter() - start
                    path = os.path.join(worker_log, f"worker-{pid}.jsonl")
                    with open(path, "a", encoding="utf-8") as handle:
                        handle.write(json.dumps(table.to_json()) + "\n")

        patch(fleet, "run_fleet_slice", logged_slice)

    if not traced:
        return restore

    wrap(deploy, "compile_source", "compiler")
    wrap(buildcache.BuildCache, "get_or_build", "parallel.buildcache")
    wrap(snapcache.SnapshotCache, "image_for", "parallel.snapcache")
    wrap(Kernel, "spawn", "kernel.spawn")
    wrap(Kernel, "fork", "kernel.fork")
    wrap(Kernel, "reap", "kernel.reap")
    wrap(Memory, "clone", "machine.memory")
    wrap(PSSPPreload, "on_fork", "libc.preload")
    wrap(jit, "compile_superblock", "machine.jit")
    wrap(Process, "run", "machine.cpu.fast", pick=_cpu_tier)
    wrap(Process, "continue_execution", "machine.cpu.fast", pick=_cpu_tier)
    for attr in ("checkout_worker", "admit", "observe"):
        wrap(FleetSupervisor, attr, "fleet.supervisor")
    for attr in ("snapshot", "delta", "absorb"):
        wrap(telemetry, attr, "telemetry")
    wrap(parallel, "run_shards", "parallel.executor")

    decode = FunctionDecoder.decode

    def decode_noting(decoder, function):
        table.decoded[id(function)] = function
        return decode(decoder, function)

    patch(
        FunctionDecoder, "decode", table.span("machine.decode", decode_noting)
    )

    build_natives = deploy.build_natives

    def build_natives_traced(extra=None):
        natives = build_natives(extra)
        for name, native in natives.items():
            layer = "crypto.aes" if name == "AES_ENCRYPT_128" else "libc.builtins"
            native.handler = table.span(layer, native.handler)
        return natives

    patch(deploy, "build_natives", build_natives_traced)
    return restore


def merge_worker_lines(table: SpanTable, directory: str) -> int:
    """Fold every pool worker's lines under ``directory`` into ``table``.

    Worker spans add to the parent's totals; ``slice_s`` collects the
    worker time they happened in.  Returns the distinct ``Function``
    objects the workers decoded (each worker holds its own objects).
    """
    distinct = 0
    for name in sorted(os.listdir(directory)):
        if not name.startswith("worker-"):
            continue
        last = 0
        with open(os.path.join(directory, name), encoding="utf-8") as handle:
            for line in handle:
                data = json.loads(line)
                for layer in LAYERS:
                    table.self_s[layer] += data["self_s"][layer]
                    table.total_s[layer] += data["total_s"][layer]
                    table.calls[layer] += data["calls"][layer]
                # A line's probe indices count that slice's ops only.
                done = len(table.op_ms)
                table.probes.extend((done + ops, s) for ops, s in data["probes"])
                table.probe_spent_s += data["probe_spent_s"]
                table.op_ms.extend(data["op_ms"])
                table.slice_s += data["slice_s"]
                last = data["decoded"]
        distinct += last
    return distinct
