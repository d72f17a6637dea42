"""Scheme registry and deployment: source → protected binary → process.

One :class:`SchemeSpec` per defence from the paper, covering how the
binary is *built* (compiler pass vs. static rewriting of an SSP build)
and how the process is *run* (preload/runtime hooks, PIN-style DBI).

========================  =======================  ==========================
scheme                    build                    runtime
========================  =======================  ==========================
``none``                  unprotected compile      —
``ssp``                   SSP pass                 —
``raf-ssp``               SSP pass                 TLS-canary renew on fork
``dynaguard``             DynaGuard pass           CAB walk on fork
``dynaguard-dbi``         SSP→DynaGuard under PIN  CAB walk + DBI multiplier
``dcr``                   DCR pass                 linked-list walk on fork
``pssp``                  P-SSP pass               preload (shadow refresh)
``pssp-binary``           SSP build, rewritten     preload (packed shadow) +
                                                   interposed stack_chk stub
``pssp-binary-static``    SSP static, Dyninst      in-binary setup/fork hooks
``pssp-nt``               P-SSP-NT pass            —
``pssp-nt-hardened``      hardened NT pass         rdrand selftest + shadow pair
``pssp-lv``               P-SSP-LV pass            —
``pssp-owf``              P-SSP-OWF pass           r12/r13 AES key
``pssp-gb``               global-buffer pass       side-buffer allocation
========================  =======================  ==========================
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Tuple

from ..binfmt.elf import DYNAMIC, STATIC, Binary, merge_binaries
from ..compiler.codegen import compile_source
from ..errors import ProtectionError
from ..isa.costs import DBI_MULTIPLIER
from ..kernel.kernel import Kernel
from ..kernel.process import Process
from ..libc.builtins import build_natives
from ..libc.glibc_sim import build_static_glibc
from ..parallel.buildcache import build_cache
from ..parallel.snapcache import image_cache
from .baselines import DCRRuntime, DynaGuardRuntime
from .schemes import (
    GlobalBufferRuntime,
    HardenedNTRuntime,
    OWFRuntime,
    PSSPRuntime,
    RAFRuntime,
    SchemeRuntime,
)


@dataclass
class SchemeSpec:
    """How to build and run one protection scheme."""

    name: str
    #: Compiler pass used for the build ("ssp" when the scheme rewrites an
    #: SSP binary instead of compiling natively).
    pass_name: str
    runtime_factory: Optional[Callable[[], SchemeRuntime]] = None
    #: Post-compile binary transformation (static rewriting).
    rewrite: Optional[Callable[[Binary], Binary]] = None
    #: Forces static linking of the glibc stubs before rewriting.
    static_link: bool = False
    #: Instrumentation cycle multiplier: PIN-style DBI tax (DynaGuard's
    #: 156 % variant) or static-rewriting dislocation tax (DCR's
    #: trampolines/displaced hot code — the component a pure instruction
    #: count cannot see; calibrated to the original's reported ~24 %).
    dbi_multiplier: float = 1.0
    #: Table I facts, used by the harness's security/correctness columns.
    prevents_brop: bool = True
    fork_correct: bool = True

    def make_runtime(self) -> Optional[SchemeRuntime]:
        return self.runtime_factory() if self.runtime_factory else None


def _dynamic_rewrite(binary: Binary) -> Binary:
    from ..rewriter.rewrite import instrument_binary

    return instrument_binary(binary)


def _static_rewrite(binary: Binary) -> Binary:
    from ..rewriter.dyninst import instrument_static_binary

    return instrument_static_binary(binary)


SCHEMES: Dict[str, SchemeSpec] = {
    spec.name: spec
    for spec in (
        SchemeSpec("none", "none", prevents_brop=False),
        SchemeSpec("ssp", "ssp", prevents_brop=False),
        SchemeSpec("raf-ssp", "ssp", RAFRuntime, fork_correct=False),
        SchemeSpec("dynaguard", "dynaguard", DynaGuardRuntime),
        SchemeSpec(
            "dynaguard-dbi", "dynaguard", DynaGuardRuntime,
            dbi_multiplier=DBI_MULTIPLIER,
        ),
        SchemeSpec("dcr", "dcr", DCRRuntime, dbi_multiplier=1.22),
        SchemeSpec("pssp", "pssp", lambda: PSSPRuntime("compiler")),
        SchemeSpec(
            "pssp-binary", "ssp", lambda: PSSPRuntime("binary"),
            rewrite=_dynamic_rewrite,
        ),
        SchemeSpec(
            "pssp-binary-static", "ssp", None,
            rewrite=_static_rewrite, static_link=True,
        ),
        SchemeSpec("pssp-nt", "pssp-nt"),
        SchemeSpec("pssp-nt-hardened", "pssp-nt-hardened", HardenedNTRuntime),
        SchemeSpec("pssp-lv", "pssp-lv"),
        SchemeSpec("pssp-owf", "pssp-owf", OWFRuntime),
        SchemeSpec("pssp-gb", "pssp-gb", GlobalBufferRuntime),
    )
}


def get_scheme(name: str) -> SchemeSpec:
    """Look up a scheme spec by name."""
    try:
        return SCHEMES[name]
    except KeyError:
        raise ProtectionError(
            f"unknown scheme {name!r}; known: {sorted(SCHEMES)}"
        ) from None


def _build_uncached(source: str, spec: SchemeSpec, name: str) -> Binary:
    link_type = STATIC if spec.static_link else DYNAMIC
    binary = compile_source(source, protection=spec.pass_name, name=name,
                            link_type=link_type)
    if spec.static_link:
        binary = merge_binaries(binary, build_static_glibc(), name=binary.name)
    if spec.rewrite is not None:
        binary = spec.rewrite(binary)
    binary.protection = spec.name if spec.name != "none" else ""
    return binary


def build(source: str, scheme: str = "pssp", *, name: str = "a.out") -> Binary:
    """Compile MiniC source under ``scheme`` (including rewriting paths).

    Builds are deterministic, so the result is served through the
    content-addressed :mod:`repro.parallel.buildcache` keyed by
    ``(source, scheme toolchain fingerprint, name)`` — campaigns that
    rebuild one program per interpreter path, per reference/faulted
    twin, or per shrink candidate reuse a single compile.  The cache
    hands out private clones, so hits are unobservable except in speed.
    """
    spec = get_scheme(scheme)
    return build_cache().get_or_build(
        source, spec, name, lambda: _build_uncached(source, spec, name)
    )


def deploy(
    kernel: Kernel,
    binary: Binary,
    scheme: str,
    *,
    natives: Optional[dict] = None,
    cycle_limit: int = 50_000_000,
    stack_size: int = 0x40000,
    aslr: bool = False,
    fast: bool = True,
) -> Tuple[Process, Optional[SchemeRuntime]]:
    """Spawn ``binary`` with the scheme's runtime support installed.

    Returns ``(process, runtime)``; the runtime is also installed on the
    process (hooks registered, TLS/registers initialised), so most
    callers only need the process.  ``aslr`` randomizes the address-space
    layout on top of whatever canary scheme is deployed (§VII-B).
    """
    spec = get_scheme(scheme)
    runtime = spec.make_runtime()
    preloads = runtime.preload_binaries() if runtime else []
    image = None
    if not aslr:
        # Warm boot: COW-clone a frozen post-load image instead of
        # re-running the loader.  Spawn images are captured before any
        # entropy draw, so the result is bit-identical to a cold spawn
        # (gated by tests/parallel/test_snapcache.py).  ASLR slides the
        # layout per spawn, so it always boots cold.
        image = image_cache().image_for(
            binary, spec, preloads, stack_size=stack_size
        )
    process = kernel.spawn(
        binary,
        preloads=preloads,
        natives=natives if natives is not None else build_natives(),
        dbi_multiplier=spec.dbi_multiplier,
        cycle_limit=cycle_limit,
        stack_size=stack_size,
        aslr=aslr,
        fast=fast,
        image=image,
    )
    if runtime is not None:
        runtime.install(process)
    return process, runtime


def launch(
    kernel: Kernel,
    source: str,
    scheme: str = "pssp",
    *,
    name: str = "a.out",
    cycle_limit: int = 50_000_000,
) -> Tuple[Process, Binary]:
    """One-shot convenience: build + deploy.  Returns (process, binary)."""
    binary = build(source, scheme, name=name)
    process, _ = deploy(kernel, binary, scheme, cycle_limit=cycle_limit)
    return process, binary
