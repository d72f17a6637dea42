"""Content-addressed cache of compiled (and rewritten) program images.

Campaigns rebuild the same program over and over: a conformance check
compiles one source once per scheme *per interpreter path*, a chaos case
builds its program twice (reference + faulted twin), and a shrinking
loop re-checks dozens of near-identical candidates.  Compilation is
deterministic — same source, same scheme, same toolchain ⇒ the same
image bit for bit — so those rebuilds are pure waste.

:class:`BuildCache` keys a finished :class:`~repro.binfmt.elf.Binary`
by ``sha256(source ‖ scheme-toolchain-fingerprint ‖ name)``.  The
fingerprint covers everything that can change the produced image: the
compiler pass, link mode, rewrite stage, the DBI multiplier, and a
global :data:`TOOLCHAIN_VERSION` bumped whenever the toolchain itself
changes incompatibly.  Mutation-kill self-checks monkeypatch live
compiler/rewriter code, which is exactly a toolchain change the
fingerprint cannot see — so :func:`repro.fuzz.mutants.planted` clears
the cache on entry and exit.

Hits hand out ``Binary.clone()`` copies (fresh function objects), so a
caller instrumenting or mutating its binary can never poison the
cached pristine image.  The cache is per-process, LRU-bounded, and its
hit/miss/eviction counters feed the telemetry registry
(``build_cache_*_total``) plus :meth:`BuildCache.stats` for the
hit/miss test and the nightly cache-stats artifact.
"""

from __future__ import annotations

import hashlib
import json
from collections import OrderedDict
from typing import Callable, Dict, Optional

from .. import telemetry

#: Bump when the compiler/rewriter toolchain changes in a way the
#: :class:`SchemeSpec` fields cannot express (new codegen, new pass
#: ordering, ...).  Part of every cache key.
TOOLCHAIN_VERSION = 1

#: Default LRU bound (entries, not bytes: images are small ASTs).
DEFAULT_MAX_ENTRIES = 256

_HITS = telemetry.counter("build_cache_hits_total", "build cache hits")
_MISSES = telemetry.counter("build_cache_misses_total", "build cache misses")
_EVICTIONS = telemetry.counter(
    "build_cache_evictions_total", "build cache LRU evictions"
)


def toolchain_fingerprint(spec) -> str:
    """Stable digest of everything in a scheme spec that shapes the image.

    ``spec`` is a :class:`repro.core.deploy.SchemeSpec` (passed in, not
    imported, to keep this module free of the deploy layer).  The
    runtime factory is deliberately excluded: runtimes act at deploy
    time and never change the built image.
    """
    description = {
        "toolchain_version": TOOLCHAIN_VERSION,
        "scheme": spec.name,
        "pass": spec.pass_name,
        "static_link": spec.static_link,
        "dbi_multiplier": spec.dbi_multiplier,
        "rewrite": getattr(spec.rewrite, "__qualname__", None),
    }
    blob = json.dumps(description, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()


class BuildCache:
    """LRU cache of built binaries, content-addressed by build inputs."""

    def __init__(self, max_entries: int = DEFAULT_MAX_ENTRIES) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- keying ----------------------------------------------------------

    @staticmethod
    def key_for(source: str, spec, name: str) -> str:
        """The content address of one build request."""
        digest = hashlib.sha256()
        digest.update(source.encode("utf-8"))
        digest.update(b"\x00")
        digest.update(toolchain_fingerprint(spec).encode("ascii"))
        digest.update(b"\x00")
        digest.update(name.encode("utf-8"))
        return digest.hexdigest()

    # -- lookup ----------------------------------------------------------

    def get_or_build(self, source: str, spec, name: str, builder: Callable[[], object]):
        """Return a private copy of the image for this build request.

        On a miss ``builder()`` compiles the image, which is stored
        pristine; both hit and miss hand back ``Binary.clone()`` copies
        so no caller ever holds (or can mutate) the cached object.
        """
        key = self.key_for(source, spec, name)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            _HITS.inc()
            return cached.clone()
        self.misses += 1
        _MISSES.inc()
        binary = builder()
        self._entries[key] = binary.clone()
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            _EVICTIONS.inc()
        return binary

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        """Drop every entry (the toolchain changed under us)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Plain-data counters for gates and artifacts."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


#: The per-process cache consulted by :func:`repro.core.deploy.build`.
_DEFAULT: Optional[BuildCache] = None


def build_cache() -> BuildCache:
    """The process-wide build cache (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = BuildCache()
    return _DEFAULT


def reset_build_cache() -> BuildCache:
    """Replace the process-wide cache (tests; env-knob re-reads)."""
    global _DEFAULT
    _DEFAULT = BuildCache()
    return _DEFAULT
