"""Cache of warmed spawn images, content-addressed by deployment inputs.

Campaigns spawn the same protected binary thousands of times: every
attack trial, chaos case, and conformance seed boots a fresh process
from the identical binary + preload set.  A cold boot re-runs the whole
loader (layout, rodata placement, zero-fill), which is pure waste —
spawn images are captured *before any entropy draw*, so one frozen
image serves every seed and the COW clone it hands out costs O(pages
touched) instead of O(address-space size).

:class:`SnapshotCache` keys a frozen
:class:`~repro.machine.snapshot.SpawnImage` by
``sha256(binary-image ‖ scheme-toolchain-fingerprint ‖ preload-images
‖ stack_size ‖ SNAPSHOT_VERSION)``.  The binary and preloads enter the
key as their full serialized images (not names), so a recompiled
binary can never alias a stale layout; the toolchain fingerprint and
:data:`~repro.machine.snapshot.SNAPSHOT_VERSION` cover everything else
that shapes the bytes.

Two tiers:

* an in-process LRU of live :class:`SpawnImage` objects (hits are a
  dict lookup; ``instantiate()`` already hands out private clones);
* an optional on-disk tier (``REPRO_SNAPSHOT_DIR``) of
  ``<key>.simg`` files in the deterministic container format, written
  with :func:`repro.persist.atomic_write` — this is what CI's warm-image
  cache persists between workflow runs.  A loaded file is served only
  if its own binary, preloads and stack size re-derive its key under
  the caller's scheme; anything else is a miss and is rebuilt.

Spawn images are seed-free by construction, so sharing one across
processes/runs cannot perturb determinism; the equivalence is gated by
``tests/parallel/test_snapcache.py`` (warm spawn ≡ cold spawn, bit for
bit).

Environment knob: ``REPRO_SNAPSHOT_DIR`` enables the disk tier at that
path.
"""

from __future__ import annotations

import hashlib
import os
from collections import OrderedDict
from typing import Dict, Optional

from .. import telemetry
from ..binfmt import serialize
from ..machine.snapshot import (
    SNAPSHOT_VERSION,
    SnapshotError,
    SpawnImage,
    dump_spawn_image,
    load_spawn_image,
    prepare_spawn_image,
)
from ..persist import atomic_write
from .buildcache import toolchain_fingerprint

#: Default LRU bound (entries; images are page-shared, so cheap).
DEFAULT_MAX_IMAGES = 64

_DIR_ENV = "REPRO_SNAPSHOT_DIR"

#: Disk-tier file suffix (one image per key).
IMAGE_SUFFIX = ".simg"


class SnapshotCache:
    """Two-tier (memory + optional disk) cache of warmed spawn images."""

    def __init__(
        self,
        max_entries: int = DEFAULT_MAX_IMAGES,
        directory: Optional[str] = None,
    ) -> None:
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.max_entries = max_entries
        self.directory = (
            directory if directory is not None else os.environ.get(_DIR_ENV)
        )
        self._entries: "OrderedDict[str, SpawnImage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_stores = 0

    # -- keying ----------------------------------------------------------

    @staticmethod
    def key_for(binary, spec, preloads, stack_size: int) -> str:
        """The content address of one (binary, scheme, preloads) boot."""
        digest = hashlib.sha256()
        digest.update(b"snapshot-v%d" % SNAPSHOT_VERSION)
        digest.update(b"\x00")
        digest.update(serialize.dumps(binary))
        digest.update(b"\x00")
        digest.update(toolchain_fingerprint(spec).encode("ascii"))
        for preload in preloads:
            digest.update(b"\x00")
            digest.update(serialize.dumps(preload))
        digest.update(b"\x00%d" % stack_size)
        return digest.hexdigest()

    # -- lookup ----------------------------------------------------------

    def image_for(
        self, binary, spec, preloads=(), *, stack_size: int = 0x40000
    ) -> SpawnImage:
        """A warmed spawn image for this deployment, building on miss.

        The returned object is shared — callers must only use
        :meth:`~repro.machine.snapshot.SpawnImage.instantiate`, which
        hands out private COW clones.
        """
        preloads = list(preloads)
        key = self.key_for(binary, spec, preloads, stack_size)
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            telemetry.count(
                "snapshot_cache_hits_total", help="spawn-image cache hits"
            )
            return cached
        image = self._load_from_disk(key, spec)
        if image is None:
            self.misses += 1
            telemetry.count(
                "snapshot_cache_misses_total", help="spawn-image cache misses"
            )
            image = prepare_spawn_image(
                binary, preloads=preloads, stack_size=stack_size
            )
            self._store_to_disk(key, image)
        self._entries[key] = image
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            telemetry.count(
                "snapshot_cache_evictions_total",
                help="spawn-image cache LRU evictions",
            )
        return image

    # -- disk tier -------------------------------------------------------

    def _path_for(self, key: str) -> Optional[str]:
        if not self.directory:
            return None
        return os.path.join(self.directory, key + IMAGE_SUFFIX)

    def _load_from_disk(self, key: str, spec) -> Optional[SpawnImage]:
        path = self._path_for(key)
        if path is None or not os.path.exists(path):
            return None
        try:
            with open(path, "rb") as handle:
                image = load_spawn_image(handle.read())
        except (OSError, SnapshotError):
            # A truncated or version-skewed file is a miss, not an error:
            # the rebuilt image overwrites it.
            return None
        if self.key_for(image.binary, spec, image.preloads,
                        image.stack_size) != key:
            return None  # another deployment's image: also a miss
        self.disk_hits += 1
        telemetry.count(
            "snapshot_cache_disk_hits_total",
            help="spawn images served from the disk tier",
        )
        return image

    def _store_to_disk(self, key: str, image: SpawnImage) -> None:
        path = self._path_for(key)
        if path is None:
            return
        try:
            atomic_write(path, dump_spawn_image(image))
        except OSError:
            # Disk tier is best-effort (read-only FS, quota): the
            # in-memory entry still serves this process.
            return
        self.disk_stores += 1
        telemetry.count(
            "snapshot_cache_disk_stores_total",
            help="spawn images persisted to the disk tier",
        )

    # -- maintenance -----------------------------------------------------

    def clear(self) -> None:
        """Drop every in-memory entry (disk files are left alone)."""
        self._entries.clear()

    def __len__(self) -> int:
        return len(self._entries)

    def stats(self) -> Dict[str, object]:
        """Plain-data counters for gates and the CI cache-stats artifact."""
        lookups = self.hits + self.misses
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "directory": self.directory,
            "hits": self.hits,
            "misses": self.misses,
            "evictions": self.evictions,
            "disk_hits": self.disk_hits,
            "disk_stores": self.disk_stores,
            "hit_rate": (self.hits / lookups) if lookups else 0.0,
        }


def directory_stats(directory: str) -> Dict[str, object]:
    """Manifest of a disk-tier directory (the CI artifact next to
    ``buildcache-stats.json``): image count and total bytes."""
    images = 0
    total = 0
    if os.path.isdir(directory):
        for entry in sorted(os.listdir(directory)):
            if not entry.endswith(IMAGE_SUFFIX):
                continue
            images += 1
            total += os.path.getsize(os.path.join(directory, entry))
    return {"directory": directory, "images": images, "bytes": total}


#: The per-process cache consulted by :func:`repro.core.deploy.deploy`.
_DEFAULT: Optional[SnapshotCache] = None


def image_cache() -> SnapshotCache:
    """The process-wide spawn-image cache (created on first use)."""
    global _DEFAULT
    if _DEFAULT is None:
        _DEFAULT = SnapshotCache()
    return _DEFAULT


def reset_image_cache() -> SnapshotCache:
    """Replace the process-wide cache (tests; env-knob re-reads)."""
    global _DEFAULT
    _DEFAULT = SnapshotCache()
    return _DEFAULT
