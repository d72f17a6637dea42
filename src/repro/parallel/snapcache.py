"""Cache of warmed spawn images, one per exact deployment.

Campaigns spawn the same protected binary thousands of times: every
attack trial, chaos case, and conformance seed boots a fresh process
from the identical binary + preload set.  A cold boot re-runs the whole
loader (layout, rodata placement, zero-fill), which is pure waste —
spawn images are captured *before any entropy draw*, so one frozen
image serves every seed and the COW clone it hands out costs O(pages
touched) instead of O(address-space size).

A deployment is ``(binary, scheme toolchain fingerprint, preloads,
stack_size)``.  :class:`SnapshotCache` has two tiers, matched two ways:

* **In memory: exact equality on private clones.**  An LRU of live
  :class:`SpawnImage` objects, filed under a :class:`DeploymentKey`.
  The key hashes only cheap shape (names, body lengths, fingerprint,
  stack size); two keys are equal only if their binaries and preloads
  are equal field by field *and* declare their functions, rodata and
  bss in the same order, which is the order the loader lays them out
  in.  A miss clones the caller's binary and preloads, prepares the
  image from the clones and files it under them, so a caller that later
  mutates its own objects can change neither a cached key nor
  ``image.binary``.  Build-cache clones share their immutable
  ``Instruction`` objects, so a hit compares them by identity: a few
  microseconds, with nothing serialized.
* **On disk: the sha256 content key** (``REPRO_SNAPSHOT_DIR``).
  :meth:`SnapshotCache.key_for` hashes the serialized binary and
  preloads (whose format keeps function, rodata and bss declaration
  order), the toolchain fingerprint, the stack size and
  :data:`~repro.machine.snapshot.SNAPSHOT_VERSION`; it runs
  only when memory missed and a directory is set.  Images are
  ``<key>.simg`` files in the deterministic container format, written
  with :func:`repro.persist.atomic_write` — this is what CI's
  warm-image cache persists between workflow runs.  A loaded file is
  served only if its own binary, preloads and stack size re-derive its
  key under the caller's scheme; anything else (a truncated file, an
  older container or binary format version, another deployment's
  image) is a miss and is rebuilt.

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
from typing import Dict, Optional, Tuple

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

_HITS = telemetry.counter("snapshot_cache_hits_total", "spawn-image cache hits")
_MISSES = telemetry.counter(
    "snapshot_cache_misses_total", "spawn-image cache misses"
)
_EVICTIONS = telemetry.counter(
    "snapshot_cache_evictions_total", "spawn-image cache LRU evictions"
)
_DISK_HITS = telemetry.counter(
    "snapshot_cache_disk_hits_total", "spawn images served from the disk tier"
)
_DISK_STORES = telemetry.counter(
    "snapshot_cache_disk_stores_total", "spawn images persisted to the disk tier"
)


def _layout_order(binary) -> Tuple[list, list, list]:
    """The declaration orders the loader lays ``binary`` out in."""
    return list(binary.functions), list(binary.rodata), list(binary.bss)


class DeploymentKey:
    """In-memory entry key: one deployment, matched by exact equality.

    The hash covers only cheap shape; equality demands equal binaries
    and preloads (the ``Binary``/``Function`` dataclass ``==``) declared
    in the same layout order, so a dict lookup serves an image only for
    an exactly equal deployment.
    """

    __slots__ = ("binary", "fingerprint", "preloads", "stack_size", "_hash")

    def __init__(self, binary, fingerprint: str, preloads, stack_size: int):
        self.binary = binary
        self.fingerprint = fingerprint
        self.preloads = tuple(preloads)
        self.stack_size = stack_size
        self._hash = hash((
            binary.name,
            fingerprint,
            stack_size,
            tuple((name, len(function.body))
                  for name, function in binary.functions.items()),
            tuple(preload.name for preload in self.preloads),
        ))

    def __hash__(self) -> int:
        return self._hash

    def __eq__(self, other) -> bool:
        if not isinstance(other, DeploymentKey):
            return NotImplemented
        if (self._hash != other._hash
                or self.fingerprint != other.fingerprint
                or self.stack_size != other.stack_size
                or len(self.preloads) != len(other.preloads)):
            return False
        return all(
            mine == theirs and _layout_order(mine) == _layout_order(theirs)
            for mine, theirs in zip(
                (self.binary, *self.preloads), (other.binary, *other.preloads)
            )
        )

    def private(self) -> "DeploymentKey":
        """The same deployment on private clones of binary and preloads."""
        return DeploymentKey(
            self.binary.clone(),
            self.fingerprint,
            [preload.clone() for preload in self.preloads],
            self.stack_size,
        )


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
        self._entries: "OrderedDict[DeploymentKey, SpawnImage]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.disk_hits = 0
        self.disk_stores = 0

    # -- keying ----------------------------------------------------------

    @staticmethod
    def key_for(binary, spec, preloads, stack_size: int) -> str:
        """The disk tier's content address of one (binary, scheme,
        preloads) boot: serialized images, which keep layout order."""
        digest = hashlib.sha256()
        digest.update(b"snapshot-v%d" % SNAPSHOT_VERSION)
        digest.update(b"\x00" + toolchain_fingerprint(spec).encode("ascii"))
        for part in (binary, *preloads):
            digest.update(b"\x00" + serialize.dumps(part))
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
        key = DeploymentKey(
            binary, toolchain_fingerprint(spec), preloads, stack_size
        )
        cached = self._entries.get(key)
        if cached is not None:
            self._entries.move_to_end(key)
            self.hits += 1
            _HITS.inc()
            return cached
        # Key and image hold private clones: the caller may mutate its
        # binary or preloads after this returns.
        key = key.private()
        image = None
        content_key = None
        if self.directory:
            content_key = self.key_for(
                key.binary, spec, key.preloads, stack_size
            )
            image = self._load_from_disk(content_key, spec)
        if image is None:
            self.misses += 1
            _MISSES.inc()
            image = prepare_spawn_image(
                key.binary, preloads=key.preloads, stack_size=stack_size
            )
            if content_key is not None:
                self._store_to_disk(content_key, image)
        self._entries[key] = image
        if len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1
            _EVICTIONS.inc()
        return image

    # -- disk tier -------------------------------------------------------

    def _path_for(self, key: str) -> str:
        return os.path.join(self.directory, key + IMAGE_SUFFIX)

    def _load_from_disk(self, key: str, spec) -> Optional[SpawnImage]:
        path = self._path_for(key)
        if not os.path.exists(path):
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
        _DISK_HITS.inc()
        return image

    def _store_to_disk(self, key: str, image: SpawnImage) -> None:
        try:
            atomic_write(self._path_for(key), dump_spawn_image(image))
        except OSError:
            # Disk tier is best-effort (read-only FS, quota): the
            # in-memory entry still serves this process.
            return
        self.disk_stores += 1
        _DISK_STORES.inc()

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
