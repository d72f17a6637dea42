"""Byte-addressable segmented process memory, backed by COW pages.

A process image maps a handful of segments (code, data, heap, stack, TLS)
into a flat 64-bit address space.  Reads and writes honour segment
permissions; touching an unmapped address raises
:class:`~repro.errors.SegmentationFault`, which the kernel converts into a
SIGSEGV crash — exactly the "oracle" signal the byte-by-byte attacker
listens for.

Buffer overflows are *not* prevented here: a write that stays inside a
writable segment succeeds even if it tramples canaries, saved frame
pointers, or return addresses.  Detecting that is the protection schemes'
job.

Page model
----------

Each segment is a run of fixed-size pages (:data:`PAGE` bytes; the last
page of an unaligned segment is short).  A page is either

* **frozen** — an immutable ``bytes`` object that may be shared with any
  number of cloned segments (and, for fresh zero pages, with every other
  zero page in the process), or
* **private** — a ``bytearray`` this segment alone may mutate.

Writes fault a frozen page into a private copy on first store
(``memory_page_faults_total``), so :meth:`Memory.clone` — the kernel's
``fork`` — costs O(pages touched since the last clone) instead of
O(address-space size): cloning freezes the parent's private pages
(O(dirty)) and hands the child references to the shared frozen pages.
Segments that are read-only for life (code, rodata mapped ``writable=
False``) can never own a private page, so their contents are shared
outright across every clone — no copy ever happens.

The word/byte fast lanes cache one *page* (proven readable/writable by a
full ``_locate``) instead of one whole segment; accesses that stay inside
the lane skip segment lookup, permission checks, and the COW fault check
entirely, which keeps both interpreter paths' view of memory bit-identical
to the pre-COW implementation.  Lanes are dropped whenever page ownership
can change under them: mapping, cloning, freezing, or a write fault that
re-materialises the lane's page.
"""

from __future__ import annotations

import os
from typing import Dict, Iterator, List, Optional, Tuple

from .. import telemetry
from ..errors import SegmentationFault

#: Default virtual-address layout (loosely mirrors Linux x86-64).
CODE_BASE = 0x0000_0000_0040_0000
DATA_BASE = 0x0000_0000_0060_0000
HEAP_BASE = 0x0000_0000_0080_0000
TLS_BASE = 0x0000_7FFF_F000_0000
STACK_TOP = 0x0000_7FFF_FFFF_0000

#: Sentinel return address pushed below ``main``; ``ret`` to it exits.
EXIT_ADDRESS = 0x0000_DEAD_0000_0000

WORD_BYTES = 8
WORD_MASK = (1 << 64) - 1

#: COW page granularity.  4 KB mirrors the hardware page the real fork's
#: copy-on-write operates on.
PAGE = 0x1000
PAGE_SHIFT = 12

#: The one all-zero page every freshly mapped full page references.
_ZERO_PAGE = bytes(PAGE)

#: A lane that can never match an address: ``base <= addr < limit`` is
#: false for every addr when base > limit.
_EMPTY_LANE = (1, 0, bytearray())

#: Env knob: ``REPRO_COW_FORK=0`` restores eager deep-copy clones (the
#: pre-page implementation's behaviour) for differential testing.
_COW_ENV = "REPRO_COW_FORK"


def cow_enabled() -> bool:
    """True unless ``REPRO_COW_FORK=0`` forces eager deep-copy clones."""
    return os.environ.get(_COW_ENV, "1") != "0"


class Segment:
    """One contiguous mapped region, stored as COW pages.

    The constructor signature matches the historical dataclass: ``data``
    (when given) must be exactly ``size`` bytes and provides the initial
    contents; otherwise the segment starts zeroed — at page granularity
    that means every full page references the single shared zero page,
    so mapping a large segment allocates almost nothing.
    """

    __slots__ = (
        "name", "base", "size",
        "readable", "writable", "executable",
        "_source", "_private",
    )

    def __init__(
        self,
        name: str,
        base: int,
        size: int,
        readable: bool = True,
        writable: bool = True,
        executable: bool = False,
        data: Optional[bytearray] = None,
    ) -> None:
        self.name = name
        self.base = base
        self.size = size
        self.readable = readable
        self.writable = writable
        self.executable = executable
        if data:
            if len(data) != size:
                raise ValueError(f"segment {name}: data/size mismatch")
            pages = []
            view = memoryview(data)
            for start in range(0, size, PAGE):
                chunk = bytes(view[start : start + PAGE])
                pages.append(_ZERO_PAGE if chunk == _ZERO_PAGE else chunk)
            self._source: Tuple[bytes, ...] = tuple(pages)
        else:
            full, tail = divmod(size, PAGE)
            pages = [_ZERO_PAGE] * full
            if tail:
                pages.append(bytes(tail))
            self._source = tuple(pages)
        #: Pages written since construction: ``bytearray`` entries are
        #: exclusively ours; ``bytes`` entries were frozen by a clone and
        #: may be shared with children.
        self._private: Dict[int, "bytes | bytearray"] = {}

    # -- geometry ----------------------------------------------------------

    @property
    def end(self) -> int:
        """One past the last mapped address."""
        return self.base + self.size

    @property
    def page_count(self) -> int:
        """Number of pages backing this segment."""
        return len(self._source)

    @property
    def private_pages(self) -> int:
        """Pages materialised (or inherited as frozen overlays) by writes."""
        return len(self._private)

    @property
    def immutable(self) -> bool:
        """True for read-only-for-life segments: every clone shares them
        outright, no page of theirs can ever be copied."""
        return not self.writable

    def contains(self, address: int, length: int = 1) -> bool:
        """True if ``[address, address+length)`` lies inside the segment."""
        return self.base <= address and address + length <= self.end

    # -- page access -------------------------------------------------------

    def page(self, index: int) -> "bytes | bytearray":
        """Current contents of page ``index`` (frozen or private)."""
        overlay = self._private.get(index)
        return self._source[index] if overlay is None else overlay

    def writable_page(self, index: int) -> bytearray:
        """Page ``index`` as a mutable buffer, faulting a private copy in
        on first store (the COW write fault)."""
        page = self._private.get(index)
        if type(page) is bytearray:
            return page
        # First store since the last freeze: materialise a private copy
        # of whatever the segment currently reads (frozen overlay if one
        # exists, the original source page otherwise).
        page = bytearray(self._source[index] if page is None else page)
        self._private[index] = page
        telemetry.count(
            "memory_page_faults_total",
            help="COW write faults (private page copies materialised)",
        )
        return page

    def freeze(self) -> None:
        """Convert every private page to an immutable shared one.

        O(pages dirtied since the last freeze); a segment with no private
        bytearrays is already fully shareable and this is a no-op.  Any
        cached buffer reference (fast lane) into this segment is stale
        after freezing — the owner must drop its lanes.
        """
        frozen = 0
        for index, page in self._private.items():
            if type(page) is bytearray:
                self._private[index] = bytes(page)
                frozen += 1
        if frozen:
            telemetry.count(
                "memory_pages_frozen_total",
                help="private pages frozen for sharing at clone/snapshot",
            )

    # -- whole-segment views -----------------------------------------------

    def tobytes(self) -> bytes:
        """The full segment contents as one immutable byte string."""
        if not self._private:
            return b"".join(self._source)
        return b"".join(self.page(i) for i in range(len(self._source)))

    @property
    def data(self) -> bytes:
        """Materialised contents (compatibility view; prefer
        :meth:`tobytes`).  Read-only: mutations must go through
        :class:`Memory` so COW faults and fast lanes stay coherent."""
        return self.tobytes()

    # -- span access (page-crossing reads/writes) --------------------------

    def read_span(self, offset: int, length: int) -> bytes:
        """Read ``length`` bytes at segment ``offset``, across pages."""
        index = offset >> PAGE_SHIFT
        start = offset - (index << PAGE_SHIFT)
        page = self.page(index)
        if start + length <= len(page):
            return bytes(page[start : start + length])
        parts = []
        remaining = length
        while remaining:
            take = min(len(page) - start, remaining)
            parts.append(page[start : start + take])
            remaining -= take
            index += 1
            start = 0
            if remaining:
                page = self.page(index)
        return b"".join(bytes(part) for part in parts)

    def write_span(self, offset: int, data: bytes) -> None:
        """Write ``data`` at segment ``offset``, faulting pages as needed."""
        index = offset >> PAGE_SHIFT
        start = offset - (index << PAGE_SHIFT)
        cursor = 0
        remaining = len(data)
        while remaining:
            page = self.writable_page(index)
            take = min(len(page) - start, remaining)
            page[start : start + take] = data[cursor : cursor + take]
            cursor += take
            remaining -= take
            index += 1
            start = 0

    # -- lifecycle ---------------------------------------------------------

    def clone(self) -> "Segment":
        """COW twin: O(pages dirtied here since the last clone).

        Freezes this segment's private pages so both twins share every
        page; the first write on either side faults in a private copy.
        The caller owning the fast lanes (:class:`Memory`) must drop them
        after cloning — freezing orphans any cached private buffer.
        """
        self.freeze()
        twin = Segment.__new__(Segment)
        twin.name = self.name
        twin.base = self.base
        twin.size = self.size
        twin.readable = self.readable
        twin.writable = self.writable
        twin.executable = self.executable
        twin._source = self._source
        twin._private = dict(self._private)
        telemetry.count(
            "memory_pages_shared_total",
            delta=self.page_count,
            help="pages shared (not copied) across segment clones",
        )
        return twin

    def clone_eager(self) -> "Segment":
        """Deep copy (the pre-COW fork): every page duplicated up front."""
        return Segment(
            self.name,
            self.base,
            self.size,
            self.readable,
            self.writable,
            self.executable,
            bytearray(self.tobytes()),
        )

    def __repr__(self) -> str:
        perms = "".join(
            flag if on else "-"
            for flag, on in (
                ("r", self.readable), ("w", self.writable),
                ("x", self.executable),
            )
        )
        return (
            f"Segment({self.name!r}, base={self.base:#x}, "
            f"size={self.size:#x}, {perms})"
        )


class Memory:
    """The full address space of one process."""

    def __init__(self) -> None:
        self._segments: Dict[str, Segment] = {}
        #: Sorted list for address lookup; rebuilt on (rare) mapping changes.
        self._sorted: List[Segment] = []
        #: Most-recently-hit segment (the stack, almost always) — a fast
        #: path that roughly halves simulated-memory lookup cost.
        self._hot: Optional[Segment] = None
        #: Fast lanes: ``(base, end, page)`` of the last *page* hit by a
        #: word/byte read (``_rlane``) or write (``_wlane``).  A lane is
        #: only installed after a full ``_locate`` has proven the segment
        #: readable/writable (and, for ``_wlane``, after the page was
        #: faulted private), so accesses that stay inside the lane skip
        #: the permission and COW checks entirely.  Dropped whenever page
        #: ownership can change: ``map_segment``, ``clone``, ``freeze``,
        #: or a write fault re-materialising the lane's page.
        self._rlane = _EMPTY_LANE
        self._wlane = _EMPTY_LANE

    # -- mapping -----------------------------------------------------------

    def map_segment(self, segment: Segment) -> Segment:
        """Install a segment; overlapping an existing one is an error."""
        for existing in self._segments.values():
            if segment.base < existing.end and existing.base < segment.end:
                raise ValueError(
                    f"segment {segment.name} overlaps {existing.name}"
                )
        self._segments[segment.name] = segment
        self._sorted = sorted(self._segments.values(), key=lambda s: s.base)
        self._rlane = _EMPTY_LANE
        self._wlane = _EMPTY_LANE
        return segment

    def segment(self, name: str) -> Segment:
        """Look a segment up by name."""
        return self._segments[name]

    def has_segment(self, name: str) -> bool:
        """True if a segment with ``name`` is mapped."""
        return name in self._segments

    def segments(self) -> Iterator[Segment]:
        """Iterate over segments in address order."""
        return iter(self._sorted)

    def find(self, address: int) -> Optional[Segment]:
        """Return the segment containing ``address``, or ``None``."""
        for segment in self._sorted:
            if segment.base <= address < segment.end:
                return segment
        return None

    # -- access ------------------------------------------------------------

    def _locate(self, address: int, length: int, access: str, *, write: bool) -> Segment:
        hot = self._hot
        if hot is not None and hot.contains(address, length):
            segment = hot
        else:
            segment = self.find(address)
            if segment is None or not segment.contains(address, length):
                raise SegmentationFault(address, access)
            self._hot = segment
        if write and not segment.writable:
            raise SegmentationFault(address, "write to read-only segment")
        if not write and not segment.readable:
            raise SegmentationFault(address, "read of unreadable segment")
        return segment

    def _read_page(self, segment: Segment, address: int):
        """Resolve ``address`` to its page and install the read lane.

        Returns ``(page, lane_base)``; the lane covers exactly the page.
        """
        offset = address - segment.base
        index = offset >> PAGE_SHIFT
        page = segment.page(index)
        lane_base = segment.base + (index << PAGE_SHIFT)
        self._rlane = (lane_base, lane_base + len(page), page)
        return page, lane_base

    def _write_page(self, segment: Segment, address: int):
        """Fault ``address``'s page private and install the write lane.

        Also repoints (or drops) a read lane that cached the now-stale
        frozen copy of the same page.
        """
        offset = address - segment.base
        index = offset >> PAGE_SHIFT
        page = segment.writable_page(index)
        lane_base = segment.base + (index << PAGE_SHIFT)
        lane = (lane_base, lane_base + len(page), page)
        if self._rlane[0] == lane_base and self._rlane[2] is not page:
            self._rlane = lane
        self._wlane = lane
        return page, lane_base

    def read(self, address: int, length: int) -> bytes:
        """Read ``length`` raw bytes."""
        segment = self._locate(address, length, "read", write=False)
        offset = address - segment.base
        page, lane_base = self._read_page(segment, address)
        start = address - lane_base
        if start + length <= len(page):
            return bytes(page[start : start + length])
        return segment.read_span(offset, length)

    def write(self, address: int, data: bytes) -> None:
        """Write raw bytes; may freely corrupt stack contents."""
        segment = self._locate(address, len(data), "write", write=True)
        page, lane_base = self._write_page(segment, address)
        start = address - lane_base
        if start + len(data) <= len(page):
            page[start : start + len(data)] = data
            return
        # Page-straddling write: span writes fault pages in without the
        # lane fix-up, so any cached lane may now alias a stale frozen
        # page.  Drop both lanes (rare path; the next access re-primes).
        segment.write_span(address - segment.base, data)
        self.drop_lanes()

    def read_word(self, address: int) -> int:
        """Read a 64-bit little-endian word."""
        base, end, data = self._rlane
        if base <= address and address + 8 <= end:
            offset = address - base
            return int.from_bytes(data[offset : offset + 8], "little")
        segment = self._locate(address, WORD_BYTES, "read", write=False)
        page, lane_base = self._read_page(segment, address)
        start = address - lane_base
        if start + 8 <= len(page):
            return int.from_bytes(page[start : start + 8], "little")
        return int.from_bytes(
            segment.read_span(address - segment.base, 8), "little"
        )

    def write_word(self, address: int, value: int) -> None:
        """Write a 64-bit little-endian word."""
        base, end, data = self._wlane
        if base <= address and address + 8 <= end:
            offset = address - base
            data[offset : offset + 8] = (value & WORD_MASK).to_bytes(8, "little")
            return
        segment = self._locate(address, WORD_BYTES, "write", write=True)
        page, lane_base = self._write_page(segment, address)
        start = address - lane_base
        if start + 8 <= len(page):
            page[start : start + 8] = (value & WORD_MASK).to_bytes(8, "little")
            return
        segment.write_span(
            address - segment.base, (value & WORD_MASK).to_bytes(8, "little")
        )
        self.drop_lanes()

    def read_dword(self, address: int) -> int:
        """Read a 32-bit little-endian word (for 32-bit split canaries)."""
        base, end, data = self._rlane
        if base <= address and address + 4 <= end:
            offset = address - base
            return int.from_bytes(data[offset : offset + 4], "little")
        return int.from_bytes(self.read(address, 4), "little")

    def write_dword(self, address: int, value: int) -> None:
        """Write a 32-bit little-endian word."""
        base, end, data = self._wlane
        if base <= address and address + 4 <= end:
            offset = address - base
            data[offset : offset + 4] = (value & 0xFFFF_FFFF).to_bytes(4, "little")
            return
        self.write(address, (value & 0xFFFF_FFFF).to_bytes(4, "little"))

    def read_byte(self, address: int) -> int:
        """Read one byte."""
        base, end, data = self._rlane
        if base <= address < end:
            return data[address - base]
        return self.read(address, 1)[0]

    def write_byte(self, address: int, value: int) -> None:
        """Write one byte."""
        base, end, data = self._wlane
        if base <= address < end:
            data[address - base] = value & 0xFF
            return
        self.write(address, bytes([value & 0xFF]))

    def read_cstring(self, address: int, limit: int = 1 << 16) -> bytes:
        """Read a NUL-terminated string (not including the NUL)."""
        out = bytearray()
        for i in range(limit):
            byte = self.read_byte(address + i)
            if byte == 0:
                return bytes(out)
            out.append(byte)
        return bytes(out)

    # -- lifecycle ----------------------------------------------------------

    def drop_lanes(self) -> None:
        """Forget the cached fast-lane pages (ownership changed)."""
        self._rlane = _EMPTY_LANE
        self._wlane = _EMPTY_LANE

    def freeze(self) -> None:
        """Freeze every segment's private pages for sharing/serialization."""
        for segment in self._sorted:
            segment.freeze()
        self.drop_lanes()

    def clone(self, *, eager: Optional[bool] = None) -> "Memory":
        """Copy of the whole address space (fork semantics).

        COW by default: O(pages written since the last clone), with all
        untouched pages shared between parent and child.  ``eager=True``
        (or ``REPRO_COW_FORK=0`` in the environment) restores the
        historical deep copy — bit-identical behaviour, linear cost —
        for differential tests.
        """
        if eager is None:
            eager = not cow_enabled()
        copy = Memory()
        for segment in self._segments.values():
            copy.map_segment(
                segment.clone_eager() if eager else segment.clone()
            )
        if not eager:
            # Freezing orphaned any private page a lane may still cache.
            self.drop_lanes()
        return copy

    def page_stats(self) -> Dict[str, int]:
        """Aggregate page accounting (diagnostics, bench_fork gate)."""
        total = private = overlays = 0
        for segment in self._sorted:
            total += len(segment._source)
            pages = segment._private
            overlays += len(pages)
            for page in pages.values():
                if type(page) is bytearray:
                    private += 1
        return {
            "pages": total,
            "private_pages": private,
            "overlay_pages": overlays,
            "shared_pages": total - private,
        }


#: Maximum ASLR slide per segment: 256 pages — coarse-grained, like the
#: commodity ASLR the paper's §VII-B calls "easily broken" (deliberately),
#: and small enough that no slide can push one segment into its
#: neighbour's 2 MB guard gap.
ASLR_SLIDE_PAGES = 1 << 8


def standard_memory(
    *,
    stack_size: int = 0x40000,
    heap_size: int = 0x40000,
    data_size: int = 0x20000,
    tls_size: int = 0x1000,
    aslr=None,
) -> Memory:
    """Build a memory with the conventional segment layout.

    The code segment is not included: the loader maps it from the binary
    image (read+execute, not writable).

    ``aslr`` may be an :class:`~repro.crypto.random.EntropySource`; each
    segment base then slides by an independent page-aligned offset, the
    coarse-grained address-space randomization of §VII-B.  Consumers must
    locate segments by name, never by the layout constants.
    """

    def slide() -> int:
        if aslr is None:
            return 0
        return aslr.randrange(ASLR_SLIDE_PAGES) * PAGE

    memory = Memory()
    memory.map_segment(Segment("data", DATA_BASE + slide(), data_size))
    memory.map_segment(Segment("heap", HEAP_BASE + slide(), heap_size))
    memory.map_segment(Segment("tls", TLS_BASE + slide(), tls_size))
    memory.map_segment(
        Segment("stack", STACK_TOP - slide() - stack_size, stack_size)
    )
    return memory
