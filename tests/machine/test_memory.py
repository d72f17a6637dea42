"""Segmented memory behaviour."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import SegmentationFault
from repro.machine.memory import (
    DATA_BASE,
    HEAP_BASE,
    PAGE,
    WORD_MASK,
    Memory,
    Segment,
    standard_memory,
)


@pytest.fixture
def memory():
    return standard_memory()


class TestMapping:
    def test_standard_segments_present(self, memory):
        for name in ("data", "heap", "tls", "stack"):
            assert memory.segment(name).name == name

    def test_overlap_rejected(self, memory):
        with pytest.raises(ValueError):
            memory.map_segment(Segment("clash", DATA_BASE + 8, 64))

    def test_find_by_address(self, memory):
        assert memory.find(HEAP_BASE).name == "heap"
        assert memory.find(0x1234) is None

    def test_segment_data_size_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Segment("bad", 0, 16, data=bytearray(8))


class TestAccess:
    def test_word_roundtrip(self, memory):
        memory.write_word(HEAP_BASE, 0x1122334455667788)
        assert memory.read_word(HEAP_BASE) == 0x1122334455667788

    def test_little_endian(self, memory):
        memory.write_word(HEAP_BASE, 0x01)
        assert memory.read(HEAP_BASE, 8) == b"\x01" + b"\x00" * 7

    def test_byte_roundtrip(self, memory):
        memory.write_byte(HEAP_BASE + 3, 0x7F)
        assert memory.read_byte(HEAP_BASE + 3) == 0x7F

    def test_unmapped_read_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.read(0xDEAD0000, 1)

    def test_unmapped_write_faults(self, memory):
        with pytest.raises(SegmentationFault):
            memory.write(0xDEAD0000, b"x")

    def test_straddling_segment_end_faults(self, memory):
        heap = memory.segment("heap")
        with pytest.raises(SegmentationFault):
            memory.read(heap.end - 4, 8)

    def test_write_to_readonly_faults(self):
        memory = Memory()
        memory.map_segment(Segment("code", 0x1000, 64, writable=False))
        with pytest.raises(SegmentationFault):
            memory.write(0x1000, b"x")
        assert memory.read(0x1000, 1) == b"\x00"

    def test_cstring(self, memory):
        memory.write(HEAP_BASE, b"hello\x00world")
        assert memory.read_cstring(HEAP_BASE) == b"hello"

    def test_cstring_unterminated_respects_limit(self, memory):
        memory.write(HEAP_BASE, b"x" * 32)
        assert memory.read_cstring(HEAP_BASE, limit=16) == b"x" * 16


class TestOverflowSemantics:
    def test_overflow_within_segment_succeeds(self, memory):
        """The core premise: an in-segment overrun is NOT a fault —
        detecting it is the canary's job, not the MMU's."""
        stack = memory.segment("stack")
        base = stack.base + 0x100
        memory.write(base, b"A" * 256)  # sails past any 'buffer' freely
        assert memory.read(base + 200, 1) == b"A"


class TestClone:
    def test_clone_copies_contents(self, memory):
        memory.write_word(HEAP_BASE, 42)
        clone = memory.clone()
        assert clone.read_word(HEAP_BASE) == 42

    def test_clone_is_independent(self, memory):
        clone = memory.clone()
        clone.write_word(HEAP_BASE, 99)
        assert memory.read_word(HEAP_BASE) == 0

    def test_clone_preserves_layout(self, memory):
        clone = memory.clone()
        for segment in memory.segments():
            twin = clone.segment(segment.name)
            assert (twin.base, twin.size) == (segment.base, segment.size)


@settings(max_examples=50, deadline=None)
@given(
    offset=st.integers(min_value=0, max_value=0x1000 - 8),
    value=st.integers(min_value=0, max_value=2**64 - 1),
)
def test_word_roundtrip_property(offset, value):
    memory = standard_memory()
    memory.write_word(HEAP_BASE + offset, value)
    assert memory.read_word(HEAP_BASE + offset) == value


# -- the word codec against a plain bytearray model ------------------------

#: Three full pages and a 24-byte tail page, so words straddle both full
#: and short page boundaries.
RAM_BASE = 0x10000
RAM_SIZE = 3 * PAGE + 24

#: Every word offset within 16 bytes of a page boundary; the last edge's
#: run also covers every word of the tail page.
BOUNDARY_OFFSETS = [
    edge + delta
    for edge in (PAGE, 2 * PAGE, 3 * PAGE)
    for delta in range(-16, 17)
    if edge + delta <= RAM_SIZE - 8
]


def ram() -> Memory:
    memory = Memory()
    memory.map_segment(Segment("ram", RAM_BASE, RAM_SIZE))
    return memory


def model_write(model: bytearray, offset: int, value: int) -> None:
    model[offset : offset + 8] = (value & WORD_MASK).to_bytes(8, "little")


def model_read(model: bytearray, offset: int) -> int:
    return int.from_bytes(model[offset : offset + 8], "little")


class TestWordCodec:
    @pytest.mark.parametrize("offset", BOUNDARY_OFFSETS)
    def test_every_offset_near_a_page_boundary(self, offset):
        memory, model = ram(), bytearray(RAM_SIZE)
        # Prime a read lane on the (still shared zero) page that holds
        # the word's last byte: the store must not leave it stale.
        last_page = (offset + 7) // PAGE * PAGE
        assert memory.read_word(RAM_BASE + last_page) == 0
        value = 0x8877665544332211 ^ offset
        memory.write_word(RAM_BASE + offset, value)
        model_write(model, offset, value)
        assert memory.read_word(RAM_BASE + last_page) == model_read(model, last_page)
        assert memory.read_word(RAM_BASE + offset) == value
        assert memory.read(RAM_BASE, RAM_SIZE) == bytes(model)
        # The same word again, through a freshly primed read lane.
        memory.drop_lanes()
        assert memory.read_word(RAM_BASE + offset) == value

    @pytest.mark.parametrize("value", [-1, -(1 << 63), 1 << 63, 1 << 64,
                                       (1 << 64) + 5, -(1 << 70) + 3])
    def test_out_of_range_values_are_masked(self, value):
        memory = ram()
        memory.write_word(RAM_BASE, 0)  # primes the write lane on page 0
        # A lane hit, a located in-page store, and a straddling store.
        for offset in (8, PAGE + 8, 2 * PAGE - 3):
            memory.write_word(RAM_BASE + offset, value)
            assert memory.read_word(RAM_BASE + offset) == value & WORD_MASK

    def test_word_lanes_read_a_frozen_page(self):
        memory = ram()
        memory.write_word(RAM_BASE + 16, 0xFEEDFACECAFEBEEF)
        child = memory.clone()
        page = child.segment("ram").page(0)
        assert type(page) is bytes
        assert child.read_word(RAM_BASE + 16) == 0xFEEDFACECAFEBEEF
        assert child._rlane[2] is page


WORD_OFFSETS = st.one_of(
    st.sampled_from(BOUNDARY_OFFSETS),
    st.integers(min_value=0, max_value=RAM_SIZE - 8),
)
WORD_VALUES = st.one_of(
    st.integers(min_value=0, max_value=WORD_MASK),
    st.integers(min_value=-(1 << 64), max_value=-1),
    st.integers(min_value=1 << 63, max_value=(1 << 66)),
)
OPS = st.lists(
    st.one_of(
        st.tuples(st.just("write"), st.booleans(), WORD_OFFSETS, WORD_VALUES),
        st.tuples(st.just("read"), st.booleans(), WORD_OFFSETS),
        st.tuples(st.just("clone")),
    ),
    max_size=40,
)


@settings(max_examples=150, deadline=None)
@given(ops=OPS)
def test_word_codec_matches_a_bytearray_model(ops):
    """Word loads and stores, near page edges and across clones, read
    exactly what a flat bytearray per process reads; a store on either
    side of a fork never shows through on the other."""
    sides = [(ram(), bytearray(RAM_SIZE))]
    for op in ops:
        if op[0] == "clone":
            memory, model = sides[0]
            sides[1:] = [(memory.clone(), bytearray(model))]
            continue
        on_child = op[1] and len(sides) == 2
        memory, model = sides[1 if on_child else 0]
        offset = op[2]
        if op[0] == "write":
            memory.write_word(RAM_BASE + offset, op[3])
            model_write(model, offset, op[3])
        else:
            assert memory.read_word(RAM_BASE + offset) == model_read(model, offset)
    for memory, model in sides:
        for offset in BOUNDARY_OFFSETS:
            assert memory.read_word(RAM_BASE + offset) == model_read(model, offset)
        assert memory.read(RAM_BASE, RAM_SIZE) == bytes(model)
