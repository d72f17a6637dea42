"""Copy-on-write paging: sharing, isolation, lanes, and accounting."""

import pytest

from repro import telemetry
from repro.core.deploy import build, deploy
from repro.kernel.kernel import Kernel
from repro.machine.memory import (
    HEAP_BASE,
    PAGE,
    Memory,
    Segment,
    standard_memory,
)

#: The handler a forking server re-runs in every child.
FORK_HANDLER = """
int handler(int n) {
    char buf[64];
    int i;
    for (i = 0; i < 64; i = i + 1) {
        buf[i - (i / 64) * 64] = i + n;
    }
    return buf[0] + buf[63];
}
int main() { return handler(7); }
"""


@pytest.fixture
def memory():
    return standard_memory()


class TestIsolation:
    def test_child_write_invisible_to_parent(self, memory):
        memory.write_word(HEAP_BASE, 11)
        child = memory.clone()
        child.write_word(HEAP_BASE, 22)
        assert memory.read_word(HEAP_BASE) == 11
        assert child.read_word(HEAP_BASE) == 22

    def test_parent_write_invisible_to_child(self, memory):
        memory.write_word(HEAP_BASE, 11)
        child = memory.clone()
        memory.write_word(HEAP_BASE, 33)
        assert child.read_word(HEAP_BASE) == 11
        assert memory.read_word(HEAP_BASE) == 33

    def test_both_sides_diverge_from_one_shared_page(self, memory):
        memory.write(HEAP_BASE, b"base")
        child = memory.clone()
        grandchild = child.clone()
        memory.write(HEAP_BASE, b"prnt")
        child.write(HEAP_BASE, b"chld")
        assert memory.read(HEAP_BASE, 4) == b"prnt"
        assert child.read(HEAP_BASE, 4) == b"chld"
        assert grandchild.read(HEAP_BASE, 4) == b"base"

    def test_write_through_cached_lane_after_clone_is_private(self, memory):
        # Prime the write lane, clone, then write through the same lane
        # address range: the clone must not observe the write.
        memory.write_word(HEAP_BASE, 1)
        child = memory.clone()
        memory.write_word(HEAP_BASE + 8, 2)
        assert child.read_word(HEAP_BASE + 8) == 0

    def test_read_lane_repointed_after_write_fault(self, memory):
        child = memory.clone()
        # Read primes the rlane onto the shared frozen page...
        assert memory.read_word(HEAP_BASE) == 0
        # ...the write faults a private copy; the next read must see it.
        memory.write_word(HEAP_BASE, 77)
        assert memory.read_word(HEAP_BASE) == 77
        assert child.read_word(HEAP_BASE) == 0

    def test_page_straddling_write_isolated(self, memory):
        boundary = HEAP_BASE + PAGE - 4
        memory.write(boundary, b"\x01" * 8)
        child = memory.clone()
        child.write(boundary, b"\x02" * 8)
        assert memory.read(boundary, 8) == b"\x01" * 8
        assert child.read(boundary, 8) == b"\x02" * 8

    def test_straddling_write_then_lane_read_sees_fresh_bytes(self, memory):
        # A straddling write bypasses the lanes; a subsequent fast-path
        # read must not serve a stale cached page.
        assert memory.read_word(HEAP_BASE + PAGE) == 0  # prime rlane
        memory.write(HEAP_BASE + PAGE - 4, b"\xAB" * 8)
        assert memory.read(HEAP_BASE + PAGE, 4) == b"\xAB" * 4


class TestSharing:
    def test_untouched_pages_are_shared_not_copied(self, memory):
        child = memory.clone()
        stats = child.page_stats()
        assert stats["private_pages"] == 0
        assert stats["shared_pages"] == stats["pages"]

    def test_readonly_segment_shares_outright(self):
        memory = Memory()
        blob = bytearray(b"\x90" * (2 * PAGE))
        memory.map_segment(
            Segment("code", 0x1000, 2 * PAGE, writable=False, data=blob)
        )
        child = memory.clone()
        original = memory.segment("code")
        twin = child.segment("code")
        assert original.immutable and twin.immutable
        # Same frozen page tuple: zero pages were duplicated.
        assert twin._source is original._source
        assert twin.private_pages == 0

    def test_zero_pages_deduplicate(self):
        memory = Memory()
        memory.map_segment(Segment("big", 0x10000, 64 * PAGE))
        pages = memory.segment("big")._source
        assert len({id(page) for page in pages}) == 1

    def test_clone_cost_is_dirty_pages_not_size(self, memory):
        memory.clone()  # freezes everything
        memory.write_word(HEAP_BASE, 5)  # dirties exactly one page
        child = memory.clone()
        # The child overlay holds only the one re-frozen page.
        assert child.page_stats()["overlay_pages"] == 1

    def test_eager_clone_fully_materialises(self, memory):
        memory.write_word(HEAP_BASE, 9)
        child = memory.clone(eager=True)
        child.write_word(HEAP_BASE, 10)
        assert memory.read_word(HEAP_BASE) == 9
        heap = child.segment("heap")
        assert heap._source is not memory.segment("heap")._source


class TestEquivalence:
    def test_cow_and_eager_clones_read_identically(self, memory):
        for offset in (0, 7, PAGE - 1, PAGE, 3 * PAGE + 5):
            memory.write_byte(HEAP_BASE + offset, 0x5A)
        cow = memory.clone(eager=False)
        eager = memory.clone(eager=True)
        for segment in memory.segments():
            assert (
                cow.segment(segment.name).tobytes()
                == eager.segment(segment.name).tobytes()
                == segment.tobytes()
            )


class TestAccounting:
    def test_page_stats_track_write_faults(self, memory):
        child = memory.clone()
        before = child.page_stats()["private_pages"]
        child.write_word(HEAP_BASE, 1)
        child.write_word(HEAP_BASE + 8, 2)  # same page: one fault
        child.write_word(HEAP_BASE + PAGE, 3)  # second page
        after = child.page_stats()["private_pages"]
        assert after - before == 2

    def test_freeze_makes_all_pages_shareable(self, memory):
        memory.write_word(HEAP_BASE, 1)
        memory.freeze()
        assert memory.page_stats()["private_pages"] == 0
        # Contents survive the freeze.
        assert memory.read_word(HEAP_BASE) == 1

    def test_frozen_counter_counts_pages(self, memory):
        for index in range(3):
            memory.write_word(HEAP_BASE + index * PAGE, index + 1)
        before = telemetry.snapshot()
        memory.clone()
        assert telemetry.delta(before)["memory_pages_frozen_total"] == 3


class TestForkScaling:
    """A fork copies the pages the pssp fork hook writes, whatever the
    size of the address space: fork cost is sublinear in guest memory."""

    @pytest.mark.parametrize(
        "stack_size, pages",
        [(0x10000, 113), (0x40000, 161), (0x100000, 353), (0x400000, 1121)],
    )
    def test_a_fork_copies_one_page_at_any_stack_size(self, stack_size, pages):
        telemetry.enable()
        kernel = Kernel(9001)
        binary = build(FORK_HANDLER, "pssp", name="forkbench")
        parent, _ = deploy(kernel, binary, "pssp", stack_size=stack_size)
        parent.run()
        assert parent.memory.page_stats()["pages"] == pages
        # The first fork freezes the parent's dirty pages; every later
        # fork copies the same set.
        for _ in range(3):
            before = telemetry.snapshot()
            child = kernel.fork(parent)
            delta = telemetry.delta(before)
            # Pages not shared with the parent, plus pages written since.
            copied = (
                pages - delta.get("memory_pages_shared_total", 0)
                + delta.get("memory_page_faults_total", 0)
            )
            assert copied == 1
            assert child.memory.page_stats()["private_pages"] == 1
