"""Architectural snapshots: the digest and the divergence report."""

import copy

from repro.core.deploy import build, deploy
from repro.kernel.kernel import Kernel
from repro.machine.debug import (
    architectural_snapshot,
    snapshot_digest,
    snapshot_divergences,
)

PROGRAM = """
int inner(int x) {
    char pad[16];
    pad[0] = x;
    return pad[0] + 1;
}
int main() { return inner(%d); }
"""


def finished(argument=5, scheme="pssp", seed=71):
    kernel = Kernel(seed)
    binary = build(PROGRAM % argument, scheme, name="t")
    process, _ = deploy(kernel, binary, scheme)
    process.run()
    return process


class TestSnapshotDigest:
    def test_identical_runs_share_a_digest(self):
        assert snapshot_digest(finished()) == snapshot_digest(finished())

    def test_digest_follows_the_exit_status(self):
        first, second = finished(5), finished(6)
        assert first.exit_status != second.exit_status
        assert snapshot_digest(first) != snapshot_digest(second)


class TestSnapshotDivergences:
    def test_equal_snapshots_have_none(self):
        snap = architectural_snapshot(finished())
        assert snapshot_divergences(snap, copy.deepcopy(snap)) == []

    def test_memory_divergence_names_the_segment(self):
        fast = architectural_snapshot(finished())
        slow = copy.deepcopy(fast)
        name = sorted(slow["memory"])[0]
        image = bytearray(slow["memory"][name])
        image[0] ^= 0xFF
        slow["memory"][name] = bytes(image)
        assert snapshot_divergences(fast, slow) == [f"memory[{name}]"]

    def test_scalar_divergence_shows_both_values(self):
        fast = architectural_snapshot(finished())
        slow = dict(fast, cycles=fast["cycles"] + 1)
        assert snapshot_divergences(fast, slow) == [
            f"cycles: fast={fast['cycles']!r} slow={slow['cycles']!r}"
        ]
