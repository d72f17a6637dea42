"""Machine images: determinism, bit-identical restore, typed failures."""

import pytest

from repro.core.deploy import build, deploy, get_scheme
from repro.errors import SnapshotError
from repro.kernel.kernel import Kernel
from repro.machine.debug import architectural_snapshot, snapshot_divergences
from repro.machine.snapshot import (
    SNAPSHOT_VERSION,
    dump_spawn_image,
    load_spawn_image,
    prepare_spawn_image,
    restore_process,
    snapshot_process,
)

WORKLOAD = """
int handler(int n) {
    char buf[32];
    read(0, buf, 16);
    puts(buf);
    return n + 1;
}
int main() { return handler(1); }
"""

FORKER = """
int main() {
    int pid;
    pid = fork();
    if (pid == 0) {
        return 7;
    }
    return 0;
}
"""


def roundtrip_divergences(process):
    """Snapshot → restore → compare; the divergence names (ideally [])."""
    restored = restore_process(snapshot_process(process))
    return snapshot_divergences(
        architectural_snapshot(process), architectural_snapshot(restored)
    )


def deployed(source=WORKLOAD, scheme="pssp", seed=404, run=True):
    binary = build(source, scheme, name="snap")
    kernel = Kernel(seed)
    process, _ = deploy(kernel, binary, scheme)
    if run:
        process.feed_stdin(b"snapshot-under-test\n")
        process.run()
    return process


class TestRoundtrip:
    def test_restore_is_bit_identical(self):
        process = deployed()
        assert roundtrip_divergences(process) == []

    def test_roundtrip_before_any_run(self):
        process = deployed(run=False)
        assert roundtrip_divergences(process) == []

    @pytest.mark.parametrize(
        "scheme", ["none", "ssp", "pssp", "pssp-owf", "dynaguard", "dcr"]
    )
    def test_roundtrip_across_schemes(self, scheme):
        process = deployed(scheme=scheme)
        assert roundtrip_divergences(process) == []

    def test_restored_process_runs_identically(self):
        process = deployed()
        restored = restore_process(process.snapshot())
        r1 = process.call("handler", (5,))
        r2 = restored.call("handler", (5,))
        assert (r1.state, r1.exit_status) == (r2.state, r2.exit_status)
        assert snapshot_divergences(
            architectural_snapshot(process), architectural_snapshot(restored)
        ) == []

    def test_resnapshot_is_byte_identical(self):
        process = deployed()
        image = process.snapshot()
        assert restore_process(image).snapshot() == image


class TestForkBoundary:
    def test_fork_after_restore_replays_rerandomization(self):
        process = deployed()
        restored = restore_process(process.snapshot())
        child = process.kernel.fork(process)
        restored_child = restored.kernel.fork(restored)
        # Same entropy stream, same TSC epoch, same shadow refresh: the
        # re-randomization boundary is bit-exact across restore.
        assert snapshot_divergences(
            architectural_snapshot(child),
            architectural_snapshot(restored_child),
        ) == []
        assert child.tls.canary == restored_child.tls.canary
        assert child.tls.shadow_c0 == restored_child.tls.shadow_c0

    def test_simulated_fork_program_replays(self):
        process = deployed(FORKER, run=False)
        restored = restore_process(process.snapshot())
        r1, r2 = process.run(), restored.run()
        assert (r1.state, r1.exit_status) == (r2.state, r2.exit_status)
        assert snapshot_divergences(
            architectural_snapshot(process), architectural_snapshot(restored)
        ) == []


class TestDeterminism:
    def test_snapshot_twice_same_bytes(self):
        process = deployed()
        assert process.snapshot() == process.snapshot()

    def test_identical_histories_identical_images(self):
        a, b = deployed(seed=7), deployed(seed=7)
        assert a.snapshot() == b.snapshot()

    def test_different_seeds_different_images(self):
        a, b = deployed(seed=7), deployed(seed=8)
        assert a.snapshot() != b.snapshot()


class TestRestoreIntoLiveKernel:
    def test_kernel_restore_adopts_the_image_timeline(self):
        process = deployed()
        kernel = Kernel(99)
        restored = kernel.restore(process.snapshot())
        assert restored.pid == process.pid
        assert restored.pid in kernel.processes
        # Adopted bookkeeping: forks off the restored process replay the
        # original timeline bit-for-bit.
        assert kernel.fork(restored).tls.canary == (
            process.kernel.fork(process).tls.canary
        )

    def test_graft_restore_allocates_a_fresh_pid(self):
        process = deployed()
        kernel = Kernel(99)
        # Spawn something first so the original pid is taken.
        other = deploy(kernel, build(WORKLOAD, "pssp", name="snap"), "pssp")[0]
        assert other.pid == process.pid
        restored = restore_process(
            process.snapshot(), kernel=kernel, adopt_kernel_state=False
        )
        assert restored.pid != other.pid
        assert kernel.processes[restored.pid] is restored

    def test_adopting_restore_keeps_the_original_pid(self):
        process = deployed()
        restored = restore_process(process.snapshot())
        assert restored.pid == process.pid


class TestTypedFailures:
    def test_running_process_refuses(self):
        process = deployed(run=False)
        process.state = "running"
        with pytest.raises(SnapshotError):
            snapshot_process(process)

    def test_threaded_process_refuses(self):
        process = deployed()
        process.threads.append(object())
        with pytest.raises(SnapshotError):
            snapshot_process(process)

    def test_bad_magic_rejected(self):
        with pytest.raises(SnapshotError):
            restore_process(b"NOTSNAP 1 process\n2\n{}\n")

    def test_version_skew_rejected(self):
        process = deployed()
        image = process.snapshot()
        skewed = image.replace(
            b"PSSPSNAP %d" % SNAPSHOT_VERSION, b"PSSPSNAP 9999", 1
        )
        with pytest.raises(SnapshotError):
            restore_process(skewed)

    def test_truncated_image_rejected(self):
        process = deployed()
        image = process.snapshot()
        with pytest.raises(SnapshotError):
            restore_process(image[: len(image) // 2])

    def test_corrupt_page_rejected(self):
        process = deployed()
        image = process.snapshot()
        # Flip a byte in the page blob (the tail), leaving the header
        # intact: content addressing must catch it.
        corrupt = image[:-1] + bytes([image[-1] ^ 0xFF])
        with pytest.raises(SnapshotError):
            restore_process(corrupt)

    def test_wrong_kind_rejected(self):
        process = deployed()
        with pytest.raises(SnapshotError):
            load_spawn_image(process.snapshot())


class TestSpawnImage:
    def test_warm_spawn_equals_cold_spawn(self):
        binary = build(WORKLOAD, "pssp", name="snap")
        spec = get_scheme("pssp")

        def boot(image=None, seed=31):
            kernel = Kernel(seed)
            runtime = spec.make_runtime()
            from repro.libc.builtins import build_natives

            process = kernel.spawn(
                binary,
                preloads=runtime.preload_binaries(),
                natives=build_natives(),
                dbi_multiplier=spec.dbi_multiplier,
                image=image,
            )
            runtime.install(process)
            return process

        cold = boot()
        image = prepare_spawn_image(
            binary,
            preloads=get_scheme("pssp").make_runtime().preload_binaries(),
        )
        warm = boot(image)
        assert snapshot_divergences(
            architectural_snapshot(cold), architectural_snapshot(warm)
        ) == []
        cold.feed_stdin(b"abc\n")
        warm.feed_stdin(b"abc\n")
        cold.run()
        warm.run()
        assert snapshot_divergences(
            architectural_snapshot(cold), architectural_snapshot(warm)
        ) == []

    def test_spawn_image_serialization_roundtrip(self):
        binary = build(WORKLOAD, "pssp", name="snap")
        image = prepare_spawn_image(binary)
        blob = dump_spawn_image(image)
        assert blob == dump_spawn_image(image)
        loaded = load_spawn_image(blob)
        assert dump_spawn_image(loaded) == blob

    def test_one_image_serves_many_seeds(self):
        binary = build(WORKLOAD, "pssp", name="snap")
        image = prepare_spawn_image(binary)
        canaries = set()
        for seed in (1, 2, 3):
            kernel = Kernel(seed)
            process = kernel.spawn(binary, image=image)
            canaries.add(process.tls.canary)
        assert len(canaries) == 3

    def test_instantiations_are_isolated(self):
        binary = build(WORKLOAD, "pssp", name="snap")
        image = prepare_spawn_image(binary)
        kernel = Kernel(5)
        a = kernel.spawn(binary, image=image)
        b = kernel.spawn(binary, image=image)
        a.memory.write_word(a.memory.segment("heap").base, 123)
        assert b.memory.read_word(b.memory.segment("heap").base) == 0
