"""Spawn-image cache: content addressing, disk tier, warm ≡ cold."""

import importlib

import pytest

from repro.core.deploy import build, deploy, get_scheme
from repro.kernel.kernel import Kernel
from repro.machine.debug import architectural_snapshot, snapshot_divergences
from repro.parallel.snapcache import (
    SnapshotCache,
    directory_stats,
    image_cache,
    reset_image_cache,
)

SOURCE = """
int work(int n) {
    char buf[32];
    buf[0] = n;
    return buf[0] + 1;
}
int main() { return work(4); }
"""

OTHER = """
int main() { return 9; }
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_image_cache()
    yield
    reset_image_cache()


def spec():
    return get_scheme("pssp")


class TestContentAddress:
    def test_hit_on_identical_deployment(self):
        cache = SnapshotCache()
        binary = build(SOURCE, "pssp")
        first = cache.image_for(binary, spec())
        second = cache.image_for(binary, spec())
        assert first is second
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (1, 1)

    def test_different_binary_different_entry(self):
        cache = SnapshotCache()
        cache.image_for(build(SOURCE, "pssp"), spec())
        cache.image_for(build(OTHER, "pssp"), spec())
        assert cache.stats()["misses"] == 2

    def test_stack_size_is_part_of_the_key(self):
        cache = SnapshotCache()
        binary = build(SOURCE, "pssp")
        a = cache.image_for(binary, spec(), stack_size=0x40000)
        b = cache.image_for(binary, spec(), stack_size=0x80000)
        assert a is not b
        assert cache.stats()["misses"] == 2

    def test_scheme_toolchain_is_part_of_the_key(self):
        cache = SnapshotCache()
        binary = build(SOURCE, "pssp")
        cache.image_for(binary, get_scheme("pssp"))
        cache.image_for(binary, get_scheme("dcr"))
        assert cache.stats()["misses"] == 2

    def test_lru_bound_evicts(self):
        cache = SnapshotCache(max_entries=1)
        cache.image_for(build(SOURCE, "pssp"), spec())
        cache.image_for(build(OTHER, "pssp"), spec())
        assert len(cache) == 1
        assert cache.stats()["evictions"] == 1

    def test_cleared_cache_builds_fresh(self):
        cache = SnapshotCache()
        binary = build(SOURCE, "pssp")
        a = cache.image_for(binary, spec())
        cache.clear()
        b = cache.image_for(binary, spec())
        cache.clear()
        assert a is not b
        assert len(cache) == 0


class TestDiskTier:
    def test_miss_persists_then_second_cache_hits_disk(self, tmp_path):
        binary = build(SOURCE, "pssp")
        writer = SnapshotCache(directory=str(tmp_path))
        writer.image_for(binary, spec())
        assert writer.stats()["disk_stores"] == 1
        manifest = directory_stats(str(tmp_path))
        assert manifest["images"] == 1
        assert manifest["bytes"] > 0

        reader = SnapshotCache(directory=str(tmp_path))
        image = reader.image_for(binary, spec())
        stats = reader.stats()
        assert stats["disk_hits"] == 1
        assert stats["misses"] == 0
        # The disk-served image boots a working process.
        from repro.libc.builtins import build_natives

        kernel = Kernel(3)
        runtime = spec().make_runtime()
        process = kernel.spawn(binary, natives=build_natives(), image=image)
        runtime.install(process)
        assert process.run().state == "exited"

    def test_corrupt_disk_entry_is_a_miss(self, tmp_path):
        binary = build(SOURCE, "pssp")
        writer = SnapshotCache(directory=str(tmp_path))
        writer.image_for(binary, spec())
        for entry in tmp_path.iterdir():
            entry.write_bytes(b"garbage")
        reader = SnapshotCache(directory=str(tmp_path))
        reader.image_for(binary, spec())
        stats = reader.stats()
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 1

    def test_env_knob_enables_disk_tier(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        cache = SnapshotCache()
        assert cache.directory == str(tmp_path)


class TestWarmColdEquivalence:
    @pytest.mark.parametrize("scheme", ["pssp", "pssp-owf", "dynaguard"])
    def test_deploy_is_bit_identical_with_and_without_cache(
        self, scheme, monkeypatch
    ):
        binary = build(SOURCE, scheme)

        def boot():
            kernel = Kernel(77)
            process, _ = deploy(kernel, binary, scheme)
            process.run()
            return process

        warm = boot()  # miss: builds the image
        warm2 = boot()  # hit: boots from the cached image
        assert image_cache().stats()["hits"] >= 1
        # Every deploy now meets a cleared cache: a full cold boot.
        monkeypatch.setattr(
            importlib.import_module("repro.core.deploy"),
            "image_cache", reset_image_cache,
        )
        cold = boot()
        for a, b in ((warm, warm2), (warm, cold)):
            assert snapshot_divergences(
                architectural_snapshot(a), architectural_snapshot(b)
            ) == []

    def test_aslr_deploys_bypass_the_cache(self):
        binary = build(SOURCE, "pssp")
        kernel = Kernel(12)
        deploy(kernel, binary, "pssp", aslr=True)
        stats = image_cache().stats()
        assert stats["hits"] + stats["misses"] == 0


class TestDiskTierNegativePaths:
    """Damaged `.simg` entries must miss cleanly, never crash a boot.

    The failure contract: reading a truncated, corrupted, or
    version-stale image raises a *typed* ``SnapshotError``, the cache
    swallows exactly that (plus ``OSError``), counts a miss on
    ``snapshot_cache_misses_total``, and rebuilds the image fresh.
    """

    def _seeded_entry(self, tmp_path):
        binary = build(SOURCE, "pssp")
        writer = SnapshotCache(directory=str(tmp_path))
        writer.image_for(binary, spec())
        (entry,) = list(tmp_path.iterdir())
        return binary, entry

    def _assert_clean_miss(self, tmp_path, binary):
        from repro import telemetry

        before = telemetry.snapshot()
        reader = SnapshotCache(directory=str(tmp_path))
        image = reader.image_for(binary, spec())
        stats = reader.stats()
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 1
        delta = telemetry.delta(before)
        assert delta.get("snapshot_cache_misses_total") == 1
        # The rebuilt image still boots a working process.
        from repro.libc.builtins import build_natives

        process = Kernel(5).spawn(
            binary, natives=build_natives(), image=image
        )
        spec().make_runtime().install(process)
        assert process.run().state == "exited"

    def test_truncated_image_misses_cleanly(self, tmp_path):
        binary, entry = self._seeded_entry(tmp_path)
        blob = entry.read_bytes()
        entry.write_bytes(blob[: len(blob) // 2])
        self._assert_clean_miss(tmp_path, binary)

    def test_zero_byte_image_misses_cleanly(self, tmp_path):
        binary, entry = self._seeded_entry(tmp_path)
        entry.write_bytes(b"")
        self._assert_clean_miss(tmp_path, binary)

    def test_stale_version_header_misses_cleanly(self, tmp_path):
        from repro.errors import SnapshotError
        from repro.machine.snapshot import load_spawn_image

        binary, entry = self._seeded_entry(tmp_path)
        blob = entry.read_bytes()
        assert blob.startswith(b"PSSPSNAP 1 ")
        stale = blob.replace(b"PSSPSNAP 1 ", b"PSSPSNAP 999 ", 1)
        entry.write_bytes(stale)
        # The failure is typed — exactly what the cache swallows.
        with pytest.raises(SnapshotError):
            load_spawn_image(stale)
        self._assert_clean_miss(tmp_path, binary)

    def test_another_deployments_image_under_this_key_is_a_miss(
        self, tmp_path, monkeypatch
    ):
        from repro import telemetry

        deploy_module = importlib.import_module("repro.core.deploy")
        binary, entry = self._seeded_entry(tmp_path)
        other = SnapshotCache(directory=str(tmp_path / "other"))
        other.image_for(build(OTHER, "pssp"), spec())
        (other_entry,) = list((tmp_path / "other").iterdir())
        entry.write_bytes(other_entry.read_bytes())

        def boot():
            process, _ = deploy(Kernel(21), binary, "pssp")
            process.run()
            return process

        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        cache = reset_image_cache()
        before = telemetry.snapshot()
        warm = boot()
        stats = cache.stats()
        assert stats["disk_hits"] == 0
        assert stats["misses"] == 1
        assert telemetry.delta(before).get("snapshot_cache_misses_total") == 1
        monkeypatch.delenv("REPRO_SNAPSHOT_DIR")
        monkeypatch.setattr(deploy_module, "image_cache", reset_image_cache)
        cold = boot()
        assert snapshot_divergences(
            architectural_snapshot(warm), architectural_snapshot(cold)
        ) == []
        # The rebuilt image replaced the foreign file: the next reader hits.
        reader = SnapshotCache(directory=str(tmp_path))
        reader.image_for(binary, spec())
        assert reader.stats()["disk_hits"] == 1

    def test_corrupt_image_error_is_typed(self, tmp_path):
        from repro.errors import SnapshotError
        from repro.machine.snapshot import load_spawn_image

        _, entry = self._seeded_entry(tmp_path)
        for blob in (b"garbage", entry.read_bytes()[:40]):
            with pytest.raises(SnapshotError):
                load_spawn_image(blob)


class TestDirectoryStats:
    def test_missing_directory_is_empty(self, tmp_path):
        manifest = directory_stats(str(tmp_path / "nope"))
        assert manifest["images"] == 0
        assert manifest["bytes"] == 0
