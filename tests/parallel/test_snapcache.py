"""Spawn-image cache: exact matching, disk tier, warm ≡ cold."""

import importlib
import json

import pytest

from repro.binfmt import serialize
from repro.core.deploy import build, deploy, get_scheme
from repro.faults.campaign import run_campaign
from repro.kernel.kernel import Kernel
from repro.machine.debug import architectural_snapshot, snapshot_divergences
from repro.machine.snapshot import dump_spawn_image, prepare_spawn_image
from repro.parallel.snapcache import (
    IMAGE_SUFFIX,
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


def boot(binary, scheme="pssp"):
    """Deploy through the process-wide cache; the run's full snapshot."""
    process, _ = deploy(Kernel(77), binary, scheme)
    process.run()
    return architectural_snapshot(process)


def cold_boot(binary, scheme="pssp"):
    """The same boot with every deploy meeting an empty, diskless cache."""
    deploy_module = importlib.import_module("repro.core.deploy")
    with pytest.MonkeyPatch.context() as patch:
        patch.delenv("REPRO_SNAPSHOT_DIR", raising=False)
        patch.setattr(deploy_module, "image_cache", SnapshotCache)
        return boot(binary, scheme)


def assert_warm_is_cold(binary, scheme="pssp"):
    assert snapshot_divergences(boot(binary, scheme),
                                cold_boot(binary, scheme)) == []


def with_rodata(binary, rodata):
    """A hand-built variant of ``binary`` declaring exactly ``rodata``."""
    variant = binary.clone()
    variant.rodata = dict(rodata)
    return variant


#: Two blobs declared out of sorted order; the loader places them in
#: declaration order, so the reversed declaration is another layout.
UNSORTED = {"zz_blob": b"Z" * 24, "aa_blob": b"A" * 8}
SORTED = dict(sorted(UNSORTED.items()))


def dumps_version_1(binary, _dumps=serialize.dumps) -> bytes:
    """The version-1 binary format: rodata and bss as sorted objects.
    ``_dumps`` binds the real serializer, which a test patches to this."""
    document = json.loads(_dumps(binary))
    document["version"] = 1
    document["rodata"] = dict(document["rodata"])
    document["bss"] = dict(document["bss"])
    return json.dumps(document, sort_keys=True).encode("utf-8")


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


class TestExactMatching:
    """The memory tier serves an image only to an exactly equal deployment."""

    def test_rodata_order_is_part_of_the_key_in_memory(self):
        binary = build(SOURCE, "pssp")
        unsorted = with_rodata(binary, UNSORTED)
        ordered = with_rodata(binary, SORTED)
        cache = image_cache()
        for variant in (unsorted, ordered):
            assert_warm_is_cold(variant)
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 2)

    def test_rodata_order_is_part_of_the_key_on_disk(
        self, tmp_path, monkeypatch
    ):
        binary = build(SOURCE, "pssp")
        unsorted = with_rodata(binary, UNSORTED)
        ordered = with_rodata(binary, SORTED)
        assert SnapshotCache.key_for(unsorted, spec(), (), 0x40000) != \
            SnapshotCache.key_for(ordered, spec(), (), 0x40000)
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        cache = reset_image_cache()
        for variant in (unsorted, ordered):
            assert_warm_is_cold(variant)
        stats = cache.stats()
        assert (stats["misses"], stats["disk_stores"]) == (2, 2)
        assert directory_stats(str(tmp_path))["images"] == 2
        # A fresh process: serialize keeps rodata declaration order, so
        # both images pass their load check and are served from disk.
        # Both still boot warm ≡ cold.
        cache = reset_image_cache()
        for variant in (unsorted, ordered):
            assert_warm_is_cold(variant)
        stats = cache.stats()
        assert (stats["disk_hits"], stats["misses"]) == (2, 0)

    @pytest.mark.parametrize("mutation", ["add_function", "swap_rodata"])
    def test_mutating_the_callers_binary_after_deploy_is_a_miss(
        self, mutation
    ):
        binary = with_rodata(build(SOURCE, "pssp"), UNSORTED)
        pristine = binary.clone()
        cache = image_cache()
        first = cache.image_for(binary, spec())
        if mutation == "add_function":
            # What the stack_chk rewriter does to the binary it is given.
            extra = binary.function("work").copy()
            extra.name = "work_twin"
            binary.add_function(extra)
        else:
            binary.rodata = dict(reversed(list(binary.rodata.items())))
        assert_warm_is_cold(binary)
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (0, 2)
        assert first.binary == pristine
        assert list(first.binary.functions) == list(pristine.functions)
        assert list(first.binary.rodata) == list(pristine.rodata)

    def test_equal_binary_sharing_nothing_still_hits(self):
        binary = build(SOURCE, "pssp")
        cache = SnapshotCache()
        first = cache.image_for(binary, spec())
        assert cache.image_for(serialize.loads(serialize.dumps(binary)),
                               spec()) is first
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (1, 1)


class TestExactCounts:
    """Chaos cases boot each program twice: one miss, then one hit."""

    def test_memory_tier_never_serializes(self, monkeypatch):
        calls = []
        dumps = serialize.dumps
        monkeypatch.setattr(
            serialize, "dumps", lambda binary: calls.append(1) or dumps(binary)
        )
        cache = image_cache()
        run_campaign(4, jobs=1, progress=None)
        assert calls == []
        assert (cache.stats()["hits"], cache.stats()["misses"]) == (4, 4)

    def test_disk_tier_keys_once_per_memory_miss(self, tmp_path, monkeypatch):
        calls = []
        key_for = SnapshotCache.key_for

        def counting_key_for(*args):
            calls.append(1)
            return key_for(*args)

        monkeypatch.setattr(
            SnapshotCache, "key_for", staticmethod(counting_key_for)
        )
        monkeypatch.setenv("REPRO_SNAPSHOT_DIR", str(tmp_path))
        cache = reset_image_cache()
        run_campaign(4, jobs=1, progress=None)
        stats = cache.stats()
        assert (stats["hits"], stats["misses"]) == (4, 4)
        assert stats["disk_stores"] == 4
        assert len(calls) == stats["misses"]


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

    def test_older_binary_format_misses_cleanly(self, tmp_path, monkeypatch):
        from repro.errors import SnapshotError
        from repro.machine.snapshot import load_spawn_image

        binary = with_rodata(build(SOURCE, "pssp"), UNSORTED)
        binary.bss = {"zz_bss": 16, "aa_bss": 8}
        image = prepare_spawn_image(binary, stack_size=0x40000)
        with monkeypatch.context() as patch:
            patch.setattr(serialize, "dumps", dumps_version_1)
            stale = dump_spawn_image(image)
        key = SnapshotCache.key_for(binary, spec(), (), 0x40000)
        (tmp_path / (key + IMAGE_SUFFIX)).write_bytes(stale)
        with pytest.raises(SnapshotError):
            load_spawn_image(stale)
        self._assert_clean_miss(tmp_path, binary)
        # The rebuilt image replaced the stale file: the next process
        # is served from disk, in declaration order.
        reader = SnapshotCache(directory=str(tmp_path))
        served = reader.image_for(binary, spec()).binary
        assert reader.stats()["disk_hits"] == 1
        assert served == binary
        assert (list(served.rodata), list(served.bss)) == \
            (list(binary.rodata), list(binary.bss))

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
