"""Content addressing, isolation, and bounds of the build cache."""

import pytest

from repro.binfmt.serialize import dumps
from repro.core.deploy import build, get_scheme
from repro.fuzz.fuzzer import run_fuzz
from repro.fuzz.mutants import MUTANTS, planted
from repro.parallel.buildcache import (
    BuildCache,
    build_cache,
    reset_build_cache,
    toolchain_fingerprint,
)

SOURCE = """
int work(int n) {
    char buf[32];
    buf[0] = n;
    return buf[0] + 1;
}
int main() { return work(4); }
"""


@pytest.fixture(autouse=True)
def fresh_cache():
    reset_build_cache()
    yield
    reset_build_cache()


class _FakeBinary:
    def __init__(self, tag):
        self.tag = tag

    def clone(self):
        return _FakeBinary(self.tag)


class TestContentAddress:
    def test_hit_on_identical_source_and_scheme(self):
        cache = build_cache()
        first = build(SOURCE, "pssp")
        second = build(SOURCE, "pssp")
        assert cache.stats()["hits"] == 1
        assert cache.stats()["misses"] == 1
        # The served image is bit-identical to a fresh compile...
        assert dumps(first) == dumps(second)
        # ...but never the same object: hits hand out private clones.
        assert first is not second
        assert first.functions is not second.functions

    def test_miss_on_scheme_change(self):
        cache = build_cache()
        build(SOURCE, "pssp")
        build(SOURCE, "ssp")
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2

    def test_miss_on_source_change(self):
        cache = build_cache()
        build(SOURCE, "pssp")
        build(SOURCE.replace("work(4)", "work(5)"), "pssp")
        assert cache.stats()["misses"] == 2

    def test_miss_on_toolchain_config_change(self, monkeypatch):
        cache = build_cache()
        build(SOURCE, "pssp")
        # A toolchain-version bump changes every fingerprint, so the
        # same (source, scheme) request no longer matches old entries.
        monkeypatch.setattr(
            "repro.parallel.buildcache.TOOLCHAIN_VERSION", 2
        )
        build(SOURCE, "pssp")
        assert cache.stats()["hits"] == 0
        assert cache.stats()["misses"] == 2

    def test_fingerprint_covers_spec_fields(self):
        pssp = get_scheme("pssp")
        assert toolchain_fingerprint(pssp) != toolchain_fingerprint(
            get_scheme("pssp-binary")
        )
        # dynaguard vs dynaguard-dbi differ only in the DBI multiplier.
        assert toolchain_fingerprint(
            get_scheme("dynaguard")
        ) != toolchain_fingerprint(get_scheme("dynaguard-dbi"))

    def test_cached_entry_immune_to_caller_mutation(self):
        mutated = build(SOURCE, "pssp")
        mutated.functions.clear()
        fresh = build(SOURCE, "pssp")
        assert fresh.functions  # the pristine image survived


class TestBounds:
    def test_eviction_bound_respected(self):
        cache = BuildCache(max_entries=2)
        spec = get_scheme("pssp")
        for tag in ("a", "b", "c"):
            cache.get_or_build(
                tag, spec, "x", lambda tag=tag: _FakeBinary(tag)
            )
        assert len(cache) == 2
        assert cache.stats()["evictions"] == 1

    def test_lru_evicts_oldest(self):
        cache = BuildCache(max_entries=2)
        spec = get_scheme("pssp")
        cache.get_or_build("a", spec, "x", lambda: _FakeBinary("a"))
        cache.get_or_build("b", spec, "x", lambda: _FakeBinary("b"))
        cache.get_or_build("a", spec, "x", lambda: _FakeBinary("a2"))  # hit
        cache.get_or_build("c", spec, "x", lambda: _FakeBinary("c"))
        # "b" (least recently used) was evicted, "a" survived.
        assert cache.get_or_build(
            "a", spec, "x", lambda: _FakeBinary("a3")
        ).tag == "a"
        assert cache.stats()["hits"] == 2

    def test_rejects_nonpositive_bound(self):
        with pytest.raises(ValueError):
            BuildCache(max_entries=0)


class TestKnobsAndInvalidation:
    def test_planted_mutant_clears_cache(self):
        cache = build_cache()
        build(SOURCE, "pssp")
        assert len(cache) == 1
        with planted(MUTANTS[0]):
            # Entry + exit both clear: nothing built pre-mutant may
            # satisfy an in-mutant request, and vice versa.
            assert len(cache) == 0
            build(SOURCE, "pssp")
            assert len(cache) == 1
        assert len(cache) == 0


@pytest.mark.slow
def test_planted_mutant_shrink_hits_and_misses_exactly():
    # Shrinking a planted-mutant failure re-builds the same candidates
    # across schemes and interpreter paths; the cache serves those
    # rebuilds.  ``planted`` clears the cache on entry, so every hit
    # comes from inside the failing campaign.
    with planted(MUTANTS[0]):
        report = run_fuzz(3, base_seed=2018, shrink=True, health=False)
        stats = build_cache().stats()
    assert [f.shrunk_spec is not None for f in report.failures] == [True] * 3
    assert (stats["hits"], stats["misses"]) == (635, 288)
    assert stats["hit_rate"] >= 0.5
