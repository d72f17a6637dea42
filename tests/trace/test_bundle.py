"""Post-mortem bundles: content addressing, IO, exact replay."""

import json

import pytest

from repro.errors import BundleError
from repro.fleet.campaign import run_fleet_slice
from repro.trace import (
    BUNDLE_SUFFIX,
    SliceTracer,
    TraceConfig,
    build_lost_bundle,
    bundle_digest,
    canonical_json,
    load_bundle,
    replay_bundle,
    write_bundle,
)

SEED = 20180625


@pytest.fixture(scope="module")
def breach_bundle():
    """One real breach bundle off an ssp slice (captured once, shared)."""
    tracer = SliceTracer("ssp", SEED, config=TraceConfig(series_interval=20))
    run_fleet_slice("ssp", SEED, request_budget=120, tracer=tracer)
    bundles = [b for b in tracer.trace.bundles if b["trigger"] == "breach"]
    assert bundles, "expected ssp to breach within 120 requests"
    return bundles[0]


class TestContentAddressing:
    def test_digest_is_stable_under_key_order(self):
        a = {"kind": "repro-postmortem", "seed": 1, "trigger": "breach"}
        b = {"trigger": "breach", "kind": "repro-postmortem", "seed": 1}
        assert bundle_digest(a) == bundle_digest(b)
        assert canonical_json(a) == canonical_json(b)

    def test_digest_changes_with_content(self):
        a = {"kind": "repro-postmortem", "seed": 1}
        assert bundle_digest(a) != bundle_digest({**a, "seed": 2})

    def test_write_names_file_by_digest(self, tmp_path, breach_bundle):
        path = write_bundle(breach_bundle, str(tmp_path))
        assert path.endswith(BUNDLE_SUFFIX)
        digest = bundle_digest(breach_bundle)
        assert digest[:16] in path
        # Same content => same file; writing twice is idempotent.
        assert write_bundle(dict(breach_bundle), str(tmp_path)) == path

    def test_write_load_roundtrip(self, tmp_path, breach_bundle):
        path = write_bundle(breach_bundle, str(tmp_path))
        assert load_bundle(path) == breach_bundle


class TestLoadErrors:
    def test_missing_file(self, tmp_path):
        with pytest.raises(BundleError):
            load_bundle(str(tmp_path / "nope.pmb"))

    def test_not_json(self, tmp_path):
        path = tmp_path / "garbage.pmb"
        path.write_text("not json{")
        with pytest.raises(BundleError):
            load_bundle(str(path))

    def test_wrong_kind(self, tmp_path):
        path = tmp_path / "other.pmb"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(BundleError):
            load_bundle(str(path))

    def test_wrong_version(self, tmp_path, breach_bundle):
        path = tmp_path / "future.pmb"
        path.write_text(json.dumps({**breach_bundle, "version": 999}))
        with pytest.raises(BundleError, match="version"):
            load_bundle(str(path))

    def test_edited_payload_under_its_old_name(self, tmp_path, breach_bundle):
        path = write_bundle(breach_bundle, str(tmp_path))
        edited = {**breach_bundle, "detail": "edited"}
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(edited, handle)
        old, new = bundle_digest(breach_bundle)[:16], bundle_digest(edited)[:16]
        with pytest.raises(BundleError, match="does not match") as caught:
            load_bundle(path)
        assert old in str(caught.value) and new in str(caught.value)


class TestReplay:
    def test_breach_bundle_replays_exactly(self, breach_bundle):
        result = replay_bundle(breach_bundle)
        assert result.ok, result.divergences
        assert "POST-MORTEM REPLAY EXACT" in result.render()
        assert canonical_json(result.replayed) == \
            canonical_json(breach_bundle)

    def test_tampered_bundle_is_caught_and_named(self, breach_bundle):
        tampered = json.loads(json.dumps(breach_bundle))
        tampered["events"][-1]["fields"]["requests"] = 999_999
        result = replay_bundle(tampered)
        assert not result.ok
        assert any("'events'" in line for line in result.divergences)
        assert "REPLAY DIVERGENCE" in result.render()

    def test_bundle_without_identity_is_unreadable(self, breach_bundle):
        stripped = {**breach_bundle, "slice": {}}
        with pytest.raises(BundleError, match="replay identity"):
            replay_bundle(stripped)

    def test_worker_lost_bundle_replays_the_seeds(self, breach_bundle):
        identity = dict(breach_bundle["slice"])
        lost = build_lost_bundle("ssp", [SEED], identity)
        lost["budgets"] = {str(SEED): 120}
        result = replay_bundle(lost)
        assert result.ok, result.divergences
        assert result.trigger == "worker-lost"
