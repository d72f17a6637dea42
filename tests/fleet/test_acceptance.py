"""The seeded 10k-request acceptance campaign, replayed from the corpus.

``corpus/fleet-mixed-10k.json`` pins the full per-scheme summary of a
10 000-request campaign per scheme (40 000 requests total) under the
committed traffic config.  The campaign re-runs here — sharded, like CI
runs it — and must reproduce every summary field *exactly*: requests,
detections, breaches split by kind, time-to-detection, simulated
throughput, and tail latency.  Any drift in the interpreter, the
schemes, fork, the snapshot cache, or the executor shows up as a diff
against the committed numbers.

Marked ``slow`` + ``fuzz``: the quick CI job skips it, the scheduled
job runs it.
"""

import json
from pathlib import Path

import pytest

from repro.fleet.campaign import run_fleet
from repro.fleet.traffic import TrafficConfig

CORPUS = Path(__file__).resolve().parent / "corpus" / "fleet-mixed-10k.json"
#: The 10^6-request record ``benchmarks/bench_gates.py`` re-serves in full
#: mode (too long for the suite; its shape and story are checked here).
MILLION = CORPUS.with_name("fleet-mixed-1m.json")


@pytest.fixture(scope="module")
def entry():
    return json.loads(CORPUS.read_text())


class TestCorpusHygiene:
    def test_entry_is_well_formed(self, entry):
        assert entry["description"]
        config = TrafficConfig.from_json(entry["config"])
        assert config.to_json() == entry["config"]
        assert entry["request_budget"] == 10_000
        assert set(entry["expected"]) == set(entry["schemes"])

    def test_expected_numbers_tell_the_paper_story(self, entry):
        assert_paper_story(entry["expected"])

    def test_million_request_record_tells_the_same_story(self, entry):
        million = json.loads(MILLION.read_text())
        for key in ("base_seed", "config", "schemes", "slice_requests"):
            assert million[key] == entry[key], key
        assert million["total_requests"] >= 1_000_000
        assert sum(
            s["requests"] for s in million["expected"].values()
        ) == million["total_requests"]
        assert_paper_story(million["expected"])


def assert_paper_story(expected):
    """The paper's table, read off per-scheme campaign summaries."""
    # Static canaries fall to byte-by-byte brute force...
    assert expected["ssp"]["breaches_by_kind"]["brute"] > 0
    # ...fork-time re-randomization stops it...
    for scheme in ("pssp", "pssp-nt", "pssp-owf"):
        assert expected[scheme]["breaches_by_kind"]["brute"] == 0
    # ...leak-and-replay still works until the OWF binding.
    assert expected["pssp"]["breaches_by_kind"]["leak"] > 0
    assert expected["pssp-owf"]["breaches"] == 0
    for scheme, summary in expected.items():
        assert summary["detections"] > 0, scheme
        assert summary["time_to_detection"] is not None, scheme
        assert summary["audit_divergences"] == 0, scheme


@pytest.mark.slow
@pytest.mark.fuzz
class TestAcceptanceCampaign:
    def test_10k_campaign_reproduces_the_committed_summaries(self, entry):
        report = run_fleet(
            entry["request_budget"],
            schemes=tuple(entry["schemes"]),
            base_seed=entry["base_seed"],
            slice_requests=entry["slice_requests"],
            config=TrafficConfig.from_json(entry["config"]),
            jobs=2,  # sharded, exactly as CI drives it
        )
        assert report.lost_slices == 0
        assert report.audit_divergences == []
        assert report.total_requests >= 4 * 10_000 - 4 * 10  # leak slack
        for scheme_report in report.reports:
            produced = json.loads(json.dumps(scheme_report.summary()))
            assert produced == entry["expected"][scheme_report.scheme], (
                f"{scheme_report.scheme} diverged from the corpus"
            )
