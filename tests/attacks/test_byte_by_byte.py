"""The byte-by-byte attack: must break SSP, must stall everywhere else."""

import pytest

from repro.attacks.byte_by_byte import byte_by_byte_attack, expected_ssp_trials
from repro.attacks.oracle import ForkingServer
from repro.attacks.payloads import frame_map
from repro.core.deploy import build, deploy
from repro.crypto.random import EntropySource
from repro.kernel.kernel import Kernel

#: byte-by-byte attack campaigns — excluded from the CI quick-signal subset.
pytestmark = pytest.mark.slow

VICTIM = """
int handler(int n) {
    char buf[64];
    read(0, buf, 4096);
    return 0;
}
int main() { return 0; }
"""


def make_server(scheme, seed=301):
    kernel = Kernel(seed)
    binary = build(VICTIM, scheme, name="srv")
    parent, _ = deploy(kernel, binary, scheme)
    return ForkingServer(kernel, parent), frame_map(binary, "handler")


class TestAgainstSSP:
    def test_attack_succeeds(self):
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert report.success
        assert report.verified

    def test_trials_near_paper_estimate(self):
        # Paper: ~1024 average; terminator byte makes the first byte free.
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert 8 <= report.trials <= 2200

    def test_recovers_the_actual_canary(self):
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        child = server.worker()
        assert int.from_bytes(report.recovered[:8], "little") == child.tls.canary

    def test_first_byte_is_terminator(self):
        server, frame = make_server("ssp")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert report.recovered[0] == 0x00
        assert report.per_byte_trials[0] == 1  # guess order starts at 0


@pytest.mark.parametrize("scheme", ["pssp", "pssp-nt", "pssp-gb", "raf-ssp",
                                    "dynaguard", "dcr"])
class TestAgainstRerandomizingSchemes:
    def test_attack_fails(self, scheme):
        server, frame = make_server(scheme)
        report = byte_by_byte_attack(server, frame, max_trials=3000)
        assert not report.success, f"byte-by-byte broke {scheme}!"

    def test_no_accumulated_advantage(self, scheme):
        # The attacker never gets far into the canary region: each
        # "confirmed" byte is stale by the next fork, so progress stalls
        # well short of the full region.
        server, frame = make_server(scheme)
        report = byte_by_byte_attack(server, frame, max_trials=3000)
        assert len(report.recovered) < frame.canary_region_size


class TestAgainstInstrumentedPSSP:
    def test_attack_fails_on_rewritten_binary(self):
        server, frame = make_server("pssp-binary")
        report = byte_by_byte_attack(server, frame, max_trials=2500)
        assert not report.success


class TestAnalytics:
    def test_expected_trials_with_terminator(self):
        assert expected_ssp_trials(8) == 1 + 7 * 128.5

    def test_expected_trials_without_terminator(self):
        assert expected_ssp_trials(8, terminator=False) == 8 * 128.5

    def test_random_guess_order_also_breaks_ssp(self):
        server, frame = make_server("ssp", seed=302)
        report = byte_by_byte_attack(
            server, frame, max_trials=8000, entropy=EntropySource(7)
        )
        assert report.success
