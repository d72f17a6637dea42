"""Blind reconnaissance: geometry discovery without the binary."""

import pytest

from repro.attacks.oracle import ForkingServer
from repro.attacks.payloads import frame_map
from repro.attacks.recon import blind_byte_by_byte, find_canary_start
from repro.core.deploy import build, deploy
from repro.kernel.kernel import Kernel

VICTIM_TEMPLATE = """
int handler(int n) {{
    char buf[{size}];
    read(0, buf, 4096);
    return 0;
}}
int main() {{ return 0; }}
"""


def make_server(scheme, buffer_size=64, seed=871):
    kernel = Kernel(seed)
    source = VICTIM_TEMPLATE.format(size=buffer_size)
    binary = build(source, scheme, name="srv")
    parent, _ = deploy(kernel, binary, scheme)
    return ForkingServer(kernel, parent), binary


class TestFindCanaryStart:
    @pytest.mark.parametrize("buffer_size", [16, 64, 96])
    def test_locates_the_boundary_under_ssp(self, buffer_size):
        server, binary = make_server("ssp", buffer_size)
        recon = find_canary_start(server, max_length=buffer_size + 32)
        frame = frame_map(binary, "handler")
        assert recon.success
        assert recon.canary_start == frame.canary_region_start

    def test_locates_the_boundary_under_pssp(self):
        # Geometry discovery works against P-SSP too — the defence hides
        # the canary *value*, not the layout.
        server, binary = make_server("pssp")
        recon = find_canary_start(server, max_length=128)
        frame = frame_map(binary, "handler")
        assert recon.success
        assert recon.canary_start == frame.canary_region_start

    def test_fails_gracefully_when_nothing_crashes(self):
        # A huge buffer: probes never reach the canary within the cap.
        server, _ = make_server("ssp", buffer_size=96)
        recon = find_canary_start(server, max_length=40)
        assert not recon.success
        assert recon.canary_start is None


class TestBlindChain:
    def test_blind_attack_breaks_ssp(self):
        server, binary = make_server("ssp")
        recon, report = blind_byte_by_byte(server, max_length=128)
        assert recon.success
        assert report is not None and report.success
        worker = server.worker()
        assert int.from_bytes(report.recovered[:8], "little") == worker.tls.canary

    def test_blind_attack_stalls_on_pssp(self):
        server, _ = make_server("pssp")
        recon, report = blind_byte_by_byte(
            server, max_length=128, max_trials=2500
        )
        assert recon.success            # geometry found...
        assert report is not None
        assert not report.success       # ...but the canary never accumulates
