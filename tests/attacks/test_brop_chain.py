"""The complete BROP-style kill chain against SSP, and threaded variants.

Canary recovery alone is reconnaissance; the payoff is the control-flow
hijack that follows (paper §II-B cites Hacking Blind).  This test runs
the full chain: byte-by-byte recovery → exploit payload with the
recovered canary and a redirected return address → code execution in a
worker.
"""

import pytest

from repro.attacks.byte_by_byte import byte_by_byte_attack
from repro.attacks.oracle import ForkingServer, ThreadedServer
from repro.attacks.payloads import PayloadBuilder, frame_map
from repro.core.deploy import build, deploy
from repro.kernel.kernel import Kernel

VICTIM_WITH_GADGET = """
int secret_admin_shell() {
    puts("PWNED: shell spawned");
    exit(66);
    return 0;
}

int handler(int n) {
    char buf[64];
    read(0, buf, 4096);
    return 0;
}

int main() { return 0; }
"""


class TestFullChainAgainstSSP:
    @pytest.fixture(scope="class")
    def compromised(self):
        kernel = Kernel(777)
        binary = build(VICTIM_WITH_GADGET, "ssp", name="srv")
        parent, _ = deploy(kernel, binary, "ssp")
        server = ForkingServer(kernel, parent)
        frame = frame_map(binary, "handler")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        return kernel, binary, parent, server, frame, report

    def test_stage1_canary_recovered(self, compromised):
        *_, report = compromised
        assert report.success

    def test_stage2_hijack_executes_gadget(self, compromised):
        kernel, binary, parent, server, frame, report = compromised
        builder = PayloadBuilder(frame)
        gadget = None
        # The adversary knows the binary (paper model): find the gadget
        # address from a disassembled copy.
        child = server.worker()
        gadget = child.image.address_of("secret_admin_shell")
        sane_rbp = child.registers.read("rsp")
        kernel.reap(child)
        payload = builder.with_canaries(
            {frame.canary_slots[0]: int.from_bytes(report.recovered[:8], "little")},
            new_return=gadget,
            new_rbp=sane_rbp,
        )
        response = server.handle_request(payload)
        assert b"PWNED" in response.output
        # The gadget exit()s with its own status: full code execution.
        assert response.result.exit_status == 66

    def test_same_payload_fails_under_pssp(self):
        """The recovered-canary exploit is dead on arrival against P-SSP:
        the canary it 'knows' belonged to a worker that no longer exists."""
        kernel = Kernel(778)
        binary = build(VICTIM_WITH_GADGET, "pssp", name="srv")
        parent, _ = deploy(kernel, binary, "pssp")
        server = ForkingServer(kernel, parent)
        frame = frame_map(binary, "handler")
        # Even a perfect disclosure of one worker's pair...
        worker = server.worker()
        c0, c1 = worker.tls.shadow_c0, worker.tls.shadow_c1
        kernel.reap(worker)
        gadget_worker = server.worker()
        gadget = gadget_worker.image.address_of("secret_admin_shell")
        kernel.reap(gadget_worker)
        builder = PayloadBuilder(frame)
        payload = builder.with_canaries(
            {frame.canary_slots[0]: c0, frame.canary_slots[1]: c1},
            new_return=gadget,
        )
        # ...is stale by the next fork.  (C0^C1==C still holds, so this
        # *does* pass the check — the pair-consistency property — making
        # the point that P-SSP's protection is against *guessing*, not
        # perfect disclosure; §IV-C motivates OWF for the latter.)
        response = server.handle_request(payload)
        assert b"PWNED" in response.output  # disclosure beats P-SSP...

        # ...but the byte-by-byte *guessing* path is closed:
        report = byte_by_byte_attack(server, frame, max_trials=2500)
        assert not report.success


class TestThreadedServers:
    def test_byte_by_byte_fails_on_threaded_pssp(self):
        """pthread_create workers get fresh shadow pairs too (§V-A wraps
        pthread_create alongside fork)."""
        kernel = Kernel(779)
        binary = build(VICTIM_WITH_GADGET, "pssp", name="srv")
        parent, _ = deploy(kernel, binary, "pssp")
        server = ThreadedServer(kernel, parent)
        frame = frame_map(binary, "handler")
        report = byte_by_byte_attack(server, frame, max_trials=2000)
        assert not report.success

    def test_byte_by_byte_succeeds_on_threaded_ssp(self):
        kernel = Kernel(780)
        binary = build(VICTIM_WITH_GADGET, "ssp", name="srv")
        parent, _ = deploy(kernel, binary, "ssp")
        server = ThreadedServer(kernel, parent)
        frame = frame_map(binary, "handler")
        report = byte_by_byte_attack(server, frame, max_trials=6000)
        assert report.success
