"""The byte-by-byte (BROP-style) brute-force attack (paper §II-B).

Strategy: treat the forking parent as an oracle.  Overflow only the
lowest untested canary byte; a surviving worker confirms the guess, a
crash refutes it.  Against SSP every worker shares the parent's canary,
so confirmations accumulate — eight bytes fall in an expected
``8 × 2⁷ = 1024`` trials.  Against any scheme that re-randomizes the
stack canary per fork (or per call), a "confirmed" byte is only ever
valid for the worker that confirmed it, so the attacker's advantage never
accumulates and the attack stalls.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional

from ..crypto.random import EntropySource
from .oracle import ForkingServer
from .payloads import FrameMap, PayloadBuilder


@dataclass
class ByteByByteReport:
    """Outcome of one byte-by-byte campaign."""

    success: bool
    trials: int
    recovered: bytes
    #: Per-byte trial counts (length == recovered bytes confirmed).
    per_byte_trials: List[int] = field(default_factory=list)
    #: True when the final verification overflow also survived.
    verified: bool = False


def byte_by_byte_attack(
    server: ForkingServer,
    frame: FrameMap,
    *,
    max_trials: int = 20_000,
    entropy: Optional[EntropySource] = None,
    verify: bool = True,
) -> ByteByByteReport:
    """Run the attack against ``server``'s handler frame.

    ``entropy`` randomizes guess order (a real attacker often scans
    sequentially; either way the expected count per byte is ~128 once the
    distribution is uniform).  ``verify`` replays the fully recovered
    region one final time; under re-randomizing schemes this exposes that
    the "recovered" bytes were an illusion.
    """
    builder = PayloadBuilder(frame)
    # The confirmed prefix, extended once per confirmed byte.
    recovered = b""
    per_byte: List[int] = []
    trials = 0
    for _position in range(frame.canary_region_size):
        order = list(range(256))
        if entropy is not None:
            entropy.shuffle(order)
        confirmed: Optional[int] = None
        byte_trials = 0
        for guess in order:
            if trials >= max_trials:
                return ByteByByteReport(False, trials, recovered, per_byte)
            trials += 1
            byte_trials += 1
            response = server.handle_request(builder.probe(recovered, guess))
            if not response.crashed:
                confirmed = guess
                break
        if confirmed is None:
            # All 256 candidates crashed: the canary must have moved under
            # us — re-randomization is defeating accumulation.
            return ByteByByteReport(False, trials, recovered, per_byte)
        recovered += bytes((confirmed,))
        per_byte.append(byte_trials)

    report = ByteByByteReport(True, trials, recovered, per_byte)
    if verify:
        payload = builder.probe(recovered[:-1], recovered[-1])
        response = server.handle_request(payload)
        report.verified = not response.crashed
        report.success = report.verified
    return report


def expected_ssp_trials(canary_bytes: int = 8, *, terminator: bool = True) -> float:
    """Analytic expectation for SSP (sequential guessing).

    With a glibc-style terminator canary the low byte is 0x00 and falls on
    the first probe; each remaining byte needs (256+1)/2 probes on
    average.  The paper quotes the round figure 8 × 2⁷ = 1024.
    """
    per_byte = (256 + 1) / 2
    if terminator:
        return 1 + (canary_bytes - 1) * per_byte
    return canary_bytes * per_byte
