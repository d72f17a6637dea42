"""Deterministic entropy sources.

Every random bit consumed anywhere in the simulator — TLS canary
initialization, ``rdrand`` executions, attacker guesses, workload request
mixes — flows through an :class:`EntropySource` so that experiments are
reproducible given a seed.  The source is a thin wrapper around
``random.Random`` with byte/word conveniences matching what the hardware
devices and the protection schemes need.
"""

from __future__ import annotations

import random
from typing import List, Optional

from ..errors import EntropyFailure

#: Number of bits in a machine word on the simulated platform.
WORD_BITS = 64
WORD_BYTES = WORD_BITS // 8
WORD_MASK = (1 << WORD_BITS) - 1


class EntropySource:
    """A seedable stream of random integers and byte strings.

    Parameters
    ----------
    seed:
        Seed for the underlying PRNG.  ``None`` draws a nondeterministic
        seed from the host, which is only appropriate for interactive use.
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._rng: Optional[random.Random] = random.Random(seed)
        self.seed = seed
        #: Number of draw operations served (diagnostics/tests).
        self.draws = 0

    def word(self, bits: int = WORD_BITS) -> int:
        """Return a uniformly random ``bits``-bit unsigned integer."""
        self.draws += 1
        return self._gen().getrandbits(bits)

    def nonzero_word(self, bits: int = WORD_BITS) -> int:
        """Return a uniformly random nonzero ``bits``-bit integer.

        glibc avoids all-zero canaries (a zero canary survives ``strcpy``
        termination overflows); schemes that mimic it use this helper.
        Bounded: a degenerate request (``bits < 1``, or a stream that
        keeps returning zero) raises :class:`EntropyFailure` instead of
        retrying forever.
        """
        if bits < 1:
            raise EntropyFailure(f"cannot draw a nonzero {bits}-bit word")
        for _ in range(128):
            value = self.word(bits)
            if value:
                return value
        raise EntropyFailure(
            f"entropy source returned 128 consecutive zero {bits}-bit words"
        )

    def bytes(self, n: int) -> bytes:
        """Return ``n`` uniformly random bytes."""
        self.draws += 1
        return self._gen().getrandbits(8 * n).to_bytes(n, "little") if n else b""

    def byte(self) -> int:
        """Return one uniformly random byte value (0..255)."""
        return self.word(8)

    def randrange(self, upper: int) -> int:
        """Return a uniform integer in ``[0, upper)``."""
        self.draws += 1
        return self._gen().randrange(upper)

    def choice(self, items: List):
        """Return a uniformly chosen element of ``items``."""
        self.draws += 1
        return self._gen().choice(items)

    def shuffle(self, items: List) -> None:
        """Shuffle ``items`` in place."""
        self.draws += 1
        self._gen().shuffle(items)

    def gauss(self, mu: float, sigma: float) -> float:
        """Return a Gaussian sample (used by workload latency jitter)."""
        self.draws += 1
        return self._gen().gauss(mu, sigma)

    def fork(self) -> "EntropySource":
        """Derive an independent child source (used on process fork).

        The child's seed is drawn from this stream now, so forked
        processes observe different — but still reproducible — entropy.
        Its generator is seeded from that seed on first use
        (:meth:`_gen`): most fork children never draw, and the stream a
        child does draw is the one ``EntropySource(seed)`` gives.
        """
        child = EntropySource.__new__(EntropySource)
        child._rng = None
        child.seed = self.word(64)
        child.draws = 0
        return child

    def _gen(self) -> random.Random:
        """The generator, seeded here on a forked source's first draw."""
        rng = self._rng
        if rng is None:
            rng = self._rng = random.Random(self.seed)
        return rng


def terminator_free_word(source: EntropySource, bits: int = WORD_BITS) -> int:
    """Draw a canary whose low byte is the NUL terminator, glibc-style.

    glibc's default canary keeps byte 0 as ``0x00`` so that string
    functions cannot leak it or write past it silently.  SSP in our
    simulator follows the same convention; P-SSP draws fully random words
    because the XOR-split makes termination tricks irrelevant.
    """
    word = source.word(bits)
    return word & ~0xFF
