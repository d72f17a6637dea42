"""Pure-Python AES-128, standing in for Intel AES-NI.

P-SSP-OWF (paper §IV-C / §V-E3) computes the stack canary as
``AES_ENCRYPT_128(key = TLS canary, plaintext = rdtsc || return-address)``.
The paper uses AES-NI; offline we implement FIPS-197 AES-128 directly.
Only ECB single-block encryption/decryption is needed, but decryption is
included so tests can verify the implementation round-trips against the
FIPS-197 appendix vectors.

The canary path encrypts one block per protected call.  Its *simulated*
cost lives in ``repro.isa.costs`` (``AES_HELPER_COST``); host-side, a
served fleet request pays for one or two blocks, so encryption is
table-driven: SubBytes and ShiftRows are one S-box gather, MixColumns
reads precomputed GF(2^8) x2/x3 tables, and the key schedule is
memoised — fork children share the TLS canary that is the key.
Decryption is test-only and keeps the textbook bit-loop arithmetic.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Tuple

BLOCK_SIZE = 16
KEY_SIZE = 16
ROUNDS = 10

# FIPS-197 S-box.
SBOX = bytes(
    [
        0x63, 0x7C, 0x77, 0x7B, 0xF2, 0x6B, 0x6F, 0xC5, 0x30, 0x01, 0x67, 0x2B, 0xFE, 0xD7, 0xAB, 0x76,
        0xCA, 0x82, 0xC9, 0x7D, 0xFA, 0x59, 0x47, 0xF0, 0xAD, 0xD4, 0xA2, 0xAF, 0x9C, 0xA4, 0x72, 0xC0,
        0xB7, 0xFD, 0x93, 0x26, 0x36, 0x3F, 0xF7, 0xCC, 0x34, 0xA5, 0xE5, 0xF1, 0x71, 0xD8, 0x31, 0x15,
        0x04, 0xC7, 0x23, 0xC3, 0x18, 0x96, 0x05, 0x9A, 0x07, 0x12, 0x80, 0xE2, 0xEB, 0x27, 0xB2, 0x75,
        0x09, 0x83, 0x2C, 0x1A, 0x1B, 0x6E, 0x5A, 0xA0, 0x52, 0x3B, 0xD6, 0xB3, 0x29, 0xE3, 0x2F, 0x84,
        0x53, 0xD1, 0x00, 0xED, 0x20, 0xFC, 0xB1, 0x5B, 0x6A, 0xCB, 0xBE, 0x39, 0x4A, 0x4C, 0x58, 0xCF,
        0xD0, 0xEF, 0xAA, 0xFB, 0x43, 0x4D, 0x33, 0x85, 0x45, 0xF9, 0x02, 0x7F, 0x50, 0x3C, 0x9F, 0xA8,
        0x51, 0xA3, 0x40, 0x8F, 0x92, 0x9D, 0x38, 0xF5, 0xBC, 0xB6, 0xDA, 0x21, 0x10, 0xFF, 0xF3, 0xD2,
        0xCD, 0x0C, 0x13, 0xEC, 0x5F, 0x97, 0x44, 0x17, 0xC4, 0xA7, 0x7E, 0x3D, 0x64, 0x5D, 0x19, 0x73,
        0x60, 0x81, 0x4F, 0xDC, 0x22, 0x2A, 0x90, 0x88, 0x46, 0xEE, 0xB8, 0x14, 0xDE, 0x5E, 0x0B, 0xDB,
        0xE0, 0x32, 0x3A, 0x0A, 0x49, 0x06, 0x24, 0x5C, 0xC2, 0xD3, 0xAC, 0x62, 0x91, 0x95, 0xE4, 0x79,
        0xE7, 0xC8, 0x37, 0x6D, 0x8D, 0xD5, 0x4E, 0xA9, 0x6C, 0x56, 0xF4, 0xEA, 0x65, 0x7A, 0xAE, 0x08,
        0xBA, 0x78, 0x25, 0x2E, 0x1C, 0xA6, 0xB4, 0xC6, 0xE8, 0xDD, 0x74, 0x1F, 0x4B, 0xBD, 0x8B, 0x8A,
        0x70, 0x3E, 0xB5, 0x66, 0x48, 0x03, 0xF6, 0x0E, 0x61, 0x35, 0x57, 0xB9, 0x86, 0xC1, 0x1D, 0x9E,
        0xE1, 0xF8, 0x98, 0x11, 0x69, 0xD9, 0x8E, 0x94, 0x9B, 0x1E, 0x87, 0xE9, 0xCE, 0x55, 0x28, 0xDF,
        0x8C, 0xA1, 0x89, 0x0D, 0xBF, 0xE6, 0x42, 0x68, 0x41, 0x99, 0x2D, 0x0F, 0xB0, 0x54, 0xBB, 0x16,
    ]
)

INV_SBOX = bytes(SBOX.index(i) for i in range(256))

RCON = (0x01, 0x02, 0x04, 0x08, 0x10, 0x20, 0x40, 0x80, 0x1B, 0x36)


def _xtime(a: int) -> int:
    """Multiply by x in GF(2^8) modulo the AES polynomial."""
    a <<= 1
    if a & 0x100:
        a ^= 0x11B
    return a & 0xFF


def _gmul(a: int, b: int) -> int:
    """GF(2^8) multiplication."""
    result = 0
    while b:
        if b & 1:
            result ^= a
        a = _xtime(a)
        b >>= 1
    return result


#: MixColumns lookup tables: ``MUL2[a] = 2·a`` and ``MUL3[a] = 3·a`` in GF(2^8).
MUL2 = bytes(_xtime(a) for a in range(256))
MUL3 = bytes(_xtime(a) ^ a for a in range(256))

#: ShiftRows as a gather: the state is column-major (byte (row, col) at
#: ``row + 4*col``) and row ``r`` rotates left by ``r``, so output byte
#: ``i`` reads input byte ``(i + 4 * (i % 4)) % 16``.
SHIFT_ROWS = tuple((i + 4 * (i % 4)) % 16 for i in range(16))


def expand_key(key: bytes) -> List[bytes]:
    """Expand a 16-byte key into 11 round keys (FIPS-197 §5.2)."""
    if len(key) != KEY_SIZE:
        raise ValueError(f"AES-128 key must be {KEY_SIZE} bytes, got {len(key)}")
    words = [key[i : i + 4] for i in range(0, 16, 4)]
    for i in range(4, 4 * (ROUNDS + 1)):
        temp = bytearray(words[i - 1])
        if i % 4 == 0:
            temp = temp[1:] + temp[:1]
            temp = bytearray(SBOX[b] for b in temp)
            temp[0] ^= RCON[i // 4 - 1]
        words.append(bytes(a ^ b for a, b in zip(words[i - 4], temp)))
    return [b"".join(words[4 * r : 4 * r + 4]) for r in range(ROUNDS + 1)]


def _add_round_key(state: bytearray, round_key: bytes) -> None:
    for i in range(16):
        state[i] ^= round_key[i]


def _sub_bytes(state: bytearray, box: bytes) -> None:
    for i in range(16):
        state[i] = box[state[i]]


def _inv_shift_rows(state: bytearray) -> None:
    for row in range(1, 4):
        cells = [state[row + 4 * col] for col in range(4)]
        cells = cells[-row:] + cells[:-row]
        for col in range(4):
            state[row + 4 * col] = cells[col]


def _inv_mix_columns(state: bytearray) -> None:
    for col in range(4):
        a = state[4 * col : 4 * col + 4]
        state[4 * col + 0] = _gmul(a[0], 14) ^ _gmul(a[1], 11) ^ _gmul(a[2], 13) ^ _gmul(a[3], 9)
        state[4 * col + 1] = _gmul(a[0], 9) ^ _gmul(a[1], 14) ^ _gmul(a[2], 11) ^ _gmul(a[3], 13)
        state[4 * col + 2] = _gmul(a[0], 13) ^ _gmul(a[1], 9) ^ _gmul(a[2], 14) ^ _gmul(a[3], 11)
        state[4 * col + 3] = _gmul(a[0], 11) ^ _gmul(a[1], 13) ^ _gmul(a[2], 9) ^ _gmul(a[3], 14)


@lru_cache(maxsize=64)
def _round_keys(key: bytes) -> Tuple[bytes, ...]:
    """Memoised key schedule.  Bounded: a campaign sees one key per
    process lineage, and the cap keeps long runs' memory flat."""
    return tuple(expand_key(key))


def encrypt_block(key: bytes, plaintext: bytes) -> bytes:
    """Encrypt one 16-byte block with AES-128 (models ``AES_ENCRYPT_128``)."""
    if len(plaintext) != BLOCK_SIZE:
        raise ValueError(f"plaintext block must be {BLOCK_SIZE} bytes, got {len(plaintext)}")
    round_keys = _round_keys(bytes(key))
    sbox, mul2, mul3 = SBOX, MUL2, MUL3
    state = [p ^ k for p, k in zip(plaintext, round_keys[0])]
    for rnd in range(1, ROUNDS):
        # SubBytes + ShiftRows, then MixColumns + AddRoundKey per column.
        t = [sbox[state[j]] for j in SHIFT_ROWS]
        k = round_keys[rnd]
        state = []
        for c in (0, 4, 8, 12):
            a0, a1, a2, a3 = t[c], t[c + 1], t[c + 2], t[c + 3]
            state.append(mul2[a0] ^ mul3[a1] ^ a2 ^ a3 ^ k[c])
            state.append(a0 ^ mul2[a1] ^ mul3[a2] ^ a3 ^ k[c + 1])
            state.append(a0 ^ a1 ^ mul2[a2] ^ mul3[a3] ^ k[c + 2])
            state.append(mul3[a0] ^ a1 ^ a2 ^ mul2[a3] ^ k[c + 3])
    k = round_keys[ROUNDS]
    return bytes(sbox[state[j]] ^ k[i] for i, j in enumerate(SHIFT_ROWS))


def decrypt_block(key: bytes, ciphertext: bytes) -> bytes:
    """Decrypt one 16-byte block (used only for self-tests)."""
    if len(ciphertext) != BLOCK_SIZE:
        raise ValueError(f"ciphertext block must be {BLOCK_SIZE} bytes, got {len(ciphertext)}")
    round_keys = expand_key(key)
    state = bytearray(ciphertext)
    _add_round_key(state, round_keys[ROUNDS])
    for rnd in range(ROUNDS - 1, 0, -1):
        _inv_shift_rows(state)
        _sub_bytes(state, INV_SBOX)
        _add_round_key(state, round_keys[rnd])
        _inv_mix_columns(state)
    _inv_shift_rows(state)
    _sub_bytes(state, INV_SBOX)
    _add_round_key(state, round_keys[0])
    return bytes(state)
