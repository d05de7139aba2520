"""Stdlib crypto primitives for the MEE model.

The real MEE uses AES-CTR encryption and a Carter-Wegman MAC keyed from
fuses.  We need the same *structure* — deterministic keystream addressed
by (spatial address, version counter), and a keyed tamper-evident tag —
and build both from HMAC-SHA256 (RFC 2104) over the standard library's
SHA-256.  The security argument of the paper (confidentiality, integrity,
freshness for the context while in DRAM) maps one-to-one onto these
primitives.
"""

from __future__ import annotations

import hashlib
import hmac
import struct
from typing import Tuple

from repro.errors import SecurityError

MAC_LENGTH = 8  # bytes; SGX's MEE uses 56-bit MACs, we round to 8 bytes
_DIGEST_SIZE = hashlib.sha256().digest_size
_SHA256_BLOCK = hashlib.sha256().block_size
_IPAD = bytes(byte ^ 0x36 for byte in range(256))
_OPAD = bytes(byte ^ 0x5C for byte in range(256))
_LENGTH_PREFIX = struct.Struct(">I")
#: The length prefix of every part shorter than 256 bytes, by length.
_SHORT_PREFIXES = tuple(_LENGTH_PREFIX.pack(length) for length in range(256))
_KEYSTREAM_SEED = struct.Struct(">QQI")
#: A counter as stored and MAC'd: 64 bits, big-endian, after :data:`COUNTER_WRAP`.
COUNTER = struct.Struct(">Q")
COUNTER_WRAP = (1 << 64) - 1


def _require_bytes(key, what: str) -> None:
    """Reject a key that is not ``bytes``/``bytearray`` before anything uses it."""
    if not isinstance(key, (bytes, bytearray)):
        raise SecurityError(f"{what} must be bytes, got {type(key).__name__}")


def _pad_states(key: bytes) -> Tuple["hashlib._Hash", "hashlib._Hash"]:
    """RFC 2104 inner and outer SHA-256 states of ``key``.

    HMAC(key, m) = H(outer || H(inner || m)); each state has absorbed its
    padded key block, so a copy plus one update per side finishes a MAC.
    """
    if len(key) > _SHA256_BLOCK:
        key = hashlib.sha256(key).digest()
    block = key.ljust(_SHA256_BLOCK, b"\0")
    return hashlib.sha256(block.translate(_IPAD)), hashlib.sha256(block.translate(_OPAD))


def _hmac(inner, outer, message: bytes) -> bytes:
    """HMAC-SHA256 of ``message`` from the key's pad states."""
    state = inner.copy()
    state.update(message)
    result = outer.copy()
    result.update(state.digest())
    return result.digest()


def derive_key(master: bytes, label: str) -> bytes:
    """Domain-separated subkey derivation (encryption vs MAC vs tree)."""
    _require_bytes(master, "master key")
    if not master:
        raise SecurityError("empty master key")
    return _hmac(*_pad_states(master), label.encode("utf-8"))


class CtrCipher:
    """Counter-mode cipher: keystream = PRF(key, address || version || i).

    Encryption and decryption are the same XOR operation.  Using the
    (address, version) pair as the nonce gives spatial *and* temporal
    uniqueness: rewriting the same block with a bumped version produces an
    unrelated ciphertext, which is what defeats known-plaintext replay.
    """

    def __init__(self, key: bytes) -> None:
        _require_bytes(key, "cipher key")
        if len(key) < 16:
            raise SecurityError("cipher key too short")
        self._inner, self._outer = _pad_states(key)

    def _keystream(self, address: int, version: int, length: int) -> bytes:
        """HMAC of ``address || version || i`` per 32-byte block ``i``, cut to ``length``."""
        inner, outer = self._inner, self._outer
        blocks = []
        for i in range((length + _DIGEST_SIZE - 1) // _DIGEST_SIZE):
            state = inner.copy()
            state.update(_KEYSTREAM_SEED.pack(address, version, i))
            result = outer.copy()
            result.update(state.digest())
            blocks.append(result.digest())
        return b"".join(blocks)[:length]

    def encrypt(self, address: int, version: int, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` bound to ``(address, version)``."""
        stream = self._keystream(address, version, len(plaintext))
        mixed = int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(len(plaintext), "big")

    #: Decrypt ``(address, version, ciphertext)``: the same XOR in counter mode.
    decrypt = encrypt


class MacKey:
    """Keyed MAC producing :data:`MAC_LENGTH`-byte tags."""

    def __init__(self, key: bytes) -> None:
        _require_bytes(key, "MAC key")
        if len(key) < 16:
            raise SecurityError("MAC key too short")
        self._inner, self._outer = _pad_states(key)

    def tag(self, *parts: bytes) -> bytes:
        """MAC over the concatenation of ``parts``, each after its 4-byte length."""
        state = self._inner.copy()
        update = state.update
        for part in parts:
            length = len(part)
            update(_SHORT_PREFIXES[length] if length < 256 else _LENGTH_PREFIX.pack(length))
            update(part)
        result = self._outer.copy()
        result.update(state.digest())
        return result.digest()[:MAC_LENGTH]

    def verify(self, expected: bytes, *parts: bytes) -> bool:
        """Constant-time comparison of ``expected`` against the fresh tag.

        Computes the tag as :meth:`tag` does, inline: most of a tree
        walk's MACs are checks, and calling :meth:`tag` would add a
        Python call to each.
        """
        state = self._inner.copy()
        update = state.update
        for part in parts:
            length = len(part)
            update(_SHORT_PREFIXES[length] if length < 256 else _LENGTH_PREFIX.pack(length))
            update(part)
        result = self._outer.copy()
        result.update(state.digest())
        return hmac.compare_digest(expected, result.digest()[:MAC_LENGTH])


def pack_counter(value: int) -> bytes:
    """Serialize a 64-bit counter for MAC input / DRAM storage."""
    return COUNTER.pack(value & COUNTER_WRAP)


def unpack_counter(data: bytes) -> int:
    """Inverse of :func:`pack_counter`."""
    if len(data) != 8:
        raise SecurityError(f"counter field must be 8 bytes, got {len(data)}")
    return COUNTER.unpack(data)[0]
