"""Stdlib crypto primitives for the MEE model.

The real MEE uses AES-CTR encryption and a Carter-Wegman MAC keyed from
fuses.  We need the same *structure* — deterministic keystream addressed
by (spatial address, version counter), and a keyed tamper-evident tag —
and build both from HMAC-SHA256, which the Python standard library
provides.  The security argument of the paper (confidentiality, integrity,
freshness for the context while in DRAM) maps one-to-one onto these
primitives.
"""

from __future__ import annotations

import hashlib
import hmac
import struct

from repro.errors import SecurityError

MAC_LENGTH = 8  # bytes; SGX's MEE uses 56-bit MACs, we round to 8 bytes
_DIGEST_SIZE = hashlib.sha256().digest_size
_LENGTH_PREFIX = struct.Struct(">I")
_KEYSTREAM_SEED = struct.Struct(">QQI")


def derive_key(master: bytes, label: str) -> bytes:
    """Domain-separated subkey derivation (encryption vs MAC vs tree)."""
    if not master:
        raise SecurityError("empty master key")
    return hmac.new(master, label.encode("utf-8"), hashlib.sha256).digest()


class CtrCipher:
    """Counter-mode cipher: keystream = PRF(key, address || version || i).

    Encryption and decryption are the same XOR operation.  Using the
    (address, version) pair as the nonce gives spatial *and* temporal
    uniqueness: rewriting the same block with a bumped version produces an
    unrelated ciphertext, which is what defeats known-plaintext replay.
    """

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise SecurityError("cipher key too short")
        # keyed once; each PRF call copies it (same digest as a fresh HMAC)
        self._prf = hmac.new(key, digestmod=hashlib.sha256)

    def _digest(self, message: bytes) -> bytes:
        prf = self._prf.copy()
        prf.update(message)
        return prf.digest()

    def _keystream(self, address: int, version: int, length: int) -> bytes:
        return b"".join([
            self._digest(_KEYSTREAM_SEED.pack(address, version, i))
            for i in range((length + _DIGEST_SIZE - 1) // _DIGEST_SIZE)
        ])[:length]

    def encrypt(self, address: int, version: int, plaintext: bytes) -> bytes:
        """Encrypt ``plaintext`` bound to ``(address, version)``."""
        stream = self._keystream(address, version, len(plaintext))
        mixed = int.from_bytes(plaintext, "big") ^ int.from_bytes(stream, "big")
        return mixed.to_bytes(len(plaintext), "big")

    def decrypt(self, address: int, version: int, ciphertext: bytes) -> bytes:
        """Decrypt; identical to :meth:`encrypt` in counter mode."""
        return self.encrypt(address, version, ciphertext)


class MacKey:
    """Keyed MAC producing :data:`MAC_LENGTH`-byte tags."""

    def __init__(self, key: bytes) -> None:
        if len(key) < 16:
            raise SecurityError("MAC key too short")
        self._mac = hmac.new(key, digestmod=hashlib.sha256)

    def tag(self, *parts: bytes) -> bytes:
        """MAC over the concatenation of ``parts`` (length-prefixed)."""
        mac = self._mac.copy()
        mac.update(b"".join([_LENGTH_PREFIX.pack(len(part)) + part for part in parts]))
        return mac.digest()[:MAC_LENGTH]

    def verify(self, expected: bytes, *parts: bytes) -> bool:
        """Constant-time comparison of ``expected`` against the fresh tag."""
        return hmac.compare_digest(expected, self.tag(*parts))


def pack_counter(value: int) -> bytes:
    """Serialize a 64-bit counter for MAC input / DRAM storage."""
    return struct.pack(">Q", value & ((1 << 64) - 1))


def unpack_counter(data: bytes) -> int:
    """Inverse of :func:`pack_counter`."""
    if len(data) != 8:
        raise SecurityError(f"counter field must be 8 bytes, got {len(data)}")
    return struct.unpack(">Q", data)[0]
