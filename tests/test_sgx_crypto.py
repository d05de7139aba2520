"""Tests for the MEE crypto primitives."""

import hashlib
import hmac
import struct

import pytest
from hypothesis import given, settings, strategies as st

from repro.errors import SecurityError
from repro.sgx.crypto import (
    CtrCipher,
    MacKey,
    derive_key,
    pack_counter,
    unpack_counter,
)

MASTER = b"master-key-material-0123456789ab"


class TestKeyDerivation:
    def test_domain_separation(self):
        assert derive_key(MASTER, "encrypt") != derive_key(MASTER, "mac")

    def test_deterministic(self):
        assert derive_key(MASTER, "x") == derive_key(MASTER, "x")

    def test_empty_master_rejected(self):
        with pytest.raises(SecurityError):
            derive_key(b"", "x")

    def test_str_master_rejected(self):
        with pytest.raises(SecurityError, match="must be bytes"):
            derive_key("m" * 32, "x")

    @pytest.mark.parametrize("key, label, expected", [
        # RFC 4231 test case 1: a 20-byte key
        (b"\x0b" * 20, "Hi There",
         "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7"),
        # test case 6: a 131-byte key, hashed before padding
        (b"\xaa" * 131, "Test Using Larger Than Block-Size Key - Hash Key First",
         "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54"),
        # test case 7: the same key over a message longer than a block
        (b"\xaa" * 131,
         "This is a test using a larger than block-size key and a larger than "
         "block-size data. The key needs to be hashed before being used by the "
         "HMAC algorithm.",
         "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"),
    ])
    def test_rfc4231_vectors(self, key, label, expected):
        """derive_key is HMAC-SHA256(master, label) from the key's pad states."""
        assert derive_key(key, label).hex() == expected


class TestCtrCipher:
    def setup_method(self):
        self.cipher = CtrCipher(derive_key(MASTER, "enc"))

    def test_roundtrip(self):
        plaintext = b"the processor context" * 3
        ciphertext = self.cipher.encrypt(0x1000, 7, plaintext)
        assert self.cipher.decrypt(0x1000, 7, ciphertext) == plaintext

    def test_ciphertext_differs_from_plaintext(self):
        plaintext = bytes(64)
        assert self.cipher.encrypt(0, 0, plaintext) != plaintext

    def test_version_changes_keystream(self):
        """Temporal uniqueness: bumping the version re-keys the block."""
        plaintext = bytes(64)
        assert self.cipher.encrypt(0, 1, plaintext) != self.cipher.encrypt(0, 2, plaintext)

    def test_address_changes_keystream(self):
        """Spatial uniqueness: same data at different addresses differs."""
        plaintext = bytes(64)
        assert self.cipher.encrypt(0, 1, plaintext) != self.cipher.encrypt(64, 1, plaintext)

    def test_short_key_rejected(self):
        with pytest.raises(SecurityError):
            CtrCipher(b"short")

    def test_str_key_rejected(self):
        with pytest.raises(SecurityError, match="must be bytes"):
            CtrCipher("k" * 32)

    @given(st.binary(min_size=0, max_size=300), st.integers(0, 2**63), st.integers(0, 2**63))
    @settings(max_examples=40, deadline=None)
    def test_roundtrip_property(self, data, address, version):
        ciphertext = self.cipher.encrypt(address, version, data)
        assert len(ciphertext) == len(data)
        assert self.cipher.decrypt(address, version, ciphertext) == data


class TestMac:
    def setup_method(self):
        self.mac = MacKey(derive_key(MASTER, "mac"))

    def test_verify_accepts_genuine_tag(self):
        tag = self.mac.tag(b"part1", b"part2")
        assert self.mac.verify(tag, b"part1", b"part2")

    def test_verify_rejects_tampered_content(self):
        tag = self.mac.tag(b"part1", b"part2")
        assert not self.mac.verify(tag, b"part1", b"partX")

    def test_length_prefixing_prevents_boundary_shifts(self):
        """('ab','c') and ('a','bc') must not collide."""
        assert self.mac.tag(b"ab", b"c") != self.mac.tag(b"a", b"bc")

    def test_different_keys_different_tags(self):
        other = MacKey(derive_key(MASTER, "other"))
        assert self.mac.tag(b"data") != other.tag(b"data")

    def test_tag_length(self):
        assert len(self.mac.tag(b"x")) == 8

    def test_str_key_rejected(self):
        with pytest.raises(SecurityError, match="must be bytes"):
            MacKey("k" * 32)


def reference_tag(key: bytes, *parts: bytes) -> bytes:
    """The MAC as one fresh ``hmac.new`` over the length-prefixed parts."""
    message = b"".join(struct.pack(">I", len(part)) + part for part in parts)
    return hmac.new(key, message, hashlib.sha256).digest()[:8]


def reference_encrypt(key: bytes, address: int, version: int, plaintext: bytes) -> bytes:
    """Counter mode with one fresh ``hmac.new`` per 32-byte keystream block."""
    stream = b"".join(
        hmac.new(key, struct.pack(">QQI", address, version, i), hashlib.sha256).digest()
        for i in range((len(plaintext) + 31) // 32)
    )
    return bytes(a ^ b for a, b in zip(plaintext, stream))


class TestAgainstStdlibHmac:
    """Pad-state HMAC equals ``hmac.new`` for keys on both sides of the 64-byte block."""

    keys = st.binary(min_size=16, max_size=200)

    @given(keys, st.lists(st.binary(max_size=100), max_size=5), st.booleans())
    @settings(max_examples=150, deadline=None)
    def test_tag_and_verify(self, key, parts, tamper):
        mac = MacKey(key)
        expected = reference_tag(key, *parts)
        assert mac.tag(*parts) == expected
        if tamper:
            expected = bytes([expected[0] ^ 1]) + expected[1:]
        assert mac.verify(expected, *parts) is not tamper

    @pytest.mark.parametrize("length", [0, 255, 256, 257, 4096])
    @pytest.mark.parametrize("key", [b"k" * 16, b"K" * 100])
    def test_tag_parts_across_the_prefix_table_edge(self, key, length):
        """Parts shorter than 256 bytes take their length prefix from a table,
        longer ones pack it; both equal the one-message HMAC."""
        mac = MacKey(key)
        part = bytes(range(256)) * (length // 256) + bytes(length % 256)
        for parts in ((part,), (b"label", part, b""), (part, part[:7])):
            expected = reference_tag(key, *parts)
            assert mac.tag(*parts) == expected
            assert mac.verify(expected, *parts)
            assert not mac.verify(bytes([expected[0] ^ 1]) + expected[1:], *parts)

    @given(keys, st.integers(0, 2**64 - 1), st.integers(0, 2**64 - 1),
           st.binary(max_size=200))
    @settings(max_examples=150, deadline=None)
    def test_encrypt_and_decrypt(self, key, address, version, data):
        cipher = CtrCipher(key)
        expected = reference_encrypt(key, address, version, data)
        assert cipher.encrypt(address, version, data) == expected
        assert cipher.decrypt(address, version, expected) == data

    @given(st.binary(min_size=1, max_size=200), st.text(max_size=40))
    @settings(max_examples=100, deadline=None)
    def test_derive_key(self, master, label):
        assert derive_key(master, label) == hmac.new(
            master, label.encode("utf-8"), hashlib.sha256
        ).digest()


class TestCounterSerialization:
    def test_roundtrip(self):
        assert unpack_counter(pack_counter(123456789)) == 123456789

    def test_wraps_at_64_bits(self):
        assert unpack_counter(pack_counter(2**64 + 5)) == 5

    def test_bad_length_rejected(self):
        with pytest.raises(SecurityError):
            unpack_counter(b"\x00" * 7)
