"""AES, ChaCha20, LegacyFeistel, and the one-time pad."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crypto.aes import (
    AesCtrCipher,
    aes_ctr_xor,
    aes_decrypt_block,
    aes_encrypt_block,
)
from repro.crypto.chacha20 import (
    ChaCha20Cipher,
    chacha20_keystream,
    chacha20_keystream_many,
    chacha20_xor,
    chacha20_xor_many,
)
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.feistel import LegacyFeistelCipher
from repro.crypto.otp import OneTimePad, PadKey, otp_xor
from repro.errors import KeyManagementError, ParameterError
from repro.obs import use_registry


class TestAesBlock:
    def test_fips197_aes128_vector(self):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        key = bytes.fromhex("000102030405060708090a0b0c0d0e0f")
        assert aes_encrypt_block(key, plaintext).hex() == (
            "69c4e0d86a7b0430d8cdb78070b4c55a"
        )

    def test_fips197_aes256_vector(self):
        plaintext = bytes.fromhex("00112233445566778899aabbccddeeff")
        key = bytes.fromhex(
            "000102030405060708090a0b0c0d0e0f101112131415161718191a1b1c1d1e1f"
        )
        assert aes_encrypt_block(key, plaintext).hex() == (
            "8ea2b7ca516745bfeafc49904b496089"
        )

    @given(st.binary(min_size=16, max_size=16), st.binary(min_size=32, max_size=32))
    @settings(max_examples=30, deadline=None)
    def test_decrypt_inverts_encrypt(self, block, key):
        assert aes_decrypt_block(key, aes_encrypt_block(key, block)) == block

    def test_wrong_block_size_rejected(self):
        with pytest.raises(ParameterError):
            aes_encrypt_block(b"\x00" * 16, b"short")

    def test_wrong_key_size_rejected(self):
        with pytest.raises(ParameterError):
            aes_encrypt_block(b"\x00" * 17, b"\x00" * 16)


class TestAesCtr:
    @given(st.binary(min_size=0, max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        key, nonce = b"\x01" * 32, b"\x02" * 12
        assert aes_ctr_xor(key, nonce, aes_ctr_xor(key, nonce, data)) == data

    def test_different_nonces_differ(self):
        key = b"\x01" * 32
        data = b"\x00" * 64
        assert aes_ctr_xor(key, b"\x02" * 12, data) != aes_ctr_xor(key, b"\x03" * 12, data)

    def test_counter_offset_consistency(self):
        key, nonce = b"\x09" * 32, b"\x07" * 12
        full = aes_ctr_xor(key, nonce, b"\x00" * 64)
        tail = aes_ctr_xor(key, nonce, b"\x00" * 48, initial_counter=1)
        assert full[16:] == tail

    def test_nonce_length_enforced(self):
        with pytest.raises(ParameterError):
            aes_ctr_xor(b"\x00" * 32, b"\x00" * 11, b"data")

    def test_counter_overflow_rejected(self):
        with pytest.raises(ParameterError):
            aes_ctr_xor(b"\x00" * 32, b"\x00" * 12, b"\x00" * 32, initial_counter=(1 << 32) - 1)

    def test_cipher_wrapper_roundtrip(self):
        cipher = AesCtrCipher()
        key, nonce = b"\x05" * 32, b"\x06" * 12
        ct = cipher.encrypt(key, nonce, b"wrapper")
        assert cipher.decrypt(key, nonce, ct) == b"wrapper"

    def test_cipher_wrapper_names(self):
        assert AesCtrCipher(16).name == "aes-128-ctr"
        assert AesCtrCipher(32).name == "aes-256-ctr"
        with pytest.raises(ParameterError):
            AesCtrCipher(24)

    def test_cipher_wrapper_key_check(self):
        cipher = AesCtrCipher(32)
        with pytest.raises(ParameterError):
            cipher.encrypt(b"\x00" * 16, b"\x00" * 12, b"x")


class TestChaCha20:
    def test_rfc8439_example(self):
        key = bytes(range(32))
        nonce = bytes.fromhex("000000000000004a00000000")
        plaintext = (
            b"Ladies and Gentlemen of the class of '99: If I could offer you "
            b"only one tip for the future, sunscreen would be it."
        )
        ciphertext = chacha20_xor(key, nonce, plaintext, counter=1)
        assert ciphertext.hex().startswith(
            "6e2e359a2568f98041ba0728dd0d6981e97e7aec1d4360c20a27afccfd9fae0b"
        )

    @given(st.binary(min_size=0, max_size=5000))
    @settings(max_examples=30, deadline=None)
    def test_roundtrip(self, data):
        key, nonce = b"\x0a" * 32, b"\x0b" * 12
        assert chacha20_xor(key, nonce, chacha20_xor(key, nonce, data)) == data

    def test_keystream_counter_offset(self):
        key, nonce = b"\x01" * 32, b"\x02" * 12
        full = chacha20_keystream(key, nonce, 192)
        offset = chacha20_keystream(key, nonce, 128, counter=1)
        assert full[64:] == offset

    def test_key_size_enforced(self):
        with pytest.raises(ParameterError):
            chacha20_keystream(b"short", b"\x00" * 12, 10)

    def test_nonce_size_enforced(self):
        with pytest.raises(ParameterError):
            chacha20_keystream(b"\x00" * 32, b"\x00" * 8, 10)

    def test_zero_length(self):
        assert chacha20_keystream(b"\x00" * 32, b"\x00" * 12, 0) == b""

    def test_wrapper(self):
        cipher = ChaCha20Cipher()
        key, nonce = b"\x00" * 32, b"\x00" * 12
        assert cipher.decrypt(key, nonce, cipher.encrypt(key, nonce, b"hi")) == b"hi"


def _chacha20_counters(registry) -> dict:
    counters = registry.snapshot()["counters"]
    return {
        name: value
        for name, value in counters.items()
        if name.endswith("{cipher=chacha20}")
    }


class TestChaCha20Batch:
    """All-or-nothing validation and per-message accounting of batches."""

    GOOD = (b"\x01" * 32, b"\x02" * 12, 100, 0)

    def test_batch_equals_single_calls(self):
        specs = [
            (b"\x01" * 32, b"\x02" * 12, 100, 0),
            (b"\x03" * 32, b"\x04" * 12, 0, 5),
            (b"\x05" * 32, b"\x06" * 12, 64, 9),
            (b"\x01" * 32, b"\x02" * 12, 129, 1),
        ]
        assert chacha20_keystream_many(specs) == [chacha20_keystream(*s) for s in specs]
        messages = [(k, n, bytes(range(length)), c) for k, n, length, c in specs]
        assert chacha20_xor_many(messages) == [chacha20_xor(*m) for m in messages]

    @pytest.mark.parametrize(
        "bad",
        [
            (b"short", b"\x00" * 12, 10, 0),
            (b"\x00" * 32, b"\x00" * 8, 10, 0),
            (b"\x00" * 32, b"\x00" * 12, 65, (1 << 32) - 1),
            (b"\x00" * 32, b"\x00" * 12, 10, -1),
        ],
        ids=["key", "nonce", "counter-overflow", "negative-counter"],
    )
    def test_one_bad_spec_rejects_the_batch_before_counting(self, bad):
        with use_registry() as registry:
            with pytest.raises(ParameterError):
                chacha20_keystream_many([self.GOOD, bad, self.GOOD])
            key, nonce, length, counter = bad
            with pytest.raises(ParameterError):
                chacha20_xor_many(
                    [(b"\x01" * 32, b"\x02" * 12, b"x" * 50), (key, nonce, b"y" * length, counter)]
                )
            assert _chacha20_counters(registry) == {}

    def test_counter_may_end_exactly_at_the_limit(self):
        key, nonce = b"\x07" * 32, b"\x08" * 12
        assert len(chacha20_keystream(key, nonce, 128, counter=(1 << 32) - 2)) == 128

    def test_counts_one_call_per_non_empty_message(self):
        with use_registry() as registry:
            streams = chacha20_keystream_many(
                [
                    self.GOOD,
                    (b"\x01" * 32, b"\x02" * 12, 0, 0),
                    (b"\x09" * 32, b"\x02" * 12, 30, 2),
                ]
            )
            assert [len(s) for s in streams] == [100, 0, 30]
            assert _chacha20_counters(registry) == {
                "crypto_cipher_calls_total{cipher=chacha20}": 2,
                "crypto_cipher_bytes_total{cipher=chacha20}": 130,
            }

    def test_empty_messages_count_nothing(self):
        with use_registry() as registry:
            assert chacha20_keystream_many([(b"\x01" * 32, b"\x02" * 12, 0, 0)]) == [b""]
            assert chacha20_xor_many([(b"\x01" * 32, b"\x02" * 12, b"")]) == [b""]
            assert chacha20_xor_many([]) == []
            assert _chacha20_counters(registry) == {}


class TestLegacyFeistel:
    def test_block_roundtrip(self):
        cipher = LegacyFeistelCipher()
        key = b"\x11" * 16
        for block in (b"\x00" * 8, b"12345678", b"\xff" * 8):
            assert cipher.decrypt_block(key, cipher.encrypt_block(key, block)) == block

    def test_stream_roundtrip(self):
        cipher = LegacyFeistelCipher()
        key, nonce = b"\x22" * 16, b"\x00" * 12
        data = b"legacy data" * 20
        assert cipher.decrypt(key, nonce, cipher.encrypt(key, nonce, data)) == data

    def test_effective_key_truncation(self):
        """Two keys agreeing on the low effective bits encrypt identically --
        the modeled keyspace collapse."""
        cipher = LegacyFeistelCipher(effective_key_bits=16)
        low_bits = (12345).to_bytes(16, "big")
        high_junk = ((0xABC << 100) | 12345).to_bytes(16, "big")
        block = b"ABCDEFGH"
        assert cipher.encrypt_block(low_bits, block) == cipher.encrypt_block(high_junk, block)

    def test_brute_force_recovers_key(self):
        cipher = LegacyFeistelCipher(effective_key_bits=12)
        key = (1234).to_bytes(16, "big")
        block = b"known!!!"
        found = cipher.recover_key_by_brute_force(block, cipher.encrypt_block(key, block))
        assert found is not None
        assert cipher.encrypt_block(found, block) == cipher.encrypt_block(key, block)

    def test_brute_force_can_fail(self):
        cipher = LegacyFeistelCipher(effective_key_bits=8)
        # A ciphertext no 8-bit key produces for this plaintext (overwhelmingly).
        assert cipher.recover_key_by_brute_force(b"\x00" * 8, b"\xde\xad\xbe\xef\x99\x99\x99\x99") is None

    def test_parameter_validation(self):
        with pytest.raises(ParameterError):
            LegacyFeistelCipher(effective_key_bits=4)
        with pytest.raises(ParameterError):
            LegacyFeistelCipher().encrypt_block(b"short", b"\x00" * 8)


class TestOneTimePad:
    def test_xor_roundtrip(self):
        key = bytes(range(100))
        data = b"pad me" * 10
        assert otp_xor(key, otp_xor(key, data)) == data

    def test_short_key_rejected(self):
        with pytest.raises(ParameterError):
            otp_xor(b"ab", b"longer than key")

    def test_pad_key_single_use(self):
        pad = PadKey(b"\x01" * 10)
        assert pad.take(6) == b"\x01" * 6
        assert pad.remaining == 4
        with pytest.raises(KeyManagementError):
            pad.take(5)

    def test_pad_cipher_consumes(self):
        rng = DeterministicRandom(0)
        material = rng.bytes(64)
        otp = OneTimePad()
        enc_pad, dec_pad = PadKey(material), PadKey(material)
        ct = otp.encrypt_with_pad(enc_pad, b"secret message")
        assert otp.decrypt_with_pad(dec_pad, ct) == b"secret message"
        assert enc_pad.remaining == 64 - 14

    def test_perfect_secrecy_statistically(self):
        """Ciphertexts of all-zero and all-one messages are indistinguishable
        under fresh pads (mean test, epsilon = 0 in Definition 2.1)."""
        rng = DeterministicRandom(1)
        import numpy as np

        means = {0: [], 1: []}
        for label, message in ((0, b"\x00" * 256), (1, b"\xff" * 256)):
            for _ in range(50):
                ct = otp_xor(rng.bytes(256), message)
                means[label].append(np.frombuffer(ct, dtype=np.uint8).mean())
        assert abs(np.mean(means[0]) - np.mean(means[1])) < 5.0
