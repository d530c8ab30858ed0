"""Differential tests of the library's primitives against ``cryptography``.

The ``cryptography`` package is an independent implementation of ChaCha20,
AES-CTR, SHA-256, HMAC and HKDF; it is a test-only oracle (the library does
not depend on it).  Each case is seeded, so a failure replays exactly.
"""

import hashlib
import hmac
import random

import pytest

cryptography = pytest.importorskip("cryptography")

from cryptography.hazmat.primitives import hashes  # noqa: E402
from cryptography.hazmat.primitives.ciphers import Cipher, algorithms, modes  # noqa: E402
from cryptography.hazmat.primitives.kdf.hkdf import HKDF  # noqa: E402

from repro.crypto.aes import aes_ctr_xor  # noqa: E402
from repro.crypto.chacha20 import (  # noqa: E402
    chacha20_keystream,
    chacha20_keystream_many,
    chacha20_xor,
    chacha20_xor_many,
)
from repro.crypto.hmac_ import hmac_sha256  # noqa: E402
from repro.crypto.kdf import hkdf  # noqa: E402
from repro.crypto.sha256 import sha256, sha256_pure  # noqa: E402

#: Message lengths around the 64-byte block edges, odd sizes, and one
#: message longer than 64 KiB.
LENGTHS = (0, 1, 63, 64, 65, 127, 1000, 4097, 70_001)


def oracle_chacha20(key: bytes, nonce: bytes, data: bytes, counter: int = 0) -> bytes:
    """RFC 8439 ChaCha20 via ``cryptography``: its 16-byte nonce is the
    little-endian 32-bit block counter followed by the 12-byte nonce."""
    full_nonce = counter.to_bytes(4, "little") + nonce
    return Cipher(algorithms.ChaCha20(key, full_nonce), mode=None).encryptor().update(data)


def random_message(rng: random.Random) -> tuple[bytes, bytes, bytes, int]:
    length = rng.choice(LENGTHS)
    blocks = -(-length // 64)
    # Counters from 0 up to the last start that still fits 32 bits.
    counter = rng.choice([0, 1, rng.randrange(1 << 20), (1 << 32) - max(blocks, 1)])
    return rng.randbytes(32), rng.randbytes(12), rng.randbytes(length), counter


class TestChaCha20Oracle:
    @pytest.mark.parametrize("length", LENGTHS)
    def test_single_message_matches(self, length):
        rng = random.Random(length)
        key, nonce, data = rng.randbytes(32), rng.randbytes(12), rng.randbytes(length)
        assert chacha20_xor(key, nonce, data) == oracle_chacha20(key, nonce, data)

    @pytest.mark.parametrize("counter", [0, 1, 7, 1 << 31, (1 << 32) - 1200])
    def test_counters_match(self, counter):
        rng = random.Random(counter)
        key, nonce, data = rng.randbytes(32), rng.randbytes(12), rng.randbytes(1000)
        assert chacha20_xor(key, nonce, data, counter) == oracle_chacha20(
            key, nonce, data, counter
        )

    @pytest.mark.parametrize("seed", range(12))
    def test_batches_match(self, seed):
        """Batches of 1-9 messages with mixed keys, nonces, counters and
        lengths: each output equals the oracle on that message alone."""
        rng = random.Random(seed)
        messages = [random_message(rng) for _ in range(rng.randint(1, 9))]
        expected = [oracle_chacha20(*message) for message in messages]
        assert chacha20_xor_many(messages) == expected
        streams = chacha20_keystream_many(
            [(key, nonce, len(data), counter) for key, nonce, data, counter in messages]
        )
        assert streams == [
            oracle_chacha20(key, nonce, bytes(len(data)), counter)
            for key, nonce, data, counter in messages
        ]

    def test_batch_spanning_round_chunks_matches(self):
        """Messages longer than one round chunk, and messages straddling a
        chunk boundary, come out as the oracle computes them."""
        rng = random.Random(2024)
        messages = [
            (rng.randbytes(32), rng.randbytes(12), rng.randbytes(length), counter)
            for length, counter in ((300_000, 5), (700_001, 0), (65, 1 << 31), (1, 0))
        ]
        assert chacha20_xor_many(messages) == [oracle_chacha20(*m) for m in messages]

    def test_batch_of_one_is_the_single_call(self):
        rng = random.Random(99)
        key, nonce = rng.randbytes(32), rng.randbytes(12)
        assert chacha20_keystream_many([(key, nonce, 200, 3)]) == [
            chacha20_keystream(key, nonce, 200, counter=3)
        ]


class TestAesCtrOracle:
    @pytest.mark.parametrize("key_size", [16, 32])
    @pytest.mark.parametrize("length", LENGTHS)
    def test_matches(self, key_size, length):
        rng = random.Random(key_size * 1000 + length)
        key, nonce, data = rng.randbytes(key_size), rng.randbytes(12), rng.randbytes(length)
        counter = rng.randrange(1 << 16)
        # The library's counter block is the 12-byte nonce followed by a
        # big-endian 32-bit block counter.
        iv = nonce + counter.to_bytes(4, "big")
        expected = Cipher(algorithms.AES(key), modes.CTR(iv)).encryptor().update(data)
        assert aes_ctr_xor(key, nonce, data, counter) == expected


class TestHashOracle:
    @pytest.mark.parametrize("length", LENGTHS + (55, 56, 119, 120))
    def test_sha256_matches(self, length):
        data = random.Random(length).randbytes(length)
        digest = hashes.Hash(hashes.SHA256())
        digest.update(data)
        expected = digest.finalize()
        assert sha256(data) == expected
        assert sha256_pure(data) == expected

    @pytest.mark.parametrize("key_length", [0, 1, 32, 64, 65, 200])
    def test_hmac_sha256_matches(self, key_length):
        rng = random.Random(key_length)
        key, message = rng.randbytes(key_length), rng.randbytes(rng.choice(LENGTHS))
        assert hmac_sha256(key, message) == hmac.new(key, message, hashlib.sha256).digest()

    @pytest.mark.parametrize("seed", range(8))
    def test_hkdf_matches(self, seed):
        rng = random.Random(seed)
        ikm = rng.randbytes(rng.choice([1, 22, 32, 80]))
        salt = rng.choice([b"", rng.randbytes(13), rng.randbytes(32)])
        info = rng.choice([b"", b"msg-0", rng.randbytes(40)])
        length = rng.choice([1, 16, 32, 33, 64, 100, 255 * 32])
        expected = HKDF(
            algorithm=hashes.SHA256(), length=length, salt=salt or None, info=info
        ).derive(ikm)
        assert hkdf(ikm, length, salt=salt, info=info) == expected
