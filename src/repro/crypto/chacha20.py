"""ChaCha20 stream cipher (RFC 8439 variant, 32-bit block counter).

One numpy kernel, :func:`chacha20_keystream_many`, computes the keystream of
a whole batch of messages in a single 20-round pass:

- The state is a ``(16, sum-of-blocks)`` uint32 array.  Every 64-byte block
  of every message is one column, and each column carries its own message's
  key, nonce and block counter.
- The rounds are lane-vectorised: the 16 state rows are four ``(4, N)``
  slabs (rows ``a``, ``b``, ``c``, ``d`` of the RFC's 4x4 matrix), so one
  numpy operation advances four quarter rounds at once.  The diagonal round
  rotates the ``b``/``c``/``d`` slabs by 1/2/3 rows into scratch buffers
  first and rotates them back after.  All arithmetic runs in place with
  preallocated ``out=`` temporaries.
- Batches longer than ``_CHUNK_BLOCKS`` columns run the rounds chunk by
  chunk, so the slabs stay cache-sized; columns are independent, so the
  chunking is invisible in the output.

A short message costs about as much as the numpy call overhead of the
rounds, whatever its length, so batching the shares of one placement into
one pass is what makes a pure-Python archive able to move them quickly.
:func:`chacha20_keystream` and :func:`chacha20_xor` are batches of one.
Correctness is pinned to the RFC 8439 test vector and to the
``cryptography`` package's ChaCha20 in the test suite.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

import numpy as np

from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ParameterError
from repro.obs import metrics as _metrics

KEY_SIZE = 32
NONCE_SIZE = 12
BLOCK_SIZE = 64

_CONSTANTS = np.frombuffer(b"expand 32-byte k", dtype="<u4").copy()
_COUNTER_LIMIT = 1 << 32
#: Columns per round pass (512 KiB of keystream).  Longer batches run in
#: chunks so the round slabs stay cache-sized: 2 and 4 MiB keystreams ran
#: 15-26% faster chunked than in one pass, 1 MiB about the same.
_CHUNK_BLOCKS = 8192

# Row orders that line the diagonals of the 4x4 matrix up as columns
# (b, c, d rotated left by 1, 2, 3 rows) and the orders that undo them.
_DIAGONALIZE = (
    np.array([1, 2, 3, 0]),
    np.array([2, 3, 0, 1]),
    np.array([3, 0, 1, 2]),
)
_UNDIAGONALIZE = (
    np.array([3, 0, 1, 2]),
    np.array([2, 3, 0, 1]),
    np.array([1, 2, 3, 0]),
)


class KeystreamSpec(NamedTuple):
    """One message of a keystream batch."""

    key: bytes
    nonce: bytes
    length: int
    counter: int = 0


def _rotl_inplace(x: np.ndarray, n: int, tmp: np.ndarray) -> None:
    np.right_shift(x, 32 - n, out=tmp)
    np.left_shift(x, n, out=x)
    np.bitwise_or(x, tmp, out=x)


def _quarter_rounds(
    a: np.ndarray, b: np.ndarray, c: np.ndarray, d: np.ndarray, tmp: np.ndarray
) -> None:
    """Four quarter rounds at once: lane i runs QR(a[i], b[i], c[i], d[i])."""
    np.add(a, b, out=a)
    np.bitwise_xor(d, a, out=d)
    _rotl_inplace(d, 16, tmp)
    np.add(c, d, out=c)
    np.bitwise_xor(b, c, out=b)
    _rotl_inplace(b, 12, tmp)
    np.add(a, b, out=a)
    np.bitwise_xor(d, a, out=d)
    _rotl_inplace(d, 8, tmp)
    np.add(c, d, out=c)
    np.bitwise_xor(b, c, out=b)
    _rotl_inplace(b, 7, tmp)


def _validate(specs: list[KeystreamSpec]) -> list[int]:
    """Check every spec before any work; return each message's block count."""
    blocks = []
    for spec in specs:
        if len(spec.key) != KEY_SIZE:
            raise ParameterError(f"ChaCha20 key must be {KEY_SIZE} bytes")
        if len(spec.nonce) != NONCE_SIZE:
            raise ParameterError(f"ChaCha20 nonce must be {NONCE_SIZE} bytes")
        n_blocks = -(-spec.length // BLOCK_SIZE) if spec.length > 0 else 0
        if n_blocks and not 0 <= spec.counter <= _COUNTER_LIMIT - n_blocks:
            raise ParameterError("ChaCha20 block counter would overflow")
        blocks.append(n_blocks)
    return blocks


def _keystream_blocks(specs: list[KeystreamSpec], blocks: list[int]) -> np.ndarray:
    """The keystream of every message (each with ``blocks[i] > 0``),
    block-major, as one flat uint8 array: message i's blocks follow
    message i-1's."""
    counts = np.array(blocks, dtype=np.int64)
    total = int(counts.sum())
    keys = np.frombuffer(b"".join(spec.key for spec in specs), dtype="<u4")
    nonces = np.frombuffer(b"".join(spec.nonce for spec in specs), dtype="<u4")
    starts = np.array([spec.counter for spec in specs], dtype=np.int64)
    offsets = np.cumsum(counts) - counts

    state = np.empty((16, total), dtype=np.uint32)
    state[0:4] = _CONSTANTS[:, None]
    state[4:12] = np.repeat(keys.reshape(-1, 8), counts, axis=0).T
    state[12] = np.arange(total, dtype=np.int64) + np.repeat(starts - offsets, counts)
    state[13:16] = np.repeat(nonces.reshape(-1, 3), counts, axis=0).T

    stream = np.empty((total, 16), dtype="<u4")
    for start in range(0, total, _CHUNK_BLOCKS):
        chunk = np.ascontiguousarray(state[:, start : start + _CHUNK_BLOCKS])
        # Serialize: block-major, word-minor, little-endian.
        stream[start : start + _CHUNK_BLOCKS] = _block_function(chunk).T
    return stream.view(np.uint8).reshape(-1)


def _block_function(state: np.ndarray) -> np.ndarray:
    """The 20 ChaCha20 rounds plus the final addition, on every column."""
    working = state.copy()
    a, b, c, d = working[0:4], working[4:8], working[8:12], working[12:16]
    b2, c2, d2 = np.empty_like(b), np.empty_like(c), np.empty_like(d)
    tmp = np.empty_like(a)
    for _ in range(10):  # 20 rounds = 10 double rounds
        _quarter_rounds(a, b, c, d, tmp)
        np.take(b, _DIAGONALIZE[0], axis=0, out=b2, mode="clip")
        np.take(c, _DIAGONALIZE[1], axis=0, out=c2, mode="clip")
        np.take(d, _DIAGONALIZE[2], axis=0, out=d2, mode="clip")
        _quarter_rounds(a, b2, c2, d2, tmp)
        np.take(b2, _UNDIAGONALIZE[0], axis=0, out=b, mode="clip")
        np.take(c2, _UNDIAGONALIZE[1], axis=0, out=c, mode="clip")
        np.take(d2, _UNDIAGONALIZE[2], axis=0, out=d, mode="clip")
    working += state
    return working


def _keystream_views(specs: Iterable) -> list[np.ndarray | None]:
    """Validate *specs*, count them, and return each message's keystream as
    a uint8 view (``None`` for empty messages)."""
    specs = [KeystreamSpec(*spec) for spec in specs]
    blocks = _validate(specs)
    views: list[np.ndarray | None] = [None] * len(specs)
    live = [i for i, n in enumerate(blocks) if n]
    if not live:
        return views
    _metrics.inc("crypto_cipher_calls_total", len(live), cipher="chacha20")
    _metrics.inc(
        "crypto_cipher_bytes_total", sum(specs[i].length for i in live), cipher="chacha20"
    )
    stream = _keystream_blocks([specs[i] for i in live], [blocks[i] for i in live])
    offset = 0
    for i in live:
        views[i] = stream[offset : offset + specs[i].length]
        offset += blocks[i] * BLOCK_SIZE
    return views


def chacha20_keystream_many(specs: Iterable) -> list[bytes]:
    """Keystreams for a batch of ``(key, nonce, length, counter)`` specs.

    Every spec is validated before any output is produced: one bad key,
    nonce or counter range raises :class:`ParameterError` for the whole
    batch.  Messages of length <= 0 yield ``b""``.
    """
    return [b"" if view is None else view.tobytes() for view in _keystream_views(specs)]


def chacha20_xor_many(messages: Iterable) -> list[bytes]:
    """Encrypt/decrypt a batch of ``(key, nonce, data, counter)`` messages
    (``counter`` may be omitted; it defaults to 0) in one keystream pass."""
    messages = list(messages)
    specs = [(m[0], m[1], len(m[2]), *m[3:]) for m in messages]
    return [
        b""
        if view is None
        else np.bitwise_xor(np.frombuffer(m[2], dtype=np.uint8), view).tobytes()
        for m, view in zip(messages, _keystream_views(specs))
    ]


def chacha20_keystream(key: bytes, nonce: bytes, length: int, counter: int = 0) -> bytes:
    """Generate *length* keystream bytes for (key, nonce) starting at block
    *counter*."""
    return chacha20_keystream_many([(key, nonce, length, counter)])[0]


def chacha20_xor(key: bytes, nonce: bytes, data: bytes, counter: int = 0) -> bytes:
    """Encrypt/decrypt *data* (the operation is its own inverse)."""
    return chacha20_xor_many([(key, nonce, data, counter)])[0]


class ChaCha20Cipher:
    """Cipher-interface wrapper around ChaCha20 (see ``registry`` docs).

    Stateless: key and nonce are per call.  ``nonce_size`` and ``key_size``
    let generic archival code allocate material without special cases.
    """

    name = "chacha20"
    key_size = KEY_SIZE
    nonce_size = NONCE_SIZE

    def encrypt(self, key: bytes, nonce: bytes, plaintext: bytes) -> bytes:
        return chacha20_xor(key, nonce, plaintext)

    def decrypt(self, key: bytes, nonce: bytes, ciphertext: bytes) -> bytes:
        return chacha20_xor(key, nonce, ciphertext)


register_primitive(
    name="chacha20",
    kind=PrimitiveKind.CIPHER,
    description="ChaCha20 stream cipher (RFC 8439), 256-bit key",
    hardness_assumption="ARX permutation is a PRF",
)
