"""HKDF (RFC 5869) on HMAC-SHA256.

Used wherever the library needs to derive independent subkeys from one master
secret: per-layer cascade keys, per-object keys in the key manager, and
channel keys after BSM/QKD agreement.
"""

from __future__ import annotations

from repro.crypto.hmac_ import hmac_sha256
from repro.crypto.sha256 import DIGEST_SIZE
from repro.errors import ParameterError
from repro.obs import metrics as _metrics

_MAX_OUTPUT = 255 * DIGEST_SIZE


def hkdf_extract(salt: bytes, input_key_material: bytes) -> bytes:
    """HKDF-Extract: concentrate possibly non-uniform keying material."""
    if not salt:
        salt = b"\x00" * DIGEST_SIZE
    return hmac_sha256(salt, input_key_material)


def hkdf_expand(pseudo_random_key: bytes, info: bytes, length: int) -> bytes:
    """HKDF-Expand: stretch a PRK to *length* output bytes."""
    if not 0 < length <= _MAX_OUTPUT:
        raise ParameterError(f"HKDF output length must be in (0, {_MAX_OUTPUT}]")
    blocks = []
    previous = b""
    counter = 1
    while sum(len(b) for b in blocks) < length:
        previous = hmac_sha256(pseudo_random_key, previous + info + bytes([counter]))
        blocks.append(previous)
        counter += 1
    return b"".join(blocks)[:length]


def hkdf(
    input_key_material: bytes,
    length: int,
    salt: bytes = b"",
    info: bytes = b"",
) -> bytes:
    """One-shot HKDF: extract then expand."""
    return hkdf_derive(hkdf_extract(salt, input_key_material), length, info)


def hkdf_derive(pseudo_random_key: bytes, length: int, info: bytes = b"") -> bytes:
    """HKDF from an already-extracted PRK: the expand half of :func:`hkdf`,
    counted as one derived key.  Callers that derive many keys from one
    secret extract once and derive each key with this."""
    _metrics.inc("crypto_kdf_calls_total", kdf="hkdf")
    _metrics.inc("crypto_kdf_bytes_total", length, kdf="hkdf")
    return hkdf_expand(pseudo_random_key, info, length)


def derive_subkey(master: bytes, purpose: str, length: int = 32) -> bytes:
    """Derive a purpose-labelled subkey; distinct purposes are independent."""
    return hkdf(master, length, info=purpose.encode())
