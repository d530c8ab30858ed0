"""A TLS-like channel: computationally secure, harvestable.

Models the structure of a TLS 1.3-style session without pretending to be
one: an ephemeral Diffie-Hellman exchange in the library's Schnorr group
establishes a session secret, HKDF derives per-message keys, and ChaCha20
encrypts the payload.  The security classification is the point:
confidentiality rests on the DLP assumption plus the cipher, so a harvesting
adversary who records the handshake and the ciphertext decrypts everything
once either falls -- the scenario the paper's Section 3.2 closes with.

The session secret is HKDF-extracted once, at the handshake; each message
key is one HKDF-expand of that PRK, byte-identical to a full
``hkdf(session_secret, 32, info=b"msg-<seq>")``.  A batch of messages
(``send_many``/``receive_many``) shares one ChaCha20 kernel pass, and
``send``/``receive`` are batches of one.
"""

from __future__ import annotations

from repro.channels.base import SecureChannelBase, Transmission
from repro.crypto.chacha20 import chacha20_xor, chacha20_xor_many
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.kdf import hkdf, hkdf_derive, hkdf_extract
from repro.crypto.registry import PrimitiveKind, register_primitive
from repro.errors import ChannelError
from repro.gmath.primes import SchnorrGroup, default_group
from repro.security import SecurityNotion

_ZERO_NONCE = b"\x00" * 12


class TlsLikeChannel(SecureChannelBase):
    """Ephemeral-DH + ChaCha20 channel between two simulated endpoints."""

    name = "tls-like"
    notion = SecurityNotion.COMPUTATIONAL
    relies_on = ("toy-dh", "chacha20")

    def __init__(self, rng: DeterministicRandom, group: SchnorrGroup | None = None):
        super().__init__()
        self.group = group or default_group()
        # Ephemeral handshake: both exponents live only here.
        client_secret = rng.randrange(1, self.group.q)
        server_secret = rng.randrange(1, self.group.q)
        self.client_public = self.group.exp_g(client_secret)
        self.server_public = self.group.exp_g(server_secret)
        shared_point = pow(self.server_public, client_secret, self.group.p)
        self._session_secret = hkdf(
            shared_point.to_bytes((self.group.p.bit_length() + 7) // 8, "big"),
            32,
            info=b"tls-like session",
        )
        self._session_prk = hkdf_extract(b"", self._session_secret)

    def _message_key(self, sequence: int) -> bytes:
        return hkdf_derive(self._session_prk, 32, info=f"msg-{sequence}".encode())

    def send(self, plaintext: bytes) -> Transmission:
        return self.send_many([plaintext])[0]

    def receive(self, transmission: Transmission) -> bytes:
        return self.receive_many([transmission])[0]

    def send_many(self, plaintexts: list[bytes]) -> list[Transmission]:
        sequences = [self._next_sequence() for _ in plaintexts]
        wires = chacha20_xor_many(
            (self._message_key(sequence), _ZERO_NONCE, plaintext)
            for sequence, plaintext in zip(sequences, plaintexts)
        )
        self.bytes_sent += sum(len(wire) for wire in wires)
        return [
            Transmission(
                channel=self.name,
                sequence=sequence,
                wire=wire,
                # What breaking DLP/ChaCha20 would yield: the session secret.
                _escrow=self._session_secret,
            )
            for sequence, wire in zip(sequences, wires)
        ]

    def receive_many(self, transmissions: list[Transmission]) -> list[bytes]:
        for transmission in transmissions:
            if transmission.channel != self.name:
                raise ChannelError(f"transmission is not from a {self.name} channel")
        return chacha20_xor_many(
            (self._message_key(t.sequence), _ZERO_NONCE, t.wire) for t in transmissions
        )

    def _decrypt_with_escrow(self, transmission: Transmission) -> bytes:
        session_secret = transmission._escrow
        key = hkdf(session_secret, 32, info=f"msg-{transmission.sequence}".encode())
        return chacha20_xor(key, _ZERO_NONCE, transmission.wire)


register_primitive(
    name="toy-dh",
    kind=PrimitiveKind.KEY_AGREEMENT,
    description="Ephemeral Diffie-Hellman in the library's Schnorr group",
    hardness_assumption="hardness of the discrete logarithm problem",
)
