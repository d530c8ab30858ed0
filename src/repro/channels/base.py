"""Channel abstractions shared by TLS-like, QKD, and BSM channels.

A channel turns plaintext into a :class:`Transmission` (the bytes on the
wire plus whatever cryptanalysis would eventually yield) and back.  The
adversary harness records transmissions as :class:`EavesdropRecord` -- the
"harvest" half of Harvest Now, Decrypt Later; the "decrypt later" half asks
the channel's :meth:`SecureChannelBase.break_open` with a break timeline and
an epoch.

Design note: *escrowed secrets*.  We cannot actually run future
cryptanalysis, so each computationally secure transmission carries its
session secret in a sealed field that only :meth:`break_open` may read, and
only when the timeline says the underlying primitive has fallen.  This keeps
the simulated power of "the adversary broke the cipher" exactly equal to
(never greater than) the real thing, and information-theoretic channels
simply have nothing in escrow.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.crypto.registry import BreakTimeline
from repro.errors import ChannelError
from repro.security import SecurityNotion


@dataclass(frozen=True)
class Transmission:
    """One message as it crosses the wire."""

    channel: str
    sequence: int
    wire: bytes
    #: What a successful cryptanalysis of this transmission would recover;
    #: empty for information-theoretic channels.  Read only via break_open.
    _escrow: bytes = field(default=b"", repr=False)

    def __len__(self) -> int:
        return len(self.wire)


@dataclass
class EavesdropRecord:
    """The adversary's harvested copy of a transmission."""

    transmission: Transmission
    harvested_epoch: int


class SecureChannelBase:
    """Common bookkeeping for channels (subclasses set the class attrs)."""

    name: str = "abstract"
    notion: SecurityNotion = SecurityNotion.NONE
    #: Registry names of the primitives confidentiality rests on.
    relies_on: tuple[str, ...] = ()

    def __init__(self) -> None:
        self._sequence = 0
        self.bytes_sent = 0

    def _next_sequence(self) -> int:
        seq = self._sequence
        self._sequence += 1
        return seq

    # -- channel interface -------------------------------------------------------

    def send(self, plaintext: bytes) -> Transmission:
        raise NotImplementedError

    def receive(self, transmission: Transmission) -> bytes:
        raise NotImplementedError

    def send_many(self, plaintexts: list[bytes]) -> list[Transmission]:
        """Send a batch of messages, in order.

        The result equals sending each message alone, one after another:
        same sequence numbers, same wire bytes, same channel state after.
        Channels with a cheaper batch path (the TLS-like channel's single
        cipher pass) override this loop.
        """
        return [self.send(plaintext) for plaintext in plaintexts]

    def receive_many(self, transmissions: list[Transmission]) -> list[bytes]:
        """Receive a batch of transmissions; equal to receiving each alone."""
        return [self.receive(transmission) for transmission in transmissions]

    # -- adversary interface -----------------------------------------------------

    def is_breakable_at(self, timeline: BreakTimeline, epoch: int) -> bool:
        """True if every primitive this channel relies on has fallen."""
        if self.notion is SecurityNotion.INFORMATION_THEORETIC:
            return False
        if not self.relies_on:
            return False
        return all(timeline.is_broken(name, epoch) for name in self.relies_on)

    def break_open(
        self, transmission: Transmission, timeline: BreakTimeline, epoch: int
    ) -> bytes:
        """Decrypt a harvested transmission after the break ('decrypt later').

        Raises :class:`ChannelError` if the channel's primitives still hold
        at *epoch* -- harvesting alone yields nothing.
        """
        if not self.is_breakable_at(timeline, epoch):
            raise ChannelError(
                f"{self.name}: primitives {self.relies_on} not all broken at epoch {epoch}"
            )
        if not transmission._escrow:
            raise ChannelError(f"{self.name}: nothing recoverable from this transmission")
        return self._decrypt_with_escrow(transmission)

    def _decrypt_with_escrow(self, transmission: Transmission) -> bytes:
        raise NotImplementedError
