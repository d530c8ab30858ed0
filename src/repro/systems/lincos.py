"""LINCOS (Braun et al., ASIA CCS '17).

"LINCOS: A Storage System Providing Long-Term Integrity, Authenticity, and
Confidentiality" -- the paper's exemplar of the all-information-theoretic
corner: Table 1 classifies it ITS in transit, ITS at rest, High cost.

The three pillars, all implemented:

- **at rest**: Shamir-shared objects across independent providers;
- **in transit**: QKD links deliver one-time pads to each provider; sends
  block on available key material, so the system surfaces the paper's
  "specialized infrastructure / engineering challenges" as measurable key
  generation time and per-link cost;
- **integrity**: a timestamp chain whose references are *Pedersen
  commitments* rather than hashes -- LINCOS's "key observation", keeping
  the chain from leaking anything about the committed data even to an
  unbounded adversary.
"""

from __future__ import annotations

from repro.channels.base import Transmission
from repro.channels.qkd import QkdLink
from repro.crypto.commitments import PedersenCommitment
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError
from repro.integrity.timestamp import (
    MerkleChainSigner,
    TimestampAuthority,
    TimestampChain,
)
from repro.secretsharing.base import Share
from repro.secretsharing.shamir import ShamirSecretSharing
from repro.systems.base import ArchivalSystem, StoreReceipt


class _OnDemandQkdLink(QkdLink):
    """QKD pads are consumable: each send first runs the link for exactly
    the key it needs, and accounts for the wall-clock that takes."""

    def __init__(self, rng, key_rate_bytes_per_s: float):
        super().__init__(rng, key_rate_bytes_per_s=key_rate_bytes_per_s)
        self.key_generation_seconds = 0.0

    def send(self, plaintext: bytes) -> Transmission:
        needed = self.seconds_needed_for(len(plaintext))
        if needed > 0:
            self.advance_time(needed)
            self.key_generation_seconds += needed
        return super().send(plaintext)


class Lincos(ArchivalSystem):
    """QKD transit + Shamir storage + commitment timestamp chain."""

    name = "LINCOS"
    citation = "[12]"
    at_rest_relies_on = ()  # Shamir: information-theoretic

    def __init__(self, nodes, rng, n: int = 5, t: int = 3, qkd_key_rate: float = 1e6):
        # Needed by _make_transit_channel, which the base __init__ calls.
        self.qkd_key_rate = qkd_key_rate
        super().__init__(nodes, rng)
        self.scheme = ShamirSecretSharing(n, t)
        self.commitments = PedersenCommitment()
        self.chain = TimestampChain()
        self.authority = TimestampAuthority(MerkleChainSigner(rng, height=6))

    def _make_transit_channel(self):
        return _OnDemandQkdLink(self.rng, key_rate_bytes_per_s=self.qkd_key_rate)

    @property
    def key_generation_seconds(self) -> float:
        """Wall-clock the QKD link spent generating pad for this system's sends."""
        return self.transit.key_generation_seconds

    def store(self, object_id: str, data: bytes) -> StoreReceipt:
        split = self.scheme.split(data, self.rng)
        payloads = {share.index: share.payload for share in split.shares}
        placement = self._store_shares(object_id, payloads)
        # Timestamp the object under a perfectly hiding commitment.
        link, opening = self.authority.timestamp_document(
            self.chain,
            data,
            epoch=self.epoch,
            reference_kind="pedersen",
            pedersen=self.commitments,
            rng=self.rng,
        )
        receipt = StoreReceipt(
            object_id=object_id,
            original_length=len(data),
            placement=placement,
            metadata={
                "n": self.scheme.n,
                "t": self.scheme.t,
                "chain_index": link.index,
            },
            escrow={"commitment_opening": opening},
        )
        return self._record(receipt)

    def retrieve(self, object_id: str) -> bytes:
        receipt = self.receipt(object_id)
        # Degraded read: any t shares reconstruct the polynomial.
        fetched = self._fetch_shares(receipt, need=self.scheme.t)
        shares = [
            Share(scheme="shamir", index=i, payload=p) for i, p in fetched.items()
        ]
        if len(shares) < self.scheme.t:
            raise DecodingError(
                f"{object_id}: only {len(shares)} shares available, "
                f"need {self.scheme.t}"
            )
        data = self.scheme.reconstruct(shares)[: receipt.original_length]
        return self._finish_read(object_id, data)

    def attempt_recovery(
        self,
        object_id: str,
        stolen: dict[int, bytes],
        timeline: BreakTimeline,
        epoch: int,
    ) -> bytes:
        """ITS at rest: only a threshold of shares ever works."""
        del timeline, epoch
        receipt = self.receipt(object_id)
        shares = [
            Share(scheme="shamir", index=i, payload=p) for i, p in stolen.items()
        ]
        return self.scheme.reconstruct(shares)[: receipt.original_length]

    # -- integrity service --------------------------------------------------------------

    def renew_chain(self, epoch: int) -> None:
        self.authority.renew_chain(self.chain, epoch)
