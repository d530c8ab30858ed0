"""Channels: TLS-like (harvestable), QKD (ITS), and BSM key agreement."""

import pytest

from repro.channels.bsm import BoundedStorageChannel, BsmAdversary
from repro.channels.qkd import QkdLink
from repro.channels.tls import TlsLikeChannel
from repro.crypto.drbg import DeterministicRandom
from repro.crypto.kdf import hkdf
from repro.crypto.registry import BreakTimeline
from repro.errors import ChannelError, ParameterError
from repro.obs import use_registry
from repro.security import SecurityNotion


@pytest.fixture
def timeline():
    tl = BreakTimeline()
    tl.schedule_break("toy-dh", 10)
    tl.schedule_break("chacha20", 20)
    return tl


class TestTlsLike:
    def test_roundtrip(self):
        channel = TlsLikeChannel(DeterministicRandom(0))
        t = channel.send(b"hello node")
        assert channel.receive(t) == b"hello node"

    def test_wire_is_not_plaintext(self):
        channel = TlsLikeChannel(DeterministicRandom(1))
        t = channel.send(b"plaintext material")
        assert t.wire != b"plaintext material"

    def test_sequence_numbers_and_accounting(self):
        channel = TlsLikeChannel(DeterministicRandom(2))
        a = channel.send(b"one")
        b = channel.send(b"two!")
        assert (a.sequence, b.sequence) == (0, 1)
        assert channel.bytes_sent == 7

    def test_classification(self):
        channel = TlsLikeChannel(DeterministicRandom(3))
        assert channel.notion is SecurityNotion.COMPUTATIONAL

    def test_break_open_before_break_fails(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(4))
        t = channel.send(b"harvest me")
        with pytest.raises(ChannelError):
            channel.break_open(t, timeline, epoch=5)

    def test_break_open_needs_all_primitives_broken(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(5))
        t = channel.send(b"harvest me")
        # DH broken at 10, ChaCha20 at 20: epoch 15 is not enough.
        with pytest.raises(ChannelError):
            channel.break_open(t, timeline, epoch=15)

    def test_break_open_after_break_succeeds(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(6))
        t = channel.send(b"harvest me")
        assert channel.break_open(t, timeline, epoch=25) == b"harvest me"

    def test_wrong_channel_transmission_rejected(self):
        a = TlsLikeChannel(DeterministicRandom(7))
        rng = DeterministicRandom(8)
        qkd = QkdLink(rng)
        qkd.advance_time(1)
        t = qkd.send(b"hi")
        with pytest.raises(ChannelError):
            a.receive(t)


class TestTlsLikeBatch:
    MESSAGES = [b"share-1" * 300, b"", b"x", b"share-4" * 9000]

    def test_send_many_equals_sequential_sends(self):
        batched = TlsLikeChannel(DeterministicRandom(11))
        single = TlsLikeChannel(DeterministicRandom(11))
        batch = batched.send_many(self.MESSAGES)
        one_by_one = [single.send(message) for message in self.MESSAGES]
        assert [(t.sequence, t.wire) for t in batch] == [
            (t.sequence, t.wire) for t in one_by_one
        ]
        assert batched.bytes_sent == single.bytes_sent == sum(map(len, self.MESSAGES))
        # Sequence numbers continue after a batch exactly as after sends.
        assert batched.send(b"next").wire == single.send(b"next").wire

    def test_receive_many_roundtrip(self):
        channel = TlsLikeChannel(DeterministicRandom(12))
        transmissions = channel.send_many(self.MESSAGES)
        assert channel.receive_many(transmissions) == self.MESSAGES
        assert channel.receive_many(list(reversed(transmissions))) == list(
            reversed(self.MESSAGES)
        )

    def test_receive_many_rejects_foreign_transmission(self):
        channel = TlsLikeChannel(DeterministicRandom(13))
        qkd = QkdLink(DeterministicRandom(14))
        qkd.advance_time(1)
        batch = channel.send_many([b"a", b"b"]) + [qkd.send(b"hi")]
        with pytest.raises(ChannelError):
            channel.receive_many(batch)

    def test_message_keys_equal_full_hkdf_of_session_secret(self):
        """Extract-once derivation yields the keys a full HKDF would."""
        channel = TlsLikeChannel(DeterministicRandom(15))
        for sequence in (0, 1, 17, 1000):
            assert channel._message_key(sequence) == hkdf(
                channel._session_secret, 32, info=f"msg-{sequence}".encode()
            )

    def test_kdf_counts_one_call_per_message_key(self):
        channel = TlsLikeChannel(DeterministicRandom(16))
        with use_registry() as registry:
            channel.receive_many(channel.send_many(self.MESSAGES))
            counters = registry.snapshot()["counters"]
        assert counters["crypto_kdf_calls_total{kdf=hkdf}"] == 2 * len(self.MESSAGES)
        assert counters["crypto_kdf_bytes_total{kdf=hkdf}"] == 2 * 32 * len(self.MESSAGES)

    def test_batch_transmissions_break_open_individually(self, timeline):
        channel = TlsLikeChannel(DeterministicRandom(17))
        transmissions = channel.send_many(self.MESSAGES)
        assert [channel.break_open(t, timeline, epoch=25) for t in transmissions] == (
            self.MESSAGES
        )


class TestQkd:
    def test_pad_generation_and_send(self):
        link = QkdLink(DeterministicRandom(0), key_rate_bytes_per_s=100)
        link.advance_time(2.0)
        assert link.pad_available == 200
        t = link.send(b"x" * 150)
        assert link.receive(t) == b"x" * 150
        assert link.pad_available == 50

    def test_pad_exhaustion_blocks(self):
        link = QkdLink(DeterministicRandom(1), key_rate_bytes_per_s=10)
        with pytest.raises(ChannelError):
            link.send(b"too much data")

    def test_seconds_needed(self):
        link = QkdLink(DeterministicRandom(2), key_rate_bytes_per_s=100)
        assert link.seconds_needed_for(250) == pytest.approx(2.5)
        link.advance_time(1.0)
        assert link.seconds_needed_for(250) == pytest.approx(1.5)

    def test_never_breakable(self):
        link = QkdLink(DeterministicRandom(3))
        link.advance_time(1.0)
        t = link.send(b"forever secret")
        timeline = BreakTimeline()
        assert not link.is_breakable_at(timeline, 10**9)
        with pytest.raises(ChannelError):
            link.break_open(t, timeline, 10**9)

    def test_wire_leaks_nothing_about_plaintext(self):
        """OTP wire bytes are uniform: equal messages yield unequal wires."""
        link = QkdLink(DeterministicRandom(4), key_rate_bytes_per_s=1e6)
        link.advance_time(1.0)
        a = link.send(b"same message")
        b = link.send(b"same message")
        assert a.wire != b.wire

    def test_infrastructure_cost(self):
        link = QkdLink(DeterministicRandom(5), distance_km=100)
        assert link.infrastructure_cost_usd == pytest.approx(100_000 + 10_000 * 100)

    def test_classification(self):
        assert QkdLink(DeterministicRandom(6)).notion is SecurityNotion.INFORMATION_THEORETIC

    def test_send_many_is_a_loop_of_sends(self):
        batched = QkdLink(DeterministicRandom(10), key_rate_bytes_per_s=100)
        single = QkdLink(DeterministicRandom(10), key_rate_bytes_per_s=100)
        batched.advance_time(1.0)
        single.advance_time(1.0)
        messages = [b"a" * 30, b"b" * 50]
        batch = batched.send_many(messages)
        assert [t.wire for t in batch] == [single.send(m).wire for m in messages]
        assert batched.receive_many(batch) == messages
        assert batched.pad_available == single.pad_available == 20

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            QkdLink(DeterministicRandom(7), key_rate_bytes_per_s=0)
        with pytest.raises(ParameterError):
            QkdLink(DeterministicRandom(8), distance_km=-1)
        link = QkdLink(DeterministicRandom(9))
        with pytest.raises(ParameterError):
            link.advance_time(-1)


class TestBsm:
    def test_agreement_without_adversary(self):
        channel = BoundedStorageChannel(
            stream_bytes=10_000, honest_positions=128, shared_seed=b"seed"
        )
        result = channel.agree()
        assert len(result.key) == 128 - 16
        assert result.adversary_known_positions == 0

    def test_small_adversary_leaves_long_key(self):
        channel = BoundedStorageChannel(
            stream_bytes=100_000, honest_positions=256, shared_seed=b"s",
            rng=DeterministicRandom(0),
        )
        adversary = BsmAdversary(storage_bytes=10_000, rng=DeterministicRandom(1))
        result = channel.agree(adversary)
        # ~10% of positions known; expected key ~ 256*0.9 - 16 ~ 214.
        assert 180 < len(result.key) < 245
        assert result.residual_entropy_bytes > 180

    def test_huge_adversary_fails_agreement(self):
        channel = BoundedStorageChannel(
            stream_bytes=10_000, honest_positions=64, shared_seed=b"s",
            rng=DeterministicRandom(2),
        )
        adversary = BsmAdversary(storage_bytes=10_000, rng=DeterministicRandom(3))
        with pytest.raises(ChannelError):
            channel.agree(adversary)

    def test_knowledge_fraction_tracks_storage_ratio(self):
        channel = BoundedStorageChannel(
            stream_bytes=50_000, honest_positions=512, shared_seed=b"s",
            rng=DeterministicRandom(4),
        )
        adversary = BsmAdversary(storage_bytes=25_000, rng=DeterministicRandom(5))
        result = channel.agree(adversary)
        assert result.adversary_knowledge_fraction == pytest.approx(0.5, abs=0.1)

    def test_expected_key_bytes_analytic(self):
        channel = BoundedStorageChannel(
            stream_bytes=1000, honest_positions=100, shared_seed=b"s"
        )
        assert channel.expected_key_bytes(0) == pytest.approx(84)
        assert channel.expected_key_bytes(500) == pytest.approx(34)
        assert channel.expected_key_bytes(1000) == 0.0

    def test_both_parties_derive_same_key(self):
        """The seed determines the positions, so two honest endpoints with
        the same seed and broadcast derive identical keys."""
        a = BoundedStorageChannel(5000, 64, b"shared", rng=DeterministicRandom(6))
        b = BoundedStorageChannel(5000, 64, b"shared", rng=DeterministicRandom(6))
        assert a.agree().key == b.agree().key

    def test_different_seeds_different_keys(self):
        a = BoundedStorageChannel(5000, 64, b"alpha", rng=DeterministicRandom(7))
        b = BoundedStorageChannel(5000, 64, b"beta", rng=DeterministicRandom(7))
        assert a.agree().key != b.agree().key

    def test_parameters_validated(self):
        with pytest.raises(ParameterError):
            BoundedStorageChannel(0, 1, b"s")
        with pytest.raises(ParameterError):
            BoundedStorageChannel(10, 11, b"s")
        with pytest.raises(ParameterError):
            BsmAdversary(-1, DeterministicRandom(0))
