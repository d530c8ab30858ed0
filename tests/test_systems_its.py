"""The information-theoretic-at-rest systems: POTSHARDS, LINCOS, PASIS,
VSR Archive, HasDPSS."""

import pytest

from repro.crypto.drbg import DeterministicRandom
from repro.crypto.registry import BreakTimeline
from repro.errors import DecodingError, IntegrityError, ParameterError
from repro.security import SecurityNotion, StorageCostBand
from repro.storage.node import make_node_fleet
from repro.systems import HasDpss, Lincos, Pasis, PasisPolicy, Potshards, VsrArchive
from repro.systems.ledger import LedgerEntry, SimulatedLedger
from repro.systems.pasis import PasisParameters


@pytest.fixture
def timeline():
    tl = BreakTimeline()
    tl.schedule_break("aes-256-ctr", 10)
    tl.schedule_break("sha256", 20)
    return tl


@pytest.fixture
def data():
    return DeterministicRandom(b"its-corpus").bytes(2500)


class TestPotshards:
    def make(self):
        return Potshards(make_node_fleet(8), DeterministicRandom(0))

    def test_roundtrip(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.retrieve("doc") == data

    def test_high_storage_overhead(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.storage_overhead() > 7  # 2-way XOR x Shamir n=4
        assert system.storage_cost_band() is StorageCostBand.HIGH

    def test_full_shamir_group_alone_insufficient(self, data, timeline):
        """Compromising every shard of ONE XOR fragment yields nothing --
        the two-level design's point."""
        system = self.make()
        system.store("doc", data)
        one_fragment = system.steal_at_rest(
            "doc", share_indices=[101, 102, 103, 104]
        )
        with pytest.raises(DecodingError):
            system.attempt_recovery("doc", one_fragment, timeline, epoch=10**6)

    def test_threshold_of_both_fragments_sufficient(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest(
            "doc", share_indices=[101, 102, 103, 201, 202, 203]
        )
        assert system.attempt_recovery("doc", stolen, timeline, epoch=0) == data

    def test_never_gated_on_cryptanalysis(self, data):
        """Keyless: the break timeline is irrelevant in both directions."""
        system = self.make()
        system.store("doc", data)
        below = system.steal_at_rest("doc", share_indices=[101, 102])
        with pytest.raises(DecodingError):
            system.attempt_recovery("doc", below, BreakTimeline(), epoch=10**9)

    def test_recover_without_index(self, data):
        system = self.make()
        system.store("doc", data)
        any_shard = next(iter(system.steal_at_rest("doc").values()))
        assert system.recover_without_index(any_shard, len(data)) == data

    def test_loss_tolerance(self, data):
        system = self.make()
        system.store("doc", data)
        # Shamir level is (4,3): one node per fragment may die.
        receipt = system.receipt("doc")
        victim = receipt.placement.node_by_share[101]
        system.placement_policy.node(victim).set_online(False)
        assert system.retrieve("doc") == data

    def test_malformed_shard_rejected(self):
        system = self.make()
        with pytest.raises(DecodingError):
            system._parse_pointer(b"no separators here")

    def test_xor_ways_validated(self):
        with pytest.raises(ParameterError):
            Potshards(make_node_fleet(8), DeterministicRandom(1), xor_ways=1)


class TestLincos:
    def make(self):
        return Lincos(make_node_fleet(5), DeterministicRandom(2))

    def test_roundtrip(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.retrieve("doc") == data

    def test_both_columns_its(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.transit_security is SecurityNotion.INFORMATION_THEORETIC
        assert system.at_rest_security is SecurityNotion.INFORMATION_THEORETIC

    def test_qkd_time_accounted(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.key_generation_seconds > 0

    def test_each_share_send_generates_exactly_its_pad(self, data):
        system = Lincos(make_node_fleet(5), DeterministicRandom(2), qkd_key_rate=100.0)
        system.store("doc", data)
        sent = system.transit.bytes_sent
        assert sent == sum(len(entry.transmission.wire) for entry in system.transcript)
        assert system.transit.pad_available == 0
        assert system.key_generation_seconds == pytest.approx(sent / 100.0)

    def test_chain_grows_per_object(self, data):
        system = self.make()
        system.store("a", data)
        system.store("b", data)
        assert len(system.chain) == 2
        assert all(l.reference_kind == "pedersen" for l in system.chain.links)

    def test_below_threshold_theft_useless_forever(self, data):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc", share_indices=[1, 2])
        with pytest.raises(DecodingError):
            system.attempt_recovery("doc", stolen, BreakTimeline(), epoch=10**9)

    def test_threshold_theft_succeeds(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc", share_indices=[1, 2, 3])
        assert system.attempt_recovery("doc", stolen, timeline, epoch=0) == data

    def test_commitment_opening_retained(self, data):
        system = self.make()
        receipt = system.store("doc", data)
        assert receipt.escrow["commitment_opening"] is not None


class TestPasis:
    def make(self):
        return Pasis(make_node_fleet(8), DeterministicRandom(3))

    def test_policies_roundtrip(self, data):
        system = self.make()
        system.store("r", data, PasisParameters(PasisPolicy.REPLICATION, n=3, threshold=1))
        system.store("e", data, PasisParameters(PasisPolicy.ERASURE, n=6, threshold=4))
        system.store("s", data, PasisParameters(PasisPolicy.SHAMIR, n=5, threshold=3))
        for object_id in ("r", "e", "s"):
            assert system.retrieve(object_id) == data

    def test_default_policy_applies(self, data):
        system = self.make()
        system.store("doc", data)
        assert system.receipt("doc").metadata["policy"] == "shamir"

    def test_replication_has_no_confidentiality(self, data, timeline):
        system = self.make()
        system.store("r", data, PasisParameters(PasisPolicy.REPLICATION, n=2, threshold=1))
        stolen = system.steal_at_rest("r", share_indices=[0])
        assert system.attempt_recovery("r", stolen, timeline, epoch=0) == data
        assert system.at_rest_security_for("r") is SecurityNotion.NONE

    def test_erasure_systematic_shards_leak(self, data, timeline):
        system = self.make()
        system.store("e", data, PasisParameters(PasisPolicy.ERASURE, n=6, threshold=4))
        stolen = system.steal_at_rest("e", share_indices=[0, 1, 2, 3])
        assert system.attempt_recovery("e", stolen, timeline, epoch=0) == data

    def test_shamir_objects_are_its(self, data):
        system = self.make()
        system.store("s", data, PasisParameters(PasisPolicy.SHAMIR, n=5, threshold=3))
        assert system.at_rest_security_for("s") is SecurityNotion.INFORMATION_THEORETIC
        stolen = system.steal_at_rest("s", share_indices=[1, 2])
        with pytest.raises(DecodingError):
            system.attempt_recovery("s", stolen, BreakTimeline(), epoch=10**9)

    def test_fleet_notion_is_weakest(self, data):
        system = self.make()
        system.store("s", data, PasisParameters(PasisPolicy.SHAMIR, n=5, threshold=3))
        assert system.at_rest_security is SecurityNotion.INFORMATION_THEORETIC
        system.store("r", data, PasisParameters(PasisPolicy.REPLICATION, n=2, threshold=1))
        assert system.at_rest_security is SecurityNotion.NONE

    def test_empty_fleet_reports_none(self):
        assert self.make().at_rest_security is SecurityNotion.NONE


class TestVsrArchive:
    def make(self):
        return VsrArchive(make_node_fleet(9), DeterministicRandom(4))

    def test_roundtrip_and_redistribution(self, data):
        system = self.make()
        system.store("doc", data)
        reports = system.redistribute_all(7, 4)
        assert system.retrieve("doc") == data
        assert reports[0].new_n == 7 and system.share_generation == 1

    def test_shrink_committee(self, data):
        system = self.make()
        system.store("doc", data)
        system.redistribute_all(4, 2)
        assert system.retrieve("doc") == data
        assert system.storage_overhead() == pytest.approx(4.0)

    def test_old_shares_destroyed(self, data):
        system = self.make()
        system.store("doc", data)
        before = system.placement_policy.total_bytes_stored()
        system.redistribute_all(5, 3)
        after = system.placement_policy.total_bytes_stored()
        assert after == before  # same (n=5) share count, old ones deleted

    def test_pre_redistribution_haul_expires(self, data, timeline):
        system = self.make()
        system.store("doc", data)
        old = system.steal_at_rest("doc", share_indices=[1, 2])
        system.redistribute_all(5, 3)
        new = system.steal_at_rest("doc", share_indices=[3])
        recovered = system.attempt_recovery("doc", {**old, **new}, timeline, 0)
        assert recovered != data

    def test_invalid_parameters_rejected(self, data):
        system = self.make()
        system.store("doc", data)
        with pytest.raises(ParameterError):
            system.redistribute_all(3, 5)

    def test_communication_reports_accumulate(self, data):
        system = self.make()
        system.store("a", data)
        system.store("b", data)
        system.redistribute_all(6, 3)
        assert len(system.redistribution_reports) == 2


class TestHasDpss:
    def make(self):
        return HasDpss(make_node_fleet(8), DeterministicRandom(5))

    def test_roundtrip_with_tag_check(self, data):
        system = self.make()
        system.store("folder/doc", data)
        assert system.retrieve("folder/doc") == data

    def test_tampered_share_fails_tag(self, data):
        system = self.make()
        system.store("doc", data)
        receipt = system.receipt("doc")
        # Tamper t shares so reconstruction yields wrong bytes.
        for index in (1, 2, 3):
            node = system.placement_policy.node(receipt.placement.node_by_share[index])
            key = f"doc/share-{index}"
            original = node.adversary_read_all(0)[key]
            node.put(key, b"\x00" * len(original))
        with pytest.raises(IntegrityError):
            system.retrieve("doc")

    def test_hierarchical_key_derivation(self):
        system = self.make()
        root = system.derive_path_key("")
        folder = system.derive_path_key("records")
        doc = system.derive_path_key("records/2024/scan")
        assert HasDpss.derive_descendant_key(root, "records") == folder
        assert HasDpss.derive_descendant_key(folder, "2024/scan") == doc
        # Sibling keys do not derive each other.
        other = system.derive_path_key("billing")
        assert HasDpss.derive_descendant_key(folder, "billing") != other

    def test_committee_change_preserves_data(self, data):
        system = self.make()
        system.store("doc", data)
        system.change_committee(6, 4)
        assert system.retrieve("doc") == data
        assert system.key_plane.epoch == 1

    def test_ledger_records_events(self, data):
        system = self.make()
        system.store("doc", data)
        system.change_committee(6, 4)
        kinds = [e.kind for e in system.ledger.entries()]
        assert kinds == ["key-deal", "object", "committee-change"]
        system.audit_ledger()

    def test_ledger_tamper_detected(self, data):
        system = self.make()
        system.store("doc", data)
        system.ledger.tamper(0, 0, {"forged": True})
        with pytest.raises(IntegrityError):
            system.audit_ledger()

    def test_its_at_rest(self, data):
        system = self.make()
        system.store("doc", data)
        stolen = system.steal_at_rest("doc", share_indices=[1, 2])
        with pytest.raises(DecodingError):
            system.attempt_recovery("doc", stolen, BreakTimeline(), epoch=10**9)


class TestLedger:
    def test_append_and_verify(self):
        ledger = SimulatedLedger()
        ledger.append([LedgerEntry(kind="a", content={"x": 1})])
        ledger.append([LedgerEntry(kind="b", content={"y": 2})])
        ledger.verify()
        assert ledger.height == 2

    def test_entries_filter(self):
        ledger = SimulatedLedger()
        ledger.append([LedgerEntry("a", {}), LedgerEntry("b", {})])
        assert len(ledger.entries("a")) == 1

    def test_empty_block_rejected(self):
        with pytest.raises(ParameterError):
            SimulatedLedger().append([])

    def test_tamper_detected(self):
        ledger = SimulatedLedger()
        ledger.append([LedgerEntry("a", {"v": 1})])
        ledger.append([LedgerEntry("b", {"v": 2})])
        ledger.tamper(0, 0, {"v": 999})
        with pytest.raises(IntegrityError):
            ledger.verify()
