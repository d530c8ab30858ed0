"""The three closed-loop workloads and the client that times them.

Every run is a fixed operation sequence drawn from the seed: ``--seconds``
only sets how long that sequence is (at the speed of the machine the
sizes were chosen on), never when it stops.  One client thread issues one
``SecureArchive`` call at a time and checks every byte it reads back.

The host this benchmark runs on changes speed by up to 1.8x every second
or so, and how long it spends slow varies from run to run.  So that a
run's figures measure the program rather than the host, each timed call
is divided by the host's speed around it, read from :class:`HostSpeed`: a
figure is the time the call would have taken at the reference speed.
"""

from __future__ import annotations

import hashlib
import random
from collections import Counter
from contextlib import nullcontext
from statistics import median
from time import perf_counter

import numpy as np

#: The --seconds value the operation counts below are written for.
NOMINAL_SECONDS = 40.0

#: How long one round of :class:`Probe` takes on an uncontended core of the
#: machine the benchmark was tuned on (a 2-vCPU KVM guest on an Intel Xeon).
PROBE_REFERENCE_MS = 1.05
#: A call is timed against a probe reading taken at most this long before it.
PROBE_EVERY_S = 0.05

KIB = 1 << 10
MIB = 1 << 20

_NO_TRACE = nullcontext()


class NullTracer:
    """Stands in for :class:`tracer.Tracer` in untraced runs."""

    @staticmethod
    def op(kind: str):
        return _NO_TRACE


class Probe:
    """A fixed round of the kinds of work the library does, in none of its
    code: an interpreter loop, a chain of small hashes, a gather from a
    table larger than the CPU's private caches, buffer copies and object
    churn.  Each kind slows down by its own factor when the host is
    contended; their sum tracks the library's calls more closely than any
    one of them."""

    def __init__(self) -> None:
        rng = np.random.default_rng(0)
        self._table = rng.integers(0, 1 << 31, 1 << 21, dtype=np.uint32)  # 8 MiB
        self._index = rng.integers(0, 1 << 21, 1 << 15)
        self._buffer = bytes(range(256)) * 1024
        self._lookup = {i: i for i in range(1000)}

    def run(self) -> None:
        total = 0
        for i in range(5_000):
            total += i * i
        digest = bytes(64)
        for _ in range(300):
            digest = hashlib.sha256(digest).digest()
        np.take(self._table, self._index)
        for _ in range(16):
            bytearray(self._buffer)
        rows = []
        for i in range(1_500):
            rows.append((i, str(i), self._lookup[i % 1000]))

    def ms(self) -> float:
        """Median of three timed rounds, in ms."""
        timings = []
        for _ in range(3):
            start = perf_counter()
            self.run()
            timings.append(perf_counter() - start)
        return median(timings) * 1e3


class HostSpeed:
    """How slow the host runs now, as a factor of the reference speed
    (1.0 at the reference, 1.8 when the probe takes 1.8 times as long).
    The probe runs between calls, never inside a timed one."""

    def __init__(self) -> None:
        self.probe = Probe()
        self.readings: list[float] = []
        self._taken_at = float("-inf")

    def read(self) -> float:
        """A fresh reading."""
        self.readings.append(self.probe.ms() / PROBE_REFERENCE_MS)
        self._taken_at = perf_counter()
        return self.readings[-1]

    def current(self) -> float:
        """The latest reading, or a fresh one if it is older than
        PROBE_EVERY_S."""
        if perf_counter() - self._taken_at > PROBE_EVERY_S:
            return self.read()
        return self.readings[-1]

    def adjust(self, elapsed: float, before: float) -> float:
        """*elapsed* seconds at the reference speed, for a call that
        started with the host at speed *before*.  A call longer than the
        probe interval is divided by the mean of the readings before and
        after it."""
        if elapsed <= PROBE_EVERY_S:
            return elapsed / before
        return elapsed / ((before + self.read()) / 2)


class UnadjustedSpeed:
    """Stands in for :class:`HostSpeed` in traced runs, whose figures are
    shares of raw wall time: no probes, no adjustment."""

    readings: list[float] = []

    @staticmethod
    def read() -> float:
        return 1.0

    current = read

    @staticmethod
    def adjust(elapsed: float, before: float) -> float:
        return elapsed


class Client:
    """One closed-loop client over one archive.

    Times each call with ``perf_counter``, compares every read with the
    payload it stored, and counts (rather than stops on) calls that raise.
    Payload generation and byte comparison happen outside the timed call.
    ``latency`` holds the times adjusted to the reference host speed,
    ``raw_latency`` the wall times as read.
    """

    def __init__(self, archive, nodes, tracer=None, large: bool = False, speed=None):
        self.archive = archive
        self.nodes = nodes
        self.tracer = tracer or NullTracer()
        self.speed = speed or UnadjustedSpeed()
        self.large = large
        #: live object id -> the bytes stored under it
        self.payloads: dict[str, bytes] = {}
        #: live object id -> segment ids (store_large only)
        self.segments: dict[str, list[str]] = {}
        self.latency: dict[str, list[float]] = {
            "store": [], "retrieve": [], "delete": [], "advance_epoch": []
        }
        self.raw_latency: dict[str, list[float]] = {kind: [] for kind in self.latency}
        self.user_bytes = Counter()
        self.attempted = 0
        self.failed = 0
        self.wrong_bytes = 0
        self.errors: Counter = Counter()

    def _call(self, kind: str, fn, *args):
        self.attempted += 1
        before = self.speed.current()
        scope = self.tracer.op(kind)
        start = perf_counter()
        try:
            with scope as traced:
                result = fn(*args)
        except Exception as exc:  # the run goes on; failures are counted
            self.failed += 1
            self.errors[f"{kind}:{type(exc).__name__}"] += 1
            return None, False
        elapsed = perf_counter() - start
        self.raw_latency[kind].append(elapsed)
        self.latency[kind].append(self.speed.adjust(elapsed, before))
        if traced is not None:
            traced.client_wall = elapsed
        return result, True

    def store(self, object_id: str, data: bytes) -> None:
        if self.large:
            receipts, ok = self._call("store", self.archive.store_large, object_id, data)
            if ok:
                self.segments[object_id] = [r.object_id for r in receipts]
        else:
            _, ok = self._call("store", self.archive.store, object_id, data)
        if ok:
            self.payloads[object_id] = data
            self.user_bytes["store"] += len(data)

    def retrieve(self, object_id: str) -> None:
        fn = self.archive.retrieve_large if self.large else self.archive.retrieve
        data, ok = self._call("retrieve", fn, object_id)
        if not ok:
            return
        if data != self.payloads[object_id]:
            self.failed += 1
            self.wrong_bytes += 1
            self.errors["retrieve:wrong-bytes"] += 1
            return
        self.user_bytes["retrieve"] += len(data)

    def delete(self, object_id: str) -> None:
        if self.large:
            segment_ids = self.segments[object_id]
            _, ok = self._call("delete", lambda: [self.archive.delete(s) for s in segment_ids])
        else:
            _, ok = self._call("delete", self.archive.delete, object_id)
        if ok:
            del self.payloads[object_id]
            self.segments.pop(object_id, None)

    def advance_epoch(self) -> None:
        """One epoch; counts the user bytes its renewal and migration
        re-encoded (a renewal pass re-encodes every live object, a
        migration re-encodes the object whose tier assignment changed)."""
        tiering = self.archive.tiering
        before = dict(tiering.assignments) if tiering is not None else {}
        report, ok = self._call("advance_epoch", self.archive.advance_epoch)
        if not ok:
            return
        reencoded = 0
        if report.objects_renewed:
            reencoded += sum(len(data) for data in self.payloads.values())
        if tiering is not None:
            reencoded += sum(
                len(self.payloads[oid])
                for oid, tier in tiering.assignments.items()
                if oid in self.payloads and before.get(oid, tier) != tier
            )
        self.user_bytes["maintenance"] += reencoded

    def audit(self) -> tuple[int, int]:
        """Read every live object once, untimed; returns (audited, lost)."""
        fn = self.archive.retrieve_large if self.large else self.archive.retrieve
        lost = 0
        for object_id, expected in sorted(self.payloads.items()):
            try:
                data = fn(object_id)
            except Exception as exc:  # a lost object is counted, not fatal
                lost += 1
                self.errors[f"audit:{type(exc).__name__}"] += 1
                continue
            if data != expected:
                lost += 1
                self.wrong_bytes += 1
                self.errors["audit:wrong-bytes"] += 1
        return len(self.payloads), lost

    def share_inventory(self) -> tuple[int, int]:
        """(bytes on all nodes, bytes on nodes that no live receipt points
        to).  Call with every node online."""
        referenced = set()
        for object_id in self.payloads:
            for receipt_id in self.segments.get(object_id, [object_id]):
                placement = self.archive.receipt(receipt_id).placement
                for index, node_id in placement.node_by_share.items():
                    referenced.add((node_id, f"{receipt_id}/share-{index}"))
        stored = orphaned = 0
        for node in self.nodes:
            for key in node.object_ids():
                size = len(node.raw_bytes(key))
                stored += size
                if (node.node_id, key) not in referenced:
                    orphaned += size
        return stored, orphaned


# -- set-up ---------------------------------------------------------------------------


def _archive_rng(seed: int):
    from repro import DeterministicRandom

    return DeterministicRandom(f"e2ebench-archive-{seed}")


def _warm_up(archive, size: int, large: bool) -> None:
    """Fill the plan and key caches: one store, read and delete of the
    workload's object size, under ids the workload never uses."""
    data = random.Random(size).randbytes(size)
    if large:
        receipts = archive.store_large("warm-up", data)
        if archive.retrieve_large("warm-up") != data:
            raise RuntimeError("warm-up read returned wrong bytes")
        for receipt in receipts:
            archive.delete(receipt.object_id)
    else:
        archive.store("warm-up", data)
        if archive.retrieve("warm-up") != data:
            raise RuntimeError("warm-up read returned wrong bytes")
        archive.delete("warm-up")


def setup_ingest_small(seed: int):
    from repro import ArchivePolicy, ConfidentialityTarget, SecureArchive, make_node_fleet

    nodes = make_node_fleet(8)
    archive = SecureArchive(
        ArchivePolicy(ConfidentialityTarget.LONG_TERM, n=6, t=4), nodes, _archive_rng(seed)
    )
    _warm_up(archive, 4 * KIB, large=False)
    return archive, nodes


def setup_bulk_large(seed: int):
    from repro import ArchivePolicy, ConfidentialityTarget, SecureArchive, make_node_fleet

    nodes = make_node_fleet(8)
    archive = SecureArchive(
        ArchivePolicy(ConfidentialityTarget.COMPUTATIONAL, n=6, t=4),
        nodes,
        _archive_rng(seed),
    )
    _warm_up(archive, 3 * MIB // 2, large=True)
    return archive, nodes


def setup_tiered_churn(seed: int):
    from repro import ArchivePolicy, ConfidentialityTarget, SecureArchive
    from repro.storage.tiering import TIER_NAMES, make_tiered_fleet

    nodes = make_tiered_fleet({tier: 4 for tier in TIER_NAMES})
    archive = SecureArchive(
        ArchivePolicy(
            ConfidentialityTarget.LONG_TERM_ECONOMY,
            n=7,
            t=3,
            pack_width=3,
            renew_every_epochs=2,
        ),
        nodes,
        _archive_rng(seed),
    )
    archive.enable_tiering()
    _warm_up(archive, 64 * KIB, large=False)
    return archive, nodes


# -- operation sequences ----------------------------------------------------------------


def _count(nominal: int, scale: float, floor: int) -> int:
    return max(floor, round(nominal * scale))


def _sizes(rng: random.Random, count: int, low: int, high: int) -> list[int]:
    """*count* object sizes spread evenly over [low, high), in seeded order.
    Every seed stores the same mix of sizes, so seeds differ in order and
    bytes but not in how much work a run does."""
    sizes = [low + (high - low) * (2 * k + 1) // (2 * count) for k in range(count)]
    rng.shuffle(sizes)
    return sizes


def run_ingest_small(client: Client, rng: random.Random, scale: float) -> None:
    """Sequential 4 KiB stores, each followed by reads of random live
    objects.  Objects are kept for a window of stores, read back once more
    and deleted; eight epochs renew the live window.  1012 stores fill four
    signers' key budgets (253 signatures each), so a run pays four whole
    rollovers."""
    stores = _count(1012, scale, 8)
    window = min(24, max(2, stores // 8))
    epoch_every = max(1, stores // 8)
    reads_per_store = 3
    live: list[str] = []
    for i in range(stores):
        object_id = f"obj-{i}"
        client.store(object_id, rng.randbytes(4 * KIB))
        live.append(object_id)
        for _ in range(reads_per_store):
            client.retrieve(rng.choice(live))
        if len(live) > window:
            oldest = live.pop(0)
            client.retrieve(oldest)
            client.delete(oldest)
        if (i + 1) % epoch_every == 0:
            client.advance_epoch()


def run_bulk_large(client: Client, rng: random.Random, scale: float) -> None:
    """store_large of 1-2 MiB objects; each object is read back twice,
    right after its store and as it leaves a window of live objects (so a
    run holds twice as many read samples, taken at different moments); an
    epoch every 16 objects."""
    objects = _count(104, scale, 3)
    window = min(4, objects // 2)
    epoch_every = min(16, objects)
    live: list[str] = []
    for i, size in enumerate(_sizes(rng, objects, MIB, 2 * MIB)):
        object_id = f"blob-{i}"
        client.store(object_id, rng.randbytes(size))
        client.retrieve(object_id)
        live.append(object_id)
        if len(live) > window:
            oldest = live.pop(0)
            client.retrieve(oldest)
            client.delete(oldest)
        if (i + 1) % epoch_every == 0:
            client.advance_epoch()
    for object_id in live:
        client.retrieve(object_id)


def run_tiered_churn(client: Client, rng: random.Random, scale: float) -> None:
    """Preload, then epochs of zipfian reads with a trickle of stores and
    deletes while single nodes go offline and come back."""
    from repro.storage.tiering import TIER_NAMES
    from repro.storage.workload import ZipfianPopularity

    preload = _count(32, scale, 6)
    # Whole rounds of six epochs: three renewals, one outage per tier.
    epochs = 6 * max(1, round(3 * scale))
    reads_per_epoch = _count(160, scale, 10)
    churn_per_epoch = _count(12, scale, 1)
    popularity = ZipfianPopularity(s=1.1)
    sizes = _sizes(rng, preload + epochs * churn_per_epoch, 48 * KIB, 80 * KIB)
    serial = 0

    def store_one() -> None:
        nonlocal serial
        object_id = f"doc-{serial}"
        client.store(object_id, rng.randbytes(sizes[serial]))
        serial += 1
        if object_id in client.payloads:
            popularity.add(object_id)

    def read_one() -> None:
        # Deleted ids stay in the append-only popularity model; draw again.
        while True:
            object_id = popularity.sample(rng)
            if object_id in client.payloads:
                client.retrieve(object_id)
                return

    for _ in range(preload):
        store_one()
    # One outage spans each renewal: a node goes down half-way through an
    # epoch whose advance_epoch renews (every second one) and comes back
    # half-way through the next, so every outage lasts one epoch's worth of
    # operations.  Outages cycle through the tiers in a seeded order, so
    # every seed takes down the same mix of media.  At
    # most one node is down at a time: every read still finds a decode
    # quorum (6 of 7 shares) and every re-placement 7 independent
    # providers among the 11 nodes left.
    tier_order = list(TIER_NAMES)
    rng.shuffle(tier_order)
    outages = 0
    offline = None
    for epoch in range(epochs):
        steps = ["read"] * reads_per_epoch + ["store", "delete"] * churn_per_epoch
        rng.shuffle(steps)
        toggle_at = len(steps) // 2
        for step, kind in enumerate(steps):
            if step == toggle_at:
                if offline is not None:
                    offline.set_online(True)
                    offline = None
                elif epoch % 2 == 1:
                    tier = tier_order[outages % len(tier_order)]
                    offline = rng.choice([node for node in client.nodes if node.tier == tier])
                    offline.set_online(False)
                    outages += 1
            if kind == "read":
                read_one()
            elif kind == "store":
                store_one()
            else:
                client.delete(rng.choice(sorted(client.payloads)))
        client.advance_epoch()
    if offline is not None:
        offline.set_online(True)


WORKLOADS = {
    "ingest-small": (setup_ingest_small, run_ingest_small, False),
    "bulk-large": (setup_bulk_large, run_bulk_large, True),
    "tiered-churn": (setup_tiered_churn, run_tiered_churn, False),
}
