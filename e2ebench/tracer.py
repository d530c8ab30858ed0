"""Layer tracing taken from outside the library.

The tracer wraps the public entry points of ``repro.channels``,
``repro.secretsharing``, ``repro.storage``, ``repro.integrity`` and
``repro.obs`` while it is installed, and restores them afterwards; no file
of the library is edited.  The client opens one root span per
``SecureArchive`` call (``core.<op>``).  Every wrapped call made while that
operation runs becomes a child span: a span opened on the client thread
nests under the innermost open span, and one opened on a worker thread
(the batch-encode pool) with nothing open on that thread nests under the
operation's root.

A span's self time is its wall time minus the time its child spans cover.
When spans on several threads run at once, each instant is shared equally
among the innermost spans running at it, so the self times of one
operation's spans always add up to the operation's wall time.  Calls to
``repro.obs.metrics.inc``/``observe`` are too frequent to record one by
one; each is timed and its time moved from the span it ran under to the
``obs`` layer.
"""

from __future__ import annotations

import functools
import threading
from collections import Counter, defaultdict
from time import perf_counter


class _Span:
    __slots__ = ("key", "parent", "start", "end", "nbytes", "obs_s", "obs_n")

    def __init__(self, key: str, parent: "_Span | None"):
        self.key = key
        self.parent = parent
        self.start = 0.0
        self.end = 0.0
        self.nbytes = 0
        # Time and call counts of metrics.inc / metrics.observe made while
        # this span was the innermost one on its thread.
        self.obs_s = {"obs.inc": 0.0, "obs.observe": 0.0}
        self.obs_n = {"obs.inc": 0, "obs.observe": 0}


class _Op:
    __slots__ = ("kind", "root", "spans", "lock", "client_wall")

    def __init__(self, kind: str):
        self.kind = kind
        self.client_wall: float | None = None
        self.root = _Span(f"core.{kind}", None)
        self.spans: list[_Span] = []
        # Guards the root's obs counters, which worker threads with no open
        # span of their own update.
        self.lock = threading.Lock()


class _OpScope:
    """Opens and closes an operation's root span with as little work as
    possible between the client's clock readings and the span's own."""

    __slots__ = ("tracer", "op")

    def __init__(self, tracer: "Tracer", op: _Op):
        self.tracer = tracer
        self.op = op

    def __enter__(self) -> _Op:
        self.tracer._stack().append(self.op.root)
        self.tracer._op = self.op
        self.op.root.start = perf_counter()
        return self.op

    def __exit__(self, *exc_info) -> None:
        self.op.root.end = perf_counter()
        self.tracer._op = None
        self.tracer._stack().pop()
        self.tracer._pending.append(self.op)


def _first_arg_len(args, kwargs, result) -> int:
    return len(args[1])


def _result_len(args, kwargs, result) -> int:
    return len(result)


def _put_len(args, kwargs, result) -> int:
    return len(args[3])


def _signature_len(args, kwargs, result) -> int:
    link, _opening = result
    return len(link.signature)


def _targets():
    """(owner, attribute, span key, byte accounting) for every wrapped entry
    point.  Imported here so that importing this module imports no library."""
    from repro.channels.tls import TlsLikeChannel
    from repro.integrity.timestamp import MerkleChainSigner, TimestampAuthority
    from repro.secretsharing.aontrs import AontRsDispersal
    from repro.secretsharing.packed import PackedSecretSharing
    from repro.secretsharing.shamir import ShamirSecretSharing
    from repro.storage.placement import PlacementPolicy
    from repro.storage.tiering import TierMigrator

    targets = [
        (TlsLikeChannel, "send", "channels.send", _first_arg_len),
        (TlsLikeChannel, "receive", "channels.receive", None),
    ]
    for scheme in (ShamirSecretSharing, PackedSecretSharing, AontRsDispersal):
        targets.append((scheme, "split", "secretsharing.split", _first_arg_len))
        targets.append((scheme, "reconstruct", "secretsharing.reconstruct", _result_len))
    targets += [
        (PlacementPolicy, "place", "storage.place", None),
        (PlacementPolicy, "put_with_retry", "storage.put", _put_len),
        (PlacementPolicy, "fetch_degraded", "storage.fetch", None),
        (PlacementPolicy, "delete", "storage.delete", None),
        (TierMigrator, "run_epoch", "storage.migrate", None),
        (TimestampAuthority, "timestamp_document", "integrity.timestamp", _signature_len),
        (TimestampAuthority, "renew_chain", "integrity.renew_chain", None),
        (MerkleChainSigner, "__init__", "integrity.signer_keygen", None),
    ]
    return targets


class Tracer:
    """Collects per-layer self time and counts for root operations.

    Totals are keyed by ``(op kind, span key)``: ``self_s`` holds seconds,
    ``calls`` call counts and ``nbytes`` the bytes the accounting functions
    report.  ``wall_s`` is the wall time the client measured around each
    call and ``attributed_s`` the self time of its spans, per op kind;
    ``worst_gap_s`` is the largest gap between the two for one operation.
    """

    def __init__(self) -> None:
        self._local = threading.local()
        self._op: _Op | None = None
        self._patches: list[tuple[object, str, object, bool]] = []
        self._pending: list[_Op] = []
        self.self_s: dict[tuple[str, str], float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.nbytes: Counter = Counter()
        self.ops: Counter = Counter()
        self.wall_s: dict[str, float] = defaultdict(float)
        self.attributed_s: dict[str, float] = defaultdict(float)
        self.worst_gap_s = 0.0

    # -- installation ---------------------------------------------------------------

    def install(self) -> None:
        from repro.obs import metrics

        for owner, attr, key, account in _targets():
            self._patch(owner, attr, self._span_wrapper(getattr(owner, attr), key, account))
        for attr in ("inc", "observe"):
            self._patch(metrics, attr, self._obs_wrapper(getattr(metrics, attr), f"obs.{attr}"))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original, owned = self._patches.pop()
            if owned:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def _patch(self, owner, attr: str, wrapper) -> None:
        owned = attr in vars(owner)
        self._patches.append((owner, attr, getattr(owner, attr), owned))
        setattr(owner, attr, wrapper)

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    # -- wrappers -------------------------------------------------------------------

    def _span_wrapper(self, original, key: str, account):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return original(*args, **kwargs)
            stack = tracer._stack()
            span = _Span(key, stack[-1] if stack else op.root)
            op.spans.append(span)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = original(*args, **kwargs)
            finally:
                span.end = perf_counter()
                stack.pop()
            if account is not None:
                span.nbytes = account(args, kwargs, result)
            return result

        return wrapper

    def _obs_wrapper(self, original, key: str):
        tracer = self

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            op = tracer._op
            if op is None:
                return original(*args, **kwargs)
            start = perf_counter()
            try:
                return original(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                stack = tracer._stack()
                if stack:
                    span = stack[-1]
                    span.obs_s[key] += elapsed
                    span.obs_n[key] += 1
                else:
                    with op.lock:
                        op.root.obs_s[key] += elapsed
                        op.root.obs_n[key] += 1

        return wrapper

    # -- operations -----------------------------------------------------------------

    def op(self, kind: str) -> "_OpScope":
        """Trace one client operation as the root span ``core.<kind>``.

        Used as a context manager that yields the operation; the client sets
        its ``client_wall`` to the wall time it measured around the call.
        Attribution waits for :meth:`finish`, so it is not timed as part of
        the call.
        """
        return _OpScope(self, _Op(kind))

    def finish(self) -> None:
        """Attribute every operation traced since the last call."""
        for op in self._pending:
            self._attribute(op)
        self._pending.clear()

    def _attribute(self, op: _Op) -> None:
        spans = [op.root] + op.spans
        position = {id(span): i for i, span in enumerate(spans)}
        parent = [
            None if span.parent is None else position[id(span.parent)] for span in spans
        ]
        # Ends sort before starts at the same instant.
        events = sorted(
            [(span.start, 1, i) for i, span in enumerate(spans)]
            + [(span.end, 0, i) for i, span in enumerate(spans)]
        )
        running_children = [0] * len(spans)
        running = [False] * len(spans)
        innermost: set[int] = set()
        exclusive = [0.0] * len(spans)
        previous = events[0][0]
        for instant, starts, i in events:
            if innermost:
                share = (instant - previous) / len(innermost)
                for j in innermost:
                    exclusive[j] += share
            previous = instant
            p = parent[i]
            if starts:
                running[i] = True
                innermost.add(i)
                if p is not None:
                    running_children[p] += 1
                    innermost.discard(p)
            else:
                running[i] = False
                innermost.discard(i)
                if p is not None:
                    running_children[p] -= 1
                    if running_children[p] == 0 and running[p]:
                        innermost.add(p)

        kind = op.kind
        total = 0.0
        for i, span in enumerate(spans):
            own = exclusive[i]
            obs_total = sum(span.obs_s.values())
            if obs_total > 0.0:
                # Move the span's metrics time to the obs layer, never more
                # than the span was credited with.
                moved = min(obs_total, own)
                own -= moved
                for obs_key, seconds in span.obs_s.items():
                    self.self_s[(kind, obs_key)] += moved * seconds / obs_total
            for obs_key, count in span.obs_n.items():
                self.calls[(kind, obs_key)] += count
            self.self_s[(kind, span.key)] += own
            total += exclusive[i]
            if i:
                self.calls[(kind, span.key)] += 1
                self.nbytes[(kind, span.key)] += span.nbytes
        wall = op.root.end - op.root.start if op.client_wall is None else op.client_wall
        self.ops[kind] += 1
        self.wall_s[kind] += wall
        self.attributed_s[kind] += total
        self.worst_gap_s = max(self.worst_gap_s, abs(total - wall))

    # -- totals ---------------------------------------------------------------------

    def total(self, table, key: str, kinds) -> float:
        return sum(value for (kind, k), value in table.items() if k == key and kind in kinds)
