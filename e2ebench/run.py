#!/usr/bin/env python3
"""One run of the end-to-end SecureArchive benchmark.

Run from the repository root::

    python3 e2ebench/run.py --workload ingest-small --seed 1 --seconds 40 --trace 0

The library is imported from ``src/`` next to this directory, at its
default settings.  Standard output ends with a ``{"report": ...}`` line
(sample counts, workload-specific figures, noise diagnostics) and then one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  With ``--trace 0`` the metrics are the end-to-end metrics of
``BENCHMARK.json``, their times adjusted to the reference host speed (see
``workloads.py``).  With ``--trace 1`` the workload runs twice at half
length in the process, untraced and then traced, and the metrics are the
per-layer ones, from raw wall time.

Exit status: 0 after a run whose reads all returned the stored bytes, 1
when any read returned wrong bytes, 2 when ``src/repro`` is missing.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import os
import platform
import random
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

from tracer import Tracer
from workloads import NOMINAL_SECONDS, WORKLOADS, Client, HostSpeed, NullTracer, UnadjustedSpeed

#: Set-up is timed this many times per run and reported as the median.
SETUP_REPEATS = 5
MEASURED_OPS = ("store", "retrieve", "delete", "advance_epoch")
MB = 1e6


class CountingHandler(logging.Handler):
    """Keeps the library's log records off the terminal and counts them."""

    def __init__(self) -> None:
        super().__init__(level=logging.DEBUG)
        self.records = 0

    def emit(self, record: logging.LogRecord) -> None:
        self.records += 1


def calibration_ms() -> float:
    """Median of five timings of a fixed pure-Python loop: a reading of the
    machine's speed at this moment, independent of the library."""
    timings = []
    for _ in range(5):
        start = perf_counter()
        total = 0
        for i in range(100_000):
            total += i * i
        timings.append(perf_counter() - start)
    return statistics.median(timings) * 1e3


def _counter_totals() -> dict:
    from repro.gmath.kernel import plan_cache_info
    from repro.obs import get_registry

    counters = get_registry().snapshot()["counters"]
    caches = plan_cache_info().values()
    return {
        "fetched": counters.get("storage_shares_fetched_total", 0),
        "fetch_attempts": counters.get("storage_fetch_attempts_total", 0),
        "put_bytes": counters.get("storage_put_bytes_total", 0),
        "plan_hits": sum(info["hits"] for info in caches),
        "plan_misses": sum(info["misses"] for info in caches),
    }


def run_pass(
    workload: str, seed: int, scale: float, logs: CountingHandler, tracer=None, speed=None
) -> dict:
    """Set up (timed several times), run the workload, audit; returns the
    raw figures of the pass.  With a :class:`HostSpeed`, times are adjusted
    to the reference host speed."""
    setup, run, large = WORKLOADS[workload]
    op_tracer = tracer if tracer is not None else NullTracer()
    speed = speed or UnadjustedSpeed()
    setup_s, raw_setup_s = [], []
    for _ in range(SETUP_REPEATS):
        # Drop the previous set-up's archive before timing the next one.
        archive = nodes = None
        gc.collect()
        before = speed.read()
        start = perf_counter()
        with op_tracer.op("setup"):
            archive, nodes = setup(seed)
        raw_setup_s.append(perf_counter() - start)
        setup_s.append(speed.adjust(raw_setup_s[-1], before))
    client = Client(archive, nodes, tracer, large=large, speed=speed)
    before = _counter_totals()
    logs_before = logs.records
    start = perf_counter()
    run(client, random.Random(seed), scale)
    wall_s = perf_counter() - start
    after = _counter_totals()
    log_records = logs.records - logs_before
    audited, lost = client.audit()
    stored, orphaned = client.share_inventory()
    return {
        "client": client,
        "setup_s": setup_s,
        "raw_setup_s": raw_setup_s,
        "wall_s": wall_s,
        "counters": {key: after[key] - before[key] for key in after},
        "log_records": log_records,
        "audited": audited,
        "lost": lost,
        "stored_bytes": stored,
        "orphan_bytes": orphaned,
        "live_bytes": sum(len(data) for data in client.payloads.values()),
        "wrong_bytes": client.wrong_bytes,
        "attempted": client.attempted + audited,
        "failed": client.failed + lost,
    }


def _p50_ms(samples: list[float]) -> float | None:
    return statistics.median(samples) * 1e3 if samples else None


def _p90_ms(samples: list[float]) -> float | None:
    """The 90th percentile, or None when fewer than ten samples lie beyond it."""
    if len(samples) < 100:
        return None
    return statistics.quantiles(samples, n=10, method="inclusive")[8] * 1e3


def end_to_end(result: dict) -> tuple[dict, dict]:
    """(metrics of BENCHMARK.json, workload-specific figures)."""
    client = result["client"]
    store = client.latency["store"]
    retrieve = client.latency["retrieve"]
    metrics = {
        "setup_s": (statistics.median(result["setup_s"]), "s"),
        "ingest_mb_s": (client.user_bytes["store"] / sum(store) / MB, "MB/s"),
        "store_p50_ms": (_p50_ms(store), "ms"),
        "store_p90_ms": (_p90_ms(store), "ms"),
        "read_mb_s": (client.user_bytes["retrieve"] / sum(retrieve) / MB, "MB/s"),
        "retrieve_p50_ms": (_p50_ms(retrieve), "ms"),
        "retrieve_p90_ms": (_p90_ms(retrieve), "ms"),
        "stored_bytes_per_user_byte": (result["stored_bytes"] / result["live_bytes"], "ratio"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
    }
    epochs = client.latency["advance_epoch"]
    raw = client.raw_latency
    extra = {
        # The gated figures again from wall time as read, not adjusted to the
        # reference host speed.
        "raw": {
            "setup_s": statistics.median(result["raw_setup_s"]),
            "ingest_mb_s": client.user_bytes["store"] / sum(raw["store"]) / MB,
            "store_p50_ms": _p50_ms(raw["store"]),
            "store_p90_ms": _p90_ms(raw["store"]),
            "read_mb_s": client.user_bytes["retrieve"] / sum(raw["retrieve"]) / MB,
            "retrieve_p50_ms": _p50_ms(raw["retrieve"]),
            "retrieve_p90_ms": _p90_ms(raw["retrieve"]),
        },
        "maintenance_mb_s": (
            client.user_bytes["maintenance"] / sum(epochs) / MB
            if client.user_bytes["maintenance"]
            else None
        ),
        "epoch_p50_ms": _p50_ms(epochs),
        "delete_p50_ms": _p50_ms(client.latency["delete"]),
        "failed_op_ratio": client.failed / client.attempted,
        "lost_object_ratio": result["lost"] / result["audited"] if result["audited"] else 0.0,
        "orphan_share_bytes": result["orphan_bytes"],
        "log_records": result["log_records"],
    }
    return metrics, extra


def per_layer(traced: dict, untraced: dict, tracer: Tracer) -> tuple[dict, dict]:
    """(per-layer metrics of BENCHMARK.json, detail kept out of them)."""
    measured = set(MEASURED_OPS)
    everything = measured | {"setup"}

    def self_s(key: str, kinds=measured) -> float:
        return tracer.total(tracer.self_s, key, kinds)

    def calls(key: str, kinds=measured) -> int:
        return int(tracer.total(tracer.calls, key, kinds))

    def nbytes(key: str) -> int:
        return int(tracer.total(tracer.nbytes, key, measured))

    ops = sum(tracer.ops[kind] for kind in measured)
    counters = traced["counters"]
    user_stored = traced["client"].user_bytes["store"]
    plan_lookups = counters["plan_hits"] + counters["plan_misses"]
    metrics = {
        "channels.send.self_s": (self_s("channels.send"), "s"),
        "channels.receive.self_s": (self_s("channels.receive"), "s"),
        "channels.messages": (calls("channels.send"), "count"),
        "channels.bytes": (nbytes("channels.send"), "bytes"),
        "secretsharing.split.self_s": (self_s("secretsharing.split"), "s"),
        "secretsharing.reconstruct.self_s": (self_s("secretsharing.reconstruct"), "s"),
        "secretsharing.calls": (
            calls("secretsharing.split") + calls("secretsharing.reconstruct"),
            "count",
        ),
        "secretsharing.bytes": (
            nbytes("secretsharing.split") + nbytes("secretsharing.reconstruct"),
            "bytes",
        ),
        "gmath.plan_cache_hit_ratio": (
            counters["plan_hits"] / plan_lookups if plan_lookups else 0.0,
            "ratio",
        ),
        "storage.place.self_s": (self_s("storage.place"), "s"),
        "storage.put.self_s": (self_s("storage.put"), "s"),
        "storage.fetch.self_s": (self_s("storage.fetch"), "s"),
        "storage.delete.self_s": (self_s("storage.delete"), "s"),
        "storage.put.calls": (calls("storage.put"), "count"),
        "storage.fetch.useful_ratio": (
            counters["fetched"] / counters["fetch_attempts"], "ratio"
        ),
        "storage.bytes_written_per_user_byte": (counters["put_bytes"] / user_stored, "ratio"),
        "storage.orphan_share_bytes": (traced["orphan_bytes"], "bytes"),
        "integrity.timestamp.self_s": (self_s("integrity.timestamp"), "s"),
        "integrity.renew_chain.self_s": (self_s("integrity.renew_chain"), "s"),
        "integrity.signer_keygen.self_s": (
            self_s("integrity.signer_keygen", everything), "s"
        ),
        "integrity.signer_keygen.calls": (
            calls("integrity.signer_keygen", everything), "count"
        ),
        "integrity.signature_bytes_per_store": (
            nbytes("integrity.timestamp") / calls("integrity.timestamp"), "bytes"
        ),
        "obs.inc.calls": (calls("obs.inc") / ops, "count/op"),
        "obs.observe.calls": (calls("obs.observe") / ops, "count/op"),
        "obs.inc.self_s": (self_s("obs.inc"), "s"),
        "obs.log_records": (traced["log_records"], "count"),
        "core.store.self_s": (self_s("core.store", {"store"}), "s"),
        "core.retrieve.self_s": (self_s("core.retrieve", {"retrieve"}), "s"),
        "core.advance_epoch.self_s": (self_s("core.advance_epoch", {"advance_epoch"}), "s"),
        "core.delete.self_s": (self_s("core.delete", {"delete"}), "s"),
        "trace_overhead_ratio": (traced["wall_s"] / untraced["wall_s"], "ratio"),
    }
    detail = {
        "storage.migrate.self_s": self_s("storage.migrate"),
        "storage.migrate.calls": calls("storage.migrate"),
        "obs.observe.self_s": self_s("obs.observe"),
        "ops": {kind: tracer.ops[kind] for kind in measured},
        "attribution": {
            kind: {
                "wall_s": tracer.wall_s[kind],
                "attributed_s": tracer.attributed_s[kind],
            }
            for kind in MEASURED_OPS
        },
        "worst_op_gap_s": tracer.worst_gap_s,
        "traced_wall_s": traced["wall_s"],
        "untraced_wall_s": untraced["wall_s"],
    }
    return metrics, detail


def diagnostics(calibration_start: float, calibration_end: float, speed) -> dict:
    import numpy

    from repro import SecureArchive
    from repro.config import kernel_workers

    readings = speed.readings
    return {
        "calibration_ms": {"start": calibration_start, "end": calibration_end},
        "host_slowdown": {
            "probes": len(readings),
            "min": min(readings, default=None),
            "median": statistics.median(readings) if readings else None,
            "max": max(readings, default=None),
        },
        "loadavg": os.getloadavg(),
        "kernel_workers": kernel_workers(),
        "batch_workers": getattr(SecureArchive, "_BATCH_WORKERS", None),
        "signer_height": SecureArchive.SIGNER_HEIGHT,
        "segment_bytes": SecureArchive.SEGMENT_BYTES,
        "REPRO_KERNEL_WORKERS": os.environ.get("REPRO_KERNEL_WORKERS"),
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=NOMINAL_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = Path(__file__).resolve().parent.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: library source not found at {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))

    logs = CountingHandler()
    library_logger = logging.getLogger("repro")
    library_logger.addHandler(logs)
    library_logger.propagate = False

    scale = args.seconds / NOMINAL_SECONDS
    speed = UnadjustedSpeed()
    calibration_start = calibration_ms()
    if args.trace:
        # Two half-length passes keep a traced run about as long as an
        # untraced one.
        scale /= 2
        untraced = run_pass(args.workload, args.seed, scale, logs)
        # Free the untraced pass's archive before the traced pass builds its own.
        untraced.pop("client")
        gc.collect()
        tracer = Tracer()
        tracer.install()
        try:
            result = run_pass(args.workload, args.seed, scale, logs, tracer)
        finally:
            tracer.uninstall()
        tracer.finish()
        metrics, detail = per_layer(result, untraced, tracer)
        passes = (untraced, result)
    else:
        speed = HostSpeed()
        result = run_pass(args.workload, args.seed, scale, logs, speed=speed)
        metrics, detail = end_to_end(result)
        passes = (result,)
    wrong = sum(p["wrong_bytes"] for p in passes)
    client = result["client"]
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "scale": scale,
        "wall_s": result["wall_s"],
        "setup_s": result["setup_s"],
        "samples": {kind: len(values) for kind, values in client.latency.items()},
        "inventory": {
            key: result[key] for key in ("stored_bytes", "orphan_bytes", "live_bytes")
        },
        "errors": dict(client.errors),
        "detail": detail,
        "diagnostics": diagnostics(calibration_start, calibration_ms(), speed),
    }
    print(json.dumps({"report": report}))
    missing = sorted(name for name, (value, _) in metrics.items() if value is None)
    if missing:
        print(f"e2ebench: too few samples for {', '.join(missing)}", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": wrong == 0,
                "attempted": sum(p["attempted"] for p in passes),
                "failed": sum(p["failed"] for p in passes),
                "metrics": {
                    name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()
                    if value is not None
                },
            }
        )
    )
    return 0 if wrong == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
