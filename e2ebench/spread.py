#!/usr/bin/env python3
"""Steadiness check for the benchmark.

Runs one workload once per seed, one run at a time, and prints for every
end-to-end metric (and the workload-specific figures of the report line)
the median and the quartile spread, (Q3 - Q1) / median, with the quartiles
``statistics.quantiles(values, n=4)`` gives, next to the metric's bound::

    python3 e2ebench/spread.py --workload ingest-small --seeds 1-10 --out a.json

``--compare a.json b.json`` reads two such files (same workload, e.g. two
sets of runs of the same code) and prints how far the second median is
worse than the first, as a share of the first, next to the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
#: Report-line figures that are not end-to-end metrics but whose steadiness
#: is still checked here.
EXTRA = {
    "maintenance_mb_s": "higher",
    "epoch_p50_ms": "lower",
}


def _seeds(text: str) -> list[int]:
    seeds: list[int] = []
    for part in text.split(","):
        low, _, high = part.partition("-")
        seeds.extend(range(int(low), int(high or low) + 1))
    return seeds


def _benchmark() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def run_seeds(workload: str, seeds: list[int], seconds: float) -> list[dict]:
    runs = []
    for seed in seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", workload,
             "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
            cwd=ROOT, capture_output=True, text=True, timeout=600, check=False,
        )
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or len(lines) < 2:
            raise SystemExit(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}")
        report = json.loads(lines[-2])["report"]
        result = json.loads(lines[-1])
        values = {name: m["value"] for name, m in result["metrics"].items()}
        for name in EXTRA:
            if report["detail"].get(name) is not None:
                values[name] = report["detail"][name]
        # The gated metrics from unadjusted wall time, for comparison.
        for name, value in report["detail"]["raw"].items():
            if value is not None:
                values[f"raw.{name}"] = value
        calibration = report["diagnostics"]["calibration_ms"]
        runs.append({"seed": seed, "values": values, "calibration_ms": calibration,
                     "failed": result["failed"], "correct": result["correct"]})
        print(f"seed {seed}: " + " ".join(f"{k}={v:.4g}" for k, v in values.items()),
              file=sys.stderr)
    return runs


def summarize(workload: str, runs: list[dict]) -> dict:
    bounds = {m["name"]: m["bound"] for m in _benchmark()["end_to_end"]}
    summary = {}
    for name in runs[0]["values"]:
        values = [run["values"][name] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        summary[name] = {"median": median, "spread": spread, "bound": bounds.get(name),
                         "values": values}
    return {"workload": workload, "runs": runs, "metrics": summary}


def print_summary(summary: dict) -> None:
    print(f"{summary['workload']}: {len(summary['runs'])} runs")
    for name, s in summary["metrics"].items():
        bound = s["bound"]
        if bound is None:
            verdict = "(not gated)"
        elif name == "setup_s":
            verdict = "(spread not gated)"
        elif s["spread"] < bound / 3:
            verdict = "steady"
        elif s["spread"] <= bound:
            verdict = "within bound, above a third of it"
        else:
            verdict = "TOO NOISY"
        print(f"  {name:28s} median {s['median']:12.5g}  spread {s['spread']:7.2%}"
              f"  bound {bound if bound is not None else '-'}  {verdict}")


def compare(first: dict, second: dict) -> None:
    direction = {m["name"]: m["better"] for m in _benchmark()["end_to_end"]}
    direction.update(EXTRA)
    direction.update({f"raw.{name}": better for name, better in list(direction.items())})
    print(f"{first['workload']}: second set against first")
    for name, a in first["metrics"].items():
        b = second["metrics"].get(name)
        if b is None:
            continue
        if direction[name] == "lower":
            worse = (b["median"] - a["median"]) / a["median"]
        else:
            worse = (a["median"] - b["median"]) / a["median"]
        bound = a["bound"]
        flag = "" if bound is None or worse <= bound else "  WORSE THAN BOUND"
        print(f"  {name:28s} {a['median']:12.5g} -> {b['median']:12.5g}"
              f"  worse by {worse:+7.2%}  bound {bound if bound is not None else '-'}{flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--out", type=Path)
    parser.add_argument("--compare", nargs=2, type=Path)
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(path.read_text()) for path in args.compare)
        compare(first, second)
        return 0
    if not args.workload:
        parser.error("--workload is required unless --compare is given")
    seconds = args.seconds or _benchmark()["run_seconds"]
    summary = summarize(args.workload, run_seeds(args.workload, _seeds(args.seeds), seconds))
    print_summary(summary)
    if args.out:
        args.out.write_text(json.dumps(summary, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
