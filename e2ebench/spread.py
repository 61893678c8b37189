#!/usr/bin/env python3
"""Spread summary: N run records of a workload -> median, quartiles,
min/max of each metric, flagged where the spread passes its bound.

The spread of a metric is (Q3 - Q1) / median over the runs, with the
quartiles from ``statistics.quantiles(values, n=4)``; the bound is the
metric's ``bound`` in BENCHMARK.json.  ``steady`` additionally asks for
a spread under a third of the bound.

    # run the benchmark 10 times per workload (seeds 1..10), interleaved
    python3 e2ebench/spread.py run --runs 10 --out e2ebench/SPREAD.json

    # summarize records written by ``run.py --record``
    python3 e2ebench/spread.py summarize rec1.json rec2.json ...

    # did the medians of a second set get worse than the first by more
    # than the bound? (exit 1 if so)
    python3 e2ebench/spread.py compare first.json second.json
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def load_bounds() -> tuple[dict, dict[str, dict]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec, {m["name"]: m for m in spec["end_to_end"]}


def summarize(records: list[dict], bounds: dict[str, dict]) -> dict:
    """One workload's records -> per-metric summary."""
    metrics: dict[str, dict] = {}
    names = sorted({n for r in records for n in r["metrics"]})
    for name in names:
        values = [r["metrics"][name]["value"] for r in records
                  if name in r["metrics"]]
        median = statistics.median(values)
        q1, _, q3 = (statistics.quantiles(values, n=4)
                     if len(values) > 1 else (values[0],) * 3)
        spread = (q3 - q1) / median if median else 0.0
        entry = {"unit": records[0]["metrics"][name]["unit"],
                 "n": len(values), "median": median, "q1": q1, "q3": q3,
                 "min": min(values), "max": max(values), "spread": spread,
                 "values": values}
        bound = bounds.get(name, {}).get("bound")
        if bound is not None:
            entry["bound"] = bound
            entry["within_bound"] = spread <= bound
            entry["steady"] = spread < bound / 3
        metrics[name] = entry
    steal = [r["fingerprint"].get("steal_share") for r in records
             if r.get("fingerprint", {}).get("steal_share") is not None]
    return {
        "runs": len(records),
        "seeds": [r.get("seed") for r in records],
        "correct": all(r["failed"] == 0 and r["wrong"] == 0
                       for r in records),
        "attempted": sum(r["attempted"] for r in records),
        "steal_share_max": max(steal) if steal else None,
        # Whole-run wall (start-up, set-up, measuring, clean-up), where
        # the records were made by ``run``.
        "run_wall_s_max": max((r["run_wall_s"] for r in records
                               if "run_wall_s" in r), default=None),
        "flagged": sorted(n for n, m in metrics.items()
                          if m.get("within_bound") is False),
        "metrics": metrics,
    }


def compare(first: dict, second: dict,
            bounds: dict[str, dict]) -> dict[str, dict]:
    """How much worse each bounded metric's median got from the first
    summary to the second, as a share of the first median."""
    out = {}
    for workload, s1 in first["workloads"].items():
        s2 = second["workloads"].get(workload, {"metrics": {}})
        for name, m1 in s1["metrics"].items():
            spec, m2 = bounds.get(name), s2["metrics"].get(name)
            if spec is None or m2 is None:
                continue
            change = (m2["median"] - m1["median"]) / m1["median"]
            worse = -change if spec["better"] == "higher" else change
            out[f"{workload}/{name}"] = {
                "first": m1["median"], "second": m2["median"],
                "worse_by": worse, "bound": spec["bound"],
                "within_bound": worse <= spec["bound"]}
    return out


def run_all(args) -> dict:
    spec, bounds = load_bounds()
    workloads = args.workload or [w["name"] for w in spec["workloads"]]
    seconds = args.seconds or spec["run_seconds"]
    work = ROOT / ".bench_work" / "spread"
    work.mkdir(parents=True, exist_ok=True)
    records: dict[str, list[dict]] = {w: [] for w in workloads}
    for i in range(args.runs):
        seed = args.first_seed + i
        for workload in workloads:
            path = work / f"{workload}-{seed}.json"
            start = time.perf_counter()
            subprocess.run(
                [*spec["command"], "--workload", workload, "--seed",
                 str(seed), "--seconds", str(seconds), "--trace", "0",
                 "--record", str(path)],
                cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
            record = json.loads(path.read_text())
            record["run_wall_s"] = time.perf_counter() - start
            records[workload].append(record)
            path.unlink()
            print(f"{workload} seed={seed} done", file=sys.stderr)
    work.rmdir()
    summary = {"run_seconds": seconds, "fingerprint":
               records[workloads[0]][0]["fingerprint"],
               "workloads": {w: summarize(r, bounds)
                             for w, r in records.items()}}
    return summary


def print_summary(summary: dict) -> None:
    for workload, s in summary["workloads"].items():
        print(f"{workload}: {s['runs']} runs, correct={s['correct']}, "
              f"max steal {s['steal_share_max']}, "
              f"longest run {s.get('run_wall_s_max')} s")
        for name, m in s["metrics"].items():
            flag = ""
            if "bound" in m:
                flag = ("  STEADY" if m["steady"] else
                        "  within bound" if m["within_bound"] else
                        "  OVER BOUND")
            print(f"  {name:<14}median {m['median']:<12.6g}"
                  f"q1 {m['q1']:<12.6g}q3 {m['q3']:<12.6g}"
                  f"spread {m['spread']:7.2%}"
                  + (f" / bound {m['bound']:.0%}" if "bound" in m else "")
                  + flag)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = p.add_subparsers(dest="cmd", required=True)
    r = sub.add_parser("run", help="run the benchmark and summarize")
    r.add_argument("--workload", action="append")
    r.add_argument("--runs", type=int, default=10)
    r.add_argument("--first-seed", type=int, default=1)
    r.add_argument("--seconds", type=int)
    r.add_argument("--out", help="write the summary JSON here")
    s = sub.add_parser("summarize", help="summarize run records")
    s.add_argument("records", nargs="+")
    c = sub.add_parser("compare", help="median drift between two summaries")
    c.add_argument("first")
    c.add_argument("second")
    args = p.parse_args(argv)
    if args.cmd == "compare":
        _, bounds = load_bounds()
        drift = compare(*(json.loads(Path(f).read_text())
                          for f in (args.first, args.second)), bounds)
        for key, d in drift.items():
            print(f"{key:<32}{d['first']:<12.6g}-> {d['second']:<12.6g}"
                  f"worse by {d['worse_by']:+7.2%} / bound {d['bound']:.0%}"
                  + ("" if d["within_bound"] else "  OVER BOUND"))
        return 0 if all(d["within_bound"] for d in drift.values()) else 1
    if args.cmd == "run":
        summary = run_all(args)
    else:
        _, bounds = load_bounds()
        by_workload: dict[str, list[dict]] = {}
        for path in args.records:
            record = json.loads(Path(path).read_text())
            by_workload.setdefault(record["workload"], []).append(record)
        summary = {"workloads": {w: summarize(r, bounds)
                                 for w, r in by_workload.items()}}
    print_summary(summary)
    if getattr(args, "out", None):
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
