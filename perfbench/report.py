"""Every metric of every workload in one table, a result file, and ratios.

    python3 perfbench/report.py [--seed N] [--seconds S] [--trace] [--out FILE]
    python3 perfbench/report.py --compare OLD.json [--load NEW.json | run options]

Without ``--load`` it runs each workload once untraced (``run.measure``)
and prints each end-to-end metric with its unit, including ``error_rate``
and the percentile and sample count behind ``op_latency_tail_s``.
``--trace`` adds the traced run and its per-layer metrics.  ``--out``
writes the result file, which records the git sha, seed, versions,
whether numba imports, and the CPU count once.  ``--compare`` prints,
per workload, each metric's ratio new / old against an earlier file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Dict

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import run  # noqa: E402

EXTRA_UNITS = {"error_rate": "ratio"}


def collect(seed: int, seconds: float, trace: bool) -> Dict:
    spec = run.load_spec()
    units = {m["name"]: m["unit"] for m in spec["end_to_end"]} | EXTRA_UNITS
    doc: Dict = {"environment": run.environment(seed), "seconds": seconds, "workloads": {}}
    for name in run.WORKLOADS:
        res = run.measure(name, seed, seconds, trace=False)
        metrics = {k: {"value": v, "unit": units[k]} for k, v in res["metrics"].items()}
        doc["workloads"][name] = {
            "attempted": res["attempted"], "failed": res["failed"], "metrics": metrics, "detail": res["detail"],
        }
    if trace:
        res = run.measure(run.WORKLOADS[0], seed, seconds, trace=True)
        doc["per_layer"] = run.select(res["metrics"], spec["per_layer"])
    return doc


def show(doc: Dict) -> None:
    env = doc["environment"]
    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, wl in doc["workloads"].items():
        d = wl["detail"]
        print(f"\n[{name}]  attempted={wl['attempted']} failed={wl['failed']} known_defect={d.get('known_defect', 0)}")
        for metric, m in wl["metrics"].items():
            extra = ""
            if metric == "op_latency_tail_s":
                extra = f"  (p{d['tail_percentile']:.2f} of {d['samples']} samples, {d['tail_samples_above']} above)"
            print(f"  {metric:<20} {m['value']:>14.6g} {m['unit']}{extra}")
        for note in d.get("notes", []):
            print(f"  failure: {note}")
    if "per_layer" in doc:
        print("\n[per layer, traced run]")
        for metric, m in doc["per_layer"].items():
            print(f"  {metric:<60} {m['value']:>14.6g} {m['unit']}")


def compare(new: Dict, old: Dict) -> None:
    """Ratio new / old of every metric present in both results."""
    better = {m["name"]: m["better"] for m in run.load_spec()["end_to_end"]}
    print(f"\nratios new/old  (old: {old['environment'].get('git_sha', '?')[:12]}, "
          f"new: {new['environment'].get('git_sha', '?')[:12]})")
    for name, wl in new["workloads"].items():
        before = old.get("workloads", {}).get(name)
        if not before:
            print(f"\n[{name}] not in the old result")
            continue
        print(f"\n[{name}]")
        for metric, m in wl["metrics"].items():
            if metric not in before["metrics"] or not before["metrics"][metric]["value"]:
                continue
            ratio = m["value"] / before["metrics"][metric]["value"]
            hint = f"  ({better[metric]} is better)" if metric in better else ""
            print(f"  {metric:<20} {ratio:>8.3f}{hint}")
    if "per_layer" in new and "per_layer" in old:
        print("\n[per layer]")
        for metric, m in new["per_layer"].items():
            base = old["per_layer"].get(metric, {}).get("value")
            if base:
                print(f"  {metric:<60} {m['value'] / base:>8.3f}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", action="store_true", help="also run the traced run")
    parser.add_argument("--out", help="write the result file here")
    parser.add_argument("--compare", metavar="OLD", help="print ratios against this result file")
    parser.add_argument("--load", metavar="NEW", help="compare this result file instead of running")
    args = parser.parse_args(argv)
    try:
        if args.load:
            with open(args.load, encoding="utf-8") as fh:
                doc = json.load(fh)
        else:
            seconds = args.seconds or run.load_spec()["run_seconds"]
            doc = collect(args.seed, seconds, args.trace)
    except (run.BenchError, OSError, ValueError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    show(doc)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    if args.compare:
        with open(args.compare, encoding="utf-8") as fh:
            compare(doc, json.load(fh))
    return 0


if __name__ == "__main__":
    sys.exit(main())
