"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/collect.py --seeds 1-10 --out perfbench/results/BENCH_baseline.json

For each workload (default: all in ``BENCHMARK.json``) and each seed it
runs ``run.py --trace 0`` once, then reports for every end-to-end metric
the median, the quartiles (``statistics.quantiles(values, n=4)``) and the
spread, i.e. the inter-quartile distance as a share of the median, next
to the metric's bound. ``--trace-seed`` adds one traced run per workload
and stores its per-layer metrics. Runs are sequential: one at a time.
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


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> tuple[dict, list]:
    argv = [sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    out = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=200)
    if out.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} exited {out.returncode}:\n{out.stderr}")
    lines = [json.loads(line) for line in out.stdout.splitlines() if line.startswith("{")]
    return lines[-1], lines[:-1]


def summarise(values: list[float], bound: float | None) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    out = {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med,
           "values": values}
    if bound is not None:
        out["bound"] = bound
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--trace-seed", type=int, default=None)
    ap.add_argument("--out", type=Path, default=None)
    args = ap.parse_args(argv)

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {"seconds": args.seconds, "seeds": seed_list(args.seeds), "workloads": {}}
    for workload in args.workloads.split(","):
        runs, host = [], None
        for seed in report["seeds"]:
            result, before = run_once(workload, seed, args.seconds, 0)
            host = host or next(line["host"] for line in before if "host" in line)
            detail = next(line["detail"] for line in before if "detail" in line)
            runs.append({"seed": seed, "correct": result["correct"],
                         "attempted": result["attempted"], "failed": result["failed"],
                         "metrics": {k: v["value"] for k, v in result["metrics"].items()},
                         "detail": detail})
            print(workload, seed, json.dumps(runs[-1]["metrics"]), file=sys.stderr)
        entry = {"host": host, "runs": runs, "metrics": {}}
        for name, bound in bounds.items():
            stats = summarise([r["metrics"][name] for r in runs], bound)
            entry["metrics"][name] = stats
            flag = "" if stats["spread"] < bound / 3 else "  <-- above bound/3"
            print(f"{workload:12s} {name:18s} median={stats['median']:.6g} "
                  f"spread={stats['spread']:.4f} bound={bound}{flag}")
        entry["failed"] = sum(r["failed"] for r in runs)
        entry["attempted"] = sum(r["attempted"] for r in runs)
        if args.trace_seed is not None:
            result, before = run_once(workload, args.trace_seed, args.seconds, 1)
            entry["traced"] = {"seed": args.trace_seed,
                               "metrics": {k: v["value"]
                                           for k, v in result["metrics"].items()},
                               "absent": next(line["absent"] for line in before
                                              if "absent" in line)}
        report["workloads"][workload] = entry

    if args.out:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(report, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
