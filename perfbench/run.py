"""fusevit benchmark: run one workload once and print its result.

    python3 perfbench/run.py --workload desk-train --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout; the program is imported from ``src/``
there, nothing needs installing. Workloads (see ``BENCHMARK.json``):
desk-train, desk-eval, paper-infer, gradcheck.

With ``--trace 0`` the last line of standard output is one JSON object
with the end-to-end metrics: set-up time (the fastest of many
fresh-process set-ups, each timed from ``import fusevit`` to the end of
set-up; see ``probe.py``), best-of-run throughput and latency, and peak
RSS. With
``--trace 1`` it holds the per-layer metrics of a separate traced run
instead. The lines before it give the host record, the workload's own
figures under their usual names (train_img_per_s_p50, infer_ms_p99,
gradcheck_s, failed_ratio, ...) and, when traced, the per-layer metrics
reported absent with the reason. The exit code is 0 whenever a result was printed, also when an
oracle flagged a wrong output (``correct`` is then false); it is not 0
when no result could be produced.

This file uses the standard library only: the workload runs in worker
processes (``worker.py``, ``probe.py``) with the BLAS thread count set
here.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
READY = "PERFBENCH-READY"
WORKLOADS = ("desk-train", "desk-eval", "paper-infer", "gradcheck")
NEEDS_PREP = ("desk-eval",)     # loads a dataset and checkpoint written beforehand
PROBE_SECONDS = 2.5             # set-up sampling before the run, and again after it
BLAS_THREADS = 2
TIME_LIMIT_S = 170.0            # whole run, all worker processes included


class BenchError(Exception):
    pass


def blas_threads() -> int:
    return max(1, min(BLAS_THREADS, len(os.sched_getaffinity(0))))


def run_script(args, script: str, extra: list[str], deadline: float) -> list[str]:
    """Run one of the benchmark's scripts to its end; return its output lines."""
    argv = [sys.executable, str(HERE / script), "--workload", args.workload,
            "--seed", str(args.seed), *extra]
    if args.tiny:
        argv.append("--tiny")
    threads = str(blas_threads())
    env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
               MKL_NUM_THREADS=threads)
    remaining = deadline - perf_counter()
    if remaining <= 0:
        raise BenchError(f"no time left for {script}")
    proc = subprocess.Popen(argv, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True)
    watchdog = threading.Timer(remaining, proc.kill)
    watchdog.start()
    try:
        lines = [line.rstrip("\n") for line in proc.stdout]
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()
    if code != 0:
        raise BenchError(f"{' '.join(argv[1:])} exited with code {code}")
    return lines


def run_worker(args, phase: str, deadline: float) -> tuple[float | None, list[str]]:
    """Run one worker; return the set-up time on its ready line, and its other output."""
    lines = run_script(args, "worker.py", ["--seconds", str(args.seconds),
                                           "--trace", str(args.trace), "--phase", phase],
                       deadline)
    ready = next((float(line[len(READY) + 1:]) for line in lines
                  if line.startswith(READY + " ")), None)
    if phase == "run" and ready is None:
        raise BenchError(f"run worker for {args.workload} never became ready")
    return ready, [line for line in lines if not line.startswith(READY + " ")]


def probe_setup(args, deadline: float) -> list[float]:
    """Set-up times of many fresh processes, taken by ``probe.py``."""
    lines = run_script(args, "probe.py", ["--budget", str(PROBE_SECONDS)], deadline)
    samples = last_json(lines)
    if not isinstance(samples, list) or not samples:
        raise BenchError(f"probe.py printed no set-up samples: {lines[-1:]!r}")
    return samples


def last_json(lines: list[str]):
    if not lines:
        raise BenchError("worker printed no result")
    try:
        return json.loads(lines[-1])
    except ValueError as exc:
        raise BenchError(f"worker result is not JSON: {lines[-1][:200]!r}") from exc


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--tiny", action="store_true",
                    help="shrink every workload to seconds-long sizes (self-test)")
    args = ap.parse_args(argv)
    if args.seed < 0:
        ap.error("--seed must be >= 0")
    if not 1 <= args.seconds <= 60:
        ap.error("--seconds must be in 1..60")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    deadline = perf_counter() + TIME_LIMIT_S
    if not (ROOT / "src" / "fusevit" / "__init__.py").is_file():
        print(f"error: no fusevit sources under {ROOT / 'src'}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    try:
        if args.workload in NEEDS_PREP:
            run_worker(args, "prep", deadline)
        # set-up probes before and after the run: the host's speed changes
        # over seconds, so spreading them out gives the fastest a better chance
        setups = [] if args.trace else probe_setup(args, deadline)
        ready, lines = run_worker(args, "run", deadline)
        setups.append(ready)
        if not args.trace:
            setups += probe_setup(args, deadline)
        result = last_json(lines)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics = {"setup_s": {"value": min(setups), "unit": "s"},
                   **metrics}
        result["detail"]["setup_s_p50"] = {"value": statistics.median(setups), "unit": "s",
                                           "samples": len(setups)}
    print(json.dumps({"host": result["host"]}))
    if result["problems"]:
        print(json.dumps({"problems": result["problems"]}))
    if args.trace:
        print(json.dumps({"absent": result["absent"], "spans": result["spans"]}))
    else:
        print(json.dumps({"detail": result["detail"]}))
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
