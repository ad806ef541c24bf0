"""Time a workload's set-up in fresh processes, many times over.

``run.py`` starts this script before and after the measured run; it is not
meant to be run by hand. This process imports the third-party modules the
program uses (numpy, scipy.special) and the benchmark's own, but not the
program. Each sample is a child forked from it: the child imports
``worker`` and with it fusevit, runs the workload's ``setup()`` and
reports the time from just before ``import fusevit`` to the end of set-up.
Children run one at a time, each waited for, until ``--budget`` seconds
have passed and at least ``MIN_SAMPLES`` were taken. The last line of
standard output is a JSON list of the samples in seconds.

One set-up takes tens of milliseconds, and the shared host's speed
changes from one moment to the next, so the benchmark needs many samples
spread over a few seconds; a forked child costs a few milliseconds where a
new interpreter costs half a second.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import traceback
from time import perf_counter

import numpy  # noqa: F401
import scipy.special  # noqa: F401

import oracle  # noqa: F401
import tracer  # noqa: F401

MIN_SAMPLES = 2


def sample(args) -> float:
    read, write = os.pipe()
    pid = os.fork()
    if pid == 0:
        code = 1
        try:
            os.close(read)
            import worker
            if not worker.imported_from_src():
                raise RuntimeError(f"fusevit imported from {worker.fusevit.__file__}")
            worker.WORKLOADS[args.workload](args.seed, args.tiny).setup()
            os.write(write, repr(perf_counter() - worker.SETUP_START).encode())
            code = 0
        except BaseException:
            traceback.print_exc()
        finally:
            os._exit(code)
    os.close(write)
    with os.fdopen(read) as pipe:
        text = pipe.read()
    _, status = os.waitpid(pid, 0)
    if os.waitstatus_to_exitcode(status) != 0 or not text:
        raise SystemExit(f"set-up probe for {args.workload} failed")
    return float(text)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--budget", type=float, required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)
    samples = []
    deadline = perf_counter() + args.budget
    while len(samples) < MIN_SAMPLES or perf_counter() < deadline:
        samples.append(sample(args))
    print(json.dumps(samples))
    return 0


if __name__ == "__main__":
    sys.exit(main())
