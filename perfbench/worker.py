"""One fusevit benchmark workload, in a process of its own.

``run.py`` starts this script; it is not meant to be run by hand. Phases:

* ``prep``  writes the on-disk inputs a workload loads (desk-eval only);
* ``run``   sets up, prints the ready line, warms up, runs the closed loop
  for ``--seconds`` and prints one JSON result as its last line.

With ``--trace 1`` the run is split: a third of the time untraced, the
rest with the tracer's hooks installed, then (for inference workloads) a
few plain-ViT forwards for the fused-vs-plain final block figure.

The program is driven only through its public entry points, called through
their module attributes so the tracer's hooks see them.

Timing statistics. The benchmark host is shared: other work on the same
cores slows this process for seconds to minutes at a time, by up to 60%,
and slows CPU time as much as wall time. A run's median therefore measures
the neighbours as much as the program. The bounded metrics take the best
of many short operations instead: the fastest per-operation time and the
highest per-call throughput. Even a busy stretch leaves some operations
near their quiet speed, so the best tracks the program's own cost from run
to run. Medians and p99 are reported next to them. Before each timed call
that takes more than a few milliseconds (a training call, a gradcheck
suite) the worker runs ``gc.collect()``. Otherwise the garbage of the
previous call is collected at an arbitrary point inside the next one: on
desk-train that makes every other call about 50% slower. The collection
is left out of the latency sample but counted in the throughput sample,
so garbage the program leaves behind still costs throughput.

Set-up time runs from just before ``import fusevit`` to the ready line:
the program's own modules, then the workload's ``setup()``. The
third-party modules the program imports (numpy, scipy.special) and the
benchmark's own are imported before the clock starts; the worker prints
the elapsed time on the ready line. ``probe.py`` takes more set-up
samples by importing this module in forked children.
"""

from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
STATE = ROOT / ".perfbench"
READY = "PERFBENCH-READY"

sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import scipy  # noqa: E402
import scipy.special  # noqa: E402,F401  (imported by fusevit.tensor)

import oracle  # noqa: E402
import tracer as tracing  # noqa: E402

SETUP_START = perf_counter()

import fusevit  # noqa: E402
from fusevit import data as fv_data  # noqa: E402
from fusevit import gradcheck as fv_gradcheck  # noqa: E402
from fusevit import model as fv_model  # noqa: E402
from fusevit.data import AugmentConfig, ImageSet, SynthSpec  # noqa: E402
from fusevit.encoder import ModelConfig  # noqa: E402
from fusevit.errors import FuseVitError  # noqa: E402
from fusevit.train import TrainConfig  # noqa: E402

# the package re-exports the function ``train``, which shadows the submodule
fv_train = importlib.import_module("fusevit.train")

EVAL_AUG = AugmentConfig(flip=True, crop_size=32, resize_to=32)
EVAL_SLICE = 25     # images per evaluate call on desk-eval


def quantile(samples, q: float) -> float:
    """Linear-interpolation quantile (``statistics.quantiles`` 'inclusive')."""
    s = sorted(samples)
    pos = q * (len(s) - 1)
    lo = int(pos)
    hi = min(lo + 1, len(s) - 1)
    return s[lo] + (s[hi] - s[lo]) * (pos - lo)


def stat(samples, q: float, unit: str) -> dict:
    return {"value": quantile(samples, q), "unit": unit, "samples": len(samples)}


def desk_model(seed: int) -> ModelConfig:
    """The acceptance smoke model (SMOKE_MODEL) with the workload's seed."""
    return ModelConfig(image_h=32, image_w=32, channels=1, patch_size=8,
                       embed_dim=32, layers=4, heads=4, mlp_dim=128, k=4,
                       selector="maws", num_classes=5, seed=seed)


FORWARD_METRICS = frozenset({
    "encoder.embed_us", "encoder.msa_us_per_img", "encoder.mlp_us_per_img",
    "encoder.gflop_per_img", "encoder.gflops", "model.fuse_us", "model.final_rows",
    "model.final_block_us", "model.forward_self_us"})


class Workload:
    """Counters and timing samples shared by every workload."""

    ops_unit = "image"
    # per-layer metrics whose layers the workload calls, beyond FORWARD_METRICS
    traced = frozenset()

    def __init__(self, seed: int, tiny: bool):
        self.seed = seed
        self.tiny = tiny
        self.workdir = STATE / "work" / f"{self.name}-seed{seed}{'-tiny' if tiny else ''}"
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.throughput: list[float] = []    # ops/s, one sample per timed call
        self.latency_ms: list[float] = []    # one sample per timed operation

    def fail(self, count: int, problems: list[str]) -> None:
        self.failed += count
        self.problems.extend(problems[: max(0, 5 - len(self.problems))])

    def prepare(self) -> None:
        pass

    def warmup(self) -> None:
        self.step()

    def plain(self) -> None:
        pass

    def finish(self) -> None:
        pass

    def traced_metrics(self) -> set[str]:
        """Per-layer metrics the traced run must record, or report absent."""
        blocks = {f"encoder.block{i}_us" for i in range(1, self.cfg.layers)}
        return set(FORWARD_METRICS | self.traced) | blocks

    def best_ms(self, start: int = 0) -> float:
        """Fastest operation among the samples from index ``start`` on."""
        return min(self.latency_ms[start:])

    def end_to_end(self) -> dict:
        return {"throughput_per_s": {"value": max(self.throughput), "unit": "1/s"},
                "latency_ms_min": {"value": self.best_ms(), "unit": "ms"}}


class DeskTrain(Workload):
    """Smoke-config training; each timed call trains a fresh model for one step.

    One step per call gives the most short samples; with longer calls the
    fastest step moved more between runs on a busy host. Every call uses the
    same seed on a fresh model, so every call's log must be identical.
    """

    name = "desk-train"
    ops_unit = "training step"
    traced = frozenset({
        "selector.us_per_img", "tensor.tape_ops_per_img", "tensor.backward_us_per_img",
        "train.forward_us_per_img", "train.sgd_us_per_step", "train.step_self_us",
        "data.augment_us_per_img", "data.generate_ms", "model.build_ms"})

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.spec = SynthSpec(num_classes=5, train_per_class=8, test_per_class=4,
                              image_size=32, signal_patch_count=6,
                              signal_amplitude=1.0, noise_std=0.0, seed=seed)
        self.cfg = desk_model(seed + 1)
        self.steps = 1
        self.train_cfg = TrainConfig(lr0=5e-4, momentum=0.95, total_steps=self.steps,
                                     batch_size=16, seed=seed + 2, augment=EVAL_AUG)
        self.digest = None

    def setup(self):
        self.dataset = fv_data.generate_synth(self.spec)
        self.model = fv_model.FuseVitModel.build(self.cfg)

    def step(self):
        model, self.model = self.model, None
        if model is None:
            model = fv_model.FuseVitModel.build(self.cfg)
        self.attempted += self.steps
        collect = perf_counter()
        gc.collect()
        start = perf_counter()
        try:
            log = fv_train.train(model, self.dataset, self.train_cfg)
        except FuseVitError as exc:
            self.fail(self.steps, [f"training failed: {exc}"])
            return
        end = perf_counter()
        self.throughput.append(self.steps * self.train_cfg.batch_size / (end - collect))
        self.latency_ms.append((end - start) / self.steps * 1e3)
        text = log.csv_text()
        problems = oracle.log_problems(text, self.digest)
        if problems:
            self.fail(self.steps, problems)
        if self.digest is None:
            self.digest = oracle.log_digest(text)

    def finish(self):
        # same code and seed must give the same log in every run, not just in this one
        if self.digest is None:
            return
        path = STATE / "digests.json"
        try:
            known = json.loads(path.read_text())
        except (OSError, ValueError):
            known = {}
        key = f"{self.name}|seed={self.seed}|steps={self.steps}|code={code_digest()}"
        if known.setdefault(key, self.digest) != self.digest:
            self.fail(self.steps, ["train_log.csv digest differs from an earlier run "
                                   "with the same code and seed"])
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1, sort_keys=True) + "\n")
        tmp.replace(path)

    def detail(self):
        return {"train_img_per_s_p50": stat(self.throughput, 0.5, "1/s"),
                "train_step_ms_p50": stat(self.latency_ms, 0.5, "ms"),
                "steps_per_call": self.steps,
                "train_log_sha256": self.digest}


class Inference(Workload):
    """Shared parts of the forward-only workloads."""

    def check(self, result) -> None:
        problems = oracle.forward_problems(result, self.cfg.layers, self.cfg.k)
        if problems:
            self.fail(1, problems)

    def forward(self, image):
        self.attempted += 1
        start = perf_counter()
        result = self.model.forward(image)
        self.latency_ms.append((perf_counter() - start) * 1e3)
        self.check(result)
        return result

    def evaluate(self, images: ImageSet, aug):
        self.attempted += len(images)
        start = perf_counter()
        report = fv_train.evaluate(self.model, images, self.cfg.num_classes, aug)
        self.throughput.append(len(images) / (perf_counter() - start))
        return report

    def detail(self):
        out = {"eval_img_per_s_p50": stat(self.throughput, 0.5, "1/s"),
               "infer_ms_p50": stat(self.latency_ms, 0.5, "ms")}
        if len(self.latency_ms) >= 1000:   # at least ten samples beyond p99
            out["infer_ms_p99"] = stat(self.latency_ms, 0.99, "ms")
        return out


class DeskEval(Inference):
    """Load dataset and checkpoint from disk; evaluate, then single forwards."""

    name = "desk-eval"
    traced = frozenset({
        "selector.us_per_img", "model.plain_final_block_us", "model.load_checkpoint_ms",
        "data.augment_us_per_img", "data.load_dataset_ms", "ftz.read_calls",
        "ftz.read_ms"})

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.spec = SynthSpec(num_classes=5, train_per_class=8,
                              test_per_class=2 if tiny else 40, image_size=32,
                              signal_patch_count=6, signal_amplitude=1.0,
                              noise_std=0.1, seed=seed)
        self.cfg = desk_model(seed + 1)
        self.turn = 0
        self.reports = {}

    def prepare(self):
        fv_data.save_dataset(fv_data.generate_synth(self.spec), self.workdir / "data")
        fv_model.save_checkpoint(fv_model.FuseVitModel.build(self.cfg),
                                 self.workdir / "checkpoint")

    def setup(self):
        self.dataset = fv_data.load_dataset(self.workdir / "data")
        self.model = fv_model.load_checkpoint(self.workdir / "checkpoint")
        self.logits = [None] * len(self.dataset.test)

    def slices(self):
        test = self.dataset.test
        for lo in range(0, len(test), EVAL_SLICE):
            yield lo, ImageSet(test.images[lo:lo + EVAL_SLICE],
                               test.labels[lo:lo + EVAL_SLICE])

    def step(self):
        if self.turn % 2 == 0:
            for lo, part in self.slices():
                report = self.evaluate(part, EVAL_AUG)
                if self.reports.setdefault(lo, report) != report:
                    self.fail(len(part), ["evaluate gave a different report on the "
                                          "same model and images"])
        else:
            for i, image in enumerate(self.dataset.test.images):
                self.logits[i] = np.asarray(self.forward(image).logits.data,
                                            dtype=np.float64)
        self.turn += 1

    def warmup(self):
        self.step()
        self.step()

    def plain(self):
        for image in self.dataset.test.images[:50]:
            self.model.plain_forward(image)

    def finish(self):
        # evaluate's accuracy and mean loss must follow from the forward logits
        # (its centre crop of a 32 px image at crop 32 leaves the pixels as they are)
        for lo, part in self.slices():
            report = self.reports.get(lo)
            logits = self.logits[lo:lo + len(part)]
            if report is None or any(x is None for x in logits):
                continue
            logits = np.stack(logits)
            top = logits.max(axis=1)
            loss = np.log(np.exp(logits - top[:, None]).sum(axis=1)) + top
            loss = float(np.mean(loss - logits[np.arange(len(part)), part.labels]))
            acc = float(np.mean(np.argmax(logits, axis=1) == part.labels))
            if acc != report.accuracy or not np.isclose(loss, report.mean_loss,
                                                        rtol=1e-9, atol=0.0):
                self.fail(len(part), [f"evaluate reported acc={report.accuracy} "
                                      f"loss={report.mean_loss}, forward logits give "
                                      f"acc={acc} loss={loss}"])


class PaperInfer(Inference):
    """Paper shape (448 px, P=16, L=12, k=12, ViT-B width), one image at a time."""

    name = "paper-infer"
    traced = frozenset({"selector.us_per_img", "model.plain_final_block_us",
                        "model.build_ms", "data.generate_ms"})

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        if tiny:
            self.cfg = ModelConfig(image_h=64, image_w=64, channels=3, patch_size=16,
                                   embed_dim=48, layers=3, heads=4, mlp_dim=96, k=4,
                                   selector="maws", num_classes=10, seed=seed + 1)
        else:
            self.cfg = ModelConfig(image_h=448, image_w=448, channels=3, patch_size=16,
                                   embed_dim=768, layers=12, heads=12, mlp_dim=3072,
                                   k=12, selector="maws", num_classes=200, seed=seed + 1)
        self.spec = SynthSpec(num_classes=2, train_per_class=1, test_per_class=2,
                              image_size=self.cfg.image_h, signal_patch_count=6,
                              signal_amplitude=1.0, noise_std=0.05, seed=seed)
        self.turn = 0

    def setup(self):
        test = fv_data.generate_synth(self.spec).test
        self.images = ImageSet(images=np.repeat(test.images, 3, axis=3),
                               labels=test.labels)
        self.model = fv_model.FuseVitModel.build(self.cfg)

    def step(self):
        i = self.turn % len(self.images)
        if self.turn % 2 == 0:
            self.forward(self.images.images[i])
        else:
            self.evaluate(ImageSet(self.images.images[i:i + 1],
                                   self.images.labels[i:i + 1]), None)
        self.turn += 1

    def warmup(self):
        self.attempted += 1
        self.check(self.model.forward(self.images.images[-1]))

    def plain(self):
        self.model.plain_forward(self.images.images[0])


class Gradcheck(Workload):
    """The 64-bit finite-difference suite, one whole suite per timed call.

    A suite is ``run_suite(seed)``: ``op_checks(seed)`` then
    ``end_to_end_check(seed)``. The worker calls the two itself and times
    them from outside; ``CheckResult`` only decides pass or fail. A suite
    takes over a second, longer than the quiet stretches of a shared host,
    so the worker splits it into short segments: timestamps before and
    after each call, and one each time ``FuseVitModel.named_parameters``
    hands out a parameter, which ``end_to_end_check`` does once per probe.
    The segments cover the whole suite, and the suite time reported is the
    sum of each segment's fastest time across the run's suites.
    """

    name = "gradcheck"
    ops_unit = "probe"
    # forwards run with frozen selections, so the selector is not timed here
    traced = frozenset({"model.build_ms", "gradcheck.op_checks_s",
                        "gradcheck.end_to_end_s", "gradcheck.forward_evals",
                        "gradcheck.us_per_forward_eval"})

    def __init__(self, seed, tiny):
        super().__init__(seed, tiny)
        self.cfg = fv_gradcheck.toy_config()
        self.marks: list[float] = []
        # per suite: gc.collect(), op_checks, then end_to_end_check's segments
        self.segments: list[list[float]] = []
        self.probes = 0

    def setup(self):
        walk = getattr(fv_model.FuseVitModel, "named_parameters", None)
        if walk is None:    # no marks: end_to_end_check is one segment
            return
        marks = self.marks

        @functools.wraps(walk)
        def named_parameters(model, *args, **kwargs):
            for item in walk(model, *args, **kwargs):
                marks.append(perf_counter())
                yield item

        fv_model.FuseVitModel.named_parameters = named_parameters

    def warmup(self):
        pass

    def step(self):
        self.marks.clear()
        collect = perf_counter()
        gc.collect()
        start = perf_counter()
        results = fv_gradcheck.op_checks(self.seed)
        middle = perf_counter()
        results += fv_gradcheck.end_to_end_check(self.seed)
        end = perf_counter()
        self.probes = len(results)
        self.attempted += len(results)
        times = [collect, start, middle, *self.marks, end]
        segments = [b - a for a, b in zip(times, times[1:])]
        if self.segments and len(segments) != len(self.segments[0]):
            self.fail(len(results), ["the suite walked the parameters a different "
                                     "number of times than in its first run"])
            return
        self.segments.append(segments)
        self.latency_ms.append((end - start) * 1e3)
        bad = [f"{r.name}: max_rel_err={r.max_rel_err:.3e} over tol={r.tolerance:.0e}"
               for r in results if not r.passed]
        if bad:
            self.fail(len(bad), bad)

    def best_segments(self, start: int = 0) -> list[float]:
        # segments[i] and latency_ms[i] both belong to suite i
        return [min(column) for column in zip(*self.segments[start:])]

    def best_ms(self, start: int = 0) -> float:
        return sum(self.best_segments(start)[1:]) * 1e3

    def end_to_end(self):
        return {"throughput_per_s": {"value": self.probes / sum(self.best_segments()),
                                     "unit": "1/s"},
                "latency_ms_min": {"value": self.best_ms(), "unit": "ms"}}

    def detail(self):
        best = self.best_segments()
        return {"gradcheck_s": {"value": self.best_ms() / 1e3, "unit": "s"},
                "gradcheck_s_p50": {"value": quantile(self.latency_ms, 0.5) / 1e3,
                                    "unit": "s", "samples": len(self.latency_ms)},
                "gc_collect_ms": {"value": best[0] * 1e3, "unit": "ms"},
                "op_checks_s": {"value": best[1], "unit": "s"},
                "end_to_end_s": {"value": sum(best[2:]), "unit": "s"},
                "segments_per_suite": len(best),
                "probes_per_suite": self.probes}


WORKLOADS = {w.name: w for w in (DeskTrain, DeskEval, PaperInfer, Gradcheck)}


def code_digest() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "fusevit").rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def host_record(seed: int) -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "machine": platform.machine(), "python": platform.python_version(),
            "numpy": np.__version__, "scipy": scipy.__version__, "blas": blas,
            "blas_threads": int(os.environ.get("OPENBLAS_NUM_THREADS", "0")),
            "seed": seed, "code_sha256": code_digest()}


def imported_from_src() -> bool:
    return Path(fusevit.__file__).resolve().is_relative_to(SRC)


def loop(work: Workload, seconds: float) -> None:
    """Closed loop with one client: the next call starts when the last ends."""
    deadline = perf_counter() + seconds
    while True:
        work.step()
        if perf_counter() >= deadline:
            return


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--phase", choices=("prep", "run"), required=True)
    ap.add_argument("--tiny", action="store_true")
    args = ap.parse_args(argv)

    if not imported_from_src():
        print(f"error: fusevit imported from {fusevit.__file__}, not from {SRC}",
              file=sys.stderr)
        return 2
    work = WORKLOADS[args.workload](args.seed, args.tiny)
    if args.phase == "prep":
        work.prepare()
        return 0

    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracer.install()
    work.setup()
    print(f"{READY} {perf_counter() - SETUP_START!r}", flush=True)

    if tracer:
        tracer.phase = "warmup"
    work.warmup()
    work.throughput.clear()
    work.latency_ms.clear()
    if tracer:
        tracer.uninstall()
        loop(work, args.seconds / 3)
        untraced = work.best_ms()
        first = len(work.latency_ms)
        tracer.phase = "loop"
        tracer.install()
        loop(work, args.seconds * 2 / 3)
        traced = work.best_ms(first)
        tracer.phase = "plain"
        work.plain()
        tracer.uninstall()
    else:
        loop(work, args.seconds)
    work.finish()

    result = {"correct": work.failed == 0, "attempted": work.attempted,
              "failed": work.failed, "problems": work.problems,
              "host": host_record(args.seed)}
    if tracer:
        values, absent = tracing.per_layer_metrics(tracer, work.cfg,
                                                   work.traced_metrics())
        values["trace.overhead_pct"] = (traced / untraced - 1.0) * 100.0
        spans_path = STATE / "trace" / f"{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write_spans(spans_path)
        result["metrics"] = {name: {"value": values[name], "unit": unit}
                             for name, (unit, _) in tracing.PER_LAYER.items()}
        result["absent"] = absent
        result["spans"] = {"count": len(tracer.spans),
                           "file": str(spans_path.relative_to(ROOT))}
    else:
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        samples_path = STATE / "samples" / f"{args.workload}-seed{args.seed}.json"
        samples_path.parent.mkdir(parents=True, exist_ok=True)
        samples_path.write_text(json.dumps({"latency_ms": work.latency_ms,
                                            "throughput_per_s": work.throughput}))
        result["metrics"] = {**work.end_to_end(),
                             "peak_rss_mb": {"value": rss_mb, "unit": "MB"}}
        result["detail"] = {**work.detail(),
                            "failed_ratio": work.failed / work.attempted,
                            "operation": work.ops_unit}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
