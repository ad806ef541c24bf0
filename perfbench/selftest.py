"""Self-test of the benchmark itself.

    python3 perfbench/selftest.py

Checks, in about a minute:

* every workload, untraced and traced, at ``--tiny`` size (paper-infer
  too, though it is not in ``BENCHMARK.json``): the last output
  line has exactly the result keys, every metric ``BENCHMARK.json`` names
  is present with its unit, and nothing failed;
* the oracles pass a real MAWS forward and flag the same forward with a
  selected token swapped for an unselected one, a corrupted log digest and
  a non-finite loss;
* a hook whose attribute is gone makes its metrics absent with a reason,
  and the traced run still completes; so does a hook that is installed
  but never called, for a metric the workload should record; a traced
  tiny run of each workload reports nothing absent;
* in a directory holding only ``BENCHMARK.json`` and the benchmark's own
  files, ``run.py`` exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import numpy as np  # noqa: E402

from fusevit.encoder import ModelConfig  # noqa: E402
from fusevit.model import FuseVitModel  # noqa: E402

import oracle  # noqa: E402
import run  # noqa: E402
import tracer as tracing  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", "3",
            "--seconds", "1", "--trace", str(trace), "--tiny"]
    return subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)


def check_workload_outputs() -> None:
    # paper-infer is not in BENCHMARK.json but stays runnable, so it is checked too
    for trace, key in ((0, "end_to_end"), (1, "per_layer")):
        wanted = {m["name"]: m["unit"] for m in SPEC[key]}
        for workload in run.WORKLOADS:
            out = run_bench(workload, trace)
            assert out.returncode == 0, (workload, trace, out.stderr)
            result = json.loads(out.stdout.splitlines()[-1])
            assert sorted(result) == ["attempted", "correct", "failed", "metrics"], result
            assert result["attempted"] >= 1 and result["failed"] == 0, (workload, result)
            assert result["correct"] is True, (workload, out.stdout)
            got = {name: m["unit"] for name, m in result["metrics"].items()}
            assert got == wanted, (workload, trace, set(got) ^ set(wanted))
            for name, m in result["metrics"].items():
                assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), \
                    (workload, name, m)
            if trace == 0:
                assert all(m["value"] > 0 for m in result["metrics"].values()), result
            else:
                absent = next(json.loads(line)["absent"] for line in out.stdout.splitlines()
                              if line.startswith('{"absent"'))
                assert absent == {}, (workload, absent)
            print(f"ok  {workload} trace={trace}: {len(got)} metrics")


def tiny_forward():
    cfg = ModelConfig(image_h=32, image_w=32, channels=1, patch_size=8, embed_dim=16,
                      layers=3, heads=2, mlp_dim=32, k=3, selector="maws",
                      num_classes=4, seed=5)
    model = FuseVitModel.build(cfg)
    image = np.random.default_rng(0).uniform(0, 1, (32, 32, 1)).astype(np.float32)
    return cfg, model, image


def check_oracles() -> None:
    cfg, model, image = tiny_forward()
    result = model.forward(image)
    assert oracle.forward_problems(result, cfg.layers, cfg.k) == []

    sel = result.selections[0]
    unselected = next(i for i in range(1, cfg.num_patches + 1) if i not in sel.indices)
    sel.indices[-1] = unselected
    assert oracle.forward_problems(result, cfg.layers, cfg.k), "swapped selection passed"

    text = "step,lr,loss,acc\n0,0.1,1.5,0.25\n1,0.05,1.25,0.5\n"
    digest = oracle.log_digest(text)
    assert oracle.log_problems(text, digest) == []
    corrupted = ("0" if digest[0] != "0" else "1") + digest[1:]
    assert oracle.log_problems(text, corrupted), "corrupted digest passed"
    assert oracle.log_problems(text.replace("1.25", "nan"), None), "nan loss passed"
    print("ok  oracles flag a swapped selection, a corrupted digest and a nan loss")


def check_missing_hook() -> None:
    cfg, model, image = tiny_forward()
    saved = list(tracing.HOOKS)
    tracing.HOOKS[:] = [(mod, "_block_gone" if path == "_block" else path, span, note)
                        for mod, path, span, note in saved]
    tracer = tracing.Tracer()
    try:
        tracer.install()
        tracer.phase = "loop"
        model.forward(image)
    finally:
        tracer.uninstall()
        tracing.HOOKS[:] = saved
    # a forward without training: the train and backward hooks are installed
    # but never called, as after a refactor that no longer goes through them
    applies = {"encoder.block1_us", "model.fuse_us", "model.final_rows",
               "tensor.backward_us_per_img", "train.sgd_us_per_step"}
    values, absent = tracing.per_layer_metrics(tracer, cfg, applies)
    assert "fusevit.encoder._block_gone not found" in absent["encoder.block1_us"], absent
    for metric in ("tensor.backward_us_per_img", "train.sgd_us_per_step"):
        assert absent[metric].startswith("hook installed but never called"), absent
        assert values[metric] == 0.0, values
    assert "train.forward_us_per_img" not in absent, absent   # not in applies
    assert "model.fuse_us" not in absent and values["model.fuse_us"] > 0, values
    assert values["model.final_rows"] == 1 + (cfg.layers - 1) * cfg.k
    print("ok  a missing hook and a hook never called mark their metrics absent; "
          "the others are still measured")


def check_fails_without_program() -> None:
    with tempfile.TemporaryDirectory(dir=ROOT / ".perfbench") as tmp:
        bare = Path(tmp)
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        for path in SPEC["paths"]:
            shutil.copytree(ROOT / path, bare / path,
                            ignore=shutil.ignore_patterns("__pycache__"))
        out = run_bench(SPEC["workloads"][0]["name"], 0, cwd=bare)
        assert out.returncode != 0, out
        assert '"metrics"' not in out.stdout, out.stdout
    print("ok  without the program's sources run.py exits", out.returncode,
          "and prints no result")


def main() -> int:
    (ROOT / ".perfbench").mkdir(exist_ok=True)
    check_oracles()
    check_missing_hook()
    check_fails_without_program()
    check_workload_outputs()
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
