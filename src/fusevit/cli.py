"""One command-line entry point for the whole pipeline.

Subcommands: gen, train, eval, compare, inspect, gradcheck. Configuration precedence is
defaults < JSON config file < command-line flags; every config field has a flag of the same
name, generated from ``RunConfig``. Exit codes: 0 success, 1 usage or config error, 2 runtime
or numeric error or out of memory, 130 interrupted; a failure prints one ``error:`` line.
``gradcheck`` exits with its count of failed checks.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path

import numpy as np

from . import ftz
from .data import AugmentConfig, SynthSpec, generate_synth, load_dataset, save_dataset
from .encoder import ModelConfig
from .errors import ConfigError, FtzError, FuseVitError, ShapeError, TraceMismatchError
from .gradcheck import format_report, run_suite
from .model import FuseVitModel, load_checkpoint, save_checkpoint
from .selector import REGISTRY, selection_trace_lines
from .train import TrainConfig, evaluate, train

COMPARE_HEADER = "variant,test_acc,train_acc,steps"


@dataclass
class RunConfig:
    """Flat union of model, training, and dataset settings plus paths."""

    # model
    image_size: int = 32
    patch: int = 8
    dim: int = 32
    layers: int = 4
    heads: int = 4
    mlp_dim: int | None = None  # defaults to 4*dim
    k: int = 4
    selector: str = "maws"
    # training
    lr: float = 5e-4
    momentum: float = 0.9
    steps: int = 500
    batch: int = 8
    seed: int = 0
    flip: bool = True
    resize_to: int | None = None  # defaults to image_size
    # synthetic dataset
    classes: int = 5
    train_per_class: int = 8
    test_per_class: int = 4
    signal_patches: int = 6
    amplitude: float = 1.0
    noise_std: float = 0.0
    # paths
    dataset: str | None = None
    out: str | None = None
    checkpoint: str | None = None
    image: str | None = None

    @classmethod
    def from_sources(cls, file_path: str | None, overrides: dict) -> "RunConfig":
        """defaults < config file < explicit flags."""
        merged = {f.name: f.default for f in fields(cls)}
        if file_path:
            path = Path(file_path)
            if not path.is_file():
                raise ConfigError(f"config file not found: {path}")
            loaded = ftz.json_object(path.read_bytes(), f"config file {path}")
            unknown = sorted(set(loaded) - set(merged))
            if unknown:
                raise ConfigError(f"unknown config keys {unknown}")
            merged.update(loaded)
        merged.update({k: v for k, v in overrides.items() if v is not None})
        ftz.check_types(cls, merged, "config")
        for name in ("dataset", "out", "checkpoint", "image"):  # only a file can hold NUL
            if "\0" in (merged[name] or ""):
                raise ConfigError(f"config {name} must not hold a NUL byte")
        return cls(**merged)

    # ---- derived configs ----

    def model_config(self, num_classes: int) -> ModelConfig:
        return ModelConfig(
            image_h=self.image_size, image_w=self.image_size,
            patch_size=self.patch, embed_dim=self.dim, layers=self.layers, heads=self.heads,
            mlp_dim=4 * self.dim if self.mlp_dim is None else self.mlp_dim,
            k=self.k, selector=self.selector, num_classes=num_classes,
            seed=self.seed)

    def augment_config(self, size: int) -> AugmentConfig:
        """Crop to ``size``, the model's input side; resize defaults to it too."""
        return AugmentConfig(flip=self.flip, crop_size=size,
                             resize_to=size if self.resize_to is None else self.resize_to)

    def train_config(self) -> TrainConfig:
        return TrainConfig(lr0=self.lr, momentum=self.momentum,
                           total_steps=self.steps, batch_size=self.batch,
                           seed=self.seed, augment=self.augment_config(self.image_size))

    def synth_spec(self) -> SynthSpec:
        return SynthSpec(num_classes=self.classes,
                         train_per_class=self.train_per_class,
                         test_per_class=self.test_per_class,
                         image_size=self.image_size,
                         signal_patch_count=self.signal_patches,
                         signal_amplitude=self.amplitude,
                         noise_std=self.noise_std, seed=self.seed)


# ---- argument parsing --------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ConfigError(message)


def build_parser() -> _Parser:
    """Each command takes ``--config`` and one flag per ``RunConfig`` field, unset by default."""
    parser = _Parser(prog="fusevit",
                     description="Selective-fusion vision transformer toolkit")
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, desc) in _COMMANDS.items():
        p = sub.add_parser(command, help=desc)
        p.add_argument("--config", metavar="PATH", help="JSON config file")
        for name, (kind, _) in ftz.field_types(RunConfig).items():
            flag = "--" + name.replace("_", "-")
            if kind is bool:
                p.add_argument(flag, dest=name, action=argparse.BooleanOptionalAction)
            elif name == "selector":
                p.add_argument(flag, dest=name, choices=tuple(REGISTRY))
            else:
                p.add_argument(flag, dest=name, type=kind)
    return parser


def _require(cfg: RunConfig, *names: str) -> None:
    missing = [n for n in names if getattr(cfg, n) is None]
    if missing:
        flags = ", ".join(f"--{n.replace('_', '-')}" for n in missing)
        raise ConfigError(f"missing required option(s): {flags}")


def _out_dir(cfg: RunConfig) -> Path:
    """The required ``--out``, refused at once if it or a parent is not a
    directory, or if it is not empty: no run writes over another's files."""
    _require(cfg, "out")
    out = Path(cfg.out)
    blocker = next((p for p in (out, *out.parents) if p.exists() and not p.is_dir()), None)
    if blocker is not None:
        raise ConfigError(f"--out {out}: {blocker} is not a directory")
    if out.is_dir() and any(out.iterdir()):
        raise ConfigError(f"--out {out} is not empty")
    return out


# ---- commands ------------------------------------------------------------------


def cmd_gen(cfg: RunConfig) -> int:
    _out_dir(cfg)
    dataset = generate_synth(cfg.synth_spec())
    save_dataset(dataset, cfg.out)
    total = len(dataset.train) + len(dataset.test)
    print(f"wrote {total} images ({len(dataset.train)} train / "
          f"{len(dataset.test)} test, {dataset.num_classes} classes) to {cfg.out}")
    return 0


def _load_dataset_checked(cfg: RunConfig):
    _require(cfg, "dataset")
    dataset = load_dataset(cfg.dataset)
    if len(dataset.test) == 0:
        raise ConfigError(f"dataset {cfg.dataset} has no test items to evaluate on")
    return dataset


def cmd_train(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    dataset = _load_dataset_checked(cfg)
    model_cfg = cfg.model_config(dataset.num_classes)
    model = FuseVitModel.build(model_cfg)
    tcfg = cfg.train_config()
    log = train(model, dataset, tcfg)
    # evaluated before anything is written, so a model that overflows there leaves nothing
    report = evaluate(model, dataset.test, dataset.num_classes, tcfg.augment)
    out.mkdir(parents=True, exist_ok=True)
    (out / "train_log.csv").write_text(log.csv_text())
    save_checkpoint(model, out / "checkpoint")
    print(f"selector={model_cfg.selector} steps={tcfg.total_steps} "
          f"final_train_loss={log.rows[-1].loss:.4f}")
    print(f"test_accuracy={report.accuracy:.4f} test_mean_loss={report.mean_loss:.4f}")
    return 0


def cmd_eval(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint")
    dataset = _load_dataset_checked(cfg)
    model = load_checkpoint(cfg.checkpoint)
    # evaluation never flips, so the flip setting does not matter here
    aug = cfg.augment_config(model.cfg.image_h)
    report = evaluate(model, dataset.test, dataset.num_classes, aug)
    print(f"test_accuracy={report.accuracy:.4f} test_mean_loss={report.mean_loss:.4f}")
    for c, (acc, n) in enumerate(zip(report.per_class, report.class_counts)):
        print(f"class {c}: acc={acc:.4f} (n={n})")
    return 0


@dataclass
class ComparisonRow:
    variant: str
    test_acc: float
    train_acc: float
    steps: int


@dataclass
class ComparisonReport:
    rows: list[ComparisonRow]
    init_loss: float  # the untrained backbone's, which every arm shares

    def csv_text(self) -> str:
        lines = [COMPARE_HEADER]
        lines += [f"{r.variant},{r.test_acc!r},{r.train_acc!r},{r.steps}"
                  for r in self.rows]
        return "\n".join(lines) + "\n"


def run_comparison(cfg: RunConfig, dataset) -> ComparisonReport:
    """Train the three arms from identical seeds and collect accuracies.

    ``build`` draws the same parameters whatever the selector, so the initial
    loss, the untrained ``none`` arm's mean test loss on the images the
    accuracies see (``tcfg.augment``), is measured once and is every arm's.
    """
    model_cfg = cfg.model_config(dataset.num_classes)
    tcfg = cfg.train_config()
    rows = []
    for variant in REGISTRY:
        model = FuseVitModel.build(replace(model_cfg, selector=variant))
        if variant == "none":  # the order matters: evaluated before ``train`` moves it
            init_loss = evaluate(model, dataset.test, dataset.num_classes, tcfg.augment).mean_loss
        train(model, dataset, tcfg)
        test_report = evaluate(model, dataset.test, dataset.num_classes, tcfg.augment)
        train_report = evaluate(model, dataset.train, dataset.num_classes, tcfg.augment)
        rows.append(ComparisonRow(variant=variant,
                                  test_acc=test_report.accuracy,
                                  train_acc=train_report.accuracy,
                                  steps=tcfg.total_steps))
    return ComparisonReport(rows=rows, init_loss=init_loss)


def cmd_compare(cfg: RunConfig) -> int:
    out = _out_dir(cfg)
    dataset = _load_dataset_checked(cfg)
    report = run_comparison(cfg, dataset)
    out.mkdir(parents=True, exist_ok=True)
    (out / "comparison.csv").write_text(report.csv_text())
    print(f"shared initial loss (untrained backbone): {report.init_loss:.6f}")
    print(COMPARE_HEADER)
    for r in report.rows:
        print(f"{r.variant},{r.test_acc:.4f},{r.train_acc:.4f},{r.steps}")
    return 0


def cmd_inspect(cfg: RunConfig) -> int:
    _require(cfg, "checkpoint", "image", "out")
    out = _out_dir(cfg)
    model = load_checkpoint(cfg.checkpoint)
    img = ftz.read(cfg.image, model.dtype)
    expected = (model.cfg.image_h, model.cfg.image_w, model.cfg.channels)
    if img.shape != expected:
        raise ConfigError(
            f"image shape {img.shape} does not match checkpoint input {expected}")

    result = model.forward(img)
    out.mkdir(parents=True, exist_ok=True)
    lines = selection_trace_lines(result.selections, model.cfg.selector)
    (out / "selections.jsonl").write_text("\n".join(lines) + "\n")
    for layer, record in enumerate(result.trace.attention, start=1):
        ftz.write(out / f"attention.layer{layer}.ftz", record.scores.data)
    ftz.write(out / "logits.ftz", result.logits.data)
    ftz.write(out / "fused.ftz", result.fused.tokens.data)
    predicted = int(np.argmax(result.logits.data))
    print(f"predicted_class={predicted}")
    print("logits=" + json.dumps([float(x) for x in result.logits.data]))
    return 0


def cmd_gradcheck(cfg: RunConfig) -> int:
    results = run_suite(seed=cfg.seed)
    print(format_report(results))
    return sum(not r.passed for r in results)


_COMMANDS = {
    "gen": (cmd_gen, "generate a synthetic dataset"),
    "train": (cmd_train, "train one selector variant"),
    "eval": (cmd_eval, "evaluate a checkpoint on a dataset"),
    "compare": (cmd_compare, "train none/saws/maws arms and tabulate accuracy"),
    "inspect": (cmd_inspect, "dump selections and attention for one image"),
    "gradcheck": (cmd_gradcheck, "finite-difference verification suite"),
}

_CONFIG_EXIT = (ConfigError, ShapeError, TraceMismatchError, FtzError)


def main(argv: list[str] | None = None) -> int:
    parser, command = build_parser(), "fusevit"
    try:
        args = vars(parser.parse_args(argv))
        command, config = args.pop("command"), args.pop("config")
        return _COMMANDS[command][0](RunConfig.from_sources(config, args))
    except _CONFIG_EXIT as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (FuseVitError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError:
        print(f"error: out of memory ({command})", file=sys.stderr)
        return 2
    except KeyboardInterrupt:
        print("error: interrupted", file=sys.stderr)
        return 130


if __name__ == "__main__":
    sys.exit(main())
