"""Command-line surface: subcommands, config precedence, exit codes."""

import argparse
import json
import shutil
from dataclasses import fields

import numpy as np
import pytest

from fusevit import ftz
from fusevit.cli import RunConfig, build_parser, main
from fusevit.selector import REGISTRY, maws
from fusevit.errors import ConfigError


def run_cli(*args):
    return main(list(args))


GEN_ARGS = ("--classes", "3", "--train-per-class", "2", "--test-per-class", "1",
            "--image-size", "16", "--signal-patches", "3", "--seed", "4")

TINY_MODEL = ("--patch", "8", "--dim", "8", "--layers", "2", "--heads", "2",
              "--mlp-dim", "16", "--k", "2")

TINY_TRAIN = ("--steps", "3", "--batch", "2", "--lr", "0.001")


def gen_dataset(tmp_path, *extra):
    out = tmp_path / "ds"
    assert run_cli("gen", *GEN_ARGS, "--out", str(out), *extra) == 0
    return out


class TestRunConfig:
    def test_round_trips_through_json(self, tmp_path):
        cfg = RunConfig(dim=16, selector="saws", steps=42, dataset="x")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(cfg.to_dict()))
        back = RunConfig.from_sources(str(path), {})
        assert back == cfg

    def test_precedence_defaults_file_flags(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"dim": 64, "k": 7}))
        cfg = RunConfig.from_sources(str(path), {"k": 9})
        assert cfg.dim == 64        # from file, overriding the default
        assert cfg.k == 9           # flag wins over file
        assert cfg.layers == RunConfig().layers  # untouched default

    def test_unknown_config_key_rejected(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"learning_rate": 0.1}))
        with pytest.raises(ConfigError, match="unknown config keys"):
            RunConfig.from_sources(str(path), {})

    def test_missing_config_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            RunConfig.from_sources("/nonexistent/cfg.json", {})


def subcommand_parsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParser:
    def test_every_subcommand_has_one_flag_per_config_field(self):
        names = {f.name for f in fields(RunConfig)} | {"config"}
        flags = {"--" + n.replace("_", "-") for n in names} | {"--no-flip", "--no-trace"}
        assert set(subcommand_parsers()) == {
            "gen", "train", "eval", "compare", "inspect", "gradcheck"}
        for name, sub in subcommand_parsers().items():
            actions = [a for a in sub._actions if not isinstance(a, argparse._HelpAction)]
            assert {o for a in actions for o in a.option_strings} == flags, name
            assert {a.dest for a in actions} == names, name

    def test_unset_flags_leave_config_file_values_alone(self):
        args = build_parser().parse_args(["train"])
        assert all(v is None for k, v in vars(args).items() if k != "command")

    def test_flags_parse_to_field_types(self):
        args = build_parser().parse_args(
            ["train", "--lr", "0.25", "--mlp-dim", "16", "--out", "x", "--no-flip",
             "--trace"])
        assert (args.lr, args.mlp_dim, args.out) == (0.25, 16, "x")
        assert args.flip is False and args.trace is True
        args = build_parser().parse_args(["gen", "--flip", "--no-trace"])
        assert args.flip is True and args.trace is False

    def test_selector_choices_are_the_registry(self):
        assert list(REGISTRY) == ["none", "saws", "maws"]
        for name, sub in subcommand_parsers().items():
            action = next(a for a in sub._actions if a.dest == "selector")
            assert list(action.choices) == list(REGISTRY), name


class TestGen:
    def test_manifest_lists_every_item(self, tmp_path):
        out = gen_dataset(tmp_path)
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["classes"] == 3
        assert len(manifest["items"]) == 3 * (2 + 1)

    def test_same_seed_rerun_is_byte_identical(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli("gen", *GEN_ARGS, "--out", str(out1)) == 0
        assert run_cli("gen", *GEN_ARGS, "--out", str(out2)) == 0
        for f in sorted(out1.iterdir()):
            assert (out2 / f.name).read_bytes() == f.read_bytes(), f.name

    def test_different_seed_differs_with_same_structure(self, tmp_path):
        out1 = tmp_path / "a"
        out2 = tmp_path / "b"
        assert run_cli("gen", *GEN_ARGS, "--out", str(out1)) == 0
        args = [a if a != "4" else "5" for a in GEN_ARGS]
        assert run_cli("gen", *args, "--out", str(out2)) == 0
        m1 = json.loads((out1 / "manifest.json").read_text())
        m2 = json.loads((out2 / "manifest.json").read_text())
        assert [i["file"] for i in m1["items"]] == [i["file"] for i in m2["items"]]
        some_file = m1["items"][0]["file"]
        assert (out1 / some_file).read_bytes() != (out2 / some_file).read_bytes()

    def test_missing_out_is_usage_error(self):
        assert run_cli("gen") == 1


class TestTrain:
    def test_writes_log_checkpoint_and_exits_zero(self, tmp_path, capsys):
        ds = gen_dataset(tmp_path)
        out = tmp_path / "run"
        code = run_cli("train", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN,
                       "--selector", "maws")
        assert code == 0
        assert (out / "train_log.csv").exists()
        assert (out / "checkpoint" / "manifest.json").exists()
        assert "test_accuracy=" in capsys.readouterr().out

    def test_selector_none_trains_plain_arm(self, tmp_path):
        ds = gen_dataset(tmp_path)
        out = tmp_path / "run"
        code = run_cli("train", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN,
                       "--selector", "none")
        assert code == 0
        manifest = json.loads((out / "checkpoint" / "manifest.json").read_text())
        assert manifest["config"]["selector"] == "none"

    def test_identical_invocations_produce_identical_csv(self, tmp_path):
        ds = gen_dataset(tmp_path)
        outs = []
        for name in ("r1", "r2"):
            out = tmp_path / name
            assert run_cli("train", "--dataset", str(ds), "--out", str(out),
                           "--image-size", "16", *TINY_MODEL, *TINY_TRAIN) == 0
            outs.append((out / "train_log.csv").read_bytes())
        assert outs[0] == outs[1]

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run_cli("train", "--dataset", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "run")) == 1


class TestCompare:
    def test_three_row_table(self, tmp_path, capsys):
        ds = gen_dataset(tmp_path)
        out = tmp_path / "cmp"
        code = run_cli("compare", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN)
        assert code == 0
        lines = (out / "comparison.csv").read_text().strip().split("\n")
        assert lines[0] == "variant,test_acc,train_acc,steps"
        assert [l.split(",")[0] for l in lines[1:]] == ["none", "saws", "maws"]
        assert len(lines) == 4
        assert "shared initial loss" in capsys.readouterr().out

    def test_rerun_is_deterministic(self, tmp_path):
        ds = gen_dataset(tmp_path)
        texts = []
        for name in ("c1", "c2"):
            out = tmp_path / name
            assert run_cli("compare", "--dataset", str(ds), "--out", str(out),
                           "--image-size", "16", *TINY_MODEL, *TINY_TRAIN) == 0
            texts.append((out / "comparison.csv").read_text())
        assert texts[0] == texts[1]


class TestInspect:
    def _train(self, tmp_path):
        ds = gen_dataset(tmp_path)
        out = tmp_path / "run"
        assert run_cli("train", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN) == 0
        manifest = json.loads((ds / "manifest.json").read_text())
        return out / "checkpoint", ds / manifest["items"][0]["file"]

    def test_dumps_trace_attention_and_logits(self, tmp_path, capsys):
        ckpt, image = self._train(tmp_path)
        out = tmp_path / "inspect"
        code = run_cli("inspect", "--checkpoint", str(ckpt), "--image",
                       str(image), "--out", str(out), "--trace")
        assert code == 0
        assert "predicted_class=" in capsys.readouterr().out
        lines = (out / "selections.jsonl").read_text().strip().split("\n")
        assert len(lines) == 1  # layers=2 -> L-1 = 1 selection record
        record = json.loads(lines[0])
        assert record["kind"] == "MAWS"
        assert len(record["indices"]) == 2
        assert len(set(record["indices"])) == 2
        assert all(1 <= i <= 4 for i in record["indices"])
        assert (out / "attention.layer1.ftz").exists()
        assert (out / "logits.ftz").exists()
        assert (out / "fused.ftz").exists()

    def test_offline_reselection_reproduces_dumped_indices(self, tmp_path):
        ckpt, image = self._train(tmp_path)
        out = tmp_path / "inspect"
        assert run_cli("inspect", "--checkpoint", str(ckpt), "--image",
                       str(image), "--out", str(out)) == 0
        record = json.loads((out / "selections.jsonl").read_text().strip())
        scores = ftz.read(out / "attention.layer1.ftz")
        redo = maws(scores, len(record["indices"]))
        assert redo.indices == record["indices"]

    def test_image_shape_mismatch_is_config_error(self, tmp_path):
        ckpt, _ = self._train(tmp_path)
        bad = tmp_path / "bad.ftz"
        ftz.write(bad, np.zeros((8, 8, 1), np.float32))
        assert run_cli("inspect", "--checkpoint", str(ckpt), "--image",
                       str(bad), "--out", str(tmp_path / "x")) == 1


class TestGradcheckCommand:
    def test_fresh_checkout_exits_zero(self, capsys):
        assert run_cli("gradcheck") == 0
        out = capsys.readouterr().out
        assert "checks passed" in out

    def test_sign_flipped_matmul_backward_detected(self, monkeypatch, capsys):
        # detector sanity: corrupt one backward rule, expect nonzero exit
        from fusevit import tensor as T
        from fusevit.tensor import Tensor, _finish, ShapeError

        def broken_matmul(a, b):
            if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
                raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
            out = Tensor._wrap(a.data @ b.data)

            def rule(g):
                return -g @ b.data.T, a.data.T @ g  # wrong sign for input a

            return _finish(out, (a, b), rule)

        monkeypatch.setattr(T, "matmul", broken_matmul)
        from fusevit.gradcheck import op_checks
        results = op_checks()
        failed = [r.name for r in results if not r.passed]
        assert "matmul.a" in failed
        assert "matmul.b" not in failed


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("train", "--steps", "not-a-number") == 1
        assert run_cli("gen", "--classes", "0", "--out", "/tmp/x") == 1

    def test_unknown_flag_is_one(self):
        assert run_cli("gen", "--frobnicate") == 1


def edited(change):
    """Manifest mutation: apply ``change`` in place, then re-serialize."""
    def mutate(manifest):
        change(manifest)
        return json.dumps(manifest)
    return mutate


BAD_MANIFESTS = {
    "dataset-invalid-json": ("ds", lambda m: "{not json"),
    "dataset-not-object": ("ds", lambda m: json.dumps([m])),
    "dataset-unknown-spec-key": ("ds", edited(lambda m: m["spec"].update(colour=1))),
    "dataset-missing-spec-key": ("ds", edited(lambda m: m["spec"].pop("noise_std"))),
    "dataset-label-too-large": (
        "ds", edited(lambda m: m["items"][-1].update(label=m["spec"]["num_classes"]))),
    "dataset-label-negative": ("ds", edited(lambda m: m["items"][0].update(label=-1))),
    "checkpoint-invalid-json": ("checkpoint", lambda m: "{not json"),
    "checkpoint-not-object": ("checkpoint", lambda m: json.dumps([m])),
    "checkpoint-unknown-config-key": (
        "checkpoint", edited(lambda m: m["config"].update(colour=1))),
    "checkpoint-missing-config-key": ("checkpoint", edited(lambda m: m["config"].pop("k"))),
}


class TestManifestBoundary:
    @pytest.fixture(scope="class")
    def trained(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("trained")
        ds = gen_dataset(tmp)
        out = tmp / "run"
        assert run_cli("train", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN) == 0
        return ds, out / "checkpoint"

    @pytest.mark.parametrize("case", sorted(BAD_MANIFESTS))
    def test_eval_reports_one_error_line(self, case, trained, tmp_path, capsys):
        ds, ckpt = (shutil.copytree(p, tmp_path / p.name) for p in trained)
        which, mutate = BAD_MANIFESTS[case]
        manifest = tmp_path / which / "manifest.json"
        manifest.write_text(mutate(json.loads(manifest.read_text())))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err
