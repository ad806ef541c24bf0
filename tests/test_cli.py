"""Command-line surface: subcommands, config precedence, exit codes."""

import argparse
import contextlib
import hashlib
import io
import json
import os
import shutil
import tempfile
from dataclasses import asdict, fields, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fusevit import cli, ftz
from fusevit.cli import RunConfig, build_parser, main, run_comparison
from fusevit.data import load_dataset
from fusevit.gradcheck import CheckResult, end_to_end_check, format_report, op_checks
from fusevit.encoder import ModelConfig
from fusevit.model import FuseVitModel, save_checkpoint
from fusevit.selector import REGISTRY, maws
from fusevit.train import evaluate
from fusevit.errors import ConfigError


def run_cli(*args):
    return main(list(args))


GEN_ARGS = ("--classes", "3", "--train-per-class", "2", "--test-per-class", "1",
            "--image-size", "16", "--signal-patches", "3", "--seed", "4")

TINY_MODEL = ("--patch", "8", "--dim", "8", "--layers", "2", "--heads", "2",
              "--mlp-dim", "16", "--k", "2")

TINY_TRAIN = ("--steps", "3", "--batch", "2", "--lr", "0.001")


FLOAT_FIELDS = [f.name for f in fields(RunConfig) if f.type in (float, "float")]


def gen_dataset(tmp_path, *extra):
    out = tmp_path / "ds"
    assert run_cli("gen", *GEN_ARGS, "--out", str(out), *extra) == 0
    return out


class TestRunConfig:
    def test_round_trips_through_json(self, tmp_path):
        cfg = RunConfig(dim=16, selector="saws", steps=42, dataset="x")
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(asdict(cfg)))
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
        for values in ({"learning_rate": 0.1}, {"trace": True}, {"head_layers": 1}):
            path.write_text(json.dumps(values))
            with pytest.raises(ConfigError, match="unknown config keys"):
                RunConfig.from_sources(str(path), {})

    @pytest.mark.parametrize("values", [
        {"steps": "5"}, {"steps": 5.0}, {"layers": True}, {"steps": None},
        {"flip": 1}, {"selector": None}, {"dataset": 3}, {"lr": "0.1"},
        # ints that float() cannot hold
        {"lr": 10**400}, {"momentum": -10**400}, {"amplitude": 10**400},
        {"noise_std": 2**1024 - 2**970},
    ])
    def test_wrongly_typed_value_rejected(self, tmp_path, values):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(values))
        name = next(iter(values))
        with pytest.raises(ConfigError, match=f"config {name} must be"):
            RunConfig.from_sources(str(path), {})

    def test_int_for_float_and_null_for_optional_accepted(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"lr": 1, "mlp_dim": None, "resize_to": 16}))
        cfg = RunConfig.from_sources(str(path), {})
        assert (cfg.lr, cfg.mlp_dim, cfg.resize_to) == (1, None, 16)
        # the largest int that float() holds: it rounds to the largest double
        path.write_text(json.dumps({"momentum": 2**1024 - 2**970 - 1}))
        assert RunConfig.from_sources(str(path), {}).momentum == 2**1024 - 2**970 - 1

    def test_config_file_must_hold_an_object(self, tmp_path):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps([{"steps": 5}]))
        with pytest.raises(ConfigError, match="not a JSON object"):
            RunConfig.from_sources(str(path), {})

    @pytest.mark.parametrize("text", [b"[" * 100_000, b'{"steps": 5\xff}'],
                             ids=["nested-100k-deep", "not-utf8"])
    def test_unparseable_config_file_rejected(self, tmp_path, text):
        path = tmp_path / "cfg.json"
        path.write_bytes(text)
        with pytest.raises(ConfigError, match="not valid JSON"):
            RunConfig.from_sources(str(path), {})

    @pytest.mark.parametrize("name", ["dataset", "out", "checkpoint", "image"])
    def test_nul_byte_in_a_path_rejected(self, tmp_path, name):
        # a flag cannot hold a NUL byte, a config file can
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({name: "o\0ut"}))
        with pytest.raises(ConfigError) as info:
            RunConfig.from_sources(str(path), {})
        assert str(info.value) == f"config {name} must not hold a NUL byte"

    def test_missing_config_file_rejected(self, tmp_path):
        for path in ("/nonexistent/cfg.json", tmp_path):  # tmp_path is a directory
            with pytest.raises(ConfigError, match="not found"):
                RunConfig.from_sources(str(path), {})


def subcommand_parsers():
    parser = build_parser()
    action = next(a for a in parser._actions
                  if isinstance(a, argparse._SubParsersAction))
    return action.choices


class TestParser:
    def test_every_subcommand_has_one_flag_per_config_field(self):
        names = {f.name for f in fields(RunConfig)} | {"config"}
        flags = {"--" + n.replace("_", "-") for n in names} | {"--no-flip"}
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
            ["train", "--lr", "0.25", "--mlp-dim", "16", "--out", "x", "--no-flip"])
        assert (args.lr, args.mlp_dim, args.out) == (0.25, 16, "x")
        assert args.flip is False
        args = build_parser().parse_args(["gen", "--flip"])
        assert args.flip is True

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

    def test_overflowing_step_is_numeric_error(self, tmp_path, capsys):
        ds = gen_dataset(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        code = run_cli("train", "--dataset", str(ds), "--out", str(out),
                       *TINY_MODEL, "--steps", "1", "--batch", "2", "--lr", "1e300")
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: non-finite"), err
        assert "at step 0" in err[0]
        assert not (out / "checkpoint").exists()

    def test_diverging_run_prints_one_error_line(self, tmp_path, capsys):
        # pytest turns any numpy RuntimeWarning into an error
        ds = tmp_path / "d"
        assert run_cli("gen", "--out", str(ds), "--seed", "1") == 0
        out = tmp_path / "t"
        capsys.readouterr()
        code = run_cli("train", "--dataset", str(ds), "--out", str(out),
                       "--steps", "4", "--lr", "1e10")
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 2
        assert len(err) == 1 and err[0].startswith("error: non-finite"), err
        assert not out.exists()

    def test_missing_dataset_is_config_error(self, tmp_path):
        assert run_cli("train", "--dataset", str(tmp_path / "nope"),
                       "--out", str(tmp_path / "run")) == 1

    @pytest.mark.parametrize("flag", ["--resize-to", "--mlp-dim"])
    def test_zero_is_not_the_default(self, tmp_path, capsys, flag):
        ds = gen_dataset(tmp_path)
        out = tmp_path / "run"
        capsys.readouterr()
        code = run_cli("train", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN, flag, "0")
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err
        assert "positive" in err[0]
        assert not out.exists()


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

    def test_every_arm_builds_the_same_parameters(self):
        # what makes the one initial loss every arm's
        model_cfg = RunConfig(image_size=16, patch=8, dim=8, layers=2, heads=2,
                              mlp_dim=16, k=2).model_config(3)
        arms = [dict(FuseVitModel.build(replace(model_cfg, selector=variant))
                     .named_parameters()) for variant in REGISTRY]
        for arm in arms[1:]:
            assert list(arm) == list(arms[0])
            for name, p in arm.items():
                assert p.data.tobytes() == arms[0][name].data.tobytes(), name

    def test_initial_loss_is_taken_once(self, tmp_path, monkeypatch):
        dataset = load_dataset(gen_dataset(tmp_path))
        events = []
        evaluate, train = cli.evaluate, cli.train

        def recorded_evaluate(model, *args):
            params = {n: p.data.tobytes() for n, p in model.named_parameters()}
            report = evaluate(model, *args)
            events.append(("evaluate", model.cfg, params, args, report))
            return report

        monkeypatch.setattr(cli, "evaluate", recorded_evaluate)
        monkeypatch.setattr(cli, "train", lambda *a: events.append(("train",)) or train(*a))
        cfg = RunConfig(image_size=16, patch=8, dim=8, layers=2, heads=2, mlp_dim=16,
                        k=2, steps=1, batch=2)
        report = run_comparison(cfg, dataset)
        before_training = events[:events.index(("train",))]
        assert len(before_training) == 1
        _, model_cfg, params, args, init = before_training[0]
        untrained = replace(cfg.model_config(dataset.num_classes), selector="none")
        assert model_cfg == untrained
        assert params == {n: p.data.tobytes()
                          for n, p in FuseVitModel.build(untrained).named_parameters()}
        # the test images as the accuracies see them
        assert args == (dataset.test, dataset.num_classes, cfg.train_config().augment)
        assert report.init_loss == init.mean_loss

    def test_initial_loss_sees_the_resized_test_images(self, tmp_path):
        dataset = load_dataset(gen_dataset(tmp_path))
        cfg = RunConfig(image_size=16, resize_to=20, patch=8, dim=8, layers=2, heads=2,
                        mlp_dim=16, k=2, steps=1, batch=2)
        untrained = FuseVitModel.build(
            replace(cfg.model_config(dataset.num_classes), selector="none"))
        resized = evaluate(untrained, dataset.test, dataset.num_classes,
                           cfg.train_config().augment)
        assert run_comparison(cfg, dataset).init_loss == resized.mean_loss

    def test_dataset_of_another_side_is_resized(self, tmp_path, capsys):
        # 64 px images for a 16 px model, as train and eval accept them
        ds = gen_dataset(tmp_path, "--image-size", "64")
        out = tmp_path / "cmp"
        capsys.readouterr()
        code = run_cli("compare", "--dataset", str(ds), "--out", str(out),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN)
        assert capsys.readouterr().err == ""
        assert code == 0
        assert len((out / "comparison.csv").read_text().strip().split("\n")) == 4


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
                       str(image), "--out", str(out))
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
        assert redo.indices.tolist() == record["indices"]

    @pytest.mark.parametrize("names, factor, message", [
        (("layer.1.wq", "layer.1.wk"), 1e25,
         "error: non-finite values in the output of layer 1"),
        (("layer.2.wq", "layer.2.wk"), 1e25,
         "error: non-finite values in the output of layer 2"),
        (("head.ln.gamma", "head.0.w"), 1e30, "error: non-finite logits"),
    ], ids=["attention", "attention-layer-L", "head"])
    def test_overflowing_weights_print_one_error_line(self, tmp_path, capsys, names,
                                                      factor, message):
        # pytest turns any numpy RuntimeWarning into an error
        ckpt, image = self._train(tmp_path)
        for name in names:
            ftz.write(ckpt / f"{name}.ftz", ftz.read(ckpt / f"{name}.ftz") * factor)
        out = tmp_path / "inspect"
        capsys.readouterr()
        code = run_cli("inspect", "--checkpoint", str(ckpt), "--image", str(image),
                       "--out", str(out))
        assert code == 2
        assert capsys.readouterr().err == message + "\n"
        assert not out.exists()

    @staticmethod
    def _untrained_selections(tmp_path, selector):
        """``selections.jsonl`` for a fixed untrained 3-layer f32 model and image."""
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=4, embed_dim=8, layers=3,
                          heads=2, mlp_dim=16, k=3, selector=selector, num_classes=3,
                          seed=11)
        save_checkpoint(FuseVitModel.build(cfg), tmp_path / "ckpt")
        image = tmp_path / "image.ftz"
        ftz.write(image, np.random.default_rng(12).uniform(0, 1, (16, 16, 1)).astype(np.float32))
        out = tmp_path / "inspect"
        assert run_cli("inspect", "--checkpoint", str(tmp_path / "ckpt"), "--image",
                       str(image), "--out", str(out)) == 0
        return (out / "selections.jsonl").read_bytes()

    # the `none` weights are ones, so its file is the same bytes on any BLAS kernel
    @pytest.mark.parametrize("selector, digest", [
        ("none", "5579ce0b06edf472a797ce0e0fa1c49e87260b5d0ed0388c4bce79a4eccf0606"),
    ])
    def test_selections_file_is_pinned(self, tmp_path, selector, digest):
        lines = self._untrained_selections(tmp_path, selector)
        assert hashlib.sha256(lines).hexdigest() == digest

    # the indices are the same on every BLAS kernel; the weights come from f32
    # matmuls whose last bits are the kernel's (these are SkylakeX's; Haswell's
    # and SandyBridge's differ by at most 4e-10 relative)
    @pytest.mark.parametrize("selector, records", [
        ("maws", [([5, 7, 16], [0.0034693816869894104, 0.0034688796719913144,
                                0.0034652277157389997]),
                  ([4, 8, 9], [0.003469626106135578, 0.003469244276335895,
                               0.0034673721153905476])]),
        ("saws", [([7, 16, 5], [0.058926554047072505, 0.05890883506381168,
                                0.05890765658817988]),
                  ([8, 9, 4], [0.05898489695257102, 0.05892264234675896,
                               0.05891646939597736])]),
    ], ids=["maws", "saws"])
    def test_selections_are_pinned_on_any_kernel(self, tmp_path, selector, records):
        lines = self._untrained_selections(tmp_path, selector).decode().splitlines()
        assert len(lines) == len(records)
        for layer, (line, (indices, weights)) in enumerate(zip(lines, records), start=1):
            got = json.loads(line)
            assert list(got) == ["layer", "kind", "indices", "weights"]
            assert (got["layer"], got["kind"], got["indices"]) == (layer, selector.upper(),
                                                                   indices)
            np.testing.assert_allclose(got["weights"], weights, rtol=1e-7, atol=0)

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
            if (a.ndim < 2 or b.ndim < 2 or a.shape[-1] != b.shape[-2]
                    or b.ndim > 2 and (a.ndim != b.ndim or a.shape[:-2] != b.shape[:-2])):
                raise ShapeError(f"matmul shape mismatch: {a.shape} x {b.shape}")
            out = Tensor._wrap(a.data @ b.data)

            def rule(g):
                # wrong sign for input a
                if b.ndim == 2:
                    gb = a.data.reshape(-1, a.shape[-1]).T @ g.reshape(-1, g.shape[-1])
                else:
                    gb = np.swapaxes(a.data, -1, -2) @ g
                return -g @ np.swapaxes(b.data, -1, -2), gb

            return _finish(out, (a, b), rule)

        monkeypatch.setattr(T, "matmul", broken_matmul)
        from fusevit.gradcheck import op_checks
        results = op_checks()
        failed = [r.name for r in results if not r.passed]
        assert "matmul.a" in failed
        assert "matmul.b" not in failed

    def test_op_probe_names_and_order(self):
        assert [r.name for r in op_checks()] == [
            "matmul.a", "matmul.b", "add.same", "add.bias", "mul", "scale",
            "reshape", "concat_rows", "matmul.batched", "gather_rows",
            "layer_norm.x", "layer_norm.gamma", "layer_norm.beta", "sum_all",
            "cross_entropy", "matmul.shared.a", "matmul.shared.b", "add.suffix",
            "concat_rows.stack", "gather_rows.stack", "cross_entropy.batched", "add.rows",
            "layer_norm.gamma.rows", "layer_norm.beta.rows", "attention.x", "attention.wq",
            "attention.wk", "attention.wv", "attention.wo", "feedforward.x", "feedforward.w1",
            "feedforward.b1", "feedforward.w2", "feedforward.b2", "attention.cls.x",
            "attention.cls.wq"]

    def test_report_format(self):
        results = [CheckResult("matmul.a", 1.25e-9, 1e-5),
                   CheckResult("end_to_end.head.0.w", 2.5e-3, 1e-3)]
        assert format_report(results) == (
            "[ok  ] matmul.a                         max_rel_err=1.250e-09 tol=1e-05\n"
            "[FAIL] end_to_end.head.0.w              max_rel_err=2.500e-03 tol=1e-03\n"
            "1/2 checks passed")

    def test_op_checks_pass_on_many_seeds(self):
        failed = [(seed, r.name, r.max_rel_err) for seed in range(200)
                  for r in op_checks(seed) if not r.passed]
        assert failed == []


class TestExitCodes:
    def test_usage_error_is_one(self):
        assert run_cli("train", "--steps", "not-a-number") == 1
        assert run_cli("gen", "--classes", "0", "--out", "/tmp/x") == 1

    def test_unknown_flag_is_one(self):
        assert run_cli("gen", "--frobnicate") == 1

    @pytest.mark.parametrize("command", ["gen", "gradcheck"])
    def test_negative_seed_is_one_error_line(self, tmp_path, capsys, command):
        assert run_cli(command, "--seed", "-1", "--out", str(tmp_path / "x")) == 1
        err = capsys.readouterr().err
        assert err == "error: seed must be non-negative, got -1\n"
        assert not (tmp_path / "x").exists()

    @pytest.mark.parametrize("check", [op_checks, end_to_end_check])
    def test_gradcheck_suites_reject_negative_seed(self, check):
        with pytest.raises(ConfigError, match="seed"):
            check(-1)

    @pytest.fixture(scope="class")
    def tiny_dataset(self, tmp_path_factory):
        return gen_dataset(tmp_path_factory.mktemp("tiny"))

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1", "0", "1e38"])
    @pytest.mark.parametrize("name", FLOAT_FIELDS)
    @pytest.mark.parametrize("command", ["gen", "train"])
    def test_float_field_edge_values_end_cleanly(self, command, name, value, tiny_dataset,
                                                 tmp_path, capsys):
        out = tmp_path / "out"
        flag = f"--{name.replace('_', '-')}={value}"
        if command == "gen":
            args = ("gen", *GEN_ARGS, "--out", str(out), flag)
        else:
            args = ("train", "--dataset", str(tiny_dataset), "--out", str(out), *TINY_MODEL,
                    "--steps", "1", "--batch", "2", flag)
        capsys.readouterr()
        code = run_cli(*args)
        err = capsys.readouterr().err.strip().split("\n")
        # a finite but huge learning rate diverges: a numeric error
        assert code in ((0, 1, 2) if args[0] == "train" and flag == "--lr=1e38" else (0, 1))
        if code:
            assert len(err) == 1 and err[0].startswith("error:"), err
            assert not out.exists()

    @pytest.mark.parametrize("raised, code, message", [
        (KeyboardInterrupt, 130, "error: interrupted"),
        (MemoryError, 2, "error: out of memory ({command})"),
    ], ids=["interrupt", "memory"])
    @pytest.mark.parametrize("command, owner, name", [
        ("gen", cli, "generate_synth"),
        ("train", cli, "train"),
        ("compare", FuseVitModel, "build"),
    ], ids=["gen", "train", "compare"])
    def test_interrupt_and_out_of_memory_are_one_line(self, command, owner, name, raised,
                                                      code, message, tiny_dataset, tmp_path,
                                                      monkeypatch, capsys):
        def fail(*args, **kwargs):
            raise raised()

        monkeypatch.setattr(owner, name, fail)
        out = tmp_path / "out"
        capsys.readouterr()
        assert run_cli(command, *GEN_ARGS, *TINY_MODEL, "--dataset", str(tiny_dataset),
                       "--out", str(out)) == code
        assert capsys.readouterr().err == message.format(command=command) + "\n"
        assert not out.exists()


class TestOutPath:
    """An ``--out`` that is a file, lies under one, or is a directory that is
    not empty is refused before any work, and no file changes."""

    @pytest.mark.parametrize("out, reason", [
        ("afile", ": {afile} is not a directory"),
        ("afile/sub", ": {afile} is not a directory"),
        ("full", " is not empty"),
    ], ids=["afile", "afile/sub", "full"])
    @pytest.mark.parametrize("command", ["gen", "train", "compare", "inspect"])
    def test_out_on_a_file_is_one_error_line(self, command, out, reason, tmp_path,
                                             monkeypatch, capsys):
        def no_work(*args, **kwargs):
            raise AssertionError("work began before --out was checked")

        for name in ("generate_synth", "load_dataset", "load_checkpoint"):
            monkeypatch.setattr(cli, name, no_work)
        monkeypatch.setattr(FuseVitModel, "build", no_work)
        (tmp_path / "afile").write_text("kept")
        (tmp_path / "full").mkdir()
        (tmp_path / "full" / "manifest.json").write_text("kept")
        code = run_cli(command, "--out", str(tmp_path / out), "--dataset", str(tmp_path / "ds"),
                       "--checkpoint", str(tmp_path / "ckpt"), "--image", str(tmp_path / "i.ftz"))
        err = capsys.readouterr().err
        assert code == 1
        assert err == f"error: --out {tmp_path / out}{reason.format(afile=tmp_path / 'afile')}\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["afile", "full"]
        assert [p.name for p in (tmp_path / "full").iterdir()] == ["manifest.json"]
        assert (tmp_path / "afile").read_text() == "kept"
        assert (tmp_path / "full" / "manifest.json").read_text() == "kept"

    @pytest.mark.parametrize("command", ["gen", "train", "compare", "inspect"])
    def test_nul_byte_in_a_config_out_is_one_error_line(self, command, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"out": str(tmp_path / "o\0ut")}))
        code = run_cli(command, "--config", str(config), "--dataset", str(tmp_path / "ds"),
                       "--checkpoint", str(tmp_path / "ckpt"), "--image", str(tmp_path / "i.ftz"))
        assert code == 1
        assert capsys.readouterr().err == "error: config out must not hold a NUL byte\n"
        assert [p.name for p in tmp_path.iterdir()] == ["cfg.json"]

    @pytest.mark.parametrize("command, name", [("train", "lr"), ("gen", "noise_std")])
    def test_int_too_large_for_a_float_is_one_error_line(self, command, name, tmp_path,
                                                         capsys):
        # 401 digits: float() overflows, where the run used to end in a traceback
        ds = gen_dataset(tmp_path)
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({name: 10**400}))
        capsys.readouterr()
        code = run_cli(command, "--config", str(config), "--dataset", str(ds),
                       "--out", str(tmp_path / "out"))
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: config {name} must be float, got an int too large for one\n")
        assert not (tmp_path / "out").exists()

    def test_large_int_noise_std_generates_as_its_float(self, tmp_path):
        # 10**20 is too large for numpy's ints but not for a float: the same
        # images as --noise-std 1e20, and the manifest keeps the int it was given
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"noise_std": 10**20}))
        as_int, as_float = tmp_path / "int", tmp_path / "float"
        assert run_cli("gen", *GEN_ARGS, "--config", str(config), "--out", str(as_int)) == 0
        assert run_cli("gen", *GEN_ARGS, "--noise-std", "1e20", "--out", str(as_float)) == 0
        names = sorted(p.name for p in as_int.iterdir())
        assert names == sorted(p.name for p in as_float.iterdir())
        for name in names:
            if name != "manifest.json":
                assert (as_int / name).read_bytes() == (as_float / name).read_bytes(), name
        manifest = json.loads((as_int / "manifest.json").read_text())
        assert type(manifest["spec"]["noise_std"]) is int
        assert manifest["spec"]["noise_std"] == 10**20


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
    "dataset-spec-string-for-int": ("ds", edited(lambda m: m["spec"].update(num_classes="3"))),
    "dataset-spec-bool-for-int": ("ds", edited(lambda m: m["spec"].update(seed=True))),
    "dataset-spec-null-for-float": ("ds", edited(lambda m: m["spec"].update(noise_std=None))),
    "dataset-spec-int-too-large-for-float": (
        "ds", edited(lambda m: m["spec"].update(noise_std=10**400))),
    "checkpoint-config-string-for-int": (
        "checkpoint", edited(lambda m: m["config"].update(layers="4"))),
    "checkpoint-config-bool-for-int": (
        "checkpoint", edited(lambda m: m["config"].update(heads=True))),
    "checkpoint-config-float-for-int": ("checkpoint", edited(lambda m: m["config"].update(k=2.0))),
    "checkpoint-params-not-string": (
        "checkpoint", edited(lambda m: m["params"].update({"embed.E": 7}))),
    "checkpoint-params-missing": ("checkpoint", edited(lambda m: m["params"].pop("head.0.b"))),
    "checkpoint-params-unknown": (
        "checkpoint", edited(lambda m: m["params"].update({"layer.9.wq": "layer.1.wq.ftz"}))),
    "dataset-split-list": ("ds", edited(lambda m: m["items"][0].update(split=["x"]))),
    "dataset-split-missing": ("ds", edited(lambda m: m["items"][0].pop("split"))),
    "dataset-items-not-list": ("ds", edited(lambda m: m.update(items={}))),
    "dataset-classes-off-the-spec": ("ds", edited(lambda m: m.update(classes=9))),
    "checkpoint-dtype-unknown": ("checkpoint", edited(lambda m: m.update(dtype="f16"))),
    "checkpoint-dtype-missing": ("checkpoint", edited(lambda m: m.pop("dtype"))),
    "dataset-nested-100k-deep": ("ds", lambda m: "[" * 100_000),
    "checkpoint-nested-100k-deep": ("checkpoint", lambda m: "{\"a\":" * 100_000),
    # None: the manifest is replaced by a directory
    "dataset-directory": ("ds", None),
    "checkpoint-directory": ("checkpoint", None),
}


def write_refused(path, arr):
    """Write ``arr`` as FTZ bytes even when non-finite, which ``ftz.write`` refuses."""
    blob = ftz.dumps(np.zeros_like(arr))
    payload = arr.astype(arr.dtype.newbyteorder("<")).tobytes()
    path.write_bytes(blob[:len(blob) - len(payload)] + payload)


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
        if mutate is None:
            manifest.unlink()
            manifest.mkdir()
        else:
            manifest.write_text(mutate(json.loads(manifest.read_text())))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err

    @pytest.mark.parametrize("which, name", [("ds", "test_00000.ftz"),
                                             ("checkpoint", "layer.1.wq.ftz")])
    def test_missing_referenced_file_reports_one_error_line(
            self, which, name, trained, tmp_path, capsys):
        ds, ckpt = (shutil.copytree(p, tmp_path / p.name) for p in trained)
        (tmp_path / which / name).unlink()
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert err == [f"error: no FTZ file at {tmp_path / which / name}"]

    # each entry but the last four names a copy of the file it replaces,
    # which the loader used to read; a NUL byte used to reach stderr raw
    @pytest.mark.parametrize("entry", [
        lambda d, name: str(d / "sub" / name), lambda d, name: f"../{d.name}/{name}",
        lambda d, name: f"sub/{name}", lambda d, name: "", lambda d, name: ".",
        lambda d, name: "..", lambda d, name: name[:2] + "\0" + name[2:]],
        ids=["absolute", "parent", "subdir", "empty", "dot", "dotdot", "nul"])
    @pytest.mark.parametrize("which", ["ds", "checkpoint"])
    def test_entry_outside_its_directory_reports_one_error_line(self, which, entry, trained,
                                                                tmp_path, capsys):
        ds, ckpt = (shutil.copytree(p, tmp_path / p.name) for p in trained)
        directory = tmp_path / which
        manifest = json.loads((directory / "manifest.json").read_text())
        entries = manifest["items"][0] if which == "ds" else manifest["params"]
        key = "file" if which == "ds" else "layer.1.wq"
        (directory / "sub").mkdir()
        shutil.copy(directory / entries[key], directory / "sub")
        entries[key] = entry(directory, entries[key])
        (directory / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        what = "dataset" if which == "ds" else "checkpoint"
        assert capsys.readouterr().err == (
            f"error: {what} manifest entry {entries[key]!r} is not a plain file name\n")
        assert code == 1

    def test_depth_beyond_the_files_stops_at_the_first_missing_name(self, trained, tmp_path,
                                                                    capsys):
        # the line used to list every name the config implies: 25 MB at this depth
        ckpt = tmp_path / "deep"
        cfg = ModelConfig(image_h=16, image_w=16, patch_size=8, embed_dim=8, layers=4,
                          heads=2, mlp_dim=16, k=2, num_classes=3)
        save_checkpoint(FuseVitModel.build(cfg), ckpt)
        manifest = json.loads((ckpt / "manifest.json").read_text())
        manifest["config"]["layers"] = 100_000
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(trained[0]), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err
        assert code == 1
        assert err == "error: checkpoint params miss layer.5.ln1.gamma, which the config implies\n"
        assert len(err.encode()) < 200

    @pytest.mark.parametrize("change, message", [
        (lambda p: p.pop("head.0.b"), "checkpoint params miss head.0.b, which the config implies"),
        (lambda p: p.update({"layer.9.wq": "layer.1.wq.ftz", "layer.3.wk": "layer.1.wk.ftz"}),
         "checkpoint params name 2 tensor(s) the config does not imply, the first layer.3.wk"),
    ], ids=["missing", "unknown"])
    def test_params_off_the_config_name_the_first(self, change, message, trained, tmp_path,
                                                  capsys):
        ckpt = shutil.copytree(trained[1], tmp_path / "checkpoint")
        manifest = json.loads((ckpt / "manifest.json").read_text())
        change(manifest["params"])
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(trained[0]), "--checkpoint", str(ckpt))
        assert code == 1
        assert capsys.readouterr().err == f"error: {message}\n"

    @pytest.mark.parametrize("change", [lambda p: p.pop("head.0.b"),
                                        lambda p: p.update({"layer.9.wq": "layer.1.wq.ftz"})],
                             ids=["missing", "unknown"])
    def test_bad_file_earlier_in_the_table_reports_first(self, change, trained, tmp_path,
                                                         capsys):
        # the walk reads embed.E before it reaches a missing name, and every
        # file before it refuses unknown names
        ckpt = shutil.copytree(trained[1], tmp_path / "checkpoint")
        manifest = json.loads((ckpt / "manifest.json").read_text())
        change(manifest["params"])
        (ckpt / "manifest.json").write_text(json.dumps(manifest))
        path = ckpt / "embed.E.ftz"
        path.write_bytes(path.read_bytes()[:-8])
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(trained[0]), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}: payload holds"), err

    def test_large_int_noise_std_in_a_spec_evaluates(self, trained, tmp_path, capsys):
        # 10**20 fits a float: the spec loads, where it used to end in a traceback
        ds, ckpt = trained
        edited_ds = shutil.copytree(ds, tmp_path / "ds")
        manifest = json.loads((edited_ds / "manifest.json").read_text())
        manifest["spec"]["noise_std"] = 10**20
        (edited_ds / "manifest.json").write_text(json.dumps(manifest))
        capsys.readouterr()
        assert run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt)) == 0
        expected = capsys.readouterr()
        assert run_cli("eval", "--dataset", str(edited_ds), "--checkpoint", str(ckpt)) == 0
        assert capsys.readouterr() == expected

    @pytest.mark.parametrize("which, name", [("ds", "train_00001.ftz"),
                                             ("checkpoint", "layer.2.mlp.w1.ftz")])
    def test_truncated_file_error_names_the_file(self, which, name, trained, tmp_path,
                                                  capsys):
        ds, ckpt = (shutil.copytree(p, tmp_path / p.name) for p in trained)
        path = tmp_path / which / name
        path.write_bytes(path.read_bytes()[:-8])
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}: payload holds"), err

    @pytest.mark.parametrize("which, name, bad", [("checkpoint", "embed.E.ftz", np.nan),
                                                  ("ds", "test_00000.ftz", np.inf),
                                                  ("checkpoint", "head.0.b.ftz", 1e300),
                                                  ("ds", "train_00001.ftz", 1e300)])
    def test_non_finite_file_names_the_file(self, which, name, bad, trained, tmp_path,
                                            capsys):
        # a finite ``bad`` is an f64 payload that float32, the dtype of the
        # checkpoint and of every dataset image, cannot hold
        ds, ckpt = (shutil.copytree(p, tmp_path / p.name) for p in trained)
        path = tmp_path / which / name
        arr = ftz.read(path)
        if np.isfinite(bad):
            arr = arr.astype(np.float64)
        arr.flat[0] = bad
        write_refused(path, arr)
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        problem = "overflows f32" if np.isfinite(bad) else "holds non-finite values"
        assert err == [f"error: {path}: payload {problem}"]

    def test_non_finite_image_names_the_file(self, trained, tmp_path, capsys):
        bad = tmp_path / "nan.ftz"
        write_refused(bad, np.full((16, 16, 1), np.nan, np.float32))
        capsys.readouterr()
        code = run_cli("inspect", "--checkpoint", str(trained[1]), "--image", str(bad),
                       "--out", str(tmp_path / "inspect"))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert err == [f"error: {bad}: payload holds non-finite values"]
        assert not (tmp_path / "inspect").exists()

    @pytest.mark.parametrize("shape", [(8, 8, 1), (16, 16), (16, 16, 3)])
    def test_image_off_the_spec_shape_names_the_file(self, shape, trained, tmp_path,
                                                     capsys):
        ds, ckpt = (shutil.copytree(p, tmp_path / p.name) for p in trained)
        path = ds / "test_00000.ftz"
        ftz.write(path, np.zeros(shape, np.float32))
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {path}: image shape"), err

    @pytest.mark.parametrize("command", ["train", "compare", "eval"])
    def test_dataset_without_test_items_reports_one_error_line(self, command, trained,
                                                               tmp_path, capsys):
        ds, ckpt = trained
        train_only = shutil.copytree(ds, tmp_path / "train-only")
        manifest = json.loads((train_only / "manifest.json").read_text())
        manifest["items"] = [i for i in manifest["items"] if i["split"] == "train"]
        (train_only / "manifest.json").write_text(json.dumps(manifest))
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(command, "--dataset", str(train_only), "--out", str(out),
                       "--checkpoint", str(ckpt), "--image-size", "16", *TINY_MODEL,
                       *TINY_TRAIN)
        assert code == 1
        assert capsys.readouterr().err == (
            f"error: dataset {train_only} has no test items to evaluate on\n")
        assert not out.exists()

    def test_eval_class_count_mismatch_reports_one_error_line(self, trained, tmp_path,
                                                              capsys):
        ds = tmp_path / "ds2"
        assert run_cli("gen", *GEN_ARGS, "--classes", "2", "--out", str(ds)) == 0
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(trained[1]))
        assert code == 1
        assert capsys.readouterr().err == "error: model has 3 classes, dataset has 2\n"

    @pytest.mark.parametrize("crop_flag", ["--resize-to"])
    def test_eval_zero_crop_reports_one_error_line(self, trained, capsys, crop_flag):
        ds, ckpt = trained
        capsys.readouterr()
        code = run_cli("eval", "--dataset", str(ds), "--checkpoint", str(ckpt),
                       crop_flag, "0")
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert err == ["error: crop_size and resize_to must be positive"]

    @pytest.mark.parametrize("header, payload", [
        (b'{"dtype":["f32"],"shape":[16,16,1]}', b"\x00" * 1024),
        (b'{"dtype":"f32","shape":[4294967296,4294967296]}', b""),
        (b"[" * 100_000, b""),
        (b'{"dtype":"f64","shape":[16,16,1]}', np.full(256, 1e300, "<f8").tobytes()),
    ], ids=["list-dtype", "count-wraps-to-0", "nested-100k-deep", "f64-overflows-f32"])
    def test_malformed_image_reports_one_error_line(self, header, payload, trained,
                                                    tmp_path, capsys):
        bad = tmp_path / "bad.ftz"
        bad.write_bytes(ftz.MAGIC + len(header).to_bytes(4, "little") + header + payload)
        capsys.readouterr()
        code = run_cli("inspect", "--checkpoint", str(trained[1]), "--image", str(bad),
                       "--out", str(tmp_path / "inspect"))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith(f"error: {bad}: "), err

    def test_wrongly_typed_config_file_value_reports_one_error_line(
            self, trained, tmp_path, capsys):
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps({"steps": "5"}))
        capsys.readouterr()
        code = run_cli("train", "--config", str(path), "--dataset", str(trained[0]),
                       "--out", str(tmp_path / "run"))
        err = capsys.readouterr().err.strip().split("\n")
        assert code == 1
        assert len(err) == 1 and err[0].startswith("error:"), err


# replacement values for the manifest fuzz; no large int, since a size field
# such as embed_dim would allocate an array that large
FUZZ_VALUES = [None, True, False, -1, 0, 1, 2.5, "x", [], {}]
DELETE = object()


def key_paths(value, prefix=()):
    """Every key path into a JSON value, parents before children."""
    items = value.items() if isinstance(value, dict) else \
        enumerate(value) if isinstance(value, list) else ()
    for key, child in items:
        yield prefix + (key,)
        yield from key_paths(child, prefix + (key,))


def replaced(manifest, path, value):
    """A deep copy of ``manifest`` with the value at ``path`` replaced, or
    deleted when ``value`` is ``DELETE``."""
    out = json.loads(json.dumps(manifest))
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if value is DELETE:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    return out


class TestManifestFuzz:
    @pytest.fixture(scope="class")
    def dirs(self, tmp_path_factory):
        tmp = tmp_path_factory.mktemp("fuzz")
        ds = gen_dataset(tmp)
        assert run_cli("train", "--dataset", str(ds), "--out", str(tmp / "run"),
                       "--image-size", "16", *TINY_MODEL, *TINY_TRAIN) == 0
        return {"ds": ds, "checkpoint": tmp / "run" / "checkpoint"}

    @pytest.mark.parametrize("which", ["ds", "checkpoint"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_edit_ends_in_exit_0_or_1(self, which, dirs, data):
        self.check_edits(dirs, which, data, 1)

    @pytest.mark.parametrize("which", ["ds", "checkpoint"])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_two_edits_end_in_exit_0_or_1(self, which, dirs, data):
        # such as a config value together with a params entry
        self.check_edits(dirs, which, data, 2)

    @staticmethod
    def check_edits(dirs, which, data, count):
        path = dirs[which] / "manifest.json"
        original = path.read_text()
        manifest = json.loads(original)
        for _ in range(count):
            key_path = data.draw(st.sampled_from(list(key_paths(manifest))))
            value = data.draw(st.sampled_from([DELETE, *FUZZ_VALUES]))
            manifest = replaced(manifest, key_path, value)
        path.write_text(json.dumps(manifest))
        err = io.StringIO()
        try:
            with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                code = run_cli("eval", "--dataset", str(dirs["ds"]),
                               "--checkpoint", str(dirs["checkpoint"]))
        finally:
            path.write_text(original)
        lines = err.getvalue().splitlines()
        assert code in (0, 1)
        assert len(lines) <= 1 and all(line.startswith("error:") for line in lines), lines


# a small valid ``train --config`` file: the tiny model for one step
FUZZ_CONFIG = {"image_size": 16, "patch": 8, "dim": 8, "layers": 2, "heads": 2,
               "mlp_dim": 16, "k": 2, "selector": "maws", "steps": 1,
               "batch": 2, "lr": 0.001, "momentum": 0.9, "seed": 0,
               "flip": True, "resize_to": 16, "out": "run"}


class TestConfigFuzz:
    @pytest.fixture(scope="class")
    def dataset(self, tmp_path_factory):
        return gen_dataset(tmp_path_factory.mktemp("config-fuzz"))

    def test_unedited_config_trains(self, dataset):
        config = {**FUZZ_CONFIG, "dataset": str(dataset)}
        assert self.run_train(config) == (0, [], ["cfg.json", "run"])

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_one_edit_ends_in_a_run_or_one_error_line(self, dataset, data):
        self.check_edits(dataset, data, 1)

    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_two_edits_end_in_a_run_or_one_error_line(self, dataset, data):
        self.check_edits(dataset, data, 2)

    @classmethod
    def check_edits(cls, dataset, data, count):
        config = {**FUZZ_CONFIG, "dataset": str(dataset)}
        for _ in range(count):
            key = data.draw(st.sampled_from(sorted(config)))
            value = data.draw(st.sampled_from([DELETE, *FUZZ_VALUES]))
            config = replaced(config, (key,), value)
        code, lines, made = cls.run_train(config)
        assert code in (0, 1, 2)
        assert len(lines) <= 1 and all(line.startswith("error:") for line in lines), lines
        if code:
            assert made == ["cfg.json"], (config, made)

    @staticmethod
    def run_train(config):
        """``train --config`` in a scratch directory: the exit code, the stderr
        lines and the files it made."""
        err = io.StringIO()
        home = os.getcwd()
        with tempfile.TemporaryDirectory() as work:
            # a relative "out" lands in the scratch directory
            os.chdir(work)
            try:
                with open("cfg.json", "w") as f:
                    json.dump(config, f)
                with contextlib.redirect_stderr(err), \
                        contextlib.redirect_stdout(io.StringIO()):
                    code = run_cli("train", "--config", "cfg.json")
                made = sorted(os.listdir())
            finally:
                os.chdir(home)
        return code, err.getvalue().splitlines(), made
