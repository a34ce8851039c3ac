import csv
import json
import os
import struct
import subprocess
import sys

import numpy as np
import pytest

import patchcert
from patchcert import certify, model, runio
from patchcert.cli import ConfigError, main, resolve_config
from patchcert.core import Tensor
from patchcert.data import CIFAR_TEST_FILE, CIFAR_TRAIN_FILES, encode_records


def read_csv(path):
    with open(path, newline="") as f:
        return list(csv.reader(f))


QUICK_TRAIN = ["--set", "data.n_per_class=40", "--set", "model.width=8",
               "--set", "train.epochs=2", "--set", "train.warmup_epochs=1",
               "--set", "train.batch_size=16"]


@pytest.fixture(scope="module")
def trained_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("train")
    code = main(["train", "--out", str(out), "--seed", "0"] + QUICK_TRAIN)
    assert code == 0
    return out


class TestConfig:
    def test_defaults_plus_overrides(self):
        config = resolve_config(None, ["train.margin=0.75", "model.rf=7"])
        assert config["train"]["margin"] == 0.75
        assert config["model"]["rf"] == 7
        assert config["train"]["epochs"] == 30

    def test_file_then_cli_precedence(self, tmp_path):
        ini = tmp_path / "run.ini"
        ini.write_text("[train]\nmargin = 0.25\nepochs = 7\n")
        config = resolve_config(str(ini), ["train.margin=1.0"])
        assert config["train"]["margin"] == 1.0   # CLI wins
        assert config["train"]["epochs"] == 7     # file beats defaults

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError, match="unknown config key"):
            resolve_config(None, ["train.nope=1"])

    def test_bad_type_rejected(self):
        with pytest.raises(ConfigError, match="expects int"):
            resolve_config(None, ["train.epochs=many"])

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError, match="not found"):
            resolve_config("/nonexistent/run.ini", [])


class TestTrainCommand:
    def test_outputs_and_manifest(self, trained_run):
        assert (trained_run / "checkpoint.pckp").is_file()
        rows = read_csv(trained_run / "metrics.csv")
        assert rows[0] == ["epoch", "clean_acc", "cert32_acc", "cert33_acc",
                           "loss", "lr", "seconds"]
        assert len(rows) == 3  # header + 2 epochs
        manifest = json.loads((trained_run / "manifest.json").read_text())
        assert manifest["subcommand"] == "train"
        assert manifest["seed"] == 0
        assert manifest["config"]["train"]["epochs"] == 2
        assert manifest["manifest_version"] == 1
        assert manifest["exit_code"] == 0
        assert manifest["end_timestamp"] >= manifest["timestamp"]
        assert manifest["duration_s"] > 0
        assert isinstance(manifest["minor_page_faults"], int)
        assert manifest["minor_page_faults"] >= 0

    def test_manifest_records_exit_1(self, trained_run, tmp_path):
        """An input check that fails after the manifest was written still
        ends it with the exit code, and leaves no other file."""
        out = tmp_path / "o"
        code = main(["certify", "--out", str(out),
                     "--set", f"certify.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "certify.condition=4"])
        assert code == 1
        assert [p.name for p in out.iterdir()] == ["manifest.json"]
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["subcommand"] == "certify"
        assert manifest["exit_code"] == 1
        assert manifest["duration_s"] >= 0
        assert {"end_timestamp", "minor_page_faults"} <= set(manifest)

    def test_manifest_without_resource_module(self, tmp_path, monkeypatch):
        monkeypatch.setattr(runio, "resource", None)
        out = tmp_path / "o"
        assert main(["train", "--out", str(out), "--set", "train.margin=0"]) == 1
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["exit_code"] == 1
        assert "minor_page_faults" not in manifest

    def test_manifest_rewrite_failure_exit_2(self, tmp_path, monkeypatch, capsys):
        def fail(self, exit_code):
            raise OSError("disk full")

        monkeypatch.setattr(runio.RunManifest, "finish", fail)
        bench = ["bench", "--out", str(tmp_path / "o"), "--set", "bench.n_maps=2",
                 "--set", "bench.height=8", "--set", "bench.width=8",
                 "--set", "bench.patch=3x3", "--set", "bench.small_patch=2x2",
                 "--set", "bench.repetitions=1"]
        assert main(bench) == 2
        assert "cannot rewrite the manifest: disk full" in capsys.readouterr().err
        assert main(["train", "--out", str(tmp_path / "t"), "--set", "train.margin=0"]) == 1

    def test_missing_dataset_path_exit_1(self, tmp_path, capsys):
        code = main(["train", "--out", str(tmp_path / "o"),
                     "--set", "data.source=cifar10",
                     "--set", f"data.cifar_dir={tmp_path}/nothere"])
        assert code == 1
        assert "nothere" in capsys.readouterr().err

    def test_rerun_same_seed_identical_metrics(self, trained_run, tmp_path):
        out2 = tmp_path / "again"
        assert main(["train", "--out", str(out2), "--seed", "0"] + QUICK_TRAIN) == 0
        a = read_csv(trained_run / "metrics.csv")
        b = read_csv(out2 / "metrics.csv")
        # identical up to the wall-clock column
        strip = [row[:-1] for row in a]
        assert strip == [row[:-1] for row in b]

    def test_invalid_margin_exit_1(self, tmp_path):
        code = main(["train", "--out", str(tmp_path / "o"),
                     "--set", "train.margin=0"] + QUICK_TRAIN)
        assert code == 1

    @pytest.mark.parametrize("patch", ["20x20", "0x3"])
    def test_bad_eval_patch_exit_1(self, tmp_path, capsys, patch):
        code = main(["train", "--out", str(tmp_path / "o"),
                     "--set", f"train.eval_patch={patch}"] + QUICK_TRAIN)
        assert code == 1
        assert "train.eval_patch" in capsys.readouterr().err
        assert not (tmp_path / "o" / "metrics.csv").exists()

    @pytest.mark.parametrize("n", ["0", "-3"])
    def test_empty_training_set_exit_1(self, tmp_path, capsys, n):
        code = main(["train", "--out", str(tmp_path / "o"), "--set", f"data.n_per_class={n}"])
        assert code == 1
        assert "data.n_per_class" in capsys.readouterr().err

    def test_labels_beyond_model_classes_exit_1(self, tmp_path, capsys):
        cifar = tmp_path / "cifar"
        cifar.mkdir()
        images = np.random.default_rng(0).random((10, 32, 32, 3)).astype(np.float32)
        for name in CIFAR_TRAIN_FILES:
            (cifar / name).write_bytes(encode_records(images, np.arange(10)))
        code = main(["train", "--out", str(tmp_path / "o"), "--set", "data.source=cifar10",
                     "--set", f"data.cifar_dir={cifar}", "--set", "model.classes=3"])
        assert code == 1
        assert "labels reach 9" in capsys.readouterr().err


def damaged_checkpoints(trained_run, tmp_path):
    """A truncated copy of a good checkpoint and a file of garbage, with the
    message each must produce."""
    blob = (trained_run / "checkpoint.pckp").read_bytes()
    truncated = tmp_path / "truncated.pckp"
    truncated.write_bytes(blob[:len(blob) // 2])
    garbage = tmp_path / "garbage.pckp"
    garbage.write_bytes(b"not a checkpoint at all")
    return [(truncated, "truncated checkpoint"), (garbage, "bad checkpoint magic")]


@pytest.mark.parametrize("cmd", ["certify", "attack"])
class TestRejectedInputs:
    def test_damaged_checkpoint_exit_1(self, trained_run, tmp_path, capsys, cmd):
        for path, message in damaged_checkpoints(trained_run, tmp_path):
            code = main([cmd, "--out", str(tmp_path / "o"),
                         "--set", f"{cmd}.checkpoint={path}"])
            assert code == 1
            assert message in capsys.readouterr().err

    def test_negative_limit_exit_1(self, trained_run, tmp_path, capsys, cmd):
        out = tmp_path / "o"
        code = main([cmd, "--out", str(out), "--set", f"{cmd}.limit=-5",
                     "--set", f"{cmd}.checkpoint={trained_run}/checkpoint.pckp"])
        assert code == 1
        assert f"{cmd}.limit" in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]


def edited_checkpoint(src, dst, edit_tensors=None, edit_meta=None):
    """Copy of the checkpoint at `src` with its named arrays and metadata
    passed through the given edits, re-encoded in the checkpoint format."""
    params, spec, step = model.load_checkpoint(src)
    tensors = {n: t.data.copy() for n, t in params.tensors.items()}
    if edit_tensors:
        edit_tensors(tensors)
    model.save_checkpoint(model.Parameters({n: Tensor(v) for n, v in tensors.items()},
                                           params.trainable), spec, dst, step=step)
    if edit_meta:
        blob = dst.read_bytes()
        (meta_len,) = struct.unpack_from("<I", blob, 16)
        meta = edit_meta(json.loads(blob[20:20 + meta_len]))
        encoded = json.dumps(meta).encode()
        dst.write_bytes(blob[:16] + struct.pack("<I", len(encoded)) + encoded
                        + blob[20 + meta_len:])
    return dst


def _drop(key):
    return lambda d: {k: v for k, v in d.items() if k != key}


def _nan_at(name, index):
    def edit(d):
        d[name][index] = np.nan
    return edit


class TestCheckpointContents:
    """A checkpoint whose arrays or metadata do not describe its model exits
    1 with a message naming the problem, before any certificate is computed."""

    CASES = {
        "missing_tensor": (dict(edit_tensors=lambda d: d.pop("block3.conv1.kernel")),
                           "block3.conv1.kernel"),
        "one_class_head": (dict(edit_tensors=lambda d: d.update(
            {"head.kernel": d["head.kernel"][..., :1]})), "'head.kernel' has shape"),
        "nan_running_var": (dict(edit_tensors=_nan_at("stem.norm.running_var", 0)),
                            "'stem.norm.running_var' holds non-finite"),
        "no_spec": (dict(edit_meta=_drop("spec")), "no spec"),
        "no_trainable": (dict(edit_meta=_drop("trainable")), "no trainable"),
        "spec_field_missing": (dict(edit_meta=lambda m: {**m, "spec": _drop("width")(m["spec"])}),
                               "do not match NetworkSpec"),
        "oversized_width": (dict(edit_meta=lambda m: {**m, "spec": {**m["spec"], "width": 10 ** 9}}),
                            "'stem.kernel' has shape"),
        "strided_blocks": (dict(edit_meta=lambda m: {**m, "spec": {
            **m["spec"], "block_strides": [2] + m["spec"]["block_strides"][1:]}}),
            "block strides (2, 1, 1, 1, 1, 1, 1, 1)"),
    }

    @pytest.mark.parametrize("case", sorted(CASES))
    def test_certify_exit_1(self, trained_run, tmp_path, capsys, case):
        edits, message = self.CASES[case]
        path = edited_checkpoint(trained_run / "checkpoint.pckp", tmp_path / "c.pckp",
                                 **edits)
        out = tmp_path / "o"
        code = main(["certify", "--out", str(out), "--set", f"certify.checkpoint={path}",
                     "--set", "certify.condition=2"])
        assert code == 1
        assert message in capsys.readouterr().err
        assert [p.name for p in out.iterdir()] == ["manifest.json"]

    def test_unedited_copy_loads(self, trained_run, tmp_path):
        path = edited_checkpoint(trained_run / "checkpoint.pckp", tmp_path / "c.pckp")
        assert path.read_bytes() == (trained_run / "checkpoint.pckp").read_bytes()


class TestConfigValues:
    """Config values that would crash or silently misbehave exit 1 and name
    the key."""

    @pytest.mark.parametrize("setting, key", [
        ("data.height=4", "data.height"), ("data.width=0", "data.width"),
        ("train.lr=nan", "train.lr"), ("train.lr=inf", "train.lr"),
        ("train.lr=0", "train.lr"), ("train.lr=-1", "train.lr"),
        ("train.sigma=nan", "train.sigma"), ("train.sigma=inf", "train.sigma"),
        ("train.sigma=-1", "train.sigma"), ("train.margin=1.5", "train.margin"),
        ("train.holdout_fraction=1", "train.holdout_fraction"),
        ("train.holdout_fraction=0.999", "train.holdout_fraction")])
    def test_train_exit_1(self, tmp_path, capsys, setting, key):
        out = tmp_path / "o"
        code = main(["train", "--out", str(out), "--set", setting] + QUICK_TRAIN)
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("setting, key", [
        ("train.batch_size=0", "train.batch_size"), ("train.epochs=0", "train.epochs"),
        ("train.warmup_epochs=2", "train.warmup_epochs")])
    def test_train_schedule_exit_1(self, tmp_path, capsys, setting, key):
        # after QUICK_TRAIN, which sets these keys itself
        out = tmp_path / "o"
        code = main(["train", "--out", str(out)] + QUICK_TRAIN + ["--set", setting])
        assert code == 1
        assert key in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()

    def test_attack_steps_exit_1(self, trained_run, tmp_path, capsys):
        code = main(["attack", "--out", str(tmp_path / "o"),
                     "--set", f"attack.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "attack.steps=0", "--set", "attack.limit=1"])
        assert code == 1
        assert "attack.steps" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "0"])
    def test_attack_step_size_exit_1(self, trained_run, tmp_path, capsys, value):
        code = main(["attack", "--out", str(tmp_path / "o"),
                     "--set", f"attack.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", f"attack.step_size={value}", "--set", "attack.limit=1"])
        assert code == 1
        assert "attack.step_size" in capsys.readouterr().err

    def test_eval_seed_offset_exit_1(self, trained_run, tmp_path, capsys):
        code = main(["certify", "--out", str(tmp_path / "o"), "--seed", "3",
                     "--set", f"certify.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "data.eval_seed_offset=-4"])
        assert code == 1
        assert "data.eval_seed_offset" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["train", "certify", "attack", "bench"])
    def test_negative_seed_exit_1(self, tmp_path, capsys, cmd):
        code = main([cmd, "--out", str(tmp_path / "o"), "--seed", "-1"])
        assert code == 1
        assert "--seed" in capsys.readouterr().err


class TestCertifyCommand:
    def test_summary_and_detail_schema(self, trained_run, tmp_path):
        out = tmp_path / "cert"
        code = main(["certify", "--out", str(out), "--seed", "0",
                     "--set", f"certify.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "data.eval_n_per_class=10",
                     "--set", "certify.patches=3x3,2x4",
                     "--set", "certify.condition=all"])
        assert code == 0
        summary = read_csv(out / "certify_summary.csv")
        assert summary[0] == ["patch_h", "patch_w", "condition", "n",
                              "n_certified", "cert_acc"]
        assert len(summary) == 1 + 2 * 3  # two shapes x three conditions
        detail = read_csv(out / "certify_detail_3x3.csv")
        assert detail[0] == ["index", "label", "pred", "cert_31", "cert_32",
                             "cert_33", "min_slack", "lim_top", "lim_left"]
        assert len(detail) == 21

        # nesting holds row-wise and cond-3.2 accuracy >= cond-3.3 accuracy
        by_cond = {row[2]: int(row[4]) for row in summary[1:] if row[0] == "3"}
        assert by_cond["3.3"] <= by_cond["3.2"] <= by_cond["3.1"]

    def test_missing_checkpoint_exit_1(self, tmp_path):
        code = main(["certify", "--out", str(tmp_path / "o"),
                     "--set", "certify.checkpoint=/nope.pckp"])
        assert code == 1

    def test_bad_condition_exit_1(self, trained_run, tmp_path):
        code = main(["certify", "--out", str(tmp_path / "o"),
                     "--set", f"certify.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "certify.condition=5"])
        assert code == 1

    def test_oversized_patch_exit_1(self, trained_run, tmp_path):
        code = main(["certify", "--out", str(tmp_path / "o"),
                     "--set", f"certify.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "certify.patches=40x40"])
        assert code == 1

    def test_bad_later_shape_writes_no_csv(self, trained_run, tmp_path, capsys):
        out = tmp_path / "o"
        code = main(["certify", "--out", str(out),
                     "--set", f"certify.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "certify.patches=3x3,17x1"])
        assert code == 1
        assert "certify.patches" in capsys.readouterr().err
        assert not list(out.glob("certify_*.csv"))


class TestAttackCommand:
    def test_outputs_and_ordering(self, trained_run, tmp_path):
        out = tmp_path / "atk"
        code = main(["attack", "--out", str(out), "--seed", "0",
                     "--set", f"attack.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "data.eval_n_per_class=4",
                     "--set", "attack.steps=5"])
        assert code == 0
        detail = read_csv(out / "attack_detail.csv")
        assert detail[0] == ["index", "true_label", "target", "l_top", "l_left",
                             "success", "clean_pred", "adv_pred", "steps_used"]
        assert len(detail) == 9
        agg = read_csv(out / "attack_summary.csv")
        assert agg[0] == ["n", "clean_acc", "adversarial_acc", "certified_acc"]
        n, clean, adv, cert = agg[1]
        assert float(cert) <= float(adv) <= float(clean) + 1e-12

    def test_deterministic_rerun(self, trained_run, tmp_path):
        args = ["--set", f"attack.checkpoint={trained_run}/checkpoint.pckp",
                "--set", "data.eval_n_per_class=3", "--set", "attack.steps=3"]
        out1, out2 = tmp_path / "a1", tmp_path / "a2"
        assert main(["attack", "--out", str(out1), "--seed", "1"] + args) == 0
        assert main(["attack", "--out", str(out2), "--seed", "1"] + args) == 0
        assert read_csv(out1 / "attack_detail.csv") == read_csv(out2 / "attack_detail.csv")

    def test_oversized_patch_exit_1(self, trained_run, tmp_path, capsys):
        code = main(["attack", "--out", str(tmp_path / "o"),
                     "--set", f"attack.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "data.eval_n_per_class=2",
                     "--set", "attack.patch=40x40"])
        assert code == 1
        assert "does not fit" in capsys.readouterr().err

    def test_empty_split_exit_1(self, trained_run, tmp_path):
        code = main(["attack", "--out", str(tmp_path / "o"),
                     "--set", f"attack.checkpoint={trained_run}/checkpoint.pckp",
                     "--set", "data.eval_n_per_class=0"])
        assert code == 1


def untrained_checkpoint(path, input_shape, classes):
    spec = model.cifar_spec(5, input_shape=input_shape, width=4, classes=classes)
    model.save_checkpoint(model.build_model(spec, 0), spec, path)
    return path


def fake_cifar_dir(path):
    """Tiny CIFAR-format batches; the test batch holds labels 0-9."""
    rng = np.random.default_rng(0)
    path.mkdir()
    for name, labels in [(n, [0, 1]) for n in CIFAR_TRAIN_FILES] + [(CIFAR_TEST_FILE, range(10))]:
        images = rng.random((len(labels), 32, 32, 3)).astype(np.float32)
        (path / name).write_bytes(encode_records(images, np.array(labels)))
    return path


class TestEvalSplitChecks:
    """certify and attack reject an evaluation split the checkpoint cannot
    score, with exit code 1 and a message naming the problem."""

    @pytest.mark.parametrize("cmd", ["certify", "attack"])
    def test_image_shape_mismatch_exit_1(self, tmp_path, capsys, cmd):
        ckpt = untrained_checkpoint(tmp_path / "c.pckp", (32, 32, 3), 2)
        code = main([cmd, "--out", str(tmp_path / "o"),
                     "--set", f"{cmd}.checkpoint={ckpt}",
                     "--set", "data.eval_n_per_class=2"])
        assert code == 1
        assert "do not match" in capsys.readouterr().err

    @pytest.mark.parametrize("cmd", ["certify", "attack"])
    def test_labels_beyond_checkpoint_classes_exit_1(self, tmp_path, capsys, cmd):
        ckpt = untrained_checkpoint(tmp_path / "c.pckp", (32, 32, 3), 2)
        cifar = fake_cifar_dir(tmp_path / "cifar")
        code = main([cmd, "--out", str(tmp_path / "o"),
                     "--set", f"{cmd}.checkpoint={ckpt}",
                     "--set", "data.source=cifar10",
                     "--set", f"data.cifar_dir={cifar}"])
        assert code == 1
        err = capsys.readouterr().err
        assert "labels reach 9" in err and "2 classes" in err

    def test_certify_on_cifar_batches(self, tmp_path):
        ckpt = untrained_checkpoint(tmp_path / "c.pckp", (32, 32, 3), 10)
        cifar = fake_cifar_dir(tmp_path / "cifar")
        out = tmp_path / "o"
        code = main(["certify", "--out", str(out),
                     "--set", f"certify.checkpoint={ckpt}",
                     "--set", "data.source=cifar10",
                     "--set", f"data.cifar_dir={cifar}",
                     "--set", "certify.condition=2"])
        assert code == 0
        detail = read_csv(out / "certify_detail_3x3.csv")
        assert [row[1] for row in detail[1:]] == [str(k) for k in range(10)]


    def test_certify_reads_only_the_test_batch(self, tmp_path):
        ckpt = untrained_checkpoint(tmp_path / "c.pckp", (32, 32, 3), 10)
        cifar = tmp_path / "cifar"
        cifar.mkdir()
        images = np.random.default_rng(0).random((3, 32, 32, 3)).astype(np.float32)
        (cifar / CIFAR_TEST_FILE).write_bytes(encode_records(images, np.array([0, 4, 9])))
        out = tmp_path / "o"
        code = main(["certify", "--out", str(out),
                     "--set", f"certify.checkpoint={ckpt}",
                     "--set", "data.source=cifar10",
                     "--set", f"data.cifar_dir={cifar}",
                     "--set", "certify.condition=2"])
        assert code == 0
        detail = read_csv(out / "certify_detail_3x3.csv")
        assert [row[1] for row in detail[1:]] == ["0", "4", "9"]


class TestBenchCommand:
    def test_zero_repetitions_exit_1(self, tmp_path):
        code = main(["bench", "--out", str(tmp_path / "o"),
                     "--set", "bench.repetitions=0"])
        assert code == 1

    def test_zero_maps_exit_1(self, tmp_path, capsys):
        code = main(["bench", "--out", str(tmp_path / "o"), "--set", "bench.n_maps=0"])
        assert code == 1
        assert "bench.n_maps" in capsys.readouterr().err

    @pytest.mark.parametrize("key", ["patch", "small_patch"])
    def test_oversized_patch_exit_1(self, tmp_path, capsys, key):
        code = main(["bench", "--out", str(tmp_path / "o"), "--set", "bench.n_maps=4",
                     "--set", f"bench.{key}=40x40"])
        assert code == 1
        assert f"bench.{key}" in capsys.readouterr().err

    def test_damaged_blob_exit_1(self, tmp_path, capsys, rng):
        good = tmp_path / "good.pcsm"
        certify.save_score_maps(good, rng.integers(0, 2, size=(2, 8, 8, 3), dtype=np.uint8))
        truncated = tmp_path / "truncated.pcsm"
        truncated.write_bytes(good.read_bytes()[:-5])
        garbage = tmp_path / "garbage.pcsm"
        garbage.write_bytes(b"garbage")
        empty = tmp_path / "empty.pcsm"
        empty.write_bytes(b"")
        for blob, message in ((truncated, "truncated score map"),
                              (garbage, "bad score-map magic"),
                              (empty, "bench.blob holds no score maps")):
            code = main(["bench", "--out", str(tmp_path / "o"), "--set", f"bench.blob={blob}"])
            assert code == 1
            assert message in capsys.readouterr().err

    def test_single_class_blob_exit_1(self, tmp_path, capsys, rng):
        blob = tmp_path / "one_class.pcsm"
        certify.save_score_maps(blob, rng.integers(0, 2, size=(4, 8, 8, 1), dtype=np.uint8))
        code = main(["bench", "--out", str(tmp_path / "o"), "--set", f"bench.blob={blob}",
                     "--set", "bench.patch=3x3", "--set", "bench.small_patch=2x2"])
        assert code == 1
        err = capsys.readouterr().err
        assert "config error:" in err and "at least 2 classes, got 1" in err

    def test_unknown_rf_exit_1(self, tmp_path, capsys):
        code = main(["bench", "--out", str(tmp_path / "o"), "--set", "bench.rf=6"])
        assert code == 1
        assert "rf 6" in capsys.readouterr().err

    def test_small_bench_runs(self, tmp_path):
        out = tmp_path / "bench"
        code = main(["bench", "--out", str(out), "--seed", "0",
                     "--set", "bench.n_maps=200", "--set", "bench.repetitions=2"])
        assert code == 0
        rows = read_csv(out / "bench.csv")
        assert rows[0] == ["condition", "n_maps", "n_regions", "repetitions",
                           "median_seconds", "seconds_per_10k"]
        assert len(rows) == 5

    def test_blob_input(self, tmp_path, rng):
        maps = rng.integers(0, 2, size=(20, 16, 16, 4), dtype=np.uint8)
        blob = tmp_path / "maps.pcsm"
        certify.save_score_maps(blob, maps)
        out = tmp_path / "bench"
        code = main(["bench", "--out", str(out), "--seed", "0",
                     "--set", f"bench.blob={blob}",
                     "--set", "bench.patch=3x3", "--set", "bench.small_patch=8x8",
                     "--set", "bench.repetitions=1"])
        assert code == 0
        rows = read_csv(out / "bench.csv")
        assert rows[1][1] == "20"


class TestEntryPoint:
    def test_module_invocation(self, tmp_path):
        # The child must import the same package as this process: the
        # directory holding it is `src/` both for a PYTHONPATH=src run and
        # for an editable install. cwd=tmp_path keeps `python -m` from
        # finding a package through the directory pytest was started in.
        pkg_root = os.path.dirname(
            os.path.dirname(os.path.abspath(patchcert.__file__)))
        env = dict(os.environ, PYTHONPATH=pkg_root)
        proc = subprocess.run(
            [sys.executable, "-m", "patchcert.cli", "train", "--out",
             str(tmp_path / "o"), "--set", "train.margin=0"],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        assert "ModuleNotFoundError" not in proc.stderr
        assert proc.returncode == 1
        assert "config error:" in proc.stderr and "margin" in proc.stderr

    def test_threads_env_validated(self, monkeypatch):
        from patchcert.runio import worker_count
        monkeypatch.setenv("PATCHCERT_THREADS", "2")
        assert worker_count() <= 2
        monkeypatch.setenv("PATCHCERT_THREADS", "abc")
        with pytest.raises(ValueError, match="PATCHCERT_THREADS"):
            worker_count()

    def test_threads_capped_by_cpu_affinity(self, monkeypatch):
        """The cap counts the CPUs the process may run on, not the machine's."""
        from patchcert.runio import worker_count
        monkeypatch.delenv("PATCHCERT_THREADS", raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 8)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {3}, raising=False)
        assert worker_count() == 1
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        assert worker_count() == 3
        monkeypatch.setenv("PATCHCERT_THREADS", "2")
        assert worker_count() == 2
