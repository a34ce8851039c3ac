import csv
import json
import os
import subprocess
import sys

import numpy as np
import pytest

import patchcert
from patchcert import certify, model
from patchcert.cli import ConfigError, main, resolve_config
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
