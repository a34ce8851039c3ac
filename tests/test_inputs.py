"""The input boundary of the command line: `main` turns every ValueError into
exit 1 and anything else into exit 2, and no edge value of any config key
crashes a command."""

import pytest

from patchcert import cli
from patchcert.cli import DEFAULTS, main

from test_cli import QUICK_TRAIN


@pytest.mark.parametrize("exc, code, prefix", [
    (ValueError("bad value"), 1, "config error: bad value"),
    (cli.ConfigError("bad key"), 1, "config error: bad key"),
    (RuntimeError("nesting violated"), 2, "error: nesting violated"),
    (KeyError("k"), 2, "error: 'k'")])
def test_main_maps_exceptions(monkeypatch, tmp_path, capsys, exc, code, prefix):
    def command(out_dir, config, seed):
        raise exc

    monkeypatch.setitem(cli.COMMANDS, "train", command)
    assert main(["train", "--out", str(tmp_path)]) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.fixture(scope="module")
def checkpoint(tmp_path_factory):
    """A checkpoint trained as the CLI tests train theirs."""
    out = tmp_path_factory.mktemp("train")
    assert main(["train", "--out", str(out)] + QUICK_TRAIN) == 0
    return out / "checkpoint.pckp"


# Each command on the smallest setup that still runs it end to end.
TINY = {
    "train": ["model.width=4", "train.epochs=1", "train.warmup_epochs=0",
              "data.n_per_class=2"],
    "certify": ["certify.checkpoint={ckpt}", "data.eval_n_per_class=2"],
    "attack": ["attack.checkpoint={ckpt}", "data.eval_n_per_class=2", "attack.steps=1"],
    "bench": ["bench.n_maps=4", "bench.repetitions=1"],
}
COMMANDS_OF = {"data": ("train", "certify"), "model": ("train",), "train": ("train",),
               "certify": ("certify",), "attack": ("attack",), "bench": ("bench",)}
PATCH_KEYS = {"train.eval_patch", "certify.patches", "attack.patch", "bench.patch",
              "bench.small_patch"}
# No value exceeds the tiny setup's own sizes: a huge count would allocate
# memory or run long without testing the boundary.
EDGE_VALUES = ["0", "-1", "nan", "inf", "", "x"]
PATCH_VALUES = ["0x3", "3x", "99x99"]

CASES = [(cmd, f"{section}.{key}", value)
         for section in DEFAULTS for key in DEFAULTS[section]
         for cmd in COMMANDS_OF[section]
         for value in EDGE_VALUES + (PATCH_VALUES if f"{section}.{key}" in PATCH_KEYS else [])]


@pytest.mark.parametrize("cmd, key, value", CASES,
                         ids=[f"{cmd}:{key}={value}" for cmd, key, value in CASES])
def test_config_edge_value(checkpoint, tmp_path, capsys, cmd, key, value):
    """Exit 0, or exit 1 with a config error that names the key; exit 2 only
    for divergence."""
    args = [cmd, "--out", str(tmp_path / "o")]
    for setting in TINY[cmd] + [f"{key}={value}"]:
        args += ["--set", setting.format(ckpt=checkpoint)]
    code = main(args)
    err = capsys.readouterr().err
    assert (code == 0 or (code == 1 and "config error:" in err and key in err)
            or (code == 2 and "training diverged" in err)), f"exit {code}: {err}"
