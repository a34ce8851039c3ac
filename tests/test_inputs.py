"""The input boundary of the command line: `main` turns every ValueError into
exit 1 and anything else into exit 2, no edge value of any config key
crashes a command, and a truncated, bit-flipped or spliced input file is
either rejected with a message or loads into something sound."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import certify, cli, data, model
from patchcert.cli import DEFAULTS, main
from patchcert.geometry import LayerGeom, dependency_region, enumerate_regions

from conftest import brute_force_certified
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


# ---------------------------------------------------------------------------
# byte fuzz of the three input file formats

def fuzz_checkpoint() -> bytes:
    """A small checkpoint whose maps are mostly certified for class 0, so
    that a flipped weight can move a certificate."""
    spec = model.cifar_spec(5, input_shape=(8, 8, 1), width=4, classes=3)
    params = model.build_model(spec, seed=0)
    params.tensors["head.bias"].data[:] = (3.0, -3.0, -3.0)
    return saved(lambda path: model.save_checkpoint(params, spec, path, step=7))


def fuzz_blob() -> bytes:
    rng = np.random.default_rng(0)
    maps = rng.integers(0, 2, size=(3, 6, 5, 3), dtype=np.uint8)
    maps[0, :, :, 0] = 1  # one map certified for class 0
    maps[0, :, :, 1:] = 0
    return saved(lambda path: certify.save_score_maps(path, maps))


def fuzz_records() -> bytes:
    rng = np.random.default_rng(0)
    return data.encode_records(rng.random((2, 32, 32, 3)), np.array([3, 9]))


def saved(write) -> bytes:
    import tempfile
    with tempfile.TemporaryDirectory() as d:
        path = f"{d}/file"
        write(path)
        with open(path, "rb") as f:
            return f.read()


FUZZ_FILES = {"checkpoint": fuzz_checkpoint(), "blob": fuzz_blob(), "records": fuzz_records()}


def mutate(blob: bytes, kind: str, i: int, j: int) -> bytes:
    """Truncate at i, flip bit j of byte i, or splice blob[:i] onto blob[j:]
    (i < j cuts a segment out, i > j repeats one)."""
    if kind == "truncate":
        return blob[:i]
    if kind == "flip":
        out = bytearray(blob)
        out[i] ^= 1 << j
        return bytes(out)
    return blob[:i] + blob[j:]


@st.composite
def mutations(draw, name: str):
    n = len(FUZZ_FILES[name])
    kind = draw(st.sampled_from(["truncate", "flip", "splice"]))
    i = draw(st.integers(0, n - 1))
    j = draw(st.integers(0, 7 if kind == "flip" else n))
    return kind, i, j


def rejected(load, path) -> bool:
    """Load the file; True if the loader rejected it with a message."""
    try:
        load(path)
    except ValueError as e:
        assert str(e), "rejected without a message"
        return True
    return False


def assert_certificates_match_oracle(s: np.ndarray, layers) -> None:
    h, w, _ = s.shape
    regions = enumerate_regions(h, w, min(2, h), min(2, w))
    masks = [dependency_region(r, layers, h, w).as_mask(h, w) for r in regions]
    got = certify.certify_sum(s, 0, regions, layers).certified_sum
    assert got == brute_force_certified(s, 0, masks)


class TestByteFuzz:
    """Each case must fail to load with a ValueError that says why, or load
    into arrays that pass the format's checks and whose certificates agree
    with the brute-force oracle."""

    @pytest.fixture(scope="class")
    def path(self, tmp_path_factory):
        return tmp_path_factory.mktemp("fuzz") / "file"

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(m=mutations("checkpoint"))
    def test_checkpoint(self, path, m):
        path.write_bytes(mutate(FUZZ_FILES["checkpoint"], *m))
        if rejected(model.load_checkpoint, path):
            return
        params, spec, _ = model.load_checkpoint(path)
        x = np.random.default_rng(0).random(spec.input_shape, dtype=np.float32)
        s = certify.validate_score_map(model.forward(params, spec, x)[1].data[0])
        assert_certificates_match_oracle(s, spec.layer_geom())

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(m=mutations("blob"))
    def test_score_map_blob(self, path, m):
        path.write_bytes(mutate(FUZZ_FILES["blob"], *m))
        if rejected(certify.load_score_maps, path):
            return
        for s in certify.load_score_maps(path):
            assert s.dtype == np.uint8 and s.max(initial=0) <= 1
            if s.size:
                assert_certificates_match_oracle(s, [LayerGeom(3), LayerGeom(1)])

    @settings(max_examples=120, deadline=None, database=None, derandomize=True)
    @given(m=mutations("records"))
    def test_cifar_records(self, path, m):
        path.parent.joinpath(data.CIFAR_TEST_FILE).write_bytes(
            mutate(FUZZ_FILES["records"], *m))
        load = lambda d: data.load_cifar10_split(d, "test")  # noqa: E731
        if rejected(load, path.parent):
            return
        ds = load(path.parent)
        assert ds.images.shape[1:] == (32, 32, 3) and ds.images.dtype == np.float32
        assert 0.0 <= ds.images.min() and ds.images.max() <= 1.0
        assert len(ds) * 3073 == len(mutate(FUZZ_FILES["records"], *m))
        assert ((0 <= ds.labels) & (ds.labels < 10)).all()

    @pytest.mark.parametrize("cmd, key, name, m", [
        ("certify", "certify.checkpoint", "checkpoint", ("truncate", 2, 0)),
        ("certify", "certify.checkpoint", "checkpoint", ("truncate", 600, 0)),
        ("certify", "certify.checkpoint", "checkpoint", ("flip", 0, 1)),
        ("certify", "certify.checkpoint", "checkpoint", ("flip", 4, 0)),
        ("certify", "certify.checkpoint", "checkpoint", ("splice", 40, 60)),
        ("certify", "certify.checkpoint", "checkpoint", ("splice", 600, 500)),
        ("bench", "bench.blob", "blob", ("truncate", 10, 0)),
        ("bench", "bench.blob", "blob", ("truncate", 100, 0)),
        ("bench", "bench.blob", "blob", ("flip", 2, 3)),
        ("bench", "bench.blob", "blob", ("flip", 20, 1)),
        ("bench", "bench.blob", "blob", ("splice", 50, 40)),
    ])
    def test_cli_exits_1(self, tmp_path, capsys, cmd, key, name, m):
        path = tmp_path / name
        path.write_bytes(mutate(FUZZ_FILES[name], *m))
        code = main([cmd, "--out", str(tmp_path / "o"), "--set", f"{key}={path}",
                     "--set", "bench.repetitions=1", "--set", "data.eval_n_per_class=2"])
        err = capsys.readouterr().err
        assert code == 1 and err.startswith("config error: ") and len(err) > 20, err
