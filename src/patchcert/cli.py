"""Command-line entry point: train | certify | attack | bench.

Configs are INI files (section.key), overridable with repeated --set flags;
precedence is CLI > file > defaults. Every run writes a manifest.json with the
fully resolved configuration.
"""

from __future__ import annotations

import argparse
import configparser
import os
import statistics
import sys
import time
from dataclasses import replace
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import attack as attack_mod
from . import certify, data, geometry, model, runio, train as train_mod


class ConfigError(ValueError):
    """Invalid configuration or unusable input; maps to exit code 1."""


DEFAULTS: Dict[str, Dict] = {
    "data": {
        "source": "synth",        # synth | cifar10
        "n_per_class": 200,
        "height": 16,
        "width": 16,
        "cifar_dir": "",
        "eval_n_per_class": 100,
        "eval_seed_offset": 1,    # synth evaluation data uses seed + offset
    },
    "model": {
        "rf": 5,
        "width": 64,
        "classes": 0,             # 0 = derive from the data source
        "activation": "heaviside_st",
    },
    "train": {
        "margin": 0.5,
        "sigma": 0.0,
        "lr": 0.001,
        "batch_size": 32,
        "epochs": 30,
        "warmup_epochs": 3,
        "augment": True,
        "holdout_fraction": 0.1,
        "eval_patch": "3x3",
    },
    "certify": {
        "checkpoint": "",
        "patches": "3x3",
        "condition": "all",       # 1 | 2 | 3 | all
        "limit": 0,               # 0 = whole split
    },
    "attack": {
        "checkpoint": "",
        "patch": "3x3",
        "steps": 100,
        "step_size": 0.025,
        "limit": 0,
    },
    "bench": {
        "n_maps": 10000,
        "height": 32,
        "width": 32,
        "classes": 10,
        "patch": "5x5",
        "small_patch": "16x16",   # second region set for the |L|-independence report
        "rf": 5,
        "repetitions": 5,
        "blob": "",
    },
}


def _coerce(section: str, key: str, raw: str):
    try:
        default = DEFAULTS[section][key]
    except KeyError:
        raise ConfigError(f"unknown config key {section}.{key}")
    if isinstance(default, bool):
        low = raw.strip().lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"{section}.{key} expects a boolean, got {raw!r}")
    try:
        if isinstance(default, int):
            return int(raw)
        if isinstance(default, float):
            return float(raw)
    except ValueError:
        raise ConfigError(f"{section}.{key} expects {type(default).__name__}, got {raw!r}")
    return raw


def resolve_config(config_path: Optional[str], overrides: Sequence[str]) -> Dict[str, Dict]:
    config = {s: dict(v) for s, v in DEFAULTS.items()}
    if config_path:
        if not os.path.isfile(config_path):
            raise ConfigError(f"config file not found: {config_path}")
        parser = configparser.ConfigParser()
        parser.read(config_path)
        for section in parser.sections():
            if section not in config:
                raise ConfigError(f"unknown config section [{section}]")
            for key, raw in parser.items(section):
                config[section][key] = _coerce(section, key, raw)
    for item in overrides:
        if "=" not in item or "." not in item.split("=", 1)[0]:
            raise ConfigError(f"--set expects section.key=value, got {item!r}")
        dotted, raw = item.split("=", 1)
        section, key = dotted.split(".", 1)
        if section not in config:
            raise ConfigError(f"unknown config section {section!r} in --set")
        config[section][key] = _coerce(section, key, raw)
    return config


def _parse_patch(text: str) -> Tuple[int, int]:
    try:
        h, w = text.lower().split("x")
        return int(h), int(w)
    except ValueError:
        raise ConfigError(f"patch spec must look like 5x5, got {text!r}")


def _parse_patches(text: str) -> List[Tuple[int, int]]:
    return [_parse_patch(part) for part in text.split(",") if part.strip()]


def _resolve_dataset(config: Dict, seed: int, split: str) -> data.DatasetHandle:
    """The "train" or "eval" split of the configured data source."""
    d = config["data"]
    if d["source"] == "synth":
        if split == "train":
            return data.synth_textures(d["n_per_class"], d["height"], d["width"], seed)
        return data.synth_textures(d["eval_n_per_class"], d["height"], d["width"],
                                   seed + d["eval_seed_offset"], split="eval")
    if d["source"] == "cifar10":
        if not d["cifar_dir"]:
            raise ConfigError("data.cifar_dir must point at the CIFAR-10 binary batches")
        try:
            return data.load_cifar10_split(d["cifar_dir"],
                                           "train" if split == "train" else "test")
        except ValueError as e:
            raise ConfigError(str(e))
    raise ConfigError(f"unknown data source {d['source']!r}")


def _eval_split(config: Dict, seed: int, spec: model.NetworkSpec,
                limit: int) -> Tuple[np.ndarray, np.ndarray]:
    """The first `limit` (0 = all) evaluation images and labels, checked
    against the checkpoint's input shape and class count."""
    dataset = _resolve_dataset(config, seed, "eval")
    if dataset.image_shape != tuple(spec.input_shape):
        raise ConfigError(f"dataset images {dataset.image_shape} do not match the "
                          f"checkpoint input {spec.input_shape}")
    limit = limit or len(dataset)
    images = dataset.images[:limit]
    labels = dataset.labels[:limit]
    if len(images) == 0:
        raise ConfigError("evaluation split is empty")
    if labels.max() >= spec.classes:
        raise ConfigError(f"evaluation labels reach {labels.max()} but the checkpoint "
                          f"has {spec.classes} classes")
    return images, labels


def _build_spec(config: Dict, dataset: data.DatasetHandle) -> model.NetworkSpec:
    m = config["model"]
    classes = m["classes"]
    if classes <= 0:
        classes = 2 if config["data"]["source"] == "synth" else 10
    try:
        return model.cifar_spec(m["rf"], input_shape=dataset.image_shape,
                                width=m["width"], classes=classes,
                                activation=m["activation"])
    except ValueError as e:
        raise ConfigError(str(e))


def _load_checkpoint(path: str):
    if not path:
        raise ConfigError("no checkpoint configured (set certify.checkpoint / "
                          "attack.checkpoint)")
    if not os.path.isfile(path):
        raise ConfigError(f"checkpoint not found: {path}")
    return model.load_checkpoint(path)


# ---------------------------------------------------------------------------
# subcommands

def cmd_train(out_dir: str, config: Dict, seed: int) -> int:
    dataset = _resolve_dataset(config, seed, "train")
    spec = _build_spec(config, dataset)
    t = config["train"]
    try:
        train_config = train_mod.TrainConfig(
            margin=t["margin"], one_hot_weight=t["sigma"], lr=t["lr"],
            batch_size=t["batch_size"], epochs=t["epochs"],
            warmup_epochs=t["warmup_epochs"], seed=seed,
            activation=config["model"]["activation"], augment=t["augment"],
            holdout_fraction=t["holdout_fraction"],
            eval_patch=_parse_patch(t["eval_patch"]))
    except ValueError as e:
        raise ConfigError(str(e))
    result = train_mod.train(train_config, dataset, spec)
    runio.write_csv(os.path.join(out_dir, "metrics.csv"),
                    train_mod.MetricsLog.CSV_HEADER, result.metrics.rows())
    model.save_checkpoint(result.params, result.spec,
                          os.path.join(out_dir, "checkpoint.pckp"), step=result.step)
    if result.metrics.epochs:
        last = result.metrics.epochs[-1]
        print(f"epoch {last.epoch}: clean {last.clean_acc:.4f} "
              f"cert3.2 {last.cert32_acc:.4f} cert3.3 {last.cert33_acc:.4f}")
    if result.metrics.diverged:
        print("training diverged; wrote the last finite checkpoint", file=sys.stderr)
        return 2
    return 0


DETAIL_HEADER = ("index", "label", "pred", "cert_31", "cert_32", "cert_33",
                 "min_slack", "lim_top", "lim_left")
SUMMARY_HEADER = ("patch_h", "patch_w", "condition", "n", "n_certified", "cert_acc")


def cmd_certify(out_dir: str, config: Dict, seed: int) -> int:
    c = config["certify"]
    params, spec, _ = _load_checkpoint(c["checkpoint"])
    images, labels = _eval_split(config, seed, spec, c["limit"])
    condition = str(c["condition"])
    if condition not in ("1", "2", "3", "all"):
        raise ConfigError(f"condition must be one of 1|2|3|all, got {condition!r}")
    relaxed = spec.activation != "heaviside_st"
    if relaxed and condition in ("1", "all"):
        raise ConfigError("the generic condition needs a binary head; "
                          "use condition 2 or 3 for relaxed checkpoints")

    patches = _parse_patches(c["patches"])
    if not patches:
        raise ConfigError("no patch shapes configured")
    h_in, w_in, _ = spec.input_shape
    layers = spec.layer_geom()
    maps = model.forward_maps(params, spec, images, 128)
    summary_rows = []
    for ph, pw in patches:
        try:
            regions = geometry.enumerate_regions(h_in, w_in, ph, pw)
        except ValueError as e:
            raise ConfigError(str(e))
        rects = geometry.dependency_rects(regions, layers, h_in, w_in)
        rmax = int(rects[4].max())
        n = len(images)
        detail = []
        flags: Dict[str, np.ndarray] = {}
        if relaxed:
            cert_s, cert_c, pred = certify.certify_batch_relaxed(maps, labels, rects, rmax)
            flags["2"], flags["3"] = cert_s, cert_c
            for i in range(n):
                detail.append([i, int(labels[i]), int(pred[i]), "",
                               int(cert_s[i]), int(cert_c[i]), "", "", ""])
        else:
            batch = certify.certify_batch(maps.astype(np.uint8), labels, rects, rmax)
            flags["2"], flags["3"] = batch.certified_sum, batch.certified_cheap
            gen = np.zeros(n, dtype=bool)
            if condition in ("1", "all"):
                for i in range(n):
                    res = certify.certify_generic(maps[i].astype(np.uint8),
                                                  int(labels[i]), regions, layers)
                    gen[i] = bool(res.certified_generic)
                flags["1"] = gen
            for i in range(n):
                lim = regions[int(batch.limiting_index[i])]
                detail.append([
                    i, int(labels[i]), int(batch.predicted[i]),
                    int(gen[i]) if condition in ("1", "all") else "",
                    int(batch.certified_sum[i]), int(batch.certified_cheap[i]),
                    int(batch.margin_sum[i]), lim.top, lim.left])
            if condition == "all":
                nested = ((~flags["3"] | flags["2"]) & (~flags["2"] | flags["1"])).all()
                if not nested:
                    raise RuntimeError(
                        f"condition nesting violated on patch {ph}x{pw}: "
                        "3.3 must imply 3.2 must imply 3.1")
        runio.write_csv(os.path.join(out_dir, f"certify_detail_{ph}x{pw}.csv"),
                        DETAIL_HEADER, detail)
        wanted = ("1", "2", "3") if condition == "all" else (condition,)
        for cond in wanted:
            if cond not in flags:
                continue
            k = int(flags[cond].sum())
            summary_rows.append([ph, pw, f"3.{cond}", n, k, f"{k / n:.6f}"])
            print(f"patch {ph}x{pw} condition 3.{cond}: {k}/{n} certified "
                  f"({k / n:.4f})")
    runio.write_csv(os.path.join(out_dir, "certify_summary.csv"),
                    SUMMARY_HEADER, summary_rows)
    return 0


ATTACK_HEADER = ("index", "true_label", "target", "l_top", "l_left", "success",
                 "clean_pred", "adv_pred", "steps_used")
AGGREGATE_HEADER = ("n", "clean_acc", "adversarial_acc", "certified_acc")


def cmd_attack(out_dir: str, config: Dict, seed: int) -> int:
    a = config["attack"]
    params, spec, _ = _load_checkpoint(a["checkpoint"])
    if spec.activation != "heaviside_st":
        raise ConfigError("the patch attack drives the straight-through head; "
                          "attack a heaviside_st checkpoint")
    images, labels = _eval_split(config, seed, spec, a["limit"])
    ph, pw = _parse_patch(a["patch"])
    try:
        base = attack_mod.AttackConfig(patch_h=ph, patch_w=pw, steps=a["steps"],
                                       step_size=a["step_size"], seed=seed)
    except ValueError as e:
        raise ConfigError(str(e))

    h_in, w_in, _ = spec.input_shape
    layers = spec.layer_geom()
    try:
        regions = geometry.enumerate_regions(h_in, w_in, ph, pw)
    except ValueError as e:
        raise ConfigError(str(e))
    rects = geometry.dependency_rects(regions, layers, h_in, w_in)
    rmax = int(rects[4].max())
    maps = model.forward_maps(params, spec, images, 128).astype(np.uint8)
    batch = certify.certify_batch(maps, labels, rects, rmax)

    results = [attack_mod.pgd_patch_attack(params, spec, images[i], int(labels[i]),
                                           replace(base, seed=seed + i))
               for i in range(len(images))]

    rows = []
    for i, res in enumerate(results):
        rows.append([i, int(labels[i]), res.target, res.region.top, res.region.left,
                     int(res.success), res.clean_pred, res.adv_pred, res.steps_used])
        if batch.certified_sum[i] and res.success:
            raise RuntimeError(
                f"attack succeeded on an example certified for {ph}x{pw} patches "
                f"(index {i}); certification is unsound")
    runio.write_csv(os.path.join(out_dir, "attack_detail.csv"), ATTACK_HEADER, rows)

    n = len(images)
    clean_acc = float((batch.predicted == labels).mean())
    adv_acc = float(np.mean([res.adv_pred == int(labels[i])
                             for i, res in enumerate(results)]))
    cert_acc = float(batch.certified_sum.mean())
    runio.write_csv(os.path.join(out_dir, "attack_summary.csv"), AGGREGATE_HEADER,
                    [[n, f"{clean_acc:.6f}", f"{adv_acc:.6f}", f"{cert_acc:.6f}"]])
    print(f"clean {clean_acc:.4f}  adversarial {adv_acc:.4f}  certified(3.2) {cert_acc:.4f}")
    if cert_acc > adv_acc:
        raise RuntimeError("certified accuracy exceeds adversarial accuracy; "
                           "certification is unsound")
    return 0


BENCH_HEADER = ("condition", "n_maps", "n_regions", "repetitions",
                "median_seconds", "seconds_per_10k")


def cmd_bench(out_dir: str, config: Dict, seed: int) -> int:
    b = config["bench"]
    if b["repetitions"] < 1:
        raise ConfigError("bench needs at least one repetition")
    if b["blob"]:
        if not os.path.isfile(b["blob"]):
            raise ConfigError(f"score-map blob not found: {b['blob']}")
        loaded = certify.load_score_maps(b["blob"])
        shapes = {m.shape for m in loaded}
        if len(shapes) != 1:
            raise ConfigError("bench blob must contain uniformly-shaped maps")
        maps = np.stack(loaded)
    else:
        rng = np.random.default_rng(seed)
        maps = rng.integers(0, 2, size=(b["n_maps"], b["height"], b["width"],
                                        b["classes"]), dtype=np.uint8)
    n, h, w, c = maps.shape
    rng = np.random.default_rng(seed + 1)
    labels = rng.integers(0, c, size=n)

    try:
        layers = model.cifar_spec(b["rf"]).layer_geom()
    except ValueError as e:
        raise ConfigError(str(e))

    rows = []

    def run(cond: str, patch: Tuple[int, int]):
        ph, pw = patch
        regions = geometry.enumerate_regions(h, w, ph, pw)
        rects = geometry.dependency_rects(regions, layers, h, w)
        rmax = int(rects[4].max())
        times = []
        for _ in range(b["repetitions"]):
            t0 = time.perf_counter()
            if cond == "3.2":
                certify.certify_batch(maps, labels, rects, rmax)
            else:
                certify.certify_batch_cheap(maps, labels, rmax)
            times.append(time.perf_counter() - t0)
        med = statistics.median(times)
        rows.append([cond, n, len(regions), b["repetitions"],
                     f"{med:.6f}", f"{med * 10000 / n:.6f}"])
        print(f"condition {cond} |L|={len(regions)}: median {med:.4f}s "
              f"({med * 10000 / n:.4f}s per 10k maps)")
        return med

    main_patch = _parse_patch(b["patch"])
    small_patch = _parse_patch(b["small_patch"])
    run("3.2", main_patch)
    run("3.2", small_patch)
    run("3.3", main_patch)
    run("3.3", small_patch)
    runio.write_csv(os.path.join(out_dir, "bench.csv"), BENCH_HEADER, rows)
    return 0


# ---------------------------------------------------------------------------

COMMANDS = {"train": cmd_train, "certify": cmd_certify,
            "attack": cmd_attack, "bench": cmd_bench}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="patchcert",
        description="Train, certify, attack, and benchmark patch-robust "
                    "region-scoring classifiers.")
    sub = parser.add_subparsers(dest="cmd", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", default=None, help="INI config file")
        p.add_argument("--out", default="runs", help="output directory")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--set", action="append", default=[], metavar="SECTION.KEY=VALUE",
                       help="override a config value (repeatable)")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        config = resolve_config(args.config, args.set)
        os.makedirs(args.out, exist_ok=True)
        runio.write_manifest(args.out, args.cmd, config, args.seed)
        return COMMANDS[args.cmd](args.out, config, args.seed)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return 1
    except Exception as e:  # runtime failures map to exit code 2
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
