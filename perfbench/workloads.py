"""The four benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one
operation per ``run_op`` (a CLI command, or a round of library calls for
``certify_maps``) and verifies that operation's outputs in ``check``.
Only ``run_op`` is timed as work; ``setup`` is timed as set-up.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import math
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from patchcert import certify, cli, data, geometry, model, train

import oracle

QUICKSTART = os.path.join("configs", "synth_quickstart.ini")

EPOCHS = 2                # train_desk commands and the set-up checkpoint; at 5x5
                          # about 70% of the eval split is certified after 2 epochs
WARMUP_PER_CLASS = 32     # train_desk set-up: two warm-up training steps
CERT_ACC_PATCH = (5, 5)   # train_cert_acc: the desk model saturates at 3x3
ATTACK_PATCH = "5x5"      # about 70% certified on the set-up checkpoint
ATTACK_IMAGES = 8
ATTACK_STEPS = 10
MAPS_N = 10000
MAPS_SHAPE = (32, 32, 10)
MAPS_RF = 5
MAPS_PATCH = (5, 5)       # |L| = 784 on 32x32
RELAXED_N = 1000          # float64 maps are 8x the bytes of binary ones
ORACLE_SAMPLE = 16        # examples per check re-derived by the oracle


@dataclass
class Op:
    """One timed operation and what its check needs."""

    seconds: float        # wall time of the whole operation
    items: int            # work items of the workload's headline path
    item_seconds: float   # time of the headline path
    calls: int            # CLI commands or library calls, each checked
    outputs: Dict = field(default_factory=dict)
    extra: Dict[str, float] = field(default_factory=dict)  # further rates


def sha256_file(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as f:
        h.update(f.read())
    return h.hexdigest()


def sha256_arrays(*arrays) -> str:
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def read_csv(path: str) -> List[Dict[str, str]]:
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def forward_maps(params, spec, images, batch: int = 128) -> np.ndarray:
    """Binary score maps, batched as the certify and attack commands batch."""
    out = [model.forward(params, spec, images[lo:lo + batch], spec.activation)[1].data
           for lo in range(0, len(images), batch)]
    return np.concatenate(out).astype(np.uint8)


def run_cli(argv: List[str]):
    """Run one CLI command in this process; returns (exit code, seconds, stdout)."""
    buf = io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
    except SystemExit as e:  # argparse rejects the command line
        rc = e.code if isinstance(e.code, int) else 2
    return rc, time.perf_counter() - t0, buf.getvalue()


def fixed_sample(seed: int, n: int, k: int) -> np.ndarray:
    return np.sort(np.random.default_rng(seed + 7).choice(n, size=min(k, n), replace=False))


class Workload:
    name = ""
    item_metric = ""   # what items_per_s is called on this workload
    item_unit = ""

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.digests: Dict[str, List[str]] = {}
        self.quality: Dict[str, List[float]] = {}

    def note_digest(self, key: str, value: str) -> None:
        self.digests.setdefault(key, []).append(value)

    def note_quality(self, key: str, value: float) -> None:
        self.quality.setdefault(key, []).append(value)

    def setup(self, index: int) -> None:
        raise NotImplementedError

    def run_op(self) -> Op:
        raise NotImplementedError

    def check(self, op: Op) -> List[str]:
        raise NotImplementedError


class _Desk(Workload):
    """Shared quickstart inputs: config, eval split and oracle regions."""

    def _desk_inputs(self):
        self.config = cli.resolve_config(QUICKSTART, [])
        d, m = self.config["data"], self.config["model"]
        self.eval = data.synth_textures(d["eval_n_per_class"], d["height"], d["width"],
                                        self.seed + d["eval_seed_offset"], split="eval")
        self.rf = m["rf"]
        self.out = os.path.join(self.workdir, "out")
        os.makedirs(self.out, exist_ok=True)

    def _oracle_regions(self, patch):
        h, w, _ = self.eval.image_shape
        return oracle.rects(h, w, patch[0], patch[1], self.rf)

    def _train_checkpoint(self, n_per_class: int, epochs: int, path: str) -> None:
        """Train on the quickstart settings through the public train API and
        save the result."""
        d, m, t = self.config["data"], self.config["model"], self.config["train"]
        train_ds = data.synth_textures(n_per_class, d["height"], d["width"], self.seed)
        spec = model.cifar_spec(m["rf"], input_shape=train_ds.image_shape,
                                width=m["width"], classes=2, activation=m["activation"])
        ph, pw = (int(v) for v in t["eval_patch"].split("x"))
        config = train.TrainConfig(
            margin=t["margin"], one_hot_weight=t["sigma"], lr=t["lr"],
            batch_size=t["batch_size"], epochs=epochs, warmup_epochs=0,
            seed=self.seed, activation=m["activation"], augment=t["augment"],
            holdout_fraction=t["holdout_fraction"], eval_patch=(ph, pw))
        result = train.train(config, train_ds, spec)
        model.save_checkpoint(result.params, result.spec, path, step=result.step)


class TrainDesk(_Desk):
    name = "train_desk"
    item_metric, item_unit = "train_images_per_s", "images/s"

    def setup(self, index: int) -> None:
        self._desk_inputs()
        # A few warm-up training steps, so the first measured command does not
        # pay the process's first-use costs (BLAS threads, allocator growth).
        self._train_checkpoint(WARMUP_PER_CLASS, 1, os.path.join(self.workdir, "warmup.pckp"))
        d, t = self.config["data"], self.config["train"]
        n = 2 * d["n_per_class"]
        self.train_images = EPOCHS * (n - max(1, int(round(t["holdout_fraction"] * n))))
        self.regions = self._oracle_regions(CERT_ACC_PATCH)
        spec = model.cifar_spec(self.rf, input_shape=self.eval.image_shape,
                                width=self.config["model"]["width"], classes=2)
        h, w, _ = self.eval.image_shape
        regions = geometry.enumerate_regions(h, w, *CERT_ACC_PATCH)
        self.rects = geometry.dependency_rects(regions, spec.layer_geom(), h, w)

    def run_op(self) -> Op:
        rc, dt, _ = run_cli(["train", "--config", QUICKSTART, "--out", self.out,
                             "--seed", str(self.seed),
                             "--set", f"train.epochs={EPOCHS}",
                             "--set", "train.warmup_epochs=0"])
        return Op(seconds=dt, items=self.train_images, item_seconds=dt, calls=1,
                  outputs={"rc": rc})

    def check(self, op: Op) -> List[str]:
        if op.outputs["rc"] != 0:
            return [f"train exited with code {op.outputs['rc']}"]
        problems = []
        rows = read_csv(os.path.join(self.out, "metrics.csv"))
        if len(rows) != EPOCHS:
            problems.append(f"metrics.csv has {len(rows)} epochs, expected {EPOCHS}")
        if not all(math.isfinite(float(r["loss"])) for r in rows):
            problems.append("metrics.csv holds a non-finite loss")
        path = os.path.join(self.out, "checkpoint.pckp")
        self.note_digest("train_checkpoint", sha256_file(path))
        params, spec, _ = model.load_checkpoint(path)
        maps = forward_maps(params, spec, self.eval.images)
        labels = self.eval.labels
        batch = certify.certify_batch(maps, labels, self.rects, int(self.rects[4].max()))
        self.note_quality("train_cert_acc", float(batch.certified_sum.mean()))
        for i in fixed_sample(self.seed, len(labels), ORACLE_SAMPLE):
            v = oracle.certify(maps[i], int(labels[i]), self.regions)
            got = (bool(batch.certified_sum[i]), int(batch.margin_sum[i]),
                   int(batch.limiting_index[i]))
            if got != (v.cert_sum, v.margin, v.limiting):
                problems.append(f"eval example {i}: certify_batch gives {got}, "
                                f"oracle {(v.cert_sum, v.margin, v.limiting)}")
        return problems


class _CheckpointWorkload(_Desk):
    """Set-up trains a short-schedule checkpoint through the public train API."""

    def setup(self, index: int) -> None:
        self._desk_inputs()
        path = os.path.join(self.workdir, f"setup{index}.pckp")
        self._train_checkpoint(self.config["data"]["n_per_class"], EPOCHS, path)
        self.checkpoint = path
        self.note_digest("setup_checkpoint", sha256_file(path))
        self._maps = None

    def maps(self) -> np.ndarray:
        """Score maps of the eval split under the set-up checkpoint."""
        if self._maps is None:
            params, spec, _ = model.load_checkpoint(self.checkpoint)
            self._maps = forward_maps(params, spec, self.eval.images)
        return self._maps


class CertifySplit(_CheckpointWorkload):
    name = "certify_split"
    item_metric, item_unit = "certify_examples_per_s", "example-shapes/s"

    def setup(self, index: int) -> None:
        super().setup(index)
        self.patches = [tuple(int(v) for v in p.split("x"))
                        for p in self.config["certify"]["patches"].split(",")]
        self.regions = {p: self._oracle_regions(p) for p in self.patches}

    def run_op(self) -> Op:
        rc, dt, _ = run_cli(["certify", "--config", QUICKSTART, "--out", self.out,
                             "--seed", str(self.seed),
                             "--set", f"certify.checkpoint={self.checkpoint}",
                             "--set", "certify.condition=all"])
        return Op(seconds=dt, items=len(self.eval) * len(self.patches), item_seconds=dt,
                  calls=1, outputs={"rc": rc})

    def check(self, op: Op) -> List[str]:
        if op.outputs["rc"] != 0:
            return [f"certify exited with code {op.outputs['rc']}"]
        problems = []
        maps, labels = self.maps(), self.eval.labels
        n = len(labels)
        summary_path = os.path.join(self.out, "certify_summary.csv")
        summary = {(int(r["patch_h"]), int(r["patch_w"]), r["condition"]): int(r["n_certified"])
                   for r in read_csv(summary_path)}
        self.note_digest("certify_summary.csv", sha256_file(summary_path))
        sample = fixed_sample(self.seed, n, ORACLE_SAMPLE)
        for ph, pw in self.patches:
            path = os.path.join(self.out, f"certify_detail_{ph}x{pw}.csv")
            self.note_digest(os.path.basename(path), sha256_file(path))
            rows = read_csv(path)
            if len(rows) != n:
                problems.append(f"{path}: {len(rows)} rows, expected {n}")
                continue
            flags = {k: np.array([int(r[k]) for r in rows], dtype=bool)
                     for k in ("cert_31", "cert_32", "cert_33")}
            if not ((~flags["cert_33"] | flags["cert_32"])
                    & (~flags["cert_32"] | flags["cert_31"])).all():
                problems.append(f"{ph}x{pw}: 3.3 => 3.2 => 3.1 violated")
            for cond, key in (("3.1", "cert_31"), ("3.2", "cert_32"), ("3.3", "cert_33")):
                if summary.get((ph, pw, cond)) != int(flags[key].sum()):
                    problems.append(f"{ph}x{pw} {cond}: summary disagrees with detail")
            regions = self.regions[(ph, pw)]
            for i in sample:
                v = oracle.certify(maps[i], int(labels[i]), regions)
                lim = regions[v.limiting]
                want = [int(i), int(labels[i]), v.pred, int(v.cert_sum), int(v.cert_sum),
                        int(v.cert_global), v.margin, lim.top, lim.left]
                got = [int(rows[i][k]) for k in cli.DETAIL_HEADER]
                if got != want:
                    problems.append(f"{ph}x{pw} example {i}: csv {got}, oracle {want}")
        return problems


class AttackPGD(_CheckpointWorkload):
    name = "attack_pgd"
    item_metric, item_unit = "attack_image_steps_per_s", "image-steps/s"

    def setup(self, index: int) -> None:
        super().setup(index)
        self.patch = tuple(int(v) for v in ATTACK_PATCH.split("x"))
        self.regions = self._oracle_regions(self.patch)

    def run_op(self) -> Op:
        rc, dt, _ = run_cli(["attack", "--config", QUICKSTART, "--out", self.out,
                             "--seed", str(self.seed),
                             "--set", f"attack.checkpoint={self.checkpoint}",
                             "--set", f"attack.patch={ATTACK_PATCH}",
                             "--set", f"attack.steps={ATTACK_STEPS}",
                             "--set", f"attack.limit={ATTACK_IMAGES}"])
        return Op(seconds=dt, items=ATTACK_IMAGES * ATTACK_STEPS, item_seconds=dt,
                  calls=1, outputs={"rc": rc})

    def check(self, op: Op) -> List[str]:
        if op.outputs["rc"] != 0:
            return [f"attack exited with code {op.outputs['rc']}"]
        problems = []
        path = os.path.join(self.out, "attack_detail.csv")
        self.note_digest("attack_detail.csv", sha256_file(path))
        rows = read_csv(path)
        if [int(r["index"]) for r in rows] != list(range(ATTACK_IMAGES)):
            problems.append(f"attack_detail.csv rows {len(rows)}, expected one per "
                            f"image 0..{ATTACK_IMAGES - 1}")
        maps, labels = self.maps(), self.eval.labels
        for r in rows:
            i = int(r["index"])
            if int(r["steps_used"]) != ATTACK_STEPS:
                problems.append(f"image {i}: {r['steps_used']} steps, expected {ATTACK_STEPS}")
            if int(r["success"]) and i < len(labels) and \
                    oracle.certify(maps[i], int(labels[i]), self.regions).cert_sum:
                problems.append(f"image {i} is certified and was attacked successfully")
        summary = read_csv(os.path.join(self.out, "attack_summary.csv"))
        if len(summary) != 1 or int(summary[0]["n"]) != ATTACK_IMAGES:
            problems.append("attack_summary.csv does not describe the attacked images")
        else:
            self.note_quality("attack_adv_acc", float(summary[0]["adversarial_acc"]))
        return problems


class CertifyMaps(Workload):
    name = "certify_maps"
    item_metric, item_unit = "maps_sum_per_s", "maps/s"

    def setup(self, index: int) -> None:
        rng = np.random.default_rng(self.seed)
        h, w, c = MAPS_SHAPE
        labels = rng.integers(0, c, size=MAPS_N)
        # Each map leans towards its label by its own amount, so the set mixes
        # uncertified maps, 3.2-only certificates and 3.3 certificates.
        p = np.full((MAPS_N, c), 0.5)
        p[np.arange(MAPS_N), labels] += rng.uniform(0.0, 0.35, size=MAPS_N)
        thresholds = np.round(p * 256).astype(np.uint16)[:, None, None, :]
        maps = np.empty((MAPS_N, h, w, c), dtype=np.uint8)
        for lo in range(0, MAPS_N, 1000):
            noise = rng.integers(0, 256, size=(min(1000, MAPS_N - lo), h, w, c), dtype=np.uint8)
            maps[lo:lo + 1000] = noise < thresholds[lo:lo + 1000]
        self.maps, self.labels = maps, labels
        self.relaxed = 0.75 * maps[:RELAXED_N] + 0.25 * rng.random((RELAXED_N, h, w, c))
        spec = model.cifar_spec(MAPS_RF, input_shape=(h, w, 3), classes=c)
        regions = geometry.enumerate_regions(h, w, *MAPS_PATCH)
        self.rects = geometry.dependency_rects(regions, spec.layer_geom(), h, w)
        self.r_max = int(self.rects[4].max())
        self.regions = oracle.rects(h, w, MAPS_PATCH[0], MAPS_PATCH[1], MAPS_RF)

    def run_op(self) -> Op:
        t0 = time.perf_counter()
        batch = certify.certify_batch(self.maps, self.labels, self.rects, self.r_max)
        t1 = time.perf_counter()
        cheap = certify.certify_batch_cheap(self.maps, self.labels, self.r_max)
        t2 = time.perf_counter()
        relaxed = certify.certify_batch_relaxed(self.relaxed, self.labels[:RELAXED_N],
                                                self.rects, self.r_max)
        t3 = time.perf_counter()
        return Op(seconds=t3 - t0, items=MAPS_N, item_seconds=t1 - t0, calls=3,
                  outputs={"batch": batch, "cheap": cheap, "relaxed": relaxed},
                  extra={"maps_cheap_per_s": MAPS_N / (t2 - t1),
                         "maps_relaxed_per_s": RELAXED_N / (t3 - t2)})

    def check(self, op: Op) -> List[str]:
        problems = []
        batch, (cheap_cert, cheap_margin, cheap_pred) = op.outputs["batch"], op.outputs["cheap"]
        self.note_digest("certify_batch", sha256_arrays(
            batch.certified_sum, batch.certified_cheap, batch.margin_sum, batch.limiting_index))
        r0, r1, c0, c1, _ = self.rects
        if [(r.r0, r.r1, r.c0, r.c1) for r in self.regions] != list(zip(r0, r1, c0, c1)):
            problems.append("certify_batch: dependency rectangles differ from the closed form")
        for i in fixed_sample(self.seed, MAPS_N, ORACLE_SAMPLE):
            want = oracle.slice_margins(self.maps[i], int(self.labels[i]), self.regions)
            got = (int(batch.margin_sum[i]), int(batch.limiting_index[i]))
            if got != want:
                problems.append(f"certify_batch: map {i} margin/limit {got}, slicing {want}")
        if (cheap_cert & ~batch.certified_sum).any():
            problems.append("certify_batch_cheap: a 3.3 certificate without 3.2")
        if not (np.array_equal(cheap_margin, batch.margin_cheap)
                and np.array_equal(cheap_pred, batch.predicted)):
            problems.append("certify_batch_cheap disagrees with certify_batch's 3.3 margin")
        rel_sum, rel_cheap, rel_pred = op.outputs["relaxed"]
        if (rel_cheap & ~rel_sum).any():
            problems.append("certify_batch_relaxed: a 3.3 certificate without 3.2")
        k = 256
        as_float = certify.certify_batch_relaxed(self.maps[:k].astype(np.float64),
                                                 self.labels[:k], self.rects, self.r_max)
        if not (np.array_equal(as_float[0], batch.certified_sum[:k])
                and np.array_equal(as_float[1], batch.certified_cheap[:k])
                and np.array_equal(as_float[2], batch.predicted[:k])):
            problems.append("certify_batch_relaxed on binary maps disagrees with certify_batch")
        self.note_quality("maps_cert_sum_frac", float(batch.certified_sum.mean()))
        self.note_quality("maps_cert_cheap_frac", float(batch.certified_cheap.mean()))
        return problems


WORKLOADS = {w.name: w for w in (TrainDesk, CertifySplit, AttackPGD, CertifyMaps)}
