"""Heuristic patch attack: pick the region and target class with the weakest
outside vote margin, then run sign-gradient PGD on the patch pixels."""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from typing import List, Sequence, Tuple

import numpy as np

from . import certify, core, geometry, model
from .core import GradTape, Tensor
from .geometry import LayerGeom, PatchRegion, dependency_rects, validate_region
from .model import NetworkSpec, Parameters


@dataclass(frozen=True)
class AttackConfig:
    patch_h: int = 5
    patch_w: int = 5
    steps: int = 100
    step_size: float = 0.025
    margin: float = 1.0
    seed: int = 0

    def __post_init__(self):
        if self.steps < 1:
            raise ValueError("attack.steps: attack needs at least one step")
        if not (math.isfinite(self.step_size) and self.step_size > 0.0):
            raise ValueError(
                f"attack.step_size must be finite and > 0, got {self.step_size}")
        if self.patch_h < 1 or self.patch_w < 1:
            raise ValueError("attack.patch: patch must be at least 1x1")


@dataclass
class AttackResult:
    region: PatchRegion
    target: int
    patch: np.ndarray        # (h_p, w_p, c) in [0,1]
    adversarial: np.ndarray  # (h, w, c)
    success: bool            # prediction after the attack differs from the label
    clean_pred: int
    adv_pred: int
    loss_trace: List[float] = field(default_factory=list)
    steps_used: int = 0


def apply_patch(x: np.ndarray, p: np.ndarray, region: PatchRegion) -> np.ndarray:
    """Overwrite the region of x with p; everything else is untouched."""
    x = np.asarray(x)
    p = np.asarray(p)
    h, w, c = x.shape
    validate_region(region, h, w)
    if p.shape != (region.height, region.width, c):
        raise ValueError(
            f"patch shape {p.shape} does not match region "
            f"{region.height}x{region.width}x{c}")
    if p.min() < 0.0 or p.max() > 1.0:
        raise ValueError("patch values must lie in [0,1]")
    out = x.copy()
    out[region.top:region.top + region.height,
        region.left:region.left + region.width, :] = p
    return out


def select_region_and_target(s: np.ndarray, c_t: int,
                             regions: Sequence[PatchRegion],
                             layers: Sequence[LayerGeom]) -> Tuple[PatchRegion, int]:
    """argmin over feasible regions and rival classes of the delta votes
    outside the dependency rectangle; ties break by region order, then class
    index. Computed for all pairs at once from the (C, L) outside class sums."""
    s = certify.validate_score_map(s)
    if len(regions) == 0:
        raise ValueError("region set must be non-empty")
    h, w, c = s.shape
    if c < 2:
        raise ValueError("need at least 2 classes to pick a target")
    labels = certify.validate_labels([c_t], 1, c)
    rects = dependency_rects(regions, layers, h, w)
    _, outside = certify.outside_sums(s[None], _factors(rects, h, w))
    (lim,), (target,) = _weakest(outside, labels)
    return regions[lim], int(target)


def _factors(rects: Tuple[np.ndarray, ...], h: int, w: int) -> certify.IntervalFactors:
    return certify.interval_factors(rects, h, w, certify.exact_sum_dtype(h, w))


def _weakest(outside: np.ndarray, labels: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Per map of (n, C, L) outside class sums, the first region holding the
    smallest delta votes of any rival, then that region's first such rival."""
    rows = np.arange(len(labels))
    gaps = outside[rows, labels][:, None].astype(np.int64) - outside
    gaps[rows, labels] = np.iinfo(np.int64).max
    lim = gaps.min(axis=1).argmin(axis=1)
    return lim, gaps[rows, :, lim].argmin(axis=1)


# Images per PGD batch, read at each call; measured only at width 64 on a
# 2-vCPU Xeon VM. At 16x16 inputs and rf5 (quickstart checkpoint, attack
# command on 200 images x 10 steps in a fresh process), 8 ran 411
# image-steps/s at 5x5 and 563 at 3x3. 4 ran about 20% slower, from per-call
# overhead. 16 to 64 ran 15-30% slower: glibc returned their larger step
# temporaries to the OS and faulted them in again, about 590k minor page
# faults per command against 23k. At 32x32 inputs (random weights, 64 images
# x 5 steps at 5x5) 8 already crosses that line: it ran about 10% slower than
# 4 at rf7 and 20% slower at rf13, with 10-15x the page faults.
ATTACK_CHUNK = 8


def pgd_patch_attack(params: Parameters, spec: NetworkSpec, images: np.ndarray,
                     clean_maps: np.ndarray, labels, config: AttackConfig) -> List[AttackResult]:
    """Fixed-region, fixed-target PGD on a batch of (n, h, w, c) images:
    ascend each image's margin-loss objective with respect to its patch
    pixels only, stepping by sign(grad) and clipping to [0,1]. Gradients
    reach the patch through the straight-through head. `clean_maps` are the
    binary score maps of the images under the same model. Image i's patch
    starts from seed config.seed + i. Every step runs one taped forward and
    one backward over all images, ATTACK_CHUNK at a time.

    The patch changes only the votes inside its dependency region R(l), and
    those read only the input within rf-1 pixels of the patch. So each step
    runs on a crop: the objective is the clean votes outside R(l), which are
    fixed, plus the crop's votes inside R(l). Every crop has the same size,
    min(patch + 2(rf-1), input) per axis, so the images stack into one batch;
    near an image edge the window shifts inside the image instead of being
    clipped. Each crop edge is then an image edge or lies rf-1 pixels or more
    from the patch, so every output in R(l) lies rf//2 pixels or more inside
    an interior crop edge and sees exactly what it sees in the full image."""
    images = np.asarray(images, dtype=np.float32)
    clean_maps = certify.validate_score_map(clean_maps, 4)
    n = len(images)
    h_in, w_in, c_in = spec.input_shape
    h_out, w_out, _ = spec.output_shape()
    if images.shape[1:] != (h_in, w_in, c_in) or \
            clean_maps.shape != (n, h_out, w_out, spec.classes):
        raise ValueError(f"images {images.shape} and clean maps {clean_maps.shape} do not "
                         f"match spec {spec.input_shape} -> {(h_out, w_out, spec.classes)}")
    labels = certify.validate_labels(labels, n, spec.classes)
    regions = geometry.enumerate_regions(h_in, w_in, config.patch_h, config.patch_w)
    rects = dependency_rects(regions, spec.layer_geom(), h_in, w_in)
    factors = _factors(rects, h_out, w_out)
    results: List[AttackResult] = []
    for lo in range(0, n, ATTACK_CHUNK):
        part = slice(lo, lo + ATTACK_CHUNK)
        results += _attack_batch(params, spec, images[part], clean_maps[part], labels[part],
                                 replace(config, seed=config.seed + lo), regions, rects,
                                 factors)
    return results


def _attack_batch(params: Parameters, spec: NetworkSpec, x: np.ndarray, maps: np.ndarray,
                  labels: np.ndarray, config: AttackConfig, regions: Sequence[PatchRegion],
                  rects: Tuple[np.ndarray, ...],
                  factors: certify.IntervalFactors) -> List[AttackResult]:
    """pgd_patch_attack on one batch of checked inputs."""
    n = len(x)
    h_in, w_in, c_in = spec.input_shape
    h_out, w_out, _ = spec.output_shape()
    rows = np.arange(n)
    total, outside = certify.outside_sums(maps, factors)
    lim, target = _weakest(outside, labels)
    # (n, C) votes the patch cannot move
    fixed = Tensor(outside[rows, :, lim].astype(np.float32))

    ph, pw = config.patch_h, config.patch_w
    reach = geometry.receptive_field(spec.layer_geom(), h_in, w_in).rf_h - 1
    ch, cw = min(ph + 2 * reach, h_in), min(pw + 2 * reach, w_in)
    p_top = np.array([regions[k].top for k in lim])
    p_left = np.array([regions[k].left for k in lim])
    top = np.clip(p_top - reach, 0, h_in - ch)
    left = np.clip(p_left - reach, 0, w_in - cw)
    crops = np.stack([x[i, t:t + ch, l:l + cw] for i, t, l in zip(rows, top, left)])
    crop_spec = replace(spec, input_shape=(ch, cw, c_in))
    # the patch pixels of each crop, as an index of the (n, ch, cw, c) stack
    at = (rows[:, None, None], (p_top - top)[:, None, None] + np.arange(ph)[:, None],
          (p_left - left)[:, None, None] + np.arange(pw))
    # stride 1: output (i, j) sits on pixel (i, j), so R(l) shifts with the crop
    r0, r1, c0, c1 = (v[lim][:, None] for v in rects[:4])
    in_rows, in_cols = np.arange(ch) + top[:, None], np.arange(cw) + left[:, None]
    window = (((in_rows >= r0) & (in_rows < r1))[:, :, None]
              & ((in_cols >= c0) & (in_cols < c1))[:, None, :])

    patch = np.stack([np.random.default_rng(config.seed + i).random((ph, pw, c_in),
                                                                   dtype=np.float32)
                      for i in range(n)])
    area = float(h_out * w_out)
    trace = np.empty((config.steps, n), dtype=np.float32)
    for step in range(config.steps):
        adv_data = crops.copy()
        adv_data[at] = patch
        adv = Tensor(adv_data)
        tape = GradTape()
        _, scores = model.forward(params, crop_spec, adv, "heaviside_st", tape=tape)
        sums = core.add(fixed, core.class_sums(scores, window, tape=tape), tape=tape)
        loss = _target_margin_loss(sums, labels, target, area, config.margin, tape)
        trace[step] = loss.data
        g = tape.gradients(loss, [adv])[id(adv)]
        if g is None:
            g = np.zeros_like(adv.data)
        if not np.isfinite(g).all():
            raise RuntimeError(f"attack gradient became non-finite at step {step}")
        patch = np.clip(patch + config.step_size * np.sign(g[at]), 0.0, 1.0).astype(np.float32)

    adversarial = np.stack([apply_patch(x[i], patch[i], regions[k]) for i, k in enumerate(lim)])
    _, adv_scores = model.forward(params, spec, adversarial, "heaviside_st")
    results = []
    for i, k in enumerate(lim):
        adv_pred, _ = certify.classify(adv_scores.data[i])
        results.append(AttackResult(
            region=regions[k], target=int(target[i]), patch=patch[i],
            adversarial=adversarial[i], success=bool(adv_pred != labels[i]),
            clean_pred=int(total[i].argmax()), adv_pred=adv_pred,
            loss_trace=trace[:, i].tolist(), steps_used=config.steps))
    return results


def _target_margin_loss(sums: Tensor, c_t: np.ndarray, target: np.ndarray, area: float,
                        margin: float, tape: GradTape) -> Tensor:
    """Per-image margin loss on the fixed target classes, (n,):
    -min((S_ct - S_c*)/area, M)."""
    rows = np.arange(len(c_t))
    u = (sums.data[rows, c_t] - sums.data[rows, target]) / area
    clamped = u >= margin
    out = Tensor(np.asarray(-np.where(clamped, margin, u), dtype=sums.dtype))

    def backward(g):
        gs = np.zeros_like(sums.data)
        live = ~clamped
        gs[rows[live], c_t[live]] = -g[live] / area
        gs[rows[live], target[live]] = g[live] / area
        return (gs,)

    tape.record(out, (sums,), backward)
    return out
