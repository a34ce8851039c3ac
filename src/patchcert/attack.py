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
    if not (p.min() >= 0.0 and p.max() <= 1.0):  # NaN fails too
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
    rivals = outside.copy()
    out_true, rival = certify._split_rival(rivals, labels)
    lim = (out_true - rival).argmin(axis=1)
    return lim, rivals[np.arange(len(labels)), :, lim].argmax(axis=1)


ATTACK_MARGIN = 1.0  # the objective's clamp M on the normalized target margin

# Images per PGD batch, read at each call; measured at width 64 with a 5x5
# patch on a 2-vCPU Xeon VM: pgd_patch_attack in a fresh process, medians
# of 3 runs in image-steps/s for 4 / 8 / 16. 16x16 inputs at rf5 (quickstart
# checkpoint, 200 images x 10 steps): 611 / 864 / 883. 32x32 at rf7
# (random weights, 64 images x 5 steps): 248 / 254 / 255. 32x32 at rf13:
# 73 / 77 / 71. 16 is no faster than 8 within the runs' spread; it takes
# 49k minor page faults per run against 0.2k at 16x16 rf5, and 71k against
# 27k at rf13, where it is slowest. So the value stays 8.
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
    runs on a window: the objective is the clean votes outside R(l), which
    are fixed, plus the window's votes inside R(l). Along each axis the
    window is the patch dilated by rf-1 in the image zero-padded by rf-1, or
    the whole axis where that is not shorter than the image, so the windows
    stack into one batch. The model runs on them with a per-image mask of the
    cells in the image (`model.forward`'s `inside`): along a dilated axis
    every conv runs unpadded and the window shrinks per layer to what later
    layers read; along a whole axis every conv pads. No conv runs on more
    positions than on the whole image, and the loss and the patch gradient
    are the bits a full-image step gives. The final prediction comes from a
    forward of the whole patched image, so the success flag does not rest
    on R(l)."""
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


def _window(start: np.ndarray, length: int, size: int, reach: int) -> np.ndarray:
    """Along one axis of a `size` image, the (n, side) coordinates of each
    window: the patches [start, start + length) dilated by reach, or the
    whole axis where that dilation is not shorter than it."""
    if length + 2 * reach >= size:
        return np.broadcast_to(np.arange(size), (len(start), size))
    return start[:, None] - reach + np.arange(length + 2 * reach)


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
    p_top = np.array([regions[k].top for k in lim])
    p_left = np.array([regions[k].left for k in lim])
    win_rows, win_cols = _window(p_top, ph, h_in, reach), _window(p_left, pw, w_in, reach)
    padded = np.pad(x, ((0, 0), (reach, reach), (reach, reach), (0, 0)))
    windows = padded[rows[:, None, None], reach + win_rows[:, :, None],
                     reach + win_cols[:, None, :]]
    inside = (((win_rows >= 0) & (win_rows < h_in))[:, :, None]
              & ((win_cols >= 0) & (win_cols < w_in))[:, None, :])
    # the patch pixels of each window, as an index of the (n, rows, cols, c) stack
    at = (rows[:, None, None], (p_top - win_rows[:, 0])[:, None, None] + np.arange(ph)[:, None],
          (p_left - win_cols[:, 0])[:, None, None] + np.arange(pw))
    # stride 1: output (i, j) sits on pixel (i, j); an unpadded axis loses
    # reach // 2 cells per side
    out_rows, out_cols = (v if v.shape[1] == size else v[:, reach // 2:-(reach // 2)]
                          for v, size in ((win_rows, h_in), (win_cols, w_in)))
    r0, r1, c0, c1 = (v[lim][:, None] for v in rects[:4])
    votes = (((out_rows >= r0) & (out_rows < r1))[:, :, None]
             & ((out_cols >= c0) & (out_cols < c1))[:, None, :])

    patch = np.stack([np.random.default_rng(config.seed + i).random((ph, pw, c_in),
                                                                   dtype=np.float32)
                      for i in range(n)])
    area = float(h_out * w_out)
    trace = np.empty((config.steps, n), dtype=np.float32)
    for step in range(config.steps):
        adv_data = windows.copy()
        adv_data[at] = patch
        adv = Tensor(adv_data)
        tape = GradTape()
        _, scores = model.forward(params, spec, adv, "heaviside_st", tape=tape, inside=inside)
        sums = core.add(fixed, core.class_sums(scores, votes, tape=tape), tape=tape)
        loss = _target_margin_loss(sums, labels, target, area, tape)
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
                        tape: GradTape) -> Tensor:
    """Per-image margin loss on the fixed target classes, (n,):
    -min((S_ct - S_c*)/area, ATTACK_MARGIN)."""
    rows = np.arange(len(c_t))
    u = (sums.data[rows, c_t] - sums.data[rows, target]) / area
    clamped = u >= ATTACK_MARGIN
    out = Tensor(np.asarray(-np.where(clamped, ATTACK_MARGIN, u), dtype=sums.dtype))

    def backward(g):
        gs = np.zeros_like(sums.data)
        live = ~clamped
        gs[rows[live], c_t[live]] = -g[live] / area
        gs[rows[live], target[live]] = g[live] / area
        return (gs,)

    tape.record(out, (sums,), backward)
    return out
