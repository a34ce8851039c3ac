"""Heuristic patch attack: pick the region and target class with the weakest
outside vote margin, then run sign-gradient PGD on the patch pixels."""

from __future__ import annotations

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
            raise ValueError("attack needs at least one step")
        if self.step_size <= 0.0:
            raise ValueError("step size must be positive")
        if self.patch_h < 1 or self.patch_w < 1:
            raise ValueError("patch must be at least 1x1")


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
    index. Computed for all pairs at once from the outside class sums."""
    s = certify.validate_score_map(s)
    if len(regions) == 0:
        raise ValueError("region set must be non-empty")
    h, w, c = s.shape
    if c < 2:
        raise ValueError("need at least 2 classes to pick a target")
    certify.validate_labels([c_t], 1, c)
    rects = dependency_rects(regions, layers, h, w)
    _, outside = certify.outside_sums(s, rects, np.int32)  # (L, C)
    gaps = outside[:, [c_t]].astype(np.int64) - outside
    gaps[:, c_t] = np.iinfo(np.int64).max
    flat = int(gaps.argmin())  # row-major: region order first, then class
    return regions[flat // c], flat % c


def pgd_patch_attack(params: Parameters, spec: NetworkSpec, x: np.ndarray,
                     c_t: int, config: AttackConfig) -> AttackResult:
    """Fixed-region, fixed-target PGD: ascend the margin-loss objective with
    respect to the patch pixels only, stepping by sign(grad) and clipping to
    [0,1]. Gradients reach the patch through the straight-through head.

    The patch changes only the votes inside its dependency region R(l), and
    those read only the input within rf-1 pixels of the patch. So each step
    runs on that crop: the objective is the clean votes outside R(l), which
    are fixed, plus the crop's votes inside R(l). Every output in R(l) lies
    rf//2 pixels or more inside an interior crop edge, so it sees exactly
    what it sees in the full image."""
    x = np.asarray(x, dtype=np.float32)
    h_in, w_in, c_in = spec.input_shape
    if x.shape != (h_in, w_in, c_in):
        raise ValueError(f"input shape {x.shape} does not match spec {spec.input_shape}")

    _, clean_scores = model.forward(params, spec, x, "heaviside_st")
    clean_map = model.binary_scores(Tensor(clean_scores.data[0]))
    clean_pred, _ = certify.classify(clean_map)

    regions = geometry.enumerate_regions(h_in, w_in, config.patch_h, config.patch_w)
    layers = spec.layer_geom()
    region, target = select_region_and_target(clean_map, c_t, regions, layers)

    h_out, w_out, _ = spec.output_shape()
    area = float(h_out * w_out)
    rects = dependency_rects([region], layers, h_in, w_in)
    _, outside = certify.outside_sums(clean_map, rects, np.int32)
    fixed = Tensor(outside.astype(np.float32))  # (1, C) votes the patch cannot move

    reach = geometry.receptive_field(layers, h_in, w_in).rf_h - 1
    top, left = max(region.top - reach, 0), max(region.left - reach, 0)
    bottom = min(region.top + region.height + reach, h_in)
    right = min(region.left + region.width + reach, w_in)
    crop_spec = replace(spec, input_shape=(bottom - top, right - left, c_in))
    crop_x = x[top:bottom, left:right]
    local = PatchRegion(region.top - top, region.left - left, region.height, region.width)
    # stride 1: output (i, j) sits on pixel (i, j), so R(l) shifts with the crop
    r0, r1, c0, c1, _ = (int(v[0]) for v in rects)
    window = (slice(r0 - top, r1 - top), slice(c0 - left, c1 - left))

    rng = np.random.default_rng(config.seed)
    patch = rng.random((config.patch_h, config.patch_w, c_in), dtype=np.float32)

    rs = slice(local.top, local.top + local.height)
    cs = slice(local.left, local.left + local.width)
    trace: List[float] = []
    for step in range(config.steps):
        adv = Tensor(apply_patch(crop_x, patch, local)[None])
        tape = GradTape()
        _, scores = model.forward(params, crop_spec, adv, "heaviside_st", tape=tape)
        sums = core.add(fixed, core.class_sums(scores, window, tape=tape), tape=tape)
        loss = _target_margin_loss(sums, c_t, target, area, config.margin, tape)
        trace.append(float(loss.data))
        grads = tape.gradients(loss, [adv])
        g = grads.get(id(adv))
        if g is None:
            g = np.zeros_like(adv.data)
        if not np.isfinite(g).all():
            raise RuntimeError(f"attack gradient became non-finite at step {step}")
        patch = np.clip(patch + config.step_size * np.sign(g[0, rs, cs, :]),
                        0.0, 1.0).astype(np.float32)

    adversarial = apply_patch(x, patch, region)
    _, adv_scores = model.forward(params, spec, adversarial, "heaviside_st")
    adv_pred, _ = certify.classify(model.binary_scores(Tensor(adv_scores.data[0])))
    return AttackResult(region=region, target=target, patch=patch,
                        adversarial=adversarial, success=adv_pred != c_t,
                        clean_pred=clean_pred, adv_pred=adv_pred,
                        loss_trace=trace, steps_used=config.steps)


def _target_margin_loss(sums: Tensor, c_t: int, target: int, area: float,
                        margin: float, tape: GradTape) -> Tensor:
    """Margin loss restricted to the fixed target class: -min((S_ct - S_c*)/area, M)."""
    u = (sums.data[0, c_t] - sums.data[0, target]) / area
    clamped = u >= margin
    out = Tensor(np.asarray(-(margin if clamped else u), dtype=sums.dtype))

    def backward(g):
        gs = np.zeros_like(sums.data)
        if not clamped:
            gs[0, c_t] = -g / area
            gs[0, target] = g / area
        return (gs,)

    tape.record(out, (sums,), backward)
    return out
