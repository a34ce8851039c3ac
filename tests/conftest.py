"""Shared independent oracles: naive convolution, naive rectangle sums, a
brute-force worst-case certifier, and the full-image PGD patch attack. These
deliberately avoid the library's fast paths so every dual-route check stays
honest."""

import numpy as np
import pytest

from patchcert import certify, core, geometry, model
from patchcert.attack import apply_patch, select_region_and_target


def naive_conv2d(x, kernel, stride=1, padding=0):
    """Reference cross-correlation with explicit loops over every output."""
    x = np.asarray(x)
    kernel = np.asarray(kernel)
    b, h, w, ci = x.shape
    kh, kw, _, co = kernel.shape
    xp = np.pad(x, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
    ho = (h + 2 * padding - kh) // stride + 1
    wo = (w + 2 * padding - kw) // stride + 1
    out = np.zeros((b, ho, wo, co), dtype=np.float64)
    for n in range(b):
        for i in range(ho):
            for j in range(wo):
                window = xp[n, i * stride:i * stride + kh, j * stride:j * stride + kw, :]
                for o in range(co):
                    out[n, i, j, o] = np.sum(window * kernel[:, :, :, o])
    return out


def naive_rect_sum(delta, r0, r1, c0, c1):
    """Per-class sum over a half-open rectangle by direct slicing."""
    return np.asarray(delta)[r0:r1, c0:c1, :].sum(axis=(0, 1))


def brute_force_certified(s, c_t, masks):
    """Condition-1 reference: materialize the worst case for every region mask
    and demand the summed true-class score strictly dominates every rival."""
    s = np.asarray(s, dtype=np.int64)
    h, w, c = s.shape
    pred_sums = s.sum(axis=(0, 1))
    top = pred_sums.max()
    if pred_sums.argmax() != c_t or (pred_sums == top).sum() > 1:
        return False
    for mask in masks:
        s_wc = s.copy()
        s_wc[mask, :] = 1
        s_wc[mask, c_t] = 0
        sums = s_wc.sum(axis=(0, 1))
        for cc in range(c):
            if cc != c_t and sums[c_t] <= sums[cc]:
                return False
    return True


def positive_chain_forward(x, kernels, strides, paddings):
    """Forward through a stack of positive-weight convolutions with ReLU; with
    positive inputs a perturbation always propagates to exactly the outputs
    whose receptive fields cover it."""
    h = x
    for kernel, stride, padding in zip(kernels, strides, paddings):
        h = naive_conv2d(h, kernel, stride=stride, padding=padding)
        h = np.maximum(h, 0.0)
    return h


@pytest.fixture
def rng():
    return np.random.default_rng(0)


def reference_pgd_patch_attack(params, spec, x, c_t, config):
    """Full-image PGD reference: every step runs the forward and backward over
    the whole image and sums the votes of the whole map. Returns the fields
    of an AttackResult as a dict."""
    x = np.asarray(x, dtype=np.float32)
    h_in, w_in, c_in = spec.input_shape
    _, clean_scores = model.forward(params, spec, x, "heaviside_st")
    clean_map = clean_scores.data[0].astype(np.uint8)
    clean_pred, _ = certify.classify(clean_map)
    regions = geometry.enumerate_regions(h_in, w_in, config.patch_h, config.patch_w)
    region, target = select_region_and_target(clean_map, c_t, regions, spec.layer_geom())
    area = float(h_in * w_in)
    patch = np.random.default_rng(config.seed).random(
        (config.patch_h, config.patch_w, c_in), dtype=np.float32)
    rs = slice(region.top, region.top + region.height)
    cs = slice(region.left, region.left + region.width)
    trace = []
    for _ in range(config.steps):
        adv = core.Tensor(apply_patch(x, patch, region)[None])
        tape = core.GradTape()
        _, scores = model.forward(params, spec, adv, "heaviside_st", tape=tape)
        sums = core.class_sums(scores, tape=tape)
        u = (sums.data[0, c_t] - sums.data[0, target]) / area
        clamped = u >= config.margin
        loss = core.Tensor(np.asarray(-(config.margin if clamped else u), dtype=sums.dtype))

        def backward(g, clamped=clamped, sums=sums):
            gs = np.zeros_like(sums.data)
            if not clamped:
                gs[0, c_t] = -g / area
                gs[0, target] = g / area
            return (gs,)

        tape.record(loss, (sums,), backward)
        trace.append(float(loss.data))
        g = tape.gradients(loss, [adv])[id(adv)]
        if g is None:
            g = np.zeros_like(adv.data)
        patch = np.clip(patch + config.step_size * np.sign(g[0, rs, cs, :]),
                        0.0, 1.0).astype(np.float32)
    adversarial = apply_patch(x, patch, region)
    _, adv_scores = model.forward(params, spec, adversarial, "heaviside_st")
    adv_pred, _ = certify.classify(adv_scores.data[0].astype(np.uint8))
    return dict(region=region, target=target, patch=patch, adversarial=adversarial,
                success=adv_pred != c_t, clean_pred=clean_pred, adv_pred=adv_pred,
                loss_trace=trace, steps_used=config.steps)
