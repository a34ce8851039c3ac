"""Acceptance gate: one test per criterion, each printing a PASS line with its
measured numbers (run with -s to see them inline)."""

import time

import numpy as np
import pytest

from patchcert import core, data
from patchcert.attack import AttackConfig, pgd_patch_attack
from patchcert.certify import (certify_all, certify_batch, certify_sum,
                               classify, exact_sum_dtype, interval_factors,
                               outside_sums, validate_score_map)
from patchcert.core import GradTape, Tensor
from patchcert.geometry import (LayerGeom, PatchRegion, dependency_rects,
                                dependency_region, enumerate_regions, r_max)
from patchcert.model import build_model, cifar_spec, forward
from patchcert.train import (TrainConfig, delta_sums, margin_loss,
                             total_loss, train)


def report(criterion: int, message: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {message}", flush=True)


def biased_map(rng, h, w, c, c_t):
    p_true = rng.uniform(0.3, 0.95)
    p_other = rng.uniform(0.05, 0.5)
    s = (rng.random((h, w, c)) < p_other).astype(np.uint8)
    s[:, :, c_t] = (rng.random((h, w)) < p_true).astype(np.uint8)
    return s


def test_criterion_1_condition_nesting():
    """500 random binary 8x8x4 maps, random rectangular region sets:
    certified(3.3) <= certified(3.2) <= certified(3.1), with a strictness
    witness for 3.2 over 3.3."""
    rng = np.random.default_rng(101)
    layers = [LayerGeom(3), LayerGeom(1)]
    t0 = time.perf_counter()
    n_33 = n_32 = n_31 = 0
    witnesses = 0
    for _ in range(500):
        c_t = int(rng.integers(0, 4))
        s = biased_map(rng, 8, 8, 4, c_t)
        ph = int(rng.integers(1, 6))
        pw = int(rng.integers(1, 6))
        regions = enumerate_regions(8, 8, ph, pw)
        rmax = r_max(regions, layers, 8, 8)
        res = certify_all(s, c_t, regions, layers, rmax)
        if res.certified_cheap:
            assert res.certified_sum, "3.3 certificate without a 3.2 certificate"
        if res.certified_sum:
            assert res.certified_generic, "3.2 certificate without a 3.1 certificate"
        n_33 += bool(res.certified_cheap)
        n_32 += bool(res.certified_sum)
        n_31 += bool(res.certified_generic)
        witnesses += bool(res.certified_sum and not res.certified_cheap)
    elapsed = time.perf_counter() - t0
    assert witnesses >= 1, "no map certified by 3.2 but not 3.3"
    assert elapsed < 30.0
    report(1, f"nesting exact over 500 maps ({n_33} by 3.3 <= {n_32} by 3.2 <= "
              f"{n_31} by 3.1), {witnesses} strictness witnesses, {elapsed:.1f}s")


def test_criterion_2_soundness_by_exhaustion():
    """Tiny outputs, single regions: every adversarial map differing only
    inside R(l) still classifies c_t whenever the sum condition certified."""
    rng = np.random.default_rng(202)
    t0 = time.perf_counter()
    n_certified = 0
    checked_maps = 0
    for trial in range(100):
        h = w = 3
        c_t = int(rng.integers(0, 2))
        layers = [LayerGeom(int(rng.choice([1, 3])))]
        s = (rng.random((h, w, 2)) < (0.95 if rng.random() < 0.7 else 0.5)).astype(np.uint8)
        s[:, :, 1 - c_t] = (rng.random((h, w)) < 0.05).astype(np.uint8)
        ph = int(rng.integers(1, 3))
        pw = int(rng.integers(1, 3))
        top = int(rng.integers(0, h - ph + 1))
        left = int(rng.integers(0, w - pw + 1))
        region = PatchRegion(top, left, ph, pw)

        res = certify_sum(s, c_t, [region], layers)
        if not res.certified_sum:
            continue
        n_certified += 1

        dep = dependency_region(region, layers, h, w)
        mask = dep.as_mask(h, w)
        n_cells = int(mask.sum())
        outside0 = int(s[:, :, 0][~mask].sum())
        outside1 = int(s[:, :, 1][~mask].sum())
        # enumerate every inside bit pattern per class; per-class sums depend
        # on the pattern only through its popcount, computed for all patterns
        patterns = np.arange(2 ** n_cells, dtype=np.uint32)
        counts = np.bitwise_count(patterns).astype(np.int64)
        s0 = outside0 + counts[:, None]   # all class-0 patterns
        s1 = outside1 + counts[None, :]   # all class-1 patterns
        pred_is_1 = s1 > s0               # argmax tie-break favors class 0
        if c_t == 0:
            assert not pred_is_1.any(), f"trial {trial}: misclassified adversarial map"
        else:
            assert pred_is_1.all(), f"trial {trial}: misclassified adversarial map"
        checked_maps += pred_is_1.size

        # cross-check a sample of materialized maps through the real classifier
        cells = np.argwhere(mask)
        for _ in range(20):
            adv = s.copy()
            for (i, j) in cells:
                adv[i, j, 0] = rng.integers(0, 2)
                adv[i, j, 1] = rng.integers(0, 2)
            pred, _ = classify(adv)
            assert pred == c_t
    elapsed = time.perf_counter() - t0
    assert n_certified >= 20, f"only {n_certified} certified cases exercised"
    assert elapsed < 60.0
    report(2, f"{checked_maps} adversarial maps enumerated across {n_certified} "
              f"certified cases, zero misclassifications, {elapsed:.1f}s")


def test_criterion_3_rectangle_sum_exactness():
    """Interval-product rectangle sums (certify.outside_sums) equal naive
    sums exactly on 200 random maps for every rectangle up to 6x6."""
    rng = np.random.default_rng(303)
    t0 = time.perf_counter()
    maps = rng.integers(-1, 2, size=(200, 8, 8, 3)).astype(np.int8)
    boxes = [(r0, r0 + hh, c0, c0 + ww)
             for hh in range(1, 7) for ww in range(1, 7)
             for r0 in range(0, 8 - hh + 1) for c0 in range(0, 8 - ww + 1)]
    r0, r1, c0, c1 = (np.array(v, dtype=np.int64) for v in zip(*boxes))
    rects = (r0, r1, c0, c1, (r1 - r0) * (c1 - c0))
    total, outside = outside_sums(maps, interval_factors(rects, 8, 8, exact_sum_dtype(8, 8)))
    assert np.array_equal(total, maps.sum(axis=(1, 2), dtype=np.int64))
    for l, (a, b, c, d) in enumerate(boxes):
        naive = maps[:, a:b, c:d, :].sum(axis=(1, 2), dtype=np.int64)
        assert np.array_equal(total - outside[:, :, l], naive)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    report(3, f"{len(boxes)} rectangles x 200 maps, exact integer agreement, "
              f"{elapsed:.1f}s")


def test_criterion_4_receptive_field_containment():
    """For every named architecture, a single-pixel change only moves outputs
    inside the predicted dependency rectangle (bit-exact outside)."""
    rng = np.random.default_rng(404)
    t0 = time.perf_counter()
    trials_per_spec = 20
    for rf in (5, 7, 9, 11, 13):
        spec = cifar_spec(rf, input_shape=(32, 32, 3), width=16, classes=10)
        params = build_model(spec, seed=rf)
        layers = spec.layer_geom()
        for trial in range(trials_per_spec):
            x = rng.random((1, 32, 32, 3), dtype=np.float32)
            i = int(rng.integers(0, 32))
            j = int(rng.integers(0, 32))
            x2 = x.copy()
            x2[0, i, j, :] = rng.random(3, dtype=np.float32)
            logits_a, scores_a = forward(params, spec, x)
            logits_b, scores_b = forward(params, spec, x2)
            dep = dependency_region(PatchRegion(i, j, 1, 1), layers, 32, 32)
            outside = ~dep.as_mask(32, 32)
            assert np.array_equal(logits_a.data[0][outside], logits_b.data[0][outside]), \
                f"rf{rf} trial {trial}: logit leak outside R"
            assert np.array_equal(scores_a.data[0][outside], scores_b.data[0][outside])
    elapsed = time.perf_counter() - t0
    report(4, f"rf5/7/9/11/13 x {trials_per_spec} trials, outputs bit-identical "
              f"outside the dependency region, {elapsed:.1f}s")


def test_criterion_5_gradient_checks():
    """Backprop on a sigmoid-mode toy net matches central finite differences
    to 1e-4 relative on every parameter; the straight-through backward equals
    s(x)(1-s(x)) exactly."""
    rng = np.random.default_rng(505)
    x = rng.random((2, 8, 8, 1))
    labels = np.array([0, 1])
    params = {
        "k1": Tensor(rng.uniform(-0.5, 0.5, size=(3, 3, 1, 3))),
        "b1": Tensor(rng.uniform(-0.1, 0.1, size=3)),
        "k2": Tensor(rng.uniform(-0.5, 0.5, size=(1, 1, 3, 2))),
        "b2": Tensor(rng.uniform(-0.1, 0.1, size=2)),
    }
    config = TrainConfig(margin=0.5, one_hot_weight=0.5, epochs=2, warmup_epochs=0)

    def loss_tensor(tape=None):
        h = core.conv2d(Tensor(x), params["k1"], params["b1"], stride=1,
                        padding=1, tape=tape)
        h = core.activation(h, "sigmoid", tape=tape)
        logits = core.conv2d(h, params["k2"], params["b2"], stride=1,
                             padding=0, tape=tape)
        scores = core.activation(logits, "sigmoid", tape=tape)
        sums = core.class_sums(scores, tape=tape)
        dsum = delta_sums(sums, labels, 64, tape=tape)
        norm = Tensor(sums.data / 64.0)
        if tape is not None:
            tape.record(norm, (sums,), lambda g: (g / 64.0,))
        return total_loss(dsum, norm, labels, config, tape=tape), dsum

    tape = GradTape()
    loss, dsum = loss_tensor(tape)
    # the loss is piecewise linear in the sums: stay clear of its kinks
    rivals = dsum.data.copy()
    rivals[np.arange(2), labels] = np.inf
    vmin = rivals.min(axis=1)
    assert (np.abs(vmin - 0.5) > 0.05).all(), "margin clamp too close for FD"
    grads = tape.gradients(loss, params.values())

    h_fd = 1e-3
    worst = 0.0
    for name, tensor in params.items():
        g = grads[id(tensor)]
        assert g is not None, name
        flat = tensor.data.reshape(-1)
        gf = g.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h_fd
            up = float(loss_tensor()[0].data)
            flat[idx] = orig - h_fd
            down = float(loss_tensor()[0].data)
            flat[idx] = orig
            fd = (up - down) / (2 * h_fd)
            rel = abs(gf[idx] - fd) / max(abs(gf[idx]), abs(fd), 1e-6)
            worst = max(worst, rel)
            assert rel <= 1e-4, f"{name}[{idx}]: backprop {gf[idx]} vs fd {fd}"

    xs = np.random.default_rng(506).standard_normal(1000) * 5.0
    t = Tensor(xs)
    tape2 = GradTape()
    out = core.activation(t, "heaviside_st", tape=tape2)
    total = Tensor(np.asarray(out.data.sum()))
    tape2.record(total, (out,), lambda g: (np.broadcast_to(g, out.data.shape),))
    g = tape2.gradients(total, [t])[id(t)]
    s = core.sigmoid(xs)
    assert np.array_equal(g, s * (1.0 - s))
    report(5, f"worst relative gradient error {worst:.2e} over all toy-net "
              f"parameters; straight-through backward exact at 1000 points")


def test_criterion_6_loss_derivation():
    """Closed-form margin loss equals the numerically integrated uniform-prior
    loss (affinely rescaled) within 1e-3 across 100 random configurations and
    every margin in the sweep."""
    rng = np.random.default_rng(606)
    grid = 10_000
    worst = 0.0
    for margin in (0.25, 0.5, 0.75, 1.0):
        for _ in range(100):
            c = int(rng.integers(2, 6))
            area = int(rng.integers(4, 65))
            c_t = int(rng.integers(0, c))
            raw = rng.uniform(0.0, area, size=c)
            raw[c_t] = 0.0
            d = (raw / area)[None, :]
            d[0, c_t] = 0.0
            got = float(margin_loss(Tensor(d), np.array([c_t]), margin).data)

            v = min(raw[i] for i in range(c) if i != c_t)
            big_r = margin * area / 2.0
            points = (np.arange(grid) + 0.5) * big_r / grid
            l_integral = float(np.mean(v <= 2.0 * points))
            rescaled = margin * (l_integral - 1.0)
            worst = max(worst, abs(got - rescaled))
            assert abs(got - rescaled) <= 1e-3
    report(6, f"closed form vs {grid}-point integration: worst gap {worst:.2e} "
              f"across 400 configurations, margins 0.25/0.5/0.75/1.0")


@pytest.fixture(scope="module")
def desk_run():
    """The end-to-end desk-scale training required by the acceptance gate."""
    dataset = data.synth_textures(200, 16, 16, seed=0)
    spec = cifar_spec(5, input_shape=(16, 16, 1), width=64, classes=2)
    config = TrainConfig(margin=0.5, epochs=30, warmup_epochs=3, seed=0,
                         batch_size=32, eval_patch=(3, 3))
    t0 = time.perf_counter()
    result = train(config, dataset, spec)
    elapsed = time.perf_counter() - t0
    return result, elapsed


def test_criterion_7_end_to_end_desk_training(desk_run):
    """Synthetic 2-class set, rf5, margin 0.5, 30 epochs on one core within 5
    minutes: clean >= 90% and condition-3.2 certified >= 60% for 3x3 patches."""
    result, elapsed = desk_run
    assert not result.metrics.diverged
    last = result.metrics.epochs[-1]
    assert elapsed <= 300.0, f"training took {elapsed:.0f}s"
    assert last.clean_acc >= 0.90
    assert last.cert32_acc >= 0.60
    report(7, f"30 epochs in {elapsed:.0f}s; holdout clean {last.clean_acc:.3f} "
              f">= 0.90, certified(3.2, 3x3) {last.cert32_acc:.3f} >= 0.60")


def test_criterion_8_attack_certificate_consistency(desk_run):
    """Adversarial accuracy is never below certified accuracy for the same
    patch shape, and no certified example is ever attacked successfully."""
    result, _ = desk_run
    params, spec = result.params, result.spec
    eval_set = data.synth_textures(20, 16, 16, seed=77, split="eval")
    images, labels = eval_set.images, eval_set.labels

    layers = spec.layer_geom()
    regions = enumerate_regions(16, 16, 3, 3)
    rects = dependency_rects(regions, layers, 16, 16)
    rmax = int(rects[4].max())
    maps = []
    for i in range(len(images)):
        _, scores = forward(params, spec, images[i])
        maps.append(validate_score_map(scores.data[0]))
    batch = certify_batch(np.stack(maps), labels, rects, rmax)

    t0 = time.perf_counter()
    successes_on_certified = 0
    adv_correct = 0
    config = AttackConfig(patch_h=3, patch_w=3, steps=100, step_size=0.025, seed=1000)
    results = pgd_patch_attack(params, spec, images, np.stack(maps), labels, config)
    for i, res in enumerate(results):  # image i's patch seed is 1000 + i
        adv_correct += int(res.adv_pred == int(labels[i]))
        if batch.certified_sum[i] and res.success:
            successes_on_certified += 1
    elapsed = time.perf_counter() - t0

    n = len(images)
    adv_acc = adv_correct / n
    cert_acc = float(batch.certified_sum.mean())
    assert successes_on_certified == 0
    assert adv_acc >= cert_acc
    report(8, f"{n} examples, 100-step attacks in {elapsed:.0f}s: adversarial "
              f"{adv_acc:.3f} >= certified {cert_acc:.3f}, zero successes on "
              f"certified examples")


def test_criterion_9_certification_throughput(tmp_path):
    """cmd_bench certifies 10000 random 32x32x10 maps against all 784 5x5
    regions via the interval-product path in under 5 seconds single-core; the
    global-margin check costs the same regardless of the region count."""
    import csv

    from patchcert.cli import main

    out = tmp_path / "bench"
    code = main(["bench", "--out", str(out), "--seed", "909",
                 "--set", "bench.n_maps=10000", "--set", "bench.patch=5x5",
                 "--set", "bench.small_patch=24x24",
                 "--set", "bench.repetitions=3"])
    assert code == 0
    with open(out / "bench.csv", newline="") as f:
        rows = list(csv.reader(f))[1:]
    by_key = {(r[0], int(r[2])): float(r[4]) for r in rows}

    t32 = by_key[("3.2", 784)]
    assert t32 < 5.0, f"condition 3.2 took {t32:.2f}s for 10k maps"

    t33_large = by_key[("3.3", 784)]
    t33_small = by_key[("3.3", 81)]
    ratio = max(t33_large, t33_small) / max(min(t33_large, t33_small), 1e-9)
    assert ratio < 2.5, f"condition 3.3 cost varied {ratio:.2f}x with |L|"
    assert t33_large < t32
    report(9, f"cmd_bench condition 3.2: {t32:.2f}s / 10k maps x 784 regions "
              f"(< 5s); condition 3.3: {t33_large:.3f}s at |L|=784 vs "
              f"{t33_small:.3f}s at |L|=81 (ratio {ratio:.2f})")


def test_criterion_10_activation_ablation():
    """All three head activations train to completion; heaviside and softmax
    improve their loss over the first ten epochs in at least 4 of 5 seeds;
    sigmoid stability is reported, not asserted."""
    dataset = data.synth_textures(60, 16, 16, seed=1)
    improved = {}
    completed = {}
    t0 = time.perf_counter()
    for mode in ("heaviside_st", "sigmoid", "softmax_channel"):
        wins = 0
        done = 0
        for seed in range(5):
            spec = cifar_spec(5, input_shape=(16, 16, 1), width=16, classes=2,
                              activation=mode)
            config = TrainConfig(margin=0.5, epochs=10, warmup_epochs=2,
                                 seed=seed, batch_size=32, activation=mode)
            result = train(config, dataset, spec)
            done += 1
            losses = [m.loss for m in result.metrics.epochs]
            if len(losses) == 10 and losses[9] < losses[0]:
                wins += 1
        improved[mode] = wins
        completed[mode] = done
    elapsed = time.perf_counter() - t0
    assert completed == {"heaviside_st": 5, "sigmoid": 5, "softmax_channel": 5}
    assert improved["heaviside_st"] >= 4, improved
    assert improved["softmax_channel"] >= 4, improved
    report(10, f"loss improved over the first 10 epochs in "
               f"{improved['heaviside_st']}/5 heaviside seeds and "
               f"{improved['softmax_channel']}/5 softmax seeds; sigmoid: "
               f"{improved['sigmoid']}/5 (reported only), {elapsed:.0f}s total")
