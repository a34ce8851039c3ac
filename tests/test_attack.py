from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import attack, certify
from patchcert.attack import (AttackConfig, AttackResult, apply_patch,
                              pgd_patch_attack, select_region_and_target)
from patchcert.geometry import (LayerGeom, PatchRegion, dependency_region,
                                enumerate_regions)
from patchcert.core import GradTape, Tensor, class_sums
from patchcert.model import BLOCK_KERNELS, build_model, cifar_spec, forward

from conftest import clean_map, naive_rect_sum, reference_pgd_patch_attack


@pytest.fixture(scope="module")
def attack_spec():
    return cifar_spec(5, input_shape=(12, 12, 1), width=8, classes=2)


@pytest.fixture(scope="module")
def attack_params(attack_spec):
    return build_model(attack_spec, seed=1)


def attack_one(params, spec, x, s, c_t, config):
    """pgd_patch_attack on a batch of one image."""
    (res,) = pgd_patch_attack(params, spec, x[None], s[None], [c_t], config)
    return res


def certified_model(spec):
    """All conv weights zero, head bias (+1, -1, ...): class 0 votes 1
    everywhere, every rival votes 0: maximally certified for label 0."""
    params = build_model(spec, seed=0)
    for name in params.trainable:
        params.tensors[name].data[...] = 0.0
    bias = params.tensors["head.bias"].data
    bias[...] = -1.0
    bias[0] = 1.0
    return params


class TestApplyPatch:
    def test_identity_patch(self, rng):
        x = rng.random((8, 8, 2), dtype=np.float32)
        region = PatchRegion(2, 3, 3, 4)
        p = x[2:5, 3:7, :].copy()
        assert np.array_equal(apply_patch(x, p, region), x)

    def test_zeros_on_ones(self):
        x = np.ones((6, 6, 1), dtype=np.float32)
        region = PatchRegion(1, 2, 2, 3)
        out = apply_patch(x, np.zeros((2, 3, 1), dtype=np.float32), region)
        assert (out[1:3, 2:5, :] == 0).all()
        mask = np.ones_like(x, dtype=bool)
        mask[1:3, 2:5, :] = False
        assert (out[mask] == 1).all()

    def test_disjoint_applications_commute(self, rng):
        x = rng.random((8, 8, 1), dtype=np.float32)
        r1, r2 = PatchRegion(0, 0, 2, 2), PatchRegion(5, 5, 2, 2)
        p1 = rng.random((2, 2, 1), dtype=np.float32)
        p2 = rng.random((2, 2, 1), dtype=np.float32)
        a = apply_patch(apply_patch(x, p1, r1), p2, r2)
        b = apply_patch(apply_patch(x, p2, r2), p1, r1)
        assert np.array_equal(a, b)

    def test_out_of_bounds_rejected(self):
        x = np.zeros((6, 6, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="exceeds"):
            apply_patch(x, np.zeros((3, 3, 1), dtype=np.float32), PatchRegion(5, 5, 3, 3))

    def test_shape_mismatch_rejected(self):
        x = np.zeros((6, 6, 1), dtype=np.float32)
        with pytest.raises(ValueError, match="does not match"):
            apply_patch(x, np.zeros((2, 2, 1), dtype=np.float32), PatchRegion(0, 0, 3, 3))

    def test_domain_checked(self):
        x = np.zeros((6, 6, 1), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            apply_patch(x, np.full((2, 2, 1), 1.5, dtype=np.float32), PatchRegion(0, 0, 2, 2))

    @pytest.mark.parametrize("fill", ["all", "one"])
    def test_nan_patch_rejected(self, fill):
        x = np.zeros((6, 6, 1), dtype=np.float32)
        p = np.full((2, 2, 1), np.nan if fill == "all" else 0.5, dtype=np.float32)
        p[1, 0, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            apply_patch(x, p, PatchRegion(0, 0, 2, 2))


class TestSelection:
    def test_uniform_map_tie_breaks_to_first_region_lowest_class(self):
        # rf 1 keeps every |R(l)| equal, so all (region, class) pairs tie
        s = np.zeros((8, 8, 3), dtype=np.uint8)
        s[:, :, 0] = 1
        regions = enumerate_regions(8, 8, 2, 2)
        layers = [LayerGeom(1)]
        region, target = select_region_and_target(s, 0, regions, layers)
        assert region == regions[0]
        assert target == 1

    def test_matches_brute_force_double_loop(self, rng):
        layers = [LayerGeom(3), LayerGeom(1)]
        for trial in range(50):
            c = int(rng.integers(2, 4))
            c_t = int(rng.integers(0, c))
            s = rng.integers(0, 2, size=(7, 7, c)).astype(np.uint8)
            regions = enumerate_regions(7, 7, 2, 3)
            dmap = s[:, :, c_t:c_t + 1].astype(np.int64) - s
            best = None
            for li, region in enumerate(regions):
                dep = dependency_region(region, layers, 7, 7)
                total = dmap.sum(axis=(0, 1), dtype=np.int64)
                inside = naive_rect_sum(dmap, dep.row_start, dep.row_stop,
                                        dep.col_start, dep.col_stop)
                for cc in range(c):
                    if cc == c_t:
                        continue
                    outside = int(total[cc] - inside[cc])
                    if best is None or outside < best[0]:
                        best = (outside, li, cc)
            region, target = select_region_and_target(s, c_t, regions, layers)
            want_region, want_target = regions[best[1]], best[2]
            assert region == want_region and target == want_target, f"trial {trial}"

    def test_selection_attains_minimum(self, rng):
        layers = [LayerGeom(3)]
        s = rng.integers(0, 2, size=(8, 8, 3)).astype(np.uint8)
        regions = enumerate_regions(8, 8, 3, 3)
        region, target = select_region_and_target(s, 0, regions, layers)
        delta = s[:, :, :1].astype(np.int64) - s
        total = delta.sum(axis=(0, 1))

        def outside(reg, cc):
            dep = dependency_region(reg, layers, 8, 8)
            inside = naive_rect_sum(delta, dep.row_start, dep.row_stop,
                                    dep.col_start, dep.col_stop)
            return int(total[cc] - inside[cc])

        chosen = outside(region, target)
        for reg in regions:
            for cc in (1, 2):
                assert chosen <= outside(reg, cc)


class TestPgdAttack:
    def test_zero_steps_rejected(self):
        with pytest.raises(ValueError, match="step"):
            AttackConfig(patch_h=2, patch_w=2, steps=0)

    def test_clean_map_checked(self, attack_params, attack_spec, rng):
        x = rng.random((12, 12, 1), dtype=np.float32)
        s = clean_map(attack_params, attack_spec, x)
        config = AttackConfig(patch_h=3, patch_w=3, steps=1)
        with pytest.raises(ValueError, match="do not match"):
            attack_one(attack_params, attack_spec, x, s[:-1], 0, config)
        s[0, 0, 0] = 0.5
        with pytest.raises(ValueError, match="0 or 1"):
            attack_one(attack_params, attack_spec, x, s, 0, config)

    def test_nan_pixel_rejected(self, attack_params, attack_spec, rng):
        # NaN in opposite corners: no 3x3 patch covers both
        x = rng.random((12, 12, 1), dtype=np.float32)
        s = clean_map(attack_params, attack_spec, x)
        x[0, 0, 0] = x[11, 11, 0] = np.nan
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            attack_one(attack_params, attack_spec, x, s, 0, AttackConfig(patch_h=3, patch_w=3, steps=1))

    def test_deterministic(self, attack_params, attack_spec, rng):
        x = rng.random((12, 12, 1), dtype=np.float32)
        config = AttackConfig(patch_h=3, patch_w=3, steps=5, seed=9)
        s = clean_map(attack_params, attack_spec, x)
        a = attack_one(attack_params, attack_spec, x, s, 0, config)
        b = attack_one(attack_params, attack_spec, x, s, 0, config)
        assert np.array_equal(a.patch, b.patch)
        assert np.array_equal(a.adversarial, b.adversarial)
        assert a.loss_trace == b.loss_trace

    def test_patch_containment_bitwise(self, attack_params, attack_spec, rng):
        x = rng.random((12, 12, 1), dtype=np.float32)
        config = AttackConfig(patch_h=3, patch_w=4, steps=4, seed=2)
        res = attack_one(attack_params, attack_spec, x,
                               clean_map(attack_params, attack_spec, x), 1, config)
        mask = np.zeros_like(x, dtype=bool)
        mask[res.region.top:res.region.top + 3,
             res.region.left:res.region.left + 4, :] = True
        assert np.array_equal(res.adversarial[~mask], x[~mask])
        assert res.adversarial.min() >= 0.0 and res.adversarial.max() <= 1.0
        assert res.steps_used == 4
        assert len(res.loss_trace) == 4

    def test_score_changes_confined_to_dependency_region(self, attack_params,
                                                         attack_spec, rng):
        layers = attack_spec.layer_geom()
        for trial in range(5):
            x = rng.random((12, 12, 1), dtype=np.float32)
            config = AttackConfig(patch_h=3, patch_w=3, steps=3, seed=trial)
            before = certify.validate_score_map(clean_map(attack_params, attack_spec, x))
            res = attack_one(attack_params, attack_spec, x, before, 0, config)
            after = certify.validate_score_map(
                clean_map(attack_params, attack_spec, res.adversarial))
            dep = dependency_region(res.region, layers, 12, 12)
            outside = ~dep.as_mask(12, 12)
            assert np.array_equal(before[outside], after[outside])

    @pytest.mark.parametrize("dtype", [np.uint8, np.uint16, np.uint32, np.uint64,
                                       np.int8, np.int32])
    def test_label_dtypes_give_the_int64_choice(self, attack_params, attack_spec, rng, dtype):
        x = rng.random((3, 12, 12, 1), dtype=np.float32)
        maps = np.stack([clean_map(attack_params, attack_spec, im) for im in x])
        config = AttackConfig(patch_h=3, patch_w=3, steps=1)
        y = np.array([0, 1, 1])
        want = pgd_patch_attack(attack_params, attack_spec, x, maps, y, config)
        got = pgd_patch_attack(attack_params, attack_spec, x, maps, y.astype(dtype), config)
        assert [(r.region, r.target, r.success) for r in got] == \
            [(r.region, r.target, r.success) for r in want]

    def test_certified_input_never_attacked_successfully(self, attack_spec, rng):
        # deterministic fully-certified model: every attack must fail
        params = certified_model(attack_spec)
        layers = attack_spec.layer_geom()
        regions = enumerate_regions(12, 12, 3, 3)
        for trial in range(200):
            x = rng.random((12, 12, 1), dtype=np.float32)
            s = clean_map(params, attack_spec, x)
            assert certify.certify_sum(s, 0, regions, layers).certified_sum
            config = AttackConfig(patch_h=3, patch_w=3, steps=2, seed=trial)
            res = attack_one(params, attack_spec, x, s, 0, config)
            assert not res.success
            assert res.adv_pred == 0


CROP_PATCHES = [(1, 1), (3, 3), (5, 5), (2, 4)]


def crop_model(rf: int, side: int, seed: int):
    spec = cifar_spec(rf, input_shape=(side, side, 2), width=8, classes=3)
    return spec, build_model(spec, seed=seed)


def assert_matches_reference(res, ref):
    for f in fields(AttackResult):
        got, want = getattr(res, f.name), ref[f.name]
        if isinstance(want, np.ndarray):
            assert got.dtype == want.dtype and np.array_equal(got, want), f.name
        else:
            assert got == want, f.name


def placement(region, side):
    rows = region.top in (0, side - region.height)
    cols = region.left in (0, side - region.width)
    return "corner" if rows and cols else "edge" if rows or cols else "interior"


RFS = sorted(BLOCK_KERNELS)


def patch_window(x, rows, cols, reach):
    """The window of an (h, w, c) image at its rows and columns `rows` and
    `cols`, which may reach up to `reach` past its edges, cut from the image
    zero-padded by reach, as a batch of one, with its in-image mask."""
    h, w, _ = x.shape
    padded = np.pad(x, ((reach, reach), (reach, reach), (0, 0)))
    inside = ((rows >= 0) & (rows < h))[:, None] & ((cols >= 0) & (cols < w))[None]
    return padded[None, reach + rows[:, None], reach + cols[None]], inside[None]


def window_mode(patch, side, rf):
    """Per axis, whether the attack's window runs unpadded on the patch
    dilated by rf-1 (True) or covers the whole image (False)."""
    return tuple(p + 2 * (rf - 1) < side for p in patch)


class TestReceptiveFieldCrop:
    """Each PGD step runs on a window of the zero-padded image, per axis the
    patch dilated by rf-1, which every unpadded conv shrinks, or the whole
    axis; the full-image loop in conftest is the reference it must
    reproduce bit for bit."""

    @pytest.mark.parametrize("rf", RFS)
    def test_crop_votes_match_full_forward_for_every_region(self, rf, rng):
        spec, params = crop_model(rf, 16, seed=rf)
        layers = spec.layer_geom()
        reach = rf - 1
        x = rng.random((16, 16, 2), dtype=np.float32)
        for region in enumerate_regions(16, 16, 3, 3):
            adv = apply_patch(x, rng.random((3, 3, 2), dtype=np.float32), region)
            full_logits, full_scores = forward(params, spec, adv)
            side = min(3 + 2 * (rf - 1), 16)
            top = min(max(region.top - rf + 1, 0), 16 - side)
            left = min(max(region.left - rf + 1, 0), 16 - side)
            crop = replace(spec, input_shape=(side, side, 2))
            crop_logits, crop_scores = forward(params, crop,
                                               adv[top:top + side, left:left + side])
            dep = dependency_region(region, layers, 16, 16)
            full = (slice(dep.row_start, dep.row_stop), slice(dep.col_start, dep.col_stop))
            inner = (slice(dep.row_start - top, dep.row_stop - top),
                     slice(dep.col_start - left, dep.col_stop - left))
            assert np.array_equal(crop_logits.data[0][inner], full_logits.data[0][full])
            assert np.array_equal(crop_scores.data[0][inner], full_scores.data[0][full])

            # the windowed forward, on the patch dilated by rf-1 (every axis
            # unpadded, even where that is longer than the image) and on the
            # attack's window (at rf9 and above the whole image): its outputs
            # in the image are the full forward's, bit for bit
            dilated = [np.arange(t - reach, t + 3 + reach) for t in (region.top, region.left)]
            own = [attack._window(np.array([t]), 3, 16, reach)[0]
                   for t in (region.top, region.left)]
            full_in = Tensor(adv[None])
            tape = GradTape()
            full_map = forward(params, spec, full_in, tape=tape)[1]
            g_full = tape.gradients(class_sums(full_map, tape=tape), [full_in])[id(full_in)]
            for rows, cols in (dilated, own):
                window, inside = patch_window(adv, rows, cols, reach)
                win = Tensor(window)
                tape = GradTape()
                win_logits, win_scores = forward(params, spec, win, tape=tape, inside=inside)
                out_rows, out_cols = (v if len(v) == 16 else v[rf // 2:-(rf // 2)]
                                      for v in (rows, cols))
                assert win_scores.shape == (1, len(out_rows), len(out_cols), 3)
                in_r = (out_rows >= 0) & (out_rows < 16)
                in_c = (out_cols >= 0) & (out_cols < 16)
                cells = np.ix_(out_rows[in_r], out_cols[in_c])
                assert np.array_equal(win_logits.data[0][np.ix_(in_r, in_c)],
                                      full_logits.data[0][cells])
                assert np.array_equal(win_scores.data[0][np.ix_(in_r, in_c)],
                                      full_scores.data[0][cells])
                # and the gradient on the patch of its R(l) votes is that of
                # the full map's votes
                votes = dep.as_mask(16, 16)[np.ix_(np.clip(out_rows, 0, 15),
                                                   np.clip(out_cols, 0, 15))]
                votes &= np.outer(in_r, in_c)
                g_win = tape.gradients(class_sums(win_scores, votes[None], tape=tape),
                                       [win])[id(win)]
                at = np.ix_(np.flatnonzero((rows >= region.top) & (rows < region.top + 3)),
                            np.flatnonzero((cols >= region.left) & (cols < region.left + 3)))
                assert np.array_equal(g_win[0][at], g_full[0, region.top:region.top + 3,
                                                            region.left:region.left + 3])
                assert np.abs(g_win[0][at]).max() > 0

        with pytest.raises(ValueError, match="mask"):
            forward(params, spec, window, inside=inside[:, 1:])
        with pytest.raises(ValueError, match="mask"):
            forward(params, spec, window, inside=inside.astype(np.uint8))
        short = window[:, :rf - 1, :rf - 1]
        with pytest.raises(ValueError, match=f"at least {rf} cells"):
            forward(params, spec, short, inside=np.ones(short.shape[:3], dtype=bool))

    def test_matches_full_image_reference_at_every_placement(self):
        seen, modes = Counter(), Counter()
        for rf in RFS:
            for side in (16, 28):
                spec, params = crop_model(rf, side, seed=side)
                for ph, pw in CROP_PATCHES:
                    for seed in range(3):
                        x = np.random.default_rng(100 * rf + seed).random(
                            (side, side, 2), dtype=np.float32)
                        config = AttackConfig(patch_h=ph, patch_w=pw, steps=3,
                                              step_size=0.1, seed=seed)
                        res = attack_one(params, spec, x, clean_map(params, spec, x),
                                         seed % 3, config)
                        ref = reference_pgd_patch_attack(params, spec, x, seed % 3, config)
                        assert_matches_reference(res, ref)
                        seen[placement(res.region, side)] += 1
                    modes[window_mode((ph, pw), side, rf)] += 1
        assert min(seen[k] for k in ("corner", "edge", "interior")) > 0, seen
        # unpadded and whole-image windows, and windows mixing the two
        assert min(modes[k] for k in ((True, True), (False, False), (True, False))) > 0, modes

    @settings(max_examples=30, deadline=None, database=None)
    @given(rf=st.sampled_from(RFS), side=st.integers(12, 20),
           patch=st.sampled_from(CROP_PATCHES), label=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_full_image_reference(self, rf, side, patch, label, seed):
        spec, params = crop_model(rf, side, seed=seed % 7)
        x = np.random.default_rng(seed).random((side, side, 2), dtype=np.float32)
        config = AttackConfig(patch_h=patch[0], patch_w=patch[1], steps=2,
                              step_size=0.1, seed=seed)
        assert_matches_reference(attack_one(params, spec, x, clean_map(params, spec, x),
                                            label, config),
                                 reference_pgd_patch_attack(params, spec, x, label, config))


def assert_batch_matches_reference(params, spec, x, labels, config):
    """The batched attack gives image i what the full-image reference gives
    it alone under patch seed config.seed + i; returns the placements."""
    maps = forward(params, spec, x)[1].data
    results = pgd_patch_attack(params, spec, x, maps, labels, config)
    assert len(results) == len(x)
    for i, res in enumerate(results):
        assert_matches_reference(res, reference_pgd_patch_attack(
            params, spec, x[i], int(labels[i]), replace(config, seed=config.seed + i)))
    return Counter(placement(res.region, spec.input_shape[0]) for res in results)


class TestBatchedAttack:
    """pgd_patch_attack runs all images in one batch of equal-size windows;
    each image must still get exactly its own full-image attack."""

    @pytest.mark.parametrize("rf", RFS)
    def test_mixed_placements_match_reference(self, rf):
        # the seed-1 rf11 model never picks an edge region for these images
        spec, params = crop_model(rf, 20, seed=7 if rf == 11 else 1)
        rng = np.random.default_rng(rf)
        x = rng.random((12, 20, 20, 2), dtype=np.float32)
        labels = rng.integers(0, 3, size=12)
        config = AttackConfig(patch_h=3, patch_w=2, steps=3, step_size=0.1, seed=5)
        seen = assert_batch_matches_reference(params, spec, x, labels, config)
        assert min(seen[k] for k in ("corner", "edge", "interior")) > 0, seen

    def test_chunks_keep_image_seeds(self, monkeypatch):
        spec, params = crop_model(5, 12, seed=3)
        rng = np.random.default_rng(3)
        x = rng.random((5, 12, 12, 2), dtype=np.float32)
        maps = forward(params, spec, x)[1].data
        labels = rng.integers(0, 3, size=5)
        config = AttackConfig(patch_h=2, patch_w=2, steps=2, step_size=0.1, seed=11)
        whole = pgd_patch_attack(params, spec, x, maps, labels, config)
        monkeypatch.setattr(attack, "ATTACK_CHUNK", 2)
        for a, b in zip(whole, pgd_patch_attack(params, spec, x, maps, labels, config)):
            assert_matches_reference(a, {f.name: getattr(b, f.name) for f in fields(b)})

    @settings(max_examples=15, deadline=None, database=None, derandomize=True)
    @given(rf=st.sampled_from(RFS), side=st.integers(12, 18),
           patch=st.sampled_from(CROP_PATCHES), n=st.integers(1, 4),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_reference(self, rf, side, patch, n, seed):
        spec, params = crop_model(rf, side, seed=seed % 7)
        rng = np.random.default_rng(seed)
        x = rng.random((n, side, side, 2), dtype=np.float32)
        config = AttackConfig(patch_h=patch[0], patch_w=patch[1], steps=2,
                              step_size=0.1, seed=seed % 1000)
        assert_batch_matches_reference(params, spec, x, rng.integers(0, 3, size=n), config)
