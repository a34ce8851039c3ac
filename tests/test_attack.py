from collections import Counter
from dataclasses import fields, replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import certify
from patchcert.attack import (AttackConfig, AttackResult, apply_patch,
                              pgd_patch_attack, select_region_and_target)
from patchcert.certify import build_integral_image, delta_map
from patchcert.geometry import (LayerGeom, PatchRegion, dependency_region,
                                enumerate_regions)
from patchcert.model import binary_scores, build_model, cifar_spec, forward

from conftest import naive_rect_sum, reference_pgd_patch_attack


@pytest.fixture(scope="module")
def attack_spec():
    return cifar_spec(5, input_shape=(12, 12, 1), width=8, classes=2)


@pytest.fixture(scope="module")
def attack_params(attack_spec):
    return build_model(attack_spec, seed=1)


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
            dmap = delta_map(s, c_t)
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
        table = build_integral_image(delta_map(s, 0))
        total = table[-1, -1]

        def outside(reg, cc):
            dep = dependency_region(reg, layers, 8, 8)
            inside = certify.region_sum(table, dep.row_start, dep.row_stop,
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

    def test_deterministic(self, attack_params, attack_spec, rng):
        x = rng.random((12, 12, 1), dtype=np.float32)
        config = AttackConfig(patch_h=3, patch_w=3, steps=5, seed=9)
        a = pgd_patch_attack(attack_params, attack_spec, x, 0, config)
        b = pgd_patch_attack(attack_params, attack_spec, x, 0, config)
        assert np.array_equal(a.patch, b.patch)
        assert np.array_equal(a.adversarial, b.adversarial)
        assert a.loss_trace == b.loss_trace

    def test_patch_containment_bitwise(self, attack_params, attack_spec, rng):
        x = rng.random((12, 12, 1), dtype=np.float32)
        config = AttackConfig(patch_h=3, patch_w=4, steps=4, seed=2)
        res = pgd_patch_attack(attack_params, attack_spec, x, 1, config)
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
            res = pgd_patch_attack(attack_params, attack_spec, x, 0, config)
            before = binary_scores(forward(attack_params, attack_spec, x)[1].data[0] * 1.0)
            after = binary_scores(forward(attack_params, attack_spec,
                                          res.adversarial)[1].data[0] * 1.0)
            dep = dependency_region(res.region, layers, 12, 12)
            outside = ~dep.as_mask(12, 12)
            assert np.array_equal(before[outside], after[outside])

    def test_certified_input_never_attacked_successfully(self, attack_spec, rng):
        # deterministic fully-certified model: every attack must fail
        params = certified_model(attack_spec)
        layers = attack_spec.layer_geom()
        regions = enumerate_regions(12, 12, 3, 3)
        for trial in range(200):
            x = rng.random((12, 12, 1), dtype=np.float32)
            s = binary_scores(forward(params, attack_spec, x)[1].data[0] * 1.0)
            assert certify.certify_sum(s, 0, regions, layers).certified_sum
            config = AttackConfig(patch_h=3, patch_w=3, steps=2, seed=trial)
            res = pgd_patch_attack(params, attack_spec, x, 0, config)
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


class TestReceptiveFieldCrop:
    """Each PGD step runs on the patch dilated by rf-1; the full-image loop
    in conftest is the reference it must reproduce bit for bit."""

    @pytest.mark.parametrize("rf", [5, 7])
    def test_crop_votes_match_full_forward_for_every_region(self, rf, rng):
        spec, params = crop_model(rf, 16, seed=rf)
        layers = spec.layer_geom()
        x = rng.random((16, 16, 2), dtype=np.float32)
        for region in enumerate_regions(16, 16, 3, 3):
            adv = apply_patch(x, rng.random((3, 3, 2), dtype=np.float32), region)
            full_logits, full_scores = forward(params, spec, adv)
            top, left = max(region.top - rf + 1, 0), max(region.left - rf + 1, 0)
            bottom = min(region.top + 3 + rf - 1, 16)
            right = min(region.left + 3 + rf - 1, 16)
            crop = replace(spec, input_shape=(bottom - top, right - left, 2))
            crop_logits, crop_scores = forward(params, crop, adv[top:bottom, left:right])
            dep = dependency_region(region, layers, 16, 16)
            full = (slice(dep.row_start, dep.row_stop), slice(dep.col_start, dep.col_stop))
            inner = (slice(dep.row_start - top, dep.row_stop - top),
                     slice(dep.col_start - left, dep.col_stop - left))
            assert np.array_equal(crop_logits.data[0][inner], full_logits.data[0][full])
            assert np.array_equal(crop_scores.data[0][inner], full_scores.data[0][full])

    def test_matches_full_image_reference_at_every_placement(self):
        seen = Counter()
        for rf in (5, 7):
            for side in (16, 20):
                spec, params = crop_model(rf, side, seed=side)
                for ph, pw in CROP_PATCHES:
                    for seed in range(3):
                        x = np.random.default_rng(100 * rf + seed).random(
                            (side, side, 2), dtype=np.float32)
                        config = AttackConfig(patch_h=ph, patch_w=pw, steps=3,
                                              step_size=0.1, seed=seed)
                        res = pgd_patch_attack(params, spec, x, seed % 3, config)
                        ref = reference_pgd_patch_attack(params, spec, x, seed % 3, config)
                        assert_matches_reference(res, ref)
                        seen[placement(res.region, side)] += 1
        assert min(seen[k] for k in ("corner", "edge", "interior")) > 0, seen

    @settings(max_examples=30, deadline=None, database=None)
    @given(rf=st.sampled_from([5, 7]), side=st.integers(12, 20),
           patch=st.sampled_from(CROP_PATCHES), label=st.integers(0, 2),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_matches_full_image_reference(self, rf, side, patch, label, seed):
        spec, params = crop_model(rf, side, seed=seed % 7)
        x = np.random.default_rng(seed).random((side, side, 2), dtype=np.float32)
        config = AttackConfig(patch_h=patch[0], patch_w=patch[1], steps=2,
                              step_size=0.1, seed=seed)
        assert_matches_reference(pgd_patch_attack(params, spec, x, label, config),
                                 reference_pgd_patch_attack(params, spec, x, label, config))
