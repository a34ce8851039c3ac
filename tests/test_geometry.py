import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert.geometry import (LayerGeom, PatchRegion, dependency_rects,
                                dependency_region, enumerate_regions, r_max,
                                receptive_field)
from patchcert.model import BLOCK_KERNELS, cifar_spec

from conftest import positive_chain_forward


def contains(outer, inner):
    """Whether the patch region `outer` covers the region `inner`."""
    return (outer.top <= inner.top and outer.left <= inner.left
            and outer.top + outer.height >= inner.top + inner.height
            and outer.left + outer.width >= inner.left + inner.width)


def reference_interval(lo, hi, size, layers):
    """Scalar reference of the per-layer interval propagation: the inclusive
    input interval [lo, hi] becomes, layer by layer, the output positions
    whose kernel windows touch it (output j of a stride-1 conv with 'same'
    padding p = k//2 reads inputs j - p to j + p, clipped to the size).
    Returns half-open (lo, hi + 1)."""
    for layer in layers:
        p = layer.kernel // 2
        lo, hi = max(lo - p, 0), min(hi + p, size - 1)
    return lo, hi + 1


def stack(*kernels):
    return [LayerGeom(kernel=k) for k in kernels]


class TestReceptiveField:
    def test_single_3x3(self):
        info = receptive_field(stack(3), 8, 8)
        assert (info.rf_h, info.rf_w) == (3, 3)
        assert (info.h_out, info.w_out) == (8, 8)

    def test_cifar_rf7_config(self):
        # stem k=3, b1 k=3, b3 k=3, rest k=1, all stride 1
        layers = stack(3, 3, 1, 3, 1, 1, 1, 1, 1, 1)
        info = receptive_field(layers, 32, 32)
        assert info.rf_h == 7
        assert (info.h_out, info.w_out) == (32, 32)

    def test_cifar_rf5_config(self):
        layers = stack(3, 3, 1, 1, 1, 1, 1, 1, 1, 1)
        assert receptive_field(layers, 32, 32).rf_h == 5

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            receptive_field([], 8, 8)


class TestEnumerateRegions:
    def test_cifar_5x5_count(self):
        regions = enumerate_regions(32, 32, 5, 5)
        assert len(regions) == 784

    def test_full_cover(self):
        regions = enumerate_regions(32, 32, 32, 32)
        assert regions == [PatchRegion(0, 0, 32, 32)]

    def test_row_major_order(self):
        regions = enumerate_regions(4, 4, 2, 2)
        assert len(regions) == 9
        assert (regions[0].top, regions[0].left) == (0, 0)
        assert (regions[-1].top, regions[-1].left) == (2, 2)
        assert len(set(regions)) == 9

    def test_oversized_rejected(self):
        with pytest.raises(ValueError, match="does not fit"):
            enumerate_regions(8, 8, 9, 2)
        with pytest.raises(ValueError, match="at least 1x1"):
            enumerate_regions(8, 8, 0, 3)


class TestDependencyRegion:
    def test_corner_patch_rf5(self):
        layers = stack(3, 3)  # rf 5, stride 1
        dep = dependency_region(PatchRegion(0, 0, 5, 5), layers, 32, 32)
        assert (dep.row_start, dep.row_stop) == (0, 7)
        assert (dep.col_start, dep.col_stop) == (0, 7)
        assert dep.size == 49

    def test_interior_patch_rf5(self):
        layers = stack(3, 3)
        dep = dependency_region(PatchRegion(10, 10, 5, 5), layers, 32, 32)
        assert dep.size == 81
        assert (dep.row_stop - dep.row_start, dep.col_stop - dep.col_start) == (9, 9)

    def test_1d_example_three_top_scores(self):
        # 3-layer chain with kernels 3, 1, 3 on a 1x8 grid; a patch on the
        # first cell reaches the three leading region scores
        layers = stack(3, 1, 3)
        dep = dependency_region(PatchRegion(0, 0, 1, 1), layers, 1, 8)
        assert (dep.row_start, dep.row_stop) == (0, 1)
        assert (dep.col_start, dep.col_stop) == (0, 3)
        assert dep.size == 3

    def test_non_square_row_patch(self):
        # a 1xn interior patch under rf k spans k x (n+k-1) outputs
        layers = stack(3)  # rf 3
        dep = dependency_region(PatchRegion(8, 8, 1, 6), layers, 32, 32)
        assert (dep.row_stop - dep.row_start) == 3
        assert (dep.col_stop - dep.col_start) == 6 + 3 - 1

    def test_monotone_under_containment(self, rng):
        layers = stack(3, 3, 1)
        for _ in range(50):
            top = int(rng.integers(0, 10))
            left = int(rng.integers(0, 10))
            h = int(rng.integers(1, 6))
            w = int(rng.integers(1, 6))
            inner = PatchRegion(top + 1, left + 1, max(1, h - 1), max(1, w - 1)) \
                if h > 1 and w > 1 else PatchRegion(top, left, h, w)
            outer = PatchRegion(top, left, h + 2, w + 2)
            assert contains(outer, inner)
            d_in = dependency_region(inner, layers, 20, 20)
            d_out = dependency_region(outer, layers, 20, 20)
            assert d_out.row_start <= d_in.row_start <= d_in.row_stop <= d_out.row_stop
            assert d_out.col_start <= d_in.col_start <= d_in.col_stop <= d_out.col_stop



class TestPerturbationOracle:
    """Brute-force check: run a positive-weight network, nudge each input pixel
    up, and record which outputs move. Positive weights + ReLU guarantee the
    perturbation propagates to exactly the covered outputs."""

    def _changed_mask(self, layers, h, w, rng, pixel):
        kernels = []
        c_prev = 1
        for lg in layers:
            c_next = int(rng.integers(1, 3))
            kernels.append(rng.random((lg.kernel, lg.kernel, c_prev, c_next)) + 0.1)
            c_prev = c_next
        x = rng.random((1, h, w, 1)) + 0.1
        base = positive_chain_forward(x, kernels)
        x2 = x.copy()
        x2[0, pixel[0], pixel[1], 0] += 1.0
        bumped = positive_chain_forward(x2, kernels)
        return (np.abs(bumped - base) > 1e-12).any(axis=(0, 3))

    def test_exact_set_equality_on_random_configs(self, rng):
        for trial in range(20):
            depth = int(rng.integers(1, 4))
            layers = [LayerGeom(kernel=int(rng.choice([1, 3]))) for _ in range(depth)]
            h = int(rng.integers(5, 9))
            w = int(rng.integers(5, 9))
            pixel = (int(rng.integers(0, h)), int(rng.integers(0, w)))
            changed = self._changed_mask(layers, h, w, rng, pixel)
            dep = dependency_region(PatchRegion(pixel[0], pixel[1], 1, 1), layers, h, w)
            assert np.array_equal(changed, dep.as_mask(*changed.shape)), \
                f"trial {trial}: layers {layers} pixel {pixel}"

    @pytest.mark.parametrize("rf", sorted(BLOCK_KERNELS))
    def test_named_configs_against_oracle(self, rf, rng):
        """The model's own ten-layer stacks, deeper than the random ones: a
        corner, an edge and an interior pixel of a 16x16 input."""
        layers = cifar_spec(rf, input_shape=(16, 16, 1)).layer_geom()
        for pixel in ((0, 0), (1, 15), (8, 6)):
            changed = self._changed_mask(layers, 16, 16, rng, pixel)
            dep = dependency_region(PatchRegion(*pixel, 1, 1), layers, 16, 16)
            assert np.array_equal(changed, dep.as_mask(16, 16)), f"rf{rf} pixel {pixel}"


class TestRMax:
    def test_all_5x5_rf5(self):
        layers = stack(3, 3)
        assert r_max(enumerate_regions(32, 32, 5, 5), layers, 32, 32) == 81

    def test_single_corner_patch(self):
        layers = stack(3, 3)
        assert r_max([PatchRegion(0, 0, 5, 5)], layers, 32, 32) == 49

    def test_1d_single_region(self):
        layers = stack(3, 1, 3)
        assert r_max([PatchRegion(0, 0, 1, 1)], layers, 1, 8) == 3

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="non-empty"):
            r_max([], stack(3), 8, 8)

    def test_matches_independent_max_scan(self, rng):
        layers = stack(3, 1, 3)
        regions = enumerate_regions(12, 12, 3, 2)
        want = max(dependency_region(r, layers, 12, 12).size for r in regions)
        assert r_max(regions, layers, 12, 12) == want
        r0, r1, c0, c1, area = dependency_rects(regions, layers, 12, 12)
        assert int(area.max()) == want


class TestValidation:
    def test_patch_invariants(self):
        with pytest.raises(ValueError):
            PatchRegion(0, 0, 0, 3)
        with pytest.raises(ValueError):
            PatchRegion(-1, 0, 1, 1)

    def test_layer_geom_invariants(self):
        with pytest.raises(ValueError):
            LayerGeom(kernel=5)
        with pytest.raises(TypeError):
            LayerGeom(kernel=3, stride=2)
        with pytest.raises(TypeError):
            LayerGeom(kernel=3, padding=0)


@settings(max_examples=150, deadline=None, database=None)
@given(st.lists(st.builds(LayerGeom, st.sampled_from([1, 3])), min_size=1, max_size=5),
       st.integers(1, 20), st.integers(1, 20), st.data())
def test_dependency_rects_match_dependency_region(layers, h_in, w_in, draw):
    """The vectorized rectangles equal the scalar reference propagation and
    the one-region calls, region by region, on full, shuffled and partial
    region lists."""
    ph, pw = draw.draw(st.integers(1, h_in)), draw.draw(st.integers(1, w_in))
    regions = enumerate_regions(h_in, w_in, ph, pw)
    regions = draw.draw(st.permutations(regions) | st.just(regions))
    regions = regions[:draw.draw(st.integers(1, len(regions)))]
    r0, r1, c0, c1, area = dependency_rects(regions, layers, h_in, w_in)
    assert all(a.dtype == np.int64 and a.shape == (len(regions),)
               for a in (r0, r1, c0, c1, area))
    for i, region in enumerate(regions):
        rows = reference_interval(region.top, region.top + region.height - 1, h_in, layers)
        cols = reference_interval(region.left, region.left + region.width - 1, w_in, layers)
        want = (*rows, *cols, (rows[1] - rows[0]) * (cols[1] - cols[0]))
        assert (r0[i], r1[i], c0[i], c1[i], area[i]) == want
        dep = dependency_region(region, layers, h_in, w_in)
        assert (dep.row_start, dep.row_stop, dep.col_start, dep.col_stop, dep.size) == want


def test_dependency_rects_reject_out_of_bounds_region():
    with pytest.raises(ValueError, match="exceeds the 8x8 input"):
        dependency_rects([PatchRegion(0, 0, 2, 2), PatchRegion(7, 0, 2, 2)],
                         stack(3), 8, 8)
