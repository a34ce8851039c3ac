import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import certify
from patchcert.attack import select_region_and_target
from patchcert.certify import (G_SUM, build_integral_image, certify_all,
                               certify_batch, certify_batch_cheap,
                               certify_batch_relaxed, certify_cheap,
                               certify_generic, certify_generic_masks,
                               certify_sum, classify, delta_map,
                               load_score_maps, register_aggregator,
                               region_sum, save_score_maps, worst_case_map)
from patchcert.geometry import (DependencyRegion, LayerGeom, PatchRegion,
                                dependency_rects, dependency_region,
                                enumerate_regions, r_max, receptive_field)

from conftest import brute_force_certified, naive_rect_sum


def random_map(rng, h, w, c, p_true=0.8, p_other=0.2, c_t=0):
    """Binary map biased toward class c_t so certificates actually occur."""
    s = (rng.random((h, w, c)) < p_other).astype(np.uint8)
    s[:, :, c_t] = (rng.random((h, w)) < p_true).astype(np.uint8)
    return s


def one_d_example():
    """The worked 1-D certification example: two classes over 8 cells, delta
    votes [1,0,0,1,1,1,1,0] summing to +5; a single patch on the first cell
    reaches the three leading cells, so R_max = 3."""
    s = np.zeros((1, 8, 2), dtype=np.uint8)
    s[0, :, 0] = [1, 0, 0, 1, 1, 1, 1, 0]
    layers = [LayerGeom(3), LayerGeom(1), LayerGeom(3)]
    regions = [PatchRegion(0, 0, 1, 1)]
    return s, layers, regions


class TestClassify:
    def test_unanimous(self):
        s = np.zeros((2, 2, 2), dtype=np.uint8)
        s[:, :, 0] = 1
        pred, sums = classify(s)
        assert pred == 0
        assert np.array_equal(sums, [4, 0])

    def test_tie_breaks_low_and_flags(self):
        s = np.ones((2, 2, 3), dtype=np.uint8)
        pred, sums = classify(s)
        assert pred == 0
        assert certify.is_tied(sums)

    def test_matches_naive_loop(self, rng):
        s = rng.integers(0, 2, size=(8, 8, 10)).astype(np.uint8)
        pred, sums = classify(s)
        naive = [sum(int(s[i, j, c]) for i in range(8) for j in range(8))
                 for c in range(10)]
        assert np.array_equal(sums, naive)
        assert pred == int(np.argmax(naive))

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            classify(np.full((2, 2, 2), 2, dtype=np.uint8))


class TestDeltaMap:
    def test_signs(self):
        s = np.zeros((2, 2, 2), dtype=np.uint8)
        s[:, :, 0] = 1
        d = delta_map(s, 0)
        assert (d[:, :, 1] == 1).all()
        assert (d[:, :, 0] == 0).all()
        d = delta_map(s, 1)
        assert (d[:, :, 0] == -1).all()
        assert (d[:, :, 1] == 0).all()

    def test_true_channel_zero_for_any_map(self, rng):
        s = rng.integers(0, 2, size=(4, 4, 3)).astype(np.uint8)
        for c_t in range(3):
            assert (delta_map(s, c_t)[:, :, c_t] == 0).all()


class TestWorstCaseMap:
    def test_empty_region_is_identity(self, rng):
        s = rng.integers(0, 2, size=(4, 4, 3)).astype(np.uint8)
        out = worst_case_map(s, 0, DependencyRegion(0, 0, 0, 0))
        assert np.array_equal(out, s)

    def test_full_grid(self, rng):
        s = rng.integers(0, 2, size=(4, 4, 3)).astype(np.uint8)
        out = worst_case_map(s, 1, DependencyRegion(0, 4, 0, 4))
        sums = out.sum(axis=(0, 1))
        assert sums[1] == 0
        assert sums[0] == 16 and sums[2] == 16

    def test_1d_example_flips_plus5_to_plus1(self):
        s, layers, regions = one_d_example()
        dep = dependency_region(regions[0], layers, 1, 8)
        wc = worst_case_map(s, 0, dep)
        d_wc = wc[:, :, 0].astype(int) - wc[:, :, 1].astype(int)
        assert delta_map(s, 0)[:, :, 1].sum() == 5  # clean aggregate is +5
        assert d_wc.sum() == 1


class TestIntegralImage:
    def test_small_known_sum(self):
        d = np.array([[1, 0], [1, 1]], dtype=np.int8)[:, :, None]
        table = build_integral_image(d)
        assert region_sum(table, 0, 2, 0, 2)[0] == 3
        assert region_sum(table, 1, 2, 0, 2)[0] == 2

    def test_zero_map(self):
        table = build_integral_image(np.zeros((3, 3, 2), dtype=np.int8))
        assert (table == 0).all()

    def test_first_row_and_column_zero(self, rng):
        d = rng.integers(-1, 2, size=(5, 6, 2)).astype(np.int8)
        table = build_integral_image(d)
        assert (table[0, :, :] == 0).all()
        assert (table[:, 0, :] == 0).all()

    def test_matches_naive_sums_exactly(self, rng):
        for _ in range(30):
            d = rng.integers(-1, 2, size=(7, 7, 3)).astype(np.int8)
            table = build_integral_image(d)
            for _ in range(20):
                r0, c0 = rng.integers(0, 7, size=2)
                r1 = int(rng.integers(r0 + 1, 8))
                c1 = int(rng.integers(c0 + 1, 8))
                want = naive_rect_sum(d, r0, r1, c0, c1)
                assert np.array_equal(region_sum(table, r0, r1, c0, c1), want)


class TestConditions:
    def test_1d_example_sum_condition_certifies(self):
        s, layers, regions = one_d_example()
        res = certify_sum(s, 0, regions, layers)
        assert res.certified_sum
        assert res.margin == 1  # worst-case aggregate of the figure
        assert res.limiting_region == regions[0]

    def test_1d_example_cheap_condition_fails(self):
        s, layers, regions = one_d_example()
        rmax = r_max(regions, layers, 1, 8)
        assert rmax == 3
        res = certify_cheap(s, 0, rmax)
        assert not res.certified_cheap
        assert res.margin == 5 - 6

    def test_1d_example_generic_certifies(self):
        s, layers, regions = one_d_example()
        res = certify_generic(s, 0, regions, layers)
        assert res.certified_generic
        assert res.margin == 1

    def test_uniform_delta_grid(self):
        s = np.zeros((8, 8, 2), dtype=np.uint8)
        s[:, :, 0] = 1
        layers = [LayerGeom(3)]  # rf 3: |R(l)| <= 25 for 3x3 patches
        regions = enumerate_regions(8, 8, 3, 3)
        rmax = r_max(regions, layers, 8, 8)
        assert rmax == 25
        assert certify_sum(s, 0, regions, layers).certified_sum
        assert certify_cheap(s, 0, rmax).certified_cheap

    def test_misclassified_never_certified(self):
        s = np.zeros((4, 4, 2), dtype=np.uint8)
        s[:, :, 0] = 1
        res = certify_sum(s, 1, enumerate_regions(4, 4, 1, 1), [LayerGeom(1)])
        assert not res.certified_sum
        assert res.predicted == 0

    def test_tie_never_certified(self):
        s = np.ones((4, 4, 2), dtype=np.uint8)
        res = certify_cheap(s, 0, 0)
        assert res.tied and not res.certified_cheap

    def test_empty_regions_rejected(self):
        s = np.ones((4, 4, 2), dtype=np.uint8)
        with pytest.raises(ValueError, match="non-empty"):
            certify_sum(s, 0, [], [LayerGeom(1)])

    def test_sum_matches_brute_force_oracle(self, rng):
        layers = [LayerGeom(3), LayerGeom(3)]
        for trial in range(60):
            h = w = int(rng.integers(6, 9))
            c = int(rng.integers(2, 4))
            c_t = int(rng.integers(0, c))
            s = random_map(rng, h, w, c, p_true=rng.uniform(0.4, 1.0),
                           p_other=rng.uniform(0.0, 0.4), c_t=c_t)
            ph = int(rng.integers(1, 4))
            pw = int(rng.integers(1, 4))
            regions = enumerate_regions(h, w, ph, pw)
            masks = [dependency_region(r, layers, h, w).as_mask(h, w)
                     for r in regions]
            want = brute_force_certified(s, c_t, masks)
            got = certify_sum(s, c_t, regions, layers)
            assert bool(got.certified_sum) == want, f"trial {trial}"

    def test_generic_equals_sum_for_g_sum(self, rng):
        layers = [LayerGeom(3)]
        for _ in range(40):
            c_t = int(rng.integers(0, 3))
            s = random_map(rng, 7, 7, 3, p_true=rng.uniform(0.3, 1.0),
                           p_other=rng.uniform(0.0, 0.5), c_t=c_t)
            regions = enumerate_regions(7, 7, 2, 2)
            a = certify_sum(s, c_t, regions, layers)
            b = certify_generic(s, c_t, regions, layers, G_SUM)
            assert bool(a.certified_sum) == bool(b.certified_generic)
            assert a.margin == b.margin

    def test_cheap_implies_sum(self, rng):
        layers = [LayerGeom(3), LayerGeom(1)]
        hits = 0
        for _ in range(200):
            c_t = 0
            s = random_map(rng, 8, 8, 4, p_true=rng.uniform(0.5, 1.0),
                           p_other=rng.uniform(0.0, 0.4))
            regions = enumerate_regions(8, 8, 2, 3)
            rmax = r_max(regions, layers, 8, 8)
            cheap = certify_cheap(s, c_t, rmax)
            full = certify_sum(s, c_t, regions, layers)
            if cheap.certified_cheap:
                hits += 1
                assert full.certified_sum
        assert hits > 0  # the implication was actually exercised

    def test_generic_with_no_effect_regions(self):
        # every dependency region empty: certified iff strictly dominant
        s = np.zeros((3, 3, 2), dtype=np.uint8)
        s[0, 0, 0] = 1
        masks = [np.zeros((3, 3), dtype=bool)]
        assert certify_generic_masks(s, 0, masks).certified_generic
        assert not certify_generic_masks(s, 1, masks).certified_generic

    def test_scale_invariance_of_cheap_condition(self, rng):
        # tiling every delta entry k times and scaling the bound k times
        # cannot change the decision
        for _ in range(20):
            s = random_map(rng, 4, 4, 3, p_true=0.8, p_other=0.3)
            rmax = int(rng.integers(1, 6))
            base = certify_cheap(s, 0, rmax)
            for k in (2, 3):
                tiled = np.tile(s, (k, 1, 1))
                scaled = certify_cheap(tiled, 0, k * rmax)
                assert bool(scaled.certified_cheap) == bool(base.certified_cheap)


class TestAggregatorRegistration:
    def test_monotone_accepted(self):
        spec = register_aggregator("max", lambda s: s.max(axis=(0, 1)))
        assert spec.name == "max"

    def test_non_monotone_rejected(self):
        with pytest.raises(ValueError, match="monotonicity"):
            register_aggregator("neg", lambda s: -s.astype(np.int64).sum(axis=(0, 1)))

    def test_bad_shape_rejected(self):
        with pytest.raises(ValueError, match="class scores"):
            register_aggregator("scalar", lambda s: np.float64(s.sum()))


class TestBatchPath:
    def test_agrees_with_single_path(self, rng):
        layers = [LayerGeom(3), LayerGeom(3)]
        regions = enumerate_regions(8, 8, 3, 3)
        rects = dependency_rects(regions, layers, 8, 8)
        rmax = int(rects[4].max())
        maps = np.stack([random_map(rng, 8, 8, 4, p_true=rng.uniform(0.4, 1.0),
                                    p_other=rng.uniform(0.0, 0.4))
                         for _ in range(64)])
        labels = rng.integers(0, 4, size=64)
        batch = certify_batch(maps, labels, rects, rmax, chunk=17)
        cheap_only = certify_batch_cheap(maps, labels, rmax, chunk=13)
        for i in range(64):
            single_s = certify_sum(maps[i], int(labels[i]), regions, layers)
            single_c = certify_cheap(maps[i], int(labels[i]), rmax)
            assert batch.predicted[i] == single_s.predicted
            assert bool(batch.certified_sum[i]) == bool(single_s.certified_sum)
            assert bool(batch.certified_cheap[i]) == bool(single_c.certified_cheap)
            assert batch.margin_sum[i] == single_s.margin
            assert batch.margin_cheap[i] == single_c.margin
            assert regions[int(batch.limiting_index[i])] == single_s.limiting_region
            assert bool(cheap_only[0][i]) == bool(single_c.certified_cheap)

    def test_relaxed_rejects_non_batch_shape(self):
        rects = dependency_rects(enumerate_regions(4, 4, 2, 2), [LayerGeom(3)], 4, 4)
        with pytest.raises(ValueError, match=r"\(B,h,w,C\)"):
            certify_batch_relaxed(np.zeros((4, 4, 2)), np.zeros(4, dtype=np.int64),
                                  rects, int(rects[4].max()))

    def test_relaxed_agrees_on_binary_maps(self, rng):
        layers = [LayerGeom(3)]
        regions = enumerate_regions(6, 6, 2, 2)
        rects = dependency_rects(regions, layers, 6, 6)
        rmax = int(rects[4].max())
        maps = np.stack([random_map(rng, 6, 6, 3, p_true=0.9, p_other=0.1)
                         for _ in range(32)])
        labels = np.zeros(32, dtype=np.int64)
        batch = certify_batch(maps, labels, rects, rmax)
        cert_s, cert_c, pred = certify_batch_relaxed(maps.astype(np.float64),
                                                     labels, rects, rmax)
        assert np.array_equal(cert_s, batch.certified_sum)
        assert np.array_equal(cert_c, batch.certified_cheap)
        assert np.array_equal(pred, batch.predicted)


class TestLabelValidation:
    """Every entry point rejects labels that are not one in-range class per
    map, instead of wrapping, truncating or raising a raw IndexError."""

    @staticmethod
    def batch_case(rng):
        layers = [LayerGeom(3)]
        regions = enumerate_regions(6, 6, 2, 2)
        rects = dependency_rects(regions, layers, 6, 6)
        maps = rng.integers(0, 2, size=(4, 6, 6, 3)).astype(np.uint8)
        return maps, rects, int(rects[4].max())

    BATCH_PATHS = {
        "batch": lambda m, y, rects, rmax: tuple(vars(certify_batch(m, y, rects, rmax)).values()),
        "cheap": lambda m, y, rects, rmax: certify_batch_cheap(m, y, rmax),
        "relaxed": lambda m, y, rects, rmax: certify_batch_relaxed(
            m.astype(np.float64), y, rects, rmax),
    }
    BAD_LABELS = {
        "negative": np.array([0, 1, -1, 2]),
        "too_large": np.array([0, 1, 3, 2]),
        "too_long": np.array([0, 1, 2, 0, 1]),
        "too_short": np.array([0, 1, 2]),
        "float": np.array([0.0, 1.0, 2.0, 0.0]),
        "two_dim": np.array([[0, 1, 2, 0]]),
    }

    @pytest.mark.parametrize("path", sorted(BATCH_PATHS))
    @pytest.mark.parametrize("bad", sorted(BAD_LABELS))
    def test_batch_paths_reject(self, rng, path, bad):
        maps, rects, rmax = self.batch_case(rng)
        with pytest.raises(ValueError, match="labels"):
            self.BATCH_PATHS[path](maps, self.BAD_LABELS[bad], rects, rmax)

    @pytest.mark.parametrize("path", sorted(BATCH_PATHS))
    def test_unsigned_labels_accepted(self, rng, path):
        maps, rects, rmax = self.batch_case(rng)
        y = np.array([0, 1, 2, 0])
        want = self.BATCH_PATHS[path](maps, y, rects, rmax)
        got = self.BATCH_PATHS[path](maps, y.astype(np.uint8), rects, rmax)
        assert all(np.array_equal(a, b) for a, b in zip(want, got))

    @pytest.mark.parametrize("c_t", [-1, 3])
    def test_single_map_paths_reject(self, rng, c_t):
        s = rng.integers(0, 2, size=(6, 6, 3)).astype(np.uint8)
        layers = [LayerGeom(3)]
        regions = enumerate_regions(6, 6, 2, 2)
        for call in (lambda: certify_cheap(s, c_t, 4),
                     lambda: certify_sum(s, c_t, regions, layers),
                     lambda: certify_generic(s, c_t, regions, layers),
                     lambda: certify_generic_masks(s, c_t, [np.ones((6, 6), bool)]),
                     lambda: select_region_and_target(s, c_t, regions, layers)):
            with pytest.raises(ValueError, match="labels"):
                call()


@st.composite
def batch_geometries(draw):
    """A layer stack (stride 1 or 2), an input grid, a patch shape and a batch
    of binary maps on the stack's output grid, each leaning towards its label
    so that certificates occur."""
    layers = draw(st.lists(st.builds(LayerGeom, st.sampled_from([1, 3]),
                                     st.sampled_from([1, 1, 2])),
                           min_size=1, max_size=4))
    h_in, w_in = draw(st.integers(1, 16)), draw(st.integers(1, 16))
    ph = draw(st.integers(1, h_in) | st.integers(1, min(2, h_in)))
    pw = draw(st.integers(1, w_in) | st.integers(1, min(2, w_in)))
    c = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    chunk = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    info = receptive_field(layers, h_in, w_in)
    labels = rng.integers(0, c, size=n)
    p = np.full((n, 1, 1, c), draw(st.floats(0.0, 0.4)))
    p[np.arange(n), 0, 0, labels] = draw(st.floats(0.5, 1.0))
    maps = (rng.random((n, info.h_out, info.w_out, c)) < p).astype(np.uint8)
    return layers, h_in, w_in, ph, pw, maps, labels, chunk


@settings(max_examples=150, deadline=None, database=None)
@given(batch_geometries())
def test_certify_batch_matches_brute_force(case):
    layers, h_in, w_in, ph, pw, maps, labels, chunk = case
    regions = enumerate_regions(h_in, w_in, ph, pw)
    rects = dependency_rects(regions, layers, h_in, w_in)
    rmax = int(rects[4].max())
    batch = certify_batch(maps, labels, rects, rmax, chunk=chunk)
    n, h_out, w_out, c = maps.shape
    assert all(len(v) == n for v in vars(batch).values())
    boxes = list(zip(*(a.tolist() for a in rects[:4])))
    masks = []
    for r0, r1, c0, c1 in boxes:
        mask = np.zeros((h_out, w_out), dtype=bool)
        mask[r0:r1, c0:c1] = True
        masks.append(mask)
    for s, y, *got in zip(maps, labels, batch.predicted, batch.certified_sum,
                          batch.certified_cheap, batch.margin_sum,
                          batch.margin_cheap, batch.limiting_index):
        y = int(y)
        delta = s[:, :, y:y + 1].astype(np.int64) - s
        total = delta.sum(axis=(0, 1))
        worst = [min(int(total[k] - naive_rect_sum(delta, *box)[k])
                     for k in range(c) if k != y) - (box[1] - box[0]) * (box[3] - box[2])
                 for box in boxes]
        sums = s.sum(axis=(0, 1), dtype=np.int64)
        pred = int(sums.argmax())
        clean = pred == y and (sums == sums.max()).sum() == 1
        margin_cheap = min(int(sums[y] - sums[k]) for k in range(c) if k != y) - 2 * rmax
        want = [pred, brute_force_certified(s, y, masks), clean and margin_cheap > 0,
                min(worst), margin_cheap, worst.index(min(worst))]
        assert [int(v) for v in got] == [int(v) for v in want]


class TestScoreMapBlobs:
    def test_roundtrip_single(self, rng, tmp_path):
        s = random_map(rng, 5, 7, 3)
        path = tmp_path / "map.pcsm"
        save_score_maps(path, s)
        loaded = load_score_maps(path)
        assert len(loaded) == 1
        assert np.array_equal(loaded[0], s)

    def test_roundtrip_many(self, rng, tmp_path):
        maps = np.stack([random_map(rng, 4, 4, 2) for _ in range(5)])
        path = tmp_path / "maps.pcsm"
        save_score_maps(path, maps)
        loaded = load_score_maps(path)
        assert len(loaded) == 5
        for a, b in zip(loaded, maps):
            assert np.array_equal(a, b)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.pcsm"
        path.write_bytes(b"XXXX" + b"\x00" * 16)
        with pytest.raises(ValueError, match="magic"):
            load_score_maps(path)

    def test_truncated(self, rng, tmp_path):
        s = random_map(rng, 5, 5, 2)
        path = tmp_path / "map.pcsm"
        save_score_maps(path, s)
        path.write_bytes(path.read_bytes()[:-3])
        with pytest.raises(ValueError, match="truncated"):
            load_score_maps(path)

    def test_non_binary_payload_rejected(self, tmp_path):
        import struct
        blob = b"PCSM" + struct.pack("<III", 1, 1, 2) + bytes([0, 7])
        path = tmp_path / "map.pcsm"
        path.write_bytes(blob)
        with pytest.raises(ValueError, match="0 or 1"):
            load_score_maps(path)


class TestCertifyAll:
    def test_nesting_on_random_maps(self, rng):
        layers = [LayerGeom(3), LayerGeom(1)]
        witness_32_not_33 = 0
        for _ in range(100):
            c_t = 0
            s = random_map(rng, 8, 8, 4, p_true=rng.uniform(0.3, 1.0),
                           p_other=rng.uniform(0.0, 0.6))
            ph, pw = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            regions = enumerate_regions(8, 8, ph, pw)
            rmax = r_max(regions, layers, 8, 8)
            res = certify_all(s, c_t, regions, layers, rmax)
            if res.certified_cheap:
                assert res.certified_sum
            if res.certified_sum:
                assert res.certified_generic
            if res.certified_sum and not res.certified_cheap:
                witness_32_not_33 += 1
        assert witness_32_not_33 > 0
