import errno
import threading
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import attack, certify, core
from patchcert.attack import select_region_and_target
from patchcert.certify import (G_SUM, AggregatorSpec, certify_all,
                               certify_batch, certify_batch_cheap,
                               certify_batch_relaxed, certify_cheap,
                               certify_generic, certify_sum, classify,
                               load_score_maps, register_aggregator,
                               save_score_maps)
from patchcert.geometry import (LayerGeom, PatchRegion, dependency_rects,
                                dependency_region, enumerate_regions, r_max,
                                receptive_field)

from conftest import brute_force_certified, naive_rect_sum


def random_map(rng, h, w, c, p_true=0.8, p_other=0.2, c_t=0):
    """Binary map biased toward class c_t so certificates actually occur."""
    s = (rng.random((h, w, c)) < p_other).astype(np.uint8)
    s[:, :, c_t] = (rng.random((h, w)) < p_true).astype(np.uint8)
    return s


def slice_margins(s, y, rects):
    """(worst-case margin, first limiting index) of the per-region sum
    condition for one binary map, by direct slicing of each rectangle."""
    delta = s[:, :, y:y + 1].astype(np.int64) - s
    total = delta.sum(axis=(0, 1))
    rivals = [k for k in range(s.shape[2]) if k != y]
    worst = [int(min((total - naive_rect_sum(delta, *box))[rivals])) - int(area)
             for *box, area in zip(*(a.tolist() for a in rects))]
    return min(worst), worst.index(min(worst))


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
        assert (sums == sums.max()).sum() == 3

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


@settings(max_examples=60, deadline=None, database=None, derandomize=True)
@given(n=st.integers(0, 3), h=st.sampled_from([1, 254, 255, 256, 511, 600]),
       w=st.integers(1, 3), c=st.integers(1, 4), ones=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_class_counts_match_int64_sum(n, h, w, c, ones, seed):
    """Exact against an int64 reference, also where a column of one class
    holds more than 255 votes (all-ones maps taller than one uint8 block)."""
    if ones:
        maps = np.ones((n, h, w, c), dtype=np.uint8)
    else:
        maps = np.random.default_rng(seed).integers(0, 2, size=(n, h, w, c), dtype=np.uint8)
    got = certify.class_counts(maps)
    assert got.dtype == np.int64 and got.shape == (n, c)
    assert np.array_equal(got, maps.astype(np.int64).sum(axis=(1, 2)))


class TestClassCounts:
    def test_empty_batch(self):
        got = certify.class_counts(np.zeros((0, 300, 2, 3), dtype=np.uint8))
        assert got.dtype == np.int64 and got.shape == (0, 3)

    def test_tall_grid_global_margin_matches_interval_products(self, rng):
        """On a 300-row grid each label's column holds 300 votes, more than
        one uint8 block; the global-margin path must still agree with the
        totals of the interval products."""
        h, w, c = 300, 4, 3
        regions = enumerate_regions(h, w, 2, 2)
        rects = dependency_rects(regions, [LayerGeom(3)], h, w)
        rmax = int(rects[4].max())
        labels = np.array([0, 2, 1])
        maps = (rng.random((3, h, w, c)) < 0.3).astype(np.uint8)
        maps[np.arange(3), :, :, labels] = 1
        batch = certify_batch(maps, labels, rects, rmax)
        cert, margin, pred = certify_batch_cheap(maps, labels, rmax)
        assert np.array_equal(margin, batch.margin_cheap)
        assert np.array_equal(pred, batch.predicted)
        assert np.array_equal(cert, batch.certified_cheap)
        assert np.array_equal(pred, labels) and cert.all()


class TestWorstCaseMap:
    """certify_generic hands the aggregator each region's worst-case map:
    every cell of the dependency rectangle votes 1 for every class but the
    true one and 0 for it."""

    @staticmethod
    def worst_maps(s, c_t, regions, rects):
        seen = []

        def spy(m):
            seen.append(m.copy())
            return G_SUM.fn(m)

        certify_generic(s, c_t, regions, rects, AggregatorSpec("spy", spy))
        return seen

    def test_full_grid(self, rng):
        s = rng.integers(0, 2, size=(4, 4, 3)).astype(np.uint8)
        regions = [PatchRegion(1, 1, 2, 2)]
        rects = dependency_rects(regions, [LayerGeom(3)], 4, 4)
        assert [int(v[0]) for v in rects[:4]] == [0, 4, 0, 4]
        (out,) = self.worst_maps(s, 1, regions, rects)
        sums = out.sum(axis=(0, 1))
        assert sums[1] == 0
        assert sums[0] == 16 and sums[2] == 16

    def test_1d_example_flips_plus5_to_plus1(self):
        s, layers, regions = one_d_example()
        (wc,) = self.worst_maps(s, 0, regions, dependency_rects(regions, layers, 1, 8))
        d_wc = wc[:, :, 0].astype(int) - wc[:, :, 1].astype(int)
        assert (s[:, :, 0].astype(int) - s[:, :, 1]).sum() == 5  # clean aggregate is +5
        assert d_wc.sum() == 1


class TestRivalReduction:
    """The one rival reduction, as the global gap and the attack's selection
    read it, against plain loops; neither may change its caller's sums."""

    @pytest.mark.parametrize("dtype", [np.int32, np.int64, np.float64])
    def test_global_gap_matches_min_over_rivals(self, rng, dtype):
        sums = rng.integers(0, 6, size=(50, 4)).astype(dtype)
        if dtype == np.float64:
            sums += rng.random(sums.shape)
        labels = rng.integers(0, 4, size=50)
        before = sums.copy()
        pred, tied, gap = certify._global_gap(sums, labels)
        assert np.array_equal(sums, before)
        assert gap.dtype == np.promote_types(dtype, np.int64)
        for row, y, p, t, got in zip(sums, labels, pred, tied, gap):
            assert got == min(row[y] - row[k] for k in range(4) if k != y)
            assert p == row.argmax() and t == ((row == row.max()).sum() > 1)

    def test_weakest_matches_double_loop_and_keeps_outside(self, rng):
        outside = rng.integers(0, 5, size=(20, 3, 12)).astype(np.int32)
        labels = rng.integers(0, 3, size=20)
        before = outside.copy()
        lim, target = attack._weakest(outside, labels)
        assert np.array_equal(outside, before)
        for o, y, got in zip(outside, labels, zip(lim, target)):
            pairs = [(int(o[y, l]) - int(o[k, l]), l, k)
                     for l in range(12) for k in range(3) if k != y]
            assert tuple(int(v) for v in got) == min(pairs)[1:]


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
        res = certify_generic(s, 0, regions, dependency_rects(regions, layers, 1, 8))
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
        rects = dependency_rects([], [LayerGeom(1)], 4, 4)
        y = np.zeros(3, dtype=np.int64)
        for call in (lambda: certify_sum(s, 0, [], [LayerGeom(1)]),
                     lambda: certify_generic(s, 0, [], rects),
                     lambda: certify_batch(np.stack([s] * 3), y, rects, 0),
                     lambda: certify_batch_relaxed(np.ones((3, 4, 4, 2)), y, rects, 0)):
            with pytest.raises(ValueError, match="region set must be non-empty"):
                call()

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
            b = certify_generic(s, c_t, regions, dependency_rects(regions, layers, 7, 7),
                                G_SUM)
            assert bool(a.certified_sum) == bool(b.certified_generic)
            assert a.margin == b.margin
            assert a.limiting_region == b.limiting_region

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

    @pytest.mark.parametrize("fn, certifies", [
        # a rival's maximum inside the rectangle is 1: never certified
        (lambda m: m.max(axis=(0, 1)), False),
        # each row's votes clipped at 3, then summed over rows
        (lambda m: np.minimum(m.sum(axis=1, dtype=np.int64), 3).sum(axis=0), True),
    ], ids=["max", "row_clipped_sum"])
    def test_generic_non_sum_aggregator_matches_plain_loop(self, rng, fn, certifies):
        """Flag, margin and limiting region of a monotone aggregator other
        than the sum equal those of a plain per-region loop."""
        g = register_aggregator("under_test", fn)
        layers = [LayerGeom(3)]
        regions = enumerate_regions(7, 7, 1, 2)
        rects = dependency_rects(regions, layers, 7, 7)
        boxes = list(zip(*(v.tolist() for v in rects[:4])))
        hits = 0
        for _ in range(40):
            c = int(rng.integers(2, 4))
            c_t = int(rng.integers(0, c))
            s = random_map(rng, 7, 7, c, p_true=rng.uniform(0.5, 1.0),
                           p_other=rng.uniform(0.0, 0.3), c_t=c_t)
            got = certify_generic(s, c_t, regions, rects, g)
            sums = s.sum(axis=(0, 1), dtype=np.int64)
            clean = sums.argmax() == c_t and (sums == sums.max()).sum() == 1
            worst = None
            for region, (r0, r1, c0, c1) in zip(regions, boxes):
                wc = s.copy()
                wc[r0:r1, c0:c1, :] = 1
                wc[r0:r1, c0:c1, c_t] = 0
                scores = np.asarray(fn(wc), dtype=np.int64)
                gap = min(int(scores[c_t] - scores[k]) for k in range(c) if k != c_t)
                if worst is None or gap < worst[0]:
                    worst = (gap, region)
            assert got.margin == worst[0]
            assert got.limiting_region == worst[1]
            assert got.certified_generic == bool(clean and worst[0] > 0)
            hits += got.certified_generic
        assert (hits > 0) == certifies

    def test_generic_with_no_effect_regions(self):
        # the only dependency rectangle already votes against class 0, so its
        # worst case is the clean map: certified iff strictly dominant
        s = np.zeros((3, 3, 2), dtype=np.uint8)
        s[0, :, 0] = 1
        s[2, 2, 1] = 1
        regions = [PatchRegion(2, 2, 1, 1)]
        rects = dependency_rects(regions, [LayerGeom(1)], 3, 3)
        res = certify_generic(s, 0, regions, rects)
        assert res.certified_generic and res.margin == 3 - 1
        assert not certify_generic(s, 1, regions, rects).certified_generic

    def test_generic_rejects_rects_of_another_region_set(self):
        s = np.ones((6, 6, 2), dtype=np.uint8)
        layers = [LayerGeom(3)]
        regions = enumerate_regions(6, 6, 2, 2)
        with pytest.raises(ValueError, match="25 regions"):
            certify_generic(s, 0, regions, dependency_rects(regions[:3], layers, 6, 6))
        larger = dependency_rects(enumerate_regions(8, 8, 4, 4), layers, 8, 8)
        with pytest.raises(ValueError, match="exceed"):
            certify_generic(s, 0, regions, larger)

    def test_generic_rejects_rects_of_the_transposed_patch(self):
        # 2x3 and 3x2 patches both have 210 placements on a 16x16 grid
        s = np.ones((16, 16, 2), dtype=np.uint8)
        layers = [LayerGeom(3)]
        regions = enumerate_regions(16, 16, 2, 3)
        transposed = dependency_rects(enumerate_regions(16, 16, 3, 2), layers, 16, 16)
        assert len(transposed[0]) == len(regions) == 210
        with pytest.raises(ValueError, match="contain"):
            certify_generic(s, 0, regions, transposed)
        certify_generic(s, 0, regions, dependency_rects(regions, layers, 16, 16))

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

    @staticmethod
    def _mean(s):
        return s.mean(axis=(0, 1))

    def test_real_valued_scores_rejected(self):
        with pytest.raises(ValueError, match="'mean' must give integer class scores"):
            register_aggregator("mean", self._mean)

    def test_generic_rejects_real_valued_scores(self):
        """A spec built without the probe: truncating the mean's scores to
        int64 gave margin 0 where every worst case keeps class 0 ahead by
        34/36, and the sum certifies the same map with margin 34."""
        s = np.zeros((6, 6, 3), dtype=np.uint8)
        s[:, :, 0] = 1
        regions = enumerate_regions(6, 6, 1, 1)
        rects = dependency_rects(regions, [LayerGeom(1)], 6, 6)
        summed = certify_generic(s, 0, regions, rects, G_SUM)
        assert (summed.certified_generic, summed.margin) == (True, 34)
        with pytest.raises(ValueError, match="'mean' must give integer class scores"):
            certify_generic(s, 0, regions, rects, AggregatorSpec("mean", self._mean))
        with pytest.raises(ValueError, match="'scalar' must map"):
            certify_generic(s, 0, regions, rects,
                            AggregatorSpec("scalar", lambda m: m.sum(dtype=np.int64)))


class TestBatchPath:
    def test_agrees_with_single_path(self, rng, monkeypatch):
        layers = [LayerGeom(3), LayerGeom(3)]
        regions = enumerate_regions(8, 8, 3, 3)
        rects = dependency_rects(regions, layers, 8, 8)
        rmax = int(rects[4].max())
        maps = np.stack([random_map(rng, 8, 8, 4, p_true=rng.uniform(0.4, 1.0),
                                    p_other=rng.uniform(0.0, 0.4))
                         for _ in range(64)])
        labels = rng.integers(0, 4, size=64)
        monkeypatch.setattr(certify, "MAP_CHUNK", 17)
        batch = certify_batch(maps, labels, rects, rmax)
        cheap_only = certify_batch_cheap(maps, labels, rmax)
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


class TestChunkThreads:
    """The per-region paths give the same values and dtypes on any number of
    chunk threads, in chunk order, and leave no thread running."""

    LAYERS = [LayerGeom(3), LayerGeom(3)]
    CHUNK = 4

    @pytest.fixture
    def threads(self, monkeypatch):
        """Set PATCHCERT_THREADS on a process that may run on 4 CPUs, so the
        setting alone decides the thread count."""
        monkeypatch.setattr(certify, "MAP_CHUNK", self.CHUNK)
        monkeypatch.setattr("os.sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        monkeypatch.setattr("os.cpu_count", lambda: 4)

        def use(n):
            monkeypatch.setenv("PATCHCERT_THREADS", str(n))
        return use

    def results(self, maps, labels, relaxed):
        regions = enumerate_regions(8, 8, 3, 2)
        rects = dependency_rects(regions, self.LAYERS, 8, 8)
        rmax = int(rects[4].max())
        return (list(vars(certify_batch(maps, labels, rects, rmax)).values())
                + list(certify_batch_relaxed(relaxed, labels, rects, rmax)))

    @pytest.mark.parametrize("n", [0, 1, CHUNK - 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3])
    def test_thread_counts_agree(self, rng, threads, n):
        labels = rng.integers(0, 3, size=n)
        maps = np.zeros((n, 8, 8, 3), dtype=np.uint8)
        for i, y in enumerate(labels):
            maps[i] = random_map(rng, 8, 8, 3, p_true=rng.uniform(0.4, 1.0),
                                 p_other=rng.uniform(0.0, 0.4), c_t=int(y))
        relaxed = np.clip(maps + rng.uniform(-0.3, 0.3, size=maps.shape), 0.0, 1.0)
        threads(1)
        want = self.results(maps, labels, relaxed)
        assert all(len(v) == n for v in want)
        for k in (2, 3):
            threads(k)
            got = self.results(maps, labels, relaxed)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)

    def test_chunks_leave_the_calling_thread(self, rng, threads, monkeypatch):
        """With more than one chunk and thread the chunks run on pool
        threads, which are joined when the call returns; with one thread or
        one chunk they run on the calling thread."""
        seen = []
        inner = certify._outside_grid

        def spy(*args):
            seen.append(threading.get_ident())
            return inner(*args)

        monkeypatch.setattr(certify, "_outside_grid", spy)
        n = 3 * self.CHUNK
        maps = np.stack([random_map(rng, 8, 8, 3) for _ in range(n)])
        labels = np.zeros(n, dtype=np.int64)
        before = threading.active_count()
        for k, size, pooled in [(1, n, False), (3, self.CHUNK, False), (3, n, True)]:
            threads(k)
            seen.clear()
            self.results(maps[:size], labels[:size], maps[:size].astype(np.float64))
            assert len(seen) == 2 * (size // self.CHUNK)
            assert (threading.get_ident() not in seen) == pooled
            assert threading.active_count() == before


    @pytest.mark.parametrize("n", [0, 1, CHUNK, CHUNK + 1, 5 * CHUNK + 3])
    def test_cheap_thread_counts_agree(self, rng, threads, n, monkeypatch):
        """certify_batch_cheap counts votes chunk by chunk on the same pool,
        with the values and dtypes of one thread, and leaves no thread."""
        seen = []
        inner = certify.class_counts

        def spy(maps):
            seen.append(threading.get_ident())
            return inner(maps)

        monkeypatch.setattr(certify, "class_counts", spy)
        labels = rng.integers(0, 3, size=n)
        maps = (rng.random((n, 8, 8, 3)) < 0.3).astype(np.uint8)
        maps[np.arange(n), :, :, labels] |= (rng.random((n, 8, 8)) < 0.6).astype(np.uint8)
        before = threading.active_count()
        threads(1)
        want = certify_batch_cheap(maps, labels, 5)
        assert all(len(v) == n for v in want)
        for k in (2, 3):
            threads(k)
            seen.clear()
            got = certify_batch_cheap(maps, labels, 5)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype
                np.testing.assert_array_equal(a, b)
            assert len(seen) == max(1, -(-n // self.CHUNK))
            assert (threading.get_ident() not in seen) == (n > self.CHUNK)
            assert threading.active_count() == before

    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_bad_entry_in_the_last_chunk_rejected(self, rng, threads, k):
        """The map checks run inside the chunks: a non-binary entry or a NaN
        in the last chunk alone is still rejected, with the whole-batch
        check's message, and no thread is left running."""
        n = 3 * self.CHUNK + 2
        labels = rng.integers(0, 3, size=n)
        maps = np.stack([random_map(rng, 8, 8, 3, c_t=int(y)) for y in labels])
        regions = enumerate_regions(8, 8, 3, 2)
        rects = dependency_rects(regions, self.LAYERS, 8, 8)
        rmax = int(rects[4].max())
        maps[-1, 5, 2, 1] = 2
        relaxed = maps.astype(np.float64) / 2
        relaxed[-1, 3, 3, 0] = np.nan
        threads(k)
        before = threading.active_count()
        with pytest.raises(ValueError, match=r"^score map entries must be 0 or 1; certify "
                                             r"scores in \[0,1\] with the relaxed path$"):
            certify_batch(maps, labels, rects, rmax)
        with pytest.raises(ValueError, match=r"^score map entries must be 0 or 1; certify "
                                             r"scores in \[0,1\] with the relaxed path$"):
            certify_batch_cheap(maps, labels, rmax)
        with pytest.raises(ValueError, match=r"^relaxed score maps must lie in \[0,1\]$"):
            certify_batch_relaxed(relaxed, labels, rects, rmax)
        assert threading.active_count() == before
        maps[-1, 5, 2, 1] = 1
        relaxed[-1, 3, 3, 0] = 0.5
        certify_batch(maps, labels, rects, rmax)
        certify_batch_cheap(maps, labels, rmax)
        certify_batch_relaxed(relaxed, labels, rects, rmax)

    def test_float32_relaxed_maps_match_float64(self, rng, threads):
        """Relaxed maps are widened to float64 chunk by chunk; float32 input
        gives the outputs of the same maps passed as float64."""
        n = 3 * self.CHUNK + 1
        labels = rng.integers(0, 3, size=n)
        maps = np.stack([random_map(rng, 8, 8, 3, c_t=int(y)) for y in labels])
        relaxed = np.clip(maps + rng.uniform(-0.4, 0.4, size=maps.shape), 0.0, 1.0)
        relaxed = relaxed.astype(np.float32)
        regions = enumerate_regions(8, 8, 3, 2)
        rects = dependency_rects(regions, self.LAYERS, 8, 8)
        rmax = int(rects[4].max())
        threads(2)
        want = certify_batch_relaxed(relaxed.astype(np.float64), labels, rects, rmax)
        got = certify_batch_relaxed(relaxed, labels, rects, rmax)
        for a, b in zip(want, got):
            assert a.dtype == b.dtype
            np.testing.assert_array_equal(a, b)


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
        """Labels of any integer dtype give the int64 results. uint64 labels
        once met int64 row offsets in the rival reduction, which numpy
        promotes to float64, and every batch path raised a raw TypeError."""
        maps, rects, rmax = self.batch_case(rng)
        y = np.array([0, 1, 2, 0])
        want = self.BATCH_PATHS[path](maps, y, rects, rmax)
        for dtype in (np.uint8, np.uint16, np.uint32, np.uint64, np.int8, np.int32):
            got = self.BATCH_PATHS[path](maps, y.astype(dtype), rects, rmax)
            for a, b in zip(want, got):
                assert a.dtype == b.dtype and np.array_equal(a, b)

    @pytest.mark.parametrize("c_t", [-1, 3])
    def test_single_map_paths_reject(self, rng, c_t):
        s = rng.integers(0, 2, size=(6, 6, 3)).astype(np.uint8)
        layers = [LayerGeom(3)]
        regions = enumerate_regions(6, 6, 2, 2)
        for call in (lambda: certify_cheap(s, c_t, 4),
                     lambda: certify_sum(s, c_t, regions, layers),
                     lambda: certify_generic(s, c_t, regions,
                                             dependency_rects(regions, layers, 6, 6)),
                     lambda: select_region_and_target(s, c_t, regions, layers)):
            with pytest.raises(ValueError, match="labels"):
                call()


class TestSingleClassRejected:
    """With one class there is no rival, so no certificate means anything;
    every certification path rejects C < 2 and names the class count."""

    def test_every_path_rejects(self, rng):
        layers = [LayerGeom(3)]
        regions = enumerate_regions(6, 6, 2, 2)
        rects = dependency_rects(regions, layers, 6, 6)
        rmax = int(rects[4].max())
        maps = rng.integers(0, 2, size=(4, 6, 6, 1)).astype(np.uint8)
        y = np.zeros(4, dtype=np.int64)
        for call in (lambda: certify_batch(maps, y, rects, rmax),
                     lambda: certify_batch_cheap(maps, y, rmax),
                     lambda: certify_batch_relaxed(maps.astype(np.float64), y, rects, rmax),
                     lambda: certify_generic(maps[0], 0, regions, rects),
                     lambda: certify_cheap(maps[0], 0, rmax),
                     lambda: certify_sum(maps[0], 0, regions, layers)):
            with pytest.raises(ValueError, match="at least 2 classes, got 1"):
                call()


@st.composite
def batch_geometries(draw):
    """A layer stack, an input grid, a patch shape and a batch of binary maps
    on the stack's output grid, each leaning towards its label so that
    certificates occur."""
    layers = draw(st.lists(st.builds(LayerGeom, st.sampled_from([1, 3])),
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
    with mock.patch.object(certify, "MAP_CHUNK", chunk):
        batch = certify_batch(maps, labels, rects, rmax)
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


@settings(max_examples=100, deadline=None, database=None, derandomize=True)
@given(h_in=st.integers(1, 14), extra=st.integers(1, 6), tall=st.booleans(),
       n=st.integers(0, 7), chunk=st.integers(1, 3), c=st.integers(2, 4),
       ph=st.integers(1, 3), pw=st.integers(1, 3), subset=st.booleans(),
       seed=st.integers(0, 2 ** 32 - 1))
def test_certify_batch_matches_slicing_on_non_square_grids(h_in, extra, tall, n, chunk, c,
                                                           ph, pw, subset, seed):
    """The product grid's border entries (a full interval) are cut off on
    grids with P != Q, for empty and partial chunks, with the row-major
    region set and with a shuffled subset of it."""
    h_in, w_in = (h_in + extra, h_in) if tall else (h_in, h_in + extra)
    ph, pw = min(ph, h_in), min(pw, w_in)
    rng = np.random.default_rng(seed)
    regions = enumerate_regions(h_in, w_in, ph, pw)
    if subset:
        order = rng.permutation(len(regions))
        regions = [regions[i] for i in order[:max(1, len(order) // 2)]]
    rects = dependency_rects(regions, [LayerGeom(3)], h_in, w_in)
    labels = rng.integers(0, c, size=n)
    maps = np.stack([random_map(rng, h_in, w_in, c, p_true=rng.uniform(0.5, 1.0),
                                p_other=rng.uniform(0.0, 0.3), c_t=int(y)) for y in labels]
                    ) if n else np.zeros((0, h_in, w_in, c), dtype=np.uint8)
    with mock.patch.object(certify, "MAP_CHUNK", chunk):
        batch = certify_batch(maps, labels, rects, int(rects[4].max()))
    assert all(len(v) == n for v in vars(batch).values())
    for s, y, margin, lim in zip(maps, labels, batch.margin_sum, batch.limiting_index):
        assert (int(margin), int(lim)) == slice_margins(s, int(y), rects)


class TestUnsoundInputsRejected:
    """Relaxed maps outside [0,1] and an r_max below the largest dependency
    rectangle would let a certificate through that the bounds do not
    support; each is rejected."""

    @pytest.mark.parametrize("bad", [np.nan, -0.125, 1.125, np.inf])
    def test_relaxed_entry_outside_unit_interval(self, rng, bad):
        maps, rects, rmax = TestLabelValidation.batch_case(rng)
        relaxed = maps.astype(np.float64)
        relaxed[2, 3, 1, 0] = bad
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            certify_batch_relaxed(relaxed, np.zeros(4, dtype=np.int64), rects, rmax)

    def test_negative_r_max_for_the_global_margin(self, rng):
        s = np.zeros((4, 4, 2), dtype=np.uint8)
        s[:, :, 0] = 1
        with pytest.raises(ValueError, match="r_max"):
            certify_batch_cheap(s[None], [0], -3)
        with pytest.raises(ValueError, match="r_max"):
            certify_cheap(s, 0, -1)
        assert certify_cheap(s, 0, 0).certified_cheap

    @pytest.mark.parametrize("path", ["batch", "relaxed"])
    def test_rectangles_outside_the_map_grid(self, rng, path):
        """The rectangles of a 32x32 grid on 16x16 maps once had their inside
        sums clipped to the maps silently; every per-region path goes through
        interval_factors, which rejects them and names the map grid."""
        maps = rng.integers(0, 2, size=(4, 16, 16, 10)).astype(np.uint8)
        rects = dependency_rects(enumerate_regions(32, 32, 5, 5), [LayerGeom(3)], 32, 32)
        with pytest.raises(ValueError, match=r"exceed the \(16, 16\) grid"):
            TestLabelValidation.BATCH_PATHS[path](maps, np.zeros(4, dtype=np.int64), rects,
                                                  int(rects[4].max()))

    def test_rectangles_starting_before_the_map_grid(self):
        rects = dependency_rects(enumerate_regions(6, 6, 2, 2), [LayerGeom(3)], 6, 6)
        assert certify.interval_factors(rects, 6, 6, np.int32).index is None
        shifted = (rects[0] - 1, *rects[1:])
        with pytest.raises(ValueError, match=r"exceed the \(6, 6\) grid"):
            attack._factors(shifted, 6, 6)

    @pytest.mark.parametrize("path", ["batch", "relaxed"])
    def test_r_max_below_the_largest_rectangle(self, rng, path):
        maps, rects, rmax = TestLabelValidation.batch_case(rng)
        run = TestLabelValidation.BATCH_PATHS[path]
        with pytest.raises(ValueError, match="r_max"):
            run(maps, np.zeros(4, dtype=np.int64), rects, rmax - 1)
        run(maps, np.zeros(4, dtype=np.int64), rects, rmax)


class TestRelaxedFractions:
    """Relaxed maps in multiples of 1/8: every float64 sum is exact, so the
    decisions can be checked exactly, ties included."""

    def test_exact_ties_do_not_certify(self):
        # one_d_example's region reaches cells 0-2 (area 3, R_max 3). Outside
        # it, class 0 sums to 3.625 and class 1 to 0.625: d = 3 = area. The
        # totals are 6.625 and 0.625: gap 6 = 2 R_max. Both are ties.
        _, layers, regions = one_d_example()
        rects = dependency_rects(regions, layers, 1, 8)
        s = np.zeros((1, 8, 2))
        s[0, :, 0] = [1, 1, 1, 1, 1, 0.625, 0.5, 0.5]
        s[0, :, 1] = [0, 0, 0, 0, 0, 0.125, 0.25, 0.25]
        tie = certify_batch_relaxed(s[None], [0], rects, 3)
        assert [bool(tie[0][0]), bool(tie[1][0]), int(tie[2][0])] == [False, False, 0]
        s[0, 7, 0] += 0.125
        above = certify_batch_relaxed(s[None], [0], rects, 3)
        assert [bool(above[0][0]), bool(above[1][0])] == [True, True]


@st.composite
def fractional_relaxed_cases(draw):
    """A layer stack, an input grid, a patch shape and a batch of relaxed maps
    with entries in multiples of 1/8, drawn from a few levels so that exact
    ties between a margin and its bound occur; the true class draws from
    higher levels so that certificates occur too."""
    layers = draw(st.lists(st.builds(LayerGeom, st.sampled_from([1, 3])),
                           min_size=1, max_size=3))
    h_in, w_in = draw(st.integers(1, 10)), draw(st.integers(1, 10))
    ph, pw = draw(st.integers(1, min(3, h_in))), draw(st.integers(1, min(3, w_in)))
    c, n = draw(st.integers(2, 4)), draw(st.integers(1, 6))
    low = draw(st.lists(st.integers(0, 8), min_size=1, max_size=3, unique=True))
    high = draw(st.lists(st.integers(4, 8), min_size=1, max_size=3, unique=True))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    info = receptive_field(layers, h_in, w_in)
    labels = rng.integers(0, c, size=n)
    maps = rng.choice(low, size=(n, info.h_out, info.w_out, c)) / 8
    maps[np.arange(n), :, :, labels] = rng.choice(high, size=(n, info.h_out, info.w_out)) / 8
    return layers, h_in, w_in, ph, pw, maps, labels


@settings(max_examples=200, deadline=None, database=None, derandomize=True)
@given(fractional_relaxed_cases())
def test_relaxed_fractions_match_slicing(case):
    layers, h_in, w_in, ph, pw, maps, labels = case
    regions = enumerate_regions(h_in, w_in, ph, pw)
    rects = dependency_rects(regions, layers, h_in, w_in)
    rmax = int(rects[4].max())
    cert_s, cert_c, pred = certify_batch_relaxed(maps, labels, rects, rmax)
    deps = [dependency_region(r, layers, h_in, w_in) for r in regions]
    assert rmax == max(d.size for d in deps)
    for s, y, *got in zip(maps, labels, cert_s, cert_c, pred):
        sums = s.sum(axis=(0, 1))
        clean = int(sums.argmax()) == y and (sums == sums.max()).sum() == 1
        rivals = [k for k in range(s.shape[2]) if k != y]
        per_region = []
        for d in deps:
            out = sums - s[d.row_start:d.row_stop, d.col_start:d.col_stop].sum(axis=(0, 1))
            per_region.append(out[y] - max(out[rivals]) > d.size)
        gap = sums[y] - max(sums[rivals])
        want = [clean and all(per_region), clean and gap > 2 * rmax, int(sums.argmax())]
        assert [bool(got[0]), bool(got[1]), int(got[2])] == want


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

    def test_failed_write_leaves_the_old_blob(self, rng, tmp_path):
        """A write that fails part way, as on a full disk, leaves the blob
        that was there before whole, and no temporary file."""
        path = tmp_path / "maps.pcsm"
        save_score_maps(path, random_map(rng, 4, 4, 2))
        before = path.read_bytes()
        real_open = open

        class FullDisk:
            def __init__(self, *args, **kwargs):
                self.file = real_open(*args, **kwargs)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.file.close()

            def write(self, data):
                self.file.write(data[:len(data) // 2])
                raise OSError(errno.ENOSPC, "No space left on device")

        with mock.patch("builtins.open", FullDisk), pytest.raises(OSError, match="No space"):
            save_score_maps(path, random_map(rng, 6, 6, 3))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["maps.pcsm"]

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


class TestIntervalProducts:
    """The two-product kernel on region lists that are not the row-major
    grid of enumerate_regions, where each rectangle is looked up in the
    product grid by index, and its exact-dtype choice."""

    LAYERS = [LayerGeom(3), LayerGeom(1), LayerGeom(3)]
    H_IN, W_IN = 12, 11

    def case(self, rng):
        info = receptive_field(self.LAYERS, self.H_IN, self.W_IN)
        labels = rng.integers(0, 3, size=24)
        maps = np.stack([random_map(rng, info.h_out, info.w_out, 3,
                                    p_true=rng.uniform(0.5, 1.0),
                                    p_other=rng.uniform(0.0, 0.3), c_t=int(y))
                         for y in labels])
        return enumerate_regions(self.H_IN, self.W_IN, 3, 2), maps, labels

    @pytest.mark.parametrize("pick", ["shuffled", "subset"])
    def test_reordered_regions_match_brute_force(self, rng, pick, monkeypatch):
        regions, maps, labels = self.case(rng)
        order = rng.permutation(len(regions))
        if pick == "subset":
            order = np.sort(order[:len(order) // 3])
        chosen = [regions[i] for i in order]
        rects = dependency_rects(chosen, self.LAYERS, self.H_IN, self.W_IN)
        h_out, w_out = maps.shape[1:3]
        assert certify.interval_factors(rects, h_out, w_out, np.float32).index is not None
        monkeypatch.setattr(certify, "MAP_CHUNK", 5)
        batch = certify_batch(maps, labels, rects, int(rects[4].max()))

        deps = [dependency_region(r, self.LAYERS, self.H_IN, self.W_IN) for r in chosen]
        masks = [d.as_mask(h_out, w_out) for d in deps]
        for s, y, cert, margin, lim in zip(maps, labels, batch.certified_sum,
                                           batch.margin_sum, batch.limiting_index):
            y = int(y)
            delta = s[:, :, y:y + 1].astype(np.int64) - s
            total = delta.sum(axis=(0, 1))
            worst = []
            for d in deps:
                outside = total - naive_rect_sum(delta, d.row_start, d.row_stop,
                                                 d.col_start, d.col_stop)
                worst.append(min(int(outside[k]) for k in range(3) if k != y) - d.size)
            assert bool(cert) == brute_force_certified(s, y, masks)
            assert (int(margin), int(lim)) == (min(worst), worst.index(min(worst)))

    @pytest.mark.parametrize("pick", ["grid", "shuffled", "subset"])
    def test_full_intervals_never_limit(self, rng, pick):
        """Each map votes for its label everywhere and sparsely for rivals.
        A full-interval entry of the product grid leaves fewer true-class
        votes outside it than any rectangle (none at all for the corner), so
        it would win the argmin were it not cut off; the margins must still
        be those of the rectangles, all positive."""
        regions = enumerate_regions(self.H_IN, self.W_IN, 3, 2)
        order = rng.permutation(len(regions))
        if pick != "grid":
            regions = [regions[i] for i in (order if pick == "shuffled" else order[:5])]
        rects = dependency_rects(regions, [LayerGeom(3)], self.H_IN, self.W_IN)
        factors = certify.interval_factors(rects, self.H_IN, self.W_IN, np.float32)
        assert (factors.index is None) == (pick == "grid")
        labels = rng.integers(0, 3, size=6)
        maps = (rng.random((6, self.H_IN, self.W_IN, 3)) < 0.1).astype(np.uint8)
        maps[np.arange(6), :, :, labels] = 1
        batch = certify_batch(maps, labels, rects, int(rects[4].max()))
        assert batch.certified_sum.all()
        for s, y, margin, lim in zip(maps, labels, batch.margin_sum, batch.limiting_index):
            assert (int(margin), int(lim)) == slice_margins(s, int(y), rects)
        total, outside = certify.outside_sums(maps, factors)
        assert outside.shape == (6, 3, len(regions))
        for l, box in enumerate(zip(*(a.tolist() for a in rects[:4]))):
            for k in range(6):
                assert np.array_equal(outside[k, :, l], total[k] - naive_rect_sum(maps[k], *box))

    def test_row_major_grid_needs_no_index(self, rng):
        regions = enumerate_regions(self.H_IN, self.W_IN, 3, 2)
        rects = dependency_rects(regions, [LayerGeom(3)], self.H_IN, self.W_IN)
        factors = certify.interval_factors(rects, self.H_IN, self.W_IN, np.float32)
        assert factors.index is None
        s = rng.integers(0, 2, size=(self.H_IN, self.W_IN, 3)).astype(np.uint8)
        total, outside = certify.outside_sums(s[None], factors)
        assert total.dtype == outside.dtype == np.int32
        assert np.array_equal(total[0], s.sum(axis=(0, 1)))
        for l, box in enumerate(zip(*(a.tolist() for a in rects[:4]))):
            assert np.array_equal(outside[0, :, l], total[0] - naive_rect_sum(s, *box))

    @pytest.mark.parametrize("relaxed", [False, True], ids=["binary", "relaxed"])
    @pytest.mark.parametrize("pick", ["grid", "shuffled"])
    def test_workspace_matches_fresh_arrays(self, rng, pick, relaxed):
        """Chunks of changing size that share one workspace get the sums and
        rival reductions of fresh arrays, and `total` is not overwritten by
        the next chunk."""
        layers = [LayerGeom(3)] if pick == "grid" else self.LAYERS
        regions = enumerate_regions(self.H_IN, self.W_IN, 3, 2)
        if pick == "shuffled":
            regions = [regions[i] for i in rng.permutation(len(regions))]
        rects = dependency_rects(regions, layers, self.H_IN, self.W_IN)
        info = receptive_field(layers, self.H_IN, self.W_IN)
        maps = rng.random((24, info.h_out, info.w_out, 3))
        if not relaxed:
            maps = (maps < 0.5).astype(np.uint8)
        factors = certify.interval_factors(rects, *maps.shape[1:3],
                                           np.float64 if relaxed else np.float32)
        assert (factors.index is None) == (pick == "grid")
        labels = rng.integers(0, 3, size=len(maps))
        ws = core.Workspace()
        kept = []
        for lo, hi in [(0, 7), (7, 10), (10, 24)]:
            total, outside = certify.outside_sums(maps[lo:hi], factors, ws)
            want = certify.outside_sums(maps[lo:hi], factors)
            for got, ref in zip((total, outside), want):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            split = certify._split_rival(outside, labels[lo:hi], ws)
            for got, ref in zip(split, certify._split_rival(want[1], labels[lo:hi])):
                assert got.dtype == ref.dtype and np.array_equal(got, ref)
            if lo == 0:
                first_split = split
            elif hi - lo <= 7:  # a smaller chunk reuses the workspace's buffers
                assert all(np.shares_memory(a, b) for a, b in zip(split, first_split))
            kept.append((total, want[0]))
        for total, ref in kept:
            assert np.array_equal(total, ref)

    @pytest.mark.parametrize("shape, narrow", [((128, 128), np.int16), ((128, 129), np.int32)])
    def test_narrow_grid_exact_at_the_extremes(self, rng, shape, narrow):
        """h*w = 2**14 is the largest grid kept in int16, and one more column
        takes int32. Maps that push the per-region values to their ends (all
        ones, true class empty under a full rival, true class full under
        empty rivals) give the margins and limiting regions of slicing, as
        int64, on both sides."""
        h, w = shape
        assert certify._grid_dtype(h, w) == narrow
        regions = enumerate_regions(h, w, 100, 100)
        if len(regions) > 200:
            regions = [regions[i] for i in sorted(rng.permutation(len(regions))[:200])]
        rects = dependency_rects(regions, [LayerGeom(3)], h, w)
        rmax = int(rects[4].max())
        maps = np.zeros((6, h, w, 3), dtype=np.uint8)
        labels = np.array([0, 1, 2, 0, 1, 2])
        maps[0] = 1                                  # all ones
        maps[1, :, :, 0] = 1                         # true class empty, a rival full
        maps[2, :, :, 2] = 1                         # true class full, rivals empty
        maps[3, :, :, 0] = 1                         # full true class, one rival nearly full
        maps[3, 1:, :, 1] = 1
        maps[4:] = rng.random((2, h, w, 3)) < 0.5
        batch = certify_batch(maps, labels, rects, rmax)
        for s, y, margin, lim in zip(maps, labels, batch.margin_sum, batch.limiting_index):
            assert (int(margin), int(lim)) == slice_margins(s, int(y), rects)
        sums = maps.sum(axis=(1, 2), dtype=np.int64)
        gap = sums[np.arange(6), labels] - np.where(
            np.eye(3, dtype=bool)[labels], np.iinfo(np.int64).min, sums).max(axis=1)
        np.testing.assert_array_equal(batch.margin_cheap, gap - 2 * rmax)
        assert batch.margin_sum.dtype == batch.margin_cheap.dtype == np.int64
        assert batch.margin_sum[1] == -h * w
        assert batch.margin_sum[2] == h * w - 2 * rects[4].max()
        cheap = certify_batch_cheap(maps, labels, rmax)
        np.testing.assert_array_equal(cheap[1], batch.margin_cheap)
        assert cheap[1].dtype == np.int64
        factors = certify.interval_factors(rects, h, w, certify.exact_sum_dtype(h, w))
        total, outside = certify.outside_sums(maps, factors)
        assert total.dtype == outside.dtype == np.int32
        np.testing.assert_array_equal(total, sums)
        for l, box in enumerate(zip(*(a.tolist() for a in rects[:4]))):
            np.testing.assert_array_equal(
                outside[:, :, l], sums - maps[:, box[0]:box[1], box[2]:box[3]].sum(
                    axis=(1, 2), dtype=np.int64))

    def test_area_other_than_the_rectangle_rejected(self):
        """The narrow grid subtracts the areas in its own type, so an area
        that is not the rectangle's (here above the int16 range on a
        128x128 grid) is rejected rather than wrapped into a certificate."""
        regions = enumerate_regions(128, 128, 2, 2)[:4]
        r0, r1, c0, c1, area = dependency_rects(regions, [LayerGeom(3)], 128, 128)
        maps = np.zeros((1, 128, 128, 2), dtype=np.uint8)
        maps[0, :, :, 0] = 1
        bad = area.copy()
        bad[-1] = 40000
        with pytest.raises(ValueError, match=r"^dependency-rectangle areas must be"):
            certify_batch(maps, [0], (r0, r1, c0, c1, bad), 40000)
        bad[-1] = area[-1] + 1
        with pytest.raises(ValueError, match=r"^dependency-rectangle areas must be"):
            certify.interval_factors((r0, r1, c0, c1, bad), 128, 128, np.float32)

    def test_grid_dtype_holds_twice_the_grid(self):
        assert certify._grid_dtype(1, 2 ** 14) == np.int16
        assert certify._grid_dtype(1, 2 ** 14 + 1) == np.int32
        assert certify._grid_dtype(2 ** 15, 2 ** 15) == np.int32
        assert certify._grid_dtype(2 ** 15, 2 ** 15 + 1) == np.int64

    def test_exact_dtype_switches_at_two_to_the_24(self):
        assert certify.exact_sum_dtype(2 ** 12, 2 ** 12) == np.float32
        assert certify.exact_sum_dtype(1, 2 ** 24) == np.float32
        assert certify.exact_sum_dtype(1, 2 ** 24 + 1) == np.float64
        assert certify.exact_sum_dtype(2 ** 12 + 1, 2 ** 12) == np.float64
