import numpy as np
import pytest

from patchcert import certify, geometry, model
from patchcert import train as train_mod
from patchcert.certify import certify_cheap
from patchcert.core import GradTape, Tensor
from patchcert.data import synth_textures
from patchcert.model import build_model, cifar_spec
from patchcert.train import (EpochMetrics, MetricsLog, TrainConfig, delta_sums,
                             lr_schedule, margin_loss, one_hot_penalty,
                             total_loss, train)


def integral_loss_oracle(raw_sums, c_t, margin, area, grid=10_000):
    """Numeric integration of the uniform-prior loss over the bound radius,
    affinely rescaled into the practical margin loss: M * (L_int - 1)."""
    v = min(raw_sums[c] for c in range(len(raw_sums)) if c != c_t)
    big_r = margin * area / 2.0
    points = (np.arange(grid) + 0.5) * big_r / grid
    l_int = np.mean(v <= 2.0 * points)
    return margin * (l_int - 1.0)


class TestMarginLoss:
    def test_clamped_at_margin_with_zero_gradient(self):
        d = Tensor(np.array([[0.0, 1.0, 1.0]], dtype=np.float64))
        tape = GradTape()
        loss = margin_loss(d, np.array([0]), 0.5, tape=tape)
        assert float(loss.data) == -0.5
        g = tape.gradients(loss, [d])[id(d)]
        assert (g == 0).all()

    def test_zero_sums_give_zero_loss(self):
        d = Tensor(np.zeros((1, 3), dtype=np.float64))
        loss = margin_loss(d, np.array([0]), 0.5)
        assert float(loss.data) == 0.0

    def test_gradient_reaches_minimizing_class_only(self):
        d = Tensor(np.array([[0.0, 0.3, 0.1]], dtype=np.float64))
        tape = GradTape()
        loss = margin_loss(d, np.array([0]), 0.5, tape=tape)
        assert float(loss.data) == pytest.approx(-0.1)
        g = tape.gradients(loss, [d])[id(d)]
        assert g[0, 2] == -1.0 and g[0, 1] == 0.0 and g[0, 0] == 0.0

    def test_tie_breaks_to_lowest_class(self):
        d = Tensor(np.array([[0.0, 0.2, 0.2]], dtype=np.float64))
        tape = GradTape()
        loss = margin_loss(d, np.array([0]), 0.5, tape=tape)
        g = tape.gradients(loss, [d])[id(d)]
        assert g[0, 1] == -1.0 and g[0, 2] == 0.0

    def test_single_class_rejected(self):
        with pytest.raises(ValueError, match="2 classes"):
            margin_loss(np.zeros((1, 1), dtype=np.float64), np.array([0]), 0.5)

    def test_invalid_margin_rejected(self):
        for m in (0.0, -0.5, 1.5):
            with pytest.raises(ValueError, match="margin"):
                margin_loss(np.zeros((1, 2), dtype=np.float64), np.array([0]), m)

    def test_matches_numeric_integration_oracle(self, rng):
        # nonnegative margins: the closed form equals the integral of the
        # uniform-prior bound exactly (up to grid resolution)
        for margin in (0.25, 0.5, 0.75, 1.0):
            for _ in range(25):
                c = int(rng.integers(2, 6))
                h = int(rng.integers(2, 9))
                w = int(rng.integers(2, 9))
                area = h * w
                c_t = int(rng.integers(0, c))
                raw = rng.uniform(0.0, area, size=c)
                raw[c_t] = 0.0
                d = (raw / area)[None, :]
                d[0, c_t] = np.inf  # rival min must ignore the true class
                d[0, c_t] = 0.0
                loss = margin_loss(Tensor(d), np.array([c_t]), margin)
                want = integral_loss_oracle(raw, c_t, margin, area)
                assert abs(float(loss.data) - want) <= 1e-3

    def test_hinge_extension_below_zero(self):
        # for negative vote margins the practical loss keeps a linear slope
        # while the integral saturates at its ceiling
        area = 16
        raw = np.array([0.0, -8.0])
        d = Tensor((raw / area)[None, :])
        loss = margin_loss(d, np.array([0]), 0.5)
        assert float(loss.data) == pytest.approx(0.5)  # linear continuation
        assert integral_loss_oracle(raw, 0, 0.5, area) == pytest.approx(0.0)


class TestOneHotPenalty:
    def test_perfect_one_hot(self):
        s = Tensor(np.array([[1.0, 0.0, 0.0]]))
        assert float(one_hot_penalty(s).data) == -1.0

    def test_uniform(self):
        s = Tensor(np.full((1, 4), 0.3))
        assert float(one_hot_penalty(s).data) == 0.0

    def test_two_class_example(self):
        s = Tensor(np.array([[0.8, 0.3]]))
        assert float(one_hot_penalty(s).data) == pytest.approx(-0.5)

    def test_range_and_extremum(self, rng):
        for _ in range(200):
            s = Tensor(rng.random((1, int(rng.integers(2, 6)))))
            v = float(one_hot_penalty(s).data)
            assert -1.0 <= v <= 0.0
        assert float(one_hot_penalty(Tensor(np.array([[0.0, 1.0]]))).data) == -1.0

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            one_hot_penalty(np.array([[1.5, 0.0]]))

    @pytest.mark.parametrize("bad", [[np.nan, 0.5], [0.5, np.nan], [np.nan, np.nan]])
    def test_nan_rejected(self, bad):
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            one_hot_penalty(np.array([bad], dtype=np.float32))


class TestTotalLoss:
    def test_sigma_zero_is_margin_loss_bitwise(self, rng):
        d = Tensor(rng.random((4, 3)))
        s = Tensor(rng.random((4, 3)))
        labels = np.array([0, 1, 2, 0])
        config = TrainConfig(margin=0.5, one_hot_weight=0.0)
        a = total_loss(d, s, labels, config)
        b = margin_loss(d, labels, 0.5)
        assert a.data.tobytes() == b.data.tobytes()

    def test_sigma_one_clamped_one_hot(self):
        d = Tensor(np.array([[0.0, 1.0]]))
        s = Tensor(np.array([[1.0, 0.0]]))
        config = TrainConfig(margin=0.5, one_hot_weight=1.0)
        loss = total_loss(d, s, np.array([0]), config)
        assert float(loss.data) == pytest.approx(-0.5 - 1.0)

    def test_gradient_is_sum_of_component_gradients(self, rng):
        d = Tensor(rng.random((3, 4)))
        s = Tensor(rng.random((3, 4)) * 0.8 + 0.1)
        labels = np.array([1, 0, 3])
        config = TrainConfig(margin=0.5, one_hot_weight=0.7)
        tape = GradTape()
        loss = total_loss(d, s, labels, config, tape=tape)
        grads = tape.gradients(loss, [d, s])

        tape_m = GradTape()
        gm = tape_m.gradients(margin_loss(d, labels, 0.5, tape=tape_m), [d])[id(d)]
        tape_o = GradTape()
        go = tape_o.gradients(one_hot_penalty(s, tape=tape_o), [s])[id(s)]
        np.testing.assert_allclose(grads[id(d)], gm, rtol=1e-12)
        np.testing.assert_allclose(grads[id(s)], 0.7 * go, rtol=1e-12)


class TestDeltaSums:
    def test_values_and_true_channel(self, rng):
        sums = Tensor(np.array([[10.0, 4.0, 7.0]], dtype=np.float64))
        d = delta_sums(sums, np.array([0]), 20)
        np.testing.assert_allclose(d.data, [[0.0, 0.3, 0.15]])

    def test_backward_finite_difference(self, rng):
        sums = Tensor(rng.random((2, 3)) * 10)
        labels = np.array([0, 2])
        weights = rng.random((2, 3))
        tape = GradTape()
        d = delta_sums(sums, labels, 16, tape=tape)
        total = Tensor(np.asarray((d.data * weights).sum()))
        tape.record(total, (d,), lambda g: (g * weights,))
        g = tape.gradients(total, [sums])[id(sums)]
        h = 1e-6
        flat = sums.data.reshape(-1)
        for idx in range(flat.size):
            orig = flat[idx]
            flat[idx] = orig + h
            up = (delta_sums(sums, labels, 16).data * weights).sum()
            flat[idx] = orig - h
            down = (delta_sums(sums, labels, 16).data * weights).sum()
            flat[idx] = orig
            assert abs(g.reshape(-1)[idx] - (up - down) / (2 * h)) < 1e-6


class TestLrSchedule:
    def test_endpoints(self):
        assert lr_schedule(0, 100, 10, 0.5) == 0.0
        assert lr_schedule(10, 100, 10, 0.5) == 0.5
        assert abs(lr_schedule(100, 100, 10, 0.5)) < 1e-9

    def test_monotone_ramp_then_decay(self):
        values = [lr_schedule(s, 50, 10, 1.0) for s in range(51)]
        assert all(a <= b + 1e-12 for a, b in zip(values[:10], values[1:11]))
        assert all(a >= b - 1e-12 for a, b in zip(values[10:-1], values[11:]))

    def test_warmup_longer_than_run_rejected(self):
        with pytest.raises(ValueError, match="warmup"):
            lr_schedule(0, 10, 10, 1.0)

    def test_step_out_of_range_rejected(self):
        with pytest.raises(ValueError, match="outside"):
            lr_schedule(11, 10, 2, 1.0)


class TestLossConditionAlignment:
    def test_clamp_iff_cheap_certificate(self, rng):
        # with M = 2*r_max/area, a loss clamped with any slack is exactly a
        # condition-3.3 certificate and vice versa
        area = 36
        r_max = 4
        margin = 2 * r_max / area
        for _ in range(300):
            s = (rng.random((6, 6, 3)) < rng.uniform(0.2, 0.9, size=3)).astype(np.uint8)
            c_t = int(rng.integers(0, 3))
            sums = s.sum(axis=(0, 1), dtype=np.int64)
            raw = np.array([sums[c_t] - sums[c] for c in range(3)], dtype=np.float64)
            rival_min = min(raw[c] for c in range(3) if c != c_t)
            d = (raw / area)[None, :]
            loss = float(margin_loss(Tensor(d), np.array([c_t]), margin).data)
            cert = certify_cheap(s, c_t, r_max)
            if rival_min >= 2 * r_max + 1:  # clamped with slack
                assert loss == pytest.approx(-margin)
                assert cert.certified_cheap
            if cert.certified_cheap:
                assert loss == pytest.approx(-margin)


class TestConfig:
    def test_margin_zero_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            TrainConfig(margin=0.0)

    def test_margin_above_one_rejected(self):
        with pytest.raises(ValueError, match="margin"):
            TrainConfig(margin=1.25)


class TestMetricsLog:
    def test_ordering_invariant_enforced(self):
        log = MetricsLog()
        with pytest.raises(AssertionError, match="ordering"):
            log.append(EpochMetrics(0, clean_acc=0.5, cert32_acc=0.6, cert33_acc=0.1,
                                    loss=0.0, lr=0.0, seconds=0.0))

    def test_rows_fixed_point(self):
        log = MetricsLog()
        log.append(EpochMetrics(0, 0.5, 0.25, 0.125, -0.5, 0.001, 1.0))
        row = log.rows()[0]
        assert row == ["0", "0.500000", "0.250000", "0.125000", "-0.500000",
                       "0.001000", "1.000000"]


def tiny_train_setup(epochs=2, activation="heaviside_st", seed=0):
    ds = synth_textures(30, 12, 12, seed=0)
    spec = cifar_spec(5, input_shape=(12, 12, 1), width=8, classes=2)
    config = TrainConfig(margin=0.5, epochs=epochs, warmup_epochs=min(1, epochs - 1),
                         seed=seed, batch_size=16, activation=activation)
    return config, ds, spec


class TestTrainLoop:
    def test_deterministic_metrics(self):
        config, ds, spec = tiny_train_setup()
        a = train(config, ds, spec)
        b = train(config, ds, spec)
        for ma, mb in zip(a.metrics.epochs, b.metrics.epochs):
            assert (ma.clean_acc, ma.cert32_acc, ma.cert33_acc, ma.loss, ma.lr) == \
                   (mb.clean_acc, mb.cert32_acc, mb.cert33_acc, mb.loss, mb.lr)
        for name in a.params.tensors:
            assert np.array_equal(a.params.tensors[name].data,
                                  b.params.tensors[name].data), name

    def test_metric_ordering_every_epoch(self):
        config, ds, spec = tiny_train_setup(epochs=3)
        result = train(config, ds, spec)
        for m in result.metrics.epochs:
            assert m.cert33_acc <= m.cert32_acc <= m.clean_acc

    def test_evaluation_certifies_the_maps_certify_takes(self, monkeypatch):
        """The per-epoch certified accuracy is computed on forward_maps' maps,
        bit for bit. Batches of 64 would split these 80 images into 64 + 16,
        and a 16-image head matmul can run another BLAS kernel than an
        80-image one, with other bits in the relaxed maps."""
        spec = cifar_spec(5, input_shape=(16, 16, 1), width=64, classes=2,
                          activation="sigmoid")
        params = build_model(spec, 0)
        ds = synth_textures(40, 16, 16, seed=4)
        regions = geometry.enumerate_regions(16, 16, 3, 3)
        rects = geometry.dependency_rects(regions, spec.layer_geom(), 16, 16)
        seen = []
        real = certify.certify_batch_relaxed

        def spy(maps, *args):
            seen.append(maps.copy())
            return real(maps, *args)

        monkeypatch.setattr(certify, "certify_batch_relaxed", spy)
        train_mod._evaluate(params, spec, ds.images, ds.labels, "sigmoid", rects,
                            int(rects[4].max()))
        assert len(seen) == 1 and len(ds) == 80
        assert np.array_equal(seen[0], model.forward_maps(params, spec, ds.images))

    def test_relaxed_modes_run(self):
        for mode in ("sigmoid", "softmax_channel"):
            config, ds, spec = tiny_train_setup(epochs=1, activation=mode)
            result = train(config, ds, spec)
            assert len(result.metrics.epochs) == 1

    def test_empty_dataset_rejected(self):
        config, ds, spec = tiny_train_setup()
        empty = type(ds)(images=ds.images[:0], labels=ds.labels[:0],
                         split="train", source="empty")
        with pytest.raises(ValueError, match="empty"):
            train(config, empty, spec)

    def test_label_range_checked(self):
        config, ds, spec = tiny_train_setup()
        bad = type(ds)(images=ds.images, labels=ds.labels + 5,
                       split="train", source="bad")
        with pytest.raises(ValueError, match="classes"):
            train(config, bad, spec)

    def test_divergence_aborts_with_last_good(self, monkeypatch):
        config, ds, spec = tiny_train_setup(epochs=4)
        calls = {"n": 0}
        real = train_mod.total_loss

        def poisoned(dsums, norm_sums, labels, cfg, tape=None):
            calls["n"] += 1
            if calls["n"] > 3:
                bad = Tensor(np.asarray(np.nan, dtype=np.float32))
                if tape is not None:
                    tape.record(bad, (dsums,), lambda g: (np.zeros_like(dsums.data),))
                return bad
            return real(dsums, norm_sums, labels, cfg, tape=tape)

        monkeypatch.setattr(train_mod, "total_loss", poisoned)
        result = train_mod.train(config, ds, spec)
        assert result.metrics.diverged
        assert len(result.metrics.epochs) < 4
