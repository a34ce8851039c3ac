import functools
import itertools

import numpy as np
import pytest

from patchcert import core, model
from patchcert.core import AdamState, GradTape, Tensor, adam_step

from conftest import central_differences, naive_conv2d, relu as reference_relu


class TestConv2d:
    def test_one_by_one_scaling(self):
        x = np.ones((1, 3, 3, 1), dtype=np.float32)
        k = np.full((1, 1, 1, 1), 2.0, dtype=np.float32)
        out = core.conv2d(x, k)
        assert out.shape == (1, 3, 3, 1)
        assert np.array_equal(out.data, np.full((1, 3, 3, 1), 2.0, dtype=np.float32))

    def test_overlap_counting(self):
        x = np.ones((1, 3, 3, 1), dtype=np.float32)
        k = np.ones((3, 3, 1, 1), dtype=np.float32)
        out = core.conv2d(x, k, padding=1).data[0, :, :, 0]
        assert out[1, 1] == 9.0
        assert out[0, 0] == 4.0
        assert out[0, 1] == 6.0

    def test_matches_naive_oracle_8x8(self, rng):
        x = rng.standard_normal((1, 8, 8, 2)).astype(np.float32)
        k = rng.standard_normal((3, 3, 2, 3)).astype(np.float32)
        got = core.conv2d(x, k, stride=1, padding=1).data
        want = naive_conv2d(x, k, stride=1, padding=1)
        np.testing.assert_allclose(got, want, atol=1e-6)

    def test_matches_naive_oracle_100_random_shapes(self, rng):
        # float64 so the 1e-6 bound measures the algorithm, not storage rounding
        for _ in range(100):
            b = int(rng.integers(1, 3))
            h = int(rng.integers(3, 9))
            w = int(rng.integers(3, 9))
            ci = int(rng.integers(1, 4))
            co = int(rng.integers(1, 4))
            k = int(rng.choice([1, 3]))
            stride = int(rng.choice([1, 2]))
            padding = k // 2
            x = rng.standard_normal((b, h, w, ci))
            kernel = rng.standard_normal((k, k, ci, co))
            got = core.conv2d(x, kernel, stride=stride, padding=padding).data
            want = naive_conv2d(x, kernel, stride=stride, padding=padding)
            assert np.abs(got - want).max() <= 1e-6

    def test_per_axis_padding_pads_each_axis(self, rng):
        # (rows, columns) padding is the conv of the input zero-padded that
        # much, forward and input gradient, bit for bit
        x = Tensor(rng.standard_normal((2, 5, 6, 2)).astype(np.float32))
        k = rng.standard_normal((3, 3, 2, 3)).astype(np.float32)
        for p, q in ((1, 0), (0, 1), (1, 2)):
            padded = Tensor(np.pad(x.data, ((0, 0), (p, p), (q, q), (0, 0))))
            tape = GradTape()
            got = core.conv2d(x, k, padding=(p, q), tape=tape)
            g_got = tape.gradients(got, [x])[id(x)]
            tape = GradTape()
            want = core.conv2d(padded, k, tape=tape)
            g_want = tape.gradients(want, [padded])[id(padded)]
            assert got.shape == (2, 3 + 2 * p, 4 + 2 * q, 3)
            assert np.array_equal(got.data, want.data)
            assert np.array_equal(g_got, g_want[:, p:p + 5, q:q + 6])
        with pytest.raises(ValueError, match="padding"):
            core.conv2d(x, k, padding=(1, -1))

    def test_channel_mismatch_names_both_shapes(self):
        x = np.zeros((1, 4, 4, 2), dtype=np.float32)
        k = np.zeros((3, 3, 3, 1), dtype=np.float32)
        with pytest.raises(ValueError, match=r"\(1, 4, 4, 2\).*\(3, 3, 3, 1\)"):
            core.conv2d(x, k)

    def test_even_kernel_rejected(self):
        with pytest.raises(ValueError, match="odd"):
            core.conv2d(np.zeros((1, 4, 4, 1), dtype=np.float32),
                        np.zeros((2, 2, 1, 1), dtype=np.float32))

    def test_backward_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((1, 5, 5, 2)))
        k = Tensor(rng.standard_normal((3, 3, 2, 2)))
        bias = Tensor(rng.standard_normal(2))
        weights = rng.standard_normal((1, 5, 5, 2))

        def loss_of(xd, kd, bd):
            out = naive_conv2d(xd, kd, stride=1, padding=1) + bd
            return float((out * weights).sum())

        tape = GradTape()
        out = core.conv2d(x, k, bias, stride=1, padding=1, tape=tape)
        final = Tensor(np.asarray((out.data * weights).sum()))
        tape.record(final, (out,), lambda g: (g * weights,))
        grads = tape.gradients(final, [x, k, bias])

        h = 1e-6
        for tensor in (x, k, bias):
            g = grads[id(tensor)]
            flat = tensor.data.reshape(-1)
            for idx in rng.choice(flat.size, size=min(6, flat.size), replace=False):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_of(x.data, k.data, bias.data)
                flat[idx] = orig - h
                down = loss_of(x.data, k.data, bias.data)
                flat[idx] = orig
                fd = (up - down) / (2 * h)
                assert abs(g.reshape(-1)[idx] - fd) < 1e-4

    def test_strided_backward_matches_finite_differences(self, rng):
        x = Tensor(rng.standard_normal((1, 6, 6, 1)))
        k = Tensor(rng.standard_normal((3, 3, 1, 2)))
        weights = rng.standard_normal((1, 3, 3, 2))

        def loss_of():
            return float((naive_conv2d(x.data, k.data, stride=2, padding=1) * weights).sum())

        tape = GradTape()
        out = core.conv2d(x, k, stride=2, padding=1, tape=tape)
        final = Tensor(np.asarray((out.data * weights).sum()))
        tape.record(final, (out,), lambda g: (g * weights,))
        grads = tape.gradients(final, [x, k])
        h = 1e-6
        for tensor in (x, k):
            g = grads[id(tensor)].reshape(-1)
            flat = tensor.data.reshape(-1)
            for idx in range(flat.size):
                orig = flat[idx]
                flat[idx] = orig + h
                up = loss_of()
                flat[idx] = orig - h
                down = loss_of()
                flat[idx] = orig
                assert abs(g[idx] - (up - down) / (2 * h)) < 1e-4


class TestActivations:
    def test_heaviside_forward_inclusive_at_zero(self):
        out = core.activation(np.array([-0.5, 0.0, 2.0], dtype=np.float32), "heaviside_st")
        assert np.array_equal(out.data, np.array([0.0, 1.0, 1.0], dtype=np.float32))

    def test_heaviside_backward_at_zero(self):
        x = Tensor(np.array([0.0], dtype=np.float64))
        tape = GradTape()
        out = core.activation(x, "heaviside_st", tape=tape)
        g = tape.gradients(out, [x])[id(x)]
        assert g[0] == pytest.approx(0.25, abs=0.0)

    def test_straight_through_independent_of_branch(self, rng):
        # backward is s(x)(1-s(x)) no matter which forward branch was taken
        x = Tensor(rng.standard_normal(1000) * 4.0)
        tape = GradTape()
        out = core.activation(x, "heaviside_st", tape=tape)
        total = Tensor(np.asarray(out.data.sum()))
        tape.record(total, (out,), lambda g: (np.broadcast_to(g, out.data.shape),))
        g = tape.gradients(total, [x])[id(x)]
        s = core.sigmoid(x.data)
        assert np.array_equal(g, s * (1.0 - s))

    def test_softmax_channel_symmetry(self):
        out = core.activation(np.zeros((2, 2, 2), dtype=np.float32), "softmax_channel")
        assert np.allclose(out.data, 0.5)
        assert np.allclose(out.data.sum(axis=-1), 1.0)

    def test_sigmoid_backward_uses_exact_derivative(self, rng):
        x = Tensor(rng.standard_normal(50))
        tape = GradTape()
        out = core.activation(x, "sigmoid", tape=tape)
        total = Tensor(np.asarray(out.data.sum()))
        tape.record(total, (out,), lambda g: (np.broadcast_to(g, out.data.shape),))
        g = tape.gradients(total, [x])[id(x)]
        s = core.sigmoid(x.data)
        np.testing.assert_allclose(g, s * (1 - s), rtol=1e-12)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError, match="unknown activation"):
            core.activation(np.zeros(3, dtype=np.float32), "tanh")


class TestTensor:
    def test_rank_limit(self):
        with pytest.raises(ValueError, match="rank"):
            Tensor(np.zeros((1, 1, 1, 1, 1)))

    def test_add_shape_mismatch(self):
        with pytest.raises(ValueError, match="mismatch"):
            core.add(np.zeros(3, dtype=np.float32), np.zeros(4, dtype=np.float32))


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        p = {"w": Tensor(np.array([1.0, -2.0], dtype=np.float32))}
        state = AdamState.init(p)
        before = p["w"].data.copy()
        adam_step(p, {"w": np.zeros(2, dtype=np.float32)}, state, lr=0.001)
        assert np.array_equal(p["w"].data, before)
        assert state.step == 1

    def test_first_step_magnitude(self):
        # closed form: lr * mhat / (sqrt(vhat) + eps) with mhat = vhat = 1
        p = {"w": Tensor(np.array([0.0], dtype=np.float64))}
        state = AdamState.init(p)
        adam_step(p, {"w": np.array([1.0], dtype=np.float64)}, state, lr=0.001)
        delta = abs(float(p["w"].data[0]))
        assert 0.0009 <= delta <= 0.001

    def test_determinism(self, rng):
        def run():
            gen = np.random.default_rng(7)
            p = {"w": Tensor(gen.standard_normal(5).astype(np.float32))}
            state = AdamState.init(p)
            for _ in range(20):
                g = gen.standard_normal(5).astype(np.float32)
                adam_step(p, {"w": g}, state, lr=0.01)
            return p["w"].data

        # bit-identical trajectories for identical seeds
        a, b = run(), run()
        assert np.array_equal(a, b)

    def test_non_finite_gradient_names_parameter(self):
        p = {"w": Tensor(np.zeros(2, dtype=np.float32)),
             "b": Tensor(np.zeros(1, dtype=np.float32))}
        state = AdamState.init(p)
        bad = {"w": np.zeros(2, dtype=np.float32),
               "b": np.array([np.nan], dtype=np.float32)}
        with pytest.raises(ValueError, match="'b'"):
            adam_step(p, bad, state, lr=0.001)
        # aborted atomically: no state advanced, no parameter touched
        assert state.step == 0
        assert np.array_equal(p["w"].data, np.zeros(2, dtype=np.float32))

    def test_gradient_shape_mismatch_is_a_fault(self):
        # a RuntimeError, so that training does not report it as divergence
        p = {"w": Tensor(np.zeros(2, dtype=np.float32))}
        with pytest.raises(RuntimeError, match="'w'"):
            adam_step(p, {"w": np.zeros(3, dtype=np.float32)}, AdamState.init(p), lr=0.001)


class TestTapeComposition:
    def test_shared_input_accumulates(self, rng):
        x = Tensor(rng.standard_normal((1, 4, 4, 2)))
        tape = GradTape()
        out = core.add(x, x, tape=tape)
        total = Tensor(np.asarray(out.data.sum()))
        tape.record(total, (out,), lambda g: (np.broadcast_to(g, out.data.shape),))
        g = tape.gradients(total, [x])[id(x)]
        assert np.allclose(g, 2.0)

    def test_fused_conv_backward(self):
        """The folded backward of conv -> norm -> + skip (-> ReLU) matches
        central finite differences in float64 on every input, and so does the
        unfused chain of conv2d, channel_affine, add and the reference ReLU."""
        for k, relu in itertools.product((3, 1), (True, False)):
            rng = np.random.default_rng(10 * k + relu)
            x = Tensor(rng.standard_normal((2, 4, 4, 3)))
            kernel = Tensor(rng.standard_normal((k, k, 3, 4)))
            gamma = Tensor(rng.standard_normal(4))
            beta = Tensor(rng.standard_normal(4))
            skip = Tensor(rng.standard_normal((2, 4, 4, 4)))
            mean = rng.standard_normal(4)
            var = rng.random(4) + 0.5
            weights = rng.standard_normal((2, 4, 4, 4))
            inputs = (x, kernel, gamma, beta, skip)

            def fused(tape=None):
                return core.conv2d(x, kernel, padding=k // 2, norm=(gamma, beta, mean, var),
                                   skip=skip, relu=relu, tape=tape)

            def unfused(tape=None):
                y = core.conv2d(x, kernel, padding=k // 2, tape=tape)
                y = core.channel_affine(y, gamma, beta, mean, var, tape=tape)
                y = core.add(y, skip, tape=tape)
                return reference_relu(y, tape=tape) if relu else y

            # ReLU is not differentiable at 0: FD steps of 1e-6 must not cross it
            pre = core.conv2d(x, kernel, padding=k // 2, norm=(gamma, beta, mean, var),
                              skip=skip)
            assert np.abs(pre.data).min() > 1e-4
            for op in (fused, unfused):
                tape = GradTape()
                out = op(tape)
                total = Tensor(np.asarray((out.data * weights).sum()))
                tape.record(total, (out,), lambda g: (g * weights,))
                grads = tape.gradients(total, inputs)
                for t in inputs:
                    fd = central_differences(lambda: float((op().data * weights).sum()), t.data)
                    np.testing.assert_allclose(grads[id(t)], fd, rtol=1e-6, atol=1e-8,
                                               err_msg=f"{op.__name__} k={k} relu={relu}")

    def test_batch_statistics_far_from_running_mean(self, rng):
        """The one-pass batch statistics stay accurate when the running mean is
        far from the batch's, where E[d]^2 nearly cancels E[d^2], and a
        constant channel's variance (-3e-17 before the clamp) is exactly 0."""
        x = 300.0 + rng.random((4, 6, 6, 2), dtype=np.float32)
        x[..., 1] = 0.1
        kernel = np.eye(2, dtype=np.float32).reshape(1, 1, 2, 2)
        z = core.conv2d(x, kernel).data.astype(np.float64)
        mean, var = np.zeros(2, dtype=np.float32), np.zeros(2, dtype=np.float32)
        norm = (np.ones(2, dtype=np.float32), np.zeros(2, dtype=np.float32), mean, var)
        core.conv2d(x, kernel, norm=norm, momentum=1.0)
        np.testing.assert_allclose(mean, z.mean(axis=(0, 1, 2)), rtol=1e-6)
        np.testing.assert_allclose(var[0], z[..., 0].var(), rtol=1e-5)
        assert var[1] == 0.0

    def test_class_sums(self, rng):
        s = Tensor(rng.random((2, 3, 4, 5)))
        tape = GradTape()
        sums = core.class_sums(s, tape=tape)
        assert sums.shape == (2, 5)
        np.testing.assert_allclose(sums.data, s.data.sum(axis=(1, 2)), rtol=1e-12)
        total = Tensor(np.asarray(sums.data.sum()))
        tape.record(total, (sums,), lambda g: (np.broadcast_to(g, sums.data.shape),))
        g = tape.gradients(total, [s])[id(s)]
        assert np.allclose(g, 1.0)


def spied_records(monkeypatch, calls):
    """Wrap every backward recorded from here on, as perfbench's tracer does,
    so that each call appends (inputs, needs or None, returned gradients)."""
    record = GradTape.record

    def spy(tape, output, inputs, backward):
        @functools.wraps(backward)
        def wrapped(*args):
            grads = backward(*args)
            calls.append((tuple(inputs), args[1] if len(args) > 1 else None, list(grads)))
            return grads
        record(tape, output, inputs, wrapped)

    monkeypatch.setattr(GradTape, "record", spy)


class TestTapeContract:
    """gradients(loss, wrt) runs only the records on a path from `wrt` and
    tells needs-aware backwards which inputs need a gradient."""

    @staticmethod
    def scorer(seed=0):
        spec = model.cifar_spec(5, input_shape=(9, 9, 2), width=6, classes=3)
        params = model.build_model(spec, seed)
        rng = np.random.default_rng(seed)
        for name, t in params.tensors.items():  # move the norms off their init
            if not name.endswith((".kernel", ".running_var")):
                t.data += (0.1 * rng.standard_normal(t.data.shape)).astype(t.data.dtype)
        return spec, params

    @staticmethod
    def weighted_total(out, tape, seed=1):
        weights = np.random.default_rng(seed).standard_normal(out.shape).astype(out.dtype)
        total = Tensor(np.asarray((out.data * weights).sum(), dtype=out.dtype))
        tape.record(total, (out,), lambda g: (g * weights,))
        return total

    def test_input_gradient_bitwise_equal_to_full_backward(self, rng):
        spec, params = self.scorer()
        x = Tensor(rng.random((3, 9, 9, 2), dtype=np.float32))
        tape = GradTape()
        _, scores = model.forward(params, spec, x, "heaviside_st", tape=tape)
        total = self.weighted_total(core.class_sums(scores, tape=tape), tape)
        only = tape.gradients(total, [x])[id(x)]
        full = tape.gradients(total, [x] + list(params.tensors.values()))[id(x)]
        assert only.dtype == full.dtype and np.array_equal(only, full)
        assert np.abs(only).max() > 0

    def test_parameter_gradients_never_formed_for_the_input(self, monkeypatch, rng):
        spec, params = self.scorer()
        calls = []
        spied_records(monkeypatch, calls)
        x = Tensor(rng.random((2, 9, 9, 2), dtype=np.float32))
        tape = GradTape()
        _, scores = model.forward(params, spec, x, "heaviside_st", tape=tape)
        tape.gradients(self.weighted_total(scores, tape), [x])
        convs = [(inputs, needs, grads) for inputs, needs, grads in calls
                 if needs is not None]
        assert len(convs) == 2 + 2 * len(spec.block_kernels)
        for inputs, needs, grads in convs:
            assert needs[0] and grads[0] is not None
            is_param = [any(t is p for p in params.tensors.values()) for t in inputs]
            assert not any(n for n, p in zip(needs, is_param) if p)
            assert all(g is None for g, p in zip(grads, is_param) if p)

    def test_training_gradients_bitwise_unchanged(self, monkeypatch, rng):
        """Parameter gradients are the same bits whether or not the image's
        gradient is also asked for; when it is not, the stem skips it."""
        spec, params = self.scorer(2)
        x = Tensor(rng.random((4, 9, 9, 2), dtype=np.float32))
        calls = []
        spied_records(monkeypatch, calls)
        tape = GradTape()
        _, scores = model.forward(params, spec, x, "sigmoid", tape=tape, training=True)
        total = self.weighted_total(core.class_sums(scores, tape=tape), tape)
        wrt = list(params.trainable_tensors().values())
        grads = tape.gradients(total, wrt)
        stem = [c for c in calls if c[0][0] is x]
        assert len(stem) == 1 and stem[0][1][0] is False and stem[0][2][0] is None
        with_x = tape.gradients(total, wrt + [x])
        for t in wrt:
            assert np.array_equal(grads[id(t)], with_x[id(t)]), t.name

    def test_records_off_the_path_do_not_run(self):
        x, c = Tensor(np.ones(3)), Tensor(np.full(3, 2.0))
        seen = []

        def fail(g):
            raise AssertionError("a record off the path from wrt ran")

        @core.takes_needs
        def mul(g, needs):
            seen.append(needs)
            return (g * c2.data if needs[0] else None, g * x.data if needs[1] else None)

        tape = GradTape()
        c2 = Tensor(c.data * 3)
        tape.record(c2, (c,), fail)
        out = Tensor(x.data * c2.data)
        tape.record(out, (x, c2), mul)
        total = Tensor(np.asarray(out.data.sum()))
        tape.record(total, (out,), lambda g: (np.broadcast_to(g, out.data.shape),))
        grads = tape.gradients(total, [x])
        assert seen == [(True, False)]
        assert np.array_equal(grads[id(x)], np.full(3, 6.0))

    def test_closure_with_keyword_defaults(self):
        x = Tensor(np.ones(2))
        out = Tensor(x.data * 2)
        tape = GradTape()

        def backward(g, scale=2.0, extra=None):
            return (g * scale,)

        tape.record(out, (x,), backward)
        total = Tensor(np.asarray(out.data.sum()))
        tape.record(total, (out,), lambda g: (np.broadcast_to(g, out.data.shape),))
        assert np.array_equal(tape.gradients(total, [x])[id(x)], np.full(2, 2.0))

    def test_intermediate_in_wrt_keeps_its_gradient(self, rng):
        """A hidden activation asked for in `wrt` keeps its gradient, summed
        over both of its consumers, although intermediate gradients are
        dropped once their record's backward has run."""
        x = Tensor(rng.standard_normal((2, 5, 5, 3)))
        k1 = Tensor(rng.standard_normal((3, 3, 3, 4)))
        k2 = Tensor(rng.standard_normal((1, 1, 4, 4)))

        def tail(hidden, tape):
            out = core.conv2d(hidden, k2, skip=hidden, relu=True, tape=tape)
            return self.weighted_total(out, tape)

        tape = GradTape()
        hidden = core.conv2d(x, k1, padding=1, relu=True, tape=tape)
        grads = tape.gradients(tail(hidden, tape), [x, hidden])
        leaf = Tensor(hidden.data.copy())
        leaf_tape = GradTape()
        want = leaf_tape.gradients(tail(leaf, leaf_tape), [leaf])[id(leaf)]
        assert np.array_equal(grads[id(hidden)], want)
        assert np.abs(want).max() > 0 and grads[id(x)] is not None


class TestWorkspace:
    """conv2d and the model write into a workspace the same bits they compute
    without one, across batch sizes that shrink and grow again."""

    BATCHES = (32, 8, 32)

    @staticmethod
    def three_convs(x, skip, p, stats, weights, ws):
        """A padded 3x3 conv, a direct 1x1 conv with a skip, both normed with
        momentum, and a direct 1x1 conv with a bias; then the gradients of
        every input and of the hidden activation between the 1x1 convs."""
        tape = GradTape()
        a = core.conv2d(x, p["ka"], padding=1, norm=(p["ga"], p["ba"], *stats[:2]),
                        relu=True, momentum=0.1, tape=tape, ws=ws, layer="a")
        hidden = core.conv2d(a, p["kb"], norm=(p["gb"], p["bb"], *stats[2:]), skip=skip,
                             relu=True, momentum=0.1, tape=tape, ws=ws, layer="b")
        out = core.conv2d(hidden, p["kc"], p["bc"], tape=tape, ws=ws, layer="c")
        total = Tensor(np.asarray((out.data * weights).sum(), dtype=out.dtype))
        tape.record(total, (out,), lambda g: (g * weights,))
        wrt = [x, skip, hidden] + list(p.values())
        grads = tape.gradients(total, wrt)
        return [a.data, hidden.data, out.data] + [grads[id(t)] for t in wrt]

    def test_conv2d_matches_without_workspace(self, rng):
        ci, c = 3, 8
        p = {"ka": rng.standard_normal((3, 3, ci, c)), "kb": rng.standard_normal((1, 1, c, c)),
             "ga": 1 + 0.1 * rng.standard_normal(c), "ba": 0.1 * rng.standard_normal(c),
             "gb": 1 + 0.1 * rng.standard_normal(c), "bb": 0.1 * rng.standard_normal(c),
             "kc": rng.standard_normal((1, 1, c, c)), "bc": rng.standard_normal(c)}
        p = {n: Tensor(v.astype(np.float32)) for n, v in p.items()}
        stats = [np.zeros(c, np.float32), np.ones(c, np.float32),
                 np.zeros(c, np.float32), np.ones(c, np.float32)]
        ref_stats = [s.copy() for s in stats]
        ws = core.Workspace()
        first_a = None
        for b in self.BATCHES:
            x = Tensor(rng.random((b, 6, 6, ci), dtype=np.float32))
            skip = Tensor(rng.standard_normal((b, 6, 6, c)).astype(np.float32))
            weights = rng.standard_normal((b, 6, 6, c)).astype(np.float32)
            got = self.three_convs(x, skip, p, stats, weights, ws)
            want = self.three_convs(x, skip, p, ref_stats, weights, None)
            for g, w in zip(got + stats, want + ref_stats):
                assert g.dtype == w.dtype and np.array_equal(g, w)
            if first_a is None:
                first_a = got[0]
            assert np.shares_memory(got[0], first_a)  # the 8-batch reuses the 32-batch's buffer

    def test_model_forward_matches_without_workspace(self, rng):
        spec = model.cifar_spec(7, input_shape=(9, 9, 2), width=6, classes=3)
        params = model.build_model(spec, 3)
        for name, t in params.tensors.items():  # move the norms off their init
            if not name.endswith((".kernel", ".running_var")):
                t.data += (0.1 * rng.standard_normal(t.data.shape)).astype(t.data.dtype)
        ref_params = params.copy()
        ws = core.Workspace()
        for b in (4, 2, 4):
            x = rng.random((b, 9, 9, 2), dtype=np.float32)
            results = []
            for prm, w in ((params, ws), (ref_params, None)):
                tape = GradTape()
                logits, scores = model.forward(prm, spec, x, "sigmoid", tape=tape,
                                               training=True, ws=w)
                total = TestTapeContract.weighted_total(core.class_sums(scores, tape=tape), tape)
                wrt = list(prm.trainable_tensors().values())
                grads = tape.gradients(total, wrt)
                results.append([logits.data, scores.data] + [grads[id(t)] for t in wrt]
                               + [t.data for t in prm.tensors.values()])
            for got, want in zip(*results):
                assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_workspace_needs_a_layer_name(self):
        with pytest.raises(ValueError, match="layer name"):
            core.conv2d(np.zeros((1, 3, 3, 1)), np.ones((1, 1, 1, 1)), ws=core.Workspace())
