import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from patchcert import certify, core, model
from patchcert.core import GradTape, Tensor
from patchcert.geometry import PatchRegion, dependency_region, receptive_field
from patchcert.model import (NetworkSpec, build_model, cifar_spec, forward,
                             load_checkpoint, save_checkpoint)

from conftest import reference_forward


@pytest.fixture(scope="module")
def small_spec():
    return cifar_spec(5, input_shape=(12, 12, 1), width=8, classes=3)


@pytest.fixture(scope="module")
def small_params(small_spec):
    return build_model(small_spec, seed=0)


class TestBuild:
    def test_deterministic(self, small_spec):
        a = build_model(small_spec, seed=0)
        b = build_model(small_spec, seed=0)
        for name in a.tensors:
            assert np.array_equal(a.tensors[name].data, b.tensors[name].data), name

    def test_seed_changes_weights(self, small_spec):
        a = build_model(small_spec, seed=0)
        b = build_model(small_spec, seed=1)
        assert not np.array_equal(a.tensors["stem.kernel"].data,
                                  b.tensors["stem.kernel"].data)

    def test_named_rf_configs_verify(self):
        for rf in (5, 7, 9, 11, 13):
            spec = cifar_spec(rf)
            info = receptive_field(spec.layer_geom(), 32, 32)
            assert info.rf_h == rf
            assert (info.h_out, info.w_out) == (32, 32)
            assert spec.output_shape() == (32, 32, 10)

    def test_strided_geoms_declared_but_not_buildable(self):
        # block_strides is kept in the spec and its checkpoint metadata, but a
        # spec with any stride other than 1 is rejected when it is made
        with pytest.raises(ValueError, match=r"block strides \(2, 1, 2, 1\).*stride-1 only"):
            NetworkSpec(name="strided", input_shape=(224, 224, 3), stem_kernel=3,
                        block_kernels=(3, 1, 3, 1), block_strides=(2, 1, 2, 1),
                        width=8, classes=10)

    def test_unknown_rf_rejected(self):
        with pytest.raises(ValueError, match="kernel table"):
            cifar_spec(6)

    def test_inconsistent_kernel_table_is_a_fault(self, monkeypatch):
        monkeypatch.setitem(model.BLOCK_KERNELS, 5, (1,) * 8)
        with pytest.raises(RuntimeError, match="derives receptive field 3"):
            cifar_spec(5)

    def test_head_is_1x1_with_class_channels(self, small_params, small_spec):
        head = small_params.tensors["head.kernel"].data
        assert head.shape == (1, 1, small_spec.width, small_spec.classes)


class TestForward:
    def test_zero_weights_give_all_ones_scores(self, small_spec):
        params = build_model(small_spec, seed=0)
        for name in params.trainable:
            params.tensors[name].data[...] = 0.0
        x = np.random.default_rng(0).random((1, 12, 12, 1), dtype=np.float32)
        logits, scores = forward(params, small_spec, x, "heaviside_st")
        assert (logits.data == 0).all()
        assert (scores.data == 1).all()  # H(0) = 1

    def test_rejects_out_of_domain_input(self, small_params, small_spec):
        x = np.full((1, 12, 12, 1), 1.5, dtype=np.float32)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            forward(small_params, small_spec, x)

    def test_rejects_a_nan_pixel(self, small_params, small_spec):
        """One NaN pixel once gave NaN logits, which the heaviside head
        turned into 0 votes, with no error."""
        x = np.random.default_rng(0).random((2, 12, 12, 1), dtype=np.float32)
        x[1, 5, 7, 0] = np.nan
        for mode in core.ACTIVATION_MODES:
            with pytest.raises(ValueError, match=r"\[0,1\]"):
                forward(small_params, small_spec, x, mode)
        with pytest.raises(ValueError, match=r"\[0,1\]"):
            model.forward_maps(small_params, small_spec, x)

    def test_rejects_wrong_shape(self, small_params, small_spec):
        with pytest.raises(ValueError, match="does not match spec"):
            forward(small_params, small_spec, np.zeros((1, 8, 8, 1), dtype=np.float32))

    def test_softmax_mode_sums_to_one(self, small_params, small_spec):
        x = np.random.default_rng(1).random((2, 12, 12, 1), dtype=np.float32)
        _, scores = forward(small_params, small_spec, x, "softmax_channel")
        np.testing.assert_allclose(scores.data.sum(axis=-1), 1.0, atol=1e-6)

    def test_deterministic(self, small_params, small_spec):
        x = np.random.default_rng(2).random((1, 12, 12, 1), dtype=np.float32)
        a = forward(small_params, small_spec, x)[0].data
        b = forward(small_params, small_spec, x)[0].data
        assert np.array_equal(a, b)

    def test_binary_head_contains_only_zero_one(self, small_params, small_spec, rng):
        x = rng.random((2, 12, 12, 1), dtype=np.float32)
        _, scores = forward(small_params, small_spec, x, "heaviside_st")
        assert set(np.unique(scores.data)) <= {0.0, 1.0}

    def test_single_pixel_containment(self, rng):
        # quick version of the receptive-field containment gate
        spec = cifar_spec(7, input_shape=(14, 14, 1), width=8, classes=2)
        params = build_model(spec, seed=3)
        layers = spec.layer_geom()
        for _ in range(5):
            x = rng.random((1, 14, 14, 1), dtype=np.float32)
            i, j = int(rng.integers(0, 14)), int(rng.integers(0, 14))
            x2 = x.copy()
            x2[0, i, j, 0] = rng.random(dtype=np.float32)
            base = forward(params, spec, x)[0].data[0]
            bumped = forward(params, spec, x2)[0].data[0]
            dep = dependency_region(PatchRegion(i, j, 1, 1), layers, 14, 14)
            outside = ~dep.as_mask(14, 14)
            assert np.array_equal(base[outside], bumped[outside])



def random_model(rf, seed, input_shape=(8, 8, 2), width=6, classes=3):
    """A scorer with random weights, affine parameters and running
    statistics."""
    spec = cifar_spec(rf, input_shape=input_shape, width=width, classes=classes)
    params = build_model(spec, seed)
    gen = np.random.default_rng(seed)
    for name, t in params.tensors.items():
        if name.endswith((".gamma", ".running_var")):
            t.data[...] = gen.uniform(0.3, 2.0, t.data.shape)
        elif name.endswith((".beta", ".running_mean", ".bias")):
            t.data[...] = gen.normal(0.0, 0.5, t.data.shape)
    return spec, params


class TestFusedForward:
    """model.forward fuses each conv -> norm (-> add) -> ReLU into one taped
    op; the unfused reference in conftest runs them one op at a time."""

    @settings(max_examples=25, deadline=None)
    @given(rf=st.sampled_from([5, 7]), batch=st.integers(1, 33),
           seed=st.integers(0, 2**31 - 1))
    def test_inference_bit_identical_to_unfused(self, rf, batch, seed):
        spec, params = random_model(rf, seed)
        x = np.random.default_rng(seed + 1).random((batch, 8, 8, 2), dtype=np.float32)
        for mode in ("heaviside_st", "sigmoid"):
            logits, scores = forward(params, spec, x, mode)
            ref_logits, ref_scores = reference_forward(params, spec, Tensor(x), mode)
            assert np.array_equal(logits.data, ref_logits.data)
            assert np.array_equal(scores.data, ref_scores.data)

    @settings(max_examples=15, deadline=None)
    @given(rf=st.sampled_from([5, 7]), batch=st.integers(1, 33),
           seed=st.integers(0, 2**31 - 1))
    def test_training_matches_unfused(self, rf, batch, seed):
        """Training mode gives the same logits, running statistics within 1e-5
        of the reference's np.mean/np.var, and gradients within 1e-4 of each
        gradient's max-abs. Gradients are compared in float64: in float32 either
        route alone is up to about 1e-4 of max-abs from a float64 run on these
        random 17-conv models, the folded gamma gradient most where the active
        outputs sit near the running mean."""
        spec, params = random_model(rf, seed)
        x = np.random.default_rng(seed + 1).random((batch, 8, 8, 2))
        weights = np.random.default_rng(seed + 2).standard_normal((batch, 8, 8, 3))
        for dtype in (np.float32, np.float64):
            runs = []
            for fwd in (forward, reference_forward):
                p = params.copy()
                for t in p.tensors.values():
                    t.data = t.data.astype(dtype)
                xt = Tensor(x.astype(dtype))
                tape = GradTape()
                logits, scores = fwd(p, spec, xt, "sigmoid", tape=tape, training=True)
                total = Tensor(np.asarray((scores.data * weights).sum(), dtype=dtype))
                tape.record(total, (scores,), lambda g: ((g * weights).astype(dtype),))
                wrt = [xt] + list(p.trainable_tensors().values())
                grads = tape.gradients(total, wrt)
                runs.append((logits.data, p, [grads[id(t)] for t in wrt]))
            (logits, fused, grads), (ref_logits, ref, ref_grads) = runs
            # the forward normalizes with the pre-update statistics
            assert np.array_equal(logits, ref_logits)
            for name in params.tensors:
                if ".running_" in name:
                    np.testing.assert_allclose(fused.tensors[name].data, ref.tensors[name].data,
                                               rtol=0, atol=1e-5, err_msg=name)
            if dtype == np.float64:
                for name, g, ref_g in zip(["input"] + list(params.trainable), grads, ref_grads):
                    assert np.abs(g - ref_g).max() <= 1e-4 * np.abs(ref_g).max(), name

    def test_one_tape_record_per_conv(self):
        spec, params = random_model(5, 0)
        tape = GradTape()
        forward(params, spec, np.zeros((2, 8, 8, 2), dtype=np.float32), tape=tape)
        convs = 1 + 2 * len(spec.block_kernels) + 1
        assert len(tape) == convs + 1  # plus the head activation

    def test_all_inside_mask_is_the_unmasked_forward(self, rng):
        # whole images are the windowed path's case with no unpadded axis:
        # the same bits, and no masking or cropping record on the tape
        spec, params = random_model(7, 4)
        x = rng.random((3, 8, 8, 2), dtype=np.float32)
        runs = []
        for inside in (None, np.ones((3, 8, 8), dtype=bool)):
            tape = GradTape()
            logits, scores = forward(params, spec, x, "sigmoid", tape=tape, inside=inside)
            runs.append((logits.data, scores.data, len(tape)))
        (logits, scores, records), (m_logits, m_scores, m_records) = runs
        assert np.array_equal(logits, m_logits) and np.array_equal(scores, m_scores)
        assert records == m_records == 1 + 2 * len(spec.block_kernels) + 1 + 1


class TestTiledForward:
    """Without a tape and without momentum, every conv runs in tiles of whole
    images; a taped forward is one tile over the whole batch, the reference
    the tiled forward must reproduce bit for bit."""

    @staticmethod
    def assert_tiles_match_one_tile(params, spec, x, modes=core.ACTIVATION_MODES, inside=None):
        for mode in modes:
            logits, scores = forward(params, spec, x, mode, inside=inside)
            ref_logits, ref_scores = forward(params, spec, x, mode, tape=GradTape(),
                                             inside=inside)
            assert logits.dtype == ref_logits.dtype and scores.dtype == ref_scores.dtype
            assert np.array_equal(logits.data, ref_logits.data), mode
            assert np.array_equal(scores.data, ref_scores.data), mode

    @pytest.mark.parametrize("side", [16, 32])
    @pytest.mark.parametrize("rf", [5, 7, 13])
    def test_untaped_forward_is_the_taped_one(self, rf, side, monkeypatch):
        # at width 8 a 3x3 conv's column matrix takes 72 KB per 16x16 image
        # and 288 KB per 32x32 one, so at the default budget a batch of 128,
        # and at 32x32 one of 37, makes unequal tiles; a budget of 1 byte
        # leaves the tiles only their CONV_TILE_MACS floor (at least 15 and 4
        # images for those convs)
        spec, params = random_model(rf, rf + side, input_shape=(side, side, 3), width=8,
                                    classes=10)
        x = np.random.default_rng(side).random((128, side, side, 3), dtype=np.float32)
        for budget in (core.CONV_TILE_BYTES, 1):
            monkeypatch.setattr(core, "CONV_TILE_BYTES", budget)
            for i, batch in enumerate((1, 8, 37, 128)):
                mode = core.ACTIVATION_MODES[i % 3]
                self.assert_tiles_match_one_tile(params, spec, x[:batch], (mode,))

    def test_untaped_forward_is_the_taped_one_at_width_64(self):
        spec, params = random_model(5, 64, input_shape=(16, 16, 3), width=64, classes=10)
        x = np.random.default_rng(64).random((128, 16, 16, 3), dtype=np.float32)
        self.assert_tiles_match_one_tile(params, spec, x)

    def test_windowed_untaped_forward_is_the_taped_one(self, monkeypatch):
        # windows of zero-padded 16x16 images: along rows 3 cells dilated by
        # rf-1 per side (convs unpadded), along columns the whole image
        rf, reach, n = 7, 6, 11
        spec, params = random_model(rf, 7, input_shape=(16, 16, 3), width=8, classes=10)
        gen = np.random.default_rng(7)
        images = gen.random((n, 16, 16, 3), dtype=np.float32)
        padded = np.pad(images, ((0, 0), (reach, reach), (0, 0), (0, 0)))
        rows = gen.integers(0, 14, size=n)[:, None] + np.arange(-reach, 3 + reach)
        windows = np.stack([padded[i, reach + rows[i]] for i in range(n)])
        inside = np.repeat(((rows >= 0) & (rows < 16))[:, :, None], 16, axis=2)
        for budget in (core.CONV_TILE_BYTES, 1):
            monkeypatch.setattr(core, "CONV_TILE_BYTES", budget)
            self.assert_tiles_match_one_tile(params, spec, windows, inside=inside)

    def test_untaped_column_matrix_stays_within_budget(self, monkeypatch):
        """At batch 128 of 16x16 images a width-64 3x3 conv's column matrix
        takes 75 MB; untaped, _im2col is never handed more than the budget,
        and each conv's tiles differ by at most one image. Taped, each conv
        is one tile of the whole batch."""
        spec = cifar_spec(7, input_shape=(16, 16, 3), width=64, classes=10)
        params = build_model(spec, 0)
        x = np.random.default_rng(0).random((128, 16, 16, 3), dtype=np.float32)
        seen = []
        im2col = core._im2col

        def spy(xp, kh, kw, cols):
            seen.append((cols.shape, cols.nbytes))
            return im2col(xp, kh, kw, cols)

        monkeypatch.setattr(core, "_im2col", spy)
        forward(params, spec, x)
        assert max(nbytes for _, nbytes in seen) <= core.CONV_TILE_BYTES
        for layer in {shape[1:] for shape, _ in seen}:
            tiles = [shape[0] for shape, _ in seen if shape[1:] == layer]
            assert max(tiles) - min(tiles) <= 1
            assert sum(tiles) == 128 * (2 if layer[-1] == 64 else 1)  # rf7: two 3x3 blocks
        assert len(seen) > 3
        seen.clear()
        forward(params, spec, x, tape=GradTape())
        assert [shape[0] for shape, _ in seen] == [128, 128, 128]


class TestTiledInputGradient:
    """A taped conv with k > 1 computes its input gradient in the forward's
    tiles of whole images: each tile's column gradient goes into a buffer
    that holds one tile and is scattered into the input gradient while in
    cache. The kernel gradient and the gamma and beta sums stay whole-batch.
    The gradients and the updated running statistics are those of one tile
    over the whole batch, bit for bit."""

    ONE_TILE = 1 << 40

    @staticmethod
    def step(params, spec, x, mode="sigmoid", inside=None):
        """Every trainable tensor's and the input's gradient of a weighted
        score total, then every model array: one training step with a
        workspace, or a windowed taped forward as the attack runs it."""
        p = params.copy()
        xt = Tensor(x)
        tape = GradTape()
        training = inside is None
        _, scores = forward(p, spec, xt, mode, tape=tape, training=training, inside=inside,
                            ws=core.Workspace() if training else None)
        weights = np.random.default_rng(len(x)).standard_normal(scores.shape)
        weights = weights.astype(scores.dtype)
        total = Tensor(np.asarray((scores.data * weights).sum(), dtype=scores.dtype))
        tape.record(total, (scores,), lambda g: (g * weights,))
        wrt = [xt] + list(p.trainable_tensors().values())
        grads = tape.gradients(total, wrt)
        assert np.abs(grads[id(xt)]).max() > 0
        return [grads[id(t)] for t in wrt] + [t.data for t in p.tensors.values()]

    def assert_budgets_agree(self, monkeypatch, params, spec, x, **kwargs):
        runs = []
        for budget in (self.ONE_TILE, core.CONV_TILE_BYTES, 1):
            monkeypatch.setattr(core, "CONV_TILE_BYTES", budget)
            runs.append(self.step(params, spec, x, **kwargs))
        for got in runs[1:]:
            for g, w in zip(got, runs[0]):
                assert g.dtype == w.dtype and np.array_equal(g, w)

    @pytest.mark.parametrize("side", [16, 32])
    @pytest.mark.parametrize("rf", [5, 7, 13])
    def test_tiled_gradients_are_the_one_tile_ones(self, rf, side, monkeypatch):
        # the budgets and batches of TestTiledForward's width-8 case: unequal
        # tiles at the default budget, only the CONV_TILE_MACS floor at 1 byte
        for i, batch in enumerate((1, 8, 37, 128)):
            channels = (1, 3)[i % 2]
            spec, params = random_model(rf, rf + side + i, width=8, classes=10,
                                        input_shape=(side, side, channels))
            x = np.random.default_rng(i).random((batch, side, side, channels), dtype=np.float32)
            self.assert_budgets_agree(monkeypatch, params, spec, x)

    @pytest.mark.parametrize("side, batch, channels", [(16, 128, 3), (16, 48, 1), (32, 8, 3)])
    def test_tiled_gradients_are_the_one_tile_ones_at_width_64(self, side, batch, channels,
                                                               monkeypatch):
        # a 3x3 conv's column gradient takes 576 KB per 16x16 image and
        # 2.25 MB per 32x32 one: tiles of 6-7 and of one image; the 1-channel
        # stem's (64, 9) gradient GEMM splits into 3 tiles of 16 images at 1 byte
        spec, params = random_model(5, side + channels, width=64, classes=10,
                                    input_shape=(side, side, channels))
        x = np.random.default_rng(64).random((batch, side, side, channels), dtype=np.float32)
        self.assert_budgets_agree(monkeypatch, params, spec, x)

    def test_windowed_tiled_gradients_are_the_one_tile_ones(self, monkeypatch):
        # TestTiledForward's windows at width 64, where the first 3x3 block's
        # conv splits the 11 windows into tiles of 5-6 images at the default
        # budget, and both blocks' 3x3 convs into tiles of one at 1 byte
        rf, reach, n = 7, 6, 11
        spec, params = random_model(rf, 7, input_shape=(16, 16, 3), width=64, classes=10)
        gen = np.random.default_rng(7)
        images = gen.random((n, 16, 16, 3), dtype=np.float32)
        padded = np.pad(images, ((0, 0), (reach, reach), (0, 0), (0, 0)))
        rows = gen.integers(0, 14, size=n)[:, None] + np.arange(-reach, 3 + reach)
        windows = np.stack([padded[i, reach + rows[i]] for i in range(n)])
        inside = np.repeat(((rows >= 0) & (rows < 16))[:, :, None], 16, axis=2)
        self.assert_budgets_agree(monkeypatch, params, spec, windows, mode="heaviside_st",
                                  inside=inside)

    def test_column_gradient_stays_within_budget(self, monkeypatch):
        """At batch 128 of 16x16 images a width-64 3x3 conv's column gradient
        takes 75 MB; _col2im is never handed more than the budget, and each
        conv's tiles differ by at most one image."""
        spec = cifar_spec(7, input_shape=(16, 16, 3), width=64, classes=10)
        params = build_model(spec, 0)
        x = np.random.default_rng(0).random((128, 16, 16, 3), dtype=np.float32)
        seen = []
        col2im = core._col2im

        def spy(gcols, gx):
            seen.append((gcols.shape, gcols.nbytes))
            col2im(gcols, gx)

        monkeypatch.setattr(core, "_col2im", spy)
        self.step(params, spec, x)
        assert max(nbytes for _, nbytes in seen) <= core.CONV_TILE_BYTES
        for layer in {shape[1:] for shape, _ in seen}:
            tiles = [shape[0] for shape, _ in seen if shape[1:] == layer]
            assert max(tiles) - min(tiles) <= 1
            assert sum(tiles) == 128 * (2 if layer[-1] == 64 else 1)  # rf7: two 3x3 blocks
        assert len(seen) > 3


class TestForwardMaps:
    def test_no_images_give_an_empty_map_array(self, small_params, small_spec):
        images = np.zeros((0, *small_spec.input_shape), dtype=np.float32)
        maps = model.forward_maps(small_params, small_spec, images)
        assert maps.shape == (0, *small_spec.output_shape()) and maps.dtype == np.float32


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, small_params, small_spec, tmp_path, rng):
        path = tmp_path / "model.pckp"
        save_checkpoint(small_params, small_spec, path, step=42)
        loaded_params, loaded_spec, step = load_checkpoint(path)
        assert step == 42
        assert loaded_spec == small_spec
        assert loaded_params.trainable == small_params.trainable
        for name, tensor in small_params.tensors.items():
            assert np.array_equal(loaded_params.tensors[name].data, tensor.data)
        x = rng.random((1, 12, 12, 1), dtype=np.float32)
        a = forward(small_params, small_spec, x)[0].data
        b = forward(loaded_params, loaded_spec, x)[0].data
        assert np.array_equal(a, b)

    def test_truncated_rejected(self, small_params, small_spec, tmp_path):
        path = tmp_path / "model.pckp"
        save_checkpoint(small_params, small_spec, path)
        blob = path.read_bytes()
        path.write_bytes(blob[:len(blob) // 2])
        with pytest.raises(ValueError, match="truncated"):
            load_checkpoint(path)

    def test_version_mismatch_names_both(self, small_params, small_spec, tmp_path):
        path = tmp_path / "model.pckp"
        save_checkpoint(small_params, small_spec, path)
        blob = bytearray(path.read_bytes())
        blob[4] = 99  # bump the stored format version
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="99.*version 1"):
            load_checkpoint(path)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "model.pckp"
        path.write_bytes(b"NOPE" + b"\x00" * 32)
        with pytest.raises(ValueError, match="magic"):
            load_checkpoint(path)

    def test_trailing_bytes_rejected(self, small_params, small_spec, tmp_path):
        path = tmp_path / "model.pckp"
        save_checkpoint(small_params, small_spec, path)
        path.write_bytes(path.read_bytes() + b"\x00")
        with pytest.raises(ValueError, match="trailing"):
            load_checkpoint(path)


class TestBinaryScores:
    def test_accepts_binary(self):
        t = Tensor(np.array([[[0.0, 1.0]]], dtype=np.float32))
        out = certify.validate_score_map(t.data)
        assert out.dtype == np.uint8

    def test_rejects_relaxed(self):
        t = Tensor(np.array([[[0.5, 1.0]]], dtype=np.float32))
        with pytest.raises(ValueError, match="0 or 1"):
            certify.validate_score_map(t.data)
