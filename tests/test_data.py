import numpy as np
import pytest

from patchcert.data import (CIFAR_RECORD, CIFAR_TEST_FILE, CIFAR_TRAIN_FILES,
                            DatasetHandle, augment,
                            decode_records, encode_records, export_records,
                            flip_horizontal, load_cifar10_split, pad_crop,
                            synth_textures)


def two_record_buffer():
    """Hand-built records with known bytes: label then R/G/B planes."""
    rec = bytearray()
    rec.append(3)
    rec.extend([10] * 1024)   # R plane
    rec.extend([20] * 1024)   # G plane
    rec.extend([255] * 1024)  # B plane
    rec2 = bytearray()
    rec2.append(9)
    rec2.extend([0] * 3072)
    return bytes(rec) + bytes(rec2)


class TestDecodeRecords:
    def test_known_bytes(self):
        images, labels = decode_records(two_record_buffer())
        assert images.shape == (2, 32, 32, 3)
        assert list(labels) == [3, 9]
        assert images[0, 0, 0, 0] == pytest.approx(10 / 255)
        assert images[0, 5, 7, 1] == pytest.approx(20 / 255)
        assert images[0, 31, 31, 2] == pytest.approx(1.0)
        assert (images[1] == 0).all()

    def test_truncated_rejected(self):
        with pytest.raises(ValueError, match="multiple"):
            decode_records(two_record_buffer()[:-10])

    def test_bad_label_rejected(self):
        buf = bytearray(two_record_buffer())
        buf[0] = 11
        with pytest.raises(ValueError, match="label"):
            decode_records(bytes(buf))

    def test_requantization_is_lossless(self, rng):
        raw = bytes([int(rng.integers(0, 10))]
                    + list(rng.integers(0, 256, size=3072))) * 1
        images, labels = decode_records(raw)
        again = encode_records(images, labels)
        assert again == raw


class TestLoadCifar10:
    def test_full_size_counts(self, tmp_path):
        # synthesized full-size files: the loader only sees sizes and bytes
        for name in CIFAR_TRAIN_FILES:
            (tmp_path / name).write_bytes(bytes(10000 * CIFAR_RECORD))
        (tmp_path / CIFAR_TEST_FILE).write_bytes(bytes(10000 * CIFAR_RECORD))
        train = load_cifar10_split(tmp_path, "train")
        test = load_cifar10_split(tmp_path, "test")
        assert len(train) == 50000
        assert len(test) == 10000
        assert train.image_shape == (32, 32, 3)

    def test_missing_file_named(self, tmp_path):
        with pytest.raises(ValueError, match="data_batch_1.bin"):
            load_cifar10_split(tmp_path, "train")

    def test_wrong_size_rejected(self, tmp_path):
        for name in CIFAR_TRAIN_FILES:
            (tmp_path / name).write_bytes(bytes(10000 * CIFAR_RECORD))
        (tmp_path / CIFAR_TEST_FILE).write_bytes(b"\x00" * 100)
        with pytest.raises(ValueError, match="multiple"):
            load_cifar10_split(tmp_path, "test")


def mean_filter_3x3(img):
    """3x3 box filter, valid region only."""
    out = np.zeros((img.shape[0] - 2, img.shape[1] - 2))
    for di in range(3):
        for dj in range(3):
            out += img[di:di + out.shape[0], dj:dj + out.shape[1], 0]
    return out / 9.0


class TestSynthTextures:
    def test_deterministic(self):
        a = synth_textures(20, 16, 16, seed=0)
        b = synth_textures(20, 16, 16, seed=0)
        assert np.array_equal(a.images, b.images)
        assert np.array_equal(a.labels, b.labels)

    def test_class_balance_exact(self):
        ds = synth_textures(25, 16, 16, seed=1)
        assert len(ds) == 50
        assert int((ds.labels == 0).sum()) == 25
        assert int((ds.labels == 1).sum()) == 25

    def test_pixels_in_domain(self):
        ds = synth_textures(10, 16, 16, seed=2)
        assert ds.images.min() >= 0.0 and ds.images.max() <= 1.0
        assert ds.images.dtype == np.float32

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="8x8"):
            synth_textures(5, 4, 16, seed=0)

    def test_linear_probe_on_mean_filtered_pixels(self):
        # ridge-regularized linear readout on 3x3-mean-filtered pixels
        # separates the orientations; threshold frozen from the first oracle run
        train = synth_textures(300, 16, 16, seed=10)
        test = synth_textures(100, 16, 16, seed=11)

        def features(ds):
            return np.stack([mean_filter_3x3(img).reshape(-1) for img in ds.images])

        ft = np.hstack([features(train), np.ones((len(train), 1))])
        target = 2.0 * train.labels - 1.0
        gram = ft.T @ ft + 10.0 * np.eye(ft.shape[1])
        w = np.linalg.solve(gram, ft.T @ target)
        fe = np.hstack([features(test), np.ones((len(test), 1))])
        pred = (fe @ w > 0).astype(np.int64)
        accuracy = float((pred == test.labels).mean())
        assert accuracy >= 0.95

    def test_export_roundtrip_layout(self, tmp_path):
        gray = synth_textures(5, 32, 32, seed=3)
        ds = DatasetHandle(np.repeat(gray.images, 3, axis=3), gray.labels, "train", gray.source)
        path = tmp_path / "synth.bin"
        export_records(ds, path)
        blob = path.read_bytes()
        assert len(blob) == len(ds) * CIFAR_RECORD
        images, labels = decode_records(blob)
        assert np.array_equal(labels, ds.labels)
        # quantization round trip: within half a byte step
        assert np.abs(images - ds.images).max() <= (0.5 / 255) + 1e-7


class TestAugment:
    def test_double_flip_is_identity(self, rng):
        img = rng.random((16, 16, 1), dtype=np.float32)
        assert np.array_equal(flip_horizontal(flip_horizontal(img)), img)

    def test_center_crop_is_identity(self, rng):
        img = rng.random((16, 16, 3), dtype=np.float32)
        assert np.array_equal(pad_crop(img, 4, 4), img)

    def test_offset_out_of_range_rejected(self, rng):
        with pytest.raises(ValueError, match="offset"):
            pad_crop(np.zeros((8, 8, 1), dtype=np.float32), 9, 0)

    def test_thousand_augmentations_stay_in_domain(self, rng):
        ds = synth_textures(10, 16, 16, seed=4)
        for i in range(1000):
            img = ds.images[i % len(ds)]
            out = augment(img, rng)
            assert out.shape == img.shape
            assert out.min() >= 0.0 and out.max() <= 1.0

    def test_deterministic_given_generator_state(self):
        ds = synth_textures(5, 16, 16, seed=5)
        a = augment(ds.images[0], np.random.default_rng(42))
        b = augment(ds.images[0], np.random.default_rng(42))
        assert np.array_equal(a, b)
