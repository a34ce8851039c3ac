"""Dataset ingestion (CIFAR-10 binary batches), a synthetic oriented-texture
set for desk-scale experiments, and train-time augmentation."""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Tuple

import numpy as np

CIFAR_PLANES = (3, 32, 32)  # (c, h, w) of one record's image
CIFAR_CLASSES = 10
CIFAR_RECORD = 1 + int(np.prod(CIFAR_PLANES))  # label byte, then the planes
CIFAR_TRAIN_FILES = [f"data_batch_{i}.bin" for i in range(1, 6)]
CIFAR_TEST_FILE = "test_batch.bin"

CROP_PAD = 4


@dataclass(frozen=True)
class DatasetHandle:
    """An in-memory split with deterministic iteration order."""

    images: np.ndarray  # (n, h, w, c) float32
    labels: np.ndarray  # (n,) int64
    split: str
    source: str

    def __len__(self) -> int:
        return self.images.shape[0]

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return tuple(self.images.shape[1:])


def decode_records(buf: bytes) -> Tuple[np.ndarray, np.ndarray]:
    """Decode CIFAR-10 records (a label byte, then channel planes) into images and labels."""
    if len(buf) == 0 or len(buf) % CIFAR_RECORD != 0:
        raise ValueError(
            f"record buffer of {len(buf)} bytes is not a positive multiple of {CIFAR_RECORD}")
    raw = np.frombuffer(buf, dtype=np.uint8).reshape(-1, CIFAR_RECORD)
    labels = raw[:, 0].astype(np.int64)
    if labels.max() >= CIFAR_CLASSES:
        raise ValueError(f"label byte {labels.max()} out of range (< {CIFAR_CLASSES})")
    planes = raw[:, 1:].reshape(-1, *CIFAR_PLANES)
    images = planes.transpose(0, 2, 3, 1).astype(np.float32) / 255.0
    return images, labels


def encode_records(images: np.ndarray, labels: np.ndarray) -> bytes:
    """Inverse of decode_records: pixels are re-quantized by x255 rounding."""
    n, h, w, c = images.shape
    raw = np.empty((n, 1 + h * w * c), dtype=np.uint8)
    raw[:, 0] = labels
    planes = np.rint(images * 255.0).astype(np.uint8).transpose(0, 3, 1, 2)
    raw[:, 1:] = planes.reshape(n, -1)
    return raw.tobytes()


def export_records(ds: DatasetHandle, path) -> None:
    with open(path, "wb") as f:
        f.write(encode_records(ds.images, ds.labels))


def _load_batch(path: str) -> Tuple[np.ndarray, np.ndarray]:
    if not os.path.isfile(path):
        raise ValueError(f"missing CIFAR-10 batch file: {path}")
    with open(path, "rb") as f:
        return decode_records(f.read())


CIFAR_SPLIT_FILES = {"train": CIFAR_TRAIN_FILES, "test": [CIFAR_TEST_FILE]}


def load_cifar10_split(directory, split: str) -> DatasetHandle:
    """Load one split from the standard binary batches: "train" reads the
    five training batches and "test" only the test batch."""
    directory = str(directory)
    parts = [_load_batch(os.path.join(directory, name))
             for name in CIFAR_SPLIT_FILES[split]]
    images, labels = parts[0] if len(parts) == 1 else map(np.concatenate, zip(*parts))
    return DatasetHandle(images, labels, split, f"cifar10:{directory}")


def synth_textures(n_per_class: int, h: int, w: int, seed: int,
                   split: str = "train") -> DatasetHandle:
    """Two-class oriented-stripe dataset: horizontal versus vertical stripes
    with per-image phase jitter, contrast variation, and pixel noise. Local
    3x3 neighborhoods carry the class signal, so small receptive fields
    suffice by construction."""
    if h < 8 or w < 8:
        raise ValueError(f"images must be at least 8x8, got {h}x{w}")
    rng = np.random.default_rng(seed)
    n = 2 * n_per_class
    period = 8.0
    amp = rng.uniform(0.25, 0.45, size=n).astype(np.float32)
    phase = rng.uniform(-1.0, 1.0, size=n).astype(np.float32)
    labels = np.repeat(np.arange(2, dtype=np.int64), n_per_class)
    rows = np.arange(h, dtype=np.float32)[None, :, None]
    cols = np.arange(w, dtype=np.float32)[None, None, :]
    coord = np.where(labels[:, None, None] == 0, rows, cols)
    waves = np.cos(2.0 * np.pi * (coord + phase[:, None, None]) / period)
    images = 0.5 + amp[:, None, None] * waves
    images += rng.normal(0.0, 0.02, size=images.shape).astype(np.float32)
    images = np.clip(images, 0.0, 1.0).astype(np.float32)[..., None]
    order = rng.permutation(n)
    return DatasetHandle(images[order], labels[order], split,
                         f"synth:{n_per_class}x2@{h}x{w}/seed{seed}")


# ---------------------------------------------------------------------------
# augmentation

def flip_horizontal(pixels: np.ndarray) -> np.ndarray:
    return pixels[:, ::-1, :].copy()


def pad_crop(pixels: np.ndarray, top: int, left: int) -> np.ndarray:
    """Zero-pad CROP_PAD on every side, then crop the original size at (top,
    left); offset (CROP_PAD, CROP_PAD) reproduces the input."""
    h, w, _ = pixels.shape
    if not (0 <= top <= 2 * CROP_PAD and 0 <= left <= 2 * CROP_PAD):
        raise ValueError(f"crop offset ({top},{left}) outside [0,{2 * CROP_PAD}]")
    padded = np.pad(pixels, ((CROP_PAD, CROP_PAD), (CROP_PAD, CROP_PAD), (0, 0)))
    return padded[top:top + h, left:left + w, :].copy()


def augment(pixels: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Random horizontal flip then random crop on a zero-padded canvas, of
    one (h, w, c) image."""
    if rng.random() < 0.5:
        pixels = flip_horizontal(pixels)
    top = int(rng.integers(0, 2 * CROP_PAD + 1))
    left = int(rng.integers(0, 2 * CROP_PAD + 1))
    return pad_crop(pixels, top, left)
