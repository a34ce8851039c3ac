"""Receptive-field geometry: feasible patch placements, per-layer interval
propagation, and the output rectangle a patch can influence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Tuple

import numpy as np


@dataclass(frozen=True)
class PatchRegion:
    """A rectangular attack region in input-pixel coordinates."""

    top: int
    left: int
    height: int
    width: int

    def __post_init__(self):
        if self.height < 1 or self.width < 1:
            raise ValueError(f"patch must be at least 1x1, got {self.height}x{self.width}")
        if self.top < 0 or self.left < 0:
            raise ValueError(f"patch origin must be non-negative, got ({self.top},{self.left})")


def validate_region(region: PatchRegion, h_in: int, w_in: int) -> None:
    if region.top + region.height > h_in or region.left + region.width > w_in:
        raise ValueError(
            f"patch {region.height}x{region.width} at ({region.top},{region.left}) "
            f"exceeds the {h_in}x{w_in} input")


@dataclass(frozen=True)
class LayerGeom:
    """Spatial geometry of one layer (a residual block counts as one entry
    with its single spatial kernel)."""

    kernel: int
    stride: int = 1

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")

    @property
    def padding(self) -> int:
        """'Same' padding, the only one the model uses."""
        return self.kernel // 2


@dataclass(frozen=True)
class DependencyRegion:
    """Half-open output-space rectangle of score-map cells a patch can affect."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def size(self) -> int:
        return max(0, self.row_stop - self.row_start) * max(0, self.col_stop - self.col_start)

    @property
    def is_empty(self) -> bool:
        return self.size == 0

    def as_mask(self, h_out: int, w_out: int) -> np.ndarray:
        mask = np.zeros((h_out, w_out), dtype=bool)
        if not self.is_empty:
            mask[self.row_start:self.row_stop, self.col_start:self.col_stop] = True
        return mask


@dataclass(frozen=True)
class RFInfo:
    rf_h: int
    rf_w: int
    h_out: int
    w_out: int


def _out_size(size: int, layer: LayerGeom) -> int:
    return (size + 2 * layer.padding - layer.kernel) // layer.stride + 1


def receptive_field(layers: Sequence[LayerGeom], h_in: int, w_in: int) -> RFInfo:
    """Compose kernel/stride geometry: rf grows by (k-1)*jump per layer and the
    jump multiplies by the stride."""
    if not layers:
        raise ValueError("layer list must be non-empty")
    rf = 1
    jump = 1
    h, w = h_in, w_in
    for layer in layers:
        rf += (layer.kernel - 1) * jump
        jump *= layer.stride
        h = _out_size(h, layer)
        w = _out_size(w, layer)
    return RFInfo(rf_h=rf, rf_w=rf, h_out=h, w_out=w)


def enumerate_regions(h_in: int, w_in: int, h_p: int, w_p: int) -> List[PatchRegion]:
    """All fully-contained h_p x w_p placements, row-major by (top, left)."""
    if h_p < 1 or w_p < 1:
        raise ValueError(f"patch {h_p}x{w_p} must be at least 1x1")
    if h_p > h_in or w_p > w_in:
        raise ValueError(f"patch {h_p}x{w_p} does not fit inside a {h_in}x{w_in} input")
    return [PatchRegion(top=t, left=l, height=h_p, width=w_p)
            for t in range(h_in - h_p + 1)
            for l in range(w_in - w_p + 1)]


def dependency_region(region: PatchRegion, layers: Sequence[LayerGeom],
                      h_in: int, w_in: int) -> DependencyRegion:
    """Exact per-layer interval propagation of the patch rectangle to output
    space. For all-stride-1 stacks this reduces to the closed form
    |i - i~| <= rf//2 clipped to the grid. The one-region case of
    dependency_rects."""
    r0, r1, c0, c1, _ = (int(v[0]) for v in dependency_rects([region], layers, h_in, w_in))
    return DependencyRegion(r0, r1, c0, c1)


def dependency_rects(regions: Sequence[PatchRegion], layers: Sequence[LayerGeom],
                     h_in: int, w_in: int):
    """Vectorized dependency rectangles for a region set: arrays
    (r0, r1, c0, c1, area), half-open, aligned with `regions`; an empty
    rectangle is (0, 0, 0, 0)."""
    boxes = np.array([(r.top, r.left, r.height, r.width) for r in regions],
                     dtype=np.int64).reshape(-1, 4)
    outside = (boxes[:, :2] + boxes[:, 2:] > (h_in, w_in)).any(axis=1)
    if outside.any():
        validate_region(regions[int(outside.argmax())], h_in, w_in)
    (r0, c0), (r1, c1) = _propagate_intervals(boxes[:, :2], boxes[:, 2:], (h_in, w_in), layers)
    return r0, r1, c0, c1, (r1 - r0) * (c1 - c0)


def _propagate_intervals(starts: np.ndarray, lengths: np.ndarray, size: Tuple[int, int],
                         layers: Sequence[LayerGeom]) -> Tuple[np.ndarray, np.ndarray]:
    """Half-open output intervals (lo, hi), each (2, n) rows then columns, of
    the (n, 2) input intervals [start, start + length) on a `size` input:
    layer by layer, as arrays, each inclusive interval becomes the one of
    output positions whose kernel windows touch it. A rectangle that becomes
    empty along either axis stays empty, and comes out as (0, 0) on both."""
    lo, hi, size = starts, starts + lengths - 1, np.array(size)
    empty = np.zeros(len(starts), dtype=bool)
    for layer in layers:
        # output j reads padded window [j*s - p, j*s - p + k - 1]
        k, s, p = layer.kernel, layer.stride, layer.padding
        size = _out_size(size, layer)
        lo = np.maximum(-(-(lo + p - k + 1) // s), 0)  # ceil((lo + p - k + 1)/s)
        hi = np.minimum((hi + p) // s, size - 1)
        empty |= (lo > hi).any(axis=1)
    return np.where(empty[:, None], 0, lo).T, np.where(empty[:, None], 0, hi + 1).T


def r_max(regions: Sequence[PatchRegion], layers: Sequence[LayerGeom],
          h_in: int, w_in: int) -> int:
    """Largest dependency-region cardinality over the feasible set."""
    if not regions:
        raise ValueError("region set must be non-empty")
    return int(dependency_rects(regions, layers, h_in, w_in)[4].max())
