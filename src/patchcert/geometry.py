"""Receptive-field geometry of stride-1, same-padded layer stacks: feasible
patch placements, and the output rectangle a patch can influence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

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
    with its single spatial kernel): stride 1 with 'same' padding, the only
    geometry the model has."""

    kernel: int

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {self.kernel}")


@dataclass(frozen=True)
class DependencyRegion:
    """Half-open output-space rectangle of score-map cells a patch can affect."""

    row_start: int
    row_stop: int
    col_start: int
    col_stop: int

    @property
    def size(self) -> int:
        return (self.row_stop - self.row_start) * (self.col_stop - self.col_start)

    def as_mask(self, h_out: int, w_out: int) -> np.ndarray:
        mask = np.zeros((h_out, w_out), dtype=bool)
        mask[self.row_start:self.row_stop, self.col_start:self.col_stop] = True
        return mask


@dataclass(frozen=True)
class RFInfo:
    rf_h: int
    rf_w: int
    h_out: int
    w_out: int


def receptive_field(layers: Sequence[LayerGeom], h_in: int, w_in: int) -> RFInfo:
    """rf = 1 + sum(k - 1) over the layers; the output grid is the input's."""
    if not layers:
        raise ValueError("layer list must be non-empty")
    rf = 1 + sum(layer.kernel - 1 for layer in layers)
    return RFInfo(rf_h=rf, rf_w=rf, h_out=h_in, w_out=w_in)


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
    """The output rectangle a patch can affect: the one-region case of
    dependency_rects."""
    r0, r1, c0, c1, _ = (int(v[0]) for v in dependency_rects([region], layers, h_in, w_in))
    return DependencyRegion(r0, r1, c0, c1)


def dependency_rects(regions: Sequence[PatchRegion], layers: Sequence[LayerGeom],
                     h_in: int, w_in: int):
    """Vectorized dependency rectangles for a region set: arrays
    (r0, r1, c0, c1, area), half-open, aligned with `regions`. Output cell
    (i, j) reads the input cells within rf//2 of it along each axis, so a
    region grows by rf//2 per side, clipped to the grid; it is never empty."""
    boxes = np.array([(r.top, r.left, r.height, r.width) for r in regions],
                     dtype=np.int64).reshape(-1, 4)
    outside = (boxes[:, :2] + boxes[:, 2:] > (h_in, w_in)).any(axis=1)
    if outside.any():
        validate_region(regions[int(outside.argmax())], h_in, w_in)
    half = sum(layer.kernel // 2 for layer in layers)  # rf//2: each layer's padding
    r0, c0 = np.maximum(boxes[:, :2] - half, 0).T
    r1, c1 = np.minimum(boxes[:, :2] + boxes[:, 2:] + half, (h_in, w_in)).T
    return r0, r1, c0, c1, (r1 - r0) * (c1 - c0)


def r_max(regions: Sequence[PatchRegion], layers: Sequence[LayerGeom],
          h_in: int, w_in: int) -> int:
    """Largest dependency-region cardinality over the feasible set."""
    if not regions:
        raise ValueError("region set must be non-empty")
    return int(dependency_rects(regions, layers, h_in, w_in)[4].max())
