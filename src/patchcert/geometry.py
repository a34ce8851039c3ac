"""Receptive-field geometry: feasible patch placements, per-layer interval
propagation, and the output rectangle a patch can influence."""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

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

    def contains(self, other: "PatchRegion") -> bool:
        return (self.top <= other.top and self.left <= other.left
                and self.top + self.height >= other.top + other.height
                and self.left + self.width >= other.left + other.width)


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
    padding: Optional[int] = None  # defaults to kernel // 2

    def __post_init__(self):
        if self.kernel not in (1, 3):
            raise ValueError(f"kernel must be 1 or 3, got {self.kernel}")
        if self.stride not in (1, 2):
            raise ValueError(f"stride must be 1 or 2, got {self.stride}")
        pad = self.kernel // 2 if self.padding is None else self.padding
        if pad != self.kernel // 2:
            raise ValueError(f"padding must equal kernel//2, got {pad} for kernel {self.kernel}")
        object.__setattr__(self, "padding", pad)


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
    stride_product: int


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
    return RFInfo(rf_h=rf, rf_w=rf, h_out=h, w_out=w, stride_product=jump)


def enumerate_regions(h_in: int, w_in: int, h_p: int, w_p: int) -> List[PatchRegion]:
    """All fully-contained h_p x w_p placements, row-major by (top, left)."""
    if h_p > h_in or w_p > w_in:
        raise ValueError(f"patch {h_p}x{w_p} does not fit inside a {h_in}x{w_in} input")
    return [PatchRegion(top=t, left=l, height=h_p, width=w_p)
            for t in range(h_in - h_p + 1)
            for l in range(w_in - w_p + 1)]


def _propagate_interval(lo: int, hi: int, size: int,
                        layers: Sequence[LayerGeom]) -> Tuple[int, int, int]:
    """Map an inclusive input interval [lo, hi] to the inclusive interval of
    output positions whose kernel windows touch it. Returns (lo, hi, out_size);
    lo > hi encodes the empty interval."""
    for layer in layers:
        n_out = _out_size(size, layer)
        if lo > hi:
            lo, hi, size = 1, 0, n_out
            continue
        # output j reads padded window [j*s - p, j*s - p + k - 1]
        k, s, p = layer.kernel, layer.stride, layer.padding
        new_lo = -((-(lo + p - k + 1)) // s)  # ceil((lo + p - k + 1)/s)
        new_hi = (hi + p) // s
        lo = max(new_lo, 0)
        hi = min(new_hi, n_out - 1)
        size = n_out
    return lo, hi, size


def dependency_region(region: PatchRegion, layers: Sequence[LayerGeom],
                      h_in: int, w_in: int) -> DependencyRegion:
    """Exact per-layer interval propagation of the patch rectangle to output
    space. For all-stride-1 stacks this reduces to the closed form
    |i - i~| <= rf//2 clipped to the grid."""
    validate_region(region, h_in, w_in)
    r_lo, r_hi, _ = _propagate_interval(
        region.top, region.top + region.height - 1, h_in, layers)
    c_lo, c_hi, _ = _propagate_interval(
        region.left, region.left + region.width - 1, w_in, layers)
    if r_lo > r_hi or c_lo > c_hi:
        return DependencyRegion(0, 0, 0, 0)
    return DependencyRegion(r_lo, r_hi + 1, c_lo, c_hi + 1)


def dependency_rects(regions: Sequence[PatchRegion], layers: Sequence[LayerGeom],
                     h_in: int, w_in: int):
    """Vectorized dependency rectangles for a region set: arrays
    (r0, r1, c0, c1, area), half-open, aligned with `regions`."""
    n = len(regions)
    r0 = np.empty(n, dtype=np.int64)
    r1 = np.empty(n, dtype=np.int64)
    c0 = np.empty(n, dtype=np.int64)
    c1 = np.empty(n, dtype=np.int64)
    for i, region in enumerate(regions):
        dep = dependency_region(region, layers, h_in, w_in)
        r0[i], r1[i], c0[i], c1[i] = dep.row_start, dep.row_stop, dep.col_start, dep.col_stop
    area = (r1 - r0) * (c1 - c0)
    return r0, r1, c0, c1, area


def r_max(regions: Sequence[PatchRegion], layers: Sequence[LayerGeom],
          h_in: int, w_in: int) -> int:
    """Largest dependency-region cardinality over the feasible set."""
    if not regions:
        raise ValueError("region set must be non-empty")
    return int(dependency_rects(regions, layers, h_in, w_in)[4].max())
