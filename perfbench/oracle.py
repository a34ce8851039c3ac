"""Independent reference certifier for the benchmark's correctness checks.

It shares no code with ``patchcert.certify`` or ``patchcert.geometry``:
dependency rectangles come from the closed form for stride-1 stacks
(|i - i~| <= rf//2, clipped to the grid), and every region's worst case is
materialized and summed in int64.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np


@dataclass(frozen=True)
class Rect:
    top: int      # patch origin in input pixels
    left: int
    r0: int       # half-open output rectangle
    r1: int
    c0: int
    c1: int

    @property
    def area(self) -> int:
        return (self.r1 - self.r0) * (self.c1 - self.c0)


def stride1_rf(stem_kernel: int, block_kernels) -> int:
    return 1 + (stem_kernel - 1) + sum(k - 1 for k in block_kernels)


def rects(h: int, w: int, ph: int, pw: int, rf: int) -> List[Rect]:
    """Row-major patch placements and the output cells each can reach, for a
    same-padded stride-1 network whose output grid equals the input grid."""
    half = rf // 2
    out = []
    for top in range(h - ph + 1):
        for left in range(w - pw + 1):
            out.append(Rect(top, left,
                            max(0, top - half), min(h, top + ph + half),
                            max(0, left - half), min(w, left + pw + half)))
    return out


@dataclass(frozen=True)
class Verdict:
    pred: int
    clean: bool        # predicted == label and no tie
    margin: int        # worst gap over regions and rivals (condition 3.2 / 3.1)
    limiting: int      # first region attaining the worst gap
    cert_sum: bool     # conditions 3.1 and 3.2 (they coincide for the sum)
    cert_global: bool  # condition 3.3


def certify(s: np.ndarray, label: int, regions: List[Rect]) -> Verdict:
    """Flip every cell of each region's rectangle against ``label`` and sum."""
    s = np.asarray(s, dtype=np.int64)
    sums = s.sum(axis=(0, 1))
    pred = int(sums.argmax())
    clean = pred == label and int((sums == sums.max()).sum()) == 1
    rivals = np.arange(s.shape[2]) != label
    worst, limiting = None, -1
    for i, r in enumerate(regions):
        wc = s.copy()
        wc[r.r0:r.r1, r.c0:r.c1, :] = 1
        wc[r.r0:r.r1, r.c0:r.c1, label] = 0
        wsums = wc.sum(axis=(0, 1))
        gap = int(wsums[label] - wsums[rivals].max())
        if worst is None or gap < worst:
            worst, limiting = gap, i
    r_max = max(r.area for r in regions)
    global_gap = int(sums[label] - sums[rivals].max()) - 2 * r_max
    return Verdict(pred=pred, clean=clean, margin=worst, limiting=limiting,
                   cert_sum=clean and worst > 0,
                   cert_global=clean and global_gap > 0)


def slice_margins(s: np.ndarray, label: int, regions: List[Rect]) -> Tuple[int, int]:
    """Condition-3.2 margin and limiting index from direct slicing sums of the
    votes outside each rectangle (no worst-case map)."""
    s = np.asarray(s, dtype=np.int64)
    total = s.sum(axis=(0, 1))
    rivals = np.arange(s.shape[2]) != label
    worst, limiting = None, -1
    for i, r in enumerate(regions):
        outside = total - s[r.r0:r.r1, r.c0:r.c1, :].sum(axis=(0, 1))
        gap = int(outside[label] - outside[rivals].max()) - r.area
        if worst is None or gap < worst:
            worst, limiting = gap, i
    return worst, limiting
