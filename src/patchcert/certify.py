"""Certification of score maps against patch attacks.

Three checks of decreasing cost: a generic worst-case sweep for any monotone
aggregator, a per-region sum check driven by summed-area tables, and a single
global-margin comparison. All certificate arithmetic is integer-exact.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .geometry import (DependencyRegion, LayerGeom, PatchRegion,
                       dependency_rects, dependency_region)

SCORE_MAP_MAGIC = b"PCSM"


def validate_score_map(s: np.ndarray) -> np.ndarray:
    """Check a (h,w,c) array is a binary score map; returns it as uint8."""
    s = np.asarray(s)
    if s.ndim != 3:
        raise ValueError(f"score map must be (h_out, w_out, c_out), got shape {s.shape}")
    if s.dtype != np.uint8:
        cast = s.astype(np.uint8)
        if not np.array_equal(cast.astype(s.dtype), s):
            raise ValueError("score map entries must be 0 or 1")
        s = cast
    if s.max(initial=0) > 1:
        raise ValueError("score map entries must be 0 or 1")
    return s


def classify(s: np.ndarray) -> Tuple[int, np.ndarray]:
    """Aggregate votes per class: S_c = sum over (i,j) of s[i,j,c].

    Returns (argmax class, raw integer score vector). Ties break to the lowest
    class index; tied predictions are never certifiable.
    """
    s = validate_score_map(s)
    sums = s.sum(axis=(0, 1), dtype=np.int64)
    return int(sums.argmax()), sums


def is_tied(sums: np.ndarray) -> bool:
    top = sums.max()
    return int((sums == top).sum()) > 1


def delta_map(s: np.ndarray, c_t: int) -> np.ndarray:
    """Per-cell vote margin: delta[i,j,c] = s[i,j,c_t] - s[i,j,c] (int8)."""
    s = validate_score_map(s)
    validate_labels([c_t], 1, s.shape[2])
    return (s[:, :, c_t:c_t + 1].astype(np.int8) - s.astype(np.int8))


def worst_case_map(s: np.ndarray, c_t: int, region: DependencyRegion) -> np.ndarray:
    """Scores with every cell inside the dependency region flipped maximally
    against class c_t: 1 for c != c_t, 0 for c == c_t."""
    s = validate_score_map(s)
    if not region.is_empty and (region.row_stop > s.shape[0] or region.col_stop > s.shape[1]
                                or region.row_start < 0 or region.col_start < 0):
        raise ValueError(f"dependency region {region} exceeds the {s.shape[:2]} grid")
    return _flip_against(s, c_t, _slices(region))


def _slices(region: DependencyRegion) -> Tuple[slice, slice]:
    return (slice(region.row_start, region.row_stop),
            slice(region.col_start, region.col_stop))


def _flip_against(s: np.ndarray, c_t: int, idx: tuple) -> np.ndarray:
    """Copy of s whose cells at the (h, w) index tuple idx (two slices or a
    boolean mask) vote 1 for every class but c_t and 0 for c_t."""
    out = s.copy()
    out[idx] = 1
    out[idx + (c_t,)] = 0
    return out


# ---------------------------------------------------------------------------
# summed-area kernel shared by every sum-condition path

def validate_labels(labels, b: int, c: int) -> np.ndarray:
    """Check labels are a (b,) integer array with every entry in [0, c)."""
    labels = np.asarray(labels)
    if labels.shape != (b,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be a ({b},) integer array, got shape "
                         f"{labels.shape} and dtype {labels.dtype}")
    if b and not (labels.min() >= 0 and labels.max() < c):
        raise ValueError(f"labels must lie in [0, {c}), got labels from "
                         f"{labels.min()} to {labels.max()}")
    return labels


def build_integral_image(x: np.ndarray, dtype=np.int32) -> np.ndarray:
    """Per-class summed-area table of (..., h, w, c) values; entry
    [..., i, j, :] holds the sum over the half-open rectangle [0,i) x [0,j).
    Shape (..., h+1, w+1, c). `dtype` must hold every sum exactly: int16 or
    int32 for binary maps, float64 for relaxed maps."""
    x = np.asarray(x)
    *lead, h, w, c = x.shape
    table = np.zeros((*lead, h + 1, w + 1, c), dtype=dtype)
    table[..., 1:, 1:, :] = x.cumsum(axis=-3, dtype=dtype).cumsum(axis=-2, dtype=dtype)
    return table


def region_sum(table: np.ndarray, r0, r1, c0, c1) -> np.ndarray:
    """Per-class sum over the half-open rectangle [r0,r1) x [c0,c1): 4 lookups.
    Corners may be (L,) index arrays; a (..., h+1, w+1, c) table then gives
    (..., L, c)."""
    return (table[..., r1, c1, :] - table[..., r0, c1, :]
            - table[..., r1, c0, :] + table[..., r0, c0, :])


def outside_sums(maps: np.ndarray, rects: Tuple[np.ndarray, ...],
                 dtype) -> Tuple[np.ndarray, np.ndarray]:
    """Class sums of (..., h, w, c) maps outside each dependency rectangle
    (from geometry.dependency_rects). Returns (total, outside) of shapes
    (..., c) and (..., L, c); the table is built in `dtype` and the
    differences are taken in at least int32."""
    r0, r1, c0, c1, _ = rects
    table = build_integral_image(maps, dtype)
    total = table[..., -1, -1, :].astype(np.promote_types(dtype, np.int32))
    return total, total[..., None, :] - region_sum(table, r0, r1, c0, c1)


def _split_rival(outside: np.ndarray, labels: np.ndarray):
    """(n, L, C) outside sums -> (true-class sum, strongest rival sum), each
    (n, L). Overwrites the true-class entries of `outside`."""
    rows = np.arange(len(labels))
    out_true = outside[rows, :, labels]
    # for integers half the range, so that true minus it stays representable
    outside[rows, :, labels] = (-np.inf if outside.dtype.kind == "f"
                                else np.iinfo(outside.dtype).min // 2)
    return out_true, outside.max(axis=2)


def _global_gap(sums: np.ndarray, labels: np.ndarray):
    """(predicted, tied, true-class sum minus the strongest rival) for each
    row of (n, C) class sums. Ties break to the lowest class index."""
    rows = np.arange(len(labels))
    pred = sums.argmax(axis=1)
    tied = (sums == sums.max(axis=1)[:, None]).sum(axis=1) > 1
    gap = sums[rows, labels][:, None] - sums
    gap[rows, labels] = np.inf if gap.dtype.kind == "f" else np.iinfo(gap.dtype).max
    return pred, tied, gap.min(axis=1)


# Maps per chunk for certify_batch and certify_batch_relaxed. At 8 maps the
# (chunk, L, C) temporaries of 32x32x10 maps at |L|=784 take 250-500 KB, so
# they stay in a core's L2 cache and are reused from the heap without page
# faults; 256-map chunks (8-16 MB temporaries) ran slower and spread wider
# from run to run on a shared 2-vCPU Xeon VM.
MAP_CHUNK = 8


def _by_chunk(fn, labels: np.ndarray, maps: np.ndarray, chunk: int) -> List[np.ndarray]:
    """fn(labels, maps) on consecutive chunks, each of its (n,) outputs
    concatenated; an empty batch still runs once to give typed outputs."""
    parts = [fn(labels[lo:lo + chunk], maps[lo:lo + chunk])
             for lo in range(0, max(len(labels), 1), chunk)]
    return [np.concatenate(col) for col in zip(*parts)]


@dataclass(frozen=True)
class CertificationResult:
    """Outcome of certifying one score map against one feasible region set.

    `margin` is the worst-case integer score gap min over regions and classes
    of g(s_wc)_{c_t} - g(s_wc)_c; certification requires it to be positive and
    the clean prediction to equal c_t (without ties). Flags are None for
    conditions that were not evaluated.
    """

    predicted: int
    tied: bool
    certified_generic: Optional[bool] = None
    certified_sum: Optional[bool] = None
    certified_cheap: Optional[bool] = None
    margin: int = 0
    limiting_region: Optional[PatchRegion] = None


def _clean_ok(pred: int, tied: bool, c_t: int) -> bool:
    return pred == c_t and not tied


def certify_sum(s: np.ndarray, c_t: int, regions: Sequence[PatchRegion],
                layers: Sequence[LayerGeom]) -> CertificationResult:
    """Per-region check for the sum aggregator: for every feasible region the
    delta votes outside its dependency rectangle must exceed the rectangle
    area. The single-map case of certify_batch."""
    s = validate_score_map(s)
    if not regions:
        raise ValueError("region set must be non-empty")
    h, w, _ = s.shape
    rects = dependency_rects(regions, layers, h, w)
    res = certify_batch(s[None], [c_t], rects, int(rects[4].max()))
    return CertificationResult(
        predicted=int(res.predicted[0]), tied=bool(res.tied[0]),
        certified_sum=bool(res.certified_sum[0]), margin=int(res.margin_sum[0]),
        limiting_region=regions[int(res.limiting_index[0])])


def certify_cheap(s: np.ndarray, c_t: int, r_max: int) -> CertificationResult:
    """Constant-time check: the global delta sum of every rival class must
    exceed twice the largest dependency-region cardinality."""
    s = validate_score_map(s)
    labels = validate_labels([c_t], 1, s.shape[2])
    pred, tied, gap = _global_gap(s.sum(axis=(0, 1), dtype=np.int64)[None], labels)
    pred, tied, margin = int(pred[0]), bool(tied[0]), int(gap[0] - 2 * r_max)
    return CertificationResult(
        predicted=pred, tied=tied,
        certified_cheap=bool(margin > 0 and _clean_ok(pred, tied, c_t)),
        margin=margin, limiting_region=None)


# ---------------------------------------------------------------------------
# generic aggregators

@dataclass(frozen=True)
class AggregatorSpec:
    """A registered monotone aggregation from score maps to class scores."""

    name: str
    fn: Callable[[np.ndarray], np.ndarray]


def _sum_aggregator(s: np.ndarray) -> np.ndarray:
    return np.asarray(s, dtype=np.int64).sum(axis=(0, 1))


G_SUM = AggregatorSpec(name="sum", fn=_sum_aggregator)


def register_aggregator(name: str, fn: Callable[[np.ndarray], np.ndarray], *,
                        probe_trials: int = 64, seed: int = 0) -> AggregatorSpec:
    """Register an aggregator after a randomized monotonicity probe: for score
    maps with s1 >= s2 elementwise, g(s1)_c >= g(s2)_c must hold per class."""
    rng = np.random.default_rng(seed)
    for _ in range(probe_trials):
        h, w, c = rng.integers(2, 7), rng.integers(2, 7), rng.integers(2, 5)
        s2 = rng.integers(0, 2, size=(h, w, c)).astype(np.uint8)
        s1 = np.maximum(s2, rng.integers(0, 2, size=(h, w, c)).astype(np.uint8))
        g1 = np.asarray(fn(s1), dtype=np.float64)
        g2 = np.asarray(fn(s2), dtype=np.float64)
        if g1.shape != (c,) or g2.shape != (c,):
            raise ValueError(f"aggregator {name!r} must map (h,w,c) to (c,) class scores")
        if not (g1 >= g2).all():
            raise ValueError(f"aggregator {name!r} failed the monotonicity probe")
    return AggregatorSpec(name=name, fn=fn)


def certify_generic(s: np.ndarray, c_t: int, regions: Sequence[PatchRegion],
                    layers: Sequence[LayerGeom],
                    g: AggregatorSpec = G_SUM) -> CertificationResult:
    """Reference path: materialize the worst-case map for every region and
    demand strict dominance of c_t under the aggregator. Costs one aggregator
    evaluation per feasible region."""
    s = validate_score_map(s)
    h, w, _ = s.shape
    slices = [_slices(dependency_region(r, layers, h, w)) for r in regions]
    res, i = _certify_worst_case(s, c_t, slices, g)
    return replace(res, limiting_region=regions[i])


def certify_generic_masks(s: np.ndarray, c_t: int,
                          masks: Sequence[np.ndarray],
                          g: AggregatorSpec = G_SUM) -> CertificationResult:
    """Generic path over explicit (possibly non-rectangular) output index sets,
    one boolean (h,w) mask per feasible region."""
    s = validate_score_map(s)
    return _certify_worst_case(s, c_t, [(mask,) for mask in masks], g)[0]


def _certify_worst_case(s: np.ndarray, c_t: int, index_sets, g: AggregatorSpec):
    """For each index tuple over the (h, w) grid (a pair of slices or a
    boolean mask), set its cells maximally against c_t and take the smallest
    gap g_{c_t} - g_c over rivals. Returns (result, index of the limiting
    set); ties keep the first."""
    validate_labels([c_t], 1, s.shape[2])
    pred, sums = classify(s)
    tied = is_tied(sums)
    worst = limiting = None
    for i, idx in enumerate(index_sets):
        scores = np.asarray(g.fn(_flip_against(s, c_t, idx)), dtype=np.int64)
        gaps = scores[c_t] - scores
        gaps[c_t] = np.iinfo(np.int64).max
        gap = int(gaps.min())
        if worst is None or gap < worst:
            worst, limiting = gap, i
    if worst is None:
        raise ValueError("region set must be non-empty")
    return CertificationResult(
        predicted=pred, tied=tied,
        certified_generic=bool(worst > 0 and _clean_ok(pred, tied, c_t)),
        margin=worst, limiting_region=None), limiting


def certify_all(s: np.ndarray, c_t: int, regions: Sequence[PatchRegion],
                layers: Sequence[LayerGeom], r_max: int,
                g: AggregatorSpec = G_SUM) -> CertificationResult:
    """Evaluate all three conditions; margin/limiting region come from the
    per-region sum check."""
    res_sum = certify_sum(s, c_t, regions, layers)
    res_cheap = certify_cheap(s, c_t, r_max)
    res_gen = certify_generic(s, c_t, regions, layers, g)
    return CertificationResult(
        predicted=res_sum.predicted, tied=res_sum.tied,
        certified_generic=res_gen.certified_generic,
        certified_sum=res_sum.certified_sum,
        certified_cheap=res_cheap.certified_cheap,
        margin=res_sum.margin, limiting_region=res_sum.limiting_region)


# ---------------------------------------------------------------------------
# batch fast path

def _require_batch_shape(maps: np.ndarray) -> None:
    if maps.ndim != 4:
        raise ValueError(f"expected (B,h,w,C) maps, got shape {maps.shape}")


def _validate_batch_maps(maps: np.ndarray) -> np.ndarray:
    maps = np.asarray(maps)
    _require_batch_shape(maps)
    if maps.dtype != np.uint8:
        cast = maps.astype(np.uint8)
        if not np.array_equal(cast.astype(maps.dtype), maps):
            raise ValueError("batch score maps must be binary; use the relaxed path")
        maps = cast
    if maps.size and maps.max() > 1:
        raise ValueError("batch score maps must be binary; use the relaxed path")
    return maps


@dataclass(frozen=True)
class BatchCertification:
    """Vectorized certification of many score maps against one region set."""

    predicted: np.ndarray       # (B,) int
    tied: np.ndarray            # (B,) bool
    certified_sum: np.ndarray   # (B,) bool
    certified_cheap: np.ndarray  # (B,) bool
    margin_sum: np.ndarray      # (B,) int  worst-case gap, per-region condition
    margin_cheap: np.ndarray    # (B,) int  global-margin condition
    limiting_index: np.ndarray  # (B,) int  index into the region set


def certify_batch(maps: np.ndarray, labels: np.ndarray,
                  rects: Tuple[np.ndarray, ...], r_max: int,
                  chunk: int = MAP_CHUNK) -> BatchCertification:
    """Certify (B,h,w,C) binary maps against precomputed dependency rectangles
    (from geometry.dependency_rects). Integer-exact throughout.

    Works on per-class score integral images: the delta sum outside R(l) for
    rival c equals (T_ct - I_ct) - (T_c - I_c) with T/I total/inside score
    sums, so no delta map is materialized.
    """
    maps = _validate_batch_maps(maps)
    b, h, w, c = maps.shape
    labels = validate_labels(labels, b, c)
    area = rects[4]
    # score sums are bounded by h*w, so int16 tables suffice on typical grids
    table_dtype = np.int16 if h * w <= np.iinfo(np.int16).max else np.int32

    def run(y, s):
        total, outside = outside_sums(s, rects, table_dtype)
        out_true, rival = _split_rival(outside, y)
        worst = out_true - rival - area                      # (n, L)
        lim = worst.argmin(axis=1)
        m_s = worst[np.arange(len(y)), lim]
        pred, tied, gap = _global_gap(total.astype(np.int64), y)
        m_c = gap - 2 * r_max
        clean = (pred == y) & ~tied
        return pred, tied, (m_s > 0) & clean, (m_c > 0) & clean, m_s, m_c, lim

    return BatchCertification(*_by_chunk(run, labels, maps, chunk))


def certify_batch_cheap(maps: np.ndarray, labels: np.ndarray, r_max: int,
                        chunk: int = 1024):
    """Global-margin condition only, vectorized; cost is independent of the
    number of feasible regions. Returns (certified, margin, predicted)."""
    maps = _validate_batch_maps(maps)
    labels = validate_labels(labels, len(maps), maps.shape[3])

    def run(y, s):
        pred, tied, gap = _global_gap(s.sum(axis=(1, 2), dtype=np.int64), y)
        margin = gap - 2 * r_max
        return (margin > 0) & (pred == y) & ~tied, margin, pred

    return tuple(_by_chunk(run, labels, maps, chunk))


def certify_batch_relaxed(maps: np.ndarray, labels: np.ndarray,
                          rects: Tuple[np.ndarray, ...], r_max: int,
                          chunk: int = MAP_CHUNK):
    """Same decisions for relaxed score maps with entries in [0,1] (sigmoid or
    softmax heads). The bounds only use 0 <= s <= 1, so the conditions stay
    sound; sums are float64 and compared strictly, no tolerance.

    Returns (certified_sum, certified_cheap, predicted) boolean/int arrays.
    """
    maps = np.asarray(maps, dtype=np.float64)
    _require_batch_shape(maps)
    if maps.min(initial=0.0) < 0.0 or maps.max(initial=0.0) > 1.0:
        raise ValueError("relaxed score maps must lie in [0,1]")
    b, _, _, c = maps.shape
    labels = validate_labels(labels, b, c)
    area = rects[4]

    def run(y, s):
        total, outside = outside_sums(s, rects, np.float64)
        out_true, rival = _split_rival(outside, y)
        pred, tied, gap = _global_gap(total, y)
        clean = (pred == y) & ~tied
        return (((out_true - rival) > area).all(axis=1) & clean,
                (gap > 2.0 * r_max) & clean, pred)

    return tuple(_by_chunk(run, labels, maps, chunk))


# ---------------------------------------------------------------------------
# score-map blobs

def save_score_maps(path, maps: np.ndarray) -> None:
    """Write one or more binary score maps as concatenated PCSM records:
    magic, three little-endian uint32 dims (h, w, c), one byte per entry in
    row-major (h, w, c) order."""
    maps = np.asarray(maps)
    if maps.ndim == 3:
        maps = maps[None]
    records = []
    for m in maps:
        m = validate_score_map(m)
        h, w, c = m.shape
        records.append(SCORE_MAP_MAGIC + struct.pack("<III", h, w, c) + m.tobytes())
    with open(path, "wb") as f:
        f.write(b"".join(records))


def load_score_maps(path) -> List[np.ndarray]:
    """Read every PCSM record in a file; rejects bad magic, truncation, or
    non-binary entries."""
    with open(path, "rb") as f:
        buf = f.read()
    maps = []
    offset = 0
    header = len(SCORE_MAP_MAGIC) + 12
    while offset < len(buf):
        if buf[offset:offset + 4] != SCORE_MAP_MAGIC:
            raise ValueError(
                f"bad score-map magic {buf[offset:offset + 4]!r} at byte {offset}")
        if offset + header > len(buf):
            raise ValueError("truncated score-map header")
        h, w, c = struct.unpack_from("<III", buf, offset + 4)
        n = h * w * c
        start = offset + header
        if start + n > len(buf):
            raise ValueError(
                f"truncated score map: need {n} bytes, file has {len(buf) - start}")
        m = np.frombuffer(buf, dtype=np.uint8, count=n, offset=start).reshape(h, w, c)
        maps.append(validate_score_map(m.copy()))
        offset = start + n
    return maps
