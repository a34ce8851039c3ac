"""Certification of score maps against patch attacks.

Three checks of decreasing cost: a generic worst-case sweep for any monotone
aggregator, a per-region sum check, and a single global-margin comparison.
The per-region check takes the class sums outside every dependency rectangle
from interval-matrix products rows . S . cols^T, two GEMMs per map, and
reduces rivals over the whole product grid before cutting it to the
rectangles. Arithmetic on binary maps is integer-exact. One check admits
binary maps; one chunk body decides binary and relaxed maps alike.
"""

from __future__ import annotations

import struct
import threading
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .core import Workspace, _buffer
from .geometry import LayerGeom, PatchRegion, dependency_rects
from .runio import atomic_write_bytes, worker_count

SCORE_MAP_MAGIC = b"PCSM"


def validate_score_map(s: np.ndarray, ndim: int = 3) -> np.ndarray:
    """Check an array is a binary score map, (h,w,C) for ndim 3 or a
    (B,h,w,C) batch for ndim 4; returns it as uint8."""
    s = np.asarray(s)
    if s.ndim != ndim:
        raise ValueError(f"expected {'(B,h,w,C)' if ndim == 4 else '(h,w,C)'} score "
                         f"maps, got shape {s.shape}")
    cast = s.astype(np.uint8, copy=False)
    if cast.max(initial=0) > 1 or (s.dtype != np.uint8 and not np.array_equal(cast, s)):
        raise ValueError("score map entries must be 0 or 1; certify scores in "
                         "[0,1] with the relaxed path")
    return cast


def _map_batch(maps) -> np.ndarray:
    """`maps` as an array, after checking that it is a (B,h,w,C) batch. The
    batch paths check the entries chunk by chunk, on the chunk threads."""
    maps = np.asarray(maps)
    if maps.ndim != 4:
        raise ValueError(f"expected (B,h,w,C) score maps, got shape {maps.shape}")
    return maps


def classify(s: np.ndarray) -> Tuple[int, np.ndarray]:
    """Aggregate votes per class: S_c = sum over (i,j) of s[i,j,c].

    Returns (argmax class, raw integer score vector). Ties break to the lowest
    class index; tied predictions are never certifiable.
    """
    sums = class_counts(validate_score_map(s)[None])[0]
    return int(sums.argmax()), sums


# Rows per uint8 partial sum in class_counts: at most 255 entries of 0 or 1.
_COUNT_BLOCK = 255


def class_counts(maps: np.ndarray) -> np.ndarray:
    """Exact per-class vote counts of (n, h, w, C) 0/1 uint8 maps, already
    checked binary (validate_score_map), as (n, C) int64.

    Blocks of at most 255 rows of the (n, h, w*C) view are summed in uint8,
    with no cast and no wrap; only the (n, w*C) partial sums, 1/h of the
    maps' bytes, are widened to int64 and summed over w. Summing the maps
    straight into int64 runs numpy's buffered casting loop, about 6x slower
    on 10k 32x32x10 maps."""
    n, h, w, c = maps.shape
    rows = maps.reshape(n, h, w * c)
    counts = np.zeros((n, w * c), dtype=np.int64)
    for lo in range(0, h, _COUNT_BLOCK):
        counts += rows[:, lo:lo + _COUNT_BLOCK].sum(axis=1, dtype=np.uint8)
    return counts.reshape(n, w, c).sum(axis=1)


# ---------------------------------------------------------------------------
# interval-product kernel shared by every sum-condition path

def validate_labels(labels, b: int, c: int) -> np.ndarray:
    """Check labels are (b,) integers in [0, c) for c >= 2 classes (with no
    rival a certificate means nothing); returned as np.intp, not as uint64."""
    if c < 2:
        raise ValueError(f"certification needs at least 2 classes, got {c}")
    labels = np.asarray(labels)
    if labels.shape != (b,) or labels.dtype.kind not in "iu":
        raise ValueError(f"labels must be a ({b},) integer array, got shape "
                         f"{labels.shape} and dtype {labels.dtype}")
    if b and not (labels.min() >= 0 and labels.max() < c):
        raise ValueError(f"labels must lie in [0, {c}), got labels from "
                         f"{labels.min()} to {labels.max()}")
    return labels.astype(np.intp, copy=False)


def exact_sum_dtype(h: int, w: int):
    """Float dtype in which every partial sum of 0/1 products over an (h, w)
    grid is an exact integer: float32 holds every integer up to 2**24,
    float64 every integer up to 2**53."""
    return np.float32 if h * w <= 2 ** 24 else np.float64


def _grid_dtype(h: int, w: int):
    """Narrowest integer dtype that holds every value the per-region check
    forms from binary (h, w) maps: sums in [0, h*w], their differences and
    those minus a rectangle area in [-2*h*w, h*w], and the rival sentinel
    iinfo.min // 2. int16 up to h*w = 2**14, int32 up to 2**30."""
    return np.int16 if h * w <= 2 ** 14 else np.int32 if h * w <= 2 ** 30 else np.int64


@dataclass(frozen=True)
class IntervalFactors:
    """A rectangle set over an (h, w) grid in separable form.

    `rows` (P+1, h) and `cols_t` (w, Q+1) hold 0/1 indicators of the P
    distinct row intervals and the Q distinct column intervals, each followed
    by the full interval. Rectangle l is entry `index[l]` of the flattened
    (P+1, Q+1) product grid; `index` is None when the rectangles are exactly
    the row-major P x Q grid, as for every region set of enumerate_regions."""

    rows: np.ndarray
    cols_t: np.ndarray
    index: Optional[np.ndarray]


def interval_factors(rects: Tuple[np.ndarray, ...], h: int, w: int,
                     dtype) -> IntervalFactors:
    """Separable form of dependency rectangles (from geometry.dependency_rects)
    on an (h, w) score-map grid, with indicators in `dtype`."""
    r0, r1, c0, c1, area = rects
    if len(r0) and (min(r0.min(), c0.min()) < 0 or r1.max() > h or c1.max() > w):
        raise ValueError(f"dependency rectangles exceed the {(h, w)} grid")
    if not np.array_equal(area, (r1 - r0) * (c1 - c0)):
        raise ValueError("dependency-rectangle areas must be (r1 - r0) * (c1 - c0)")
    rows, p = np.unique(np.stack([r0, r1], axis=1), axis=0, return_inverse=True)
    cols, q = np.unique(np.stack([c0, c1], axis=1), axis=0, return_inverse=True)
    p, q, n_q = p.reshape(-1), q.reshape(-1), len(cols)
    grid = len(r0) == len(rows) * n_q and np.array_equal(p * n_q + q, np.arange(len(r0)))
    return IntervalFactors(rows=_indicators(rows, h, dtype),
                           cols_t=np.ascontiguousarray(_indicators(cols, w, dtype).T),
                           index=None if grid else p * (n_q + 1) + q)


def _indicators(intervals: np.ndarray, size: int, dtype) -> np.ndarray:
    """(K+1, size) 0/1 rows for K half-open [lo, hi) intervals, then [0, size)."""
    bounds = np.vstack([intervals.reshape(-1, 2), [[0, size]]])
    at = np.arange(size)
    return ((at >= bounds[:, :1]) & (at < bounds[:, 1:])).astype(dtype)


def outside_sums(maps: np.ndarray, factors: IntervalFactors,
                 ws: Optional[Workspace] = None) -> Tuple[np.ndarray, np.ndarray]:
    """Class sums of (n, h, w, c) maps in total and outside each rectangle of
    `factors`, as (total, outside) of shapes (n, c) and (n, c, L).

    _outside_grid casts the maps once in their own (n, h, w*c) layout and
    takes the inside sums rows . S_c . cols_t in two GEMMs per map, X_n^T .
    rows^T -> (w*c, P+1), then Y_n^T . cols_t -> (c*(P+1), Q+1), class-major;
    numpy hands BLAS the transposes as flags. At 32x32x10 and |L|=784 each
    GEMM is about 3e5 multiply-adds, just above OpenBLAS's threading
    threshold; one BLAS thread measured no faster. total - inside is
    subtracted in place over the whole (P+1)(Q+1) grid, whose last entry is
    the total; _regions then cuts the grid down to the rectangles.

    Exactness: for 0/1 maps every partial sum of either product, in whatever
    order BLAS adds, is an integer of at most h*w, exact in exact_sum_dtype.
    Integer maps come back as integers before any subtraction, so no float
    comparison decides a binary certificate: the grid is cast to
    _grid_dtype(h, w), int16 while h*w <= 2**14 (every value the
    per-region check forms lies in [-2*h*w, h*w]), and the results here are
    widened to int32 after the cut. Relaxed maps keep float sums.
    """
    total, grid = _outside_grid(maps, factors, ws)
    if grid.dtype.kind == "f":
        return total, _regions(grid, factors)
    wide = np.promote_types(grid.dtype, np.int32)
    return total.astype(wide), _regions(grid, factors).astype(wide, copy=False)


def _outside_grid(maps: np.ndarray, factors: IntervalFactors, ws: Optional[Workspace]):
    """outside_sums before the cut: (n, c) totals and the (n, c, (P+1)(Q+1))
    outside sums of the whole product grid, valid until the next call with `ws`.
    For integer maps both are of _grid_dtype(h, w): int16 while h*w <=
    2**14, since sums and outside sums lie in [0, h*w] and what the caller
    forms from them in [-2*h*w, h*w]."""
    n, h, w, c = maps.shape
    p1, q1 = len(factors.rows), factors.cols_t.shape[1]
    dtype = factors.rows.dtype
    x = _buffer(ws, ("maps",), (n, h, w * c), dtype)
    np.copyto(x, maps.reshape(n, h, w * c))
    by_rows = np.matmul(x.transpose(0, 2, 1), factors.rows.T,
                        out=_buffer(ws, ("rows",), (n, w * c, p1), dtype))
    prod = np.matmul(by_rows.reshape(n, w, c * p1).transpose(0, 2, 1), factors.cols_t,
                     out=_buffer(ws, ("prod",), (n, c * p1, q1), dtype))
    grid = prod.reshape(n, c, p1 * q1)
    if maps.dtype.kind != "f":
        grid = _buffer(ws, ("prod",), grid.shape, _grid_dtype(h, w))
        np.copyto(grid, prod.reshape(grid.shape), casting="unsafe")
    total = grid[..., -1].copy()
    return total, np.subtract(total[..., None], grid, out=grid)


def _regions(grid: np.ndarray, factors: IntervalFactors) -> np.ndarray:
    """The rectangles' entries of (..., (P+1)(Q+1)) product-grid values, a new
    (..., L) array: the [:-1, :-1] grid, or factors.index if there is one."""
    if factors.index is not None:
        return grid.take(factors.index, axis=-1)
    p1, q1, lead = len(factors.rows), factors.cols_t.shape[1], grid.shape[:-1]
    return grid.reshape(*lead, p1, q1)[..., :-1, :-1].reshape(*lead, (p1 - 1) * (q1 - 1))


def _split_rival(outside: np.ndarray, labels: np.ndarray, ws: Optional[Workspace] = None):
    """(n, C, L) class sums -> (true-class sum, strongest rival sum), each
    (n, L): the one rival reduction of the per-region margins, the global
    gap, the generic condition and the attack's choice. Overwrites the
    true-class rows of `outside`. With a workspace both outputs are its
    buffers, valid until the next call with it. `labels` must be valid
    class indices (validate_labels), since no index is checked here."""
    n, c, size = outside.shape
    rows = np.arange(n)
    out_true = np.take(outside.reshape(n * c, size), rows * c + labels, axis=0, mode="clip",
                       out=_buffer(ws, ("out_true",), (n, size), outside.dtype))
    # for integers half the range, so that true minus it stays representable
    outside[rows, labels] = (-np.inf if outside.dtype.kind == "f"
                             else np.iinfo(outside.dtype).min // 2)
    return out_true, outside.max(axis=1, out=_buffer(ws, ("rival",), (n, size), outside.dtype))


def _global_gap(sums: np.ndarray, labels: np.ndarray):
    """(predicted, tied, true-class sum minus the strongest rival) for each
    row of (n, C) class sums, integer sums widened to int64. Ties break to
    the lowest class index."""
    pred, tied = _prediction(sums)
    # a real copy, since _split_rival overwrites its true-class entries
    wide = sums.astype(np.promote_types(sums.dtype, np.int64))[:, :, None]
    out_true, rival = _split_rival(wide, labels)
    return pred, tied, (out_true - rival)[:, 0]


def _prediction(sums: np.ndarray):
    """(argmax class, tied) for each row of (n, C) class sums."""
    return sums.argmax(axis=1), (sums == sums.max(axis=1)[:, None]).sum(axis=1) > 1


# Maps per chunk of the per-region paths, read at each call. On a shared
# 2-vCPU Xeon VM, 10k 32x32x10 maps at |L|=784 on two chunk threads took
# 278-317/242-251/214-230/220-241 ms at 16/32/64/128 (medians of 8 calls, 3
# processes), with workspace buffers of about 2.5 MB at 64. The global-margin
# path counts votes in chunks of the same size on the same pool.
MAP_CHUNK = 64


def _by_chunk(fn, labels: np.ndarray, maps: np.ndarray) -> List[np.ndarray]:
    """fn(labels, maps, ws) on consecutive chunks of MAP_CHUNK maps (read at
    each call), each of its outputs of n rows concatenated in chunk order; an
    empty batch still runs once to give typed outputs. Several chunks run on
    a pool of up to runio.worker_count() threads, made for this call and
    joined before it returns; numpy and BLAS release the GIL, and each
    chunk's result does not depend on the thread.
    Each thread hands every chunk it runs its own core.Workspace `ws`. The
    first chunk (in order) that raises raises here, after the chunks already
    running finish; chunks not yet started are cancelled."""
    starts = range(0, max(len(labels), 1), MAP_CHUNK)
    local = threading.local()

    def run(lo):
        if not hasattr(local, "ws"):
            local.ws = Workspace()
        return fn(labels[lo:lo + MAP_CHUNK], maps[lo:lo + MAP_CHUNK], local.ws)

    workers = min(worker_count(), len(starts))
    if workers > 1:
        with ThreadPoolExecutor(workers) as pool:
            parts = list(pool.map(run, starts))
    else:
        parts = [run(lo) for lo in starts]
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


def certify_sum(s: np.ndarray, c_t: int, regions: Sequence[PatchRegion],
                layers: Sequence[LayerGeom]) -> CertificationResult:
    """Per-region check for the sum aggregator: for every feasible region the
    delta votes outside its dependency rectangle must exceed the rectangle
    area. The single-map case of certify_batch."""
    s = validate_score_map(s)
    if not regions:
        raise ValueError("region set must be non-empty")
    rects = dependency_rects(regions, layers, *s.shape[:2])
    res = certify_batch(s[None], [c_t], rects, int(rects[4].max()))
    return CertificationResult(
        predicted=int(res.predicted[0]), tied=bool(res.tied[0]),
        certified_sum=bool(res.certified_sum[0]), margin=int(res.margin_sum[0]),
        limiting_region=regions[int(res.limiting_index[0])])


def certify_cheap(s: np.ndarray, c_t: int, r_max: int) -> CertificationResult:
    """Constant-time check: the global delta sum of every rival class must
    exceed twice the largest dependency-region cardinality. The single-map
    case of certify_batch_cheap."""
    (cert,), (margin,), (pred,), (tied,) = _global_margin(
        validate_score_map(s)[None], [c_t], r_max)
    return CertificationResult(predicted=int(pred), tied=bool(tied),
                               certified_cheap=bool(cert), margin=int(margin))


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


def _class_scores(g: AggregatorSpec, s: np.ndarray) -> np.ndarray:
    """g's class scores of an (h,w,c) map: a (c,) array of an integer dtype
    that int64 holds. Real-valued scores are rejected, not truncated, so that
    no float decides a generic certificate."""
    scores = np.asarray(g.fn(s))
    if scores.shape != s.shape[2:]:
        raise ValueError(f"aggregator {g.name!r} must map (h,w,c) to (c,) class scores")
    if not np.can_cast(scores.dtype, np.int64):
        raise ValueError(f"aggregator {g.name!r} must give integer class scores, "
                         f"got dtype {scores.dtype}")
    return scores


def register_aggregator(name: str,
                        fn: Callable[[np.ndarray], np.ndarray]) -> AggregatorSpec:
    """Register an aggregator after a probe on 64 random pairs of score maps
    from a fixed seed: its class scores must be integers (_class_scores), and
    monotone: for s1 >= s2 elementwise, g(s1)_c >= g(s2)_c per class."""
    spec = AggregatorSpec(name=name, fn=fn)
    rng = np.random.default_rng(0)
    for _ in range(64):
        h, w, c = rng.integers(2, 7), rng.integers(2, 7), rng.integers(2, 5)
        s2 = rng.integers(0, 2, size=(h, w, c)).astype(np.uint8)
        s1 = np.maximum(s2, rng.integers(0, 2, size=(h, w, c)).astype(np.uint8))
        if not (_class_scores(spec, s1) >= _class_scores(spec, s2)).all():
            raise ValueError(f"aggregator {name!r} failed the monotonicity probe")
    return spec


def certify_generic(s: np.ndarray, c_t: int, regions: Sequence[PatchRegion],
                    rects: Tuple[np.ndarray, ...],
                    g: AggregatorSpec = G_SUM) -> CertificationResult:
    """Reference path: materialize the worst-case map for every region, its
    dependency rectangle voting 1 for every class but c_t and 0 for c_t, and
    demand strict dominance of c_t under the aggregator. `rects` are the
    regions' dependency rectangles (from geometry.dependency_rects), as
    certify_batch takes them. Like certify_sum and certify_all, it reads the
    map grid as the input grid (a stride-1 model), where each rectangle
    contains its own region; rectangles that do not, say those of another
    patch shape with as many regions, are rejected. Costs one aggregator
    evaluation per feasible region; ties keep the first limiting region."""
    s = validate_score_map(s)
    r0, r1, c0, c1, _ = rects
    if len(r0) != len(regions):
        raise ValueError(f"{len(r0)} dependency rectangles for {len(regions)} regions")
    if len(r0) and (r1.max() > s.shape[0] or c1.max() > s.shape[1]):
        raise ValueError(f"dependency rectangles exceed the {s.shape[:2]} grid")
    # (-start, stop) per axis: a rectangle contains its region iff no entry is smaller
    inner = np.array([(-r.top, r.top + r.height, -r.left, r.left + r.width) for r in regions],
                     dtype=np.int64).reshape(-1, 4)
    if (np.stack([-r0, r1, -c0, c1], axis=1) < inner).any():
        raise ValueError("dependency rectangles do not contain their regions")
    labels = validate_labels([c_t], 1, s.shape[2])
    if not regions:
        raise ValueError("region set must be non-empty")
    (pred,), (tied,), _ = _global_gap(class_counts(s[None]), labels)
    scores = np.empty((1, s.shape[2], len(regions)), dtype=np.int64)
    boxes = zip(*(v.tolist() for v in (r0, r1, c0, c1)))
    for i, (top, bottom, left, right) in enumerate(boxes):
        worst = s.copy()
        worst[top:bottom, left:right] = 1
        worst[top:bottom, left:right, c_t] = 0
        scores[0, :, i] = _class_scores(g, worst)
    out_true, rival = _split_rival(scores, labels)
    gap = out_true[0] - rival[0]
    lim = int(gap.argmin())
    return CertificationResult(
        predicted=int(pred), tied=bool(tied),
        certified_generic=bool(gap[lim] > 0 and pred == c_t and not tied),
        margin=int(gap[lim]), limiting_region=regions[lim])


def certify_all(s: np.ndarray, c_t: int, regions: Sequence[PatchRegion],
                layers: Sequence[LayerGeom], r_max: int,
                g: AggregatorSpec = G_SUM) -> CertificationResult:
    """Evaluate all three conditions; margin/limiting region come from the
    per-region sum check."""
    s = validate_score_map(s)
    rects = dependency_rects(regions, layers, *s.shape[:2])
    return replace(
        certify_sum(s, c_t, regions, layers),
        certified_generic=certify_generic(s, c_t, regions, rects, g).certified_generic,
        certified_cheap=certify_cheap(s, c_t, r_max).certified_cheap)


# ---------------------------------------------------------------------------
# batch fast path

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
                  rects: Tuple[np.ndarray, ...], r_max: int) -> BatchCertification:
    """Certify (B,h,w,C) binary maps against precomputed dependency rectangles
    (from geometry.dependency_rects). Integer-exact throughout."""
    maps = _map_batch(maps)
    return _certify_regions(maps, labels, rects, r_max, exact_sum_dtype(*maps.shape[1:3]),
                            lambda s: validate_score_map(s, 4))


def certify_batch_relaxed(maps: np.ndarray, labels: np.ndarray,
                          rects: Tuple[np.ndarray, ...], r_max: int):
    """Same conditions for relaxed score maps with entries in [0,1] (sigmoid
    or softmax heads). The bounds on the scores only use 0 <= s <= 1, but
    sums are float64 and compared strictly, no tolerance: a float64 sum can
    round either way, and nothing proves that no decision flips, so relaxed
    decisions are float decisions, not proven sound. Each chunk is checked on
    the chunk threads and widened to float64 by the kernel's cast. Returns
    (certified_sum, certified_cheap, predicted) boolean/int arrays."""
    res = _certify_regions(_map_batch(maps), labels, rects, r_max, np.float64, _relaxed)
    return res.certified_sum, res.certified_cheap, res.predicted


def _relaxed(maps: np.ndarray) -> np.ndarray:
    """`maps` as they are, after checking that they lie in [0,1]."""
    # NaN fails both comparisons, so it is rejected too
    if not (maps.min(initial=0.0) >= 0.0 and maps.max(initial=0.0) <= 1.0):
        raise ValueError("relaxed score maps must lie in [0,1]")
    return maps


def _certify_regions(maps: np.ndarray, labels: np.ndarray,
                     rects: Tuple[np.ndarray, ...], r_max: int,
                     dtype, check: Callable[[np.ndarray], np.ndarray]) -> BatchCertification:
    """Both sum conditions for (B,h,w,C) maps with rectangle sums exact in
    `dtype`, MAP_CHUNK maps at a time; `check` validates each chunk and
    returns it as the kernel reads it. The delta sum outside R(l) for rival
    c is (T_ct - I_ct) - (T_c - I_c) with T/I total/inside score sums, so no
    delta map is materialized. Binary maps stay in the grid's narrow integer
    dtype (_grid_dtype) up to the (n,) margins, which are widened to int64.
    The grid's (full, full) entry is set back to the totals, so one rival
    reduction gives the per-region margins and, in its last column, the
    global gap. For a float (relaxed) d and an integer area a the rounded
    d - a is positive exactly when d > a, so min(d - a) > 0 decides as every
    d > a would."""
    b, h, w, c = maps.shape
    labels = validate_labels(labels, b, c)
    area = rects[4]
    if not len(area):
        raise ValueError("region set must be non-empty")
    if r_max < area.max():
        raise ValueError(f"r_max {r_max} is below the largest dependency-rectangle "
                         f"area {area.max()}")
    factors = interval_factors(rects, h, w, dtype)

    def run(y, s, ws):
        total, grid = _outside_grid(check(s), factors, ws)
        grid[..., -1] = total
        out_true, rival = _split_rival(grid, y, ws)
        d = np.subtract(out_true, rival, out=out_true)
        wide = np.promote_types(d.dtype, np.int64)
        gap = d[:, -1].astype(wide)
        d = _regions(d, factors)
        # interval_factors checked each area is its rectangle's, so <= h*w
        worst = np.subtract(d, area.astype(d.dtype), out=_buffer(
            ws, ("worst",), d.shape, d.dtype))                        # (n, L)
        lim = worst.argmin(axis=1)
        m_s = worst[np.arange(len(y)), lim].astype(wide)
        pred, tied = _prediction(total)
        m_c = gap - 2 * r_max
        clean = (pred == y) & ~tied
        return pred, tied, (m_s > 0) & clean, (m_c > 0) & clean, m_s, m_c, lim

    return BatchCertification(*_by_chunk(run, labels, maps))


def certify_batch_cheap(maps: np.ndarray, labels: np.ndarray, r_max: int):
    """Global-margin condition only, vectorized; cost is independent of the
    number of feasible regions. Returns (certified, margin, predicted)."""
    return _global_margin(maps, labels, r_max)[:3]


def _global_margin(maps: np.ndarray, labels: np.ndarray, r_max: int):
    """certify_batch_cheap's three outputs, then the tie flags. The votes
    are counted and checked binary MAP_CHUNK maps at a time on _by_chunk's
    pool."""
    maps = _map_batch(maps)
    labels = validate_labels(labels, len(maps), maps.shape[3])
    if r_max < 0:
        raise ValueError(f"r_max must be >= 0, got {r_max}")
    pred, tied, gap = _by_chunk(
        lambda y, s, ws: _global_gap(class_counts(validate_score_map(s, 4)), y),
        labels, maps)
    margin = gap - 2 * r_max
    return (margin > 0) & (pred == labels) & ~tied, margin, pred, tied


# ---------------------------------------------------------------------------
# score-map blobs

def save_score_maps(path, maps: np.ndarray) -> None:
    """Write one or more binary score maps as concatenated PCSM records:
    magic, three little-endian uint32 dims (h, w, c), one byte per entry in
    row-major (h, w, c) order. The file is replaced whole or not at all."""
    maps = np.asarray(maps)
    if maps.ndim == 3:
        maps = maps[None]
    records = []
    for m in maps:
        m = validate_score_map(m)
        h, w, c = m.shape
        records.append(SCORE_MAP_MAGIC + struct.pack("<III", h, w, c) + m.tobytes())
    atomic_write_bytes(path, b"".join(records))


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
