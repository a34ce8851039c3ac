"""Dense tensor substrate: tape-recorded forward ops, their backward rules,
and an Adam update. Only the operations the region-scorer architecture needs
are provided; this is not a general autodiff engine."""

from __future__ import annotations

import math
import mmap
from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

ACTIVATION_MODES = ("heaviside_st", "sigmoid", "softmax_channel")  # binary, then the relaxed heads
NORM_EPS = 1e-5  # the norm's inv = 1/sqrt(var + NORM_EPS), in conv2d and channel_affine

_FLOAT_DTYPES = (np.float32, np.float64)


class Tensor:
    """An up-to-4-axis dense float array participating in taped computation.

    Identity (not value) is what the tape tracks, so the same Tensor object
    must be passed to every op that should see it as the same node.
    """

    __slots__ = ("data", "name")

    def __init__(self, data, name: Optional[str] = None):
        arr = np.asarray(data)
        if arr.dtype not in _FLOAT_DTYPES:
            arr = arr.astype(np.float32)
        if arr.ndim > 4:
            raise ValueError(f"tensor rank {arr.ndim} exceeds 4 (shape {arr.shape})")
        self.data = arr
        self.name = name

    @property
    def shape(self) -> Tuple[int, ...]:
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        tag = f" {self.name!r}" if self.name else ""
        return f"Tensor{tag}(shape={self.data.shape}, dtype={self.data.dtype})"


def as_tensor(x) -> Optional[Tensor]:
    return x if x is None or isinstance(x, Tensor) else Tensor(x)


class GradTape:
    """Ordered record of executed ops; replaying it in reverse runs the chain
    rule for the tensors a caller asks about.

    A backward closure takes the output gradient and returns one gradient
    array (or None) per input, aligned positionally. One marked with
    `takes_needs` also gets a per-input bool tuple saying which inputs need a
    gradient, and may return None for the others.

    A `conv2d` record made with a `Workspace` keeps views of its buffers: its
    backward reads the conv's output z and im2col matrix from there. One
    workspace serves one tape at a time, because the next forward through it
    overwrites them; so `gradients` must run before that forward."""

    def __init__(self):
        self._records: List[Tuple[Tensor, Tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward: Callable) -> None:
        self._records.append((output, tuple(inputs), backward))

    def gradients(self, loss: Tensor, wrt: Iterable[Tensor]) -> Dict[int, np.ndarray]:
        """Backpropagate from `loss`; returns {id(tensor): grad} for `wrt`.

        A forward sweep first marks the tensors on a path from `wrt`; only
        records whose output is marked run, and only marked inputs take a
        gradient. Tensors in `wrt` that did not influence the loss map to None.
        An intermediate gradient is dropped as soon as its record's backward
        has run; only the gradients of `wrt` are kept to the end.
        """
        wrt = list(wrt)
        keep = {id(t) for t in wrt}
        on_path = set(keep)
        for output, inputs, _ in self._records:
            if any(id(t) in on_path for t in inputs):
                on_path.add(id(output))
        grads: Dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for output, inputs, backward in reversed(self._records):
            if id(output) not in on_path:
                continue
            g_out = grads.get(id(output)) if id(output) in keep else grads.pop(id(output), None)
            if g_out is None:
                continue
            needs = tuple(id(t) in on_path for t in inputs)
            in_grads = (backward(g_out, needs) if getattr(backward, "takes_needs", False)
                        else backward(g_out))
            for tensor, need, g_in in zip(inputs, needs, in_grads):
                if not need or g_in is None:
                    continue
                acc = grads.get(id(tensor))
                grads[id(tensor)] = g_in if acc is None else acc + g_in
        return {id(t): grads.get(id(t)) for t in wrt}


def takes_needs(backward: Callable) -> Callable:
    """Mark a backward closure as taking (grad_out, needs); see GradTape."""
    backward.takes_needs = True
    return backward


# ---------------------------------------------------------------------------
# convolution

class Workspace:
    """Large arrays that a repeated training step writes in place instead of
    allocating them afresh every step (see `conv2d` for which ones).

    A buffer is keyed either by a layer name and role, for what that layer's
    backward reads, or by a role and per-example shape, for a temporary that
    every layer of that shape shares (the padded input and the column
    gradient hold one tile of images). Each buffer holds the largest batch
    or tile asked for so far, and a smaller one gets a prefix view of it.
    Buffers are anonymous mmap memory, so holding them leaves the malloc
    heap as it was; dropping the workspace unmaps them once no view is left.

    One workspace serves one tape at a time: the next forward overwrites what
    the previous backward read, so a step's backward must run before the
    next step's forward."""

    def __init__(self):
        self._buffers: Dict[tuple, np.ndarray] = {}

    def take(self, key: tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
        """A C-contiguous array of `shape` in the buffer named `key`; its
        contents are whatever was written there last."""
        dtype = np.dtype(dtype)
        n = math.prod(shape)
        buf = self._buffers.get((key, dtype))
        if buf is None or buf.size < n:
            buf = np.frombuffer(mmap.mmap(-1, max(n, 1) * dtype.itemsize), dtype=dtype)
            self._buffers[(key, dtype)] = buf
        return buf[:n].reshape(shape)


def _buffer(ws: Optional[Workspace], key: tuple, shape: Tuple[int, ...], dtype) -> np.ndarray:
    """An uninitialized array: from the workspace if there is one, else new."""
    return np.empty(shape, dtype=dtype) if ws is None else ws.take(key, shape, dtype)


# Bytes of one tile's column matrix in an untaped conv2d without momentum.
# At width 64 a 3x3 conv's column matrix takes 576 KB per 16x16 image and
# 2.25 MB per 32x32 one, so 4 MB tiles hold 7 and 1 of them. Random-weight
# forward_maps at batch 128, width 64, budgets alternated in one process on a
# shared 2-vCPU Xeon VM (2 MB L2 per core), median images/s at 1/2/4/8/16 MB
# and for one whole-batch tile: 32x32 rf7, 128 images, 133/127/133/133/132
# against 78; 32x32 rf13, 64 images, 105/100/90/101/84 against 53; 16x16
# rf5, 128 images, 723/743/716/710/710 against 622; 40 images,
# 712/704/728/720/675 against 649; 8 images, 694/681/680/676/672 against 677.
# 1-8 MB are within run-to-run spread of each other; 4 MB still holds a whole
# 32x32 image, and the smaller the budget, the smaller the forward's peak.
CONV_TILE_BYTES = 4 << 20
# Fewest multiply-adds in one tile's matmul. A matmul row's bits do not
# depend on the other rows computed with it while OpenBLAS runs the same
# kernel, but below 10^6 multiply-adds it runs its small-matrix kernel
# instead: with OpenBLAS 0.3.31 on that VM, rows of a (K=576, N=64) or
# (K=72, N=8) matmul took other bits in pieces of up to 590k multiply-adds
# and the same bits from 1.18M up. With the floor at twice the switch, a
# tile takes the kernel of the whole batch.
CONV_TILE_MACS = 1 << 21


def _tile_count(b: int, image_cols: int, co: int, itemsize: int) -> int:
    """How many tiles of whole images an untaped conv of b images runs in,
    the images split near-equally among them: as few as keep each tile's
    column matrix (image_cols entries per image) within CONV_TILE_BYTES, or
    one image, but never so many that a tile's matmul for co outputs has
    fewer than CONV_TILE_MACS multiply-adds. The backward's column gradient
    has the column matrix's bytes and multiply-adds, so it takes the same."""
    image_cols = max(image_cols, 1)
    per_budget = max(1, CONV_TILE_BYTES // (image_cols * itemsize))
    at_least = -(-CONV_TILE_MACS // (image_cols * max(co, 1)))
    return max(1, min(-(-b // per_budget), b // at_least))


def _im2col(xp: np.ndarray, kh: int, kw: int, cols: np.ndarray) -> np.ndarray:
    """Gather kernel windows of a padded (B,H,W,C) array into the given
    (B,Ho,Wo,kh,kw,C) buffer, in one copy from a strided view of the windows
    (a window row's kw*C entries are contiguous on both sides)."""
    windows = sliding_window_view(xp, (kh, kw), axis=(1, 2))
    np.copyto(cols, windows.transpose(0, 1, 2, 4, 5, 3))
    return cols


def _col2im(gcols: np.ndarray, gx: np.ndarray) -> None:
    """Scatter-add (B,Ho,Wo,kh,kw,C) window gradients onto the padded input
    grid gx (B,H,W,C), in place."""
    b, ho, wo, kh, kw, c = gcols.shape
    for di in range(kh):
        for dj in range(kw):
            gx[:, di:di + ho, dj:dj + wo, :] += gcols[:, :, :, di, dj, :]


def conv2d(x, kernel, bias=None, *, padding: Union[int, Tuple[int, int]] = 0,
           norm: Optional[tuple] = None, skip=None, relu: bool = False,
           momentum: Optional[float] = None,
           tape: Optional[GradTape] = None, ws: Optional[Workspace] = None,
           layer: Optional[str] = None) -> Tensor:
    """Stride-1 cross-correlation of a (B,H,W,Cin) input with a (kh,kw,Cin,Cout)
    kernel (output size in + 2*padding - k + 1 per axis; `padding` is
    one size for both axes or a (rows, columns) pair), then optionally
    a norm, a residual add of `skip` and a ReLU in place, under one tape record.

    `norm` = (gamma, beta, mean, var) maps z to ((z - mean)*inv)*gamma + beta,
    inv = 1/sqrt(var + NORM_EPS), as `channel_affine` does; mean/var are constants
    for the gradient. With `momentum`, z's batch statistics then move the
    mean/var arrays in place, after the forward and backward took their values.

    Without a tape and without momentum the batch runs in near-equal tiles
    of whole images (_tile_count): a tile's padded copy and column matrix go
    into buffers that hold one tile and serve every tile, its rows go through
    the matmul into z, and the bias, norm, skip and ReLU run on those rows
    while they are in cache. So the largest temporary is one tile's column
    matrix, not the batch's. A taped forward, or one with momentum, is the
    case of one tile over the whole batch: the kernel gradient reads the
    whole column matrix, and the batch statistics are the whole batch's.
    The backward's input gradient on the im2col path (k > 1) runs in the
    same tiles: a tile's rows of the column gradient go into a one-tile
    buffer, and _col2im scatter-adds them into the padded input gradient
    while in cache. The kernel gradient and the gamma and beta sums reduce
    over the rows and stay whole-batch: a split changes their bits (by
    taps, through a 1-channel stem's GEMV). A row of a matmul has the same
    bits whatever other rows are computed with it, as long as BLAS runs the
    same kernel; below about 10^6 multiply-adds OpenBLAS switches to another,
    so no tile has fewer than CONV_TILE_MACS and the tiled outputs and input
    gradients are the one-tile ones, bit for bit.

    With a workspace `ws`, the large arrays are written into it instead of
    being allocated: under the name `layer`, the output z (so the returned
    tensor's data lives there) and the im2col matrix, which the backward
    reads; shared by every conv of the same shape, the padded input and the
    one-tile column gradient, which are temporaries. Still allocated: the
    col2im target, of which the returned input gradient is a view (the only
    large array the im2col path's input gradient allocates), the float64
    statistics copy, the ReLU-masked gradient (also the skip's gradient)
    and every other returned gradient. The outputs and gradients are the
    same bits with or without a workspace.
    """
    x, kernel, bias, skip = map(as_tensor, (x, kernel, bias, skip))
    if x.data.ndim != 4:
        raise ValueError(f"conv2d input must be (B,H,W,C), got shape {x.shape}")
    if kernel.data.ndim != 4:
        raise ValueError(f"conv2d kernel must be (kh,kw,Cin,Cout), got shape {kernel.shape}")
    kh, kw, ci, co = kernel.shape
    if kh != kw or kh % 2 == 0:
        raise ValueError(f"kernel spatial size must be square and odd, got {kh}x{kw}")
    if x.shape[3] != ci:
        raise ValueError(
            f"channel mismatch: input shape {x.shape} has {x.shape[3]} channels, "
            f"kernel shape {kernel.shape} expects {ci}")
    pad_h, pad_w = (padding, padding) if isinstance(padding, int) else padding
    if min(pad_h, pad_w) < 0:
        raise ValueError(f"invalid padding {padding}")
    if bias is not None and norm is not None:
        raise ValueError("conv2d takes a bias or a norm, not both")
    b = x.shape[0]
    ho = x.shape[1] + 2 * pad_h - kh + 1
    wo = x.shape[2] + 2 * pad_w - kw + 1
    if skip is not None and skip.shape != (b, ho, wo, co):
        raise ValueError(f"skip shape {skip.shape} does not match the output {(b, ho, wo, co)}")
    if ws is not None and layer is None:
        raise ValueError("conv2d with a workspace needs a layer name")

    direct = kh == 1  # the (padded) input already is the column matrix
    h, w, p, q = x.shape[1], x.shape[2], pad_h, pad_w
    xp_shape = (b, h + 2 * p, w + 2 * q, ci)  # the backward keeps the shape, not the padded copy
    cols_shape = (b, ho, wo, kh, kw, ci)
    n_tiles = 1 if tape is not None or momentum is not None else \
        _tile_count(b, ho * wo * kh * kw * ci, co, x.dtype.itemsize)
    tile = -(-b // n_tiles)
    if p or q:
        xp_tile = _buffer(ws, (layer, "cols") if direct else ("pad", xp_shape[1:]),
                          (tile, *xp_shape[1:]), x.dtype)
        xp_tile[:, :p] = xp_tile[:, p + h:] = xp_tile[:, p:p + h, :q] = \
            xp_tile[:, p:p + h, q + w:] = 0
    cols_tile = None if direct else _buffer(ws, (layer, "cols"), (tile, *cols_shape[1:]), x.dtype)
    kmat = kernel.data.reshape(kh * kw * ci, co)
    operands = [] if bias is None else [bias.data]
    if norm is not None:
        gamma, beta, running_mean, running_var = *map(as_tensor, norm[:2]), *norm[2:]
        mean, inv = np.array(running_mean), 1.0 / np.sqrt(running_var + NORM_EPS)
        operands = [mean, inv, gamma.data, beta.data]
    z = _buffer(ws, (layer, "z"), (b * ho * wo, co), np.result_type(x.data, kmat, *operands))
    for i in range(n_tiles):
        lo, hi = b * i // n_tiles, b * (i + 1) // n_tiles
        xp = x.data[lo:hi]
        if p or q:
            xp = xp_tile[:hi - lo]
            xp[:, p:p + h, q:q + w] = x.data[lo:hi]
        cols = xp if direct else _im2col(xp, kh, kw, cols_tile[:hi - lo])
        flat = cols.reshape(-1, kh * kw * ci)
        zt = np.matmul(flat, kmat, out=z[lo * ho * wo:hi * ho * wo])
        if bias is not None:
            zt += bias.data
        if norm is not None:
            zt -= mean
            if momentum is not None:
                # Shifted sum and sum of squares of d = z - mean, in float64 (the
                # tile is the whole batch): E[d]^2 cancels out of E[d^2] when the
                # running mean is far from the batch's.
                d64 = zt.astype(np.float64)
                shift = np.ones(len(zt)) @ d64 / len(zt)
                batch_var = np.maximum(np.einsum("ij,ij->j", d64, d64) / len(zt) - shift * shift,
                                       0)
                running_mean += momentum * shift
                running_var += momentum * (batch_var - running_var)
            zt *= inv
            zt *= gamma.data
            zt += beta.data
        if skip is not None:
            zt += skip.data[lo:hi].reshape(-1, co)
        if relu:
            np.maximum(zt, 0, out=zt)
    out = Tensor(z.reshape(b, ho, wo, co))

    if tape is not None:
        inputs = [x, kernel] + ([bias] if bias is not None else []) \
            + ([gamma, beta] if norm is not None else []) + ([skip] if skip is not None else [])

        @takes_needs
        def backward(g: np.ndarray, needs):
            need_x, need_k, *need_extra = needs[:len(needs) - (skip is not None)]
            if relu:
                g = g * (out.data > 0)
            g_flat = g.reshape(-1, co)
            g_x = g_kernel = None
            extra = [None] * len(need_extra)
            if norm is None:
                if need_k:
                    g_kernel = flat.T @ g_flat
                if bias is not None and need_extra[0]:
                    extra = [g.sum(axis=(0, 1, 2))]
            else:
                # z -> a*z + const, a = gamma*inv, folds into the matmuls: sum(g*z) =
                # sum(K * cols^T g); in float32 gamma's term loses digits when z ~ mean.
                a = gamma.data * inv
                need_gamma, need_beta = need_extra
                if need_k or need_gamma:
                    g_kernel = flat.T @ g_flat
                if need_gamma or need_beta:
                    g_sum = np.einsum("ij->j", g_flat)
                    extra = [inv * ((kmat * g_kernel).sum(axis=0) - mean * g_sum)
                             if need_gamma else None, g_sum]
                g_kernel = g_kernel * a if need_k else None
            if need_x:
                k_eff = kmat if norm is None else kmat * a
                if direct:  # the column gradient is the input gradient returned to the tape
                    g_xp = np.matmul(g_flat, k_eff.T).reshape(xp_shape)
                else:  # in the forward's tiles, each scattered while in cache
                    g_xp = np.zeros(xp_shape, dtype=np.result_type(g_flat, k_eff))
                    n_x = _tile_count(b, ho * wo * kh * kw * ci, co, g_xp.itemsize)
                    g_cols = _buffer(ws, ("gcols", cols_shape[1:]),
                                     (-(-b // n_x), *cols_shape[1:]), g_xp.dtype)
                    for i in range(n_x):
                        lo, hi = b * i // n_x, b * (i + 1) // n_x
                        np.matmul(g_flat[lo * ho * wo:hi * ho * wo], k_eff.T,
                                  out=g_cols[:hi - lo].reshape((hi - lo) * ho * wo, -1))
                        _col2im(g_cols[:hi - lo], g_xp[lo:hi])
                g_x = g_xp[:, p:p + h, q:q + w]
            if g_kernel is not None:
                g_kernel = g_kernel.reshape(kernel.shape)
            return [g_x, g_kernel] + extra + [g] * (skip is not None)

        tape.record(out, inputs, backward)
    return out


# ---------------------------------------------------------------------------
# activations

def sigmoid(x: np.ndarray) -> np.ndarray:
    """Numerically stable logistic function."""
    out = np.empty_like(x)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def activation(x, mode: str, *, tape: Optional[GradTape] = None) -> Tensor:
    """Elementwise/channelwise nonlinearity.

    heaviside_st: forward H(x) = 1 for x >= 0 else 0; backward substitutes the
    logistic-sigmoid derivative s(x)(1-s(x)) regardless of the branch taken.
    softmax_channel normalizes over the last (class) axis.
    """
    x = as_tensor(x)
    xd = x.data
    if mode == "heaviside_st":
        out_data = (xd >= 0).astype(xd.dtype)

        def backward(g):
            s = sigmoid(xd)
            return (g * s * (1.0 - s),)
    elif mode == "sigmoid":
        out_data = sigmoid(xd)

        def backward(g):
            return (g * out_data * (1.0 - out_data),)
    elif mode == "softmax_channel":
        shifted = xd - xd.max(axis=-1, keepdims=True)
        e = np.exp(shifted)
        out_data = e / e.sum(axis=-1, keepdims=True)

        def backward(g):
            dot = (g * out_data).sum(axis=-1, keepdims=True)
            return (out_data * (g - dot),)
    else:
        raise ValueError(f"unknown activation mode {mode!r}; expected one of {ACTIVATION_MODES}")

    out = Tensor(out_data)
    if tape is not None:
        tape.record(out, (x,), backward)
    return out


def add(a, b, *, tape: Optional[GradTape] = None) -> Tensor:
    """Elementwise sum of two same-shape tensors."""
    a, b = as_tensor(a), as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g, g))
    return out


def zero_outside(x, mask: np.ndarray, *, tape: Optional[GradTape] = None) -> Tensor:
    """A (B,H,W,C) tensor with the cells outside the boolean (B,H,W) `mask`
    set to 0; the backward masks the gradient the same way."""
    x = as_tensor(x)
    if mask.shape != x.shape[:3]:
        raise ValueError(f"zero_outside mask shape {mask.shape} does not match {x.shape[:3]}")
    keep = mask[..., None]
    out = Tensor(np.where(keep, x.data, 0))
    if tape is not None:
        tape.record(out, (x,), lambda g: (np.where(keep, g, 0),))
    return out


def center_crop(x, margins: Tuple[int, int], *, tape: Optional[GradTape] = None) -> Tensor:
    """The centre of a (B,H,W,C) tensor without margins = (rows, columns)
    cells on each side; the backward zero-pads the gradient back. Margins of
    0 return x."""
    x = as_tensor(x)
    if margins == (0, 0):
        return x
    b, h, w, c = x.shape
    mh, mw = margins
    if not (0 <= 2 * mh < h and 0 <= 2 * mw < w):
        raise ValueError(f"cannot crop {margins} cells per side from {(h, w)}")
    inner = (slice(None), slice(mh, h - mh), slice(mw, w - mw))
    out = Tensor(x.data[inner])
    if tape is not None:
        def backward(g):
            gx = np.zeros(x.shape, dtype=g.dtype)
            gx[inner] = g
            return (gx,)

        tape.record(out, (x,), backward)
    return out


def channel_affine(x, gamma, beta, mean: np.ndarray, var: np.ndarray, *,
                   tape: Optional[GradTape] = None) -> Tensor:
    """Per-channel normalize-and-rescale: (x - mean)/sqrt(var + NORM_EPS)*gamma + beta.

    mean/var are plain arrays treated as constants (running statistics), so the
    transform is affine in x and gradients never flow through the statistics.
    `conv2d(..., norm=...)` fuses the same map; this unfused op is its reference.
    """
    x, gamma, beta = map(as_tensor, (x, gamma, beta))
    inv = 1.0 / np.sqrt(var + NORM_EPS)
    xhat = (x.data - mean) * inv
    out = Tensor(xhat * gamma.data + beta.data)
    if tape is not None:
        def backward(g):
            axes = tuple(range(g.ndim - 1))
            return (g * (gamma.data * inv),
                    (g * xhat).sum(axis=axes),
                    g.sum(axis=axes))

        tape.record(out, (x, gamma, beta), backward)
    return out


def class_sums(s, mask: Optional[np.ndarray] = None, *,
               tape: Optional[GradTape] = None) -> Tensor:
    """Sum a (B,H,W,C) score map over its spatial axes -> (B,C). A boolean
    (B,H,W) `mask` sums only the cells where it is set."""
    s = as_tensor(s)
    if s.data.ndim != 4:
        raise ValueError(f"class_sums expects (B,H,W,C), got shape {s.shape}")
    b, h, w, c = s.shape
    if mask is not None and mask.shape != (b, h, w):
        raise ValueError(f"class_sums mask shape {mask.shape} does not match {(b, h, w)}")
    kept = s.data if mask is None else np.where(mask[..., None], s.data, 0)
    out = Tensor(kept.sum(axis=(1, 2)))
    if tape is not None:
        def backward(g):
            gs = np.zeros((b, h, w, c), dtype=g.dtype)
            gs[...] = g[:, None, None, :]
            if mask is not None:
                gs[~mask] = 0
            return (gs,)

        tape.record(out, (s,), backward)
    return out


# ---------------------------------------------------------------------------
# Adam

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8

@dataclass
class AdamState:
    """First/second moment estimates and step counter for a named parameter set."""

    m: Dict[str, np.ndarray]
    v: Dict[str, np.ndarray]
    step: int = 0

    @classmethod
    def init(cls, params: Dict[str, Tensor]) -> "AdamState":
        return cls(m={n: np.zeros_like(t.data) for n, t in params.items()},
                   v={n: np.zeros_like(t.data) for n, t in params.items()})


def adam_step(params: Dict[str, Tensor], grads: Dict[str, Optional[np.ndarray]],
              state: AdamState, lr: float) -> None:
    """One Adam update, in place. A missing/None gradient counts as zero.

    The whole update is aborted (no parameter touched) if any gradient is
    non-finite.
    """
    for name in params:
        g = grads.get(name)
        if g is not None and not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter {name!r}; update aborted")
        if g is not None and g.shape != params[name].data.shape:
            raise RuntimeError(
                f"gradient shape {g.shape} does not match parameter {name!r} "
                f"shape {params[name].data.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - ADAM_BETA1 ** t
    bc2 = 1.0 - ADAM_BETA2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = 0.0
        m = state.m[name]
        v = state.v[name]
        m *= ADAM_BETA1
        m += (1.0 - ADAM_BETA1) * g
        v *= ADAM_BETA2
        v += (1.0 - ADAM_BETA2) * np.square(g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + ADAM_EPS)
