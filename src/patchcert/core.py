"""Dense tensor substrate: tape-recorded forward ops, their backward rules,
and an Adam update. Only the operations the region-scorer architecture needs
are provided; this is not a general autodiff engine."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

ACTIVATION_MODES = ("relu", "heaviside_st", "sigmoid", "softmax_channel")

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


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


class GradTape:
    """Ordered record of executed ops; replaying it in reverse runs the chain
    rule and yields a gradient for every tensor touched in the forward pass."""

    def __init__(self):
        # (output, inputs, backward) where backward(grad_out) returns one
        # gradient array (or None) per input, aligned positionally.
        self._records: List[Tuple[Tensor, Tuple[Tensor, ...], Callable]] = []

    def __len__(self) -> int:
        return len(self._records)

    def record(self, output: Tensor, inputs: Sequence[Tensor], backward: Callable) -> None:
        self._records.append((output, tuple(inputs), backward))

    def gradients(self, loss: Tensor, wrt: Iterable[Tensor]) -> Dict[int, np.ndarray]:
        """Backpropagate from `loss`; returns {id(tensor): grad} for `wrt`.

        Tensors in `wrt` that did not influence the loss map to None.
        """
        grads: Dict[int, np.ndarray] = {id(loss): np.ones_like(loss.data)}
        for output, inputs, backward in reversed(self._records):
            g_out = grads.get(id(output))
            if g_out is None:
                continue
            in_grads = backward(g_out)
            for tensor, g_in in zip(inputs, in_grads):
                if g_in is None:
                    continue
                acc = grads.get(id(tensor))
                grads[id(tensor)] = g_in if acc is None else acc + g_in
        return {id(t): grads.get(id(t)) for t in wrt}


# ---------------------------------------------------------------------------
# convolution

def _im2col(xp: np.ndarray, kh: int, kw: int, stride: int) -> np.ndarray:
    """Gather kernel windows of a padded (B,H,W,C) array into
    (B,Ho,Wo,kh,kw,C)."""
    b, h, w, c = xp.shape
    ho = (h - kh) // stride + 1
    wo = (w - kw) // stride + 1
    cols = np.empty((b, ho, wo, kh, kw, c), dtype=xp.dtype)
    for di in range(kh):
        for dj in range(kw):
            cols[:, :, :, di, dj, :] = xp[:, di:di + ho * stride:stride,
                                          dj:dj + wo * stride:stride, :]
    return cols


def _col2im(gcols: np.ndarray, padded_shape: Tuple[int, ...], stride: int) -> np.ndarray:
    """Scatter-add (B,Ho,Wo,kh,kw,C) window gradients back onto the padded
    input grid."""
    b, ho, wo, kh, kw, c = gcols.shape
    gx = np.zeros(padded_shape, dtype=gcols.dtype)
    for di in range(kh):
        for dj in range(kw):
            gx[:, di:di + ho * stride:stride,
               dj:dj + wo * stride:stride, :] += gcols[:, :, :, di, dj, :]
    return gx


def conv2d(x, kernel, bias=None, *, stride: int = 1, padding: int = 0,
           tape: Optional[GradTape] = None) -> Tensor:
    """Cross-correlation of a (B,H,W,Cin) input with a (kh,kw,Cin,Cout) kernel.

    Output spatial size is floor((in + 2*padding - k)/stride) + 1 per axis.
    """
    x = as_tensor(x)
    kernel = as_tensor(kernel)
    if bias is not None:
        bias = as_tensor(bias)
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
    if stride < 1 or padding < 0:
        raise ValueError(f"invalid stride/padding ({stride}, {padding})")

    one_by_one = kh == 1 and stride == 1 and padding == 0
    if one_by_one:
        xp = x.data
        cols = None
    else:
        xp = np.pad(x.data, ((0, 0), (padding, padding), (padding, padding), (0, 0)))
        cols = _im2col(xp, kh, kw, stride)

    kmat = kernel.data.reshape(kh * kw * ci, co)
    if one_by_one:
        flat = x.data.reshape(-1, ci)
    else:
        flat = cols.reshape(-1, kh * kw * ci)
    out_flat = flat @ kmat
    b = x.shape[0]
    ho = (x.shape[1] + 2 * padding - kh) // stride + 1
    wo = (x.shape[2] + 2 * padding - kw) // stride + 1
    out_data = out_flat.reshape(b, ho, wo, co)
    if bias is not None:
        out_data = out_data + bias.data
    out = Tensor(out_data)

    if tape is not None:
        padded_shape = xp.shape
        inputs = (x, kernel) if bias is None else (x, kernel, bias)

        def backward(g: np.ndarray):
            g_flat = g.reshape(-1, co)
            g_kernel = (flat.T @ g_flat).reshape(kernel.shape)
            g_cols_flat = g_flat @ kmat.T
            if one_by_one:
                g_x = g_cols_flat.reshape(x.shape)
            else:
                g_cols = g_cols_flat.reshape(b, ho, wo, kh, kw, ci)
                g_xp = _col2im(g_cols, padded_shape, stride)
                if padding:
                    g_x = g_xp[:, padding:-padding, padding:-padding, :]
                else:
                    g_x = g_xp
            if bias is None:
                return g_x, g_kernel
            return g_x, g_kernel, g.sum(axis=(0, 1, 2))

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
    if mode == "relu":
        out_data = np.maximum(xd, 0)

        def backward(g):
            return (g * (xd > 0),)
    elif mode == "heaviside_st":
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
    """Elementwise sum of two same-shape tensors (residual skip)."""
    a = as_tensor(a)
    b = as_tensor(b)
    if a.shape != b.shape:
        raise ValueError(f"add shape mismatch: {a.shape} vs {b.shape}")
    out = Tensor(a.data + b.data)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g, g))
    return out


def channel_affine(x, gamma, beta, mean: np.ndarray, var: np.ndarray, *,
                   eps: float = 1e-5, tape: Optional[GradTape] = None) -> Tensor:
    """Per-channel normalize-and-rescale: (x - mean)/sqrt(var + eps)*gamma + beta.

    mean/var are plain arrays treated as constants (running statistics), so the
    transform is affine in x and gradients never flow through the statistics.
    """
    x = as_tensor(x)
    gamma = as_tensor(gamma)
    beta = as_tensor(beta)
    inv = 1.0 / np.sqrt(var + eps)
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


def class_sums(s, window: Optional[Tuple[slice, slice]] = None, *,
               tape: Optional[GradTape] = None) -> Tensor:
    """Sum a (B,H,W,C) score map over its spatial axes -> (B,C). A `window`
    of (rows, cols) slices sums only that rectangle."""
    s = as_tensor(s)
    if s.data.ndim != 4:
        raise ValueError(f"class_sums expects (B,H,W,C), got shape {s.shape}")
    b, h, w, c = s.shape
    rows, cols = window or (slice(None), slice(None))
    out = Tensor(s.data[:, rows, cols].sum(axis=(1, 2)))
    if tape is not None:
        def backward(g):
            gs = np.zeros((b, h, w, c), dtype=g.dtype)
            gs[:, rows, cols] = g[:, None, None, :]
            return (gs,)

        tape.record(out, (s,), backward)
    return out


# ---------------------------------------------------------------------------
# Adam

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
              state: AdamState, lr: float, *, beta1: float = 0.9,
              beta2: float = 0.999, eps: float = 1e-8) -> None:
    """One Adam update, in place. A missing/None gradient counts as zero.

    The whole update is aborted (no parameter touched) if any gradient is
    non-finite.
    """
    for name in params:
        g = grads.get(name)
        if g is not None and not np.isfinite(g).all():
            raise ValueError(f"non-finite gradient for parameter {name!r}; update aborted")
        if g is not None and g.shape != params[name].data.shape:
            raise ValueError(
                f"gradient shape {g.shape} does not match parameter {name!r} "
                f"shape {params[name].data.shape}")
    state.step += 1
    t = state.step
    bc1 = 1.0 - beta1 ** t
    bc2 = 1.0 - beta2 ** t
    for name, p in params.items():
        g = grads.get(name)
        if g is None:
            g = 0.0
        m = state.m[name]
        v = state.v[name]
        m *= beta1
        m += (1.0 - beta1) * g
        v *= beta2
        v += (1.0 - beta2) * np.square(g)
        p.data -= lr * (m / bc1) / (np.sqrt(v / bc2) + eps)
