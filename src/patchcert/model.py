"""The region scorer: an all-convolutional residual network with a small,
architecture-controlled receptive field and a binarizing (or relaxed) head."""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import asdict, dataclass
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import core
from .core import GradTape, Tensor
from .geometry import LayerGeom, receptive_field

CHECKPOINT_MAGIC = b"PCKP"
CHECKPOINT_VERSION = 1

NORM_EPS = 1e-5
NORM_MOMENTUM = 0.1

# Kernel assignment per residual block for each named receptive field; the
# stem is always a 3x3 convolution and the head a 1x1.
BLOCK_KERNELS = {
    5: (3, 1, 1, 1, 1, 1, 1, 1),
    7: (3, 1, 3, 1, 1, 1, 1, 1),
    9: (3, 1, 3, 1, 3, 1, 1, 1),
    11: (3, 1, 3, 1, 3, 1, 3, 1),
    13: (3, 3, 3, 1, 3, 1, 3, 1),
}

# Strided large-input variants; declared for geometry only (blocks 1 and 3
# use stride 2), not buildable as identity-skip models.
STRIDED_BLOCK_KERNELS = {
    17: (3, 1, 3, 1, 3, 1, 1, 1),
    25: (3, 1, 3, 1, 3, 1, 3, 1),
    29: (3, 3, 3, 1, 3, 1, 3, 1),
}


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description: enough to rebuild both the parameter shapes
    and the layer geometry."""

    name: str
    input_shape: Tuple[int, int, int]  # (h_in, w_in, c_in)
    stem_kernel: int
    block_kernels: Tuple[int, ...]
    block_strides: Tuple[int, ...]
    width: int
    classes: int
    activation: str = "heaviside_st"

    def __post_init__(self):
        if len(self.block_kernels) != len(self.block_strides):
            raise ValueError("block_kernels and block_strides must have equal length")
        if self.activation not in ("heaviside_st", "sigmoid", "softmax_channel"):
            raise ValueError(f"unknown head activation {self.activation!r}")
        if self.classes < 2:
            raise ValueError("need at least 2 classes")
        if self.width < 1:
            raise ValueError("width must be positive")

    def layer_geom(self) -> List[LayerGeom]:
        """One entry per spatial stage: stem, each block (its one spatial
        conv), and the 1x1 head."""
        layers = [LayerGeom(kernel=self.stem_kernel)]
        layers += [LayerGeom(kernel=k, stride=s)
                   for k, s in zip(self.block_kernels, self.block_strides)]
        layers.append(LayerGeom(kernel=1))
        return layers

    def output_shape(self) -> Tuple[int, int, int]:
        h_in, w_in, _ = self.input_shape
        info = receptive_field(self.layer_geom(), h_in, w_in)
        return info.h_out, info.w_out, self.classes


def cifar_spec(rf: int, *, input_shape=(32, 32, 3), width: int = 64,
               classes: int = 10, activation: str = "heaviside_st") -> NetworkSpec:
    """Named stride-1 configuration with the requested receptive field."""
    if rf not in BLOCK_KERNELS:
        raise ValueError(f"no kernel table for rf {rf}; choose from {sorted(BLOCK_KERNELS)}")
    kernels = BLOCK_KERNELS[rf]
    spec = NetworkSpec(name=f"rf{rf}", input_shape=tuple(input_shape), stem_kernel=3,
                       block_kernels=kernels, block_strides=(1,) * len(kernels),
                       width=width, classes=classes, activation=activation)
    h_in, w_in, _ = spec.input_shape
    got = receptive_field(spec.layer_geom(), h_in, w_in).rf_h
    if got != rf:
        raise ValueError(f"spec rf{rf} derives receptive field {got}")
    return spec


def strided_layer_geom(rf: int) -> List[LayerGeom]:
    """Layer geometry of the large-input strided variants (geometry only)."""
    if rf not in STRIDED_BLOCK_KERNELS:
        raise ValueError(f"no strided kernel table for rf {rf}")
    kernels = STRIDED_BLOCK_KERNELS[rf]
    strides = tuple(2 if i in (0, 2) else 1 for i in range(len(kernels)))
    layers = [LayerGeom(kernel=3)]
    layers += [LayerGeom(kernel=k, stride=s) for k, s in zip(kernels, strides)]
    layers.append(LayerGeom(kernel=1))
    return layers


@dataclass
class Parameters:
    """Named parameter arrays plus which of them the optimizer may touch.

    Normalization running statistics live here too (they are model state and
    checkpointed) but are never trainable.
    """

    tensors: Dict[str, Tensor]
    trainable: Tuple[str, ...]

    def trainable_tensors(self) -> Dict[str, Tensor]:
        return {n: self.tensors[n] for n in self.trainable}

    def copy(self) -> "Parameters":
        return Parameters(
            tensors={n: Tensor(t.data.copy(), name=n) for n, t in self.tensors.items()},
            trainable=self.trainable)


def build_model(spec: NetworkSpec, seed: int) -> Parameters:
    """Deterministic fan-in-scaled uniform initialization from the seed."""
    if any(s != 1 for s in spec.block_strides):
        raise ValueError(
            f"spec {spec.name!r} uses strided blocks; identity-skip models are "
            "stride-1 only (strided variants are declared for geometry only)")
    rng = np.random.default_rng(seed)
    h_in, w_in, c_in = spec.input_shape
    tensors: Dict[str, Tensor] = {}
    trainable: List[str] = []

    def conv(name: str, k: int, ci: int, co: int, bias: bool = False):
        bound = 1.0 / np.sqrt(k * k * ci)
        kern = rng.uniform(-bound, bound, size=(k, k, ci, co)).astype(np.float32)
        tensors[name + ".kernel"] = Tensor(kern, name=name + ".kernel")
        trainable.append(name + ".kernel")
        if bias:
            tensors[name + ".bias"] = Tensor(np.zeros(co, dtype=np.float32),
                                             name=name + ".bias")
            trainable.append(name + ".bias")

    def norm(name: str, c: int):
        tensors[name + ".gamma"] = Tensor(np.ones(c, dtype=np.float32), name=name + ".gamma")
        tensors[name + ".beta"] = Tensor(np.zeros(c, dtype=np.float32), name=name + ".beta")
        trainable.extend([name + ".gamma", name + ".beta"])
        tensors[name + ".running_mean"] = Tensor(np.zeros(c, dtype=np.float32))
        tensors[name + ".running_var"] = Tensor(np.ones(c, dtype=np.float32))

    w = spec.width
    conv("stem", spec.stem_kernel, c_in, w)
    norm("stem.norm", w)
    for i, k in enumerate(spec.block_kernels):
        conv(f"block{i}.conv1", k, w, w)
        norm(f"block{i}.norm1", w)
        conv(f"block{i}.conv2", 1, w, w)
        norm(f"block{i}.norm2", w)
    conv("head", 1, w, spec.classes, bias=True)
    return Parameters(tensors=tensors, trainable=tuple(trainable))


def _norm_layer(params: Parameters, name: str, x: Tensor, tape, training: bool) -> Tensor:
    t = params.tensors
    mean = t[name + ".running_mean"].data
    var = t[name + ".running_var"].data
    if training:
        # Normalize with the pre-update running statistics (constants for the
        # gradient), then fold the batch statistics into the running estimate.
        # Using only running statistics in the forward keeps every output a
        # function of its receptive field alone, which certification needs.
        axes = tuple(range(x.data.ndim - 1))
        batch_mean = x.data.mean(axis=axes)
        batch_var = x.data.var(axis=axes)
        out = core.channel_affine(x, t[name + ".gamma"], t[name + ".beta"],
                                  mean.copy(), var.copy(), eps=NORM_EPS, tape=tape)
        mean += NORM_MOMENTUM * (batch_mean.astype(mean.dtype) - mean)
        var += NORM_MOMENTUM * (batch_var.astype(var.dtype) - var)
        return out
    return core.channel_affine(x, t[name + ".gamma"], t[name + ".beta"],
                               mean, var, eps=NORM_EPS, tape=tape)


def forward(params: Parameters, spec: NetworkSpec, x, mode: Optional[str] = None,
            *, tape: Optional[GradTape] = None,
            training: bool = False) -> Tuple[Tensor, Tensor]:
    """One pass: returns (logit map, score map). The score map is binary for
    the heaviside_st head and lies in [0,1] for the relaxed heads."""
    mode = mode or spec.activation
    if not isinstance(x, Tensor):
        x = Tensor(np.asarray(x))
    data = x.data
    if data.ndim == 3:
        x = Tensor(data[None], name=x.name)
        data = x.data
    if data.ndim != 4:
        raise ValueError(f"input must be (B,h,w,c) or (h,w,c), got shape {data.shape}")
    if data.shape[1:] != tuple(spec.input_shape):
        raise ValueError(
            f"input shape {data.shape[1:]} does not match spec input {spec.input_shape}")
    if data.min() < 0.0 or data.max() > 1.0:
        raise ValueError("input pixels must lie in [0,1]")

    t = params.tensors
    h = core.conv2d(x, t["stem.kernel"], stride=1,
                    padding=spec.stem_kernel // 2, tape=tape)
    h = _norm_layer(params, "stem.norm", h, tape, training)
    h = core.activation(h, "relu", tape=tape)
    for i, k in enumerate(spec.block_kernels):
        y = core.conv2d(h, t[f"block{i}.conv1.kernel"], stride=1, padding=k // 2, tape=tape)
        y = _norm_layer(params, f"block{i}.norm1", y, tape, training)
        y = core.activation(y, "relu", tape=tape)
        y = core.conv2d(y, t[f"block{i}.conv2.kernel"], stride=1, padding=0, tape=tape)
        y = _norm_layer(params, f"block{i}.norm2", y, tape, training)
        h = core.activation(core.add(h, y, tape=tape), "relu", tape=tape)
    logits = core.conv2d(h, t["head.kernel"], t["head.bias"], stride=1,
                         padding=0, tape=tape)
    scores = core.activation(logits, mode, tape=tape)
    return logits, scores


def forward_maps(params: Parameters, spec: NetworkSpec, images: np.ndarray,
                 batch: int) -> np.ndarray:
    """Score maps of a whole image array, forwarded `batch` images at a time.
    Relaxed heads can differ in the last bits between batch sizes, so callers
    keep theirs fixed."""
    return np.concatenate([forward(params, spec, images[lo:lo + batch])[1].data
                           for lo in range(0, len(images), batch)])


def binary_scores(scores: Tensor) -> np.ndarray:
    """Score tensor of a heaviside head -> uint8 array for the certifier."""
    arr = scores.data if isinstance(scores, Tensor) else np.asarray(scores)
    out = arr.astype(np.uint8)
    if not np.array_equal(out, arr):
        raise ValueError("score map is not binary; use the relaxed certification path")
    return out


# ---------------------------------------------------------------------------
# checkpoints

def save_checkpoint(params: Parameters, spec: NetworkSpec, path, step: int = 0) -> None:
    """Bit-exact serialization: magic, version, step, spec JSON, then raw
    little-endian float32 arrays in a fixed named order."""
    buf = io.BytesIO()
    buf.write(CHECKPOINT_MAGIC)
    buf.write(struct.pack("<IQ", CHECKPOINT_VERSION, step))
    meta = json.dumps({"spec": asdict(spec), "trainable": list(params.trainable)},
                      sort_keys=True).encode()
    buf.write(struct.pack("<I", len(meta)))
    buf.write(meta)
    buf.write(struct.pack("<I", len(params.tensors)))
    for name, tensor in params.tensors.items():
        data = np.ascontiguousarray(tensor.data, dtype=np.float32)
        encoded = name.encode()
        buf.write(struct.pack("<H", len(encoded)))
        buf.write(encoded)
        buf.write(struct.pack("<B", data.ndim))
        buf.write(struct.pack(f"<{data.ndim}I", *data.shape))
        buf.write(data.astype("<f4").tobytes())
    blob = buf.getvalue()
    tmp = str(path) + ".tmp"
    with open(tmp, "wb") as f:
        f.write(blob)
    os.replace(tmp, path)


def load_checkpoint(path) -> Tuple[Parameters, NetworkSpec, int]:
    with open(path, "rb") as f:
        blob = f.read()
    view = memoryview(blob)
    pos = 0

    def take(n: int, what: str) -> memoryview:
        nonlocal pos
        if pos + n > len(view):
            raise ValueError(f"truncated checkpoint: expected {what} at byte {pos}")
        chunk = view[pos:pos + n]
        pos += n
        return chunk

    magic = bytes(take(4, "magic"))
    if magic != CHECKPOINT_MAGIC:
        raise ValueError(f"bad checkpoint magic {magic!r}, expected {CHECKPOINT_MAGIC!r}")
    version, step = struct.unpack("<IQ", take(12, "header"))
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"checkpoint format version {version} unsupported (reader is "
            f"version {CHECKPOINT_VERSION})")
    (meta_len,) = struct.unpack("<I", take(4, "metadata length"))
    meta = json.loads(bytes(take(meta_len, "metadata")))
    spec_dict = dict(meta["spec"])
    spec_dict["input_shape"] = tuple(spec_dict["input_shape"])
    spec_dict["block_kernels"] = tuple(spec_dict["block_kernels"])
    spec_dict["block_strides"] = tuple(spec_dict["block_strides"])
    spec = NetworkSpec(**spec_dict)
    (n_arrays,) = struct.unpack("<I", take(4, "array count"))
    tensors: Dict[str, Tensor] = {}
    for _ in range(n_arrays):
        (name_len,) = struct.unpack("<H", take(2, "name length"))
        name = bytes(take(name_len, "name")).decode()
        (ndim,) = struct.unpack("<B", take(1, "rank"))
        shape = struct.unpack(f"<{ndim}I", take(4 * ndim, "shape"))
        count = int(np.prod(shape)) if shape else 1
        data = np.frombuffer(take(4 * count, f"data of {name!r}"),
                             dtype="<f4").reshape(shape).copy()
        tensors[name] = Tensor(data, name=name)
    if pos != len(view):
        raise ValueError(f"checkpoint has {len(view) - pos} trailing bytes")
    return Parameters(tensors=tensors, trainable=tuple(meta["trainable"])), spec, step
