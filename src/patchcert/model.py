"""The region scorer: an all-convolutional residual network with a small,
architecture-controlled receptive field and a binarizing (or relaxed) head."""

from __future__ import annotations

import io
import json
import os
import struct
from dataclasses import asdict, dataclass, fields
from typing import Dict, List, Optional, Tuple

import numpy as np

from . import core
from .core import GradTape, Tensor
from .geometry import LayerGeom, receptive_field

CHECKPOINT_MAGIC = b"PCKP"
CHECKPOINT_VERSION = 1

HEADS = ("heaviside_st", "sigmoid", "softmax_channel")  # binary, then the relaxed heads

NORM_MOMENTUM = 0.1
MAP_BATCH = 128  # images per forward in forward_maps

# Kernel assignment per residual block for each named receptive field; the
# stem is always a 3x3 convolution and the head a 1x1.
BLOCK_KERNELS = {
    5: (3, 1, 1, 1, 1, 1, 1, 1),
    7: (3, 1, 3, 1, 1, 1, 1, 1),
    9: (3, 1, 3, 1, 3, 1, 1, 1),
    11: (3, 1, 3, 1, 3, 1, 3, 1),
    13: (3, 3, 3, 1, 3, 1, 3, 1),
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
        if self.activation not in HEADS:
            raise ValueError(f"unknown head activation {self.activation!r}")
        if len(self.input_shape) != 3 or min(self.input_shape) < 1:
            raise ValueError(f"input_shape must be three positive sizes, got {self.input_shape}")
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
        raise RuntimeError(f"spec rf{rf} derives receptive field {got}")
    return spec


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


def parameter_shapes(spec: NetworkSpec) -> Dict[str, Tuple[int, ...]]:
    """Name and shape of every array of the spec's model, in build order."""
    if any(s != 1 for s in spec.block_strides):
        raise ValueError(
            f"spec {spec.name!r} uses strided blocks; identity-skip models are "
            "stride-1 only")
    shapes: Dict[str, Tuple[int, ...]] = {}

    def conv(name: str, k: int, ci: int, co: int, bias: bool = False):
        shapes[name + ".kernel"] = (k, k, ci, co)
        if bias:
            shapes[name + ".bias"] = (co,)

    def norm(name: str, c: int):
        for part in ("gamma", "beta", "running_mean", "running_var"):
            shapes[f"{name}.{part}"] = (c,)

    w = spec.width
    conv("stem", spec.stem_kernel, spec.input_shape[2], w)
    norm("stem.norm", w)
    for i, k in enumerate(spec.block_kernels):
        conv(f"block{i}.conv1", k, w, w)
        norm(f"block{i}.norm1", w)
        conv(f"block{i}.conv2", 1, w, w)
        norm(f"block{i}.norm2", w)
    conv("head", 1, w, spec.classes, bias=True)
    return shapes


def build_model(spec: NetworkSpec, seed: int) -> Parameters:
    """Deterministic fan-in-scaled uniform initialization from the seed:
    kernels uniform, gamma and running variances 1, the rest 0. Running
    statistics are model state, not trainable."""
    rng = np.random.default_rng(seed)
    tensors: Dict[str, Tensor] = {}
    trainable: List[str] = []
    for name, shape in parameter_shapes(spec).items():
        part = name.rsplit(".", 1)[1]
        if part == "kernel":
            bound = 1.0 / np.sqrt(shape[0] * shape[1] * shape[2])
            data = rng.uniform(-bound, bound, size=shape).astype(np.float32)
        else:
            fill = np.ones if part in ("gamma", "running_var") else np.zeros
            data = fill(shape, dtype=np.float32)
        if part.startswith("running_"):
            tensors[name] = Tensor(data)
        else:
            tensors[name] = Tensor(data, name=name)
            trainable.append(name)
    return Parameters(tensors=tensors, trainable=tuple(trainable))


def forward(params: Parameters, spec: NetworkSpec, x, mode: Optional[str] = None,
            *, tape: Optional[GradTape] = None, training: bool = False,
            ws: Optional[core.Workspace] = None,
            inside: Optional[np.ndarray] = None) -> Tuple[Tensor, Tensor]:
    """One pass: returns (logit map, score map). The score map is binary for
    the heaviside_st head and lies in [0,1] for the relaxed heads. Every conv
    writes its large arrays into the workspace `ws` under its layer name, if
    one is given (see `core.Workspace` for how long they stay valid).

    Without `inside`, x is whole images of the spec's input shape, every
    cell in the image, and every conv pads by k//2. With `inside`, a boolean
    (B,H,W) mask of the cells of x that lie in the image, x is a window of
    zero-padded images. Along an axis where x is as long as the image, x is
    the whole image and every conv pads by k//2 along it. Along any other
    axis x is a window of at least rf cells and every conv runs unpadded
    along it: each spatial conv (k > 1) shrinks the window by k//2 per side,
    so the maps come out rf//2 cells shorter per side. Before every spatial
    conv after the stem, the cells outside the image are zeroed, as the
    padding of the padded model is, and each skip is centre-cropped to its
    block's output window. Every
    output cell in the image has the same bits as in the padded forward of
    the whole image. So has the gradient of a loss on those cells with
    respect to an input cell in the image whose outputs in the image all lie
    in the output window, since every output it moves is computed. Training
    never takes a mask."""
    mode = mode or spec.activation
    x = core.as_tensor(x)
    data = x.data
    if data.ndim == 3:
        x = Tensor(data[None], name=x.name)
        data = x.data
    if data.ndim != 4:
        raise ValueError(f"input must be (B,h,w,c) or (h,w,c), got shape {data.shape}")
    valid = tuple(n != size for n, size in zip(data.shape[1:3], spec.input_shape[:2]))
    if inside is None:
        if data.shape[1:] != tuple(spec.input_shape):
            raise ValueError(
                f"input shape {data.shape[1:]} does not match spec input {spec.input_shape}")
        inside = np.ones(data.shape[:3], dtype=bool)
    else:
        rf = receptive_field(spec.layer_geom(), *spec.input_shape[:2]).rf_h
        if training:
            raise ValueError("a windowed forward cannot train")
        if inside.dtype != bool or inside.shape != data.shape[:3]:
            raise ValueError(f"in-image mask of {inside.dtype} {inside.shape} does not match "
                             f"the input's {data.shape[:3]}")
        if data.shape[3] != spec.input_shape[2] or \
                any(v and n < rf for v, n in zip(valid, data.shape[1:3])):
            raise ValueError(f"input window {data.shape[1:]} needs {spec.input_shape[2]} "
                             f"channels and, along an axis shorter or longer than the "
                             f"image's, at least {rf} cells")
    ring = not inside.all()
    if not (data.min() >= 0.0 and data.max() <= 1.0):  # NaN fails too
        raise ValueError("input pixels must lie in [0,1]")

    t = params.tensors

    def conv_norm_relu(inp: Tensor, conv: str, norm: str, k: int, skip=None) -> Tensor:
        # The norm uses the pre-update running statistics even in training, so
        # every output stays a function of its receptive field alone, as
        # certification needs; training then moves them toward the batch's.
        stats = (t[norm + ".gamma"], t[norm + ".beta"], t[norm + ".running_mean"].data,
                 t[norm + ".running_var"].data)
        if k > 1 and ring and inp is not x:
            mh, mw = ((n - m) // 2 for n, m in zip(inside.shape[1:], inp.shape[1:3]))
            inp = core.zero_outside(
                inp, inside[:, mh:mh + inp.shape[1], mw:mw + inp.shape[2]], tape=tape)
        padding = tuple(0 if v else k // 2 for v in valid)
        return core.conv2d(inp, t[conv + ".kernel"], padding=padding, norm=stats, skip=skip,
                           relu=True, momentum=NORM_MOMENTUM if training else None,
                           tape=tape, ws=ws, layer=conv)

    h = conv_norm_relu(x, "stem", "stem.norm", spec.stem_kernel)
    for i, k in enumerate(spec.block_kernels):
        y = conv_norm_relu(h, f"block{i}.conv1", f"block{i}.norm1", k)
        h = conv_norm_relu(y, f"block{i}.conv2", f"block{i}.norm2", 1,
                           skip=core.center_crop(h, tuple(k // 2 if v else 0 for v in valid),
                                                 tape=tape))
    logits = core.conv2d(h, t["head.kernel"], t["head.bias"], tape=tape, ws=ws, layer="head")
    scores = core.activation(logits, mode, tape=tape)
    return logits, scores


def forward_maps(params: Parameters, spec: NetworkSpec, images: np.ndarray) -> np.ndarray:
    """Score maps of a whole image array, forwarded MAP_BATCH images at a
    time; an empty (0, h_out, w_out, C) float32 array for no images.

    Each conv of a batch runs in tiles of whole images (core.conv2d), so
    the batch sets how many layer outputs are alive at once, not the size of
    a column matrix, and the maps are the bits of a one-tile (taped) forward
    of the same batch. Another batch size can still put a matmul under
    another BLAS kernel: binary maps could then differ only where a logit
    sits at 0, relaxed ones in the last bits, so every caller forwards in
    batches of MAP_BATCH."""
    if not len(images):
        return np.zeros((0, *spec.output_shape()), dtype=np.float32)
    return np.concatenate([forward(params, spec, images[lo:lo + MAP_BATCH])[1].data
                           for lo in range(0, len(images), MAP_BATCH)])


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
    spec = _spec_from_metadata(meta)
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
    params = Parameters(tensors=tensors, trainable=tuple(meta["trainable"]))
    _check_tensors(params, parameter_shapes(spec))
    return params, spec, step


def _spec_from_metadata(meta) -> NetworkSpec:
    """The NetworkSpec of checkpoint metadata, which must hold `spec` with
    every NetworkSpec field and a `trainable` list of names."""
    if not isinstance(meta, dict) or not isinstance(meta.get("spec"), dict):
        raise ValueError("checkpoint metadata has no spec")
    if not isinstance(meta.get("trainable"), list):
        raise ValueError("checkpoint metadata has no trainable list")
    spec_dict = dict(meta["spec"])
    names = sorted(f.name for f in fields(NetworkSpec))
    if sorted(spec_dict) != names:
        raise ValueError(f"checkpoint spec fields {sorted(spec_dict)} do not match "
                         f"NetworkSpec's {names}")
    try:
        for key in ("input_shape", "block_kernels", "block_strides"):
            spec_dict[key] = tuple(spec_dict[key])
        return NetworkSpec(**spec_dict)
    except TypeError as e:
        raise ValueError(f"checkpoint spec is malformed: {e}")


def _check_tensors(params: Parameters, expected: Dict[str, Tuple[int, ...]]) -> None:
    """Every array of the spec's model (name -> shape) is present with its
    shape, no other array is, every value is finite, and every trainable name
    is an array."""
    tensors = params.tensors
    missing = sorted(set(expected) - set(tensors))
    extra = sorted(set(tensors) - set(expected))
    if missing or extra:
        raise ValueError(f"checkpoint arrays do not match its spec: missing {missing}, "
                         f"unexpected {extra}")
    for name, want in expected.items():
        got = tensors[name].data
        if got.shape != want:
            raise ValueError(f"checkpoint array {name!r} has shape {got.shape}, "
                             f"its spec needs {want}")
        if not np.isfinite(got).all():
            raise ValueError(f"checkpoint array {name!r} holds non-finite values")
    unknown = sorted(set(params.trainable) - set(tensors))
    if unknown:
        raise ValueError(f"checkpoint marks unknown arrays {unknown} trainable")
