"""End-to-end training: the margin loss derived from the certification margin,
the one-hot penalty, warmup+cosine schedule, and per-epoch certified metrics."""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field
from typing import List, Optional, Tuple

import numpy as np

from . import certify, core, geometry, model
from .core import AdamState, GradTape, Tensor, adam_step
from .data import DatasetHandle, augment
from .model import NetworkSpec, Parameters


@dataclass(frozen=True)
class TrainConfig:
    margin: float = 0.5          # M = 2R/(w_out*h_out), in (0, 1]
    one_hot_weight: float = 0.0  # sigma
    lr: float = 0.001
    batch_size: int = 32
    epochs: int = 30
    warmup_epochs: int = 3
    seed: int = 0
    activation: str = "heaviside_st"
    augment: bool = True
    holdout_fraction: float = 0.1
    eval_patch: Tuple[int, int] = (3, 3)

    def __post_init__(self):
        if not 0.0 < self.margin <= 1.0:
            raise ValueError(f"train.margin must lie in (0, 1], got {self.margin}")
        if not (math.isfinite(self.lr) and self.lr > 0.0):
            raise ValueError(f"train.lr must be finite and > 0, got {self.lr}")
        if self.one_hot_weight < 0.0:
            raise ValueError("train.sigma: one-hot weight must be non-negative")
        if not math.isfinite(self.one_hot_weight):
            raise ValueError(f"train.sigma must be finite, got {self.one_hot_weight}")
        if self.batch_size < 1 or self.epochs < 1:
            raise ValueError("train.batch_size/train.epochs: batch size and epochs "
                             "must be positive")
        if not 0 <= self.warmup_epochs < self.epochs:
            raise ValueError(
                f"train.warmup_epochs: warmup ({self.warmup_epochs} epochs) must be "
                f"shorter than the run ({self.epochs} epochs)")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ValueError("train.holdout_fraction: holdout fraction must lie in (0, 1)")


@dataclass(frozen=True)
class EpochMetrics:
    epoch: int
    clean_acc: float
    cert32_acc: float
    cert33_acc: float
    loss: float
    lr: float
    seconds: float


@dataclass
class MetricsLog:
    epochs: List[EpochMetrics] = field(default_factory=list)
    diverged: bool = False

    CSV_HEADER = ("epoch", "clean_acc", "cert32_acc", "cert33_acc", "loss", "lr", "seconds")

    def append(self, row: EpochMetrics) -> None:
        if not (row.cert33_acc <= row.cert32_acc + 1e-12
                and row.cert32_acc <= row.clean_acc + 1e-12):
            raise AssertionError(
                f"metric ordering violated at epoch {row.epoch}: "
                f"cert33={row.cert33_acc} cert32={row.cert32_acc} clean={row.clean_acc}")
        self.epochs.append(row)

    def rows(self) -> List[List[str]]:
        return [[str(m.epoch)] + [f"{v:.6f}" for v in
                                  (m.clean_acc, m.cert32_acc, m.cert33_acc,
                                   m.loss, m.lr, m.seconds)]
                for m in self.epochs]


# ---------------------------------------------------------------------------
# loss pieces (tape ops)

def delta_sums(sums, labels: np.ndarray, area: int, *,
               tape: Optional[GradTape] = None) -> Tensor:
    """Per-class vote margins from raw class sums: (S[b, y_b] - S[b, c]) / area.

    The true-class column is identically zero.
    """
    sums = core.as_tensor(sums)
    b, c = sums.shape
    labels = np.asarray(labels)
    rows = np.arange(b)
    inv = 1.0 / float(area)
    out = Tensor((sums.data[rows, labels][:, None] - sums.data) * inv)
    if tape is not None:
        def backward(g):
            gs = -g * inv
            gs[rows, labels] += g.sum(axis=1) * inv
            return (gs.astype(sums.dtype),)

        tape.record(out, (sums,), backward)
    return out


def margin_loss(dsums, labels: np.ndarray, margin: float, *,
                tape: Optional[GradTape] = None) -> Tensor:
    """-min(min over rivals of the normalized delta sum, M), averaged over the
    batch. The subgradient flows to the minimizing rival class only (lowest
    index on ties) and is zero once clamped at the margin."""
    if not 0.0 < margin <= 1.0:
        raise ValueError(f"margin must lie in (0, 1], got {margin}")
    dsums = core.as_tensor(dsums)
    b, c = dsums.shape
    if c < 2:
        raise ValueError("margin loss needs at least 2 classes")
    labels = np.asarray(labels)
    rows = np.arange(b)
    masked = dsums.data.copy()
    masked[rows, labels] = np.inf
    argmin = masked.argmin(axis=1)
    vmin = masked[rows, argmin]
    clamped = vmin >= margin
    loss_val = -np.where(clamped, margin, vmin).mean(dtype=np.float64)
    out = Tensor(np.asarray(loss_val, dtype=dsums.dtype))
    if tape is not None:
        def backward(g):
            gd = np.zeros_like(dsums.data)
            active = ~clamped
            gd[rows[active], argmin[active]] = -g / b
            return (gd,)

        tape.record(out, (dsums,), backward)
    return out


def one_hot_penalty(norm_sums, *, tape: Optional[GradTape] = None) -> Tensor:
    """max over non-argmax classes of S_c minus S_argmax, for S in [0,1]^C,
    averaged over the batch. -1 exactly when S is one-hot."""
    norm_sums = core.as_tensor(norm_sums)
    s = norm_sums.data
    # NaN fails both comparisons, so it is rejected too
    if not (s.min() >= 0.0 and s.max() <= 1.0):
        raise ValueError("one-hot penalty expects class scores in [0,1]")
    b, c = s.shape
    rows = np.arange(b)
    cmax = s.argmax(axis=1)
    masked = s.copy()
    masked[rows, cmax] = -np.inf
    runner = masked.argmax(axis=1)
    out = Tensor(np.asarray((masked[rows, runner] - s[rows, cmax]).mean(dtype=np.float64),
                            dtype=s.dtype))
    if tape is not None:
        def backward(g):
            gs = np.zeros_like(s)
            gs[rows, runner] += g / b
            gs[rows, cmax] -= g / b
            return (gs,)

        tape.record(out, (norm_sums,), backward)
    return out


def weighted_sum(a, b, weight: float, *, tape: Optional[GradTape] = None) -> Tensor:
    a = core.as_tensor(a)
    b = core.as_tensor(b)
    out = Tensor(a.data + weight * b.data)
    if tape is not None:
        tape.record(out, (a, b), lambda g: (g, weight * g))
    return out


def total_loss(dsums, norm_sums, labels: np.ndarray, config: TrainConfig, *,
               tape: Optional[GradTape] = None) -> Tensor:
    """Margin loss plus sigma times the one-hot penalty; sigma = 0 reduces to
    the margin loss bitwise."""
    margin = margin_loss(dsums, labels, config.margin, tape=tape)
    if config.one_hot_weight == 0.0:
        return margin
    penalty = one_hot_penalty(norm_sums, tape=tape)
    return weighted_sum(margin, penalty, config.one_hot_weight, tape=tape)


def lr_schedule(step: int, total_steps: int, warmup_steps: int, base_lr: float) -> float:
    """Linear ramp 0 -> base_lr over the warmup, then half-cosine to 0."""
    if warmup_steps >= total_steps:
        raise ValueError(f"warmup ({warmup_steps}) must be shorter than the run "
                         f"({total_steps} steps)")
    if not 0 <= step <= total_steps:
        raise ValueError(f"step {step} outside [0, {total_steps}]")
    if step < warmup_steps:
        return base_lr * step / warmup_steps
    progress = (step - warmup_steps) / (total_steps - warmup_steps)
    return 0.5 * base_lr * (1.0 + math.cos(math.pi * progress))


# ---------------------------------------------------------------------------
# training loop

@dataclass
class TrainResult:
    params: Parameters
    spec: NetworkSpec
    metrics: MetricsLog
    step: int


def _evaluate(params: Parameters, spec: NetworkSpec, images: np.ndarray,
              labels: np.ndarray, mode: str, rects, rmax: int) -> Tuple[float, float, float]:
    """Clean and certified accuracy (conditions on sums and on the global
    margin) over an evaluation split, from the maps `certify` would take."""
    maps = model.forward_maps(params, spec, images)
    if mode == "heaviside_st":
        res = certify.certify_batch(maps, labels, rects, rmax)
        clean = float((res.predicted == labels).mean())
        return clean, float(res.certified_sum.mean()), float(res.certified_cheap.mean())
    cert_s, cert_c, pred = certify.certify_batch_relaxed(maps, labels, rects, rmax)
    clean = float((pred == labels).mean())
    return clean, float(cert_s.mean()), float(cert_c.mean())


def train(config: TrainConfig, dataset: DatasetHandle,
          spec: NetworkSpec) -> TrainResult:
    """Deterministic end-to-end run; aborts on divergence and returns the
    parameters from the last epoch whose loss stayed finite."""
    if len(dataset) == 0:
        raise ValueError("dataset is empty")
    if int(dataset.labels.max()) >= spec.classes:
        raise ValueError(
            f"dataset labels reach {int(dataset.labels.max())} but the model has "
            f"{spec.classes} classes")
    if config.activation != spec.activation:
        spec = NetworkSpec(**{**spec.__dict__, "activation": config.activation})

    ss = np.random.SeedSequence(config.seed)
    split_rng, shuffle_rng, augment_rng = (np.random.default_rng(s) for s in ss.spawn(3))

    n = len(dataset)
    order = split_rng.permutation(n)
    n_holdout = max(1, int(round(config.holdout_fraction * n)))
    holdout_idx = order[:n_holdout]
    train_idx = order[n_holdout:]
    if len(train_idx) == 0:
        raise ValueError("train.holdout_fraction: holdout split leaves no training data")
    holdout_images = dataset.images[holdout_idx]
    holdout_labels = dataset.labels[holdout_idx]

    params = model.build_model(spec, config.seed)
    state = AdamState.init(params.trainable_tensors())
    h_out, w_out, _ = spec.output_shape()
    area = h_out * w_out

    layers = spec.layer_geom()
    h_in, w_in, _ = spec.input_shape
    ph, pw = config.eval_patch
    regions = geometry.enumerate_regions(h_in, w_in, ph, pw)
    rects = geometry.dependency_rects(regions, layers, h_in, w_in)
    rmax = int(rects[4].max())

    steps_per_epoch = math.ceil(len(train_idx) / config.batch_size)
    total_steps = steps_per_epoch * config.epochs
    warmup_steps = steps_per_epoch * config.warmup_epochs

    metrics = MetricsLog()
    last_good = params.copy()
    last_good_step = 0
    step = 0
    for epoch in range(config.epochs):
        t0 = time.perf_counter()
        epoch_losses = []
        lr = 0.0
        perm = shuffle_rng.permutation(train_idx)
        diverged = False
        ws = core.Workspace()  # the epoch's steps reuse its buffers
        for lo in range(0, len(perm), config.batch_size):
            idx = perm[lo:lo + config.batch_size]
            if config.augment:
                batch = np.stack([augment(dataset[int(i)], augment_rng).pixels
                                  for i in idx])
            else:
                batch = dataset.images[idx]
            lr = lr_schedule(step, total_steps, warmup_steps, config.lr)
            loss_val = _train_step(params, spec, state, batch, dataset.labels[idx],
                                   area, config, lr, ws)
            if loss_val is None:
                diverged = True
                break
            epoch_losses.append(loss_val)
            step += 1
        del ws  # unmapped before the eval forward allocates its own arrays

        if diverged:
            metrics.diverged = True
            return TrainResult(params=last_good, spec=spec, metrics=metrics,
                               step=last_good_step)

        clean, cert32, cert33 = _evaluate(
            params, spec, holdout_images, holdout_labels, config.activation,
            rects, rmax)
        metrics.append(EpochMetrics(
            epoch=epoch, clean_acc=clean, cert32_acc=cert32, cert33_acc=cert33,
            loss=float(np.mean(epoch_losses)) if epoch_losses else float("nan"),
            lr=lr, seconds=time.perf_counter() - t0))
        last_good = params.copy()
        last_good_step = step

    return TrainResult(params=params, spec=spec, metrics=metrics, step=step)


def _train_step(params: Parameters, spec: NetworkSpec, state: AdamState, batch: np.ndarray,
                labels: np.ndarray, area: int, config: TrainConfig, lr: float,
                ws: core.Workspace) -> Optional[float]:
    """One forward, backward and Adam update; returns the batch loss, or None
    if the loss or a gradient is not finite (no parameter is then touched).
    The tape and the gradients end with the call, and with them every view
    of the workspace that the next step overwrites."""
    tape = GradTape()
    _, scores = model.forward(params, spec, batch, config.activation,
                              tape=tape, training=True, ws=ws)
    sums = core.class_sums(scores, tape=tape)
    dsum = delta_sums(sums, labels, area, tape=tape)
    loss = total_loss(dsum, _normalized_sums(sums, area, tape), labels, config, tape=tape)
    loss_val = float(loss.data)
    if not math.isfinite(loss_val):
        return None
    trainable = params.trainable_tensors()
    grads = tape.gradients(loss, trainable.values())
    try:
        adam_step(trainable, {name: grads.get(id(t)) for name, t in trainable.items()},
                  state, lr)
    except ValueError:
        return None
    return loss_val


def _normalized_sums(sums: Tensor, area: int, tape: Optional[GradTape]) -> Tensor:
    out = Tensor(sums.data / area)
    if tape is not None:
        tape.record(out, (sums,), lambda g: (g / area,))
    return out
