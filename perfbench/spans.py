"""Span tracer that wraps patchcert's public functions from outside the package.

A span records its name, start and end times, parent span and thread. Each
thread keeps its own span stack, because the attack command runs images on a
thread pool. Backward closures recorded on a ``GradTape`` are timed under the
name of the op that was active when they were recorded, so backward time is
attributed to each op. Spans stay in memory until the run writes them out.

Functions are wrapped only inside ``Tracer.recording()``, so code outside it
runs unwrapped.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import sys
import threading
import time
from collections import defaultdict
from typing import Callable, Dict, List, Optional, Sequence, Tuple

# Op spans whose GradTape records get their backward closures timed as
# "<op>.bwd".
_FORWARD_OPS = ("core.conv2d.fwd", "core.channel_affine.fwd",
                "core.activation.fwd", "core.add.fwd")


def _static(*names: str) -> Callable:
    return lambda args, kwargs, parent: names


def _attack_step(step_name: str, inner: str, needs_tape: bool) -> Callable:
    """Inside an attacked image the taped forward and the backward are PGD
    steps; elsewhere the call is only its own layer span."""
    def names(args, kwargs, parent):
        if parent == "attack.image" and (not needs_tape or kwargs.get("tape") is not None):
            return (step_name, inner)
        return (inner,)
    return names


def _train_loss(args, kwargs, parent):
    # class_sums is also the attack objective's first op; only the training
    # loop's calls are loss time.
    return ("train.loss",) if parent == "train.train" else ()


def _certify_batch_work(args, kwargs):
    maps, rects = args[0], args[2]
    return int(maps.shape[0]) * len(rects[0])


# (module, attribute, span names, work) for every wrapped function. A name
# function maps (args, kwargs, parent span name) to the spans to open, outer
# first; an empty tuple calls through untimed.
WRAPPED: Tuple[Tuple[str, str, Callable, Optional[Callable]], ...] = (
    ("core", "conv2d", _static("core.conv2d.fwd"), None),
    ("core", "channel_affine", _static("core.channel_affine.fwd"), None),
    ("core", "activation", _static("core.activation.fwd"), None),
    ("core", "add", _static("core.add.fwd"), None),
    ("core", "class_sums", _train_loss, None),
    ("core", "adam_step", _static("core.adam_step"), None),
    ("model", "forward", _attack_step("attack.step.forward", "model.forward", True), None),
    ("model", "load_checkpoint", _static("model.load_checkpoint"), None),
    ("model", "save_checkpoint", _static("model.save_checkpoint"), None),
    ("data", "synth_textures", _static("data.synth_textures"), None),
    ("data", "augment", _static("data.augment"), None),
    ("train", "train", _static("train.train"), None),
    ("train", "delta_sums", _static("train.loss"), None),
    ("train", "total_loss", _static("train.loss"), None),
    ("train", "_evaluate", _static("train.eval"), None),
    ("geometry", "dependency_rects", _static("geometry.dependency_rects"), None),
    ("certify", "certify_generic", _static("certify.certify_generic"), None),
    ("certify", "certify_batch", _static("certify.certify_batch"), _certify_batch_work),
    ("certify", "certify_batch_cheap", _static("certify.certify_batch_cheap"), None),
    ("certify", "certify_batch_relaxed", _static("certify.certify_batch_relaxed"), None),
    ("attack", "select_region_and_target", _static("attack.select_region_and_target"), None),
    ("attack", "pgd_patch_attack", _static("attack.image"), None),
    ("runio", "write_csv", _static("runio.write_csv"), None),
    ("runio", "write_manifest", _static("runio.write_manifest"), None),
    ("cli", "main", _static("cli.main"), None),
)

# Functions only counted, because a span per call would cost more than the
# call itself.
COUNTED: Tuple[Tuple[str, str, str], ...] = (
    ("geometry", "dependency_region", "geometry.dependency_region"),
)


class _ThreadLog:
    __slots__ = ("spans", "stack", "counts", "ident")

    def __init__(self):
        # span: [name, start, end, parent index or -1, work]
        self.spans: List[list] = []
        self.stack: List[int] = []
        self.counts: Dict[str, int] = defaultdict(int)
        self.ident = threading.get_ident()


class Tracer:
    def __init__(self):
        self._local = threading.local()
        self._logs: List[_ThreadLog] = []
        self._lock = threading.Lock()

    # -- recording ---------------------------------------------------------

    def _log(self) -> _ThreadLog:
        log = getattr(self._local, "log", None)
        if log is None:
            log = self._local.log = _ThreadLog()
            with self._lock:
                self._logs.append(log)
        return log

    def _current_name(self, log: _ThreadLog) -> Optional[str]:
        return log.spans[log.stack[-1]][0] if log.stack else None

    def _open(self, log: _ThreadLog, name: str, work: int = 0) -> None:
        parent = log.stack[-1] if log.stack else -1
        log.stack.append(len(log.spans))
        log.spans.append([name, time.perf_counter(), 0.0, parent, work])

    def _close(self, log: _ThreadLog) -> None:
        log.spans[log.stack.pop()][2] = time.perf_counter()

    def _timed(self, fn: Callable, names_fn: Callable,
               work_fn: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            log = tracer._log()
            names = names_fn(args, kwargs, tracer._current_name(log))
            if not names:
                return fn(*args, **kwargs)
            work = work_fn(args, kwargs) if work_fn else 0
            for name in names:
                tracer._open(log, name, work)
            try:
                return fn(*args, **kwargs)
            finally:
                for _ in names:
                    tracer._close(log)
        return wrapper

    def _counted(self, fn: Callable, name: str) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            tracer._log().counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    # -- installation ------------------------------------------------------

    @contextlib.contextmanager
    def recording(self):
        """Record spans of everything run inside the block. Every patchcert
        module attribute that holds a wrapped function is rebound (``from .x
        import f`` copies the binding) and restored on exit."""
        import patchcert
        from patchcert import core

        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "patchcert" or n.startswith("patchcert."))]
        undo = []

        def rebind(original, replacement):
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        undo.append((module, attr, value))
                        setattr(module, attr, replacement)

        for mod_name, attr, names_fn, work_fn in WRAPPED:
            original = getattr(getattr(patchcert, mod_name), attr)
            rebind(original, self._timed(original, names_fn, work_fn))
        for mod_name, attr, name in COUNTED:
            original = getattr(getattr(patchcert, mod_name), attr)
            rebind(original, self._counted(original, name))

        tape = core.GradTape
        orig_record, orig_gradients = tape.record, tape.gradients
        tracer = self

        def record(tape_self, output, inputs, backward):
            log = tracer._log()
            log.counts["core.tape.records"] += 1
            current = tracer._current_name(log)
            if current in _FORWARD_OPS:
                backward = tracer._timed(backward, _static(current[:-3] + "bwd"), None)
            return orig_record(tape_self, output, inputs, backward)

        tape.record = record
        tape.gradients = self._timed(
            orig_gradients,
            _attack_step("attack.step.backward", "core.tape.gradients", False), None)
        try:
            yield self
        finally:
            tape.record, tape.gradients = orig_record, orig_gradients
            for module, attr, value in reversed(undo):
                setattr(module, attr, value)

    # -- results -----------------------------------------------------------

    def summary(self) -> "SpanSummary":
        return SpanSummary(self._logs)

    def dump(self, path: str) -> None:
        """Write every span and counter, one list per thread."""
        out = {"threads": [{"thread": log.ident, "counts": dict(log.counts),
                            "spans": log.spans} for log in self._logs]}
        with open(path, "w", encoding="utf-8") as f:
            json.dump(out, f)


def tail_percentile(n: int) -> Optional[float]:
    """Highest of p99.9/p99/p90/p50 with at least ten samples beyond it."""
    for p in (99.9, 99.0, 90.0, 50.0):
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return None


class SpanSummary:
    """Per-name totals, self times, per-call durations and counters."""

    def __init__(self, logs: Sequence[_ThreadLog]):
        self.total: Dict[str, float] = defaultdict(float)
        self.self_time: Dict[str, float] = defaultdict(float)
        self.durations: Dict[str, List[float]] = defaultdict(list)
        self.work: Dict[str, int] = defaultdict(int)
        self.counts: Dict[str, int] = defaultdict(int)
        for log in logs:
            child_time = [0.0] * len(log.spans)
            for name, start, end, parent, work in log.spans:
                if parent >= 0:
                    child_time[parent] += end - start
            for i, (name, start, end, parent, work) in enumerate(log.spans):
                d = end - start
                self.total[name] += d
                self.self_time[name] += d - child_time[i]
                self.durations[name].append(d)
                self.work[name] += work
            for name, k in log.counts.items():
                self.counts[name] += k

    def calls(self, name: str) -> int:
        return len(self.durations.get(name, ()))

    def median_ms(self, name: str) -> float:
        d = self.durations.get(name)
        return statistics.median(d) * 1e3 if d else 0.0

    def tail_ms(self, name: str) -> Tuple[float, Optional[float]]:
        d = self.durations.get(name)
        p = tail_percentile(len(d)) if d else None
        if p is None:
            return 0.0, None
        ordered = sorted(d)
        k = min(len(ordered) - 1, int(len(ordered) * p / 100.0))
        return ordered[k] * 1e3, p
