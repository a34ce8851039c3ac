"""patchcert benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload certify_maps --seed 0 --seconds 10 --trace 0

The inputs come from --seed. Set-up runs two to five times and reports its
median; then operations repeat until --seconds have passed, and every
operation's outputs are checked. With --trace 0 the last stdout line is a JSON
object with the end-to-end metrics; with --trace 1 untraced and traced
operations alternate and the per-layer metrics come from the traced ones.
Exit codes: 0 all checks passed, 1 a check failed, 2 the benchmark could not
run (for example, no patchcert sources under ./src).
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback

SETUP_MIN_REPEATS = 2    # set-up repeats at least this often,
SETUP_MAX_REPEATS = 5    # and, until SETUP_MIN_S have passed, up to this often
SETUP_MIN_S = 2.0
MIN_OPS = 2
MAX_MEASURE_S = 120.0   # hard stop so a slow machine still ends within limits
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

# Per-call spans: total seconds, calls, median and tail per call.
TIMED_SPANS = (
    "core.conv2d.fwd", "core.conv2d.bwd", "core.channel_affine.fwd",
    "core.channel_affine.bwd", "core.activation.fwd", "core.activation.bwd",
    "core.add.fwd", "core.add.bwd", "core.tape.gradients", "core.adam_step",
    "model.forward", "data.augment", "train.loss", "train.eval",
    "certify.certify_generic", "certify.certify_batch", "certify.certify_batch_cheap",
    "certify.certify_batch_relaxed", "attack.select_region_and_target",
    "attack.image", "attack.step.forward", "attack.step.backward", "runio.write_csv",
)
# Spans called about once per operation: total seconds and calls.
ONCE_SPANS = ("model.load_checkpoint", "model.save_checkpoint", "data.synth_textures",
              "geometry.dependency_rects", "runio.write_manifest")


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_program(root: str):
    """Import patchcert from ./src of the checkout, never from elsewhere."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "patchcert", "__init__.py")):
        fail(f"no patchcert sources under {src}; run from the repository root")
    if not os.path.isfile(os.path.join(root, "configs", "synth_quickstart.ini")):
        fail("configs/synth_quickstart.ini is missing; run from the repository root")
    sys.path.insert(0, src)
    import patchcert
    if os.path.dirname(os.path.abspath(patchcert.__file__)) != os.path.join(src, "patchcert"):
        fail(f"imported patchcert from {patchcert.__file__}, not from {src}")
    return patchcert


def git_revision(root: str) -> str:
    try:
        with open(os.path.join(root, ".git", "HEAD"), encoding="utf-8") as f:
            head = f.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        path = os.path.join(root, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as f:
                return f.read().strip()
        with open(os.path.join(root, ".git", "packed-refs"), encoding="utf-8") as f:
            for line in f:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(root: str) -> dict:
    import numpy as np
    from patchcert import runio

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        blas_info = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas_info.get('name')} {blas_info.get('version')}"
    except Exception:  # older numpy without mode="dicts"
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_env": {k: os.environ[k] for k in BLAS_ENV if k in os.environ},
        "PATCHCERT_THREADS": os.environ.get("PATCHCERT_THREADS"),
        "worker_count": runio.worker_count(),
        "git_revision": git_revision(root),
    }


def call_of(problem: str) -> str:
    return problem.split(":", 1)[0]


def layer_metrics(summary, traced_ops, untraced_ops, workload, workers) -> dict:
    """Per-layer metrics per traced operation; layers a workload never enters
    read 0."""
    k = len(traced_ops)
    out = {}
    for name in TIMED_SPANS:
        out[f"{name}_s"] = summary.total.get(name, 0.0) / k
        out[f"{name}.calls"] = summary.calls(name) / k
        out[f"{name}.p50_ms"] = summary.median_ms(name)
        out[f"{name}.tail_ms"] = summary.tail_ms(name)[0]
    for name in ONCE_SPANS:
        out[f"{name}_s"] = summary.total.get(name, 0.0) / k
        out[f"{name}.calls"] = summary.calls(name) / k
    out["geometry.dependency_region.calls"] = summary.counts.get("geometry.dependency_region", 0) / k
    out["core.tape.records"] = summary.counts.get("core.tape.records", 0) / k
    out["core.tape.self_s"] = summary.self_time.get("core.tape.gradients", 0.0) / k
    out["model.forward.self_s"] = summary.self_time.get("model.forward", 0.0) / k
    batch_s = summary.total.get("certify.certify_batch", 0.0)
    out["certify.certify_batch.map_regions_per_s"] = (
        summary.work.get("certify.certify_batch", 0) / batch_s if batch_s else 0.0)
    image_s = summary.total.get("attack.image", 0.0)
    command_s = summary.total.get("cli.main", 0.0)
    attacking = workload == "attack_pgd"
    out["attack.pool.workers"] = workers if attacking else 0
    out["attack.pool.busy_frac"] = image_s / (workers * command_s) if attacking and command_s else 0.0
    out["trace.ops"] = k
    out["trace.overhead"] = (statistics.median(op.seconds for op in traced_ops)
                             / statistics.median(op.seconds for op in untraced_ops) - 1.0)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json"), encoding="utf-8") as f:
            spec = json.load(f)
    except (OSError, ValueError) as e:
        fail(f"cannot read BENCHMARK.json: {e}")
    import_program(root)
    import spans  # the benchmark's own modules, beside this script
    import workloads

    if args.workload not in workloads.WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    base = os.path.join(root, ".perfbench")
    os.makedirs(base, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=base)
    try:
        return run(args, spec, root, workdir, spans, workloads)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def run(args, spec, root, workdir, spans, workloads) -> int:
    env = environment(root)
    print(f"perfbench workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("environment " + json.dumps(env, sort_keys=True))
    wl = workloads.WORKLOADS[args.workload](args.seed, workdir)

    setup_times = []
    while len(setup_times) < SETUP_MIN_REPEATS or (
            len(setup_times) < SETUP_MAX_REPEATS and sum(setup_times) < SETUP_MIN_S):
        t0 = time.perf_counter()
        wl.setup(len(setup_times))
        setup_times.append(time.perf_counter() - t0)

    # Set-up's objects stay alive for the whole run; freezing them keeps the
    # collector from rescanning them during every operation, as it would not
    # in a fresh CLI process.
    gc.collect()
    gc.freeze()
    tracer = spans.Tracer()
    untraced, traced, problems = [], [], []
    attempted = failed = 0
    start = time.perf_counter()
    while True:
        # Traced runs alternate untraced and traced operations; only the
        # traced ones run wrapped.
        on = bool(args.trace) and len(untraced) > len(traced)
        gc.collect()  # the previous operation's garbage, outside the timing
        try:
            with tracer.recording() if on else contextlib.nullcontext():
                op = wl.run_op()
            found = wl.check(op)
        except Exception:
            traceback.print_exc()
            op, found = None, ["exception: operation raised"]
        if op is not None:
            (traced if on else untraced).append(op)
        calls = op.calls if op is not None else 1
        attempted += calls
        failed += min(calls, len({call_of(p) for p in found}))
        problems += found
        elapsed = time.perf_counter() - start
        enough = (len(untraced) >= 1 and len(traced) >= 1) if args.trace \
            else len(untraced) >= MIN_OPS
        if elapsed >= MAX_MEASURE_S or (elapsed >= args.seconds and enough) \
                or (op is None and elapsed >= args.seconds):
            break

    for p in problems:
        print(f"CHECK FAILED [{args.workload}] {p}", file=sys.stderr)
    correct = failed == 0 and bool(untraced)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    rates = [op.items / op.item_seconds for op in untraced]
    named_metrics = {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_rss_mb, "MB"),
        "failed_ratio": (failed / attempted if attempted else 1.0, "ratio"),
    }
    if rates:
        named_metrics[wl.item_metric] = (statistics.median(rates), wl.item_unit)
    for key in sorted({k for op in untraced for k in op.extra}):
        named_metrics[key] = (statistics.median(op.extra[key] for op in untraced), "maps/s")
    for key, values in sorted(wl.quality.items()):
        named_metrics[key] = (statistics.median(values), "ratio")
    for key, (value, unit) in named_metrics.items():
        print(f"  {key:<28} {value:>14.6g} {unit}")
    identical = {k: len(set(v)) == 1 for k, v in wl.digests.items()}
    detail = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "environment": env,
        "setup_s": setup_times,
        "op_s": [op.seconds for op in untraced],
        "items_per_s": rates,
        "named_metrics": {k: {"value": v, "unit": u} for k, (v, u) in named_metrics.items()},
        "quality": wl.quality,
        "digests": {k: v[0] for k, v in wl.digests.items()},
        "digests_identical_within_run": identical,
    }
    print("digests " + json.dumps(detail["digests"], sort_keys=True))
    print("digests identical across repeats within this run: "
          + json.dumps(identical, sort_keys=True))

    if args.trace:
        wanted = spec["per_layer"]
        summary = tracer.summary()
        metrics = layer_metrics(summary, traced, untraced, args.workload, env["worker_count"]) \
            if traced and untraced else {m["name"]: 0.0 for m in wanted}
        print(f"  per-layer, per traced operation ({len(traced)} traced, "
              f"{len(untraced)} untraced):")
        for name in TIMED_SPANS:
            n = summary.calls(name)
            if n:
                tail, pct = summary.tail_ms(name)
                tail_text = f"p{pct:g} {tail:.4f} ms" if pct else "tail n/a"
                print(f"    {name:<36} {metrics[name + '_s']:10.4f} s  n={n:<7} "
                      f"p50 {summary.median_ms(name):.4f} ms  {tail_text}")
        timed = {f"{n}{suffix}" for n in TIMED_SPANS
                 for suffix in ("_s", ".calls", ".p50_ms", ".tail_ms")}
        rest = [f"{k}={v:.6g}" for k, v in metrics.items() if k not in timed and v]
        print("    " + "  ".join(rest))
        print(f"    tracing overhead {metrics.get('trace.overhead', float('nan')):+.3f} "
              "(traced / untraced operation time - 1)")
        trace_path = os.path.join(root, ".perfbench", f"spans-{args.workload}.json")
        tracer.dump(trace_path)
        detail["trace_file"] = os.path.relpath(trace_path, root)
    else:
        wanted = spec["end_to_end"]
        metrics = {
            "setup_s": statistics.median(setup_times),
            "items_per_s": statistics.median(rates) if rates else 0.0,
            "op_ms": statistics.median(op.seconds for op in untraced) * 1e3 if untraced else 0.0,
            "peak_rss_mb": peak_rss_mb,
        }
    print("detail " + json.dumps(detail, sort_keys=True))

    units = {m["name"]: m["unit"] for m in wanted}
    if set(units) != set(metrics):
        fail(f"metrics {sorted(set(metrics) ^ set(units))} do not match BENCHMARK.json")
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units}}
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
