"""Run the benchmark over several seeds and summarize each metric's spread.

    python3 perfbench/record.py --seeds 0-9                       # every workload
    python3 perfbench/record.py --workloads attack_pgd --seeds 0-4
    python3 perfbench/record.py --seeds 0-9 --label "seed commit" \
        --append perfbench/trajectory.json

Run from the repository root. Each run is a separate process, as the
benchmark is meant to be run. For every end-to-end metric the summary gives
the median and the quartile spread (q3 - q1) / median over the seeds, next to
the metric's bound from BENCHMARK.json. With --append, the runs are added as
one entry to a trajectory file, and output digests are compared with earlier
entries that ran the same workload and seed.
"""

from __future__ import annotations

import argparse
import datetime
import json
import os
import statistics
import subprocess
import sys
import time


def parse_seeds(text: str):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, os.path.join("perfbench", "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=900)
    wall = time.perf_counter() - t0
    lines = proc.stdout.strip().splitlines()
    detail = next((json.loads(l[len("detail "):]) for l in lines if l.startswith("detail ")), {})
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    if proc.returncode != 0 or result is None:
        sys.stderr.write(proc.stderr[-4000:])
    return {"seed": seed, "exit": proc.returncode, "wall_s": wall,
            "result": result, "named_metrics": detail.get("named_metrics"),
            "setup_s": detail.get("setup_s"), "op_s": detail.get("op_s"),
            "digests": detail.get("digests"), "environment": detail.get("environment")}


def spread(values):
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else float("inf")}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default="all")
    parser.add_argument("--seeds", default="0-9")
    parser.add_argument("--seconds", type=int, default=None,
                        help="defaults to run_seconds from BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--label", default="")
    parser.add_argument("--append", default=None, help="trajectory JSON file to extend")
    args = parser.parse_args(argv)

    with open("BENCHMARK.json", encoding="utf-8") as f:
        bench = json.load(f)
    names = [w["name"] for w in bench["workloads"]] if args.workloads == "all" \
        else args.workloads.split(",")
    seconds = args.seconds or bench["run_seconds"]
    metrics = bench["per_layer"] if args.trace else bench["end_to_end"]
    bounds = {m["name"]: m.get("bound") for m in metrics}

    entry = {"label": args.label,
             "date": datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ"),
             "run_seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for name in names:
        runs = []
        for seed in parse_seeds(args.seeds):
            r = run_once(name, seed, seconds, args.trace)
            runs.append(r)
            status = "ok" if r["exit"] == 0 and r["result"] and r["result"]["correct"] else "FAILED"
            ok &= status == "ok"
            print(f"{name} seed {seed}: {status} in {r['wall_s']:.1f} s", flush=True)
        for r in runs:
            env = r.pop("environment")
            entry.setdefault("environment", env)
        summary = {}
        good = [r for r in runs if r["result"]]
        if len(good) >= 2:
            for metric in bounds:
                values = [r["result"]["metrics"][metric]["value"] for r in good]
                summary[metric] = spread(values)
        entry["workloads"][name] = {"runs": runs, "summary": summary}
        print(f"{name}: wall median {statistics.median(r['wall_s'] for r in runs):.1f} s")
        for metric, s in summary.items():
            if not s["median"]:
                continue  # a layer this workload never enters
            bound = bounds[metric]
            flag = "" if bound is None else (
                "  ok" if s["spread"] < bound / 3 else ("  within bound" if s["spread"] <= bound
                                                       else "  OVER BOUND"))
            print(f"  {metric:<44} median {s['median']:<14.6g} spread {s['spread']:.4f}"
                  + (f" (bound {bound})" if bound is not None else "") + flag)

    if args.append:
        trajectory = []
        if os.path.isfile(args.append):
            with open(args.append, encoding="utf-8") as f:
                trajectory = json.load(f)
        for name, w in entry["workloads"].items():
            for r in w["runs"]:
                for old in trajectory:
                    prev = next((p for p in old["workloads"].get(name, {}).get("runs", [])
                                 if p["seed"] == r["seed"] and p.get("digests")), None)
                    if prev and r.get("digests"):
                        same = prev["digests"] == r["digests"]
                        print(f"{name} seed {r['seed']}: digests "
                              f"{'identical to' if same else 'DIFFER from'} '{old['label']}'")
        trajectory.append(entry)
        with open(args.append, "w", encoding="utf-8") as f:
            json.dump(trajectory, f, indent=1)
            f.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
