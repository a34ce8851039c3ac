"""Run artifacts: atomic file writes, CSV emission, and the per-run manifest."""

from __future__ import annotations

import csv
import io
import json
import os
import time
from typing import Dict, Iterable, Optional, Sequence

try:
    import resource
except ImportError:  # not on every platform
    resource = None

from . import __version__

MANIFEST_VERSION = 1
CSV_SCHEMA_VERSION = 1


def atomic_write_text(path, text: str) -> None:
    tmp = str(path) + ".tmp"
    with open(tmp, "w", encoding="utf-8", newline="") as f:
        f.write(text)
    os.replace(tmp, path)


def write_csv(path, header: Sequence[str], rows: Iterable[Sequence]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(header)
    for row in rows:
        writer.writerow(row)
    atomic_write_text(path, buf.getvalue())


def _minor_page_faults() -> Optional[int]:
    """Minor page faults of this process so far; None without `resource`."""
    return None if resource is None else resource.getrusage(resource.RUSAGE_SELF).ru_minflt


def _utc_now() -> str:
    return time.strftime("%Y-%m-%dT%H:%M:%S", time.gmtime())


class RunManifest:
    """A run's manifest.json: written when the command starts and rewritten
    by `finish` when it ends."""

    def __init__(self, out_dir, fields: Dict):
        self.path = os.path.join(out_dir, "manifest.json")
        self.fields = fields
        self._started = time.perf_counter()
        self._faults = _minor_page_faults()

    def write(self) -> None:
        atomic_write_text(self.path, json.dumps(self.fields, indent=2, sort_keys=True) + "\n")

    def finish(self, exit_code: int) -> None:
        """Add the end time, the duration, the exit code and the minor page
        faults taken since the start (left out where they cannot be read)."""
        self.fields.update(end_timestamp=_utc_now(), exit_code=exit_code,
                           duration_s=round(time.perf_counter() - self._started, 6))
        faults = _minor_page_faults()
        if faults is not None:
            self.fields["minor_page_faults"] = faults - self._faults
        self.write()


def write_manifest(out_dir, subcommand: str, config: Dict, seed: int) -> RunManifest:
    manifest = RunManifest(out_dir, {
        "manifest_version": MANIFEST_VERSION,
        "csv_schema_version": CSV_SCHEMA_VERSION,
        "version": __version__,
        "subcommand": subcommand,
        "seed": seed,
        "config": config,
        "timestamp": _utc_now(),
    })
    manifest.write()
    return manifest


def worker_count() -> int:
    """Parallelism cap: min(PATCHCERT_THREADS, CPUs this process may run
    on). The CPUs are the process's affinity set where the platform reports
    one, so taskset and cpusets count, and every CPU elsewhere."""
    if hasattr(os, "sched_getaffinity"):
        cap = len(os.sched_getaffinity(0))
    else:
        cap = os.cpu_count() or 1
    env = os.environ.get("PATCHCERT_THREADS")
    if env:
        try:
            cap = min(cap, max(1, int(env)))
        except ValueError:
            raise ValueError(f"PATCHCERT_THREADS must be an integer, got {env!r}")
    return cap
