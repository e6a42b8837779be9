"""Helpers shared by the benchmark harness."""

from __future__ import annotations

import json
import os
import platform
import time
from pathlib import Path

from repro.obs import git_revision, manifest_dict

BENCH_SCHEMA = 2
"""Layout version of persisted ``BENCH_*.json`` documents.

Version history: 1 = headers/rows/context (implicit, unversioned);
2 = adds ``schema``, git revision in ``context``, and a ``manifest``."""


def run_once(benchmark, func):
    """Run a benchmark payload exactly once and return its result.

    The harness regenerates tables (one simulation/exploration pass each), so
    repeated rounds would only slow it down without adding information.
    Host load, wall time and CPU time around the payload go into
    ``benchmark.extra_info``, where :func:`persist_bench` picks them up.
    """
    load_before = os.getloadavg()
    wall, times = time.perf_counter(), os.times()
    result = benchmark.pedantic(func, iterations=1, rounds=1)
    end = os.times()
    benchmark.extra_info.update(
        wall_s=time.perf_counter() - wall,
        cpu_s=(end.user - times.user) + (end.system - times.system),
        children_cpu_s=((end.children_user - times.children_user)
                        + (end.children_system - times.children_system)),
        loadavg_before=list(load_before))
    return result


def bench_output_dir() -> Path:
    """Directory benchmark result files are written to.

    Defaults to the ``benchmarks/`` directory itself (so results are
    committed alongside the harness and the perf trajectory is tracked
    across PRs); override with ``BENCH_OUTPUT_DIR``.
    """
    override = os.environ.get("BENCH_OUTPUT_DIR")
    return Path(override) if override else Path(__file__).resolve().parent


def persist_bench(name: str, headers: list[str], rows: list[list],
                  context: dict | None = None, seed: int | None = None,
                  core=None, config=None, benchmark=None) -> Path:
    """Write one benchmark's result table to ``BENCH_<name>.json``.

    The payload is machine-readable (headers + rows + host context) so later
    PRs can diff throughput numbers without re-parsing printed tables.  The
    document carries ``schema`` (see :data:`BENCH_SCHEMA`), the git revision
    of the working tree in ``context``, and a full provenance manifest
    (:func:`repro.obs.manifest_dict`).  ``context`` also gets the 1/5/15-min
    load average, and with ``benchmark`` (the fixture handed to
    :func:`run_once`) the load before the payload and its wall time next to
    its CPU time (this process, and its worker children): a single-process
    row whose CPU time falls well short of its wall time ran on a busy
    host.  ``seed``, ``core`` and ``config``
    thread the benchmark's campaign seed, core (class or instance) and
    :class:`~repro.engine.EngineConfig` into the manifest -- without them the
    manifest records ``null`` provenance, which defeats drift detection.
    Returns the written path.
    """
    path = bench_output_dir() / f"BENCH_{name}.json"
    payload = {
        "schema": BENCH_SCHEMA,
        "benchmark": name,
        "headers": headers,
        "rows": rows,
        "context": {
            "python": platform.python_version(),
            "machine": platform.machine(),
            "cpu_count": os.cpu_count(),
            "git": git_revision(),
            "loadavg": list(os.getloadavg()),
            **(benchmark.extra_info if benchmark is not None else {}),
            **(context or {}),
        },
        "manifest": manifest_dict(seed=seed, core=core, config=config,
                                  benchmark=name),
    }
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    return path
