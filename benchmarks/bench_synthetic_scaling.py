"""Synthetic-workload scaling: vulnerability across profiles and sizes.

Sweeps every built-in scenario family at several program sizes (cycle
budgets) on both cores, running each generated workload through the
checkpointed injection engine, and reports golden-run length, campaign
throughput and the measured SDC/DUE rates.  The table is persisted to
``BENCH_synthetic.json`` so the perf/vulnerability trajectory is tracked
across PRs.

The OoO-core rows use the smallest size only: its cycle-level model is an
order of magnitude slower per cycle, and the point here is cross-core
coverage, not statistics.
"""

from __future__ import annotations

import time

from _harness import persist_bench, run_once

from repro.engine import EngineConfig
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.reporting import format_table
from repro.workloads import family_names
from repro.workloads.synthesis import run_synthetic_sweep

SEED = 2016
INJECTIONS_PER_WORKLOAD = 15
PER_FAMILY = 2
INO_TARGET_CYCLES = [1500, 6000]
OOO_TARGET_CYCLES = [1500]


def bench_synthetic_scaling(benchmark):
    def payload():
        rows = []
        plans = ([(InOrderCore(), cycles) for cycles in INO_TARGET_CYCLES]
                 + [(OutOfOrderCore(), cycles) for cycles in OOO_TARGET_CYCLES])
        for core, target_cycles in plans:
            started = time.perf_counter()
            sweep = run_synthetic_sweep(
                core, seed=SEED, per_family=PER_FAMILY,
                injections_per_workload=INJECTIONS_PER_WORKLOAD,
                config=EngineConfig(), target_cycles=target_cycles)
            elapsed = time.perf_counter() - started
            total = sum(p.injections for p in sweep.profiles)
            for profile in sweep.profiles:
                rows.append([core.name, profile.family, target_cycles,
                             profile.golden_cycles, profile.injections,
                             f"{100 * profile.sdc_rate:.1f}%",
                             f"{100 * profile.due_rate:.1f}%",
                             f"{total / elapsed:.1f}"])
        return rows

    rows = run_once(benchmark, payload)
    headers = ["core", "profile", "target cycles", "golden cycles",
               "injections", "SDC rate", "DUE rate", "inj/s (sweep)"]
    persist_bench("synthetic", headers, rows,
                  context={"seed": SEED, "per_family": PER_FAMILY,
                           "injections_per_workload": INJECTIONS_PER_WORKLOAD,
                           "families": family_names()},
                  seed=SEED, core=InOrderCore(), config=EngineConfig(),
                  benchmark=benchmark)
    print()
    print(format_table(
        f"Synthetic scaling: {len(family_names())} families x "
        f"{PER_FAMILY} members, {INJECTIONS_PER_WORKLOAD} injections each",
        headers, rows))
