"""Every metric the benchmark reports, with its unit.

``BENCHMARK.json`` at the checkout root lists the same names; the
benchmark's tests keep the two in step.  See ``README.md`` for what each
metric measures and which end-to-end metric each per-layer one should move.
"""

from __future__ import annotations

import re

NAME_PATTERN = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

WORKLOADS = ("suite-campaigns", "explore")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
}

_PER_CORE = {
    "microarch.{core}.us_per_cycle": "us",
    "microarch.{core}.restore_us": "us",
    "microarch.{core}.fingerprint_us": "us",
    "microarch.{core}.snapshot_us": "us",
    "engine.{core}.golden_record_s": "s",
    "engine.{core}.golden_hook_ratio": "ratio",
    "engine.{core}.replay_ms_p50": "ms",
    "engine.{core}.replay_ms_p99": "ms",
    "engine.{core}.replay_busy_s": "s",
    "engine.{core}.replays": "count",
    "engine.{core}.simulated_cycles": "count",
    "engine.{core}.simulated_cycles_per_inj": "cycles",
    "engine.{core}.fastforward_cycles_per_inj": "cycles",
    "engine.{core}.converged_ratio": "ratio",
    "engine.{core}.saved_cycle_ratio": "ratio",
    "engine.{core}.overhead_s": "s",
    "core.{core}.tunable_eval_ms_p50": "ms",
    "core.{core}.tunable_eval_ms_p99": "ms",
    "core.{core}.fixed_eval_s": "s",
    "core.{core}.warm_pair_us": "us",
    "core.{core}.cheapest_ms": "ms",
    "core.{core}.pruned_ratio": "ratio",
    "resilience.{core}.estimate_improvement_ms": "ms",
    "physical.{core}.setup_ms": "ms",
}

PER_LAYER = {
    "workloads.assemble_ms": "ms",
    **{name.format(core=core): unit
       for core in ("ino", "ooo") for name, unit in _PER_CORE.items()},
    "engine.x2.parallel_efficiency": "ratio",
    "engine.x2.overhead_s": "s",
    "faultinjection.plan_ms": "ms",
    "faultinjection.contribute_ms": "ms",
    "faultinjection.calibrated_build_s": "s",
    "faultinjection.site_query_us": "us",
    "faultinjection.site_queries": "count",
    "analysis.frontier_add_us": "us",
    "trace.overhead_s": "s",
}


def metric_block(values: dict[str, float], units: dict[str, str]) -> dict:
    """The ``metrics`` object of a result line, in catalogue order; a
    metric a failed run never measured reads 0."""
    return {name: {"value": values.get(name, 0.0), "unit": unit}
            for name, unit in units.items()}
