"""The ``explore`` workload: the full cross-layer exploration on both cores.

Set-up constructs one :class:`~repro.core.ClearFramework` per core on the
calibrated vulnerability map (placement, timing, cost model, calibrated
map).  The timed region runs, per core and on a cold explorer,
``explore_frontier(sdc_targets())`` over every combination (417 InO + 169
OoO, x 5 targets; in ``CHUNKS`` calls so the host speed can be sampled
between them) and then ``find_cheapest_solution`` for each target on the
same framework.  No simulator runs.
"""

from __future__ import annotations

import hashlib
import statistics
import time
import traceback

from repro.analysis import ParetoFrontier
from repro.core import ClearFramework, enumerate_combinations, sdc_targets
from repro.microarch import InOrderCore, OutOfOrderCore

from campaigns import WorkloadResult
from host import HostSpeed

CORES = {"ino": InOrderCore, "ooo": OutOfOrderCore}
FAMILIES = {"ino": "InO", "ooo": "OoO"}

CHUNKS = 80
"""``explore_frontier`` calls per core sweep (host-speed samples between)."""

SIZES = {"full": {"pool": None, "setup_reps": 3},
         "tiny": {"pool": 6, "setup_reps": 1}}
"""``pool``: combination-pool prefix per core (``None``: the whole pool)."""


def prepare(seed: int) -> dict[str, ClearFramework]:
    return {tag: ClearFramework(core=core_class(), seed=seed)
            for tag, core_class in CORES.items()}


def explore_core(framework: ClearFramework, pool: int | None,
                 between=lambda: None):
    """Sweep one core's pool into a frontier, then the cheapest searches.

    The pool is swept as ``CHUNKS`` consecutive ``explore_frontier`` calls on
    the one explorer, merged (the frontier is insertion-order invariant), so
    ``between()`` can run between them.  Returns ``(frontier, pairs swept,
    cheapest design or None per target)``.
    """
    targets = sdc_targets()
    combinations = enumerate_combinations(framework.explorer.family)[:pool]
    frontier = ParetoFrontier()
    swept = 0
    step = -(-len(combinations) // CHUNKS)
    for start in range(0, len(combinations), step):
        chunk = framework.explorer.explore_frontier(
            targets, combinations=combinations[start:start + step])
        frontier.update(chunk)
        swept += chunk.seen
        between()
    cheapest = [framework.find_cheapest_solution(target,
                                                 max_combinations=pool)
                for target in targets]
    between()
    return frontier, swept, cheapest


def _number(value: float) -> str:
    return format(value, ".10g")


def frontier_digest(frontier) -> str:
    """Digest of the frontier's points (labels and coordinates)."""
    rows = "\n".join(
        f"{p.label}|{_number(p.improvement)}|{_number(p.energy_pct)}|"
        f"{_number(p.area_pct)}|{_number(p.exec_time_pct)}"
        for p in frontier.points())
    return hashlib.sha256(rows.encode()).hexdigest()


def cheapest_energies(cheapest) -> list[str | None]:
    return [None if design is None else _number(design.cost.energy_pct)
            for design in cheapest]


def consistency_mismatches(tag: str, frontier, swept: int, cheapest,
                           pairs: int) -> list[str]:
    """Seed-independent checks: full coverage, and every pruned cheapest
    search agrees with the cheapest frontier point meeting its target."""
    mismatches = []
    if swept != pairs:
        mismatches.append(f"{tag}: the sweep saw {swept} of {pairs} "
                          f"(combination, target) pairs")
    for target, design in zip(sdc_targets(), cheapest):
        point = frontier.cheapest_at_least(target.sdc)
        found = None if design is None else design.cost.energy_pct
        best = None if point is None else point.energy_pct
        if found != best:
            mismatches.append(f"{tag} {target.label}: cheapest search "
                              f"energy {found} != frontier {best}")
    return mismatches


def run_workload(seed: int, seconds: float, size: str,
                 expected: dict | None) -> WorkloadResult:
    plan = SIZES[size]
    speed = HostSpeed()
    raw_setup, setup_times = [], []
    for _ in range(plan["setup_reps"]):
        mark = speed.mark()
        speed.sample()
        start = time.perf_counter()
        frameworks = prepare(seed)
        raw_setup.append(time.perf_counter() - start)
        speed.sample()
        setup_times.append(speed.normalise(raw_setup[-1], mark))

    attempted = failed = 0
    busy = 0.0
    mismatches: list[str] = []
    counts: dict = {}
    timed_mark = speed.mark()
    while True:
        pass_busy = 0.0
        for tag, framework in frameworks.items():
            pool = enumerate_combinations(FAMILIES[tag])[:plan["pool"]]
            pairs = len(pool) * len(sdc_targets())
            attempted += pairs
            mark = speed.mark()
            start = time.perf_counter()
            try:
                frontier, swept, cheapest = explore_core(
                    framework, plan["pool"], between=speed.sample)
            except Exception:  # a failed sweep fails all of its pairs
                traceback.print_exc()
                failed += pairs
                mismatches.append(f"{tag}: exploration raised")
                continue
            finally:
                pass_busy += (time.perf_counter() - start
                              - sum(speed.samples[mark:]))
            if tag in counts:
                continue
            counts[tag] = {"pairs": pairs, "frontier": len(frontier),
                           "digest": frontier_digest(frontier),
                           "cheapest": cheapest_energies(cheapest)}
            mismatches += consistency_mismatches(tag, frontier, swept,
                                                 cheapest, pairs)
            if expected is not None:
                for key in ("digest", "cheapest"):
                    if counts[tag][key] != expected[tag][key]:
                        mismatches.append(
                            f"{tag}: {key} {counts[tag][key]} != recorded "
                            f"{expected[tag][key]}")
        busy += pass_busy
        # Stop when another pass would overrun the budget by over half.
        if busy + pass_busy / 2 >= seconds:
            break
        frameworks = prepare(seed)  # cold explorers for the next pass
    raw_rate = (attempted - failed) / busy if busy else 0.0
    counts["host"] = {"raw_setup_s": statistics.median(raw_setup),
                      "raw_ops_per_s": raw_rate,
                      "reference_kernel_s": speed.samples}
    metrics = {"setup_s": statistics.median(setup_times),
               "ops_per_s": raw_rate / speed.normalise(1.0, timed_mark)}
    return WorkloadResult(attempted, failed, metrics, mismatches, counts,
                          core=None, config=None)
