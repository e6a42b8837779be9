"""The ``suite-campaigns`` workload: injection campaigns on both cores.

Set-up builds each core (InO and OoO), assembles its paper suite (18 and 11
programs) and records every golden run into a fresh in-memory
:class:`~repro.engine.GoldenRunCache` through ``InjectionEngine.golden()``,
so golden recording counts in ``setup_s``.

The timed region alternates one InO and one OoO pass until the run's seconds
are spent.  A pass runs ``run_suite_campaign`` on the default
:class:`~repro.engine.EngineConfig` against the warm cache, one program per
call so each program's campaign is timed on its own; program ``i`` of pass
``j`` uses campaign seed ``seed + PASS_STRIDE * j + i``, which is the seed a
whole-suite ``run_suite_campaign(seed=seed + PASS_STRIDE * j)`` gives it.
``ops_per_s`` is the geometric mean over all 29 programs of injections
classified per second (each program's injections over its campaign time,
pooled over passes), as suite scores usually are: a plain pooled rate is
dominated by the convergence luck of the two longest programs.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import statistics
import time
import traceback
from dataclasses import dataclass, field

from repro.engine import (
    CheckpointedGoldenRun,
    EngineConfig,
    GoldenRunCache,
    InjectionEngine,
    replay_planned_injection,
    run_suite_campaign,
)
from repro.faultinjection import uniform_injection_plan
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.workloads import suite_for_core

from host import HostSpeed

PASS_STRIDE = 1000
"""Seed distance between passes; larger than any suite, so no campaign
seed repeats within a run."""

CORES = {"ino": InOrderCore, "ooo": OutOfOrderCore}


@dataclass(frozen=True)
class CampaignSize:
    """How much one pass on one core does.

    Attributes:
        injections: injections per suite program per pass.
        programs: suite prefix length (``None``: the whole paper suite).
        samples: pass-0 injections replayed again from reset without the
            convergence gate, to check the gated classification.
    """

    injections: int
    programs: int | None
    samples: int


SIZES = {
    "full": {"ino": CampaignSize(10, None, 4), "ooo": CampaignSize(2, None, 2)},
    "tiny": {"ino": CampaignSize(1, 3, 1), "ooo": CampaignSize(1, 2, 1)},
}
SETUP_REPS = {"full": 3, "tiny": 1}
"""Set-ups per run; ``setup_s`` is their median."""


@dataclass
class Prepared:
    """One core's set-up: core, suite, programs and the warm golden cache."""

    core: object
    suite: list
    programs: list
    cache: GoldenRunCache
    config: EngineConfig
    goldens: list[CheckpointedGoldenRun]


@dataclass
class WorkloadResult:
    """What one run measured and checked."""

    attempted: int
    failed: int
    metrics: dict[str, float]
    mismatches: list[str] = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    core: object = None
    config: object = None


def prepare(core_class, programs: int | None,
            between=lambda: None) -> Prepared:
    """Build the core, assemble the suite and record every golden run,
    calling ``between()`` after each recording."""
    core = core_class()
    suite = suite_for_core(core)[:programs]
    assembled = [workload.program() for workload in suite]
    cache = GoldenRunCache(max_entries=len(suite))
    config = EngineConfig()
    goldens = []
    for program in assembled:
        goldens.append(InjectionEngine(core, program, config=config,
                                       golden_cache=cache).golden())
        between()
    return Prepared(core, suite, assembled, cache, config, goldens)


def golden_mismatches(prepared: Prepared) -> list[str]:
    """Programs whose golden output differs from the reference model."""
    return [f"golden output of {workload.name} on {prepared.core.name} "
            f"differs from reference()"
            for workload, golden in zip(prepared.suite, prepared.goldens)
            if golden.golden.output != workload.reference()]


def run_program(prepared: Prepared, index: int, injections: int,
                seed: int):
    """Program ``index``'s campaign of one pass seeded ``seed``."""
    _, (result,) = run_suite_campaign(
        prepared.core, [prepared.suite[index]],
        injections_per_workload=injections, seed=seed + index,
        config=prepared.config, golden_cache=prepared.cache)
    return result


def campaign_digest(results) -> str:
    """Digest of outcome counts and per-site tallies, in suite order."""
    document = [[result.program_name, result.outcomes.as_dict(),
                 [[site, counts.as_dict()]
                  for site, counts in sorted(result.per_site.items())]]
                for result in results]
    encoded = json.dumps(document, sort_keys=True).encode()
    return hashlib.sha256(encoded).hexdigest()


def campaign_counts(results) -> dict:
    """Simulated counts of one pass (they repeat exactly for one seed)."""
    outcomes: dict[str, int] = {}
    for result in results:
        for category, count in result.outcomes.as_dict().items():
            outcomes[category] = outcomes.get(category, 0) + count
    return {"injections": sum(r.injections for r in results),
            "replayed_cycles": sum(r.replayed_cycles for r in results),
            "converged": sum(r.converged_count for r in results),
            "saved_cycles": sum(r.saved_cycles for r in results),
            "outcomes": outcomes,
            "digest": campaign_digest(results)}


def recheck_from_reset(prepared: Prepared, results, injections: int,
                       seed: int, samples: int, sample_seed: int
                       ) -> list[str]:
    """Replay sampled pass injections from reset with the gate off.

    Each sampled injection is rebuilt from the engine's own resolved plan,
    replayed once through the convergence-gated checkpointed path and once
    from reset to termination; both must classify alike, and the campaign's
    per-site tally must hold that outcome.
    """
    mismatches = []
    total = len(prepared.programs) * injections
    rng = random.Random(sample_seed)
    for pick in sorted(rng.sample(range(total), min(samples, total))):
        index, position = divmod(pick, injections)
        program = prepared.programs[index]
        engine = InjectionEngine(prepared.core, program, seed=seed + index,
                                 config=prepared.config,
                                 golden_cache=prepared.cache)
        checkpointed = engine.golden()
        plan = uniform_injection_plan(prepared.core.flip_flop_count,
                                      checkpointed.golden.cycles, injections,
                                      seed=seed + index)
        planned = engine.resolve_plan(plan)[position]
        gated = replay_planned_injection(prepared.core, program, planned,
                                         checkpointed)
        from_reset = replay_planned_injection(
            prepared.core, program, planned,
            CheckpointedGoldenRun(golden=checkpointed.golden),
            convergence=False)
        where = (f"{prepared.core.name} {program.name} injection {position} "
                 f"(site {planned.injection.flat_index}, "
                 f"cycle {planned.injection.cycle})")
        if gated.outcome is not from_reset.outcome:
            mismatches.append(f"{where}: gated {gated.outcome.value} != "
                              f"from reset {from_reset.outcome.value}")
        tally = results[index].per_site.get(planned.injection.flat_index)
        if tally is None or tally.counts.get(gated.outcome, 0) == 0:
            mismatches.append(f"{where}: campaign tally lacks "
                              f"{gated.outcome.value}")
    return mismatches


def geometric_mean(values: list[float]) -> float:
    return math.exp(statistics.fmean(math.log(value) for value in values))


def run_workload(seed: int, seconds: float, size: str,
                 expected: dict | None) -> WorkloadResult:
    """Set up, measure for ``seconds`` and check the campaign workload."""
    sizes = SIZES[size]
    speed = HostSpeed()
    raw_setup, setup_times = [], []
    for _ in range(SETUP_REPS[size]):
        mark = speed.mark()
        start = time.perf_counter()
        prepared = {tag: prepare(core_class, sizes[tag].programs,
                                 between=speed.sample)
                    for tag, core_class in CORES.items()}
        elapsed = (time.perf_counter() - start
                   - sum(speed.samples[mark:]))
        raw_setup.append(elapsed)
        setup_times.append(speed.normalise(elapsed, mark))
    mismatches = [mismatch for one in prepared.values()
                  for mismatch in golden_mismatches(one)]

    # Per (core, program): [injections classified, seconds spent].
    tallies = {(tag, index): [0, 0.0] for tag, one in prepared.items()
               for index in range(len(one.programs))}
    first: dict[str, list] = {}
    attempted = failed = passes = 0
    busy = 0.0
    timed_mark = speed.mark()
    while True:
        pass_start = time.perf_counter()
        for tag, one in prepared.items():
            injections = sizes[tag].injections
            results = []
            for index in range(len(one.programs)):
                attempted += injections
                start = time.perf_counter()
                try:
                    result = run_program(one, index, injections,
                                         seed + PASS_STRIDE * passes)
                except Exception:  # a failed campaign fails its injections
                    traceback.print_exc()
                    failed += injections
                    results.append(None)
                    continue
                tally = tallies[(tag, index)]
                tally[1] += time.perf_counter() - start
                tally[0] += result.injections
                results.append(result)
                speed.sample()
            if passes == 0:
                first[tag] = results
        pass_s = time.perf_counter() - pass_start
        busy += pass_s
        passes += 1
        # Stop when another pass would overrun the budget by over half.
        if busy + pass_s / 2 >= seconds:
            break

    counts = {"passes": passes}
    for tag, one in prepared.items():
        if None in first[tag]:
            mismatches.append(f"{tag}: a pass-0 campaign raised")
            continue
        counts[tag] = campaign_counts(first[tag])
        rate = (sum(tallies[(tag, i)][0] for i in range(len(one.programs)))
                / sum(tallies[(tag, i)][1] for i in range(len(one.programs))))
        counts[tag]["raw_pooled_inj_per_s"] = rate
        if expected is not None \
                and counts[tag]["digest"] != expected[tag]["digest"]:
            mismatches.append(f"{tag}: pass-0 outcome digest "
                              f"{counts[tag]['digest']} != recorded "
                              f"{expected[tag]['digest']}")
        mismatches += recheck_from_reset(one, first[tag],
                                         sizes[tag].injections, seed,
                                         sizes[tag].samples, seed)
    rates = [done / spent for done, spent in tallies.values() if done]
    raw_rate = geometric_mean(rates) if rates else 0.0
    counts["host"] = {"raw_setup_s": statistics.median(raw_setup),
                      "raw_ops_per_s": raw_rate,
                      "reference_kernel_s": speed.samples}
    metrics = {"setup_s": statistics.median(setup_times),
               "ops_per_s": raw_rate / speed.normalise(1.0, timed_mark)}
    return WorkloadResult(attempted, failed, metrics, mismatches, counts,
                          core=prepared["ino"].core,
                          config=prepared["ino"].config)
