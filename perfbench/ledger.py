"""The traced run: every per-layer metric, from spans at layer boundaries.

A traced run (``--trace 1``) of any workload runs the same ledger, so every
traced run reports every per-layer metric.  Each section below is its own
run id in the trace:

* ``ino`` / ``ooo`` -- one core's paper suite: assemble the sources, run
  every program with no hook, record every golden run through the engine,
  time restore / fingerprint / snapshot on the recorded checkpoints, then
  replay the engine's own resolved plan one injection at a time through
  ``replay_planned_injection`` and check the folded outcomes against
  ``InjectionEngine.run`` on the same plan;
* ``x2`` -- one InO ``mcf`` campaign on ``EngineConfig(workers=2)`` against
  the same plan replayed serially; a serial fallback fails the run;
* ``explore-ino`` / ``explore-ooo`` -- one core's full exploration
  (``explore_frontier`` plus the cheapest searches) on a fresh framework.

The traced workload also runs a unit of its own timed work untraced and
traced (``campaign-pass``: one InO and one OoO suite pass; ``explore``: the
InO exploration above); the difference is the tracing overhead.
"""

from __future__ import annotations

import functools
import math
import statistics
import time
import traceback
import warnings
from dataclasses import dataclass, field

import repro.engine.checkpoint as checkpoint_module
import repro.engine.engine as engine_module
import repro.engine.executors as executors_module
from repro.analysis import ParetoFrontier
from repro.core import ClearFramework, CrossLayerExplorer, sdc_targets
from repro.engine import (
    EngineConfig,
    GoldenRunCache,
    InjectionEngine,
    replay_planned_injection,
)
from repro.faultinjection import (
    CalibratedVulnerabilityModel,
    CampaignResult,
    OutcomeCounts,
    VulnerabilityMap,
    uniform_injection_plan,
)
from repro.isa import assemble
from repro.microarch import BaseCore, InOrderCore, OutOfOrderCore
from repro.physical import DesignCostModel, Placement, TimingModel
from repro.resilience import ProtectedDesign
from repro.workloads import suite_for_core, workload_by_name

import campaigns
import explore
from spans import Probe, Tracer, instrumented

SIZES = {
    "full": {"injections": {"ino": 4, "ooo": 2}, "programs": None,
             "x2_injections": 64, "pool": None, "snapshots": 16,
             "twin_injections": {"ino": 2, "ooo": 1}},
    "tiny": {"injections": {"ino": 1, "ooo": 1}, "programs": 2,
             "x2_injections": 64, "pool": 6, "snapshots": 2,
             "twin_injections": {"ino": 1, "ooo": 1}},
}

CAMPAIGN_PROBES = [
    Probe(BaseCore, "run", "microarch.run", "microarch", hot=True),
    Probe(BaseCore, "resume", "microarch.resume", "microarch", hot=True),
    Probe(BaseCore, "restore", "microarch.restore", "microarch", hot=True),
    Probe(BaseCore, "state_fingerprint", "microarch.fingerprint",
          "microarch", hot=True),
    Probe(BaseCore, "snapshot", "microarch.snapshot", "microarch", hot=True),
    Probe(checkpoint_module, "record_checkpointed_golden",
          "engine.record_golden", "engine"),
    Probe(InjectionEngine, "run", "engine.campaign", "engine"),
    Probe(InjectionEngine, "resolve_plan", "engine.resolve_plan", "engine"),
    Probe(executors_module, "replay_planned_injection", "engine.replay",
          "engine", hot=True),
    Probe(executors_module, "classify_outcome", "faultinjection.classify",
          "faultinjection", hot=True),
    Probe(engine_module, "uniform_injection_plan", "faultinjection.plan",
          "faultinjection"),
    Probe(CampaignResult, "contribute_to", "faultinjection.contribute",
          "faultinjection"),
    Probe(VulnerabilityMap, "record", "faultinjection.map_record",
          "faultinjection", hot=True),
]


def _evaluation_name(seen: set):
    """Span name of one ``evaluate_costed`` call: a combination's first
    evaluation (where a tunable one builds its schedule) or a cached one."""
    def name(explorer, combination, *args, **kwargs) -> str:
        key = (id(explorer), combination)
        if key in seen:
            return "core.eval_warm"
        seen.add(key)
        return ("core.eval_first_tunable"
                if combination.has_tunable_technique
                else "core.eval_first_fixed")
    return name


def explore_probes() -> list[Probe]:
    return [
        Probe(Placement, "__init__", "physical.placement", "physical"),
        Probe(TimingModel, "__init__", "physical.timing", "physical"),
        Probe(DesignCostModel, "__init__", "physical.cost_model", "physical"),
        Probe(CalibratedVulnerabilityModel, "build_map",
              "faultinjection.calibrated_build", "faultinjection"),
        Probe(ClearFramework, "find_cheapest_solution", "core.cheapest",
              "core"),
        Probe(CrossLayerExplorer, "evaluate_costed", _evaluation_name(set()),
              "core"),
        Probe(CrossLayerExplorer, "record", "core.record", "core", hot=True),
        Probe(VulnerabilityMap, "sdc_probability",
              "faultinjection.site_query", "faultinjection", hot=True),
        Probe(VulnerabilityMap, "due_probability",
              "faultinjection.site_query", "faultinjection", hot=True),
        Probe(ProtectedDesign, "estimate_improvement",
              "resilience.estimate_improvement", "resilience", hot=True),
        Probe(ProtectedDesign, "cost", "resilience.cost", "resilience",
              hot=True),
        Probe(ParetoFrontier, "add", "analysis.frontier_add", "analysis",
              hot=True),
    ]


@dataclass
class Ledger:
    """Everything the traced run measured and checked."""

    run_id: str
    values: dict[str, float] = field(default_factory=dict)
    tracers: list[Tracer] = field(default_factory=list)
    mismatches: list[str] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0

    def tracer(self, section: str) -> Tracer:
        tracer = Tracer(f"{self.run_id}:{section}")
        self.tracers.append(tracer)
        return tracer

    def add(self, name: str, value: float) -> None:
        self.values[name] = self.values.get(name, 0.0) + value


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in (0, 1])."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(share * len(ordered)) - 1)]


def mean_or_zero(total: float, count: int) -> float:
    return total / count if count else 0.0


def mean_span(tracer: Tracer, name: str) -> float:
    """Mean duration (s) of the spans called ``name`` (0 when none ran)."""
    count, total = tracer.totals(name)
    return mean_or_zero(total, count)


# ---------------------------------------------------------------------- campaigns
def campaign_section(ledger: Ledger, tag: str, core_class, seed: int,
                     size: dict) -> None:
    tracer = ledger.tracer(tag)
    injections = size["injections"][tag]
    with tracer.span(f"ledger.{tag}", "bench"):
        core = core_class()
        suite = suite_for_core(core)[:size["programs"]]
        with tracer.span("workloads.assemble", "workloads") as span:
            for workload in suite:
                assemble(workload.source, name=workload.name)
        if tag == "ino":
            ledger.add("workloads.assemble_ms", span.duration * 1e3)
        programs = [workload.program() for workload in suite]

        plain_s, cycles = 0.0, 0
        for program in programs:
            with tracer.span("microarch.plain_run", "microarch",
                             program=program.name) as span:
                cycles += core.run(program).cycles
            plain_s += span.duration
        ledger.add(f"microarch.{tag}.us_per_cycle", plain_s / cycles * 1e6)

        cache = GoldenRunCache(max_entries=len(programs))
        engines = [InjectionEngine(core, program, seed=seed + index,
                                   golden_cache=cache)
                   for index, program in enumerate(programs)]
        with instrumented(tracer, CAMPAIGN_PROBES):
            goldens = [engine.golden() for engine in engines]
        _, record_s = tracer.totals("engine.record_golden")
        ledger.add(f"engine.{tag}.golden_record_s", record_s)
        ledger.add(f"engine.{tag}.golden_hook_ratio", record_s / plain_s)
        for workload, golden in zip(suite, goldens):
            if golden.golden.output != workload.reference():
                ledger.mismatches.append(f"{tag}: golden output of "
                                         f"{workload.name} != reference()")

        _time_state_operations(ledger, tracer, tag, core, programs, goldens,
                               size["snapshots"])
        with instrumented(tracer, CAMPAIGN_PROBES):
            _replay_and_compare(ledger, tracer, tag, core, programs, engines,
                                goldens, injections, seed)


def _time_state_operations(ledger, tracer, tag, core, programs, goldens,
                           per_program: int) -> None:
    """restore / state_fingerprint / snapshot on recorded checkpoints."""
    for program, golden in zip(programs, goldens):
        snapshots = golden.snapshots
        step = max(1, len(snapshots) // per_program)
        for snapshot in snapshots[::step][:per_program]:
            with tracer.span("microarch.restore_probe", "microarch"):
                core.restore(program, snapshot)
            with tracer.span("microarch.fingerprint_probe", "microarch"):
                core.state_fingerprint()
            with tracer.span("microarch.snapshot_probe", "microarch"):
                core.snapshot()
    for operation in ("restore", "fingerprint", "snapshot"):
        durations = tracer.durations(f"microarch.{operation}_probe")
        ledger.add(f"microarch.{tag}.{operation}_us",
                   mean_or_zero(sum(durations), len(durations)) * 1e6)


def _replay_and_compare(ledger, tracer, tag, core, programs, engines,
                        goldens, injections: int, seed: int) -> None:
    simulated = fastforward = converged = saved = 0
    for index, (program, engine, golden) in enumerate(
            zip(programs, engines, goldens)):
        with tracer.span("faultinjection.plan_resolve",
                         "faultinjection") as span:
            plan = uniform_injection_plan(core.flip_flop_count,
                                          golden.golden.cycles, injections,
                                          seed=seed + index)
            planned = engine.resolve_plan(plan)
        ledger.add("faultinjection.plan_ms", span.duration * 1e3)
        ledger.attempted += len(planned)
        outcomes = OutcomeCounts()
        per_site: dict[int, OutcomeCounts] = {}
        for item in planned:
            with tracer.span("engine.replay_direct", "engine"):
                replay = replay_planned_injection(core, program, item, golden)
            simulated += replay.simulated_cycles
            fastforward += replay.resumed_from
            converged += replay.converged_at is not None
            saved += replay.saved_cycles
            outcomes.record(replay.outcome)
            per_site.setdefault(item.injection.flat_index,
                                OutcomeCounts()).record(replay.outcome)
        result = engine.run(plan=plan)
        result.contribute_to(VulnerabilityMap(core.name,
                                              core.flip_flop_count))
        if (result.outcomes.as_dict() != outcomes.as_dict()
                or {site: counts.as_dict()
                    for site, counts in result.per_site.items()}
                != {site: counts.as_dict()
                    for site, counts in per_site.items()}):
            ledger.mismatches.append(f"{tag} {program.name}: replayed "
                                     f"outcomes != InjectionEngine.run")
    durations = tracer.durations("engine.replay_direct")
    busy = sum(durations)
    replays = len(durations)
    _, campaign_s = tracer.totals("engine.campaign")
    _, contribute_s = tracer.totals("faultinjection.contribute")
    ledger.add("faultinjection.contribute_ms", contribute_s * 1e3)
    prefix = f"engine.{tag}"
    ledger.add(f"{prefix}.replay_ms_p50", statistics.median(durations) * 1e3)
    ledger.add(f"{prefix}.replay_ms_p99", percentile(durations, 0.99) * 1e3)
    ledger.add(f"{prefix}.replay_busy_s", busy)
    ledger.add(f"{prefix}.replays", replays)
    ledger.add(f"{prefix}.simulated_cycles", simulated)
    ledger.add(f"{prefix}.simulated_cycles_per_inj", simulated / replays)
    ledger.add(f"{prefix}.fastforward_cycles_per_inj", fastforward / replays)
    ledger.add(f"{prefix}.converged_ratio", converged / replays)
    ledger.add(f"{prefix}.saved_cycle_ratio",
               mean_or_zero(saved, simulated + saved))
    ledger.add(f"{prefix}.overhead_s", campaign_s - busy)


# ---------------------------------------------------------------------- parallel
def parallel_section(ledger: Ledger, seed: int, size: dict) -> None:
    """One InO mcf campaign on two workers against its serial replay."""
    tracer = ledger.tracer("x2")
    with tracer.span("ledger.x2", "bench"):
        core = InOrderCore()
        program = workload_by_name("mcf").program()
        cache = GoldenRunCache(max_entries=1)
        serial = InjectionEngine(core, program, seed=seed, golden_cache=cache)
        golden = serial.golden()
        config = EngineConfig(workers=2)
        plan = uniform_injection_plan(core.flip_flop_count,
                                      golden.golden.cycles,
                                      size["x2_injections"], seed=seed)
        ledger.attempted += len(plan)
        if len(plan) < config.parallel_threshold:
            ledger.mismatches.append(
                f"x2: {len(plan)} injections is below the parallel "
                f"threshold {config.parallel_threshold}; the pool would "
                f"not run")
        outcomes = OutcomeCounts()
        busy = 0.0
        for item in serial.resolve_plan(plan):
            with tracer.span("engine.replay_direct", "engine") as span:
                replay = replay_planned_injection(core, program, item, golden)
            busy += span.duration
            outcomes.record(replay.outcome)
        parallel = InjectionEngine(core, program, seed=seed, config=config,
                                   golden_cache=cache)
        try:
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                with tracer.span("engine.parallel_campaign", "engine") as span:
                    result = parallel.run(plan=plan)
        except RuntimeWarning as warning:
            ledger.failed += len(plan)
            ledger.mismatches.append(f"x2: parallel executor fell back to "
                                     f"serial replay ({warning})")
        else:
            if result.outcomes.as_dict() != outcomes.as_dict():
                ledger.mismatches.append("x2: parallel outcomes != serial "
                                         "replay")
    ledger.add("engine.x2.parallel_efficiency", busy / (2 * span.duration))
    ledger.add("engine.x2.overhead_s", span.duration - busy / 2)


# ---------------------------------------------------------------------- explore
def explore_section(ledger: Ledger, tag: str, seed: int,
                    size: dict) -> float:
    """One core's traced exploration; returns its sweep + search seconds."""
    tracer = ledger.tracer(f"explore-{tag}")
    pool = size["pool"]
    pool_size = len(explore.enumerate_combinations(explore.FAMILIES[tag])
                    [:pool])
    with instrumented(tracer, explore_probes()):
        with tracer.span(f"ledger.explore-{tag}", "bench"):
            framework = ClearFramework(core=explore.CORES[tag](), seed=seed)
            with tracer.span("core.explore", "core") as span:
                frontier, swept, cheapest = explore.explore_core(framework,
                                                                 pool)
    ledger.attempted += swept
    ledger.mismatches += explore.consistency_mismatches(
        f"explore-{tag}", frontier, swept, cheapest,
        pool_size * len(sdc_targets()))

    physical = sum(tracer.totals(name)[1] for name in
                   ("physical.placement", "physical.timing",
                    "physical.cost_model"))
    ledger.add(f"physical.{tag}.setup_ms", physical * 1e3)
    ledger.add("faultinjection.calibrated_build_s",
               tracer.totals("faultinjection.calibrated_build")[1])
    tunable = tracer.durations("core.eval_first_tunable")
    ledger.add(f"core.{tag}.tunable_eval_ms_p50",
               statistics.median(tunable) * 1e3 if tunable else 0.0)
    ledger.add(f"core.{tag}.tunable_eval_ms_p99",
               percentile(tunable, 0.99) * 1e3 if tunable else 0.0)
    ledger.add(f"core.{tag}.fixed_eval_s",
               tracer.totals("core.eval_first_fixed")[1])
    ledger.add(f"core.{tag}.warm_pair_us",
               mean_span(tracer, "core.eval_warm") * 1e6)
    searches = [r for r in tracer.spans if r["name"] == "core.cheapest"]
    ledger.add(f"core.{tag}.cheapest_ms", statistics.mean(
        r["end"] - r["start"] for r in searches) * 1e3)
    evaluated = {r["id"]: 0 for r in searches}
    for record in tracer.spans:
        if record["parent"] in evaluated \
                and record["name"].startswith("core.eval_"):
            evaluated[record["parent"]] += 1
    ledger.add(f"core.{tag}.pruned_ratio",
               statistics.mean(evaluated.values()) / pool_size)
    ledger.add(f"resilience.{tag}.estimate_improvement_ms",
               mean_span(tracer, "resilience.estimate_improvement") * 1e3)
    return span.duration


# ---------------------------------------------------------------------- overhead
def campaign_overhead(ledger: Ledger, seed: int, size: dict) -> float:
    """Traced minus untraced seconds of one InO and one OoO suite pass."""
    prepared = {tag: campaigns.prepare(core_class, size["programs"])
                for tag, core_class in campaigns.CORES.items()}
    injections = size["twin_injections"]

    def one_pass():
        for tag, one in prepared.items():
            for index in range(len(one.programs)):
                campaigns.run_program(one, index, injections[tag], seed)

    start = time.perf_counter()
    one_pass()
    untraced = time.perf_counter() - start
    tracer = ledger.tracer("campaign-pass")
    with instrumented(tracer, CAMPAIGN_PROBES):
        with tracer.span("ledger.campaign-pass", "bench") as span:
            one_pass()
    return span.duration - untraced


def explore_overhead(seed: int, size: dict, traced_s: float) -> float:
    """Traced InO exploration seconds minus the same work untraced."""
    framework = ClearFramework(core=InOrderCore(), seed=seed)
    start = time.perf_counter()
    explore.explore_core(framework, size["pool"])
    return traced_s - (time.perf_counter() - start)


def run(workload: str, seed: int, size_name: str) -> Ledger:
    """The whole ledger for a traced run of ``workload``."""
    size = SIZES[size_name]
    ledger = Ledger(run_id=f"{workload}-seed{seed}")
    explored: dict[str, float] = {}

    def explore_both() -> None:
        for tag in explore.CORES:
            explored[tag] = explore_section(ledger, tag, seed, size)

    def overhead() -> None:
        ledger.add("trace.overhead_s",
                   explore_overhead(seed, size, explored["ino"])
                   if workload == "explore"
                   else campaign_overhead(ledger, seed, size))

    sections = [
        functools.partial(campaign_section, ledger, "ino", InOrderCore,
                          seed, size),
        functools.partial(campaign_section, ledger, "ooo", OutOfOrderCore,
                          seed, size),
        functools.partial(parallel_section, ledger, seed, size),
        explore_both,
        overhead,
    ]
    for section in sections:
        try:
            section()
        except Exception:  # a broken section fails the run, not the ledger
            traceback.print_exc()
            ledger.failed += 1
            ledger.attempted += 1
            ledger.mismatches.append("a ledger section raised")
    for metric, name in (("faultinjection.site_query_us",
                          "faultinjection.site_query"),
                         ("analysis.frontier_add_us",
                          "analysis.frontier_add")):
        count = sum(tracer.totals(name)[0] for tracer in ledger.tracers)
        total = sum(tracer.totals(name)[1] for tracer in ledger.tracers)
        ledger.values[metric] = mean_or_zero(total, count) * 1e6
        if metric == "faultinjection.site_query_us":
            ledger.values["faultinjection.site_queries"] = count
    return ledger
