"""Injection-engine scaling: re-simulation vs checkpoints vs convergence vs batching.

Measures campaign throughput (injections/second) for the same fixed-seed
campaign on a >=5k-cycle workload under groups of execution strategies.

The first group runs the standard campaign size and shows the scalar-path
trajectory:

* ``serial, no checkpoints`` -- every injected run re-simulates from cycle 0
  to termination (the pre-engine behaviour,
  ``EngineConfig(checkpoint_interval=0, convergence=False)``);
* ``serial, checkpointed`` -- injected runs fast-forward from the nearest
  golden-run snapshot but still simulate to termination
  (``convergence=False``, the pre-convergence baseline);
* ``serial, converged`` -- checkpointed replay plus convergence-gated early
  termination: an injected run stops the moment its state fingerprint
  re-converges with the golden run's dense fingerprint grid;
* ``parallel, converged`` -- the convergence-gated plan sharded over worker
  processes.

The second group prices each core: the simulator cost per cycle of an
unhooked golden run on both cores (best of three), and the
``serial, converged`` campaign on the OoO-core (the first group is
InO-only).  It has no speedup column.

The third group adds batched lockstep replay (``EngineConfig.batch_width``)
on top of the convergence-gated configuration.  Batched rows run a larger
campaign: at small N the wall time is dominated by the handful of
never-reconverging runs each wavefront hard-evicts to the scalar path, so
throughput is quoted at a size where the wavefront is actually saturated.
Serial throughput is N-independent (each injection replays in isolation),
but the serial-converged reference is re-measured at the batched size anyway
so the comparison is same-N by construction.

Within the other groups the ``speedup`` column is relative to the group's
first row (the group's serial baseline).  All strategies must report bit-identical
outcome statistics (asserted below, including per-site tallies for the
batched rows); convergence gating must cut the checkpointed baseline's
simulated cycles by >=30% and batched replay at width >=16 must beat the
serial-converged reference by >=5x (both asserted below).  Golden-run
recording time is excluded via a warm cache, matching the steady-state
regime of multi-config campaigns.
"""

from __future__ import annotations

import os
import time

from _harness import persist_bench, run_once

from repro.engine import EngineConfig, GoldenRunCache, InjectionEngine
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.obs.phases import (COUNT_FINGERPRINT_CHECKS, PHASE_CONVERGENCE)
from repro.reporting import format_table
from repro.workloads import workload_by_name

WORKLOAD = "mcf"          # 7.4k golden cycles on the InO-core, 2.5k on OoO
INJECTIONS = 30
BATCH_INJECTIONS = 120
BATCH_WIDTHS = (8, 16, 32)
PARALLEL_WORKERS = max(2, min(os.cpu_count() or 1, 4))
MIN_SAVED_CYCLE_FRACTION = 0.30
"""Acceptance floor: convergence gating must remove at least this fraction
of the simulated injected-run cycles on the standard campaign."""
MIN_BATCH_SPEEDUP = 5.0
"""Acceptance floor: batched lockstep replay at width >=16 must beat the
serial convergence-gated reference (same campaign size) by this factor."""
MIN_ADAPTIVE_SPEEDUP = 1.3
"""Adaptive-spacing acceptance, throughput branch: injections/s over the
dense-probing converged baseline."""
MIN_FP_TIME_REDUCTION = 3.0
"""Adaptive-spacing acceptance, phase-time branch: reduction in measured
convergence-phase (fingerprint hashing) wall time.  Either this OR the
throughput branch must hold -- fingerprinting is a few percent of scalar
replay wall time on this workload, so the phase-time branch is the
meaningful one."""


def bench_engine_scaling(benchmark):
    def payload():
        program = workload_by_name(WORKLOAD).program()

        def run_campaign(config, injections, core_class=InOrderCore):
            engine = InjectionEngine(core_class(), program, seed=9,
                                     config=config,
                                     golden_cache=GoldenRunCache())
            checkpointed = engine.golden()  # warm the cache
            start = time.perf_counter()
            result = engine.run(injections=injections)
            elapsed = time.perf_counter() - start
            return checkpointed, result, elapsed

        rows = []

        # -------------------------------------------------- scalar strategies
        modes = [
            ("serial, no checkpoints",
             EngineConfig(checkpoint_interval=0, convergence=False)),
            ("serial, checkpointed", EngineConfig(convergence=False)),
            ("serial, converged", EngineConfig()),
            # parallel_threshold=0: at N=30 the engine's small-plan fallback
            # would silently serialize this row, hiding what it measures
            # (pool spin-up cost on a small campaign).
            (f"parallel x{PARALLEL_WORKERS}, converged",
             EngineConfig(workers=PARALLEL_WORKERS, parallel_threshold=0)),
        ]
        reference = None
        baseline_rate = None
        checkpointed_cycles = None
        for label, config in modes:
            checkpointed, result, elapsed = run_campaign(config, INJECTIONS)
            if reference is None:
                reference = result.outcomes
            assert result.outcomes == reference, \
                "execution strategies must report identical statistics"
            if label == "serial, checkpointed":
                checkpointed_cycles = result.replayed_cycles
            if config.convergence_enabled and checkpointed_cycles:
                saved_fraction = 1 - result.replayed_cycles / checkpointed_cycles
                assert saved_fraction >= MIN_SAVED_CYCLE_FRACTION, (
                    f"convergence gating saved only {saved_fraction:.0%} of "
                    f"the checkpointed baseline's simulated cycles "
                    f"(floor {MIN_SAVED_CYCLE_FRACTION:.0%})")
            rate = INJECTIONS / elapsed
            if baseline_rate is None:
                baseline_rate = rate
            rows.append([label, "-", checkpointed.checkpoint_count,
                         checkpointed.fingerprint_count,
                         result.replayed_cycles,
                         f"{100 * result.saved_cycle_fraction:.0f}%",
                         "0%", f"{elapsed:.2f}s", f"{rate:.1f}",
                         f"{rate / baseline_rate:.2f}x"])

        # ------------------------------------------------------ per core
        for core_class in (InOrderCore, OutOfOrderCore):
            core = core_class()
            timings = []
            for _ in range(3):
                start = time.perf_counter()
                golden = core.run(program)
                timings.append(time.perf_counter() - start)
            elapsed = min(timings)
            rows.append([f"golden run, {core.name} (unhooked)", "-", "-", "-",
                         golden.cycles, "-",
                         f"{1e6 * elapsed / golden.cycles:.1f} us/cycle",
                         f"{elapsed:.2f}s", "-", "-"])
        checkpointed, result, elapsed = run_campaign(
            EngineConfig(), INJECTIONS, OutOfOrderCore)
        rows.append(["serial, converged (OoO-core)", "-",
                     checkpointed.checkpoint_count,
                     checkpointed.fingerprint_count, result.replayed_cycles,
                     f"{100 * result.saved_cycle_fraction:.0f}%", "0%",
                     f"{elapsed:.2f}s", f"{INJECTIONS / elapsed:.1f}", "-"])

        # ------------------------------------------------- batched strategies
        checkpointed, scalar_ref, elapsed = run_campaign(
            EngineConfig(), BATCH_INJECTIONS)
        reference_rate = BATCH_INJECTIONS / elapsed
        rows.append([f"serial, converged (N={BATCH_INJECTIONS})", "-",
                     checkpointed.checkpoint_count,
                     checkpointed.fingerprint_count,
                     scalar_ref.replayed_cycles,
                     f"{100 * scalar_ref.saved_cycle_fraction:.0f}%",
                     "0%", f"{elapsed:.2f}s", f"{reference_rate:.1f}", "1.00x"])
        for width in BATCH_WIDTHS:
            checkpointed, result, elapsed = run_campaign(
                EngineConfig(batch_width=width), BATCH_INJECTIONS)
            assert result.outcomes == scalar_ref.outcomes \
                and result.per_site == scalar_ref.per_site, \
                "batched replay must report statistics bit-identical to scalar"
            rate = BATCH_INJECTIONS / elapsed
            speedup = rate / reference_rate
            if width >= 16:
                assert speedup >= MIN_BATCH_SPEEDUP, (
                    f"batched x{width} reached only {speedup:.1f}x over the "
                    f"serial-converged reference (floor {MIN_BATCH_SPEEDUP}x)")
            rows.append([f"batched x{width}, converged", width,
                         checkpointed.checkpoint_count,
                         checkpointed.fingerprint_count,
                         result.replayed_cycles,
                         f"{100 * result.saved_cycle_fraction:.0f}%",
                         f"{100 * result.evicted_fraction:.0f}%",
                         f"{elapsed:.2f}s", f"{rate:.1f}",
                         f"{speedup:.2f}x"])

        # ---------------------------------------------- adaptive check spacing
        # Metered group (EngineConfig(metrics=True) on both sides so the
        # convergence-phase timer records the actual hashing cost): a probe
        # at every grid point vs the adaptive per-site schedule, which cuts
        # the probe *count* on diverging sites.  Statistics must stay
        # bit-identical; the acceptance target is MIN_ADAPTIVE_SPEEDUP on
        # throughput OR MIN_FP_TIME_REDUCTION on the measured
        # fingerprint-phase time.
        def fp_phase(result):
            timers = result.metrics.get("timers", {})
            entry = timers.get(PHASE_CONVERGENCE)
            seconds = entry["seconds"] if entry else 0.0
            probes = result.metrics.get("counters", {}).get(
                COUNT_FINGERPRINT_CHECKS, 0)
            return probes, seconds

        spacing_modes = [
            ("serial, converged (metered)", EngineConfig(metrics=True), False),
            ("adaptive spacing (metered)",
             EngineConfig(metrics=True, adaptive_check_spacing=True), True),
        ]
        full_rate = None
        full_seconds = None
        full_per_site = None
        for label, config, asserted in spacing_modes:
            checkpointed, result, elapsed = run_campaign(config, INJECTIONS)
            assert result.outcomes == reference, \
                "adaptive spacing must not change outcome statistics"
            if full_per_site is None:
                full_per_site = result.per_site
            assert result.per_site == full_per_site, \
                "adaptive spacing must not change per-site tallies"
            probes, fp_seconds = fp_phase(result)
            rate = INJECTIONS / elapsed
            if full_rate is None:
                full_rate = rate
                full_seconds = fp_seconds
                speedup = 1.0
            else:
                speedup = rate / full_rate
            if asserted:
                reduction = (full_seconds / fp_seconds
                             if fp_seconds > 0 else float("inf"))
                assert (speedup >= MIN_ADAPTIVE_SPEEDUP
                        or reduction >= MIN_FP_TIME_REDUCTION), (
                    f"{label}: {speedup:.2f}x throughput (floor "
                    f"{MIN_ADAPTIVE_SPEEDUP}x) and {reduction:.1f}x "
                    f"fingerprint-phase time reduction (floor "
                    f"{MIN_FP_TIME_REDUCTION}x) -- neither branch met")
            rows.append([label, "-", checkpointed.checkpoint_count,
                         checkpointed.fingerprint_count,
                         result.replayed_cycles,
                         f"{100 * result.saved_cycle_fraction:.0f}%",
                         f"{probes} probes / {1000 * fp_seconds:.1f}ms fp",
                         f"{elapsed:.2f}s", f"{rate:.1f}",
                         f"{speedup:.2f}x"])
        return rows

    rows = run_once(benchmark, payload)
    headers = ["strategy", "batch width", "checkpoints", "fingerprints",
               "replayed cycles", "cycles saved", "evicted / fp cost",
               "wall time", "injections/s", "speedup"]
    persist_bench("engine", headers, rows,
                  context={"workload": WORKLOAD, "injections": INJECTIONS,
                           "batch_injections": BATCH_INJECTIONS,
                           "batch_widths": list(BATCH_WIDTHS),
                           "parallel_workers": PARALLEL_WORKERS,
                           "min_saved_cycle_fraction": MIN_SAVED_CYCLE_FRACTION,
                           "min_batch_speedup": MIN_BATCH_SPEEDUP,
                           "min_adaptive_speedup": MIN_ADAPTIVE_SPEEDUP,
                           "min_fp_time_reduction": MIN_FP_TIME_REDUCTION},
                  seed=9, core=InOrderCore(),
                  config=EngineConfig(), benchmark=benchmark)
    print()
    print(format_table(
        f"Engine scaling on {WORKLOAD} (InO-core unless named); speedup is "
        f"vs each group's serial baseline row",
        headers, rows))
