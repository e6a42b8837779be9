"""Alternative (higher-level) injection models.

Tables 11 and 14 of the paper compare resilience improvements evaluated with
accurate flip-flop-level injection against four naive higher-level injection
models: uniform architectural-register injection (regU), register-write
injection (regW), uniform program-variable injection (varU) and
program-variable-write injection (varW).  This module implements those four
models on top of the cycle-level cores so the same comparison can be made.

Campaigns route through the injection engine's checkpointed golden runs: the
golden run comes from the shared :data:`~repro.engine.GOLDEN_RUN_CACHE` (so
flip-flop and high-level campaigns on the same workload share it), every
injected run fast-forwards from the nearest snapshot at or below its
injection cycle, and -- when the golden run carries a fingerprint grid --
every injected run is convergence-gated: a run whose fingerprint matches the
golden grid is bit-identical to the golden run from that cycle on, so it
stops simulating and classifies against the synthesized golden remainder.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, replace
from enum import Enum, unique

from repro.engine.checkpoint import (
    GOLDEN_RUN_CACHE,
    CheckpointedGoldenRun,
    ConvergedEarly,
    convergence_hook,
)
from repro.faultinjection.outcomes import OutcomeCategory, OutcomeCounts, classify_outcome
from repro.isa.program import Program
from repro.isa.simulator import FunctionalSimulator
from repro.microarch.core import BaseCore
from repro.microarch.events import RunResult, TerminationReason
from repro.isa.registers import NUM_REGISTERS


@unique
class InjectionLevel(Enum):
    """Where an error is injected."""

    FLIP_FLOP = "flip-flop"
    REGISTER_UNIFORM = "regU"
    REGISTER_WRITE = "regW"
    VARIABLE_UNIFORM = "varU"
    VARIABLE_WRITE = "varW"


@dataclass(frozen=True)
class HighLevelInjection:
    """A single architectural-level injection."""

    level: InjectionLevel
    cycle: int
    register: int | None = None
    address: int | None = None
    bit: int = 0


@dataclass(frozen=True)
class HighLevelCampaignResult:
    """One high-level campaign's outcome counts plus convergence telemetry.

    ``counts`` is the same :class:`OutcomeCounts` the campaign always
    produced (bit-identical with the gate on or off, by the fingerprint
    contract); ``converged_count`` / ``saved_cycles`` expose how much of the
    campaign the convergence gate decided early, and ``replayed_cycles``
    sums the cycles actually simulated after snapshot fast-forward.
    """

    level: InjectionLevel
    counts: OutcomeCounts
    converged_count: int = 0
    saved_cycles: int = 0
    replayed_cycles: int = 0


class HighLevelInjector:
    """Injects errors into architectural registers or program variables."""

    def __init__(self, core: BaseCore, seed: int = 0):
        self.core = core
        self._rng = random.Random(seed)
        self._functional = FunctionalSimulator()

    # ------------------------------------------------------------------ planning
    def plan(self, level: InjectionLevel, program: Program, golden: RunResult,
             count: int) -> list[HighLevelInjection]:
        """Sample ``count`` injections for the given injection level."""
        if level is InjectionLevel.REGISTER_UNIFORM:
            return [HighLevelInjection(level, cycle=self._rng.randrange(max(1, golden.cycles)),
                                       register=self._rng.randrange(1, NUM_REGISTERS),
                                       bit=self._rng.randrange(32))
                    for _ in range(count)]
        if level is InjectionLevel.VARIABLE_UNIFORM:
            addresses = sorted(program.data.as_memory_image()) or [program.data.base]
            return [HighLevelInjection(level, cycle=self._rng.randrange(max(1, golden.cycles)),
                                       address=self._rng.choice(addresses),
                                       bit=self._rng.randrange(32))
                    for _ in range(count)]
        trace = self._functional.run(program, collect_trace=True)
        if level is InjectionLevel.REGISTER_WRITE:
            events = trace.register_writes
            plan = []
            for _ in range(count):
                entry = self._rng.choice(events)
                cycle = self._scale_cycle(entry.index, trace.result.instructions,
                                          golden.cycles)
                plan.append(HighLevelInjection(level, cycle=cycle, register=entry.rd,
                                               bit=self._rng.randrange(32)))
            return plan
        if level is InjectionLevel.VARIABLE_WRITE:
            events = trace.memory_writes or trace.register_writes
            plan = []
            for _ in range(count):
                entry = self._rng.choice(events)
                cycle = self._scale_cycle(entry.index, trace.result.instructions,
                                          golden.cycles)
                plan.append(HighLevelInjection(level, cycle=cycle,
                                               address=entry.store_address,
                                               register=entry.rd,
                                               bit=self._rng.randrange(32)))
            return plan
        raise ValueError(f"plan() does not handle {level}")

    @staticmethod
    def _scale_cycle(instruction_index: int, total_instructions: int,
                     golden_cycles: int) -> int:
        """Map an instruction index onto an approximate commit cycle."""
        if total_instructions <= 0:
            return 0
        fraction = instruction_index / total_instructions
        return min(golden_cycles - 1, max(0, int(fraction * golden_cycles)))

    # ------------------------------------------------------------------ execution
    def run_with_injection(self, program: Program, injection: HighLevelInjection,
                           golden: RunResult,
                           checkpointed: CheckpointedGoldenRun | None = None,
                           convergence: bool = True,
                           ) -> tuple[RunResult, OutcomeCategory]:
        """Run one injected replay; returns ``(result, outcome)``.

        A convergence-gated replay that matches the golden fingerprint grid
        returns a synthesized golden-remainder result -- bit-identical to
        what simulating to termination would have produced.
        """
        injected, outcome, _, _ = self._gated_replay(
            program, injection, golden, checkpointed,
            convergence=convergence)
        return injected, outcome

    def _gated_replay(self, program: Program, injection: HighLevelInjection,
                      golden: RunResult,
                      checkpointed: CheckpointedGoldenRun | None,
                      convergence: bool,
                      ) -> tuple[RunResult, OutcomeCategory, int | None, int]:
        """One replay plus its convergence telemetry:
        ``(result, outcome, converged_at, simulated_cycles)``."""
        watchdog = max(int(golden.cycles * 2.0), golden.cycles + 64)

        def hook(core: BaseCore, cycle: int) -> None:
            if cycle != injection.cycle:
                return
            if injection.register is not None and injection.address is None:
                index = injection.register & 0x1F
                if index != 0:
                    core.registers[index] ^= 1 << injection.bit
            elif injection.address is not None:
                memory = core.memory
                if memory.is_mapped(injection.address):
                    value = memory.load_word(injection.address)
                    memory.store_word(injection.address, value ^ (1 << injection.bit))

        # Same gate condition as the engine's scalar replay path: a
        # fingerprint match proves the remainder is bit-identical to the
        # golden run, so classification cannot change -- only the cycles
        # spent reaching it.
        run_hook = hook
        if (convergence and checkpointed is not None
                and checkpointed.fingerprint_interval > 0
                and checkpointed.fingerprints
                and golden.reason is not TerminationReason.HANG):
            run_hook = convergence_hook(hook, injection.cycle, checkpointed)
        snapshot = (checkpointed.nearest(injection.cycle)
                    if checkpointed is not None else None)
        resumed_from = snapshot.cycle if snapshot is not None else 0
        try:
            if snapshot is None:
                injected = self.core.run(program, max_cycles=watchdog,
                                         cycle_hook=run_hook)
            else:
                injected = self.core.resume(program, snapshot,
                                            max_cycles=watchdog,
                                            cycle_hook=run_hook)
        except ConvergedEarly as converged:
            synthesized = replace(golden, output=list(golden.output),
                                  detections=list(golden.detections))
            return (synthesized, classify_outcome(golden, synthesized),
                    converged.cycle, converged.cycle - resumed_from)
        return (injected, classify_outcome(golden, injected), None,
                injected.cycles - resumed_from)

    def campaign(self, level: InjectionLevel, program: Program,
                 count: int = 100,
                 convergence: bool = True) -> HighLevelCampaignResult:
        """Run a campaign at one injection level.

        Returns a :class:`HighLevelCampaignResult`; its ``counts`` are
        bit-identical whatever ``convergence`` is set to.
        """
        checkpointed = GOLDEN_RUN_CACHE.get(self.core, program)
        golden = checkpointed.golden
        counts = OutcomeCounts()
        converged_count = 0
        saved_cycles = 0
        replayed_cycles = 0
        for injection in self.plan(level, program, golden, count):
            _, outcome, converged_at, simulated = self._gated_replay(
                program, injection, golden, checkpointed,
                convergence=convergence)
            counts.record(outcome)
            replayed_cycles += simulated
            if converged_at is not None:
                converged_count += 1
                saved_cycles += max(0, golden.cycles - converged_at)
        return HighLevelCampaignResult(level=level, counts=counts,
                                       converged_count=converged_count,
                                       saved_cycles=saved_cycles,
                                       replayed_cycles=replayed_cycles)
