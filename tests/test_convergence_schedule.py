"""The convergence probe hook and the high-level campaign gate.

The gate probes an injected replay's state fingerprint against the golden
grid at every grid cycle after the injection.  This module pins the hook
itself (a matching digest ends the run on the spot) and asserts that
high-level injection campaigns, which route through the same gate, report
bit-identical counts with it on and off.
"""

from __future__ import annotations

from types import SimpleNamespace

import pytest

from repro.engine.checkpoint import ConvergedEarly, convergence_hook
from repro.faultinjection import HighLevelInjector, InjectionLevel
from repro.microarch import InOrderCore
from repro.workloads import workload_by_name


@pytest.fixture(scope="module")
def program():
    return workload_by_name("vpr").program()


class TestConvergenceHook:
    def _core(self, program):
        core = InOrderCore()
        core.run(program, max_cycles=400)
        return core

    def test_matching_digest_converges(self, program):
        core = self._core(program)
        hook = convergence_hook(
            lambda c, cycle: None, 0,
            SimpleNamespace(fingerprints={8: core.state_fingerprint()},
                            fingerprint_interval=8))
        with pytest.raises(ConvergedEarly) as exc:
            hook(core, 8)
        assert exc.value.cycle == 8


class TestHighLevelCampaignGate:
    @pytest.mark.parametrize("level", [InjectionLevel.REGISTER_UNIFORM,
                                       InjectionLevel.VARIABLE_WRITE],
                             ids=lambda level: level.value)
    def test_gate_leaves_counts_bit_identical(self, small_workload, level):
        program = small_workload.program()
        ungated, gated = (
            HighLevelInjector(InOrderCore(), seed=5).campaign(
                level, program, count=25, convergence=convergence)
            for convergence in (False, True))
        assert gated.counts == ungated.counts
        assert gated.level is ungated.level is level
        assert ungated.converged_count == 0 and ungated.saved_cycles == 0
        assert gated.converged_count > 0
        assert gated.saved_cycles > 0
        assert gated.replayed_cycles < ungated.replayed_cycles
