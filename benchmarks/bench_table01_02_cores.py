"""Table 1 (processor designs studied) and Table 2 (flip-flop vulnerability).

Table 1: flip-flop counts, clock frequencies and measured IPC of the two
cores.  Table 2: fraction of flip-flops with SDC-causing, DUE-causing and
any error across the benchmark suite, read from each framework's default
vulnerability map -- the ``CalibratedVulnerabilityModel``, not an injection
campaign (``ClearFramework.measure_vulnerability`` runs those).
"""

from __future__ import annotations

from _harness import run_once

from repro.reporting import format_table
from repro.workloads import workload_by_name


def bench_table01_cores(benchmark, frameworks):
    def payload():
        rows = []
        for family, framework in frameworks.items():
            program = workload_by_name("crafty").program()
            result = framework.core.run(program)
            rows.append([framework.core.name, framework.core.flip_flop_count,
                         f"{framework.core.clock_mhz / 1000:.1f} GHz",
                         round(result.ipc, 2), len(framework.workloads)])
        return rows

    rows = run_once(benchmark, payload)
    print()
    print(format_table("Table 1: processor designs studied",
                       ["core", "flip-flops", "clock", "IPC", "benchmarks"], rows))


def bench_table02_ff_distribution(benchmark, frameworks):
    def payload():
        rows = []
        for family, framework in frameworks.items():
            vulnerability = framework.vulnerability
            rows.append([framework.core.name,
                         f"{100 * vulnerability.fraction_with_sdc():.1f}%",
                         f"{100 * vulnerability.fraction_with_due():.1f}%",
                         f"{100 * vulnerability.fraction_with_any():.1f}%"])
        return rows

    rows = run_once(benchmark, payload)
    print()
    print(format_table(
        "Table 2: flip-flops with SDC-/DUE-causing errors, calibrated "
        "vulnerability model (paper: 60.1/78.3/81.2 InO, 35.7/52.1/61 OoO)",
        ["core", "% FFs with SDC", "% FFs with DUE", "% FFs with SDC or DUE"], rows))
