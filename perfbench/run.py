"""CLEAR benchmark: suite injection campaigns on both cores and the full
cross-layer exploration.

Run from the checkout root::

    python3 perfbench/run.py --workload suite-campaigns --seed 2016 --seconds 35 --trace 0

``--trace 0`` measures the workload with tracing off and reports the
end-to-end metrics; ``--trace 1`` runs the traced per-layer ledger and
reports every per-layer metric.  The last line of standard output is the
JSON result; the exit code is non-zero when any correctness check fails.
See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

import catalogue
import host

DEFAULT_SEED = 2016
EXPECTED = Path(__file__).resolve().parent / "expected.json"


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=(*catalogue.WORKLOADS, "all"),
                        help="all: run every workload in its own process "
                             "and print one table")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=35.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: a seconds-long smoke of the same code "
                             "paths (recorded digests are not checked)")
    return parser.parse_args(argv)


def expected_for(workload: str, seed: int, size: str) -> dict | None:
    """Recorded digests; they exist for the default seed at full size."""
    if seed != DEFAULT_SEED or size != "full":
        return None
    return json.loads(EXPECTED.read_text())[workload]


def measure(args) -> tuple[dict, dict, list]:
    """Run the workload; returns (result line, run document, tracers)."""
    import campaigns
    import explore
    import ledger

    provenance = host.Provenance()
    tracers = []
    if args.trace:
        traced = ledger.run(args.workload, args.seed, args.size)
        values, units = traced.values, catalogue.PER_LAYER
        attempted, failed = traced.attempted, traced.failed
        mismatches, counts, tracers = traced.mismatches, {}, traced.tracers
        core = config = None
    else:
        expected = expected_for(args.workload, args.seed, args.size)
        if args.workload == "explore":
            result = explore.run_workload(args.seed, args.seconds, args.size,
                                          expected)
        else:
            result = campaigns.run_workload(args.seed, args.seconds,
                                            args.size, expected)
        values = dict(result.metrics, peak_rss_mb=host.peak_rss_mb())
        units = catalogue.END_TO_END
        attempted, failed = result.attempted, result.failed
        mismatches, counts = result.mismatches, result.counts
        core, config = result.core, result.config
    missing = [name for name in units if name not in values]
    if missing:
        mismatches = [*mismatches, f"not measured: {', '.join(missing)}"]
    line = {"correct": not mismatches and failed == 0,
            "attempted": attempted, "failed": failed,
            "metrics": catalogue.metric_block(values, units)}
    document = {"result": line, "counts": counts, "mismatches": mismatches,
                "provenance": provenance.finish(args.seed, args.workload,
                                                core=core, config=config)}
    return line, document, tracers


def run_all(args) -> int:
    """Every workload in a fresh process (own peak memory), one table."""
    results = {}
    for workload in catalogue.WORKLOADS:
        completed = subprocess.run(
            [sys.executable, __file__, "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace), "--size", args.size],
            capture_output=True, text=True, check=False)
        sys.stderr.write(completed.stderr)
        lines = completed.stdout.strip().splitlines()
        results[workload] = json.loads(lines[-1]) if lines else None
    for workload, line in results.items():
        if line is None:
            print(f"{workload:<16} no result")
            continue
        print(f"{workload:<16} correct={line['correct']} "
              f"attempted={line['attempted']} failed={line['failed']}")
        for name, metric in line["metrics"].items():
            print(f"  {name:<44} {metric['value']:>14.6g} {metric['unit']}")
    print(json.dumps(results), flush=True)
    return 0 if all(line and line["correct"]
                    for line in results.values()) else 1


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    try:
        host.use_checkout_sources()
    except host.MissingLibrary as error:
        print(f"perfbench: {error}", file=sys.stderr)
        return 2
    if args.workload == "all":
        return run_all(args)
    import spans

    line, document, tracers = measure(args)
    provenance = document["provenance"]
    if provenance["busy_host"]:
        print(f"perfbench: warning: host load {provenance['load_before'][0]:.2f}"
              f" / {provenance['load_after'][0]:.2f} exceeded "
              f"{provenance['nproc']} CPUs; host times are suspect",
              file=sys.stderr)
    for mismatch in document["mismatches"]:
        print(f"perfbench: MISMATCH: {mismatch}", file=sys.stderr)
    if tracers:
        print(spans.format_self_time_table(tracers))
        document["trace"] = [tracer.to_dict() for tracer in tracers]
    host.OUT_DIR.mkdir(parents=True, exist_ok=True)
    out = host.OUT_DIR / (f"{args.workload}-seed{args.seed}-"
                          f"trace{args.trace}-{args.size}.json")
    out.write_text(json.dumps(document, indent=1, default=str) + "\n")
    print(f"provenance: load {provenance['load_before'][0]:.2f} -> "
          f"{provenance['load_after'][0]:.2f} on {provenance['nproc']} CPUs, "
          f"wall {provenance['wall_s']:.1f}s, cpu {provenance['cpu_s']:.1f}s "
          f"(+{provenance['children_cpu_s']:.1f}s children), "
          f"git {provenance['git']}; details in {out.name}")
    print(json.dumps(line), flush=True)
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
