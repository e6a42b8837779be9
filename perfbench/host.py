"""Locating the library and recording host provenance for one run."""

from __future__ import annotations

import os
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
"""Root of the checkout the benchmark runs in (parent of ``perfbench/``)."""

OUT_DIR = Path(__file__).resolve().parent / "out"
"""Where runs write their provenance and trace documents (git-ignored)."""


class MissingLibrary(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def use_checkout_sources() -> None:
    """Import ``repro`` from this checkout's ``src/`` and nowhere else."""
    source = ROOT / "src"
    if not (source / "repro").is_dir():
        raise MissingLibrary(f"no library sources under {source}")
    if str(source) not in sys.path:
        sys.path.insert(0, str(source))


REFERENCE_ITERATIONS = 40_000
REFERENCE_NOMINAL_S = 0.02
"""Seconds the reference kernel takes on the host the normalised figures are
quoted for; it only sets the scale of normalised times."""


def reference_kernel(iterations: int = REFERENCE_ITERATIONS) -> int:
    """Fixed interpreter-bound work: calls, dict and list traffic, integer
    arithmetic and slot access -- the instruction mix of the simulator and
    the explorer, none of their code."""
    table: dict[int, int] = {}
    ring = [0] * 64

    def step(value: int, index: int) -> int:
        return (value * 1103515245 + 12345 + index) & 0x7FFFFFFF

    class Box:
        __slots__ = ("value",)

        def __init__(self):
            self.value = 0

    box = Box()
    state = 12345
    for index in range(iterations):
        state = step(state, index)
        key = state & 1023
        table[key] = table.get(key, 0) + 1
        ring[index & 63] ^= state
        box.value += ring[(index * 7) & 63] & 15
    return box.value + len(table)


class HostSpeed:
    """Tracks this host's speed by timing :func:`reference_kernel`.

    The CPU speed of a shared host drifts (measured on a shared 2-CPU host: the
    same golden recordings took 5.9 s to 9.2 s within 12 minutes, with CPU
    time equal to wall time), so end-to-end times are quoted normalised:
    host seconds times ``REFERENCE_NOMINAL_S / mean kernel seconds``, the
    kernel being sampled between the units of measured work (program
    campaigns, golden recordings, exploration chunks).  Kernel time is
    excluded from the measured work; raw times stay in the run document.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        start = time.perf_counter()
        reference_kernel()
        elapsed = time.perf_counter() - start
        self.samples.append(elapsed)
        return elapsed

    def mark(self) -> int:
        """Position to pass to :meth:`normalise` once the work is done."""
        return len(self.samples)

    def normalise(self, host_s: float, since: int) -> float:
        """``host_s`` in normalised seconds, by the samples taken since
        ``since`` (host_s must exclude their own time)."""
        window = self.samples[since:]
        return host_s * REFERENCE_NOMINAL_S / (sum(window) / len(window))


def peak_rss_mb() -> float:
    """Peak resident memory of this process (or of a child, if larger)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0


class Provenance:
    """Host load, CPU time and build provenance around one run.

    A run whose 1-minute load average exceeded the CPU count before or after
    it is flagged ``busy_host`` rather than failed: its host times are
    suspect, its simulated counts are not.
    """

    def __init__(self):
        self.load_before = os.getloadavg()
        self.wall_start = time.perf_counter()
        self.times_start = os.times()

    def finish(self, seed: int, workload: str, core=None, config=None) -> dict:
        from repro.obs import git_revision, manifest_dict

        times = os.times()
        load_after = os.getloadavg()
        nproc = os.cpu_count() or 1
        return {
            "workload": workload,
            "nproc": nproc,
            "load_before": list(self.load_before),
            "load_after": list(load_after),
            "busy_host": max(self.load_before[0], load_after[0]) > nproc,
            "wall_s": time.perf_counter() - self.wall_start,
            "cpu_s": (times.user + times.system
                      - self.times_start.user - self.times_start.system),
            "children_cpu_s": (times.children_user + times.children_system
                               - self.times_start.children_user
                               - self.times_start.children_system),
            "git": git_revision(str(ROOT)),
            "manifest": manifest_dict(seed=seed, core=core, config=config,
                                      benchmark=workload),
        }
