"""Error-outcome classification.

The paper classifies each injected run (relative to the error-free golden
run) into: Vanished, Output Mismatch (OMM), Unexpected Termination (UT),
Hang, or Error Detection (ED).  OMM-causing errors are SDC; UT-, Hang- and
ED-causing errors are DUE (Sec. 2.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, unique

from repro.microarch.events import RunResult, TerminationReason, TrapKind


@unique
class OutcomeCategory(Enum):
    """Outcome of a single error injection (paper Sec. 2.1)."""

    VANISHED = "vanished"
    OMM = "output_mismatch"
    UT = "unexpected_termination"
    HANG = "hang"
    ED = "error_detected"

    @property
    def is_sdc(self) -> bool:
        """True when the outcome is a silent data corruption."""
        return self is OutcomeCategory.OMM

    @property
    def is_due(self) -> bool:
        """True when the outcome is a detected-but-uncorrected error."""
        return self in (OutcomeCategory.UT, OutcomeCategory.HANG, OutcomeCategory.ED)


def classify_outcome(golden: RunResult, injected: RunResult) -> OutcomeCategory:
    """Classify an injected run against the golden (error-free) run.

    Classification rules, in priority order:

    1. an unrecovered detection from any resilience technique -> ED;
    2. a software-assertion trap (ABFT / assertion checks) -> ED;
    3. any other trap -> UT;
    4. exceeding the watchdog (2x nominal execution time) -> Hang;
    5. normal termination with differing output -> OMM;
    6. normal termination with matching output -> Vanished.
    """
    if injected.unrecovered_detections():
        return OutcomeCategory.ED
    if injected.reason is TerminationReason.DETECTED:
        return OutcomeCategory.ED
    if injected.reason is TerminationReason.TRAP:
        if injected.trap is TrapKind.SOFTWARE_ASSERTION:
            return OutcomeCategory.ED
        return OutcomeCategory.UT
    if injected.reason is TerminationReason.HANG:
        return OutcomeCategory.HANG
    if injected.output != golden.output:
        return OutcomeCategory.OMM
    return OutcomeCategory.VANISHED


@dataclass
class OutcomeCounts:
    """Aggregated outcome counts for a set of injections."""

    counts: dict[OutcomeCategory, int] = field(
        default_factory=lambda: {category: 0 for category in OutcomeCategory})

    def record(self, outcome: OutcomeCategory, count: int = 1) -> None:
        self.counts[outcome] = self.counts.get(outcome, 0) + count

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    @property
    def sdc_count(self) -> int:
        """Number of SDC-causing injections (OMM outcomes)."""
        return self.counts.get(OutcomeCategory.OMM, 0)

    @property
    def due_count(self) -> int:
        """Number of DUE-causing injections (UT + Hang + ED outcomes)."""
        return (self.counts.get(OutcomeCategory.UT, 0)
                + self.counts.get(OutcomeCategory.HANG, 0)
                + self.counts.get(OutcomeCategory.ED, 0))

    @property
    def vanished_count(self) -> int:
        return self.counts.get(OutcomeCategory.VANISHED, 0)

    def rate(self, category: OutcomeCategory) -> float:
        """Fraction of injections with the given outcome."""
        if self.total == 0:
            return 0.0
        return self.counts.get(category, 0) / self.total

    def merged_with(self, other: "OutcomeCounts") -> "OutcomeCounts":
        merged = OutcomeCounts()
        for category in OutcomeCategory:
            merged.counts[category] = (self.counts.get(category, 0)
                                       + other.counts.get(category, 0))
        return merged

    def as_dict(self) -> dict[str, int]:
        return {category.value: self.counts.get(category, 0)
                for category in OutcomeCategory}


def margin_of_error(sample_size: int, proportion: float = 0.5,
                    z_score: float = 1.96) -> float:
    """Margin of error of an outcome-rate estimate at 95% confidence.

    The paper reports <0.1% margin of error with 95% confidence for its
    multi-million-injection campaigns; our campaign runner reports the
    achieved margin so the precision/time trade-off is explicit.

    The margin is the larger half-width of the Wilson score interval around
    ``proportion`` (the distance to its farther bound).  Unlike the Wald
    interval it stays positive at rates of exactly 0 or 1, so a campaign
    that saw no SDC still reports how rare SDCs could be (~0.037 at 100
    injections) rather than claiming perfect precision.
    """
    if sample_size <= 0:
        return 1.0
    proportion = min(max(proportion, 0.0), 1.0)
    z2_over_n = z_score * z_score / sample_size
    center = (proportion + z2_over_n / 2) / (1 + z2_over_n)
    half_width = z_score / (1 + z2_over_n) * (
        proportion * (1.0 - proportion) / sample_size
        + z2_over_n / (4 * sample_size)) ** 0.5
    return max(center + half_width - proportion,
               proportion - (center - half_width))
