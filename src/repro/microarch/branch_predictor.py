"""A small bimodal branch predictor.

The predictor exists for micro-architectural fidelity: it contributes
flip-flops whose corruption never changes program correctness (only which
path is speculatively fetched), reproducing the paper's observation that a
substantial fraction of flip-flops -- branch predictor state among them --
only produce errors that vanish (Appendix A).
"""

from __future__ import annotations

from repro.microarch.state import LatchState


class BimodalPredictor:
    """2-bit saturating-counter bimodal predictor backed by latch state.

    The counter table and the global history register are registered as
    flip-flop structures by the owning core, which hands over their
    positions in :attr:`LatchState.values`; this class only reads and writes
    them there, so injected flips are honoured.
    """

    def __init__(self, latches: LatchState, table: int, history: int,
                 entries: int):
        self._values = latches.values
        self._table = table
        self._table_mask = latches.masks[table]
        self._history = history
        self._history_mask = latches.masks[history]
        self._entries = entries

    def _index(self, pc: int) -> int:
        return ((pc >> 2) ^ self._values[self._history]) % self._entries

    def predict_taken(self, pc: int) -> bool:
        """Predict whether the branch at ``pc`` is taken."""
        table = self._values[self._table]
        return ((table >> (2 * self._index(pc))) & 0x3) >= 2

    def update(self, pc: int, taken: bool) -> None:
        """Train the predictor with the resolved outcome of the branch at ``pc``."""
        values = self._values
        shift = 2 * self._index(pc)
        table = values[self._table]
        counter = (table >> shift) & 0x3
        if taken:
            counter = min(3, counter + 1)
        else:
            counter = max(0, counter - 1)
        table = (table & ~(0x3 << shift)) | (counter << shift)
        values[self._table] = table & self._table_mask
        history = values[self._history]
        values[self._history] = (((history << 1) | (1 if taken else 0))
                                 & self._history_mask)
