"""Flip-flop backed latch state.

:class:`LatchState` stores the value of every registered flip-flop structure
of a core and is the only place where bit flips are applied.  Cores read and
write fields through it every cycle, which guarantees that an injected flip
is observed by whatever logic consumes the latch next -- the property that
makes flip-flop-level injection meaningful.

Storage is one flat integer list, :attr:`LatchState.values`, indexed by the
frozen :class:`~repro.microarch.flipflop.FlipFlopRegistry` order.  The list
object lives as long as the state (clearing and deserializing write into
it), so a core resolves every latch *position* once when it is built --
:meth:`LatchState.position`, :meth:`LatchState.handles` -- and its step code
indexes ``values`` directly, masking each write with :attr:`LatchState.masks`.
The name-keyed API (``get``/``set``/``flip_bit``/``snapshot``/...) is a thin
view over the same list for tests and tools.  The flat layout is also what
makes :class:`BatchedLatchState` -- the same state for N cores at once, as
one ``(lanes, n_structures)`` matrix -- a natural extension, which the
batched lockstep replay engine (:mod:`repro.engine.batch`) builds on.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Iterable

from repro.microarch.flipflop import FlipFlopRegistry

try:  # numpy backs only the batched state; the scalar path never needs it.
    import numpy as _np
except ImportError:  # pragma: no cover - exercised on numpy-free installs
    _np = None


def to_signed(value: int, mask: int) -> int:
    """``value`` (at most ``mask``'s width) read as two's complement."""
    return value - ((value << 1) & (mask + 1))


class LatchState:
    """Mutable value store for every flip-flop structure of one core.

    Attributes:
        values: every structure's value in registry order.  Always the same
            list object, so positions resolved at build time stay valid
            across :meth:`clear`, :meth:`deserialize` and core restores.
        masks: per-position width masks; a write of ``value`` to position
            ``p`` stores ``value & masks[p]``.
    """

    def __init__(self, registry: FlipFlopRegistry):
        self._registry = registry
        structures = registry.structures
        self._index: dict[str, int] = {s.name: i for i, s in enumerate(structures)}
        self._widths: list[int] = [s.width for s in structures]
        self.masks: tuple[int, ...] = tuple((1 << s.width) - 1 for s in structures)
        self.values: list[int] = [0] * len(structures)

    @property
    def registry(self) -> FlipFlopRegistry:
        return self._registry

    # ------------------------------------------------------------------ positions
    def position(self, name: str) -> int:
        """Index of structure ``name`` in :attr:`values` (registry order)."""
        return self._index[name]

    def handles(self, names: Iterable[str]) -> tuple:
        """Positions of ``names`` as a named tuple, resolved once.

        Field names are the structure names with dots as underscores
        (``"w.s.icc"`` -> ``.w_s_icc``).
        """
        names = tuple(names)
        fields = namedtuple("LatchHandles", [n.replace(".", "_") for n in names])
        return fields._make(self._index[name] for name in names)

    # ------------------------------------------------------------------ access
    def get(self, name: str) -> int:
        """Current value of structure ``name`` (unsigned, ``width`` bits)."""
        return self.values[self._index[name]]

    def get_signed(self, name: str) -> int:
        """Current value of structure ``name`` interpreted as two's complement."""
        position = self._index[name]
        return to_signed(self.values[position], self.masks[position])

    def set(self, name: str, value: int) -> None:
        """Set structure ``name`` to ``value`` (masked to its width)."""
        position = self._index[name]
        self.values[position] = value & self.masks[position]

    def set_signed(self, name: str, value: int) -> None:
        """Set a structure from a signed Python int (two's complement wrap)."""
        self.set(name, value)

    def flip_bit(self, name: str, bit: int) -> None:
        """Flip a single bit of a structure (the soft-error primitive)."""
        position = self._index[name]
        if not 0 <= bit < self._widths[position]:
            raise IndexError(
                f"bit {bit} out of range for {name} (width {self._widths[position]})")
        self.values[position] ^= 1 << bit

    def flip_flat(self, flat_index: int) -> str:
        """Flip the flip-flop with global index ``flat_index``.

        Returns the name of the affected structure, for diagnostics.
        """
        site = self._registry.site(flat_index)
        self.flip_bit(site.structure.name, site.bit)
        return site.structure.name

    # ------------------------------------------------------------------ bulk
    def clear(self) -> None:
        """Reset every structure to zero (power-on state)."""
        self.values[:] = [0] * len(self.values)

    def snapshot(self) -> dict[str, int]:
        """Copy of all structure values (used by recovery checkpoints)."""
        return dict(zip(self._index, self.values))

    def restore(self, snapshot: dict[str, int]) -> None:
        """Restore values captured by :meth:`snapshot`.

        Raises:
            ValueError: if ``snapshot`` names a structure this registry does
                not contain.  A snapshot from a differently-built core would
                otherwise half-restore silently, leaving the core in a state
                neither run ever had.
        """
        index = self._index
        for name in snapshot:
            if name not in index:
                raise ValueError(
                    f"snapshot names unknown flip-flop structure {name!r} "
                    f"(registry {self._registry.core_name!r})")
        for name, value in snapshot.items():
            self.values[index[name]] = value

    # ------------------------------------------------------------------ serialization
    def serialize(self) -> tuple[int, ...]:
        """All structure values in registry order (compact, picklable).

        The registry is frozen when the core is built, so the ordering is
        stable for the lifetime of the core and across identically-built
        cores -- which lets checkpoints travel to worker processes without
        carrying structure names.
        """
        return tuple(self.values)

    def fingerprint_key(self) -> tuple[int, ...]:
        """Canonical hashable key over every latch value (registry order).

        This is the latch contribution to :meth:`BaseCore.state_fingerprint`:
        two cores with equal keys hold bit-identical flip-flop state, because
        the frozen registry fixes both the structure set and its order.
        """
        return tuple(self.values)

    def deserialize(self, values: "tuple[int, ...] | list[int]") -> None:
        """Restore values captured by :meth:`serialize` (in place).

        Raises:
            ValueError: if ``values`` does not match the registry layout.
        """
        if len(values) != len(self.values):
            raise ValueError(
                f"serialized latch state has {len(values)} values, registry "
                f"expects {len(self.values)}")
        self.values[:] = values


class BatchedLatchState:
    """Latch state for ``lanes`` identically-built cores as one matrix.

    Row ``lane`` holds one core's flat latch array (the exact values
    :meth:`LatchState.serialize` would produce for that core), so N replays
    of the same golden run can advance as numpy-vectorised wavefronts: a
    column slice is "this structure across every replay", an XOR into one
    element is a soft-error injection, and a row compare against a reference
    lane is a whole-state convergence check.

    Values are stored as ``uint64``, which covers every structure the cores
    register (widths are bounded by 64); construction rejects wider ones.
    """

    def __init__(self, registry: FlipFlopRegistry, lanes: int):
        if _np is None:  # pragma: no cover - exercised on numpy-free installs
            raise RuntimeError("BatchedLatchState requires numpy")
        if lanes < 1:
            raise ValueError(f"lanes must be >= 1, got {lanes}")
        structures = registry.structures
        too_wide = [s.name for s in structures if s.width > 64]
        if too_wide:
            raise ValueError(f"structures wider than 64 bits cannot be "
                             f"batched: {too_wide}")
        self._registry = registry
        self.lanes = lanes
        self._index = {s.name: i for i, s in enumerate(structures)}
        self._widths = [s.width for s in structures]
        self._masks = _np.array([(1 << s.width) - 1 for s in structures],
                                dtype=_np.uint64)
        self.array = _np.zeros((lanes, len(structures)), dtype=_np.uint64)

    @classmethod
    def from_serialized(cls, registry: FlipFlopRegistry,
                        values: "tuple[int, ...] | list[int]",
                        lanes: int) -> "BatchedLatchState":
        """Broadcast one core's serialized latch values to every lane."""
        state = cls(registry, lanes)
        if len(values) != state.array.shape[1]:
            raise ValueError(
                f"serialized latch state has {len(values)} values, registry "
                f"expects {state.array.shape[1]}")
        state.array[:] = _np.array(values, dtype=_np.uint64)
        return state

    @property
    def registry(self) -> FlipFlopRegistry:
        return self._registry

    def position(self, name: str) -> int:
        """Column index of structure ``name`` (registry order)."""
        return self._index[name]

    # ------------------------------------------------------------------ access
    def col(self, name: str):
        """Writable ``(lanes,)`` view of one structure across every lane."""
        return self.array[:, self._index[name]]

    def set_col(self, name: str, values) -> None:
        """Set a structure on every lane (masked to the structure width)."""
        position = self._index[name]
        self.array[:, position] = _np.asarray(values).astype(
            _np.uint64, copy=False) & self._masks[position]

    def get(self, lane: int, name: str) -> int:
        return int(self.array[lane, self._index[name]])

    def set(self, lane: int, name: str, value: int) -> None:
        position = self._index[name]
        self.array[lane, position] = _np.uint64(value) & self._masks[position]

    def flip_flat(self, lane: int, flat_index: int) -> str:
        """Flip one flip-flop of one lane; returns the structure name."""
        site = self._registry.site(flat_index)
        position = self._index[site.structure.name]
        self.array[lane, position] ^= _np.uint64(1 << site.bit)
        return site.structure.name

    # ------------------------------------------------------------------ bulk
    def lane_serialized(self, lane: int) -> tuple[int, ...]:
        """One lane's values in registry order (``LatchState.serialize`` form)."""
        return tuple(int(value) for value in self.array[lane])

    def rows_equal(self, reference_lane: int = 0, columns=None):
        """Per-lane equality with ``reference_lane`` (over ``columns``, or all).

        Returns a ``(lanes,)`` boolean array; the reference lane compares
        True to itself.
        """
        view = self.array if columns is None else self.array[:, columns]
        return (view == view[reference_lane]).all(axis=1)
