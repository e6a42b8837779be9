"""Latch handles: the cores' step code indexes ``LatchState.values`` directly.

Both cores resolve every latch position once, at construction, and read and
write the flat latch list through those positions.  These tests pin what
that must not change -- whole golden runs, bit for bit -- and the two
properties it relies on: the latch list is one object for the life of the
state, and corrupted pointer latches still simulate to a classified outcome.
"""

from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings, strategies as st

from repro.faultinjection.outcomes import OutcomeCategory, classify_outcome
from repro.microarch import InOrderCore, OutOfOrderCore
from repro.workloads import workload_by_name

FINGERPRINT_STRIDE = 97

# (cycles, retired, output digest, final state_fingerprint, digest of the
# state_fingerprint taken every FINGERPRINT_STRIDE cycles), recorded with
# the name-keyed latch access these cores used before latch handles.
GOLDEN_PINS = {
    ("InO", "mcf"): (
        7416, 2458, "d858a357eaee968b", "225c36f6413dc8490b4179c315d2b2f3",
        "e14bd35273d1635d1f9d6f5f1e552d1e"),
    ("InO", "inner_product"): (
        3911, 1241, "042306b4dde542c1", "ea756439a0b75a8f981a432a0976efec",
        "e5931b906effdc43cff91afb3563520a"),
    ("OoO", "mcf"): (
        2509, 2458, "d858a357eaee968b", "f5809657450441bbea16131cc5acc902",
        "3e82f63cf1d043a2f89f9ea0bf7f708a"),
    ("OoO", "inner_product"): (
        994, 1241, "042306b4dde542c1", "d5ae1a721dfc2116734a0403f0d1c41c",
        "883e94c53dd80b240a5e2563d90daa91"),
}
CORES = {"InO": InOrderCore, "OoO": OutOfOrderCore}


@pytest.mark.parametrize("core_name,workload", sorted(GOLDEN_PINS),
                         ids=lambda value: value)
def test_golden_run_is_pinned(core_name, workload):
    core = CORES[core_name]()
    digest = hashlib.blake2b(digest_size=16)

    def hook(core, cycle):
        if cycle % FINGERPRINT_STRIDE == 0:
            digest.update(core.state_fingerprint())

    result = core.run(workload_by_name(workload).program(), cycle_hook=hook)
    output = hashlib.blake2b(repr(result.output).encode(),
                             digest_size=8).hexdigest()
    assert (result.cycles, result.instructions_retired, output,
            core.state_fingerprint().hex(), digest.hexdigest()) \
        == GOLDEN_PINS[core_name, workload]


# Bits that can push a pointer past its structure: rob.head/tail and ROB
# tags are 6-bit for 40 entries, fb.head/tail 3-bit for 6.
HIGH_BITS = ([("rob.head", bit) for bit in (3, 4, 5)]
             + [("rob.tail", bit) for bit in (3, 4, 5)]
             + [("fb.head", bit) for bit in (1, 2)]
             + [("fb.tail", bit) for bit in (1, 2)]
             + [("iq.e00.s1tag", bit) for bit in (3, 4, 5)])


@pytest.fixture(scope="module")
def ooo_vpr():
    core = OutOfOrderCore()
    program = workload_by_name("vpr").program()
    return core, program, core.run(program)


@settings(max_examples=40, deadline=None)
@given(site=st.sampled_from(HIGH_BITS), fraction=st.floats(0.0, 0.99))
def test_ooo_pointer_flip_is_classified(ooo_vpr, site, fraction):
    core, program, golden = ooo_vpr
    name, bit = site
    cycle = int(fraction * golden.cycles)

    def hook(core, now):
        if now == cycle:
            core.latches.flip_bit(name, bit)

    injected = core.run(program, max_cycles=2 * golden.cycles, cycle_hook=hook)
    assert isinstance(classify_outcome(golden, injected), OutcomeCategory)


@pytest.mark.parametrize("core_class", [InOrderCore, OutOfOrderCore])
def test_latch_list_is_one_object(core_class):
    core = core_class()
    latches = core.latches
    values = latches.values
    program = workload_by_name("vpr").program()
    core.run(program, max_cycles=50)
    snapshot = core.snapshot()
    latches.clear()
    latches.deserialize(snapshot.latches)
    core.reset(program)
    core.restore(program, snapshot)
    assert latches.values is values
    position = latches.position("irq.mask")
    values[position] = latches.masks[position]
    assert latches.serialize()[position] == latches.masks[position]
    assert latches.serialize() != snapshot.latches
