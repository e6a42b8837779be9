"""Out-of-order core model (the paper's "OoO-core", an Alpha IVM-class design).

A two-wide superscalar, out-of-order machine:

``fetch -> decode/rename -> dispatch (ROB + issue queue) -> issue -> execute
-> writeback -> commit``

with a reorder buffer, a store queue that drains at commit, branch
checkpointing for mispredict recovery, and per-entry flip-flop structures for
every queue.  The design reproduces the properties the paper's OoO results
rest on:

* roughly an order of magnitude more flip-flops than the in-order core
  (about 13.8k, Table 1), dominated by the ROB, issue queue and load/store
  machinery;
* a substantially larger fraction of flip-flops whose errors always vanish
  (branch predictor, L1 d-cache interface registers, load-queue bookkeeping,
  performance counters -- the Appendix-A structures);
* an IPC above 1 on compute-dense workloads (the paper reports 1.3);
* a reorder-buffer boundary past which detected errors can no longer be
  recovered by RoB recovery (architecturally committed state).

The memory arrays (caches, physical register file contents) are RAM and are
not injection targets, as in the paper.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass, replace

from repro.isa.encoding import EncodingError, decode_instruction, encode_instruction
from repro.isa.instructions import Opcode, OPCODE_BY_VALUE, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation
from repro.microarch.memory import MemoryFault, MemorySystem
from repro.microarch.state import LatchState, to_signed

OOO_CLOCK_MHZ = 600.0
"""Nominal clock of the OoO-core (600 MHz, Table 1)."""

ROB_ENTRIES = 40
IQ_ENTRIES = 16
STQ_ENTRIES = 8
LDQ_ENTRIES = 8
FETCH_BUFFER_ENTRIES = 6
CHECKPOINTS = 4
FETCH_WIDTH = 2
RENAME_WIDTH = 2
ISSUE_WIDTH = 2
COMMIT_WIDTH = 2

_TRAP_CODES = {
    TrapKind.ILLEGAL_INSTRUCTION: 1,
    TrapKind.MEMORY_FAULT: 2,
    TrapKind.FETCH_FAULT: 3,
    TrapKind.DIVIDE_BY_ZERO: 4,
    TrapKind.SOFTWARE_ASSERTION: 5,
}
_TRAP_FROM_CODE = {code: kind for kind, code in _TRAP_CODES.items()}

# Per-entry flip-flop fields (name -> width) in registration order, and the
# named tuples of their latch positions the step code indexes with.
_FB_FIELDS = {"valid": 1, "inst": 32, "pc": 32, "fault": 1}
_ROB_FIELDS = {"valid": 1, "op": 7, "rd": 5, "result": 32, "ready": 1,
               "exception": 1, "expkind": 3, "is_store": 1, "is_out": 1,
               "is_branch": 1, "ckpt": 3, "pc": 32}
_IQ_FIELDS = {"valid": 1, "op": 7, "rob": 6, "imm": 15, "pc": 32,
              "s1ready": 1, "s1tag": 6, "s1val": 32, "s2ready": 1,
              "s2tag": 6, "s2val": 32, "issued": 1}
_STQ_FIELDS = {"valid": 1, "rob": 6, "addr": 32, "addrvalid": 1, "data": 32,
               "byte": 1}
_FbEntry = namedtuple("_FbEntry", _FB_FIELDS)
_RobEntry = namedtuple("_RobEntry", _ROB_FIELDS)
_IqEntry = namedtuple("_IqEntry", _IQ_FIELDS)
_StqEntry = namedtuple("_StqEntry", _STQ_FIELDS)
_RatEntry = namedtuple("_RatEntry", ("busy", "rob"))
_CkptEntry = namedtuple("_CkptEntry", ("map", "valid"))


def _entry_handles(latches: LatchState, fields, name: str, count: int) -> tuple:
    """Latch positions of ``fields`` for entries ``0..count-1``, where
    ``name.format(entry, field)`` is the structure name."""
    return tuple(fields._make(latches.position(name.format(i, field))
                              for field in fields._fields)
                 for i in range(count))


@dataclass
class _InFlightOp:
    """Execution-unit bookkeeping for an issued, not-yet-written-back op."""

    rob_index: int
    opcode: Opcode
    rs1_value: int
    rs2_value: int
    imm: int
    pc: int
    remaining_cycles: int
    is_load: bool = False
    load_address: int | None = None


class OutOfOrderCore(BaseCore):
    """Cycle-level model of the complex out-of-order core."""

    def __init__(self, name: str = "OoO-core"):
        super().__init__(name=name, clock_mhz=OOO_CLOCK_MHZ,
                         core_class=CoreClass.OUT_OF_ORDER)
        self._declare_state()
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        self._in_flight: list[_InFlightOp] = []
        self._fetch_stalled = False
        # Latch positions, resolved once; the step code indexes
        # ``self.latches.values`` with them.
        latches = self.latches
        self._fb = _entry_handles(latches, _FbEntry, "fb.e{}.{}",
                                  FETCH_BUFFER_ENTRIES)
        self._rat = _entry_handles(latches, _RatEntry, "rat.r{:02d}.{}",
                                   NUM_REGISTERS)
        self._ckpt = _entry_handles(latches, _CkptEntry, "ckpt.c{}.{}",
                                    CHECKPOINTS)
        self._rob = _entry_handles(latches, _RobEntry, "rob.e{:02d}.{}",
                                   ROB_ENTRIES)
        self._iq = _entry_handles(latches, _IqEntry, "iq.e{:02d}.{}", IQ_ENTRIES)
        self._stq = _entry_handles(latches, _StqEntry, "stq.e{}.{}", STQ_ENTRIES)
        self._at = latches.handles((
            "fetch.pc", "fetch.valid", "fetch.stall", "fb.head", "fb.tail",
            "fb.count", "bp.gshare.table", "bp.gshare.history", "rob.head",
            "rob.tail", "rob.count", "stq.head", "stq.tail", "stq.count",
            "ldq.numentries", "mem.l1dcache.addr1.out",
            "mem.l1dcache.accessaddr0", "mem.l1dcache.accessfulldata0",
            "perf.counter0", "perf.counter1"))

    # ------------------------------------------------------------------ state declaration
    def _declare_state(self) -> None:
        reg = self.registry.register

        # Front end.
        reg("fetch.pc", 32, "fetch")
        reg("fetch.valid", 1, "fetch")
        reg("fetch.stall", 1, "fetch")
        for i in range(FETCH_BUFFER_ENTRIES):
            for field, width in _FB_FIELDS.items():
                reg(f"fb.e{i}.{field}", width, "fetch")
        reg("fb.head", 3, "fetch")
        reg("fb.tail", 3, "fetch")
        reg("fb.count", 4, "fetch")

        # Branch predictor (hint-only: the front end fetches not-taken paths
        # and recovers at execute, so predictor corruption never changes
        # architectural results).
        reg("bp.gshare.table", 2048, "branchpred", architectural=False)
        reg("bp.gshare.history", 12, "branchpred", architectural=False)
        reg("bp.ras", 128, "branchpred", architectural=False)
        reg("bp.btb.tags", 512, "branchpred", architectural=False)

        # Rename map (architectural register -> ROB entry).
        for i in range(NUM_REGISTERS):
            reg(f"rat.r{i:02d}.busy", 1, "rename")
            reg(f"rat.r{i:02d}.rob", 6, "rename")
        for i in range(CHECKPOINTS):
            reg(f"ckpt.c{i}.map", 7 * NUM_REGISTERS, "rename")
            reg(f"ckpt.c{i}.valid", 1, "rename")

        # Reorder buffer.
        for i in range(ROB_ENTRIES):
            for field, width in _ROB_FIELDS.items():
                reg(f"rob.e{i:02d}.{field}", width, "rob")
        reg("rob.head", 6, "rob")
        reg("rob.tail", 6, "rob")
        reg("rob.count", 7, "rob")

        # Issue queue (reservation stations).
        for i in range(IQ_ENTRIES):
            for field, width in _IQ_FIELDS.items():
                reg(f"iq.e{i:02d}.{field}", width, "issue")

        # Store queue (drains at commit).
        for i in range(STQ_ENTRIES):
            for field, width in _STQ_FIELDS.items():
                reg(f"stq.e{i}.{field}", width, "lsu")
        reg("stq.head", 3, "lsu")
        reg("stq.tail", 3, "lsu")
        reg("stq.count", 4, "lsu")

        # Load queue: ordering bookkeeping only (the conservative scheduler
        # never violates memory ordering, so, as in the paper's Appendix A,
        # errors here vanish).
        for i in range(LDQ_ENTRIES):
            prefix = f"ldq.e{i}"
            reg(f"{prefix}.valid", 1, "lsu", architectural=False)
            reg(f"{prefix}.addr", 32, "lsu", architectural=False)
            reg(f"{prefix}.rob", 6, "lsu", architectural=False)
        reg("ldq.numentries", 4, "lsu", architectural=False)

        # Execution-unit bookkeeping registers (multiplier accumulators,
        # carry chains, ... -- Appendix-A style vanish structures).
        for unit, width in (("exec.mu0.a01", 32), ("exec.mu0.a12", 32),
                            ("exec.mu0.a23", 32), ("exec.mu0.a34", 32),
                            ("exec.mu0.b01", 32), ("exec.mu0.b12", 32),
                            ("exec.mu0.b23", 32), ("exec.mu0.b34", 32),
                            ("exec.ca0.p0", 32), ("exec.ca0.p1", 32),
                            ("exec.ca0.p2", 32), ("exec.ca0.br", 8),
                            ("exec.cb0.buffer.valid", 8), ("exec.cb0.queue.head", 4),
                            ("exec.cb0.queue.tail", 4)):
            reg(unit, width, "execute", architectural=False)

        # L1 data-cache interface registers (the cache arrays are SRAM; these
        # staging registers are flip-flops whose errors vanish because the
        # conservative LSU re-reads memory authoritatively).
        for i in range(8):
            reg(f"mem.l1dcache.addr.in{i}", 32, "dcache", architectural=False)
            reg(f"mem.l1dcache.data.in{i}", 32, "dcache", architectural=False)
            reg(f"mem.l1dcache.write.in{i}", 32, "dcache", architectural=False)
        for name, width in (("mem.l1dcache.accessaddr0", 32),
                            ("mem.l1dcache.accessaddr1", 32),
                            ("mem.l1dcache.accessfulldata0", 32),
                            ("mem.l1dcache.accessfulldata1", 32),
                            ("mem.l1dcache.accesshit0", 1),
                            ("mem.l1dcache.addr1.out", 32),
                            ("mem.l1dcache.addr2.out", 32),
                            ("mem.l1dcache.data2.out", 32),
                            ("mem.l1dcache.missqueue.returnedaddr1", 32),
                            ("mem.l1dcache.missqueue.returnedaddr2", 32),
                            ("mem.l1dcache.missqueue.done", 8),
                            ("mem.l1dcache.missqueue.type", 8),
                            ("mem.l1dcache.mobid2.out", 8),
                            ("mem.l1dcache.size1.out", 4),
                            ("mem.l1dcache.size2.out", 4),
                            ("mem.stb.forward.data1", 32),
                            ("mem.stb.forward.data2", 32),
                            ("mem.stb.forward.stid1", 8),
                            ("mem.stb.forward.stid2", 8),
                            ("mem.returned.hintvalid1", 1),
                            ("mem.finished.st2", 8)):
            reg(name, width, "dcache", architectural=False)

        # L2 interface / miss-status-holding registers (vanish: the simple
        # memory model services every access synchronously, so these staging
        # registers never feed architectural results).
        for i in range(4):
            reg(f"mem.mshr{i}.addr", 32, "dcache", architectural=False)
            reg(f"mem.mshr{i}.data", 64, "dcache", architectural=False)
            reg(f"mem.mshr{i}.state", 4, "dcache", architectural=False)
        for i in range(4):
            reg(f"mem.l2q.e{i}.addr", 32, "dcache", architectural=False)
            reg(f"mem.l2q.e{i}.data", 64, "dcache", architectural=False)
            reg(f"mem.l2q.e{i}.valid", 1, "dcache", architectural=False)

        # Performance counters and debug support (vanish).
        for i in range(6):
            reg(f"perf.counter{i}", 48, "debug", architectural=False)
        reg("debug.breakpoint.addr", 32, "debug", architectural=False)
        reg("debug.ctrl", 16, "debug", architectural=False)
        reg("irq.pending", 16, "peripherals", architectural=False)
        reg("irq.mask", 16, "peripherals", architectural=False)

    # ------------------------------------------------------------------ small helpers
    # Pointer latches are wider than their structures need (rob.head/tail are
    # 6-bit for 40 entries, fb.head/tail 3-bit for 6, ROB tags 6-bit), so an
    # injected flip can leave a pointer past the last entry.  Real hardware
    # would address whatever the extra bits select; the model wraps every
    # index derived from one (``% ROB_ENTRIES``, ``% FETCH_BUFFER_ENTRIES``)
    # so corrupted pointers keep simulating (and get classified by outcome)
    # instead of indexing past the entry tables.  A ROB entry's age is its
    # distance from the head, ``(index - rob.head) % ROB_ENTRIES`` (0 = oldest).
    def _read_register(self, index: int) -> int:
        return self.registers[index & 0x1F]

    def _write_register(self, index: int, value: int) -> None:
        index &= 0x1F
        if index != 0:
            self.registers[index] = value & 0xFFFFFFFF

    # ------------------------------------------------------------------ reset
    def _reset_microarchitecture(self, program: Program) -> None:
        self.memory.reset(program)
        self.registers = [0] * NUM_REGISTERS
        from repro.isa.program import DEFAULT_STACK_TOP

        self.registers[2] = DEFAULT_STACK_TOP - WORD_BYTES
        self._in_flight = []
        self._fetch_stalled = False
        v, m, at = self.latches.values, self.latches.masks, self._at
        v[at.fetch_pc] = program.entry_point & m[at.fetch_pc]
        v[at.fetch_valid] = 1

    # ------------------------------------------------------------------ checkpointing
    def _snapshot_microarchitecture(self) -> dict:
        # _InFlightOp.remaining_cycles is decremented in place every cycle,
        # so the ops must be copied in both directions.
        return {
            "registers": list(self.registers),
            "memory": self.memory.snapshot_words(),
            "in_flight": [replace(op) for op in self._in_flight],
            "fetch_stalled": self._fetch_stalled,
        }

    def _restore_microarchitecture(self, micro: dict) -> None:
        self.registers = list(micro["registers"])
        self.memory.restore_words(micro["memory"])
        self._in_flight = [replace(op) for op in micro["in_flight"]]
        self._fetch_stalled = micro["fetch_stalled"]

    def _fingerprint_microarchitecture(self) -> tuple:
        return (tuple(self.registers), self.memory.fingerprint_key(),
                tuple((op.rob_index, int(op.opcode), op.rs1_value,
                       op.rs2_value, op.imm, op.pc, op.remaining_cycles,
                       op.is_load, op.load_address)
                      for op in self._in_flight),
                self._fetch_stalled)

    # ------------------------------------------------------------------ cycle
    def _step_cycle(self) -> None:
        self._commit()
        if self.terminated:
            return
        self._writeback()
        self._issue()
        self._rename_dispatch()
        self._fetch()
        self._touch_background_state()

    # ------------------------------------------------------------------ commit
    def _commit(self) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        for _ in range(COMMIT_WIDTH):
            if v[at.rob_count] == 0:
                return
            head = v[at.rob_head]
            entry = self._rob[head % ROB_ENTRIES]
            if not v[entry.valid]:
                # Head bookkeeping corrupted; treat as a pipeline hang source.
                return
            if not v[entry.ready]:
                return
            if v[entry.exception]:
                kind = _TRAP_FROM_CODE.get(v[entry.expkind],
                                           TrapKind.ILLEGAL_INSTRUCTION)
                reason = (TerminationReason.DETECTED
                          if kind is TrapKind.SOFTWARE_ASSERTION
                          else TerminationReason.TRAP)
                self.force_termination(reason, kind)
                return
            opcode = OPCODE_BY_VALUE.get(v[entry.op])
            info = OPCODE_INFO.get(opcode)
            if v[entry.is_store]:
                if not self._commit_store():
                    return
            if v[entry.is_out]:
                self.emit_output(v[entry.result])
            if info is not None and info.writes_rd:
                rd = v[entry.rd]
                self._write_register(rd, v[entry.result])
                rat = self._rat[rd]
                if v[rat.busy] and v[rat.rob] == head:
                    v[rat.busy] = 0
                # Keep live checkpoints consistent: once this producer has
                # committed, a later recovery must map its destination to the
                # architectural register file, not to the freed ROB entry.
                self._patch_checkpoints_for_commit(rd, head)
            if v[entry.is_branch]:
                ckpt = v[entry.ckpt]
                if ckpt < CHECKPOINTS:
                    v[self._ckpt[ckpt].valid] = 0
            self.note_retired()
            v[entry.valid] = 0
            v[at.rob_head] = ((head + 1) % ROB_ENTRIES) & m[at.rob_head]
            v[at.rob_count] = (v[at.rob_count] - 1) & m[at.rob_count]
            if opcode is Opcode.HALT:
                self.force_termination(TerminationReason.HALTED)
                return

    def _patch_checkpoints_for_commit(self, rd: int, rob_index: int) -> None:
        """Clear ``rd -> rob_index`` mappings inside every live checkpoint."""
        v, m = self.latches.values, self.latches.masks
        shift = 7 * rd
        for ckpt in self._ckpt:
            if not v[ckpt.valid]:
                continue
            packed = v[ckpt.map]
            entry = (packed >> shift) & 0x7F
            if (entry & 1) and ((entry >> 1) & 0x3F) == rob_index:
                v[ckpt.map] = packed & ~(0x7F << shift) & m[ckpt.map]

    def _commit_store(self) -> bool:
        """Drain the store-queue head for the committing store.

        Returns False (and terminates the run) on a memory fault.
        """
        v, m, at = self.latches.values, self.latches.masks, self._at
        head = v[at.stq_head]
        entry = self._stq[head]
        if v[at.stq_count] == 0 or not v[entry.valid]:
            # Store queue out of sync with the ROB (only possible under
            # injection): raise a machine trap.
            self.force_termination(TerminationReason.TRAP, TrapKind.MEMORY_FAULT)
            return False
        address = v[entry.addr]
        data = v[entry.data]
        try:
            if v[entry.byte]:
                self.memory.store_byte(address, data)
            else:
                self.memory.store_word(address, data)
        except MemoryFault:
            self.force_termination(TerminationReason.TRAP, TrapKind.MEMORY_FAULT)
            return False
        v[entry.valid] = 0
        v[at.stq_head] = ((head + 1) % STQ_ENTRIES) & m[at.stq_head]
        v[at.stq_count] = (v[at.stq_count] - 1) & m[at.stq_count]
        v[at.mem_l1dcache_addr1_out] = address & m[at.mem_l1dcache_addr1_out]
        return True

    # ------------------------------------------------------------------ writeback
    def _writeback(self) -> None:
        still_in_flight: list[_InFlightOp] = []
        for op in self._in_flight:
            op.remaining_cycles -= 1
            if op.remaining_cycles > 0:
                still_in_flight.append(op)
                continue
            if op.is_load:
                completed = self._complete_load(op)
                if not completed:
                    op.remaining_cycles = 1
                    still_in_flight.append(op)
                continue
            self._complete_op(op)
        self._in_flight = still_in_flight

    def _complete_op(self, op: _InFlightOp) -> None:
        v, m = self.latches.values, self.latches.masks
        rob_index = op.rob_index
        entry = self._rob[rob_index % ROB_ENTRIES]
        if not v[entry.valid]:
            return  # squashed while executing
        try:
            result = execute_operation(op.opcode, op.rs1_value, op.rs2_value,
                                       op.imm, op.pc)
        except ExecuteTrap as trap:
            v[entry.exception] = 1
            v[entry.expkind] = _TRAP_CODES[trap.kind] & m[entry.expkind]
            v[entry.ready] = 1
            return
        info = OPCODE_INFO.get(op.opcode)
        if op.opcode in (Opcode.SW, Opcode.SB):
            self._fill_store_queue(rob_index, result.memory_address, result.store_value,
                                   is_byte=op.opcode is Opcode.SB)
        if op.opcode is Opcode.OUT:
            v[entry.result] = (result.output_value or 0) & m[entry.result]
        elif info is not None and info.writes_rd:
            v[entry.result] = result.value & m[entry.result]
            self._broadcast(rob_index, result.value)
        v[entry.ready] = 1
        if v[entry.is_branch] or op.opcode in (Opcode.JAL, Opcode.JALR):
            self._resolve_branch(op, result.branch_taken, result.branch_target)

    def _fill_store_queue(self, rob_index: int, address: int | None, data: int | None,
                          is_byte: bool) -> None:
        v, m = self.latches.values, self.latches.masks
        for entry in self._stq:
            if v[entry.valid] and v[entry.rob] == rob_index:
                v[entry.addr] = (address or 0) & m[entry.addr]
                v[entry.addrvalid] = 1
                v[entry.data] = (data or 0) & m[entry.data]
                v[entry.byte] = 1 if is_byte else 0
                return

    def _broadcast(self, rob_index: int, value: int) -> None:
        """Wake issue-queue consumers waiting on a ROB tag."""
        v, m = self.latches.values, self.latches.masks
        for entry in self._iq:
            if not v[entry.valid]:
                continue
            if not v[entry.s1ready] and v[entry.s1tag] == rob_index:
                v[entry.s1val] = value & m[entry.s1val]
                v[entry.s1ready] = 1
            if not v[entry.s2ready] and v[entry.s2tag] == rob_index:
                v[entry.s2val] = value & m[entry.s2val]
                v[entry.s2ready] = 1

    # ------------------------------------------------------------------ branch recovery
    def _resolve_branch(self, op: _InFlightOp, taken: bool, target: int) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        rob_index = op.rob_index
        predicted_next = (op.pc + WORD_BYTES) & 0xFFFFFFFF
        actual_next = target if taken else predicted_next
        self._train_predictor(op.pc, taken)
        if actual_next == predicted_next:
            return  # fall-through prediction was correct
        # Mispredict: squash everything younger than the branch.
        branch_age = (rob_index - v[at.rob_head]) % ROB_ENTRIES
        entry = self._rob[rob_index % ROB_ENTRIES]
        ckpt = v[entry.ckpt]
        if ckpt < CHECKPOINTS and v[self._ckpt[ckpt].valid]:
            self._restore_checkpoint(ckpt)
        # The checkpoint slot is consumed here; clear the ROB's reference so
        # the slot is not freed a second time at commit after another branch
        # has re-allocated it.
        v[entry.ckpt] = CHECKPOINTS & m[entry.ckpt]
        self._squash_younger_than(branch_age)
        v[at.rob_tail] = ((rob_index + 1) % ROB_ENTRIES) & m[at.rob_tail]
        v[at.rob_count] = (branch_age + 1) & m[at.rob_count]
        v[at.fetch_pc] = actual_next & m[at.fetch_pc]
        v[at.fetch_stall] = 0
        self._fetch_stalled = False
        self._clear_fetch_buffer()

    def _restore_checkpoint(self, ckpt: int) -> None:
        v, m = self.latches.values, self.latches.masks
        checkpoint = self._ckpt[ckpt]
        packed = v[checkpoint.map]
        for r, rat in enumerate(self._rat):
            fieldvalue = (packed >> (7 * r)) & 0x7F
            v[rat.busy] = fieldvalue & m[rat.busy]
            v[rat.rob] = (fieldvalue >> 1) & m[rat.rob]
        v[checkpoint.valid] = 0

    def _squash_younger_than(self, age_limit: int) -> None:
        """Invalidate every in-flight instruction younger than ``age_limit``."""
        v, m, at = self.latches.values, self.latches.masks, self._at
        rob_head = v[at.rob_head]
        for i, entry in enumerate(self._rob):
            if v[entry.valid] and (i - rob_head) % ROB_ENTRIES > age_limit:
                if v[entry.is_branch]:
                    ckpt = v[entry.ckpt]
                    if ckpt < CHECKPOINTS:
                        v[self._ckpt[ckpt].valid] = 0
                v[entry.valid] = 0
        for entry in self._iq:
            if v[entry.valid] and (v[entry.rob] - rob_head) % ROB_ENTRIES > age_limit:
                v[entry.valid] = 0
        # Store queue entries of squashed stores are removed by rebuilding the
        # queue in order.
        surviving: list[list[int]] = []
        head = v[at.stq_head]
        for offset in range(v[at.stq_count]):
            entry = self._stq[(head + offset) % STQ_ENTRIES]
            values = [v[position] for position in entry]
            if v[entry.valid] and (v[entry.rob] - rob_head) % ROB_ENTRIES <= age_limit:
                surviving.append(values)
            v[entry.valid] = 0
        for offset, values in enumerate(surviving):
            entry = self._stq[(head + offset) % STQ_ENTRIES]
            for position, value in zip(entry, values):
                v[position] = value & m[position]
        v[at.stq_tail] = ((head + len(surviving)) % STQ_ENTRIES) & m[at.stq_tail]
        v[at.stq_count] = len(surviving) & m[at.stq_count]
        # Drop squashed ops from the execution units.
        self._in_flight = [op for op in self._in_flight
                           if (op.rob_index - rob_head) % ROB_ENTRIES <= age_limit]

    def _clear_fetch_buffer(self) -> None:
        v, at = self.latches.values, self._at
        for entry in self._fb:
            v[entry.valid] = 0
        v[at.fb_head] = 0
        v[at.fb_tail] = 0
        v[at.fb_count] = 0

    def _train_predictor(self, pc: int, taken: bool) -> None:
        """Update gshare hint state (never consulted for correctness)."""
        v, m, at = self.latches.values, self.latches.masks, self._at
        history = v[at.bp_gshare_history]
        index = ((pc >> 2) ^ history) % 1024
        table = v[at.bp_gshare_table]
        counter = (table >> (2 * index)) & 0x3
        counter = min(3, counter + 1) if taken else max(0, counter - 1)
        table &= ~(0x3 << (2 * index))
        table |= counter << (2 * index)
        v[at.bp_gshare_table] = table & m[at.bp_gshare_table]
        v[at.bp_gshare_history] = (((history << 1) | int(taken))
                                   & m[at.bp_gshare_history])

    # ------------------------------------------------------------------ memory ops
    def _complete_load(self, op: _InFlightOp) -> bool:
        """Try to complete a load; returns False if it must retry next cycle."""
        v, m, at = self.latches.values, self.latches.masks, self._at
        rob_index = op.rob_index
        entry = self._rob[rob_index % ROB_ENTRIES]
        if not v[entry.valid]:
            return True  # squashed
        address = op.load_address
        if address is None:
            result = execute_operation(op.opcode, op.rs1_value, op.rs2_value,
                                       op.imm, op.pc)
            address = result.memory_address or 0
            op.load_address = address
        rob_head = v[at.rob_head]
        load_age = (rob_index - rob_head) % ROB_ENTRIES
        forwarded: int | None = None
        head = v[at.stq_head]
        for offset in range(v[at.stq_count]):
            store = self._stq[(head + offset) % STQ_ENTRIES]
            if not v[store.valid]:
                continue
            if (v[store.rob] - rob_head) % ROB_ENTRIES >= load_age:
                continue  # younger than or same as the load
            if not v[store.addrvalid]:
                return False  # older store with unknown address: wait
            if v[store.addr] == address:
                forwarded = v[store.data]
        if forwarded is not None:
            value = forwarded
        else:
            try:
                if op.opcode is Opcode.LB:
                    value = self.memory.load_byte(address)
                else:
                    value = self.memory.load_word(address)
            except MemoryFault:
                v[entry.exception] = 1
                v[entry.expkind] = (_TRAP_CODES[TrapKind.MEMORY_FAULT]
                                    & m[entry.expkind])
                v[entry.ready] = 1
                return True
        v[entry.result] = value & m[entry.result]
        v[entry.ready] = 1
        self._broadcast(rob_index, value)
        v[at.mem_l1dcache_accessaddr0] = address & m[at.mem_l1dcache_accessaddr0]
        v[at.mem_l1dcache_accessfulldata0] = (value
                                              & m[at.mem_l1dcache_accessfulldata0])
        return True

    # ------------------------------------------------------------------ issue
    def _issue(self) -> None:
        v, m = self.latches.values, self.latches.masks
        rob_head = v[self._at.rob_head]
        iq = self._iq
        candidates: list[tuple[int, int]] = []
        for i, entry in enumerate(iq):
            if (v[entry.valid] and not v[entry.issued]
                    and v[entry.s1ready] and v[entry.s2ready]):
                candidates.append(((v[entry.rob] - rob_head) % ROB_ENTRIES, i))
        candidates.sort()
        for _, iq_index in candidates[:ISSUE_WIDTH]:
            entry = iq[iq_index]
            rob_index = v[entry.rob]
            rob_entry = self._rob[rob_index % ROB_ENTRIES]
            if not v[rob_entry.valid]:
                v[entry.valid] = 0
                continue
            opcode = OPCODE_BY_VALUE.get(v[entry.op])
            if opcode is None:
                v[rob_entry.exception] = 1
                v[rob_entry.expkind] = (_TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
                                        & m[rob_entry.expkind])
                v[rob_entry.ready] = 1
                v[entry.valid] = 0
                continue
            info = OPCODE_INFO[opcode]
            in_flight = _InFlightOp(
                rob_index=rob_index,
                opcode=opcode,
                rs1_value=v[entry.s1val],
                rs2_value=v[entry.s2val],
                imm=to_signed(v[entry.imm], m[entry.imm]),
                pc=v[entry.pc],
                remaining_cycles=max(1, info.execute_latency),
                is_load=info.is_load,
            )
            self._in_flight.append(in_flight)
            v[entry.issued] = 1
            v[entry.valid] = 0

    # ------------------------------------------------------------------ rename / dispatch
    def _rename_dispatch(self) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        for _ in range(RENAME_WIDTH):
            if v[at.fb_count] == 0:
                return
            if v[at.rob_count] >= ROB_ENTRIES:
                return
            free_iq = self._find_free_iq_entry()
            if free_iq is None:
                return
            fb_head = v[at.fb_head]
            fetched = self._fb[fb_head % FETCH_BUFFER_ENTRIES]
            pc = v[fetched.pc]
            instruction = None
            trap_kind: TrapKind | None = None
            if v[fetched.fault]:
                trap_kind = TrapKind.FETCH_FAULT
            else:
                try:
                    instruction = decode_instruction(v[fetched.inst])
                except EncodingError:
                    trap_kind = TrapKind.ILLEGAL_INSTRUCTION
            if instruction is not None:
                info = OPCODE_INFO[instruction.opcode]
                if info.is_store and v[at.stq_count] >= STQ_ENTRIES:
                    return
                if ((info.is_branch or info.is_jump)
                        and self._find_free_checkpoint() is None):
                    return
            # Consume the fetch-buffer entry.
            v[fetched.valid] = 0
            v[at.fb_head] = ((fb_head + 1) % FETCH_BUFFER_ENTRIES) & m[at.fb_head]
            v[at.fb_count] = (v[at.fb_count] - 1) & m[at.fb_count]
            # Allocate the ROB entry.
            tail = v[at.rob_tail]
            entry = self._rob[tail % ROB_ENTRIES]
            v[entry.valid] = 1
            v[entry.ready] = 0
            v[entry.exception] = 0
            v[entry.expkind] = 0
            v[entry.is_store] = 0
            v[entry.is_out] = 0
            v[entry.is_branch] = 0
            v[entry.ckpt] = CHECKPOINTS & m[entry.ckpt]
            v[entry.pc] = pc & m[entry.pc]
            v[at.rob_tail] = ((tail + 1) % ROB_ENTRIES) & m[at.rob_tail]
            v[at.rob_count] = (v[at.rob_count] + 1) & m[at.rob_count]
            if trap_kind is not None:
                v[entry.op] = 0
                v[entry.rd] = 0
                v[entry.exception] = 1
                v[entry.expkind] = _TRAP_CODES[trap_kind] & m[entry.expkind]
                v[entry.ready] = 1
                continue
            info = OPCODE_INFO[instruction.opcode]
            needs_checkpoint = info.is_branch or info.is_jump
            v[entry.op] = int(instruction.opcode) & m[entry.op]
            v[entry.rd] = instruction.rd & m[entry.rd]
            v[entry.is_store] = 1 if info.is_store else 0
            v[entry.is_out] = 1 if info.is_output else 0
            v[entry.is_branch] = 1 if needs_checkpoint else 0
            if info.is_store:
                stq_tail = v[at.stq_tail]
                store = self._stq[stq_tail]
                v[store.valid] = 1
                v[store.rob] = tail & m[store.rob]
                v[store.addrvalid] = 0
                v[at.stq_tail] = ((stq_tail + 1) % STQ_ENTRIES) & m[at.stq_tail]
                v[at.stq_count] = (v[at.stq_count] + 1) & m[at.stq_count]
            # Fill the issue-queue entry with renamed operands.
            self._fill_iq_entry(free_iq, instruction, tail, pc, info)
            # Update the rename map for the destination.
            if info.writes_rd and instruction.rd != 0:
                rat = self._rat[instruction.rd]
                v[rat.busy] = 1
                v[rat.rob] = tail & m[rat.rob]
            # Checkpoint the rename map *after* the control instruction's own
            # destination rename, so recovery restores the map younger
            # instructions must observe on the correct path.
            if needs_checkpoint:
                ckpt = self._find_free_checkpoint()
                v[entry.ckpt] = ckpt & m[entry.ckpt]
                self._save_checkpoint(ckpt)
            # HALT and NOP need no execution: mark ready immediately.
            if instruction.opcode in (Opcode.HALT, Opcode.NOP):
                v[entry.ready] = 1
                v[self._iq[free_iq].valid] = 0

    def _fill_iq_entry(self, iq_index: int, instruction, rob_index: int, pc: int,
                       info) -> None:
        v, m = self.latches.values, self.latches.masks
        entry = self._iq[iq_index]
        v[entry.valid] = 1
        v[entry.issued] = 0
        v[entry.op] = int(instruction.opcode) & m[entry.op]
        v[entry.rob] = rob_index & m[entry.rob]
        v[entry.imm] = instruction.imm & m[entry.imm]
        v[entry.pc] = pc & m[entry.pc]
        ready1, tag1, value1 = self._rename_source(instruction.rs1, info.reads_rs1)
        ready2, tag2, value2 = self._rename_source(instruction.rs2, info.reads_rs2)
        v[entry.s1ready] = ready1 & m[entry.s1ready]
        v[entry.s1tag] = tag1 & m[entry.s1tag]
        v[entry.s1val] = value1 & m[entry.s1val]
        v[entry.s2ready] = ready2 & m[entry.s2ready]
        v[entry.s2tag] = tag2 & m[entry.s2tag]
        v[entry.s2val] = value2 & m[entry.s2val]

    def _rename_source(self, arch_reg: int, is_read: bool) -> tuple[int, int, int]:
        """Return (ready, tag, value) for one source operand."""
        v = self.latches.values
        if not is_read or arch_reg == 0:
            return 1, 0, self._read_register(arch_reg) if is_read else 0
        rat = self._rat[arch_reg]
        if v[rat.busy]:
            producer = v[rat.rob]
            entry = self._rob[producer % ROB_ENTRIES]
            if not v[entry.valid]:
                # Stale mapping (possible transiently under fault injection):
                # fall back to the architectural value.
                return 1, 0, self._read_register(arch_reg)
            if v[entry.ready] and not v[entry.exception]:
                return 1, 0, v[entry.result]
            return 0, producer, 0
        return 1, 0, self._read_register(arch_reg)

    def _find_free_iq_entry(self) -> int | None:
        v = self.latches.values
        for i, entry in enumerate(self._iq):
            if not v[entry.valid]:
                return i
        return None

    def _find_free_checkpoint(self) -> int | None:
        v = self.latches.values
        for i, ckpt in enumerate(self._ckpt):
            if not v[ckpt.valid]:
                return i
        return None

    def _save_checkpoint(self, ckpt: int) -> None:
        v, m = self.latches.values, self.latches.masks
        packed = 0
        for r, rat in enumerate(self._rat):
            packed |= (v[rat.busy] | (v[rat.rob] << 1)) << (7 * r)
        checkpoint = self._ckpt[ckpt]
        v[checkpoint.map] = packed & m[checkpoint.map]
        v[checkpoint.valid] = 1

    # ------------------------------------------------------------------ fetch
    def _fetch(self) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if self._fetch_stalled or v[at.fetch_stall]:
            return
        for _ in range(FETCH_WIDTH):
            if v[at.fb_count] >= FETCH_BUFFER_ENTRIES:
                return
            pc = v[at.fetch_pc]
            instruction = self._program.instruction_at(pc) if self._program else None
            tail = v[at.fb_tail]
            entry = self._fb[tail % FETCH_BUFFER_ENTRIES]
            v[entry.pc] = pc & m[entry.pc]
            v[entry.valid] = 1
            v[at.fb_tail] = ((tail + 1) % FETCH_BUFFER_ENTRIES) & m[at.fb_tail]
            v[at.fb_count] = (v[at.fb_count] + 1) & m[at.fb_count]
            if instruction is None:
                v[entry.inst] = 0
                v[entry.fault] = 1
                v[at.fetch_stall] = 1
                self._fetch_stalled = True
                return
            v[entry.inst] = encode_instruction(instruction) & m[entry.inst]
            v[entry.fault] = 0
            v[at.fetch_pc] = (pc + WORD_BYTES) & m[at.fetch_pc]

    def _touch_background_state(self) -> None:
        """Advance vanish-class bookkeeping so those flip-flops really toggle."""
        v, m, at = self.latches.values, self.latches.masks, self._at
        in_flight = len(self._in_flight)
        v[at.perf_counter0] = (v[at.perf_counter0] + 1) & m[at.perf_counter0]
        v[at.perf_counter1] = (v[at.perf_counter1] + in_flight) & m[at.perf_counter1]
        v[at.ldq_numentries] = in_flight & m[at.ldq_numentries]
