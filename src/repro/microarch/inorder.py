"""In-order core model (the paper's "InO-core", a Leon3-class design).

A seven-stage, single-issue, in-order pipeline:

``fetch -> decode -> regaccess -> execute -> memory -> exception -> writeback``

matching the Leon3 integer unit organisation the paper injects into.  The
important properties reproduced here:

* every pipeline latch, control register and bookkeeping register is a named
  flip-flop structure (about 1.25k flip-flops, as in Table 1), so fault
  injection has the same surface as the paper's RTL campaigns;
* hazards are resolved by scoreboard stalls (no forwarding), which yields an
  IPC close to the 0.4 the paper reports for the Leon3;
* branches resolve in the execute stage with a static not-taken policy; the
  bimodal predictor state is maintained as hint-only state, mirroring the
  Appendix-A structures whose errors always vanish;
* traps (illegal instruction, memory fault, divide-by-zero, software
  assertion) propagate down the pipeline and terminate the run when the
  faulting instruction reaches the exception stage.

Register windows / the register file are modelled as RAM (not flip-flops),
as in the paper, and are therefore not injection targets.
"""

from __future__ import annotations

from repro.isa.encoding import EncodingError, decode_instruction, encode_instruction
from repro.isa.instructions import Opcode, OPCODE_BY_VALUE, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.branch_predictor import BimodalPredictor
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation
from repro.microarch.memory import MemoryFault, MemorySystem
from repro.microarch.state import to_signed

# Trap kinds are carried down the pipeline in a 3-bit field.
_TRAP_CODES = {
    TrapKind.ILLEGAL_INSTRUCTION: 1,
    TrapKind.MEMORY_FAULT: 2,
    TrapKind.FETCH_FAULT: 3,
    TrapKind.DIVIDE_BY_ZERO: 4,
    TrapKind.SOFTWARE_ASSERTION: 5,
}
_TRAP_FROM_CODE = {code: kind for kind, code in _TRAP_CODES.items()}

INO_CLOCK_MHZ = 2000.0
"""Nominal clock of the InO-core (2.0 GHz, Table 1)."""


class InOrderCore(BaseCore):
    """Cycle-level model of the simple in-order core."""

    def __init__(self, name: str = "InO-core"):
        super().__init__(name=name, clock_mhz=INO_CLOCK_MHZ,
                         core_class=CoreClass.IN_ORDER)
        self._declare_state()
        self._finalize_state()
        self.memory = MemorySystem()
        self.registers: list[int] = [0] * NUM_REGISTERS
        # Every latch position, resolved once: the stages index
        # ``self.latches.values`` with these (``"w.s.icc"`` -> ``.w_s_icc``).
        self._at = at = self.latches.handles(
            s.name for s in self.registry.structures)
        # (valid, trap, op, rd) of the stages older than regaccess.
        self._hazard_stages = ((at.m_valid, at.m_trap, at.m_op, at.m_rd),
                               (at.x_valid, at.x_trap, at.x_op, at.x_rd),
                               (at.w_valid, at.w_trap, at.w_op, at.w_rd))
        # audit: allow[state-coverage] the predictor is a stateless view; its tables/history live in self.latches, which the contract covers
        self._predictor = BimodalPredictor(
            self.latches, at.f_bp_table, at.f_bp_history, entries=32)

    # ------------------------------------------------------------------ state declaration
    def _declare_state(self) -> None:
        reg = self.registry.register

        # Fetch unit.
        reg("f.pc", 32, "fetch")
        reg("f.npc", 32, "fetch")
        reg("f.valid", 1, "fetch")
        reg("f.bp.table", 64, "fetch", architectural=False)
        reg("f.bp.history", 8, "fetch", architectural=False)

        # Fetch -> decode latch.
        reg("d.inst", 32, "decode")
        reg("d.pc", 32, "decode")
        reg("d.valid", 1, "decode")
        reg("d.fetchfault", 1, "decode")
        reg("d.pv", 2, "decode", architectural=False)

        # Decode -> register-access latch.
        reg("a.op", 7, "regaccess")
        reg("a.rd", 5, "regaccess")
        reg("a.rs1", 5, "regaccess")
        reg("a.rs2", 5, "regaccess")
        reg("a.imm", 15, "regaccess")
        reg("a.pc", 32, "regaccess")
        reg("a.valid", 1, "regaccess")
        reg("a.trap", 1, "regaccess")
        reg("a.trapkind", 3, "regaccess")
        reg("a.ctrl.tt", 8, "regaccess", architectural=False)
        reg("a.cwp", 5, "regaccess", architectural=False)
        reg("a.rfe1", 1, "regaccess", architectural=False)
        reg("a.rfe2", 1, "regaccess", architectural=False)

        # Register-access -> execute latch.
        reg("e.op", 7, "execute")
        reg("e.rd", 5, "execute")
        reg("e.rs1val", 32, "execute")
        reg("e.rs2val", 32, "execute")
        reg("e.imm", 15, "execute")
        reg("e.pc", 32, "execute")
        reg("e.valid", 1, "execute")
        reg("e.trap", 1, "execute")
        reg("e.trapkind", 3, "execute")
        reg("e.ctrl.tt", 8, "execute", architectural=False)
        reg("e.mulstep", 6, "execute", architectural=False)
        reg("e.su", 1, "execute", architectural=False)
        reg("e.et", 1, "execute", architectural=False)

        # Execute -> memory latch.
        reg("m.op", 7, "memory")
        reg("m.rd", 5, "memory")
        reg("m.result", 32, "memory")
        reg("m.addr", 32, "memory")
        reg("m.storeval", 32, "memory")
        reg("m.valid", 1, "memory")
        reg("m.trap", 1, "memory")
        reg("m.trapkind", 3, "memory")
        reg("m.branch_taken", 1, "memory")
        reg("m.ctrl.tt", 8, "memory", architectural=False)
        reg("m.dci.asi", 8, "memory", architectural=False)
        reg("m.dci.lock", 1, "memory", architectural=False)
        reg("m.dci.signed", 1, "memory", architectural=False)
        reg("m.irqen", 1, "memory", architectural=False)
        reg("m.irqen2", 1, "memory", architectural=False)

        # Memory -> exception latch.
        reg("x.op", 7, "exception")
        reg("x.rd", 5, "exception")
        reg("x.result", 32, "exception")
        reg("x.valid", 1, "exception")
        reg("x.trap", 1, "exception")
        reg("x.trapkind", 3, "exception")
        reg("x.outval", 32, "exception")
        reg("x.outpending", 1, "exception")
        reg("x.ctrl.tt", 8, "exception", architectural=False)
        reg("x.icc", 4, "exception", architectural=False)
        reg("x.ipend", 1, "exception", architectural=False)
        reg("x.intack", 1, "exception", architectural=False)

        # Exception -> writeback latch.
        reg("w.op", 7, "writeback")
        reg("w.rd", 5, "writeback")
        reg("w.result", 32, "writeback")
        reg("w.wen", 1, "writeback")
        reg("w.valid", 1, "writeback")
        reg("w.trap", 1, "writeback")
        reg("w.trapkind", 3, "writeback")
        reg("w.outval", 32, "writeback")
        reg("w.outpending", 1, "writeback")
        # Processor status register fields (mostly hint/privilege state the
        # workloads never read back; errors there vanish).
        reg("w.s.icc", 4, "writeback", architectural=False)
        reg("w.s.tt", 8, "writeback", architectural=False)
        reg("w.s.pil", 4, "writeback", architectural=False)
        reg("w.s.ec", 1, "writeback", architectural=False)
        reg("w.s.ef", 1, "writeback", architectural=False)
        reg("w.s.ps", 1, "writeback", architectural=False)
        reg("w.s.et", 1, "writeback", architectural=False)
        reg("w.s.cwp", 5, "writeback", architectural=False)
        reg("w.s.dwt", 1, "writeback", architectural=False)

        # Cache controllers (control/bookkeeping only; the cache arrays
        # themselves are SRAM).
        reg("ic.ctrl.state", 4, "icache", architectural=False)
        reg("ic.ctrl.hold", 1, "icache", architectural=False)
        reg("dc.ctrl.state", 4, "dcache", architectural=False)
        reg("dc.ctrl.hold", 1, "dcache", architectural=False)

        # Interrupt controller: toggles during execution but the workloads
        # never consume it, so its errors vanish (Appendix A analogues).
        reg("irq.pending", 16, "peripherals", architectural=False)
        reg("irq.mask", 16, "peripherals", architectural=False)

    # ------------------------------------------------------------------ reset
    def _reset_microarchitecture(self, program: Program) -> None:
        self.memory.reset(program)
        self.registers = [0] * NUM_REGISTERS
        # Stack pointer starts at the top of the stack region.
        from repro.isa.program import DEFAULT_STACK_TOP

        self.registers[2] = DEFAULT_STACK_TOP - WORD_BYTES
        v, m, at = self.latches.values, self.latches.masks, self._at
        v[at.f_pc] = program.entry_point & m[at.f_pc]
        v[at.f_npc] = (program.entry_point + WORD_BYTES) & m[at.f_npc]
        v[at.f_valid] = 1

    # ------------------------------------------------------------------ checkpointing
    def _snapshot_microarchitecture(self) -> dict:
        # The bimodal predictor lives entirely in latch state; everything
        # else the pipeline touches between cycles is captured here.
        return {
            "registers": list(self.registers),
            "memory": self.memory.snapshot_words(),
            "redirect_target": self._redirect_target,
        }

    def _restore_microarchitecture(self, micro: dict) -> None:
        self.registers = list(micro["registers"])
        self.memory.restore_words(micro["memory"])
        self._redirect_target = micro["redirect_target"]

    def _fingerprint_microarchitecture(self) -> tuple:
        return (tuple(self.registers), self.memory.fingerprint_key(),
                self._redirect_target)

    # ------------------------------------------------------------------ helpers
    def _read_register(self, index: int) -> int:
        return self.registers[index & 0x1F]

    def _write_register(self, index: int, value: int) -> None:
        index &= 0x1F
        if index != 0:
            self.registers[index] = value & 0xFFFFFFFF

    def _hazard_destinations(self) -> set[int]:
        """Destination registers of in-flight, not-yet-committed instructions.

        Called after the downstream latch moves of the current cycle, so older
        instructions live in the memory, exception and writeback latches.
        """
        destinations: set[int] = set()
        v = self.latches.values
        for valid, trap, op, rd in self._hazard_stages:
            if v[valid] and not v[trap]:
                info = OPCODE_INFO.get(OPCODE_BY_VALUE.get(v[op]))
                if info is not None and info.writes_rd and v[rd] != 0:
                    destinations.add(v[rd])
        return destinations

    # ------------------------------------------------------------------ pipeline stages
    def _step_cycle(self) -> None:
        self._commit_writeback()
        if self.terminated:
            return
        self._stage_exception_to_writeback()
        self._stage_memory_to_exception()
        redirect = self._stage_execute_to_memory()
        stalled = self._stage_regaccess_to_execute(redirect)
        self._stage_decode_to_regaccess(redirect, stalled)
        self._stage_fetch_to_decode(redirect, stalled)
        self._touch_background_state()

    # WB: commit results, outputs, halts and traps.
    def _commit_writeback(self) -> None:
        v, at = self.latches.values, self._at
        if not v[at.w_valid]:
            return
        if v[at.w_trap]:
            kind = _TRAP_FROM_CODE.get(v[at.w_trapkind],
                                       TrapKind.ILLEGAL_INSTRUCTION)
            reason = (TerminationReason.DETECTED
                      if kind is TrapKind.SOFTWARE_ASSERTION
                      else TerminationReason.TRAP)
            self.force_termination(reason, kind)
            v[at.w_valid] = 0
            return
        if v[at.w_wen]:
            self._write_register(v[at.w_rd], v[at.w_result])
        if v[at.w_outpending]:
            self.emit_output(v[at.w_outval])
        self.note_retired()
        if v[at.w_op] == Opcode.HALT:
            self.force_termination(TerminationReason.HALTED)
        v[at.w_valid] = 0
        v[at.w_wen] = 0
        v[at.w_outpending] = 0

    # XC -> WB
    def _stage_exception_to_writeback(self) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if not v[at.x_valid]:
            v[at.w_valid] = 0
            v[at.w_wen] = 0
            v[at.w_outpending] = 0
            return
        v[at.w_op] = v[at.x_op] & m[at.w_op]
        v[at.w_rd] = v[at.x_rd] & m[at.w_rd]
        v[at.w_result] = v[at.x_result] & m[at.w_result]
        v[at.w_trap] = v[at.x_trap] & m[at.w_trap]
        v[at.w_trapkind] = v[at.x_trapkind] & m[at.w_trapkind]
        v[at.w_outval] = v[at.x_outval] & m[at.w_outval]
        v[at.w_outpending] = v[at.x_outpending] & m[at.w_outpending]
        v[at.w_valid] = 1
        info = (None if v[at.x_trap]
                else OPCODE_INFO.get(OPCODE_BY_VALUE.get(v[at.x_op])))
        v[at.w_wen] = (1 if info is not None and info.writes_rd and v[at.x_rd] != 0
                       else 0)
        # Status-register bookkeeping (hint-only state).
        v[at.w_s_icc] = v[at.x_icc] & m[at.w_s_icc]
        v[at.x_valid] = 0

    # ME -> XC: data memory access.
    def _stage_memory_to_exception(self) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if not v[at.m_valid]:
            v[at.x_valid] = 0
            v[at.x_outpending] = 0
            return
        v[at.x_op] = v[at.m_op] & m[at.x_op]
        v[at.x_rd] = v[at.m_rd] & m[at.x_rd]
        v[at.x_trap] = v[at.m_trap] & m[at.x_trap]
        v[at.x_trapkind] = v[at.m_trapkind] & m[at.x_trapkind]
        v[at.x_valid] = 1
        v[at.x_outpending] = 0
        result = v[at.m_result]
        if not v[at.m_trap]:
            opcode = OPCODE_BY_VALUE.get(v[at.m_op])
            address = v[at.m_addr]
            try:
                if opcode is Opcode.LW:
                    result = self.memory.load_word(address)
                elif opcode is Opcode.LB:
                    result = self.memory.load_byte(address)
                elif opcode is Opcode.SW:
                    self.memory.store_word(address, v[at.m_storeval])
                elif opcode is Opcode.SB:
                    self.memory.store_byte(address, v[at.m_storeval])
                elif opcode is Opcode.OUT:
                    v[at.x_outval] = v[at.m_storeval] & m[at.x_outval]
                    v[at.x_outpending] = 1
            except MemoryFault:
                v[at.x_trap] = 1
                v[at.x_trapkind] = (_TRAP_CODES[TrapKind.MEMORY_FAULT]
                                    & m[at.x_trapkind])
            # Track data-cache controller hint state.
            v[at.dc_ctrl_state] = (v[at.dc_ctrl_state] + 1) & m[at.dc_ctrl_state]
        v[at.x_result] = result & m[at.x_result]
        v[at.m_valid] = 0

    # EX -> ME: ALU, branch resolution.
    def _stage_execute_to_memory(self) -> bool:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if not v[at.e_valid]:
            v[at.m_valid] = 0
            return False
        v[at.m_op] = v[at.e_op] & m[at.m_op]
        v[at.m_rd] = v[at.e_rd] & m[at.m_rd]
        v[at.m_trap] = v[at.e_trap] & m[at.m_trap]
        v[at.m_trapkind] = v[at.e_trapkind] & m[at.m_trapkind]
        v[at.m_valid] = 1
        v[at.m_branch_taken] = 0
        redirect = False
        if not v[at.e_trap]:
            pc = v[at.e_pc]
            imm = to_signed(v[at.e_imm], m[at.e_imm])
            opcode = OPCODE_BY_VALUE.get(v[at.e_op])
            if opcode is None:
                v[at.m_trap] = 1
                v[at.m_trapkind] = (_TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION]
                                    & m[at.m_trapkind])
            else:
                try:
                    result = execute_operation(opcode, v[at.e_rs1val],
                                               v[at.e_rs2val], imm, pc)
                except ExecuteTrap as trap:
                    v[at.m_trap] = 1
                    v[at.m_trapkind] = _TRAP_CODES[trap.kind] & m[at.m_trapkind]
                else:
                    v[at.m_result] = result.value & m[at.m_result]
                    if result.memory_address is not None:
                        v[at.m_addr] = result.memory_address & m[at.m_addr]
                    if result.store_value is not None:
                        v[at.m_storeval] = result.store_value & m[at.m_storeval]
                    if result.output_value is not None:
                        # Reuse the store-value path to carry the OUT payload.
                        v[at.m_storeval] = result.output_value & m[at.m_storeval]
                    if OPCODE_INFO[opcode].is_branch:
                        self._predictor.update(pc, result.branch_taken)
                    if result.branch_taken:
                        redirect = True
                        v[at.m_branch_taken] = 1
                        self._redirect_target = result.branch_target
        v[at.e_valid] = 0
        return redirect

    # RA -> EX: register read with scoreboard stall.
    def _stage_regaccess_to_execute(self, redirect: bool) -> bool:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if redirect or not v[at.a_valid]:
            v[at.e_valid] = 0
            if redirect:
                v[at.a_valid] = 0
            return False
        info = OPCODE_INFO.get(OPCODE_BY_VALUE.get(v[at.a_op]))
        if info is not None and not v[at.a_trap]:
            hazards = self._hazard_destinations()
            if ((info.reads_rs1 and v[at.a_rs1] in hazards)
                    or (info.reads_rs2 and v[at.a_rs2] in hazards)):
                # Stall: keep the regaccess latch, feed a bubble to execute.
                v[at.e_valid] = 0
                return True
        v[at.e_op] = v[at.a_op] & m[at.e_op]
        v[at.e_rd] = v[at.a_rd] & m[at.e_rd]
        v[at.e_imm] = v[at.a_imm] & m[at.e_imm]
        v[at.e_pc] = v[at.a_pc] & m[at.e_pc]
        v[at.e_trap] = v[at.a_trap] & m[at.e_trap]
        v[at.e_trapkind] = v[at.a_trapkind] & m[at.e_trapkind]
        v[at.e_rs1val] = self._read_register(v[at.a_rs1]) & m[at.e_rs1val]
        v[at.e_rs2val] = self._read_register(v[at.a_rs2]) & m[at.e_rs2val]
        v[at.e_valid] = 1
        v[at.a_valid] = 0
        return False

    # DE -> RA: decode.
    def _stage_decode_to_regaccess(self, redirect: bool, stalled: bool) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if stalled:
            return
        if redirect or not v[at.d_valid]:
            v[at.a_valid] = 0
            if redirect:
                v[at.d_valid] = 0
            return
        v[at.a_pc] = v[at.d_pc] & m[at.a_pc]
        v[at.a_valid] = 1
        trap_kind = None
        if v[at.d_fetchfault]:
            trap_kind = TrapKind.FETCH_FAULT
        else:
            try:
                instruction = decode_instruction(v[at.d_inst])
            except EncodingError:
                trap_kind = TrapKind.ILLEGAL_INSTRUCTION
        if trap_kind is None:
            v[at.a_trap] = 0
            v[at.a_trapkind] = 0
            v[at.a_op] = int(instruction.opcode) & m[at.a_op]
            v[at.a_rd] = instruction.rd & m[at.a_rd]
            v[at.a_rs1] = instruction.rs1 & m[at.a_rs1]
            v[at.a_rs2] = instruction.rs2 & m[at.a_rs2]
            v[at.a_imm] = instruction.imm & m[at.a_imm]
        else:
            v[at.a_trap] = 1
            v[at.a_trapkind] = _TRAP_CODES[trap_kind] & m[at.a_trapkind]
            v[at.a_op] = v[at.a_rd] = v[at.a_rs1] = v[at.a_rs2] = v[at.a_imm] = 0
        v[at.d_valid] = 0

    # FE -> DE: instruction fetch.
    def _stage_fetch_to_decode(self, redirect: bool, stalled: bool) -> None:
        v, m, at = self.latches.values, self.latches.masks, self._at
        if stalled:
            return
        if redirect:
            v[at.d_valid] = 0
            v[at.f_pc] = self._redirect_target & m[at.f_pc]
            v[at.f_npc] = (self._redirect_target + WORD_BYTES) & m[at.f_npc]
            return
        pc = v[at.f_pc]
        instruction = self._program.instruction_at(pc) if self._program else None
        if instruction is None:
            # Fetch fault: send a trap-carrying bubble down the pipeline.  It
            # only terminates the run if an older instruction (for example a
            # HALT already in flight) does not commit or redirect first.
            v[at.d_inst] = 0
            v[at.d_pc] = pc & m[at.d_pc]
            v[at.d_fetchfault] = 1
            v[at.d_valid] = 1
            return
        v[at.d_fetchfault] = 0
        v[at.d_inst] = encode_instruction(instruction) & m[at.d_inst]
        v[at.d_pc] = pc & m[at.d_pc]
        v[at.d_valid] = 1
        v[at.f_pc] = (pc + WORD_BYTES) & m[at.f_pc]
        v[at.f_npc] = (pc + 2 * WORD_BYTES) & m[at.f_npc]
        v[at.ic_ctrl_state] = (v[at.ic_ctrl_state] + 1) & m[at.ic_ctrl_state]
        # Hint-only branch prediction bookkeeping.
        if OPCODE_INFO[instruction.opcode].is_branch:
            self._predictor.predict_taken(pc)

    def _touch_background_state(self) -> None:
        """Advance peripheral hint state so vanish-class flip-flops toggle."""
        v, m, at = self.latches.values, self.latches.masks, self._at
        v[at.irq_pending] = (v[at.irq_pending] + 1) & m[at.irq_pending]

    # ------------------------------------------------------------------ attributes
    _redirect_target: int = 0
