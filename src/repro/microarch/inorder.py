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
from repro.isa.instructions import Opcode, OPCODE_INFO
from repro.isa.program import Program, WORD_BYTES
from repro.isa.registers import NUM_REGISTERS
from repro.microarch.branch_predictor import BimodalPredictor
from repro.microarch.core import BaseCore, CoreClass
from repro.microarch.events import TerminationReason, TrapKind
from repro.microarch.execute import ExecuteTrap, execute_operation
from repro.microarch.memory import MemoryFault, MemorySystem

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
        # audit: allow[state-coverage] the predictor is a stateless view; its tables/history live in self.latches, which the contract covers
        self._predictor = BimodalPredictor(
            self.latches, "f.bp.table", "f.bp.history", entries=32)

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
        latches = self.latches
        latches.set("f.pc", program.entry_point)
        latches.set("f.npc", program.entry_point + WORD_BYTES)
        latches.set("f.valid", 1)

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
    def _bubble(self, prefix: str) -> None:
        """Insert a bubble into the latch group with the given stage prefix."""
        for structure in self.registry.structures:
            if structure.name.startswith(prefix):
                self.latches.set(structure.name, 0)

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
        latches = self.latches
        for prefix in ("m", "x", "w"):
            if latches.get(f"{prefix}.valid") and not latches.get(f"{prefix}.trap"):
                op_value = latches.get(f"{prefix}.op")
                try:
                    info = OPCODE_INFO[Opcode(op_value)]
                except ValueError:
                    continue
                if info.writes_rd:
                    rd = latches.get(f"{prefix}.rd")
                    if rd != 0:
                        destinations.add(rd)
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
        latches = self.latches
        if not latches.get("w.valid"):
            return
        if latches.get("w.trap"):
            kind = _TRAP_FROM_CODE.get(latches.get("w.trapkind"),
                                       TrapKind.ILLEGAL_INSTRUCTION)
            reason = (TerminationReason.DETECTED
                      if kind is TrapKind.SOFTWARE_ASSERTION
                      else TerminationReason.TRAP)
            self.force_termination(reason, kind)
            latches.set("w.valid", 0)
            return
        op_value = latches.get("w.op")
        if latches.get("w.wen"):
            self._write_register(latches.get("w.rd"), latches.get("w.result"))
        if latches.get("w.outpending"):
            self.emit_output(latches.get("w.outval"))
        self.note_retired()
        try:
            opcode = Opcode(op_value)
        except ValueError:
            opcode = None
        if opcode is Opcode.HALT:
            self.force_termination(TerminationReason.HALTED)
        latches.set("w.valid", 0)
        latches.set("w.wen", 0)
        latches.set("w.outpending", 0)

    # XC -> WB
    def _stage_exception_to_writeback(self) -> None:
        latches = self.latches
        if not latches.get("x.valid"):
            latches.set("w.valid", 0)
            latches.set("w.wen", 0)
            latches.set("w.outpending", 0)
            return
        latches.set("w.op", latches.get("x.op"))
        latches.set("w.rd", latches.get("x.rd"))
        latches.set("w.result", latches.get("x.result"))
        latches.set("w.trap", latches.get("x.trap"))
        latches.set("w.trapkind", latches.get("x.trapkind"))
        latches.set("w.outval", latches.get("x.outval"))
        latches.set("w.outpending", latches.get("x.outpending"))
        latches.set("w.valid", 1)
        wen = 0
        if not latches.get("x.trap"):
            try:
                info = OPCODE_INFO[Opcode(latches.get("x.op"))]
                wen = 1 if (info.writes_rd and latches.get("x.rd") != 0) else 0
            except ValueError:
                wen = 0
        latches.set("w.wen", wen)
        # Status-register bookkeeping (hint-only state).
        latches.set("w.s.icc", latches.get("x.icc"))
        latches.set("x.valid", 0)

    # ME -> XC: data memory access.
    def _stage_memory_to_exception(self) -> None:
        latches = self.latches
        if not latches.get("m.valid"):
            latches.set("x.valid", 0)
            latches.set("x.outpending", 0)
            return
        latches.set("x.op", latches.get("m.op"))
        latches.set("x.rd", latches.get("m.rd"))
        latches.set("x.trap", latches.get("m.trap"))
        latches.set("x.trapkind", latches.get("m.trapkind"))
        latches.set("x.valid", 1)
        latches.set("x.outpending", 0)
        result = latches.get("m.result")
        if not latches.get("m.trap"):
            try:
                opcode = Opcode(latches.get("m.op"))
            except ValueError:
                opcode = None
            address = latches.get("m.addr")
            try:
                if opcode is Opcode.LW:
                    result = self.memory.load_word(address)
                elif opcode is Opcode.LB:
                    result = self.memory.load_byte(address)
                elif opcode is Opcode.SW:
                    self.memory.store_word(address, latches.get("m.storeval"))
                elif opcode is Opcode.SB:
                    self.memory.store_byte(address, latches.get("m.storeval"))
                elif opcode is Opcode.OUT:
                    latches.set("x.outval", latches.get("m.storeval"))
                    latches.set("x.outpending", 1)
            except MemoryFault:
                latches.set("x.trap", 1)
                latches.set("x.trapkind", _TRAP_CODES[TrapKind.MEMORY_FAULT])
            # Track data-cache controller hint state.
            latches.set("dc.ctrl.state", (latches.get("dc.ctrl.state") + 1) & 0xF)
        latches.set("x.result", result)
        latches.set("m.valid", 0)

    # EX -> ME: ALU, branch resolution.
    def _stage_execute_to_memory(self) -> bool:
        latches = self.latches
        if not latches.get("e.valid"):
            latches.set("m.valid", 0)
            return False
        latches.set("m.op", latches.get("e.op"))
        latches.set("m.rd", latches.get("e.rd"))
        latches.set("m.trap", latches.get("e.trap"))
        latches.set("m.trapkind", latches.get("e.trapkind"))
        latches.set("m.valid", 1)
        latches.set("m.branch_taken", 0)
        redirect = False
        if not latches.get("e.trap"):
            pc = latches.get("e.pc")
            imm = latches.get_signed("e.imm")
            rs1_value = latches.get("e.rs1val")
            rs2_value = latches.get("e.rs2val")
            try:
                opcode = Opcode(latches.get("e.op"))
            except ValueError:
                opcode = None
            if opcode is None:
                latches.set("m.trap", 1)
                latches.set("m.trapkind", _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION])
            else:
                try:
                    result = execute_operation(opcode, rs1_value, rs2_value, imm, pc)
                except ExecuteTrap as trap:
                    latches.set("m.trap", 1)
                    latches.set("m.trapkind", _TRAP_CODES[trap.kind])
                else:
                    latches.set("m.result", result.value)
                    if result.memory_address is not None:
                        latches.set("m.addr", result.memory_address)
                    if result.store_value is not None:
                        latches.set("m.storeval", result.store_value)
                    if result.output_value is not None:
                        # Reuse the store-value path to carry the OUT payload.
                        latches.set("m.storeval", result.output_value)
                    if opcode.name in ("BEQ", "BNE", "BLT", "BGE", "BLTU", "BGEU"):
                        self._predictor.update(pc, result.branch_taken)
                    if result.branch_taken:
                        redirect = True
                        latches.set("m.branch_taken", 1)
                        self._redirect_target = result.branch_target
        latches.set("e.valid", 0)
        return redirect

    # RA -> EX: register read with scoreboard stall.
    def _stage_regaccess_to_execute(self, redirect: bool) -> bool:
        latches = self.latches
        if redirect or not latches.get("a.valid"):
            latches.set("e.valid", 0)
            if redirect:
                latches.set("a.valid", 0)
            return False
        try:
            opcode = Opcode(latches.get("a.op"))
            info = OPCODE_INFO[opcode]
        except ValueError:
            opcode = None
            info = None
        if info is not None and not latches.get("a.trap"):
            hazards = self._hazard_destinations()
            sources = []
            if info.reads_rs1:
                sources.append(latches.get("a.rs1"))
            if info.reads_rs2:
                sources.append(latches.get("a.rs2"))
            if any(source in hazards for source in sources):
                # Stall: keep the regaccess latch, feed a bubble to execute.
                latches.set("e.valid", 0)
                return True
        latches.set("e.op", latches.get("a.op"))
        latches.set("e.rd", latches.get("a.rd"))
        latches.set("e.imm", latches.get("a.imm"))
        latches.set("e.pc", latches.get("a.pc"))
        latches.set("e.trap", latches.get("a.trap"))
        latches.set("e.trapkind", latches.get("a.trapkind"))
        latches.set("e.rs1val", self._read_register(latches.get("a.rs1")))
        latches.set("e.rs2val", self._read_register(latches.get("a.rs2")))
        latches.set("e.valid", 1)
        latches.set("a.valid", 0)
        return False

    # DE -> RA: decode.
    def _stage_decode_to_regaccess(self, redirect: bool, stalled: bool) -> None:
        latches = self.latches
        if stalled:
            return
        if redirect or not latches.get("d.valid"):
            latches.set("a.valid", 0)
            if redirect:
                latches.set("d.valid", 0)
            return
        word = latches.get("d.inst")
        pc = latches.get("d.pc")
        latches.set("a.pc", pc)
        latches.set("a.valid", 1)
        latches.set("a.trap", 0)
        latches.set("a.trapkind", 0)
        if latches.get("d.fetchfault"):
            latches.set("a.trap", 1)
            latches.set("a.trapkind", _TRAP_CODES[TrapKind.FETCH_FAULT])
            latches.set("a.op", 0)
            latches.set("a.rd", 0)
            latches.set("a.rs1", 0)
            latches.set("a.rs2", 0)
            latches.set("a.imm", 0)
            latches.set("d.valid", 0)
            return
        try:
            instruction = decode_instruction(word)
        except EncodingError:
            latches.set("a.trap", 1)
            latches.set("a.trapkind", _TRAP_CODES[TrapKind.ILLEGAL_INSTRUCTION])
            latches.set("a.op", 0)
            latches.set("a.rd", 0)
            latches.set("a.rs1", 0)
            latches.set("a.rs2", 0)
            latches.set("a.imm", 0)
        else:
            latches.set("a.op", int(instruction.opcode))
            latches.set("a.rd", instruction.rd)
            latches.set("a.rs1", instruction.rs1)
            latches.set("a.rs2", instruction.rs2)
            latches.set("a.imm", instruction.imm)
        latches.set("d.valid", 0)

    # FE -> DE: instruction fetch.
    def _stage_fetch_to_decode(self, redirect: bool, stalled: bool) -> None:
        latches = self.latches
        if stalled:
            return
        if redirect:
            latches.set("d.valid", 0)
            latches.set("f.pc", self._redirect_target)
            latches.set("f.npc", self._redirect_target + WORD_BYTES)
            return
        pc = latches.get("f.pc")
        instruction = self._program.instruction_at(pc) if self._program else None
        if instruction is None:
            # Fetch fault: send a trap-carrying bubble down the pipeline.  It
            # only terminates the run if an older instruction (for example a
            # HALT already in flight) does not commit or redirect first.
            latches.set("d.inst", 0)
            latches.set("d.pc", pc)
            latches.set("d.fetchfault", 1)
            latches.set("d.valid", 1)
            return
        latches.set("d.fetchfault", 0)
        latches.set("d.inst", encode_instruction(instruction))
        latches.set("d.pc", pc)
        latches.set("d.valid", 1)
        latches.set("f.pc", pc + WORD_BYTES)
        latches.set("f.npc", pc + 2 * WORD_BYTES)
        latches.set("ic.ctrl.state", (latches.get("ic.ctrl.state") + 1) & 0xF)
        # Hint-only branch prediction bookkeeping.
        if OPCODE_INFO[instruction.opcode].is_branch:
            self._predictor.predict_taken(pc)

    def _touch_background_state(self) -> None:
        """Advance peripheral hint state so vanish-class flip-flops toggle."""
        latches = self.latches
        latches.set("irq.pending", (latches.get("irq.pending") + 1) & 0xFFFF)

    # ------------------------------------------------------------------ attributes
    _redirect_target: int = 0
