"""Architectural (functional) simulator for the repro ISA.

Executes a :class:`~repro.isa.program.Program` to completion (or to an
instruction budget) and produces the committed-path
:class:`~repro.sim.trace.Trace` that drives the timing models.  The
paper's simulator compares out-of-order results against an architectural
simulator at retirement; here the architectural simulator is the single
source of truth and the timing models replay its trace.

That single trace anchors the timing side: its staged reference and
fused fast engines (:class:`~repro.polyflow.core.PolyFlowCore`) must
replay those records into identical event streams, which the
differential suites pin.
"""

from repro.errors import ExecutionError
from repro.isa.instructions import INSTRUCTION_BYTES, NUM_REGISTERS, Opcode
from repro.sim.predecode import decode_program
from repro.sim.trace import Trace, TraceRecord

_WORD_MASK = (1 << 64) - 1
_SIGN_BIT = 1 << 63

# Plain-int opcode constants: the interpreter dispatches on these to
# avoid IntEnum comparison overhead in the per-instruction loop.  The
# Opcode values are contiguous, so range checks select operand classes.
_ADD = int(Opcode.ADD)
_SUB = int(Opcode.SUB)
_MUL = int(Opcode.MUL)
_AND = int(Opcode.AND)
_OR = int(Opcode.OR)
_XOR = int(Opcode.XOR)
_SLT = int(Opcode.SLT)
_SLL = int(Opcode.SLL)
_SRL = int(Opcode.SRL)
_ADDI = int(Opcode.ADDI)
_ANDI = int(Opcode.ANDI)
_ORI = int(Opcode.ORI)
_XORI = int(Opcode.XORI)
_SLTI = int(Opcode.SLTI)
_SLLI = int(Opcode.SLLI)
_SRLI = int(Opcode.SRLI)
_LUI = int(Opcode.LUI)
_LW = int(Opcode.LW)
_LH = int(Opcode.LH)
_LB = int(Opcode.LB)
_SW = int(Opcode.SW)
_SH = int(Opcode.SH)
_SB = int(Opcode.SB)
_BEQ = int(Opcode.BEQ)
_BNE = int(Opcode.BNE)
_BGEZ = int(Opcode.BGEZ)
_BGTZ = int(Opcode.BGTZ)
_BLEZ = int(Opcode.BLEZ)
_BLTZ = int(Opcode.BLTZ)
_J = int(Opcode.J)
_JAL = int(Opcode.JAL)
_JR = int(Opcode.JR)
_JALR = int(Opcode.JALR)
_NOP = int(Opcode.NOP)
_HALT = int(Opcode.HALT)

#: Default cap on executed instructions, to catch runaway programs.
DEFAULT_MAX_INSTRUCTIONS = 5_000_000


def _to_signed(value):
    """Interpret a 64-bit pattern as a signed integer."""
    value &= _WORD_MASK
    if value & _SIGN_BIT:
        return value - (1 << 64)
    return value


class MachineState:
    """Architectural register file and byte-addressed memory."""

    def __init__(self, program):
        self.registers = [0] * NUM_REGISTERS
        self.memory = dict(program.data_image)
        self.pc = program.entry_point

    def read_register(self, index):
        """Return the 64-bit value of register ``index``."""
        return self.registers[index]

    def write_register(self, index, value):
        """Write ``value`` to register ``index`` (writes to r0 discard)."""
        if index != 0:
            self.registers[index] = value & _WORD_MASK

    def load(self, address, nbytes, signed=True):
        """Load ``nbytes`` little-endian bytes from ``address``."""
        memory = self.memory
        value = 0
        for offset in range(nbytes):
            value |= memory.get(address + offset, 0) << (8 * offset)
        if signed and value & (1 << (8 * nbytes - 1)):
            value -= 1 << (8 * nbytes)
        return value & _WORD_MASK

    def store(self, address, value, nbytes):
        """Store the low ``nbytes`` bytes of ``value`` at ``address``."""
        memory = self.memory
        for offset in range(nbytes):
            memory[address + offset] = (value >> (8 * offset)) & 0xFF


def _chunk_keys(address, nbytes):
    """Word-aligned chunk keys covering [address, address + nbytes)."""
    first = address >> 3
    last = (address + nbytes - 1) >> 3
    if first == last:
        return (first,)
    return tuple(range(first, last + 1))


class FunctionalSimulator:
    """Executes programs and emits committed-path traces."""

    def __init__(self, program, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
        self.program = program
        self.max_instructions = max_instructions

    def run(self):
        """Execute the program and return its :class:`Trace`.

        The interpreter walks the pre-decoded flat operand records of
        :func:`~repro.sim.predecode.decode_program`, so the hot loop
        dispatches on plain ints and never touches instruction
        attributes.

        Raises:
            ExecutionError: On an invalid PC, a memory access outside the
                positive address space, or other illegal behaviour.
        """
        program = self.program
        state = MachineState(program)
        registers = state.registers
        decoded = decode_program(program)
        fetch_entry = decoded.get
        load = state.load
        store = state.store

        records = []
        append = records.append
        reg_last_writer = [-1] * NUM_REGISTERS
        mem_last_writer = {}
        last_mem_writer = mem_last_writer.get

        pc = state.pc
        seq = 0
        halted = False
        max_instructions = self.max_instructions

        while seq < max_instructions:
            entry = fetch_entry(pc)
            if entry is None:
                raise ExecutionError("fetch from invalid PC {:#x}".format(pc))
            opcode, rd, rs, rt, imm, target, nsrc, inst = entry
            next_pc = pc + INSTRUCTION_BYTES
            taken = False
            mem_keys = ()
            mem_dep = -1

            if opcode <= _SRL:  # ALU register-register
                a = registers[rs]
                b = registers[rt]
                if opcode == _ADD:
                    value = a + b
                elif opcode == _SUB:
                    value = a - b
                elif opcode == _MUL:
                    value = _to_signed(a) * _to_signed(b)
                elif opcode == _AND:
                    value = a & b
                elif opcode == _OR:
                    value = a | b
                elif opcode == _XOR:
                    value = a ^ b
                elif opcode == _SLT:
                    value = 1 if _to_signed(a) < _to_signed(b) else 0
                elif opcode == _SLL:
                    value = a << (b & 63)
                else:  # SRL
                    value = a >> (b & 63)
                if rd:
                    registers[rd] = value & _WORD_MASK
            elif opcode <= _SRLI:  # ALU register-immediate
                a = registers[rs]
                if opcode == _ADDI:
                    value = a + imm
                elif opcode == _ANDI:
                    value = a & imm
                elif opcode == _ORI:
                    value = a | imm
                elif opcode == _XORI:
                    value = a ^ imm
                elif opcode == _SLTI:
                    value = 1 if _to_signed(a) < imm else 0
                elif opcode == _SLLI:
                    value = a << (imm & 63)
                else:  # SRLI
                    value = a >> (imm & 63)
                if rd:
                    registers[rd] = value & _WORD_MASK
            elif opcode == _LUI:
                if rd:
                    registers[rd] = (imm << 16) & _WORD_MASK
            elif opcode <= _LB:  # loads
                address = (registers[rs] + imm) & _WORD_MASK
                nbytes = 8 if opcode == _LW else (2 if opcode == _LH else 1)
                value = load(address, nbytes)
                if rd:
                    registers[rd] = value
                first = address >> 3
                last = (address + nbytes - 1) >> 3
                mem_keys = (first,) if first == last else tuple(range(first, last + 1))
                for key in mem_keys:
                    writer = last_mem_writer(key, -1)
                    if writer > mem_dep:
                        mem_dep = writer
            elif opcode <= _SB:  # stores
                address = (registers[rs] + imm) & _WORD_MASK
                nbytes = 8 if opcode == _SW else (2 if opcode == _SH else 1)
                store(address, registers[rt], nbytes)
                first = address >> 3
                last = (address + nbytes - 1) >> 3
                mem_keys = (first,) if first == last else tuple(range(first, last + 1))
                for key in mem_keys:
                    mem_last_writer[key] = seq
            elif opcode <= _BLTZ:  # conditional branches
                if opcode == _BEQ:
                    taken = registers[rs] == registers[rt]
                elif opcode == _BNE:
                    taken = registers[rs] != registers[rt]
                else:
                    a = _to_signed(registers[rs])
                    if opcode == _BGEZ:
                        taken = a >= 0
                    elif opcode == _BGTZ:
                        taken = a > 0
                    elif opcode == _BLEZ:
                        taken = a <= 0
                    else:  # BLTZ
                        taken = a < 0
                if taken:
                    next_pc = target
            elif opcode == _J:
                next_pc = target
                taken = True
            elif opcode == _JAL:
                registers[31] = next_pc
                next_pc = target
                taken = True
            elif opcode == _JR:
                next_pc = registers[rs]
                taken = True
            elif opcode == _JALR:
                jump_to = registers[rs]
                registers[31] = next_pc
                next_pc = jump_to
                taken = True
            elif opcode == _NOP:
                pass
            elif opcode == _HALT:
                halted = True
            else:  # pragma: no cover - all opcodes handled above
                raise ExecutionError("unimplemented opcode {!r}".format(opcode))

            # Producer edges for the timing models.
            if nsrc == 0:
                reg_deps = ()
            elif nsrc == 1:
                reg_deps = (reg_last_writer[rs],)
            else:
                reg_deps = (reg_last_writer[rs], reg_last_writer[rt])

            append(TraceRecord(seq, inst, next_pc, taken, mem_keys, mem_dep, reg_deps))

            if rd:  # r0 writes are discarded
                reg_last_writer[rd] = seq

            if halted:
                seq += 1
                break
            pc = next_pc
            seq += 1

        self.final_state = state
        return Trace(records, halted)


def run_program(program, max_instructions=DEFAULT_MAX_INSTRUCTIONS):
    """Execute ``program`` and return its committed-path :class:`Trace`."""
    return FunctionalSimulator(program, max_instructions).run()
