"""Pre-decoded instruction records: the simulation fast path.

The timing and functional simulators spend their lives in per-cycle /
per-instruction loops.  Walking ``record.inst.<attribute>`` chains and
comparing :class:`~repro.isa.instructions.Opcode` enum members on every
iteration dominates those loops, so this module lowers both
representations once, up front:

* :func:`decode_program` flattens each static
  :class:`~repro.isa.instructions.Instruction` into a plain tuple of
  ``int`` operands, consumed by the functional interpreter's dispatch
  loop (:mod:`repro.sim.functional`).
* :func:`decode_trace` lowers a committed
  :class:`~repro.sim.trace.Trace` into parallel flat arrays (one slot
  per trace index), consumed by the PolyFlow timing kernel's fetch /
  issue / commit loops and its dependence checks
  (:mod:`repro.polyflow.core`).

Both are pure views: they carry exactly the information the original
objects carry, so consuming them cannot change simulated behaviour —
the golden-trace and differential suites pin that equivalence byte for
byte.  Decoded forms are memoized on their source object
(``Trace.decoded()`` / the program's ``_decoded`` attribute), so one
decode is shared by every simulation of the same program or trace.
"""

from repro.isa.instructions import INSTRUCTION_BYTES, REGISTER_ALIASES

_RA = REGISTER_ALIASES["ra"]

# -- control-flow kinds (fetch-loop dispatch) ---------------------------------

#: No effect on the fetch stream.
KIND_PLAIN = 0
#: Conditional branch: consult gshare, stall on mispredict, stop on taken.
KIND_COND_BRANCH = 1
#: Direct call (JAL): push the return address, stop fetching.
KIND_CALL_DIRECT = 2
#: Indirect call (JALR): push, consult the indirect predictor, stop.
KIND_CALL_INDIRECT = 3
#: Return (JR through ``ra``): pop the return address stack, stop.
KIND_RETURN = 4
#: Indirect jump (JR through any other register): indirect predictor, stop.
KIND_SWITCH = 5
#: Direct jump (J): perfectly predicted taken transfer, stop.
KIND_DIRECT_JUMP = 6

# -- latency classes (issue-loop dispatch) ------------------------------------

LAT_ALU = 0
LAT_MUL = 1
LAT_LOAD = 2
LAT_STORE = 3


def control_kind(inst):
    """The fetch-loop ``KIND_*`` of one instruction.

    Mirrors the branch structure of the timing model's fetch stage: the
    call test precedes the return/direct-jump tests, so JAL classifies
    as a direct call (not a direct jump) and JALR as an indirect call.
    """
    if inst.is_conditional_branch:
        return KIND_COND_BRANCH
    if inst.is_call:
        return KIND_CALL_INDIRECT if inst.is_indirect_jump else KIND_CALL_DIRECT
    if inst.is_return_like:
        return KIND_RETURN if inst.rs == _RA else KIND_SWITCH
    if inst.is_direct_jump:
        return KIND_DIRECT_JUMP
    return KIND_PLAIN


def latency_class(inst):
    """The issue-loop ``LAT_*`` of one instruction."""
    if inst.is_load:
        return LAT_LOAD
    if inst.is_store:
        return LAT_STORE
    if inst.latency_class == "mul":
        return LAT_MUL
    return LAT_ALU


class DecodedTrace:
    """Flat per-trace-index arrays mirroring a committed trace.

    Every array has one slot per trace record.  Register/memory
    producer edges keep the record's semantics: ``dep0``/``dep1`` are
    the (up to two) source-register producer sequence numbers in
    rs-then-rt order, ``-1`` marking an absent source or a value that
    predates the trace.
    """

    __slots__ = (
        "length",
        "pc",
        "kind",
        "lat",
        "taken",
        "next_pc",
        "fall_through",
        "mem_addr",
        "mem_dep",
        "dep0",
        "dep1",
        "_lines_by_shift",
    )

    def __init__(self, length):
        self.length = length
        self.pc = [0] * length
        #: ``KIND_*`` control classification (bytearray: compact + fast).
        self.kind = bytearray(length)
        #: ``LAT_*`` latency classification.
        self.lat = bytearray(length)
        #: 1 when the dynamic branch was taken.
        self.taken = bytearray(length)
        self.next_pc = [0] * length
        self.fall_through = [0] * length
        #: Byte address of the first word a load/store touches (0 otherwise).
        self.mem_addr = [0] * length
        self.mem_dep = [-1] * length
        self.dep0 = [-1] * length
        self.dep1 = [-1] * length
        self._lines_by_shift = {}

    def icache_lines(self, offset_bits):
        """The I-cache line index of every pc (memoized per line size).

        A derived flat column: ``pc >> offset_bits`` for each slot.
        Every core over the same trace reads the identical line column,
        so it is computed once per (trace, line size) instead of once
        per core construction — a figure grid simulates many cells of
        one trace.
        """
        lines = self._lines_by_shift.get(offset_bits)
        if lines is None:
            lines = [pc >> offset_bits for pc in self.pc]
            self._lines_by_shift[offset_bits] = lines
        return lines


def decode_trace(trace):
    """Lower ``trace`` into a :class:`DecodedTrace` (one pass)."""
    records = trace.records
    decoded = DecodedTrace(len(records))
    pcs = decoded.pc
    kinds = decoded.kind
    lats = decoded.lat
    takens = decoded.taken
    next_pcs = decoded.next_pc
    fall_throughs = decoded.fall_through
    mem_addrs = decoded.mem_addr
    mem_deps = decoded.mem_dep
    dep0 = decoded.dep0
    dep1 = decoded.dep1
    for index, record in enumerate(records):
        inst = record.inst
        pcs[index] = inst.pc
        kinds[index] = control_kind(inst)
        lats[index] = latency_class(inst)
        if record.taken:
            takens[index] = 1
        next_pcs[index] = record.next_pc
        fall_throughs[index] = inst.pc + INSTRUCTION_BYTES
        if record.mem_keys:
            mem_addrs[index] = record.mem_keys[0] << 3
        mem_deps[index] = record.mem_dep
        reg_deps = record.reg_deps
        if reg_deps:
            dep0[index] = reg_deps[0]
            if len(reg_deps) > 1:
                dep1[index] = reg_deps[1]
    return decoded


# -- static program predecode (functional interpreter) ------------------------


def _source_count(inst):
    if inst.rs is None:
        return 0
    if inst.rt is None:
        return 1
    return 2


def decode_program(program):
    """Flat operand records for every static instruction of ``program``.

    Returns a dict mapping each text PC to the tuple::

        (opcode, rd, rs, rt, imm, target, nsrc, inst)

    where every operand is a plain ``int`` (absent operands decode to
    0 — each opcode's interpreter path only reads the operands the ISA
    defines for it, so the placeholder is never observable), ``nsrc``
    is the number of register sources for producer tracking, and
    ``inst`` is the original :class:`Instruction` for the emitted
    trace records.  Memoized on the program object.
    """
    decoded = getattr(program, "_decoded", None)
    if decoded is not None:
        return decoded
    decoded = {}
    for inst in program.instructions:
        decoded[inst.pc] = (
            int(inst.opcode),
            inst.rd if inst.rd is not None else 0,
            inst.rs if inst.rs is not None else 0,
            inst.rt if inst.rt is not None else 0,
            inst.imm,
            inst.target if inst.target is not None else 0,
            _source_count(inst),
            inst,
        )
    program._decoded = decoded
    return decoded
