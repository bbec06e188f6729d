"""Program container: assembled text, symbols, and initial memory image."""

from repro.errors import ExecutionError
from repro.isa.instructions import INSTRUCTION_BYTES

#: Default base address of the text segment.
TEXT_BASE = 0x9000

#: Default base address of the data segment.
DATA_BASE = 0x100000


class Program:
    """An assembled program.

    Attributes:
        instructions: List of :class:`~repro.isa.instructions.Instruction`
            in text order.
        symbols: Mapping from label name to absolute address (text labels
            map into the text segment, data labels into the data segment).
        data_image: Mapping from absolute byte address to initial byte
            value for the data segment.
        entry_point: PC of the first instruction to execute.
    """

    def __init__(self, instructions, symbols=None, data_image=None, entry_point=None):
        self.instructions = list(instructions)
        self.symbols = dict(symbols or {})
        self.data_image = dict(data_image or {})
        if not self.instructions:
            raise ExecutionError("a program must contain at least one instruction")
        self.text_base = self.instructions[0].pc
        self.entry_point = entry_point if entry_point is not None else self.text_base
        self._by_pc = {inst.pc: inst for inst in self.instructions}
        if len(self._by_pc) != len(self.instructions):
            raise ExecutionError("duplicate PCs in program text")
        # Memoized content key; the assembler seeds it with the source
        # digest so downstream caches never re-hash the source.
        self._content_digest = None

    def __len__(self):
        return len(self.instructions)

    def content_digest(self):
        """Memoized SHA-256 content key of this program.

        Seeded by the assembler with the digest of the assembly source
        (see :func:`repro.analysis.pipeline.source_digest`), so every
        content-keyed cache — analyses and results — shares one hash
        computation per program.  A program built directly from
        instructions (tests, generators) computes a canonical
        rendering on first use instead.
        """
        digest = self._content_digest
        if digest is None:
            import hashlib

            hasher = hashlib.sha256()
            for instruction in self.instructions:
                hasher.update(repr(instruction).encode("utf-8"))
            hasher.update(repr(sorted(self.data_image.items())).encode("utf-8"))
            hasher.update(str(self.entry_point).encode("utf-8"))
            digest = hasher.hexdigest()
            self._content_digest = digest
        return digest

    def __iter__(self):
        return iter(self.instructions)

    def fetch(self, pc):
        """Return the instruction at ``pc``.

        Raises:
            ExecutionError: If ``pc`` does not address an instruction.
        """
        instruction = self._by_pc.get(pc)
        if instruction is None:
            raise ExecutionError("fetch from invalid PC {:#x}".format(pc))
        return instruction

    def contains_pc(self, pc):
        """Return whether ``pc`` addresses an instruction of this program."""
        return pc in self._by_pc

    def address_of(self, label):
        """Return the address bound to ``label``.

        Raises:
            KeyError: If the label is not defined.
        """
        return self.symbols[label]

    def label_at(self, address):
        """Return some label bound to ``address``, or ``None``."""
        for name, bound in self.symbols.items():
            if bound == address:
                return name
        return None

    def text_end(self):
        """Return the first address past the text segment."""
        return self.instructions[-1].pc + INSTRUCTION_BYTES

    def static_instruction_count(self):
        """Return the number of static instructions."""
        return len(self.instructions)
