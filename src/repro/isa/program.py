"""Program images: the "binary" that all analyses start from.

A :class:`Program` is the KRISC equivalent of the executables aiT
analyzes: raw section bytes at fixed load addresses plus a symbol table.
CFG reconstruction (:mod:`repro.cfg`) and the concrete simulator
(:mod:`repro.sim`) both consume this object, so the analyses and the
ground-truth execution are guaranteed to see the same bytes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Set, Tuple

from .encoding import INSTRUCTION_SIZE, DecodingError, decode_from_bytes
from .instructions import Instruction, Opcode

#: Default load address of the code section.
TEXT_BASE = 0x1000
#: Default load address of initialised data.
DATA_BASE = 0x8000
#: Default initial stack pointer (full-descending stack).
STACK_BASE = 0x20000
#: Default lowest address the stack may grow down to.
STACK_LIMIT = 0x18000

#: Bytes of slack added around every statically-referenced data object
#: when computing a function's data slice (:meth:`Program.reachable_slice`).
#: Must cover the value analysis's weak-read window
#: (``repro.analysis.state.WEAK_UPDATE_LIMIT``): an imprecisely-addressed
#: load may join words up to that many bytes away from the literal base
#: it was derived from, so neighbouring objects inside the window are
#: part of the slice too.
SLICE_DATA_PADDING = 4096


@dataclass(frozen=True)
class Section:
    """A contiguous region of the program image."""

    name: str
    base: int
    data: bytes

    @property
    def end(self) -> int:
        """One past the last byte of the section."""
        return self.base + len(self.data)

    def contains(self, address: int) -> bool:
        return self.base <= address < self.end


@dataclass(frozen=True)
class FunctionSlice:
    """One function's entry in the per-function digest vector.

    The ``.text`` section is carved at function-symbol boundaries
    (non-local symbols, i.e. names not starting with ``"."``); each
    carved region digests independently, so an edit to one function's
    bytes leaves the digests of every function laid out *before* it —
    and of every function it does not shift — untouched.

    ``code_digest`` is ``sha256`` over, in order: the function's name,
    its start address, every symbol inside ``[start, end)`` as
    ``name@offset`` pairs (sorted), and the raw instruction bytes.
    Addresses are part of the digest deliberately: cached analysis
    artifacts embed absolute addresses, so two functions may only share
    a digest when their bytes *and* placement coincide.

    ``data_refs`` are the start addresses of the symbol-delimited data
    objects the function references through address literals
    (``MOVI``/``MOVHI`` pairs, tracked through ``MOV``/``ADDI``/
    ``SUBI`` copies), padded by :data:`SLICE_DATA_PADDING`;
    ``callees`` are code addresses the function transfers control to
    (calls, out-of-region branches) or takes as literals; the
    reachability walk (:meth:`Program.reachable_slice`) resolves each
    to its containing function.  ``indirect_sites`` lists
    ``BR``/``BLR`` instruction addresses whose targets must come from
    user annotations; ``conservative`` marks a scan that could not
    account for every reference (undecodable word, untracked
    ``MOVHI``), which forces whole-image keying.
    """

    name: str
    start: int
    end: int
    code_digest: str
    data_refs: Tuple[int, ...]
    callees: Tuple[int, ...]
    indirect_sites: Tuple[int, ...]
    conservative: bool


@dataclass(frozen=True)
class DataObject:
    """A symbol-delimited region of a non-text section."""

    name: str
    start: int
    end: int
    digest: str


@dataclass(frozen=True)
class ProgramSlice:
    """Digest pair of the call-graph-reachable part of a program.

    ``code`` digests the reachable functions (placement + bytes +
    symbols) together with the entry point and memory map; ``data``
    digests the data objects those functions reference.  Two programs
    with equal slice digests are indistinguishable to every analysis
    phase run from the same entry, which is what lets the artifact
    cache (:mod:`repro.batch`) key phases on the slice instead of the
    whole image: editing a function outside the slice, or data no
    reachable function references, leaves every phase key stable.

    ``conservative`` is True when the scan fell back to whole-image
    digests (the slice is then exactly as strong as
    :meth:`Program.content_digest`, never weaker).
    """

    code: str
    data: str
    functions: Tuple[str, ...]
    conservative: bool


@dataclass
class MemoryMap:
    """Address-space layout of a program."""

    text_base: int = TEXT_BASE
    data_base: int = DATA_BASE
    stack_base: int = STACK_BASE
    stack_limit: int = STACK_LIMIT

    def stack_capacity(self) -> int:
        """Bytes of stack memory available before overflow."""
        return self.stack_base - self.stack_limit


class Program:
    """A linked KRISC binary: sections, symbols, and an entry point."""

    def __init__(self, sections: List[Section], symbols: Dict[str, int],
                 entry: int, memory_map: Optional[MemoryMap] = None):
        self.sections = list(sections)
        self.symbols = dict(symbols)
        self.entry = entry
        self.memory_map = memory_map or MemoryMap()
        self._by_name = {section.name: section for section in self.sections}
        self._content_digest: Optional[str] = None
        self._function_slices: Optional[Tuple[FunctionSlice, ...]] = None
        self._data_objects: Optional[Tuple[DataObject, ...]] = None
        self._slice_memo: Dict[Tuple, ProgramSlice] = {}

    def content_digest(self) -> str:
        """Stable hex digest of the whole binary image — sections,
        symbol table, entry point, and memory map.  Two programs with
        equal digests are indistinguishable to every analysis, which is
        what makes the digest usable as the program component of
        content-addressed artifact-cache keys (:mod:`repro.batch`)."""
        if self._content_digest is None:
            digest = hashlib.sha256()
            # Variable-length fields are length-prefixed so the hash
            # input stream parses unambiguously.
            for section in self.sections:
                name = section.name.encode()
                digest.update(len(name).to_bytes(8, "little"))
                digest.update(name)
                digest.update(section.base.to_bytes(8, "little"))
                digest.update(len(section.data).to_bytes(8, "little"))
                digest.update(section.data)
            for symbol, address in sorted(self.symbols.items()):
                name = symbol.encode()
                digest.update(len(name).to_bytes(8, "little"))
                digest.update(name)
                digest.update(address.to_bytes(8, "little", signed=True))
            layout = self.memory_map
            digest.update(
                f"entry={self.entry};text={layout.text_base};"
                f"data={layout.data_base};stack={layout.stack_base};"
                f"limit={layout.stack_limit}".encode())
            self._content_digest = digest.hexdigest()
        return self._content_digest

    # -- Section access -------------------------------------------------

    @property
    def text(self) -> Section:
        """The executable code section."""
        return self._by_name[".text"]

    def section(self, name: str) -> Section:
        return self._by_name[name]

    def section_at(self, address: int) -> Optional[Section]:
        """The section containing ``address``, if any."""
        for section in self.sections:
            if section.contains(address):
                return section
        return None

    def is_code_address(self, address: int) -> bool:
        """True if ``address`` is a word-aligned address inside ``.text``."""
        text = self.text
        return text.contains(address) and (address - text.base) % 4 == 0

    # -- Symbols ---------------------------------------------------------

    def symbol_address(self, name: str) -> int:
        try:
            return self.symbols[name]
        except KeyError:
            raise KeyError(f"no such symbol: {name!r}") from None

    def symbol_at(self, address: int) -> Optional[str]:
        """A symbol whose value is exactly ``address``, if one exists."""
        for name, value in self.symbols.items():
            if value == address:
                return name
        return None

    # -- Instruction access ----------------------------------------------

    def instruction_at(self, address: int) -> Instruction:
        """Decode the instruction stored at ``address``."""
        text = self.text
        if not self.is_code_address(address):
            raise ValueError(f"0x{address:x} is not a code address")
        offset = address - text.base
        return decode_from_bytes(text.data[offset:offset + INSTRUCTION_SIZE],
                                 address)

    def iter_instructions(self) -> Iterator[Instruction]:
        """Decode the whole code section in address order."""
        text = self.text
        for offset in range(0, len(text.data), INSTRUCTION_SIZE):
            yield decode_from_bytes(
                text.data[offset:offset + INSTRUCTION_SIZE],
                text.base + offset)

    # -- Initial memory ---------------------------------------------------

    def initial_memory(self) -> Dict[int, int]:
        """Word-addressed initial memory contents (little-endian words)."""
        memory: Dict[int, int] = {}
        for section in self.sections:
            data = section.data
            for offset in range(0, len(data) - len(data) % 4, 4):
                word = int.from_bytes(data[offset:offset + 4], "little")
                memory[section.base + offset] = word
        return memory

    # -- Per-function digest vector ---------------------------------------

    def function_slices(self) -> Tuple[FunctionSlice, ...]:
        """Carve ``.text`` into per-function slices, in address order.

        Carve points are the addresses of non-local symbols (names not
        starting with ``"."``) inside ``.text``, plus the entry point
        and the section base; each slice covers ``[start, next start)``.
        The result is memoised — :class:`Program` is immutable once
        built.
        """
        if self._function_slices is None:
            text = self.text
            starts: Set[int] = {text.base}
            if text.contains(self.entry):
                starts.add(self.entry)
            for name, addr in self.symbols.items():
                if not name.startswith(".") and text.contains(addr):
                    starts.add(addr)
            ordered = sorted(starts)
            bounds = ordered[1:] + [text.end]
            slices = []
            for start, end in zip(ordered, bounds):
                if start >= end:
                    continue
                slices.append(_scan_function(self, start, end))
            self._function_slices = tuple(slices)
        return self._function_slices

    def data_objects(self) -> Tuple[DataObject, ...]:
        """Carve every non-text section at symbol boundaries.

        Each object digests as ``sha256(name | start | raw bytes)``;
        bytes before the first symbol of a section form an anonymous
        object named ``<section>+0x<offset>``.
        """
        if self._data_objects is None:
            objects: List[DataObject] = []
            for section in self.sections:
                if section.name == ".text" or not section.data:
                    continue
                starts = {section.base}
                starts.update(
                    addr for addr in self.symbols.values()
                    if section.contains(addr))
                ordered = sorted(starts)
                bounds = ordered[1:] + [section.end]
                for start, end in zip(ordered, bounds):
                    if start >= end:
                        continue
                    name = self._symbol_naming(start)
                    if name is None:
                        name = f"{section.name}+0x{start - section.base:x}"
                    raw = section.data[start - section.base:
                                       end - section.base]
                    digest = hashlib.sha256()
                    digest.update(f"data|{name}|{start:#x}|".encode())
                    digest.update(raw)
                    objects.append(DataObject(
                        name=name, start=start, end=end,
                        digest=digest.hexdigest()))
            self._data_objects = tuple(sorted(objects,
                                              key=lambda o: o.start))
        return self._data_objects

    def _symbol_naming(self, address: int) -> Optional[str]:
        """First non-local symbol placed exactly at ``address``."""
        names = sorted(name for name, value in self.symbols.items()
                       if value == address and not name.startswith("."))
        return names[0] if names else None

    def _function_containing(self, address: int) -> Optional[FunctionSlice]:
        for fn in self.function_slices():
            if fn.start <= address < fn.end:
                return fn
        return None

    def reachable_slice(self, entry: Optional[int] = None,
                        indirect_targets: Optional[Dict[int, Sequence[int]]]
                        = None) -> ProgramSlice:
        """Digest the part of the program reachable from ``entry``.

        Walks the static call graph over :meth:`function_slices`
        starting at the function containing ``entry`` (default: the
        program entry point).  ``BR``/``BLR`` sites are resolved
        through ``indirect_targets`` (instruction address → possible
        target addresses, the same annotation mapping the CFG builder
        consumes); an unannotated site, an undecodable region, or any
        other scan imprecision degrades the whole slice to
        *conservative*: both digests then derive from
        :meth:`content_digest`, so a conservative slice is never weaker
        a cache key than the monolithic one it replaces.

        The code digest covers the entry point, the memory map, and
        every reachable function's ``(start, code_digest)`` pair; the
        data digest covers every data object referenced by a reachable
        function, widened by :data:`SLICE_DATA_PADDING` bytes to
        include neighbours a weak (imprecisely-addressed) read could
        touch.
        """
        if entry is None:
            entry = self.entry
        memo_key = (entry, _indirect_key(indirect_targets))
        cached = self._slice_memo.get(memo_key)
        if cached is not None:
            return cached

        resolved = {site: tuple(targets)
                    for site, targets in (indirect_targets or {}).items()}
        root = self._function_containing(entry)
        conservative = root is None
        reached: Dict[int, FunctionSlice] = {}
        if root is not None:
            worklist = [root.start]
            while worklist:
                address = worklist.pop()
                fn = self._function_containing(address)
                if fn is None:
                    conservative = True
                    break
                if fn.start in reached:
                    continue
                reached[fn.start] = fn
                if fn.conservative:
                    conservative = True
                    break
                unresolved = [site for site in fn.indirect_sites
                              if not resolved.get(site)]
                if unresolved:
                    conservative = True
                    break
                worklist.extend(fn.callees)
                for site in fn.indirect_sites:
                    worklist.extend(resolved[site])

        if conservative:
            base = self.content_digest()
            result = ProgramSlice(
                code=_hexdigest(f"slice-conservative-code|{base}"
                                f"|entry={entry:#x}"),
                data=_hexdigest(f"slice-conservative-data|{base}"),
                functions=tuple(sorted(fn.name for fn in reached.values())),
                conservative=True)
        else:
            layout = self.memory_map
            code = hashlib.sha256()
            code.update(
                f"slice-code|entry={entry:#x};text={layout.text_base};"
                f"data={layout.data_base};stack={layout.stack_base};"
                f"limit={layout.stack_limit}".encode())
            functions = sorted(reached.values(), key=lambda f: f.start)
            for fn in functions:
                code.update(f"|{fn.start:#x}:{fn.code_digest}".encode())
            referenced: Set[int] = set()
            for fn in functions:
                referenced.update(fn.data_refs)
            objects = [obj for obj in self.data_objects()
                       if obj.start in referenced]
            data = hashlib.sha256()
            data.update(b"slice-data")
            for obj in objects:
                data.update(f"|{obj.name}@{obj.start:#x}:"
                            f"{obj.digest}".encode())
            result = ProgramSlice(
                code=code.hexdigest(), data=data.hexdigest(),
                functions=tuple(fn.name for fn in functions),
                conservative=False)
        self._slice_memo[memo_key] = result
        return result

    def __repr__(self) -> str:
        names = ", ".join(
            f"{s.name}@0x{s.base:x}+{len(s.data)}" for s in self.sections)
        return f"Program(entry=0x{self.entry:x}, sections=[{names}])"


#: Register-to-register/immediate ops through which the reference scan
#: tracks address literals (see :func:`_scan_function`).
_TRACKED_COPY_OPS = frozenset({Opcode.MOV, Opcode.ADDI, Opcode.SUBI})


def _hexdigest(material: str) -> str:
    return hashlib.sha256(material.encode()).hexdigest()


def _indirect_key(mapping: Optional[Dict[int, Sequence[int]]]) -> Tuple:
    if not mapping:
        return ()
    return tuple(sorted(
        (int(site), tuple(sorted(int(t) for t in targets)))
        for site, targets in mapping.items()))


def _scan_function(program: Program, start: int, end: int) -> FunctionSlice:
    """Digest one carved text region and collect its outward references.

    The scan is a single linear pass that abstractly tracks registers
    holding *statically known* values: ``MOVI`` seeds a value, ``MOVHI``
    patches its high half, and ``MOV``/``ADDI``/``SUBI`` propagate it;
    any other write clobbers the tracking.  Every known value produced
    is classified once the pass ends: values landing in a data section
    become data-object references (padded by
    :data:`SLICE_DATA_PADDING`), values landing in ``.text`` become
    callees (address-taken functions).  Direct branch/call targets
    outside ``[start, end)`` are callees too; ``BR``/``BLR`` addresses
    are recorded for annotation-based resolution.  ``conservative`` is
    set when the scan cannot account for a reference: an undecodable
    word, a ``MOVHI`` patching an untracked register, or a branch
    leaving ``.text``.
    """
    text = program.text
    raw = text.data[start - text.base:end - text.base]
    name = program._symbol_naming(start)
    if name is None:
        name = f".text+0x{start - text.base:x}"

    digest = hashlib.sha256()
    digest.update(f"fn|{name}|{start:#x}".encode())
    for sym, value in sorted(program.symbols.items()):
        if start <= value < end:
            digest.update(f"|{sym}@{value - start}".encode())
    digest.update(b"|")
    digest.update(raw)

    known: Dict[int, int] = {}
    literals: Set[int] = set()
    callees: Set[int] = set()
    indirect: Set[int] = set()
    conservative = False

    def record(register: int, value: int) -> None:
        value &= 0xFFFFFFFF
        known[register] = value
        literals.add(value)

    for offset in range(0, len(raw), INSTRUCTION_SIZE):
        address = start + offset
        try:
            instr = decode_from_bytes(
                raw[offset:offset + INSTRUCTION_SIZE], address)
        except DecodingError:
            conservative = True
            break
        op = instr.opcode
        if op is Opcode.MOVI:
            record(instr.rd, instr.imm)
        elif op is Opcode.MOVHI:
            if instr.rd in known:
                record(instr.rd, (known[instr.rd] & 0xFFFF)
                       | ((instr.imm & 0xFFFF) << 16))
            else:
                # The high half of an unknown value: the final address
                # cannot be reconstructed, so the reference escapes.
                conservative = True
                known.pop(instr.rd, None)
        elif op in _TRACKED_COPY_OPS:
            source = known.get(instr.rs1)
            if source is None:
                known.pop(instr.rd, None)
            elif op is Opcode.MOV:
                known[instr.rd] = source
            elif op is Opcode.ADDI:
                record(instr.rd, source + instr.imm)
            else:
                record(instr.rd, source - instr.imm)
        elif op in (Opcode.B, Opcode.BCC, Opcode.BL):
            target = instr.branch_target()
            if target is not None and not (start <= target < end):
                if text.contains(target):
                    callees.add(target)
                else:
                    conservative = True
        elif op in (Opcode.BR, Opcode.BLR):
            indirect.add(address)
            for reg in instr.written_registers():
                known.pop(reg, None)
        else:
            for reg in instr.written_registers():
                known.pop(reg, None)

    data_refs: Set[int] = set()
    for value in literals:
        section = program.section_at(value)
        if section is None:
            continue
        if section.name == ".text":
            # Address-taken code (e.g. a function pointer built with
            # LDA): treat the target as a callee; the reachability walk
            # resolves it to its containing function.
            callees.add(value)
            continue
        window_lo = value - SLICE_DATA_PADDING
        window_hi = value + SLICE_DATA_PADDING
        for obj in program.data_objects():
            if obj.start <= window_hi and obj.end > window_lo:
                data_refs.add(obj.start)

    return FunctionSlice(
        name=name, start=start, end=end, code_digest=digest.hexdigest(),
        data_refs=tuple(sorted(data_refs)),
        callees=tuple(sorted(callees)),
        indirect_sites=tuple(sorted(indirect)),
        conservative=conservative)
