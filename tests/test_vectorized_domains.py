"""Differential suite pinning the numpy abstract domains to their
pure-Python reference implementations.

The vectorized cache states (:mod:`repro.cache.vectorized`) and the
packed-array value memory with compiled block transfers
(:mod:`repro.analysis.vectorized`, :func:`repro.analysis.transfer.compile_block`)
must be *bit-identical* to the dict/object reference implementations —
not merely sound.  Hypothesis drives random operation sequences through
both implementations in lockstep and compares canonical forms after
every step; an end-to-end slice then checks whole-analysis parity on
real workloads under both ``REPRO_DOMAIN_IMPL`` settings.
"""

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis import (INT_MAX, INT_MIN, AbstractState, AddressSpace,
                            Interval, VectorMemory, analyze_values,
                            compile_block, transfer_block)
from repro.cache.abstract import Classification, TripleCacheState
from repro.cache.config import CacheConfig
from repro.cache.vectorized import (CacheLineIndex, VectorTripleCacheState,
                                    apply_access, classify_access,
                                    compile_access, compile_block_accesses)
from repro.cfg import build_cfg, expand_task
from repro.domainimpl import (DEFAULT_DOMAIN_IMPL, DOMAIN_IMPL_ENV,
                              resolve_domain_impl)
from repro.isa.instructions import Instruction, Opcode
from repro.lang import compile_program
from repro.wcet import analyze_wcet
from repro.workloads.suite import get_workload
from repro.workloads.synthetic import generate_large_source


# -- Canonical forms --------------------------------------------------------


def canonical_python(state: TripleCacheState):
    return (dict(state.must.ages),
            (state.may.universal, dict(state.may.ages)),
            dict(state.pers.ages))


def canonical_vector(state: VectorTripleCacheState):
    index = state.index
    assoc = index.assoc
    mat = state.mat
    must = {line: int(mat[0, slot])
            for line, slot in index.slot_of.items()
            if mat[0, slot] < assoc}
    may = {line: -int(mat[1, slot])
           for line, slot in index.slot_of.items()
           if mat[1, slot] > -assoc}
    pers = {line: int(mat[2, slot])
            for line, slot in index.slot_of.items()
            if mat[2, slot] >= 0}
    return must, (state.universal, may), pers


def apply_python(state: TripleCacheState, lines) -> None:
    if lines is None:
        state.access_unknown()
    else:
        state.access_range(list(lines))


def classify_python(state: TripleCacheState, lines) -> Classification:
    if lines is None:
        return Classification.NOT_CLASSIFIED
    return state.classify_range(list(lines))


# -- Strategies -------------------------------------------------------------


cache_configs = st.builds(
    CacheConfig,
    num_sets=st.sampled_from([1, 2, 4, 8]),
    associativity=st.sampled_from([1, 2, 4]),
    line_size=st.just(16))


@st.composite
def cache_scenarios(draw):
    """A cache geometry, a line universe, and an access sequence over
    it (single lines, line ranges, and unknown-address accesses)."""
    config = draw(cache_configs)
    universe = draw(st.lists(st.integers(0, 63), min_size=1, max_size=16,
                             unique=True))
    choices = [st.sampled_from(universe).map(lambda line: (line,)),
               st.just(None)]
    if len(universe) >= 2:
        choices.append(
            st.lists(st.sampled_from(universe), min_size=2,
                     max_size=min(5, len(universe)),
                     unique=True).map(tuple))
    access = st.one_of(*choices)
    sequence = draw(st.lists(access, min_size=1, max_size=25))
    return config, universe, sequence


# -- Cache-state lockstep ---------------------------------------------------


@settings(max_examples=120, deadline=None)
@given(cache_scenarios())
def test_cache_access_and_classify_lockstep(scenario):
    """Every access updates both representations identically, and both
    classify identically *before* each access (the order the analysis
    uses them in)."""
    config, universe, sequence = scenario
    index = CacheLineIndex(config, universe)
    py = TripleCacheState(config)
    vec = VectorTripleCacheState(index)
    for lines in sequence:
        compiled = compile_access(index, lines)
        assert classify_python(py, lines) == classify_access(vec, compiled)
        apply_python(py, lines)
        apply_access(vec, compiled)
        assert canonical_python(py) == canonical_vector(vec)


@settings(max_examples=100, deadline=None)
@given(cache_scenarios(), st.data())
def test_cache_join_and_leq_parity(scenario, data):
    """join and leq agree between implementations on states reached by
    arbitrary access sequences (including universal may caches)."""
    config, universe, sequence = scenario
    split = data.draw(st.integers(0, len(sequence)))
    index = CacheLineIndex(config, universe)
    py_a, py_b = TripleCacheState(config), TripleCacheState(config)
    vec_a, vec_b = (VectorTripleCacheState(index),
                    VectorTripleCacheState(index))
    for lines in sequence[:split]:
        apply_python(py_a, lines)
        apply_access(vec_a, compile_access(index, lines))
    for lines in sequence[split:]:
        apply_python(py_b, lines)
        apply_access(vec_b, compile_access(index, lines))

    assert canonical_python(py_a.join(py_b)) \
        == canonical_vector(vec_a.join(vec_b))
    assert py_a.leq(py_b) == vec_a.leq(vec_b)
    assert py_b.leq(py_a) == vec_b.leq(vec_a)
    # leq must be reflexive in both representations.
    assert py_a.leq(py_a) and vec_a.leq(vec_a)


@settings(max_examples=100, deadline=None)
@given(cache_scenarios())
def test_fused_block_accesses_equal_sequential(scenario):
    """compile_block_accesses (repeat elision + distinct-set fusion)
    reproduces the sequential per-access result exactly."""
    config, universe, sequence = scenario
    index = CacheLineIndex(config, universe)
    compiled = [compile_access(index, lines) for lines in sequence]
    fused = compile_block_accesses(index, compiled)
    a = VectorTripleCacheState(index)
    b = VectorTripleCacheState(index)
    for c in compiled:
        apply_access(a, c)
    for c in fused:
        apply_access(b, c)
    assert a.universal == b.universal
    assert np.array_equal(a.mat, b.mat)


def test_fused_block_dedupes_fetch_runs():
    """Instruction-fetch style access lists (each line repeated once
    per instruction) collapse to one fused op per distinct-set run."""
    config = CacheConfig(num_sets=16, associativity=2, line_size=16)
    lines = [100, 101, 102, 103]
    index = CacheLineIndex(config, lines)
    compiled = [compile_access(index, (line,))
                for line in lines for _ in range(4)]
    fused = compile_block_accesses(index, compiled)
    assert len(fused) == 1


# -- Value-state lockstep ---------------------------------------------------


REGS = list(range(8))

alu_reg_ops = st.sampled_from([Opcode.ADD, Opcode.SUB, Opcode.MUL,
                               Opcode.AND, Opcode.OR, Opcode.XOR])
alu_imm_ops = st.sampled_from([Opcode.ADDI, Opcode.SUBI, Opcode.MULI,
                               Opcode.ANDI, Opcode.ORI])
small = st.integers(-64, 64)
addr_imm = st.integers(0, 24).map(lambda k: 0x8000 + 4 * k)


@st.composite
def straight_line_blocks(draw):
    """A random straight-line block over the data-effect opcodes the
    compiled transfer handles, with loads and stores hitting a small
    word-aligned arena."""
    instrs = []
    for _ in range(draw(st.integers(1, 12))):
        kind = draw(st.integers(0, 6))
        rd = draw(st.sampled_from(REGS))
        rs1 = draw(st.sampled_from(REGS))
        rs2 = draw(st.sampled_from(REGS))
        if kind == 0:
            instrs.append(Instruction(draw(alu_reg_ops), rd=rd,
                                      rs1=rs1, rs2=rs2))
        elif kind == 1:
            instrs.append(Instruction(draw(alu_imm_ops), rd=rd, rs1=rs1,
                                      imm=draw(small)))
        elif kind == 2:
            instrs.append(Instruction(Opcode.MOVI, rd=rd,
                                      imm=draw(small)))
        elif kind == 3:
            instrs.append(Instruction(Opcode.MOV, rd=rd, rs1=rs1))
        elif kind == 4:
            instrs.append(Instruction(Opcode.CMPI, rs1=rs1,
                                      imm=draw(small)))
        elif kind == 5:
            instrs.append(Instruction(Opcode.LDR, rd=rd, rs1=rs1,
                                      imm=draw(addr_imm)))
        else:
            instrs.append(Instruction(Opcode.STR, rs1=rs1, rs2=rs2,
                                      imm=draw(addr_imm)))
    seeds = draw(st.lists(st.tuples(st.sampled_from(REGS), small),
                          max_size=4))
    return instrs, seeds


def _interval_key(value):
    return (True,) if value.is_bottom() \
        else (False,) + value.signed_bounds()


def _memory_entries(state):
    return {addr: _interval_key(value)
            for addr, value in state.memory.entries.items()
            if not value.is_top()}


def _states_match(py_state, np_state):
    assert py_state.is_bottom() == np_state.is_bottom()
    if py_state.is_bottom():
        return
    for reg in range(16):
        assert _interval_key(py_state.get(reg)) \
            == _interval_key(np_state.get(reg)), f"R{reg}"
    assert py_state.aliases == np_state.aliases
    assert (py_state.flags is None) == (np_state.flags is None)
    assert _memory_entries(py_state) == _memory_entries(np_state)


def _paired_states(seeds, space=None):
    # Production shares one AddressSpace across every state of a run
    # (slots must line up for lattice ops); pass `space` to model that.
    if space is None:       # an empty space is falsy: test `is None`
        space = AddressSpace()
    py_state = AbstractState(Interval)
    np_state = AbstractState(Interval,
                             memory=VectorMemory(Interval, space))
    for reg, value in seeds:
        # seed rs1 candidates with constants so loads/stores resolve
        py_state.set(reg, Interval.const(value))
        np_state.set(reg, Interval.const(value))
    return py_state, np_state


@settings(max_examples=120, deadline=None)
@given(straight_line_blocks())
def test_compiled_block_matches_python_transfer(block):
    """compile_block over VectorMemory reproduces transfer_block over
    AbstractMemory: registers, aliases, flags, and memory entries
    (absent == top)."""
    instrs, seeds = block
    py_state, np_state = _paired_states(seeds)
    py_out = transfer_block(py_state, instrs)
    np_out = compile_block(instrs, Interval)(np_state)
    _states_match(py_out, np_out)


@settings(max_examples=60, deadline=None)
@given(straight_line_blocks(), straight_line_blocks())
def test_vector_memory_lattice_parity(block_a, block_b):
    """join/widen/narrow/leq on states reached by different blocks
    agree between the packed-array memory and the dict memory."""
    instrs_a, seeds = block_a
    instrs_b, _ = block_b
    space = AddressSpace()
    py_a, np_a = _paired_states(seeds, space)
    py_b, np_b = _paired_states(seeds, space)
    py_a = transfer_block(py_a, instrs_a)
    np_a = compile_block(instrs_a, Interval)(np_a)
    py_b = transfer_block(py_b, instrs_b)
    np_b = compile_block(instrs_b, Interval)(np_b)

    assert py_a.leq(py_b) == np_a.leq(np_b)
    assert py_b.leq(py_a) == np_b.leq(np_a)
    _states_match(py_a.join(py_b), np_a.join(np_b))
    thresholds = (-16, 0, 10, 100)
    _states_match(py_a.widen(py_b, thresholds),
                  np_a.widen(np_b, thresholds))
    _states_match(py_a.narrow(py_b), np_a.narrow(np_b))


def _state_key(state):
    """Everything a state holds, flags included, in comparable form."""
    if state.is_bottom():
        return None
    flags = state.flags and (state.flags.left_reg, state.flags.right_reg,
                             _interval_key(state.flags.left),
                             _interval_key(state.flags.right))
    return ([_interval_key(state.get(reg)) for reg in range(16)],
            dict(state.aliases), flags, _memory_entries(state))


@settings(max_examples=60, deadline=None)
@given(straight_line_blocks(), straight_line_blocks())
def test_state_narrowing_is_idempotent(block_a, block_b):
    """narrow(narrow(a, b), b) == narrow(a, b) under both memories, for
    an ``a`` that covers ``b`` as the ascending result covers the joined
    inputs in the kernel's narrowing passes: the registers, the alias
    intersection, the flags (taken from ``b``) and every memory word.
    The kernel skips a node whose inputs did not change on this
    ground."""
    instrs_a, seeds = block_a
    instrs_b, _ = block_b
    space = AddressSpace()
    py_a, np_a = _paired_states(seeds, space)
    py_b, np_b = _paired_states(seeds, space)
    pairs = ((transfer_block(py_a, instrs_a), transfer_block(py_b, instrs_b)),
             (compile_block(instrs_a, Interval)(np_a),
              compile_block(instrs_b, Interval)(np_b)))
    for a, b in pairs:
        joined = a.join(b)
        for upper in (joined, b.widen(joined, (-16, 0, 10, 100))):
            assert b.leq(upper)
            once = upper.narrow(b)
            twice = once.narrow(b)
            assert _state_key(twice) == _state_key(once)
            assert once.leq(twice) and twice.leq(once)


def test_vector_memory_copy_on_write_identity():
    """copy() shares the packed arrays until a write materializes them,
    and same_entries sees through the sharing (the identity fast path
    the fixpoint kernel relies on)."""
    memory = VectorMemory(Interval, AddressSpace())
    memory.seed(0x8000, Interval.const(7))
    clone = memory.copy()
    assert clone.same_entries(memory)
    clone.seed(0x8004, Interval.const(9))
    assert not clone.same_entries(memory)
    assert 0x8004 not in memory.entries
    assert memory.entries[0x8000].signed_bounds() == (7, 7)


# -- Image-layer lockstep ---------------------------------------------------
#
# analyze_values gives the packed memory the code image as one read-only
# layer of the address space and seeds only the other sections, while
# the dict oracle seeds every word.  These tests drive both through the
# updates that may reach a code word and compare every read.

IMAGE_BASE = 0x1000
IMAGE_WORDS = [7, -3, 0, INT_MAX, INT_MIN, 42, 0x1234, -1, 5, 6, 7, 8,
               9, 10, 11, 12]
IMAGE_END = IMAGE_BASE + 4 * len(IMAGE_WORDS)       # 0x1040
#: Data words right behind the image, so ranges can span both parts.
DATA_WORDS = {IMAGE_END + 4 * k: 100 + k for k in range(4)}
ARENA = (IMAGE_BASE - 8, IMAGE_END + 24)

STRONG_INTO_TEXT = ("strong", IMAGE_BASE + 8, None, Interval(-5, 5))
WEAK_ACROSS_TEXT_END = ("weak", IMAGE_END - 8, IMAGE_END + 4,
                        Interval(1000, 1000))
HAVOC_OVER_TEXT = ("weak", IMAGE_BASE + 0x20 - 0x1001, IMAGE_BASE + 0x20,
                   Interval(0, 0))      # wider than WEAK_UPDATE_LIMIT


def _image_pair(memory_ranges=None):
    """Entry memories as analyze_values builds them: the dict oracle
    seeded with image and data, the packed memory over an image layer
    seeded with the data only."""
    image = b"".join(word.to_bytes(4, "little", signed=True)
                     for word in IMAGE_WORDS)
    everything = {IMAGE_BASE + 4 * index: word & 0xFFFFFFFF
                  for index, word in enumerate(IMAGE_WORDS)}
    everything.update(DATA_WORDS)
    py = AbstractState.entry_state(Interval, 0x20000, everything,
                                   memory_ranges=memory_ranges)
    vec = AbstractState.entry_state(
        Interval, 0x20000, DATA_WORDS, memory_ranges=memory_ranges,
        memory=VectorMemory(Interval, AddressSpace(IMAGE_BASE, image)))
    return py.memory, vec.memory


def _store(memory, op):
    kind, lo, hi, value = op
    memory.store(Interval.const(lo) if kind == "strong"
                 else Interval(lo, hi), value)


def _entries(memory):
    return {addr: _interval_key(value)
            for addr, value in memory.entries.items()
            if not value.is_top()}


def _reads_match(py, vec):
    assert _entries(py) == _entries(vec)
    for word in range(ARENA[0], ARENA[1] + 1, 4):
        assert _interval_key(py.load(Interval.const(word))) \
            == _interval_key(vec.load(Interval.const(word))), hex(word)
        # A range load spanning image and own words (or untracked ones).
        span = Interval(word - 6, word + 6)
        assert _interval_key(py.load(span)) \
            == _interval_key(vec.load(span)), hex(word)


def _lattice_matches(py_a, vec_a, py_b, vec_b):
    thresholds = (-16, 0, 10, 100)
    for py, vec in ((py_a.join(py_b), vec_a.join(vec_b)),
                    (py_a.widen(py_b, thresholds),
                     vec_a.widen(vec_b, thresholds)),
                    (py_a.narrow(py_b), vec_a.narrow(vec_b))):
        _reads_match(py, vec)
    assert py_a.leq(py_b) == vec_a.leq(vec_b)
    assert py_b.leq(py_a) == vec_b.leq(vec_a)


@pytest.mark.parametrize("op", [STRONG_INTO_TEXT, WEAK_ACROSS_TEXT_END,
                                HAVOC_OVER_TEXT],
                         ids=["strong", "weak-across-end", "havoc"])
def test_image_updates_match_full_image_oracle(op):
    py_entry, vec_entry = _image_pair()
    _reads_match(py_entry, vec_entry)
    py, vec = py_entry.copy(), vec_entry.copy()
    _store(py, op)
    _store(vec, op)
    _reads_match(py, vec)
    # The entry memory keeps reading the untouched image.
    _reads_match(py_entry, vec_entry)
    assert vec_entry._ilo is vec_entry.space.image_lo
    _lattice_matches(py, vec, py_entry, vec_entry)
    _lattice_matches(py_entry, vec_entry, py, vec)


def test_memory_range_on_a_text_word_matches_oracle():
    py, vec = _image_pair(memory_ranges={IMAGE_BASE + 4: (0, 9)})
    _reads_match(py, vec)
    assert _entries(vec)[IMAGE_BASE + 4] == (False, 0, 9)
    py_plain, vec_plain = _image_pair()
    _lattice_matches(py, vec, py_plain, vec_plain)
    _lattice_matches(py_plain, vec_plain, py, vec)


image_ops = st.tuples(
    st.sampled_from(["strong", "weak", "weak"]),
    st.integers(*ARENA), st.integers(0, 40),
    st.one_of(st.builds(lambda lo, width: Interval(lo, lo + width),
                        small, st.integers(0, 8)),
              st.just(Interval.bottom()))).map(
    lambda op: (op[0], op[1], op[1] + op[2], op[3]))


@settings(max_examples=80, deadline=None)
@given(st.lists(image_ops, max_size=6), st.lists(image_ops, max_size=6),
       st.booleans())
def test_image_layer_lockstep(ops_a, ops_b, havoc):
    """Random strong and weak stores over the arena around the image
    end (and optionally a havoc over the whole image) keep the packed
    memory equal to the full-image oracle, under every lattice op."""
    py_entry, vec_entry = _image_pair()
    sides = []
    for ops in (ops_a, ops_b + [HAVOC_OVER_TEXT] * havoc):
        py, vec = py_entry.copy(), vec_entry.copy()
        for op in ops:
            _store(py, op)
            _store(vec, op)
        _reads_match(py, vec)
        sides.append((py, vec))
    (py_a, vec_a), (py_b, vec_b) = sides
    _lattice_matches(py_a, vec_a, py_b, vec_b)
    _lattice_matches(py_b, vec_b, py_a, vec_a)


def test_large_point_states_share_one_image():
    """No state of the large point copies the code image: every entry
    state references the space's image arrays, and its own arrays hold
    only data and stack words."""
    program = compile_program(generate_large_source())
    graph = expand_task(build_cfg(program))
    values = analyze_values(graph, domain_impl="numpy")
    states = [state for state in values.fixpoint.entry_states.values()
              if not state.is_bottom()]
    assert len(states) > 500
    space = states[0].memory.space
    assert space.image_end - space.image_base == len(program.text.data)
    for state in states:
        memory = state.memory
        assert memory.space is space
        assert memory._ilo is space.image_lo
        assert memory._ihi is space.image_hi
        assert len(memory._lo) <= 128


# -- Toggle plumbing --------------------------------------------------------


def test_resolve_domain_impl_precedence(monkeypatch):
    monkeypatch.delenv(DOMAIN_IMPL_ENV, raising=False)
    assert resolve_domain_impl() == DEFAULT_DOMAIN_IMPL
    monkeypatch.setenv(DOMAIN_IMPL_ENV, "python")
    assert resolve_domain_impl() == "python"
    # An explicit argument beats the environment.
    assert resolve_domain_impl("numpy") == "numpy"
    with pytest.raises(ValueError):
        resolve_domain_impl("fortran")
    monkeypatch.setenv(DOMAIN_IMPL_ENV, "fortran")
    with pytest.raises(ValueError):
        resolve_domain_impl()


def test_phase_cache_keys_distinguish_impls(tmp_path):
    """Artifact-cache keys must incorporate the implementation so a
    python-impl artifact is never served to a numpy-impl run."""
    from repro.batch import ArtifactCache
    workload = get_workload("fibcall")
    program = workload.compile()
    cache = ArtifactCache(str(tmp_path), salt="s")
    analyze_wcet(program, phase_cache=cache, domain_impl="python")
    misses = cache.misses
    assert cache.hits == 0 and misses > 0
    # Same program under the other impl: the vectorized phases miss.
    analyze_wcet(program, phase_cache=cache, domain_impl="numpy")
    assert cache.misses > misses


# -- End-to-end parity ------------------------------------------------------


@pytest.mark.parametrize("name", ["fibcall", "insertsort", "crc"])
def test_analyze_wcet_parity_across_impls(name):
    """Whole-pipeline bit-identity: bounds and cache classifications
    are equal under both implementations."""
    program = get_workload(name).compile()
    py = analyze_wcet(program, domain_impl="python")
    vec = analyze_wcet(program, domain_impl="numpy")
    assert py.domain_impl == "python" and vec.domain_impl == "numpy"
    assert py.wcet_cycles == vec.wcet_cycles
    assert {node: [c.name for c in outcomes]
            for node, outcomes in py.icache.classifications.items()} \
        == {node: [c.name for c in outcomes]
            for node, outcomes in vec.icache.classifications.items()}
    assert py.dcache.stats == vec.dcache.stats
    # Per-node value-analysis entry states agree (memories compared by
    # their materialised entries, absent == top).
    for node, py_state in py.values.fixpoint.entry_states.items():
        np_state = vec.values.fixpoint.entry_states[node]
        _states_match(py_state, np_state)


def test_env_toggle_drives_analysis(monkeypatch):
    program = get_workload("fibcall").compile()
    monkeypatch.setenv(DOMAIN_IMPL_ENV, "python")
    assert analyze_wcet(program).domain_impl == "python"
    monkeypatch.delenv(DOMAIN_IMPL_ENV)
    assert analyze_wcet(program).domain_impl == DEFAULT_DOMAIN_IMPL
    # An explicit argument beats the environment.
    monkeypatch.setenv(DOMAIN_IMPL_ENV, "numpy")
    assert analyze_wcet(program, domain_impl="python").domain_impl \
        == "python"
