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

from repro.analysis import (AbstractMemory, AbstractState, AddressSpace,
                            Interval, VectorMemory, compile_block,
                            transfer_block)
from repro.cache.abstract import Classification, TripleCacheState
from repro.cache.config import CacheConfig
from repro.cache.vectorized import (CacheLineIndex, VectorTripleCacheState,
                                    apply_access, classify_access,
                                    compile_access, compile_block_accesses)
from repro.domainimpl import (DEFAULT_DOMAIN_IMPL, DOMAIN_IMPL_ENV,
                              resolve_domain_impl)
from repro.isa.instructions import Instruction, Opcode
from repro.wcet import analyze_wcet
from repro.workloads.suite import get_workload


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
