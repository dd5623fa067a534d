"""Direct unit tests for the krisc5 abstract pipeline-state domain.

Covers the algebra (:class:`repro.pipeline.PipeStateSet`): join
commutativity/associativity on hand-built states, ``leq`` consistency
with ``join``, deterministic cap merging — and the per-instruction
stage-occupancy transfer function (:func:`repro.pipeline.walk_block`):
EX occupancy of multiplies, fetch/EX overlap, load-use interlocks,
MEM-unit queueing, persistence one-time costs, and monotonicity in the
entry state (the property dominance pruning relies on).
"""

import itertools

import pytest

from repro.cache.abstract import Classification
from repro.cache.config import MachineConfig
from repro.cfg import build_cfg
from repro.isa import assemble
from repro.pipeline import PipeState, PipeStateSet, walk_block

CONFIG = MachineConfig.default()
AH = Classification.ALWAYS_HIT
AM = Classification.ALWAYS_MISS
PS = Classification.PERSISTENT
NC = Classification.NOT_CLASSIFIED

EMPTY = PipeState()


def sset(*states, cap=8):
    return PipeStateSet(states, cap)


def windows(*pairs):
    """A state with the given ``(register, delay)`` load-use windows;
    pairs with a zero delay are left out."""
    return PipeState(pending=tuple((reg, delay) for reg, delay in pairs
                                   if delay))


class TestPipeStateAlgebra:
    STATES = [
        PipeState(),
        windows((9, 3)),
        windows((2, 1)),
        windows((2, 2), (5, 1)),
        windows((5, 3), (9, 1)),
        windows((2, 1), (3, 2), (9, 7)),
    ]

    def test_dominates_is_reflexive_and_componentwise(self):
        for state in self.STATES:
            assert state.dominates(state)
        big = windows((2, 2), (5, 1), (9, 5))
        assert big.dominates(windows((2, 1)))
        assert big.dominates(windows((9, 5)))
        assert not big.dominates(windows((9, 6)))
        assert not big.dominates(windows((7, 1)))

    def test_merge_is_an_upper_bound(self):
        for a, b in itertools.combinations(self.STATES, 2):
            merged = a.merge(b)
            assert merged.dominates(a) and merged.dominates(b)

    def test_join_commutative(self):
        for a, b in itertools.combinations(self.STATES, 2):
            lhs = sset(a).join(sset(b))
            rhs = sset(b).join(sset(a))
            assert lhs == rhs

    def test_join_associative(self):
        for a, b, c in itertools.combinations(self.STATES, 3):
            lhs = sset(a).join(sset(b)).join(sset(c))
            rhs = sset(a).join(sset(b).join(sset(c)))
            assert lhs == rhs

    def test_join_consistent_with_leq(self):
        for a, b in itertools.product(self.STATES, repeat=2):
            joined = sset(a).join(sset(b))
            assert sset(a).leq(joined)
            assert sset(b).leq(joined)
        # a ⊑ b  ⟹  a ⊔ b ≡ b
        small, big = sset(windows((2, 1))), sset(windows((2, 2), (9, 2)))
        assert small.leq(big)
        assert small.join(big) == big

    def test_dominated_states_are_pruned(self):
        merged = sset(windows((9, 4)), windows((9, 2)), PipeState())
        assert merged.states == (windows((9, 4)),)

    def test_incomparable_states_are_kept(self):
        kept = sset(windows((9, 4)), windows((3, 1)))
        assert len(kept) == 2

    def test_cap_merges_deterministically(self):
        states = [windows((reg, d), (9, r))
                  for r, reg, d in [(0, 2, 1), (9, 3, 2), (1, 2, 2),
                                    (5, 4, 1), (2, 5, 3), (8, 6, 1)]]
        capped = PipeStateSet(states, cap=3)
        assert len(capped) <= 3
        # Same input in any arrival order yields the same capped set.
        for permutation in itertools.permutations(states):
            assert PipeStateSet(permutation, cap=3) == capped

    def test_capped_set_covers_the_uncapped_one(self):
        states = [windows((2, d), (9, r))
                  for r, d in [(0, 3), (1, 2), (4, 1), (6, 2), (2, 4)]]
        uncapped = PipeStateSet(states, cap=99)
        for cap in (1, 2, 3):
            assert uncapped.leq(PipeStateSet(states, cap=cap))

    def test_initial_and_bottom(self):
        assert PipeStateSet.initial(4).states == (EMPTY,)
        assert PipeStateSet((), 4).is_bottom()
        assert not PipeStateSet.initial(4).is_bottom()


def entry_block(source):
    program = assemble(source)
    cfg = build_cfg(program)
    function = cfg.functions[cfg.entry]
    return function.blocks[function.entry]


def walk(source, state=EMPTY, fetch=None, data=(), config=CONFIG,
         is_exit=False):
    block = entry_block(source)
    outcomes = fetch if fetch is not None \
        else [AH] * len(block.instructions)
    return walk_block(block, state, outcomes, list(data), config, is_exit)


class TestStageOccupancyTransfer:
    def test_alu_block_runs_at_cpi_one(self):
        result = walk("main:\n MOVI R2, #1\n ADDI R2, R2, #1\n"
                      " ADDI R2, R2, #1\n ADDI R2, R2, #1\n B main\n")
        # 5 instructions at CPI 1 plus the unconditional redirect.
        assert result.elapsed == 5 + CONFIG.branch_penalty
        assert result.exit_state == EMPTY

    def test_multiply_occupies_ex(self):
        plain = walk("main:\n MOVI R2, #3\n ADD R3, R2, R2\n HALT\n")
        mul = walk("main:\n MOVI R2, #3\n MUL R3, R2, R2\n HALT\n")
        assert mul.elapsed == plain.elapsed + CONFIG.mul_extra

    def test_fetch_miss_hides_behind_multiply(self):
        # The instruction after the MUL misses in the I-cache: its
        # fetch overlaps the EX occupancy, so the cost is the max of
        # the two paths, not the sum.
        source = "main:\n MOVI R2, #3\n MUL R3, R2, R2\n" \
                 " ADD R4, R2, R2\n HALT\n"
        hit = walk(source)
        missed = walk(source, fetch=[AH, AH, NC, AH])
        additive_extra = CONFIG.icache.miss_penalty
        assert missed.elapsed < hit.elapsed + additive_extra
        assert missed.elapsed == hit.elapsed + additive_extra \
            - CONFIG.mul_extra

    def test_load_use_interlock_adjacent_consumer(self):
        stall = walk("main:\n LDR R2, [R1]\n ADD R3, R2, R2\n HALT\n",
                     data=[(0, AH)])
        free = walk("main:\n LDR R2, [R1]\n ADD R3, R4, R4\n HALT\n",
                    data=[(0, AH)])
        assert stall.elapsed == free.elapsed + CONFIG.load_use_stall

    def test_load_use_interlock_hidden_by_intervening_work(self):
        spaced = walk("main:\n LDR R2, [R1]\n MOVI R4, #1\n"
                      " ADD R3, R2, R2\n HALT\n", data=[(0, AH)])
        free = walk("main:\n LDR R2, [R1]\n MOVI R4, #1\n"
                    " ADD R3, R4, R4\n HALT\n", data=[(0, AH)])
        assert spaced.elapsed == free.elapsed

    def test_data_miss_shadowed_by_independent_work(self):
        # An AM load whose value nobody reads: later ALU instructions
        # execute under the miss, so the block costs less than the
        # additive sum (which charges the full penalty).
        busy = walk("main:\n LDR R2, [R1]\n" +
                    " ADDI R4, R4, #1\n" * 6 + " HALT\n",
                    data=[(0, AM)], is_exit=True)
        additive = 8 + CONFIG.dcache.miss_penalty
        assert busy.elapsed < additive

    def test_consecutive_misses_queue_on_the_mem_unit(self):
        both = walk("main:\n LDR R2, [R1]\n LDR R3, [R1, #64]\n HALT\n",
                    data=[(0, AM), (1, AM)], is_exit=True)
        one = walk("main:\n LDR R2, [R1]\n LDR R3, [R1, #64]\n HALT\n",
                   data=[(0, AM), (1, AH)], is_exit=True)
        assert both.elapsed == one.elapsed + CONFIG.dcache.miss_penalty

    def test_persistent_accesses_charge_onetime_not_elapsed(self):
        ps = walk("main:\n LDR R2, [R1]\n HALT\n", data=[(0, PS)])
        ah = walk("main:\n LDR R2, [R1]\n HALT\n", data=[(0, AH)])
        assert ps.elapsed == ah.elapsed
        assert ps.onetime == ah.onetime + CONFIG.dcache.miss_penalty
        fetch_ps = walk("main:\n MOVI R2, #1\n HALT\n", fetch=[PS, AH])
        assert fetch_ps.onetime == CONFIG.icache.miss_penalty

    def test_block_final_load_exports_pending_state(self):
        result = walk("main:\n MOVI R4, #0\n LDR R2, [R1]\n HALT\n",
                      data=[(1, AH)])
        assert dict(result.exit_state.pending).get(2) \
            == CONFIG.load_use_stall

    def test_entry_pending_state_stalls_first_consumer(self):
        # A delay-1 window is hidden behind the consumer's own fetch
        # cycle; from delay 2 the interlock surfaces as real stalls.
        hidden = walk("main:\n ADD R3, R2, R2\n HALT\n",
                      state=PipeState(pending=((2, 1),)))
        stalled = walk("main:\n ADD R3, R2, R2\n HALT\n",
                       state=PipeState(pending=((2, 3),)))
        free = walk("main:\n ADD R3, R2, R2\n HALT\n")
        assert hidden.elapsed == free.elapsed
        assert stalled.elapsed == free.elapsed + 2

    def test_entry_pending_cleared_by_overwrite(self):
        pending = PipeState(pending=((2, 1),))
        overwritten = walk("main:\n MOVI R2, #5\n ADD R3, R2, R2\n"
                           " HALT\n", state=pending)
        free = walk("main:\n MOVI R2, #5\n ADD R3, R2, R2\n HALT\n")
        assert overwritten.elapsed == free.elapsed

    def test_exit_block_pays_the_mem_drain(self):
        interior = walk("main:\n STR R2, [R1]\n HALT\n", data=[(0, AM)])
        exit_blk = walk("main:\n STR R2, [R1]\n HALT\n", data=[(0, AM)],
                        is_exit=True)
        assert exit_blk.elapsed == interior.elapsed + 1

    def test_walker_is_monotone_in_the_entry_state(self):
        source = "main:\n LDR R2, [R1]\n ADD R3, R2, R2\n" \
                 " STR R3, [R1, #4]\n HALT\n"
        small = windows((2, 1))
        large = windows((1, 6), (2, 3), (4, 1))
        assert large.dominates(small)
        walked_small = walk(source, state=small, data=[(0, NC), (2, NC)])
        walked_large = walk(source, state=large, data=[(0, NC), (2, NC)])
        assert walked_large.elapsed >= walked_small.elapsed
        assert walked_large.exit_state.dominates(walked_small.exit_state)


class TestStateValidation:
    def test_nonpositive_delay_rejected(self):
        with pytest.raises(ValueError):
            PipeState(pending=((2, 0),))

    def test_pending_is_normalised(self):
        state = PipeState(pending=((5, 1), (2, 3)))
        assert state.pending == ((2, 3), (5, 1))

    def test_config_rejects_unknown_model(self):
        with pytest.raises(ValueError):
            MachineConfig(pipeline_model="superscalar")
        with pytest.raises(ValueError):
            MachineConfig(pipeline_state_cap=0)
