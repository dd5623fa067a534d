"""Tests for the pluggable context-sensitivity engine.

Covers the acceptance criteria of the context-policy PR:

* structured :class:`Context` semantics (equality, ordering, peel
  queries) and policy tokens,
* differential equivalence: the explicit :class:`FullCallString`
  policy reproduces the default pipeline bit-identically on the
  workload corpus,
* VIVU loop peeling strictly tightens loop-heavy benchmarks while
  every bound still dominates the cycle-accurate simulator,
* k-limited call strings bound expansion on deep call trees where
  full call strings grow multiplicatively,
* deterministic expansion (sorted call/return wiring) and the
  :class:`ExpansionError` recursion diagnostics.
"""

import os

import pytest

from repro.cache.config import CacheConfig, MachineConfig
from repro.cfg import (Context, ExpansionError, FullCallString,
                       KLimitedCallString, VIVU, build_cfg, expand_task,
                       parse_policy)
from repro.isa import assemble
from repro.lang import compile_program
from repro.sim import run_program
from repro.verify import verify_bounds
from repro.wcet import analyze_wcet
from repro.workloads import analyze_workload, get_workload


# -- Context semantics ----------------------------------------------------------


class TestContext:
    def test_iteration_component_distinguishes_copies(self):
        plain = Context((0x10,))
        peeled = Context((0x10,), ((0x40, 0), ))
        steady = Context((0x10,), ((0x40, 1), ))
        assert plain != peeled and peeled != steady
        assert len({plain, peeled, steady}) == 3

    def test_total_order(self):
        contexts = [Context((0x10,), ((0x40, 1),)),
                    Context((0x10,), ((0x40, 0),)),
                    Context(()), Context((0x10,))]
        ordered = sorted(contexts)
        assert ordered[0] == Context(())
        assert ordered[1] == Context((0x10,))
        assert ordered[2].iters == ((0x40, 0),)

    def test_peel_queries_and_label(self):
        ctx = Context((0x10,), ((0x40, 0), (0x60, 1)))
        assert ctx.peel_of(0x40) == 0
        assert ctx.peel_of(0x60) == 1
        assert ctx.peel_of(0x99) == 0
        assert ctx.has_phase_below(1)
        assert ctx.with_phase(0x40, 1).iters == ((0x40, 1), (0x60, 1))
        assert "it0" in ctx.label and ctx.label.startswith("10")
        assert Context().label == "root"

    def test_make_policy(self):
        assert isinstance(parse_policy("full"), FullCallString)
        assert parse_policy("klimited").k == 2
        assert parse_policy("klimited@3").k == 3
        assert parse_policy("vivu@2").peel == 2
        assert parse_policy("vivu").k is None
        combined = parse_policy("vivu@1@3")
        assert combined.peel == 1 and combined.k == 3
        with pytest.raises(ValueError):
            parse_policy("nonsense")
        with pytest.raises(ValueError):
            KLimitedCallString(0)
        with pytest.raises(ValueError):
            VIVU(peel=0)


# -- Policy tokens --------------------------------------------------------------


#: Every policy with parameters 1 to 3, built by its constructor, and
#: the token that names it in reports, job labels and cache keys.
POLICY_TOKENS = (
    [(FullCallString(), "full")]
    + [(KLimitedCallString(k), f"klimited@{k}") for k in (1, 2, 3)]
    + [(VIVU(peel), f"vivu@{peel}") for peel in (1, 2, 3)]
    + [(VIVU(peel, k), f"vivu@{peel}@{k}")
       for peel in (1, 2, 3) for k in (1, 2, 3)])

GOLDEN_BOUNDS = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "golden_bounds.json")


class TestPolicyTokens:
    @pytest.mark.parametrize("policy, token", POLICY_TOKENS,
                             ids=[token for _, token in POLICY_TOKENS])
    def test_token_round_trip(self, policy, token):
        assert policy.describe() == token
        parsed = parse_policy(policy.describe())
        assert parsed.describe() == policy.describe()
        assert (type(parsed), parsed.k, parsed.peel) \
            == (type(policy), policy.k, policy.peel)

    @pytest.mark.parametrize("model", ["additive", "krisc5"])
    @pytest.mark.parametrize("token, golden_key", [
        ("full", "full"), ("klimited@2", "klimited"), ("vivu@1", "vivu")])
    @pytest.mark.parametrize("workload",
                             ["calltree", "duff", "fibcall", "fir"])
    def test_cli_token_prints_golden_bound(self, workload, token,
                                           golden_key, model, tmp_path,
                                           capsys):
        # The CLI token and the matrix key name the same policy.
        from repro.__main__ import main as cli_main
        from repro.batch import load_golden
        path = tmp_path / f"{workload}.c"
        path.write_text(get_workload(workload).source)
        assert cli_main(["wcet", str(path), "--context-policy", token,
                         "--pipeline-model", model]) == 0
        bound = load_golden(GOLDEN_BOUNDS)[workload][golden_key][model]
        assert f"WCET BOUND: {bound} cycles" in capsys.readouterr().out


# -- Differential baseline ------------------------------------------------------


#: Representative slice of the E1-E8 workload corpus (loop nests,
#: calls, annotations, data-dependent control flow).
DIFFERENTIAL_WORKLOADS = ("fibcall", "insertsort", "bsort", "matmult",
                          "crc", "fir", "bs", "ns", "cnt", "statemate",
                          "edn", "calltree", "duff", "fdct", "janne",
                          "lcdnum")


class TestFullCallStringDifferential:
    @pytest.mark.parametrize("name", DIFFERENTIAL_WORKLOADS)
    def test_explicit_policy_matches_default(self, name):
        workload = get_workload(name)
        default = analyze_workload(workload)
        explicit = analyze_workload(workload,
                                    context_policy=FullCallString())
        assert explicit.wcet_cycles == default.wcet_cycles
        assert {h: b.max_iterations
                for h, b in explicit.loop_bounds.items()} \
            == {h: b.max_iterations
                for h, b in default.loop_bounds.items()}
        for attr in ("always_hit", "always_miss", "persistent",
                     "not_classified"):
            assert getattr(explicit.icache.stats, attr) \
                == getattr(default.icache.stats, attr)
            assert getattr(explicit.dcache.stats, attr) \
                == getattr(default.dcache.stats, attr)
        assert explicit.graph.node_count() == default.graph.node_count()
        assert explicit.graph.edge_count() == default.graph.edge_count()


# -- VIVU loop peeling ----------------------------------------------------------


class TestVIVUStructure:
    LOOP = """
    main:
        MOVI R0, #0
    loop:
        ADDI R0, R0, #1
        CMPI R0, #5
        BLT loop
        HALT
    """

    def test_peeling_creates_first_iteration_copy(self):
        binary = build_cfg(assemble(self.LOOP))
        graph = expand_task(binary, policy=VIVU(peel=1))
        header = binary.program.symbols["loop"]
        copies = [n for n in graph.nodes() if n.block == header]
        assert len(copies) == 2
        phases = {n.context.peel_of(header) for n in copies}
        assert phases == {0, 1}
        assert len(graph.peeled_contexts()) == 1

    def test_peeled_copy_is_acyclic_prologue(self):
        from repro.cfg import find_loops
        binary = build_cfg(assemble(self.LOOP))
        graph = expand_task(binary, policy=VIVU(peel=1))
        forest = find_loops(graph.entry, graph.adjacency())
        # Only the steady-state copy remains a natural loop, and its
        # bound accounts for the peeled iteration.
        assert len(forest) == 1
        (loop,) = forest
        header = binary.program.symbols["loop"]
        assert loop.header.context.peel_of(header) == 1
        result = analyze_wcet(assemble(self.LOOP),
                              context_policy=VIVU(peel=1))
        (bound,) = result.loop_bounds.values()
        assert bound.max_iterations == 4    # 5 total = 1 peeled + 4

    def test_peel_two_chains_phases(self):
        binary = build_cfg(assemble(self.LOOP))
        graph = expand_task(binary, policy=VIVU(peel=2))
        header = binary.program.symbols["loop"]
        copies = [n for n in graph.nodes() if n.block == header]
        assert {n.context.peel_of(header) for n in copies} == {0, 1, 2}
        result = analyze_wcet(assemble(self.LOOP),
                              context_policy=VIVU(peel=2))
        execution = run_program(assemble(self.LOOP))
        assert result.wcet_cycles >= execution.cycles

    def test_manual_bound_accounts_for_peeled_iteration(self):
        source = """
        main:
        loop:
            SUBI R0, R0, #1
            CMPI R0, #0
            BGT loop
            HALT
        """
        program = assemble(source)
        header = program.symbols["loop"]
        vivu = analyze_wcet(program, manual_loop_bounds={header: 20},
                            context_policy=VIVU(peel=1))
        full = analyze_wcet(program, manual_loop_bounds={header: 20})
        (bound,) = vivu.loop_bounds.values()
        assert bound.max_iterations == 19   # steady copy: 20 - 1 peeled
        # Total accounting is unchanged: same bound as the baseline.
        assert vivu.wcet_cycles == full.wcet_cycles
        execution = run_program(program, arguments={0: 20})
        assert vivu.wcet_cycles >= execution.cycles


class TestVIVUPrecision:
    #: E8-family pattern: a loop whose first iteration takes an
    #: expensive initialisation branch.  Unpeeled, every iteration must
    #: assume the expensive path; the steady-state copy proves i != 0
    #: and prunes it.
    FIRST_ITERATION_BRANCH = """
    main:
        MOVI R0, #0
        MOVI R1, #0
    loop:
        CMPI R0, #0
        BNE skip
        MUL R2, R2, R2
        MUL R2, R2, R2
        MUL R2, R2, R2
        MUL R2, R2, R2
        MUL R2, R2, R2
        MUL R2, R2, R2
    skip:
        ADDI R0, R0, #1
        CMPI R0, #20
        BLT loop
        HALT
    """

    #: E3-family pattern: an outer loop alternating two inner loops
    #: whose combined code exceeds a tiny I-cache.  Persistence fails
    #: (lines genuinely evicted across outer iterations), so the
    #: unpeeled analysis charges a miss on every inner iteration; the
    #: first-iteration copies absorb the compulsory misses and the
    #: steady-state copies classify ALWAYS_HIT.
    CACHE_CONTENTION = """
    main:
        MOVI R0, #0
    outer:
        MOVI R1, #0
    ia:
        ADDI R2, R2, #1
        ADDI R3, R3, #2
        ADDI R2, R2, #3
        ADDI R3, R3, #4
        ADDI R2, R2, #5
        ADDI R3, R3, #6
        ADDI R1, R1, #1
        CMPI R1, #8
        BLT ia
        MOVI R1, #0
    ib:
        ADDI R4, R4, #1
        ADDI R5, R5, #2
        ADDI R4, R4, #3
        ADDI R5, R5, #4
        ADDI R4, R4, #5
        ADDI R5, R5, #6
        ADDI R1, R1, #1
        CMPI R1, #8
        BLT ib
        ADDI R0, R0, #1
        CMPI R0, #4
        BLT outer
        HALT
    """

    TINY_ICACHE = MachineConfig(icache=CacheConfig(
        num_sets=2, associativity=2, line_size=16, miss_penalty=10))

    def test_first_iteration_branch_pruned_in_steady_state(self):
        program = assemble(self.FIRST_ITERATION_BRANCH)
        full = analyze_wcet(program)
        vivu = analyze_wcet(program, context_policy=VIVU(peel=1))
        assert vivu.wcet_cycles < full.wcet_cycles
        report = verify_bounds(program, vivu)
        assert report.ok, [str(v) for v in report.violations]
        # The steady-state copy proves i >= 1: the expensive arm is
        # executed at most once on the worst-case path.
        execution = run_program(program)
        assert vivu.wcet_cycles <= full.wcet_cycles * 0.6
        assert vivu.wcet_cycles >= execution.cycles

    def test_cache_contention_steady_state_hits(self):
        program = assemble(self.CACHE_CONTENTION)
        full = analyze_wcet(program, config=self.TINY_ICACHE)
        vivu = analyze_wcet(program, config=self.TINY_ICACHE,
                            context_policy=VIVU(peel=1))
        assert vivu.wcet_cycles < full.wcet_cycles
        # The unpeeled analysis cannot classify the contended fetches.
        assert full.icache.stats.not_classified > 0
        assert vivu.icache.stats.not_classified == 0
        # Steady-state copies absorb no compulsory misses.
        split = vivu.icache.iteration_stats
        assert split is not None
        steady = split["steady-state"]
        assert steady.always_hit > 0
        assert steady.not_classified == 0
        report = verify_bounds(program, vivu,
                               max_steps=100_000)
        assert report.ok, [str(v) for v in report.violations]

    def test_vivu_exact_on_contention_program(self):
        # On this program the peeled analysis is cycle-exact.
        program = assemble(self.CACHE_CONTENTION)
        vivu = analyze_wcet(program, config=self.TINY_ICACHE,
                            context_policy=VIVU(peel=1))
        execution = run_program(program, config=self.TINY_ICACHE)
        assert vivu.wcet_cycles == execution.cycles

    @pytest.mark.parametrize("name", ("bsort", "matmult", "insertsort",
                                      "calltree", "edn"))
    def test_vivu_tightens_loop_heavy_workloads_soundly(self, name):
        workload = get_workload(name)
        full = analyze_workload(workload)
        vivu = analyze_workload(workload, context_policy=VIVU(peel=1))
        assert vivu.wcet_cycles < full.wcet_cycles
        report = verify_bounds(workload.compile(), vivu)
        assert report.ok, [str(v) for v in report.violations]

    def test_vivu_e7_family_tighter_and_sound(self):
        source = """
        int data[32]; int result;
        int stage0(int seed) {
            int acc = seed; int i;
            for (i = 0; i < 16; i = i + 1) {
                acc = acc + ((data[i] ^ seed) >> 1) + 1;
                data[i] = acc & 0xFFFF;
            }
            return acc;
        }
        void main() {
            int i;
            for (i = 0; i < 32; i = i + 1) { data[i] = i * 7; }
            int r = 1;
            r = stage0(r);
            r = stage0(r + 1);
            result = r;
        }
        """
        program = compile_program(source)
        full = analyze_wcet(program)
        vivu = analyze_wcet(program, context_policy=VIVU(peel=1))
        assert vivu.wcet_cycles < full.wcet_cycles
        report = verify_bounds(program, vivu)
        assert report.ok, [str(v) for v in report.violations]


# -- K-limited call strings -----------------------------------------------------


def deep_call_tree(levels):
    """A chain of functions each calling the next from two sites: full
    call strings grow as 2^levels, k-limited ones stay linear."""
    functions = []
    for level in range(levels):
        callee = f"f{level + 1}"
        functions.append(f"""
f{level}:
    PUSH {{LR}}
    BL {callee}
    BL {callee}
    POP {{LR}}
    RET""")
    return ("main:\n    BL f0\n    HALT\n" + "\n".join(functions)
            + f"\nf{levels}:\n    ADDI R0, R0, #1\n    RET\n")


class TestKLimitedCallString:
    def test_bounds_multiplicative_context_growth(self):
        sizes = {}
        for levels in (6, 8):
            binary = build_cfg(assemble(deep_call_tree(levels)))
            full = expand_task(binary)
            limited = expand_task(binary, policy=KLimitedCallString(2))
            sizes[levels] = (full.node_count(), limited.node_count())
        # Full call strings double per level; k=2 grows by a constant
        # number of instances per level.
        assert sizes[8][0] / sizes[6][0] > 3.5
        assert sizes[8][1] - sizes[6][1] <= 4 * 8   # ~constant per level
        assert sizes[8][1] < sizes[8][0] / 10

    def test_fits_under_cap_where_full_explodes(self):
        binary = build_cfg(assemble(deep_call_tree(12)))
        with pytest.raises(ExpansionError):
            expand_task(binary, max_contexts=500)
        limited = expand_task(binary, max_contexts=500,
                              policy=KLimitedCallString(2))
        assert limited.node_count() < 500

    def test_merged_instances_still_analyzable(self):
        # Value and cache analyses run to fixpoints over the merged
        # graph (call/return over-approximation is sound for them).
        from repro.analysis import analyze_values
        from repro.cache.analysis import analyze_icache
        binary = build_cfg(assemble(deep_call_tree(10)))
        graph = expand_task(binary, policy=KLimitedCallString(2))
        values = analyze_values(graph)
        assert len(values.reachable_nodes()) == graph.node_count()
        icache = analyze_icache(graph, CacheConfig())
        assert icache.stats.total == graph.instruction_count()

    def test_wcet_sound_on_shallow_merge(self):
        # With a single merge level the k-limited graph stays acyclic
        # and the end-to-end bound still dominates the simulator.
        program = assemble(deep_call_tree(2))
        full = analyze_wcet(program)
        limited = analyze_wcet(program,
                               context_policy=KLimitedCallString(2))
        execution = run_program(program)
        assert limited.wcet_cycles >= execution.cycles
        assert limited.wcet_cycles >= full.wcet_cycles


# -- Determinism and diagnostics ------------------------------------------------


CALLS = """
main:
    BL helper
    BL helper
    HALT
helper:
    PUSH {LR}
    MOVI R0, #1
    POP {LR}
    RET
"""


class TestExpansionDeterminism:
    def edge_trace(self, graph):
        return [(graph.node_key(e.source), graph.node_key(e.target),
                 e.kind)
                for node in graph.nodes()
                for e in graph.successors(node)]

    def test_repeated_expansion_is_identical(self):
        traces = []
        for _ in range(3):
            binary = build_cfg(assemble(CALLS))
            graph = expand_task(binary)
            traces.append(self.edge_trace(graph))
        assert traces[0] == traces[1] == traces[2]

    def test_call_return_wiring_in_sorted_instance_order(self):
        # Under k-limiting a merged callee instance returns to several
        # caller instances; the second expansion pass visits instances
        # in sorted order, so each exit's RETURN fan-out must come out
        # sorted — independent of set iteration order.
        from repro.cfg import EdgeKind
        binary = build_cfg(assemble(deep_call_tree(6)))
        graph = expand_task(binary, policy=KLimitedCallString(2))
        fanned_out = 0
        for node in graph.nodes():
            returns = [graph.node_key(e.target)
                       for e in graph.successors(node)
                       if e.kind is EdgeKind.RETURN]
            assert returns == sorted(returns)
            if len(returns) > 1:
                fanned_out += 1
        assert fanned_out > 0

    def test_vivu_expansion_deterministic(self):
        traces = []
        for _ in range(2):
            binary = build_cfg(assemble(CALLS))
            graph = expand_task(binary, policy=VIVU(peel=1))
            traces.append(self.edge_trace(graph))
        assert traces[0] == traces[1]


class TestRecursionDiagnostics:
    def test_direct_recursion_names_cycle(self):
        binary = build_cfg(assemble("""
        main:
            BL main
            HALT
        """))
        with pytest.raises(ExpansionError) as excinfo:
            expand_task(binary)
        assert "main -> main" in str(excinfo.value)

    def test_mutual_recursion_names_cycle(self):
        binary = build_cfg(assemble("""
        main:
            BL ping
            HALT
        ping:
            PUSH {LR}
            BL pong
            POP {LR}
            RET
        pong:
            PUSH {LR}
            BL ping
            POP {LR}
            RET
        """))
        with pytest.raises(ExpansionError) as excinfo:
            expand_task(binary)
        message = str(excinfo.value)
        assert "ping" in message and "pong" in message


# -- Report integration ---------------------------------------------------------


class TestPolicyReporting:
    def test_report_names_policy_and_peeled_contexts(self):
        from repro.report import wcet_report
        program = assemble(TestVIVUStructure.LOOP)
        result = analyze_wcet(program, context_policy=VIVU(peel=1))
        report = wcet_report(result)
        assert "vivu@1" in report
        assert "first-iteration" in report
        assert "(+1 peeled)" in report

    def test_cli_accepts_policy_flags(self, tmp_path, capsys):
        from repro.__main__ import main as cli_main
        path = tmp_path / "task.s"
        path.write_text(TestVIVUStructure.LOOP)
        assert cli_main(["wcet", str(path),
                         "--context-policy", "vivu@1"]) == 0
        out = capsys.readouterr().out
        assert "vivu@1" in out
        assert cli_main(["wcet", str(path),
                         "--context-policy", "klimited@2"]) == 0
        out = capsys.readouterr().out
        assert "klimited@2" in out

    def test_dot_export_unique_ids_for_peeled_copies(self):
        from repro.report import wcet_dot
        program = assemble(TestVIVUStructure.LOOP)
        result = analyze_wcet(program, context_policy=VIVU(peel=1))
        dot = wcet_dot(result)
        ids = [line.strip().split(" ")[0] for line in dot.splitlines()
               if "label=" in line and "->" not in line
               and not line.strip().startswith("graph ")]
        assert len(ids) == len(set(ids)) == result.graph.node_count()
