"""Tests for the sparse LP/ILP engine.

Differential coverage against the retained dense tableau
(:func:`repro.ilp.solve_lp_dense`) on every IPET program the workload
suite generates and on one ~500-pivot synthetic program, randomized LP
property tests, a degenerate/cycling regression exercising the Bland
fallback, residual-triggered refactorization of a perturbed basis
inverse, presolve unit tests, and the solver-stats plumbing of path
analysis.
"""

import itertools
from types import SimpleNamespace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import (ILPStats, LinearProgram, Sense, presolve,
                       solve_ilp, solve_lp, solve_lp_dense)
from repro.ilp import branchbound, simplex
from repro.ilp.revised import RevisedSimplex
from repro.path import ipet
from repro.path.ipet import PathAnalysis
from repro.workloads.suite import (WORKLOADS, analyze_workload,
                                   get_workload, workload_names)


def build(num_vars, objective, constraints, upper=None, lower=None,
          integer=True):
    program = LinearProgram()
    variables = [program.add_variable(
        f"x{i}",
        lower=0.0 if lower is None else lower[i],
        upper=None if upper is None else upper[i],
        is_integer=integer) for i in range(num_vars)]
    for i, coeff in enumerate(objective):
        program.set_objective_coefficient(variables[i], coeff)
    for coeffs, sense, rhs in constraints:
        program.add_constraint(
            {i: c for i, c in enumerate(coeffs)}, sense, rhs)
    return program


def ipet_program(result):
    """Rebuild the IPET program of an analyzed task."""
    analysis = PathAnalysis(result.graph, result.timing,
                            result.loop_bounds, result.values,
                            use_infeasible_paths=True)
    return analysis._build_program()[0]


class TestWorkloadDifferential:
    """Old-dense vs new-sparse on every IPET program the suite builds."""

    @pytest.mark.parametrize("name", workload_names())
    def test_dense_and_sparse_agree(self, name):
        result = analyze_workload(get_workload(name))
        program = ipet_program(result)
        dense = solve_lp_dense(program)
        sparse = solve_lp(program)
        assert dense.status == sparse.status == "optimal"
        assert sparse.objective == pytest.approx(dense.objective, abs=1e-6)
        assert sparse.objective == pytest.approx(result.path.lp_bound,
                                                 abs=1e-6)

    def test_dense_and_sparse_agree_in_many_pivot_regime(self):
        # The suite LPs mostly solve in presolve or a few pivots; this
        # synthetic program keeps 880 columns and needs ~500 pivots,
        # with long degenerate (Bland) runs and a real phase 1.
        from repro.lang import compile_program
        from repro.wcet import analyze_wcet
        from repro.workloads.synthetic import generate_large_source

        result = analyze_wcet(compile_program(generate_large_source(
            depth=3, fanout=3, loop_iterations=6)))
        program = ipet_program(result)
        stats = ILPStats()
        sparse = solve_lp(program, stats=stats)
        dense = solve_lp_dense(program)
        assert stats.pivots > 300
        assert stats.phase1_pivots > 0 and stats.bland_pivots > 0
        assert dense.status == sparse.status == "optimal"
        assert sparse.objective == pytest.approx(dense.objective, abs=1e-6)
        assert sparse.objective == pytest.approx(result.path.lp_bound,
                                                 abs=1e-6)


class TestRandomPrograms:
    @given(st.data())
    @settings(max_examples=80, deadline=None)
    def test_random_lps_dense_vs_sparse(self, data):
        num_vars = data.draw(st.integers(1, 5))
        num_cons = data.draw(st.integers(0, 5))
        coeff = st.integers(-5, 5)
        objective = [data.draw(coeff) for _ in range(num_vars)]
        lower = [data.draw(st.integers(0, 3)) for _ in range(num_vars)]
        upper = [data.draw(st.one_of(
            st.none(), st.integers(0, 12).map(lambda d: d)))
            for _ in range(num_vars)]
        upper = [None if u is None else lower[i] + u
                 for i, u in enumerate(upper)]
        constraints = []
        for _ in range(num_cons):
            row = [data.draw(coeff) for _ in range(num_vars)]
            sense = data.draw(st.sampled_from(
                [Sense.LE, Sense.GE, Sense.EQ]))
            rhs = data.draw(st.integers(-10, 20))
            constraints.append((row, sense, rhs))

        program = build(num_vars, objective, constraints, upper=upper,
                        lower=lower, integer=False)
        dense = solve_lp_dense(program)
        sparse = solve_lp(program)
        assert dense.status == sparse.status
        if dense.is_optimal:
            assert sparse.objective == pytest.approx(dense.objective,
                                                     abs=1e-6)

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_always_bland_matches_default_pricing(self, data):
        num_vars = data.draw(st.integers(1, 4))
        objective = [data.draw(st.integers(-4, 4))
                     for _ in range(num_vars)]
        constraints = []
        for _ in range(data.draw(st.integers(1, 4))):
            row = [data.draw(st.integers(-3, 4)) for _ in range(num_vars)]
            constraints.append((row, Sense.LE,
                                data.draw(st.integers(0, 15))))
        program = build(num_vars, objective, constraints,
                        upper=[8] * num_vars, integer=False)
        default = solve_lp(program)
        bland = solve_lp(program, bland_threshold=0)
        assert default.status == bland.status
        if default.is_optimal:
            assert bland.objective == pytest.approx(default.objective,
                                                    abs=1e-6)


class TestDegenerateRegression:
    """Beale's classic cycling LP: Dantzig pricing alone can cycle on
    it; the Bland fallback must terminate at the optimum."""

    BEALE = ([0.75, -150, 0.02, -6],
             [([0.25, -60, -0.04, 9], Sense.LE, 0),
              ([0.5, -90, -0.02, 3], Sense.LE, 0),
              ([0, 0, 1, 0], Sense.LE, 1)])

    def test_degenerate_terminates_with_fallback(self):
        objective, constraints = self.BEALE
        program = build(4, objective, constraints, integer=False)
        solution = solve_lp(program)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(0.05)

    def test_forced_bland_mode_exercises_fallback(self):
        objective, constraints = self.BEALE
        program = build(4, objective, constraints, integer=False)
        stats = ILPStats()
        solution = solve_lp(program, stats=stats, bland_threshold=0)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(0.05)
        assert stats.bland_pivots > 0


def perturb_inverse(simplex):
    """Scale the basis inverse off by one part in a million: pivot
    choices stay the same, but every step it takes drifts ``A x``."""
    simplex.Binv *= 1.0 + 1e-6


class TestResidualRefactorization:
    """No suite program drifts far enough to refactor, so the residual
    check is exercised by perturbing the basis inverse mid-solve."""

    def test_primal_refactors_a_drifted_inverse(self, monkeypatch):
        pivot = RevisedSimplex._pivot
        perturbed = []

        def pivot_then_perturb(simplex, *args):
            pivot(simplex, *args)
            if not perturbed:
                perturb_inverse(simplex)
                perturbed.append(simplex)

        monkeypatch.setattr(RevisedSimplex, "_pivot", pivot_then_perturb)
        # Every pivot from the slack basis moves the point, so the step
        # after the perturbation leaves A x = b.
        program = build(3, [3, 2, 4], [
            ([1, 1, 2], Sense.LE, 4),
            ([2, 0, 1], Sense.LE, 5),
            ([1, 3, 0], Sense.LE, 6),
        ], integer=False)
        stats = ILPStats()
        solution = solve_lp(program, stats=stats)
        assert perturbed and stats.phase2_pivots >= 2
        assert stats.refactorizations >= 1
        assert solution.objective == pytest.approx(
            solve_lp_dense(program).objective, abs=1e-9)


class TestPresolve:
    def test_singleton_equality_fixes_variable(self):
        program = build(2, [1, 1], [
            ([1, 0], Sense.EQ, 3),
            ([1, 1], Sense.LE, 10),
        ], integer=False)
        stats = ILPStats()
        solution = solve_lp(program, stats=stats)
        assert solution.objective == pytest.approx(10)
        assert solution.values[0] == pytest.approx(3)
        assert stats.presolve_rows_removed >= 1
        assert stats.presolve_cols_removed >= 1

    def test_zero_fix_cascades_through_flow_rows(self):
        # x0 == 0 pins x1 via x1 - x0 == 0, then x2 via x2 - x1 == 0 —
        # the infeasible/unreachable cascade of IPET programs.
        program = build(3, [1, 1, 1], [
            ([1, 0, 0], Sense.EQ, 0),
            ([-1, 1, 0], Sense.EQ, 0),
            ([0, -1, 1], Sense.EQ, 0),
        ], upper=[5, 5, 5], integer=False)
        pre = presolve(program)
        assert pre.num_rows == 0
        solution = solve_lp(program)
        assert solution.objective == pytest.approx(0)
        assert all(solution.values[i] == pytest.approx(0)
                   for i in range(3))

    def test_doubleton_substitution_postsolves(self):
        # max x st x - y == 0, y <= 4: presolve aliases x to y.
        program = build(2, [1, 0], [
            ([1, -1], Sense.EQ, 0),
            ([0, 1], Sense.LE, 4),
        ], integer=False)
        pre = presolve(program)
        assert pre.substitutions
        solution = solve_lp(program)
        assert solution.objective == pytest.approx(4)
        assert solution.values[0] == pytest.approx(4)
        assert solution.values[1] == pytest.approx(4)

    def test_conflicting_singletons_infeasible(self):
        program = build(1, [1], [
            ([1], Sense.GE, 2),
            ([1], Sense.LE, 1),
        ], integer=False)
        assert solve_lp(program).status == "infeasible"

    def test_integral_mode_rounds_bounds(self):
        # max x st 2x <= 5: presolve turns the row into the bound
        # x <= 2.5, the LP optimum; branching on x reaches the ILP
        # optimum 2.
        program = build(1, [1], [([2], Sense.LE, 5)], upper=[9])
        relaxed = solve_lp(program)
        assert relaxed.objective == pytest.approx(2.5)
        solution = solve_ilp(program)
        assert solution.objective == pytest.approx(2)


class TestBranchAndBoundNodes:
    def test_branching_solves_every_node_as_an_lp(self):
        # max 5x + 4y: relaxation (3, 1.5) = 21 needs real branching,
        # and every node is a plain two-phase LP solve.
        rows = [([6, 4], 24), ([1, 2], 6)]
        program = build(2, [5, 4],
                        [(row, Sense.LE, rhs) for row, rhs in rows])
        stats = ILPStats()
        solution = solve_ilp(program, stats=stats)
        assert solution.is_optimal
        assert solution.is_integral()
        assert stats.bb_nodes > 1
        assert stats.pivots == stats.phase1_pivots + stats.phase2_pivots
        best = max(5 * x + 4 * y
                   for x, y in itertools.product(range(7), repeat=2)
                   if all(a * x + b * y <= rhs for (a, b), rhs in rows))
        assert best == 20
        assert solution.objective == pytest.approx(best)

    def test_path_analysis_solves_the_root_once(self, monkeypatch):
        # Path analysis hands its fractional relaxation to branch and
        # bound as the root node: one solve_lp per node, none twice.
        rows = [([6, 4], 24), ([1, 2], 6)]
        program = build(2, [5, 4],
                        [(row, Sense.LE, rhs) for row, rhs in rows])
        x, y = program.variables
        timing = SimpleNamespace(block_cost={"x": 5, "y": 4}.__getitem__,
                                 edges={}, onetime_cost=lambda node: 0)
        analysis = PathAnalysis(None, timing, {}, None)
        analysis._build_program = lambda: (program, {"x": x, "y": y}, {})
        solved = []

        def counted(node_program, *args, **kwargs):
            solution = simplex.solve_lp(node_program, *args, **kwargs)
            solved.append(solution.objective)
            return solution

        monkeypatch.setattr(ipet, "solve_lp", counted)
        monkeypatch.setattr(branchbound, "solve_lp", counted)
        result = analysis.solve()
        assert result.lp_bound == pytest.approx(21)
        assert result.wcet_cycles == 20 and result.integral
        assert result.solver_stats.bb_nodes > 1
        assert len(solved) == result.solver_stats.bb_nodes
        assert solved.count(pytest.approx(21)) == 1

    def test_node_budget_still_enforced(self):
        program = build(2, [1, 1], [([2, 2], Sense.LE, 5)])
        with pytest.raises(RuntimeError):
            solve_ilp(program, max_nodes=0)


class TestSolverStatsPlumbing:
    def test_path_stats_surface_through_wcet_result(self):
        result = analyze_workload(get_workload("calltree"))
        stats = result.solver_stats["path"]
        assert isinstance(stats, ILPStats)
        assert stats.pivots > 0
        assert stats.presolve_rows_removed > 0
        assert stats.bb_nodes == 0      # IPET relaxations are integral
        assert stats.pivots == stats.phase1_pivots + stats.phase2_pivots
        # The program is the plain IPET one: a count per node and edge
        # (presolve, not path analysis, does the reducing).
        assert result.path.num_variables >= \
            result.graph.node_count() + result.graph.edge_count()

    def test_presolve_alone_solves_tiny_programs(self):
        # fibcall's whole IPET program reduces away: the bound is
        # proved without a single simplex pivot.
        result = analyze_workload(get_workload("fibcall"))
        stats = result.solver_stats["path"]
        assert stats.pivots == 0
        assert stats.presolve_rows_removed > 0


class TestLargeProgramGenerator:
    def test_generates_thousands_of_instructions(self):
        from repro.cfg.builder import build_cfg
        from repro.lang import compile_program
        from repro.workloads.synthetic import generate_large_source

        program = compile_program(generate_large_source())
        cfg = build_cfg(program)
        assert cfg.total_instructions() >= 2000

    def test_small_instance_analyzes_exactly(self):
        from repro.lang import compile_program
        from repro.wcet import analyze_wcet
        from repro.workloads.synthetic import generate_large_source

        program = compile_program(
            generate_large_source(depth=1, fanout=2, loop_iterations=4))
        result = analyze_wcet(program)
        assert result.wcet_cycles > 0
        assert result.path.integral
