"""Tests for the simplex and branch-and-bound solvers, cross-checked
against scipy and, for small integer programs, exhaustive enumeration."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.ilp import ILPStats, LinearProgram, Sense, solve_ilp, solve_lp


def build(num_vars, objective, constraints, upper=None, integer=True,
          lower=None):
    program = LinearProgram()
    variables = [program.add_variable(f"x{i}",
                                      lower=0.0 if lower is None
                                      else lower[i],
                                      upper=None if upper is None
                                      else upper[i],
                                      is_integer=integer)
                 for i in range(num_vars)]
    for i, coeff in enumerate(objective):
        program.set_objective_coefficient(variables[i], coeff)
    for coeffs, sense, rhs in constraints:
        program.add_constraint(
            {i: c for i, c in enumerate(coeffs)}, sense, rhs)
    return program


class TestSimplexBasics:
    def test_simple_maximisation(self):
        # max 3x + 2y st x + y <= 4, x <= 2
        program = build(2, [3, 2], [
            ([1, 1], Sense.LE, 4),
            ([1, 0], Sense.LE, 2),
        ])
        solution = solve_lp(program)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(10)  # x=2, y=2

    def test_equality_constraint(self):
        program = build(2, [1, 1], [
            ([1, 1], Sense.EQ, 5),
            ([1, 0], Sense.LE, 3),
        ])
        solution = solve_lp(program)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(5)

    def test_ge_constraint(self):
        # max -x st x >= 3  -> x = 3, objective -3.
        program = build(1, [-1], [([1], Sense.GE, 3)])
        solution = solve_lp(program)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(-3)

    def test_infeasible(self):
        program = build(1, [1], [
            ([1], Sense.LE, 1),
            ([1], Sense.GE, 2),
        ])
        assert solve_lp(program).status == "infeasible"

    def test_unbounded(self):
        program = build(1, [1], [([-1], Sense.LE, 0)])
        assert solve_lp(program).status == "unbounded"

    def test_upper_bounds(self):
        program = build(1, [1], [], upper=[7])
        solution = solve_lp(program)
        assert solution.objective == pytest.approx(7)

    def test_lower_bound_shift(self):
        program = LinearProgram()
        x = program.add_variable("x", lower=2, upper=10)
        program.set_objective_coefficient(x, -1)
        solution = solve_lp(program)
        assert solution.is_optimal
        assert solution.value_of(x) == pytest.approx(2)
        assert solution.objective == pytest.approx(-2)

    def test_no_constraints_bounded(self):
        program = build(2, [5, -1], [], upper=[3, None])
        solution = solve_lp(program)
        assert solution.objective == pytest.approx(15)

    def test_degenerate_does_not_cycle(self):
        # Classic degenerate LP; Bland's rule must terminate.
        program = build(4, [0.75, -150, 0.02, -6], [
            ([0.25, -60, -0.04, 9], Sense.LE, 0),
            ([0.5, -90, -0.02, 3], Sense.LE, 0),
            ([0, 0, 1, 0], Sense.LE, 1),
        ], integer=False)
        solution = solve_lp(program)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(0.05)


class TestAgainstScipy:
    @staticmethod
    def scipy_solve(objective, a_ub, b_ub, a_eq, b_eq, bounds):
        from scipy.optimize import linprog
        result = linprog(
            c=[-c for c in objective],
            A_ub=a_ub if a_ub else None, b_ub=b_ub if b_ub else None,
            A_eq=a_eq if a_eq else None, b_eq=b_eq if b_eq else None,
            bounds=bounds, method="highs")
        return result

    @given(st.data())
    @settings(max_examples=60, deadline=None)
    def test_random_lps_match_scipy(self, data):
        num_vars = data.draw(st.integers(1, 4))
        num_cons = data.draw(st.integers(1, 4))
        coeff = st.integers(-5, 5)
        objective = [data.draw(coeff) for _ in range(num_vars)]
        a_ub, b_ub = [], []
        for _ in range(num_cons):
            row = [data.draw(coeff) for _ in range(num_vars)]
            rhs = data.draw(st.integers(0, 20))
            a_ub.append(row)
            b_ub.append(rhs)
        upper = [data.draw(st.integers(1, 20)) for _ in range(num_vars)]

        program = build(num_vars, objective,
                        [(row, Sense.LE, rhs)
                         for row, rhs in zip(a_ub, b_ub)],
                        upper=upper, integer=False)
        mine = solve_lp(program)
        reference = self.scipy_solve(
            objective, a_ub, b_ub, [], [],
            [(0, u) for u in upper])
        if reference.status == 0:
            assert mine.is_optimal
            assert mine.objective == pytest.approx(-reference.fun,
                                                   abs=1e-6)
        elif reference.status == 2:
            assert mine.status == "infeasible"
        elif reference.status == 3:  # pragma: no cover
            assert mine.status == "unbounded"


class TestBranchAndBound:
    def test_integral_relaxation_passes_through(self):
        program = build(2, [3, 2], [
            ([1, 1], Sense.LE, 4),
            ([1, 0], Sense.LE, 2),
        ])
        stats = ILPStats()
        solution = solve_ilp(program, stats=stats)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(10)
        assert stats.bb_nodes == 1

    def test_fractional_relaxation_branches(self):
        # max x + y st 2x + 2y <= 5: LP optimum 2.5, ILP optimum 2.
        program = build(2, [1, 1], [([2, 2], Sense.LE, 5)])
        solution = solve_ilp(program)
        assert solution.is_optimal
        assert solution.objective == pytest.approx(2)
        assert solution.is_integral()

    def test_knapsack(self):
        # Classic 0/1 knapsack: values 10,13,7; weights 3,4,2; cap 6.
        program = build(3, [10, 13, 7], [([3, 4, 2], Sense.LE, 6)],
                        upper=[1, 1, 1])
        solution = solve_ilp(program)
        assert solution.objective == pytest.approx(20)   # items 2+3

    def test_infeasible_ilp(self):
        program = build(1, [1], [
            ([2], Sense.GE, 1),
            ([2], Sense.LE, 1),
        ])
        solution = solve_ilp(program)
        assert solution.status == "infeasible"

    @given(st.data())
    @settings(max_examples=40, deadline=None)
    def test_random_ilps_match_scipy_milp(self, data):
        from scipy.optimize import milp, LinearConstraint, Bounds
        num_vars = data.draw(st.integers(1, 3))
        objective = [data.draw(st.integers(-4, 4))
                     for _ in range(num_vars)]
        row = [data.draw(st.integers(1, 4)) for _ in range(num_vars)]
        rhs = data.draw(st.integers(1, 15))
        upper = [data.draw(st.integers(1, 8)) for _ in range(num_vars)]

        program = build(num_vars, objective, [(row, Sense.LE, rhs)],
                        upper=upper)
        mine = solve_ilp(program)

        result = milp(
            c=[-c for c in objective],
            constraints=[LinearConstraint([row], ub=[rhs])],
            bounds=Bounds([0] * num_vars, upper),
            integrality=[1] * num_vars)
        assert mine.is_optimal == result.success
        if result.success:
            assert mine.objective == pytest.approx(-result.fun, abs=1e-6)

    @given(st.data())
    @settings(max_examples=200, deadline=None)
    def test_random_ilps_match_enumeration(self, data):
        # Mixed-sense rows over shifted integer boxes, some with
        # half-integer right-hand sides: the cases a single <= row with
        # positive coefficients and zero lower bounds never draws.
        num_vars = data.draw(st.integers(1, 4))
        coeff = st.integers(-4, 4)
        objective = [data.draw(coeff) for _ in range(num_vars)]
        lower = [data.draw(st.integers(0, 2)) for _ in range(num_vars)]
        upper = [lo + data.draw(st.integers(0, 5)) for lo in lower]
        rows = []
        for _ in range(data.draw(st.integers(1, 3))):
            row = [data.draw(coeff) for _ in range(num_vars)]
            sense = data.draw(st.sampled_from(list(Sense)))
            rhs = data.draw(st.integers(-20, 20)) / 2
            rows.append((row, sense, rhs))

        mine = solve_ilp(build(num_vars, objective, rows, upper=upper,
                               lower=lower))

        def satisfies(point, row, sense, rhs):
            lhs = sum(a * x for a, x in zip(row, point))
            return (lhs <= rhs if sense is Sense.LE
                    else lhs >= rhs if sense is Sense.GE else lhs == rhs)

        feasible = [point for point in itertools.product(
                        *(range(lo, hi + 1) for lo, hi in zip(lower, upper)))
                    if all(satisfies(point, *row) for row in rows)]
        if not feasible:
            assert mine.status == "infeasible"
            return
        best = max(sum(c * x for c, x in zip(objective, point))
                   for point in feasible)
        assert mine.is_optimal
        assert mine.objective == pytest.approx(best, abs=1e-6)
        assert mine.is_integral()
        assert all(satisfies([mine.values[i] for i in range(num_vars)],
                             *row) for row in rows)
