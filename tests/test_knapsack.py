"""Knapsack solvers: correctness, guarantees, cross-validation."""

import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import (
    KnapsackResult,
    knapsack_branch_and_bound,
    knapsack_few_weights,
    knapsack_fptas,
    knapsack_greedy,
    solve_knapsack,
)

ALL_SOLVERS = [
    knapsack_greedy,
    knapsack_few_weights,
    knapsack_branch_and_bound,
    knapsack_fptas,
]
EXACT_SOLVERS = [knapsack_few_weights, knapsack_branch_and_bound]


def brute_force(profits, weights, capacity):
    """Reference optimum by subset enumeration."""
    n = len(profits)
    best = 0.0
    for mask in range(1 << n):
        w = sum(weights[k] for k in range(n) if mask >> k & 1)
        if w <= capacity + 1e-12:
            p = sum(profits[k] for k in range(n) if mask >> k & 1)
            best = max(best, p)
    return best


def check_result(result, profits, weights, capacity):
    """Selected set is consistent with the reported totals and feasible."""
    assert result.weight <= capacity + 1e-9
    assert result.profit == pytest.approx(
        sum(profits[k] for k in result.selected)
    )
    assert result.weight == pytest.approx(
        sum(weights[k] for k in result.selected)
    )
    assert len(set(result.selected)) == len(result.selected)


@pytest.mark.parametrize("solver", ALL_SOLVERS)
class TestCommonBehaviour:
    def test_empty_items(self, solver):
        result = solver(np.zeros(0), np.zeros(0), 5.0)
        assert result == KnapsackResult.empty()

    def test_nothing_fits(self, solver):
        result = solver(np.array([10.0]), np.array([7.0]), 5.0)
        assert result.selected == ()

    def test_all_fit(self, solver):
        result = solver(np.array([1.0, 2.0]), np.array([1.0, 1.0]), 10.0)
        assert set(result.selected) == {0, 1}

    def test_nonpositive_profits_ignored(self, solver):
        result = solver(np.array([-5.0, 0.0, 3.0]), np.array([1.0, 1.0, 1.0]), 10.0)
        assert result.selected == (2,)

    def test_zero_capacity(self, solver):
        result = solver(np.array([3.0]), np.array([1.0]), 0.0)
        assert result.selected == ()

    def test_zero_weight_items_taken(self, solver):
        result = solver(np.array([3.0, 4.0]), np.array([0.0, 10.0]), 1.0)
        assert 0 in result.selected

    def test_mismatched_shapes_rejected(self, solver):
        with pytest.raises(ValueError):
            solver(np.ones(2), np.ones(3), 1.0)

    def test_negative_weight_rejected(self, solver):
        with pytest.raises(ValueError):
            solver(np.ones(2), np.array([1.0, -1.0]), 1.0)

    def test_totals_are_a_sequential_loop(self, solver):
        # Left to right, ten 0.1s sum to 0.9999999999999999; sum() on
        # Python >= 3.12 compensates and returns 1.0.
        expected = 0.0
        for _ in range(10):
            expected += 0.1
        assert expected == 0.9999999999999999
        result = solver(np.full(10, 0.1), np.full(10, 0.1), 10.0)
        assert result.selected == tuple(range(10))
        assert result.profit == expected
        assert result.weight == expected

    def test_result_consistency_random(self, solver):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n)
            weights = rng.choice([0.17, 0.22, 0.30, 0.33], n)
            capacity = float(rng.uniform(0.1, weights.sum()))
            result = solver(profits, weights, capacity)
            check_result(result, profits, weights, capacity)


@pytest.mark.parametrize("solver", EXACT_SOLVERS)
class TestExactSolvers:
    def test_matches_brute_force_random(self, solver):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n)
            weights = rng.choice([1.0, 2.0, 3.0, 5.0], n)
            capacity = float(rng.uniform(0.5, weights.sum()))
            result = solver(profits, weights, capacity)
            assert result.profit == pytest.approx(
                brute_force(profits, weights, capacity)
            )

    def test_classic_instance(self, solver):
        # Not solvable by pure greedy: greedy-by-density picks item 0.
        profits = np.array([60.0, 100.0, 120.0])
        weights = np.array([10.0, 20.0, 30.0])
        result = solver(profits, weights, 50.0)
        assert result.profit == pytest.approx(220.0)
        assert set(result.selected) == {1, 2}


class TestGreedy:
    def test_half_approximation_guarantee(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n)
            weights = rng.uniform(0.1, 5.0, n)
            capacity = float(rng.uniform(0.2, weights.sum()))
            opt = brute_force(profits, weights, capacity)
            got = knapsack_greedy(profits, weights, capacity).profit
            assert got >= opt / 2.0 - 1e-9

    def test_best_single_item_fallback(self):
        # Density greedy alone would take the small items (profit 2);
        # the single large item is worth more.
        profits = np.array([1.0, 1.0, 1.5])
        weights = np.array([1.0, 1.0, 2.0])
        result = knapsack_greedy(profits, weights, 2.0)
        assert result.profit == pytest.approx(2.0)  # two small beat 1.5
        result2 = knapsack_greedy(np.array([1.0, 10.0]), np.array([0.1, 2.0]), 2.0)
        assert result2.profit == pytest.approx(10.0)


class TestFewWeights:
    def test_single_weight_class(self):
        profits = np.array([5.0, 9.0, 1.0, 7.0])
        weights = np.full(4, 2.0)
        result = knapsack_few_weights(profits, weights, 4.5)  # afford 2
        assert result.profit == pytest.approx(16.0)
        assert set(result.selected) == {1, 3}

    def test_enumeration_guard(self):
        rng = np.random.default_rng(3)
        n = 60
        profits = rng.uniform(1, 10, n)
        weights = rng.uniform(0.1, 1.0, n)  # ~60 distinct weights
        with pytest.raises(ValueError):
            knapsack_few_weights(profits, weights, 10.0, max_combinations=1000)

    def test_paper_weight_structure(self):
        """Exact on the radio table's 4 weight classes."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(4, 14))
            weights = rng.choice([0.17, 0.22, 0.30, 0.33], n)
            profits = rng.choice([4800.0, 9600.0, 19200.0, 250000.0], n)
            capacity = float(rng.uniform(0.3, weights.sum()))
            got = knapsack_few_weights(profits, weights, capacity).profit
            assert got == pytest.approx(brute_force(profits, weights, capacity))


class TestBranchAndBound:
    def test_node_limit(self):
        rng = np.random.default_rng(5)
        n = 40
        profits = rng.uniform(1.0, 1.001, n)  # near-ties defeat the bound
        weights = rng.uniform(1.0, 1.001, n)
        with pytest.raises(RuntimeError):
            knapsack_branch_and_bound(profits, weights, n / 2.0, max_nodes=50)


class TestFptas:
    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    def test_approximation_guarantee(self, epsilon):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n)
            weights = rng.uniform(0.1, 5.0, n)
            capacity = float(rng.uniform(0.2, weights.sum()))
            opt = brute_force(profits, weights, capacity)
            got = knapsack_fptas(profits, weights, capacity, epsilon=epsilon).profit
            assert got >= opt / (1.0 + epsilon) - 1e-9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError):
            knapsack_fptas(np.ones(1), np.ones(1), 1.0, epsilon=0.0)


class TestDispatcher:
    def test_methods_routed(self):
        profits = np.array([60.0, 100.0, 120.0])
        weights = np.array([10.0, 20.0, 30.0])
        for method in ("greedy", "few_weights", "branch_and_bound", "fptas", "auto"):
            result = solve_knapsack(profits, weights, 50.0, method=method)
            check_result(result, profits, weights, 50.0)

    def test_auto_is_exact_on_few_weights(self):
        profits = np.array([60.0, 100.0, 120.0])
        weights = np.array([10.0, 20.0, 30.0])
        assert solve_knapsack(profits, weights, 50.0).profit == pytest.approx(220.0)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            solve_knapsack(np.ones(1), np.ones(1), 1.0, method="magic")

    def test_auto_falls_back_on_many_weights(self):
        rng = np.random.default_rng(7)
        n = 100
        profits = rng.uniform(1, 10, n)
        weights = rng.uniform(0.1, 1.0, n)
        result = solve_knapsack(profits, weights, 5.0)
        check_result(result, profits, weights, 5.0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_solvers_agree_hypothesis(data):
    """few_weights and branch_and_bound always deliver the same optimum."""
    n = data.draw(st.integers(1, 10))
    weight_pool = data.draw(
        st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3)
    )
    profits = np.array([data.draw(st.floats(0.1, 20.0)) for _ in range(n)])
    weights = np.array([data.draw(st.sampled_from(weight_pool)) for _ in range(n)])
    capacity = data.draw(st.floats(0.0, float(weights.sum()) * 1.2))
    a = knapsack_few_weights(profits, weights, capacity).profit
    b = knapsack_branch_and_bound(profits, weights, capacity).profit
    assert a == pytest.approx(b)


@pytest.mark.parametrize(
    "weight, packed",
    [
        # Ten weights sum in order to the capacity, but nine sequential
        # subtractions leave 0.09999999999999999 < 0.10000000000000002.
        (0.10000000000000002, 10),
        # Ten weights exceed the capacity by 1e-10, beyond the slack.
        (0.1 + 1e-11, 9),
    ],
)
def test_exact_solvers_agree_at_the_capacity_boundary(weight, packed):
    profits = np.ones(10)
    weights = np.full(10, weight)
    for solver in (knapsack_few_weights, knapsack_branch_and_bound):
        result = solver(profits, weights, 1.0)
        assert len(result.selected) == packed, solver.__name__
        assert result.profit == float(packed)
