"""Knapsack solvers: correctness, guarantees, cross-validation.

Every solver takes plain-float lists and returns the selected indices,
ascending; ``profit`` totals them here.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.knapsack import (
    knapsack_few_weights,
    knapsack_fptas,
    knapsack_greedy,
    knapsack_solver,
)

ALL_SOLVERS = [
    knapsack_greedy,
    knapsack_few_weights,
    knapsack_fptas,
]
EXACT_SOLVERS = [knapsack_few_weights]


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


def profit(selected, profits):
    return sum(profits[k] for k in selected)


def check_result(selected, profits, weights, capacity):
    """The selection is distinct, ascending, in range and feasible."""
    assert selected == sorted(set(selected))
    assert all(0 <= k < len(profits) for k in selected)
    assert sum(weights[k] for k in selected) <= capacity + 1e-9


@pytest.mark.parametrize("solver", ALL_SOLVERS)
class TestCommonBehaviour:
    def test_empty_items(self, solver):
        assert solver([], [], 5.0) == []

    def test_nothing_fits(self, solver):
        assert solver([10.0], [7.0], 5.0) == []

    def test_all_fit(self, solver):
        assert solver([1.0, 2.0], [1.0, 1.0], 10.0) == [0, 1]

    def test_nonpositive_profits_ignored(self, solver):
        assert solver([-5.0, 0.0, 3.0], [1.0, 1.0, 1.0], 10.0) == [2]

    def test_zero_capacity(self, solver):
        assert solver([3.0], [1.0], 0.0) == []

    def test_zero_weight_items_taken(self, solver):
        assert 0 in solver([3.0, 4.0], [0.0, 10.0], 1.0)

    def test_mismatched_shapes_rejected(self, solver):
        with pytest.raises(ValueError, match=r"equal-length 1-D, got \(2,\)/\(3,\)"):
            solver([1.0, 1.0], [1.0, 1.0, 1.0], 1.0)

    def test_negative_weight_rejected(self, solver):
        # Even on an item the filter would drop (non-positive profit),
        # and behind a leading NaN, which min() would return.
        for weights in ([1.0, -1.0], [float("nan"), -1.0]):
            with pytest.raises(ValueError, match="weights must be non-negative"):
                solver([1.0, 0.0], weights, 1.0)

    def test_nan_weight_never_packed(self, solver):
        assert solver([1.0, 1.0], [float("nan"), 0.5], 1.0) == [1]

    def test_result_consistency_random(self, solver):
        rng = np.random.default_rng(0)
        for _ in range(20):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n).tolist()
            weights = rng.choice([0.17, 0.22, 0.30, 0.33], n).tolist()
            capacity = float(rng.uniform(0.1, sum(weights)))
            check_result(solver(profits, weights, capacity), profits, weights, capacity)


@pytest.mark.parametrize("solver", EXACT_SOLVERS)
class TestExactSolvers:
    def test_matches_brute_force_random(self, solver):
        rng = np.random.default_rng(1)
        for _ in range(40):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n).tolist()
            weights = rng.choice([1.0, 2.0, 3.0, 5.0], n).tolist()
            capacity = float(rng.uniform(0.5, sum(weights)))
            selected = solver(profits, weights, capacity)
            assert profit(selected, profits) == pytest.approx(
                brute_force(profits, weights, capacity)
            )

    def test_classic_instance(self, solver):
        # Not solvable by pure greedy: greedy-by-density picks item 0.
        assert solver([60.0, 100.0, 120.0], [10.0, 20.0, 30.0], 50.0) == [1, 2]


class TestGreedy:
    def test_half_approximation_guarantee(self):
        rng = np.random.default_rng(2)
        for _ in range(60):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n).tolist()
            weights = rng.uniform(0.1, 5.0, n).tolist()
            capacity = float(rng.uniform(0.2, sum(weights)))
            opt = brute_force(profits, weights, capacity)
            got = profit(knapsack_greedy(profits, weights, capacity), profits)
            assert got >= opt / 2.0 - 1e-9

    def test_best_single_item_fallback(self):
        # Density greedy alone would take the small items (profit 2);
        # the single large item is worth more.
        assert knapsack_greedy([1.0, 1.0, 1.5], [1.0, 1.0, 2.0], 2.0) == [0, 1]  # two small beat 1.5
        assert knapsack_greedy([1.0, 10.0], [0.1, 2.0], 2.0) == [1]


class TestFewWeights:
    def test_single_weight_class(self):
        # afford 2
        assert knapsack_few_weights([5.0, 9.0, 1.0, 7.0], [2.0] * 4, 4.5) == [1, 3]

    def test_enumeration_guard(self):
        rng = np.random.default_rng(3)
        n = 60
        profits = rng.uniform(1, 10, n).tolist()
        weights = rng.uniform(0.1, 1.0, n).tolist()  # ~60 distinct weights: 2^59 combinations
        with pytest.raises(ValueError, match="enumeration too large"):
            knapsack_few_weights(profits, weights, 10.0)

    def test_paper_weight_structure(self):
        """Exact on the radio table's 4 weight classes."""
        rng = np.random.default_rng(4)
        for _ in range(20):
            n = int(rng.integers(4, 14))
            weights = rng.choice([0.17, 0.22, 0.30, 0.33], n).tolist()
            profits = rng.choice([4800.0, 9600.0, 19200.0, 250000.0], n).tolist()
            capacity = float(rng.uniform(0.3, sum(weights)))
            got = profit(knapsack_few_weights(profits, weights, capacity), profits)
            assert got == pytest.approx(brute_force(profits, weights, capacity))


class TestFptas:
    @pytest.mark.parametrize("epsilon", [0.1, 0.3, 0.5])
    def test_approximation_guarantee(self, epsilon):
        rng = np.random.default_rng(6)
        for _ in range(30):
            n = int(rng.integers(1, 12))
            profits = rng.uniform(0.1, 10.0, n).tolist()
            weights = rng.uniform(0.1, 5.0, n).tolist()
            capacity = float(rng.uniform(0.2, sum(weights)))
            opt = brute_force(profits, weights, capacity)
            selected = knapsack_fptas(profits, weights, capacity, epsilon=epsilon)
            assert profit(selected, profits) >= opt / (1.0 + epsilon) - 1e-9

    def test_rejects_bad_epsilon(self):
        with pytest.raises(ValueError, match="epsilon must be > 0"):
            knapsack_fptas([1.0], [1.0], 1.0, epsilon=0.0)


class TestDispatcher:
    def test_methods_routed(self):
        profits = [60.0, 100.0, 120.0]
        weights = [10.0, 20.0, 30.0]
        for method in ("greedy", "few_weights", "fptas"):
            check_result(knapsack_solver(method)(profits, weights, 50.0), profits, weights, 50.0)
        assert knapsack_solver("greedy") is knapsack_greedy
        assert knapsack_solver("fptas", 0.5).keywords == {"epsilon": 0.5}

    def test_default_is_exact_on_few_weights(self):
        assert knapsack_solver() is knapsack_few_weights
        assert knapsack_solver()([60.0, 100.0, 120.0], [10.0, 20.0, 30.0], 50.0) == [1, 2]

    def test_unknown_method_rejected(self):
        # "auto" and "branch_and_bound" are retired: no inexact fallback.
        for method in ("magic", "auto", "branch_and_bound"):
            with pytest.raises(ValueError, match="unknown knapsack method"):
                knapsack_solver(method)

    @pytest.mark.parametrize("method", ["few_weights", "greedy", "fptas"])
    def test_bad_epsilon_rejected(self, method):
        for epsilon in (0.0, -0.1, float("nan")):
            with pytest.raises(ValueError, match="epsilon must be > 0"):
                knapsack_solver(method, epsilon)

    def test_default_raises_past_the_enumeration_cap(self):
        """Many distinct weights raise rather than fall back to an FPTAS
        answer, whose 1/(2+ε) would void Theorem 2's ½."""
        rng = np.random.default_rng(7)
        n = 100
        profits = rng.uniform(1, 10, n).tolist()
        weights = rng.uniform(0.1, 1.0, n).tolist()
        with pytest.raises(ValueError, match="enumeration too large"):
            knapsack_solver()(profits, weights, 5.0)


@given(st.data())
@settings(max_examples=60, deadline=None)
def test_exact_solvers_agree_hypothesis(data):
    """few_weights always delivers the subset-enumeration optimum."""
    n = data.draw(st.integers(1, 10))
    weight_pool = data.draw(
        st.lists(st.floats(0.1, 5.0), min_size=1, max_size=3)
    )
    profits = [data.draw(st.floats(0.1, 20.0)) for _ in range(n)]
    weights = [data.draw(st.sampled_from(weight_pool)) for _ in range(n)]
    capacity = data.draw(st.floats(0.0, sum(weights) * 1.2))
    got = profit(knapsack_few_weights(profits, weights, capacity), profits)
    assert got == pytest.approx(brute_force(profits, weights, capacity))


#: Ten unit-profit items of one weight against a capacity of 1.0, and
#: how many of them an exact solver packs.
CAPACITY_BOUNDARY = [
    # Ten weights sum in order to the capacity, but nine sequential
    # subtractions leave 0.09999999999999999 < 0.10000000000000002.
    (0.10000000000000002, 10),
    # Ten weights exceed the capacity by 1e-10, beyond the slack.
    (0.1 + 1e-11, 9),
]


@pytest.mark.parametrize("weight, packed", CAPACITY_BOUNDARY)
def test_exact_solvers_agree_at_the_capacity_boundary(weight, packed):
    profits = [1.0] * 10
    weights = [weight] * 10
    selected = knapsack_few_weights(profits, weights, 1.0)
    assert selected == list(range(packed))
    assert brute_force(profits, weights, 1.0) == float(packed)
